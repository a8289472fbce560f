//! The drained [`Session`] and its human/machine exporters: an indented
//! span tree, a JSON document, and a Prometheus-style text metrics dump
//! (the Chrome trace-event exporter lives in [`crate::chrome`]).
//!
//! Every exporter has a *timing* mode (wall-clock fields included; differs
//! run to run) and a *deterministic* mode (structure, attributes, and
//! metric values only — byte-identical across runs and worker counts for
//! the same work, because roots are sorted by label, thread ids and span
//! ids are omitted, and all metric registries iterate sorted).

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::fmt::Write as _;

use crate::json;
use crate::metric::{
    snapshot_counters, snapshot_hists, split_labels, take_counters, take_hists, Histogram,
    BUCKET_BOUNDS,
};
use crate::span::{snapshot_records, take_records, AttrValue, SpanRecord};

/// Everything the collector gathered between enable and drain: finished
/// spans plus the counter/histogram registries.
#[derive(Clone, Debug, Default)]
pub struct Session {
    /// Finished spans, in completion order.
    pub spans: Vec<SpanRecord>,
    /// Counter registry (sorted by name).
    pub counters: BTreeMap<String, u64>,
    /// Histogram registry (sorted by name).
    pub hists: BTreeMap<String, Histogram>,
}

/// Drain the global collector into a [`Session`]. Tracing stays in whatever
/// enabled state it was; only the buffered data moves. Also clears the live
/// progress registry so successive enable/drain cycles stay independent.
pub fn take() -> Session {
    crate::progress::clear_registry();
    Session {
        spans: take_records(),
        counters: take_counters(),
        hists: take_hists(),
    }
}

/// Clone the collector's current contents into a [`Session`] *without*
/// draining: finished spans, counters, and histograms as of this instant.
/// A concurrent writer may land between the three locks, so the view is
/// consistent per registry, not across them.
pub fn snapshot() -> Session {
    Session {
        spans: snapshot_records(),
        ..snapshot_metrics()
    }
}

/// [`snapshot`] without the spans: the live-telemetry read path (the
/// `/metrics` endpoint and the flight recorder), which reads only counters
/// and histograms and so never copies the span history.
pub(crate) fn snapshot_metrics() -> Session {
    Session {
        spans: Vec::new(),
        counters: snapshot_counters(),
        hists: snapshot_hists(),
    }
}

/// `(root indices, children-by-span-id)` with children in start order.
pub(crate) fn build_forest(spans: &[SpanRecord]) -> (Vec<usize>, HashMap<u64, Vec<usize>>) {
    let ids: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut roots: Vec<usize> = Vec::new();
    let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        match s.parent.filter(|p| ids.contains_key(p)) {
            Some(p) => children.entry(p).or_default().push(i),
            None => roots.push(i),
        }
    }
    let by_start = |&i: &usize| (spans[i].start_ns, spans[i].id);
    roots.sort_by_key(by_start);
    for kids in children.values_mut() {
        kids.sort_by_key(by_start);
    }
    (roots, children)
}

fn render_label(s: &SpanRecord) -> String {
    let mut out = s.name.clone();
    if !s.attrs.is_empty() {
        out.push('{');
        for (i, (k, v)) in s.attrs.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{k}={v}");
        }
        out.push('}');
    }
    out
}

/// Human-readable duration: `417ns`, `23.4µs`, `1.234ms`, `2.50s`.
pub fn fmt_duration(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

impl Session {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.counters.is_empty() && self.hists.is_empty()
    }

    /// Indented span tree. With `timing`, each line carries its wall-clock
    /// duration and roots keep start order; without, durations and thread
    /// ids are omitted and roots are sorted by label, making the output
    /// deterministic for deterministic work.
    pub fn span_tree(&self, timing: bool) -> String {
        let (mut roots, children) = build_forest(&self.spans);
        if !timing {
            roots.sort_by(|&a, &b| {
                render_label(&self.spans[a])
                    .cmp(&render_label(&self.spans[b]))
                    .then(a.cmp(&b))
            });
        }
        let mut out = String::new();
        for r in roots {
            self.tree_line(&mut out, r, 0, timing, &children);
        }
        out
    }

    fn tree_line(
        &self,
        out: &mut String,
        i: usize,
        depth: usize,
        timing: bool,
        children: &HashMap<u64, Vec<usize>>,
    ) {
        let s = &self.spans[i];
        let _ = write!(out, "{}{}", "  ".repeat(depth), render_label(s));
        if timing {
            let _ = write!(out, "  [{}]", fmt_duration(s.dur_ns));
        }
        out.push('\n');
        if let Some(kids) = children.get(&s.id) {
            for &k in kids {
                self.tree_line(out, k, depth + 1, timing, children);
            }
        }
    }

    /// JSON document: nested span forest plus the metric registries. With
    /// `timing` off, `start_ns`/`dur_ns`/`thread` are omitted and roots are
    /// sorted by label (deterministic mode).
    pub fn to_json(&self, timing: bool) -> String {
        let (mut roots, children) = build_forest(&self.spans);
        if !timing {
            roots.sort_by(|&a, &b| {
                render_label(&self.spans[a])
                    .cmp(&render_label(&self.spans[b]))
                    .then(a.cmp(&b))
            });
        }
        let mut s = String::from("{\"schema\":\"parmem-obs/v1\",\"spans\":[");
        for (n, &r) in roots.iter().enumerate() {
            if n > 0 {
                s.push(',');
            }
            self.span_json(&mut s, r, timing, &children);
        }
        s.push_str("],\"counters\":{");
        for (n, (name, v)) in self.counters.iter().enumerate() {
            if n > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{}\":{}", json::escape(name), v);
        }
        s.push_str("},\"histograms\":{");
        for (n, (name, h)) in self.hists.iter().enumerate() {
            if n > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\"{}\":{{\"count\":{},\"sum\":{},\"max\":{},\"buckets\":[",
                json::escape(name),
                h.count,
                h.sum,
                h.max
            );
            for (bi, b) in h.buckets.iter().enumerate() {
                if bi > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{b}");
            }
            s.push_str("]}");
        }
        s.push_str("}}");
        s
    }

    fn span_json(
        &self,
        out: &mut String,
        i: usize,
        timing: bool,
        children: &HashMap<u64, Vec<usize>>,
    ) {
        let s = &self.spans[i];
        let _ = write!(out, "{{\"name\":\"{}\"", json::escape(&s.name));
        if timing {
            let _ = write!(
                out,
                ",\"start_ns\":{},\"dur_ns\":{},\"thread\":{}",
                s.start_ns, s.dur_ns, s.thread
            );
        }
        if !s.attrs.is_empty() {
            out.push_str(",\"attrs\":{");
            for (n, (k, v)) in s.attrs.iter().enumerate() {
                if n > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":", json::escape(k));
                match v {
                    AttrValue::Int(x) => {
                        let _ = write!(out, "{x}");
                    }
                    AttrValue::Uint(x) => {
                        let _ = write!(out, "{x}");
                    }
                    AttrValue::Bool(x) => {
                        let _ = write!(out, "{x}");
                    }
                    AttrValue::Str(x) => {
                        let _ = write!(out, "\"{}\"", json::escape(x));
                    }
                }
            }
            out.push('}');
        }
        let kids = children.get(&s.id);
        if let Some(kids) = kids.filter(|k| !k.is_empty()) {
            out.push_str(",\"children\":[");
            for (n, &k) in kids.iter().enumerate() {
                if n > 0 {
                    out.push(',');
                }
                self.span_json(out, k, timing, children);
            }
            out.push(']');
        }
        out.push('}');
    }

    /// Prometheus text-format dump of the counter and histogram registries
    /// (`# HELP`/`# TYPE` headers, escaped label values). Metric values are
    /// deterministic facts of the work (never wall times), so this dump is
    /// byte-identical across runs and worker counts.
    pub fn metrics_text(&self) -> String {
        let mut out = String::new();
        let mut typed: std::collections::HashSet<String> = Default::default();
        for (name, v) in &self.counters {
            let (base, labels) = split_labels(name);
            let prom = sanitize(base);
            if typed.insert(prom.clone()) {
                let _ = writeln!(
                    out,
                    "# HELP parmem_{prom} parmem counter {}",
                    escape_help(base)
                );
                let _ = writeln!(out, "# TYPE parmem_{prom} counter");
            }
            let _ = writeln!(out, "parmem_{prom}{} {v}", fmt_labels(&labels, None));
        }
        for (name, h) in &self.hists {
            let (base, labels) = split_labels(name);
            let prom = sanitize(base);
            if typed.insert(prom.clone()) {
                let _ = writeln!(
                    out,
                    "# HELP parmem_{prom} parmem histogram {}",
                    escape_help(base)
                );
                let _ = writeln!(out, "# TYPE parmem_{prom} histogram");
            }
            let mut cum = 0u64;
            for (i, b) in h.buckets.iter().enumerate() {
                cum += b;
                let le = if i < BUCKET_BOUNDS.len() {
                    BUCKET_BOUNDS[i].to_string()
                } else {
                    "+Inf".to_string()
                };
                let _ = writeln!(
                    out,
                    "parmem_{prom}_bucket{} {cum}",
                    fmt_labels(&labels, Some(&le))
                );
            }
            let _ = writeln!(
                out,
                "parmem_{prom}_sum{} {}",
                fmt_labels(&labels, None),
                h.sum
            );
            let _ = writeln!(
                out,
                "parmem_{prom}_count{} {}",
                fmt_labels(&labels, None),
                h.count
            );
        }
        out
    }
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

fn fmt_labels(labels: &[(&str, &str)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{}=\"{}\"", sanitize(k), escape_label_value(v));
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "le=\"{le}\"");
    }
    out.push('}');
    out
}

/// Prometheus label-value escaping: backslash, double quote, and newline.
pub(crate) fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Prometheus HELP-text escaping: backslash and newline (quotes are legal
/// in help text and stay as-is).
pub(crate) fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{set_enabled, span};

    fn sample_session() -> Session {
        let _records = take(); // drop anything a prior test leaked
        set_enabled(true);
        {
            let mut job = span("job");
            job.attr("program", "FFT");
            job.attr("k", 4u64);
            {
                let mut st = span("stage.frontend");
                st.attr("words", 10u64);
                drop(span("ir.parse"));
            }
            drop(span("stage.assign"));
        }
        crate::metric::counter_add("assign.copies", 3);
        crate::metric::hist_record_n("sim.word_makespan[policy=ideal]", 1, 7);
        crate::metric::hist_record_n("sim.word_makespan[policy=ideal]", 3, 2);
        set_enabled(false);
        take()
    }

    #[test]
    fn tree_nests_and_sorts_deterministically() {
        let _guard = crate::test_lock();
        let s = sample_session();
        let tree = s.span_tree(false);
        let expected =
            "job{program=FFT, k=4}\n  stage.frontend{words=10}\n    ir.parse\n  stage.assign\n";
        assert_eq!(tree, expected);
        // Timing mode adds durations but keeps the same structure.
        let timed = s.span_tree(true);
        assert!(timed.contains("ir.parse  ["));
    }

    #[test]
    fn json_is_parseable_and_deterministic_mode_hides_clocks() {
        let _guard = crate::test_lock();
        let s = sample_session();
        let det = s.to_json(false);
        let v = crate::json::parse(&det).expect("valid json");
        assert!(det.find("start_ns").is_none());
        let spans = v.get("spans").unwrap().as_arr().unwrap();
        assert_eq!(spans[0].get("name").unwrap().as_str(), Some("job"));
        let timed = s.to_json(true);
        assert!(crate::json::parse(&timed).is_ok());
        assert!(timed.contains("start_ns"));
    }

    #[test]
    fn metrics_text_is_prometheus_shaped() {
        let _guard = crate::test_lock();
        let s = sample_session();
        let m = s.metrics_text();
        assert!(m.contains("# TYPE parmem_assign_copies counter"), "{m}");
        assert!(m.contains("parmem_assign_copies 3"), "{m}");
        assert!(
            m.contains("parmem_sim_word_makespan_bucket{policy=\"ideal\",le=\"1\"} 7"),
            "{m}"
        );
        assert!(
            m.contains("parmem_sim_word_makespan_bucket{policy=\"ideal\",le=\"+Inf\"} 9"),
            "{m}"
        );
        assert!(
            m.contains("parmem_sim_word_makespan_sum{policy=\"ideal\"} 13"),
            "{m}"
        );
        assert!(
            m.contains("parmem_sim_word_makespan_count{policy=\"ideal\"} 9"),
            "{m}"
        );
    }

    #[test]
    fn metrics_text_conformance_help_type_and_escaping() {
        let _guard = crate::test_lock();
        let _drop = take();
        set_enabled(true);
        crate::metric::counter_add("weird.metric[path=a\\b\"c\nd]", 1);
        crate::metric::hist_record("weird.hist", 2);
        set_enabled(false);
        let m = take().metrics_text();
        // HELP precedes TYPE for every family, once each.
        let help_at = m.find("# HELP parmem_weird_metric ").expect("HELP line");
        let type_at = m
            .find("# TYPE parmem_weird_metric counter")
            .expect("TYPE line");
        assert!(help_at < type_at, "{m}");
        assert!(m.contains("# HELP parmem_weird_hist parmem histogram weird.hist"));
        assert!(m.contains("# TYPE parmem_weird_hist histogram"));
        // Label values escape backslash, quote, and newline.
        assert!(
            m.contains("parmem_weird_metric{path=\"a\\\\b\\\"c\\nd\"} 1"),
            "{m}"
        );
        // Exactly one HELP+TYPE pair per family.
        assert_eq!(m.matches("# TYPE parmem_weird_hist").count(), 1);
        assert_eq!(m.matches("# HELP parmem_weird_hist").count(), 1);
    }

    #[test]
    fn snapshot_does_not_drain() {
        let _guard = crate::test_lock();
        let _drop = take();
        set_enabled(true);
        crate::metric::counter_add("snap.live", 4);
        drop(span("snap.span"));
        let live = crate::snapshot();
        assert_eq!(live.counters.get("snap.live"), Some(&4));
        assert!(live.spans.iter().any(|s| s.name == "snap.span"));
        // Still there after the snapshot; a second snapshot sees more work.
        crate::metric::counter_add("snap.live", 1);
        let live2 = crate::snapshot();
        assert_eq!(live2.counters.get("snap.live"), Some(&5));
        set_enabled(false);
        let drained = take();
        assert_eq!(drained.counters.get("snap.live"), Some(&5));
        assert!(take().is_empty(), "take() drained everything");
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(417), "417ns");
        assert_eq!(fmt_duration(23_400), "23.4µs");
        assert_eq!(fmt_duration(1_234_000), "1.234ms");
        assert_eq!(fmt_duration(2_500_000_000), "2.50s");
    }
}

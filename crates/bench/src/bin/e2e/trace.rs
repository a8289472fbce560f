//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! A span carries an id, its parent, the operation (job, assignment or
//! request) it belongs to, a name, start and end, and the bytes allocated
//! and the peak live bytes above its start while it was open. Spans are
//! kept in memory and written out when the run ends. A span's *self time*
//! is its duration minus the time its direct children cover; per-layer
//! numbers are sums of self times by span name.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::time::Instant;

use crate::alloc;

/// One closed span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique within one tracer (offset when tracers are merged).
    pub id: u64,
    /// Enclosing span, `None` for an operation's root.
    pub parent: Option<u64>,
    /// The operation this span belongs to.
    pub op: u64,
    /// Layer or phase name.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Bytes allocated while open, children included.
    pub alloc_bytes: u64,
    /// Peak live bytes above the level at start, children included.
    pub peak_bytes: u64,
}

impl Span {
    /// Wall duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Open {
    id: u64,
    parent: Option<u64>,
    op: u64,
    name: &'static str,
    start_ns: u64,
    alloc_at_start: u64,
    live_at_start: u64,
    outer_peak: u64,
}

/// Records nested spans on one thread.
pub struct Tracer {
    epoch: Instant,
    next_id: u64,
    open: Vec<Open>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts at `epoch` (share one epoch between
    /// tracers on different threads so their spans line up).
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            next_id: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` of operation `op`, nested under
    /// whichever span is open.
    pub fn span<R>(&mut self, op: u64, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.next_id;
        self.next_id += 1;
        let open = Open {
            id,
            parent: self.open.last().map(|o| o.id),
            op,
            name,
            start_ns: 0,
            alloc_at_start: alloc::total(),
            live_at_start: alloc::live(),
            outer_peak: alloc::reset_peak(),
        };
        self.open.push(open);
        self.open.last_mut().expect("just pushed").start_ns = self.now_ns();
        let r = f(self);
        let end_ns = self.now_ns();
        let o = self.open.pop().expect("span stack is balanced");
        let peak = alloc::peak();
        alloc::raise_peak(o.outer_peak);
        self.spans.push(Span {
            id: o.id,
            parent: o.parent,
            op: o.op,
            name: o.name,
            start_ns: o.start_ns,
            end_ns,
            alloc_bytes: alloc::total() - o.alloc_at_start,
            peak_bytes: peak.saturating_sub(o.live_at_start),
        });
        r
    }

    /// The closed spans, in closing order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Merge spans from several tracers, renumbering ids so they stay unique.
pub fn merge(parts: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out = Vec::new();
    let mut offset = 0;
    for part in parts {
        let n = part.iter().map(|s| s.id + 1).max().unwrap_or(0);
        out.extend(part.into_iter().map(|mut s| {
            s.id += offset;
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
        offset += n;
    }
    out
}

/// Per-name totals over a set of spans.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerTotals {
    /// Σ self time, ns.
    pub self_ns: u64,
    /// Σ bytes allocated (children included).
    pub alloc_bytes: u64,
    /// Largest peak above start.
    pub peak_bytes: u64,
}

/// Self time, allocation and peak per span name.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        let covered = child_ns.get(&s.id).copied().unwrap_or(0);
        t.self_ns += s.duration_ns().saturating_sub(covered);
        t.alloc_bytes += s.alloc_bytes;
        t.peak_bytes = t.peak_bytes.max(s.peak_bytes);
    }
    out
}

/// Σ duration of the operations' root spans and Σ duration of the layer
/// spans directly under them, ns: the second over the first is how much of
/// each operation the layer spans account for.
pub fn coverage(spans: &[Span]) -> (u64, u64) {
    let roots: BTreeSet<u64> = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.id)
        .collect();
    let total = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::duration_ns)
        .sum();
    let covered = spans
        .iter()
        .filter(|s| s.parent.is_some_and(|p| roots.contains(&p)))
        .map(Span::duration_ns)
        .sum();
    (total, covered)
}

/// The spans as one JSON document.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut s = format!(
        "{{\"schema\":\"parmem-e2e-spans/v1\",\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
    );
    for (i, sp) in spans.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            s,
            "\n{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
             \"alloc_bytes\":{},\"peak_bytes\":{}}}",
            sp.id, parent, sp.op, sp.name, sp.start_ns, sp.end_ns, sp.alloc_bytes, sp.peak_bytes
        );
    }
    s.push_str("\n]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name,
            start_ns: start,
            end_ns: end,
            alloc_bytes: 10,
            peak_bytes: id,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // job [0,100) ⊃ assign [10,50) ⊃ graph [20,30); verify [50,90).
        let spans = vec![
            span(2, Some(1), "graph", 20, 30),
            span(1, Some(0), "assign", 10, 50),
            span(3, Some(0), "verify", 50, 90),
            span(0, None, "job", 0, 100),
        ];
        let t = layer_totals(&spans);
        assert_eq!(t["job"].self_ns, 20);
        assert_eq!(t["assign"].self_ns, 30);
        assert_eq!(t["graph"].self_ns, 10);
        assert_eq!(t["verify"].self_ns, 40);
        let sum: u64 = t.values().map(|l| l.self_ns).sum();
        assert_eq!(sum, 100, "self times partition the root");
        assert_eq!(t["job"].alloc_bytes, 10);
        assert_eq!(t["graph"].peak_bytes, 2);
        assert_eq!(coverage(&spans), (100, 80));
    }

    #[test]
    fn tracer_nests_and_merge_renumbers() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        let v = a.span(7, "op", |t| {
            t.span(7, "inner", |_| vec![0u8; 4096]).len() + t.span(7, "inner", |_| 1)
        });
        assert_eq!(v, 4097);
        let a = a.into_spans();
        assert_eq!(a.len(), 3);
        let root = a.iter().find(|s| s.name == "op").unwrap();
        assert!(root.parent.is_none());
        assert!(a
            .iter()
            .filter(|s| s.name == "inner")
            .all(|s| s.parent == Some(root.id)));
        assert!(a.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        assert!(root.alloc_bytes >= 4096);

        let mut b = Tracer::new(epoch);
        b.span(8, "op", |_| ());
        let merged = merge(vec![a, b.into_spans()]);
        let mut ids: Vec<u64> = merged.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4, "ids stay unique after merging");
        let json = to_json("corpus", 1, &merged);
        assert!(json.contains("\"name\":\"inner\""));
        assert!(crate::json::parse(&json).is_ok());
    }
}

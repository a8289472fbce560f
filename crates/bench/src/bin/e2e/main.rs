//! `e2e` — the end-to-end benchmark: compile throughput, generated-code
//! quality and serve latency on four named workloads, plus a traced run
//! that splits each operation by pipeline layer.
//!
//! ```text
//! e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!     [--out results.jsonl] [--spans spans.json] [--parmem PATH] [--smoke]
//! e2e compare A.jsonl B.jsonl [--bench BENCHMARK.json]
//! ```
//!
//! Without `--workload` every workload runs in turn. Each run prints one
//! JSON object as its last stdout line: `correct`, `attempted`, `failed`
//! and `metrics` (every end-to-end metric, or with `--trace 1` every
//! per-layer metric, each with its unit). `--out` appends the same record,
//! tagged with workload and seed, to a JSON-lines file that `compare`
//! reads. Any failed check makes the command exit nonzero. See README.md
//! for what each workload and metric means.

mod alloc;
mod compare;
mod corpus;
mod json;
mod serve;
mod stats;
mod synth;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use trace::Span;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// The workloads, in the order a full run takes them.
pub const WORKLOADS: [&str; 4] = ["corpus", "corpus-planned", "synth-1e5", "serve-mix"];

/// End-to-end metrics (name, unit), measured with tracing off.
pub const END_TO_END: [(&str, &str); 7] = [
    ("ops_per_s", "1/s"),
    ("latency_p95_ms", "ms"),
    ("peak_heap_mb", "MiB"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
    ("sim_cycles", "cycles"),
    ("extra_copies", "copies"),
];

/// Per-layer metrics (name, unit), measured by the traced run. Every
/// workload reports every one; a layer a workload does not run reads 0.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("frontend.ms", "ms"),
    ("optimize.ms", "ms"),
    ("schedule.ms", "ms"),
    ("assign.ms", "ms"),
    ("verify.ms", "ms"),
    ("reference.ms", "ms"),
    ("simulate.ms", "ms"),
    ("driver.ms", "ms"),
    ("frontend.alloc_mb", "MiB"),
    ("optimize.alloc_mb", "MiB"),
    ("schedule.alloc_mb", "MiB"),
    ("assign.alloc_mb", "MiB"),
    ("verify.alloc_mb", "MiB"),
    ("reference.alloc_mb", "MiB"),
    ("simulate.alloc_mb", "MiB"),
    ("schedule.static_words", "count"),
    ("assign.values", "count"),
    ("assign.uncolored", "count"),
    ("assign.atoms", "count"),
    ("assign.extra_copies", "count"),
    ("reference.steps", "count"),
    ("simulate.words", "count"),
    ("simulate.array_conflict_pct", "%"),
    ("graph.build_ms", "ms"),
    ("graph.edges", "count"),
    ("graph.components", "count"),
    ("assign.rest_ms", "ms"),
    ("assign.peak_mb", "MiB"),
    ("recount.ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache_evictions", "count"),
    ("serve.intermediate_hit_ratio", "ratio"),
    ("serve.queue_rejected", "count"),
    ("serve.assign_ms", "ms"),
    ("serve.compile_ms", "ms"),
    ("serve.lint_ms", "ms"),
    ("serve.exact_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("op.ms", "ms"),
    ("op.p50_ms", "ms"),
    ("op.count", "count"),
    ("trace.coverage_pct", "%"),
    ("trace_overhead_pct", "%"),
];

/// Setups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Settings shared by every workload of one invocation.
#[derive(Clone, Debug)]
pub struct Config {
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Cut sizes down, skip warm-up and stop at operation granularity, so a
    /// run takes about `seconds` even in a debug build (the unit tests).
    pub smoke: bool,
    /// The `parmem` binary `serve-mix` starts.
    pub parmem: PathBuf,
}

/// Operations attempted and failed, with the first failures described on
/// stderr.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations that failed a check (or never produced output).
    pub failed: u64,
}

impl Tally {
    /// Record one checked operation; `what` names it if it failed.
    pub fn check(&mut self, result: Result<(), String>, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if let Err(e) = result {
            if self.failed < 10 {
                eprintln!("e2e: FAILED {}: {e}", what());
            }
            self.failed += 1;
        }
    }
}

/// A slice of a window whose operations ran under the same conditions: a
/// corpus pass, one synth assignment, two seconds of serve-mix. Timing
/// metrics are medians over rounds, so a burst of interference from
/// outside the benchmark moves a few rounds, not the result.
#[derive(Debug)]
pub struct Round {
    /// One latency per operation completed in the round, ms.
    pub latencies_ms: Vec<f64>,
    /// Wall time of the round, s.
    pub elapsed_s: f64,
}

/// What one measured window produced.
#[derive(Debug)]
pub struct Window {
    /// The window's rounds, in order.
    pub rounds: Vec<Round>,
    /// Wall time of the window, s.
    pub elapsed_s: f64,
    /// Time the traced run spent in calls the untraced run does not make,
    /// s (left out when comparing the two runs' throughput).
    pub probe_s: f64,
    /// Heap high-water mark of the process doing the work, bytes: this
    /// process's during the window, or the daemon's on `serve-mix`.
    pub peak_heap: u64,
    /// Spans (traced windows only).
    pub spans: Vec<Span>,
}

impl Window {
    /// Operations completed.
    pub fn ops(&self) -> usize {
        self.rounds.iter().map(|r| r.latencies_ms.len()).sum()
    }

    /// Median over rounds of `f(round)` (0 for an empty window).
    pub fn round_median(&self, f: impl Fn(&Round) -> Option<f64>) -> f64 {
        let per_round: Vec<f64> = self.rounds.iter().filter_map(f).collect();
        stats::median(&per_round).unwrap_or(0.0)
    }
}

/// One workload: set up, run measured windows, report quality and layers.
pub trait Workload: Sized {
    /// Build the workload's inputs and reference outputs (timed as
    /// `setup_s`).
    fn setup(cfg: &Config) -> Result<Self, String>;

    /// Length of the untimed warm-up window; 0 runs one unit of work.
    fn warm_up_s(&self) -> f64 {
        0.0
    }

    /// Run operations in a closed loop until `seconds` have passed,
    /// checking every output into `tally`; record spans when `traced`.
    fn window(&mut self, seconds: f64, traced: bool, tally: &mut Tally) -> Result<Window, String>;

    /// Generated-code quality after the last window: (`sim_cycles`,
    /// `extra_copies`).
    fn quality(&mut self, tally: &mut Tally) -> Result<(f64, f64), String>;

    /// Peak resident set of the process doing the work, MiB.
    fn peak_rss_mb(&self) -> f64 {
        alloc::vm_hwm_mib(None).unwrap_or(0.0)
    }

    /// Per-layer metrics of a traced window.
    fn layers(&mut self, traced: &Window) -> Result<Metrics, String>;

    /// Release what setup acquired.
    fn finish(self) -> Result<(), String> {
        Ok(())
    }
}

/// One workload's result.
#[derive(Debug)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Checked operations.
    pub attempted: u64,
    /// Failed operations.
    pub failed: u64,
    /// The metrics this mode reports, with units.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Spans of the traced window (empty untraced).
    pub spans: Vec<Span>,
}

/// Run one workload by name.
pub fn run(workload: &str, cfg: &Config, traced: bool) -> Result<Outcome, String> {
    match workload {
        "corpus" => measure::<corpus::Corpus<false>>(cfg, traced),
        "corpus-planned" => measure::<corpus::Corpus<true>>(cfg, traced),
        "synth-1e5" => measure::<synth::Synth>(cfg, traced),
        "serve-mix" => measure::<serve::ServeMix>(cfg, traced),
        other => Err(format!(
            "unknown workload `{other}` (one of: {})",
            WORKLOADS.join(", ")
        )),
    }
}

fn measure<W: Workload>(cfg: &Config, traced: bool) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let mut state: Option<W> = None;
    for _ in 0..if cfg.smoke { 1 } else { SETUP_REPEATS } {
        if let Some(previous) = state.take() {
            previous.finish()?;
        }
        let t = Instant::now();
        state = Some(W::setup(cfg)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut w = state.expect("at least one setup ran");
    let result = measure_windows(&mut w, cfg, traced, &setups, &mut tally);
    let finished = w.finish();
    let (values, spans) = result?;
    finished?;

    let table: &[(&'static str, &'static str)] = if traced { &PER_LAYER } else { &END_TO_END };
    let metrics = table
        .iter()
        .map(|&(name, unit)| {
            let v = values.get(name).copied();
            // A per-layer metric a workload has no such layer for reads 0;
            // every end-to-end metric is measured on every workload.
            assert!(traced || v.is_some(), "end-to-end metric `{name}` missing");
            (name, v.unwrap_or(0.0), unit)
        })
        .collect();
    Ok(Outcome {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        spans,
    })
}

fn measure_windows<W: Workload>(
    w: &mut W,
    cfg: &Config,
    traced: bool,
    setups: &[f64],
    tally: &mut Tally,
) -> Result<(Metrics, Vec<Span>), String> {
    if !cfg.smoke {
        w.window(w.warm_up_s(), false, tally)?;
    }
    if !traced {
        let win = w.window(cfg.seconds, false, tally)?;
        // Read before the quality probes, which are not part of the workload.
        let peak_rss_mb = w.peak_rss_mb();
        let (sim_cycles, extra_copies) = w.quality(tally)?;
        let m = Metrics::from([
            (
                "ops_per_s",
                win.round_median(|r| Some(r.latencies_ms.len() as f64 / r.elapsed_s)),
            ),
            (
                "latency_p95_ms",
                win.round_median(|r| stats::percentile(&r.latencies_ms, 95.0)),
            ),
            ("peak_heap_mb", alloc::mib(win.peak_heap)),
            ("peak_rss_mb", peak_rss_mb),
            ("setup_s", stats::median(setups).expect("setup ran")),
            ("sim_cycles", sim_cycles),
            ("extra_copies", extra_copies),
        ]);
        eprintln!(
            "e2e: {} operations in {} rounds, {:.2} s",
            win.ops(),
            win.rounds.len(),
            win.elapsed_s
        );
        return Ok((m, Vec::new()));
    }
    // Traced: an untraced and a traced window of half the length each, so
    // the difference in throughput is the tracing overhead.
    let plain = w.window(cfg.seconds / 2.0, false, tally)?;
    let mut win = w.window(cfg.seconds / 2.0, true, tally)?;
    let mut m = w.layers(&win)?;
    let traced_rate = win.ops() as f64 / (win.elapsed_s - win.probe_s);
    let plain_rate = plain.ops() as f64 / plain.elapsed_s;
    m.insert(
        "trace_overhead_pct",
        100.0 * (1.0 - traced_rate / plain_rate),
    );
    let (total, covered) = trace::coverage(&win.spans);
    m.insert("trace.coverage_pct", 100.0 * covered as f64 / total as f64);
    let ops = win.ops() as f64;
    m.insert("op.count", ops);
    m.insert("op.ms", total as f64 / 1e6 / ops);
    m.insert(
        "op.p50_ms",
        win.round_median(|r| stats::median(&r.latencies_ms)),
    );
    Ok((m, std::mem::take(&mut win.spans)))
}

/// For each `(span name, time metric, allocation metric)`: Σ self time in
/// ms and Σ allocation in MiB, divided by `per` (passes or operations); an
/// empty allocation name skips it. Also `assign.peak_mb`, the largest heap
/// peak above its start of any `assign` span.
pub fn span_layers(
    spans: &[Span],
    names: &[(&'static str, &'static str, &'static str)],
    per: f64,
) -> Metrics {
    let totals = trace::layer_totals(spans);
    let mut m = Metrics::new();
    for &(span, ms_name, alloc_name) in names {
        let t = totals.get(span).cloned().unwrap_or_default();
        m.insert(ms_name, t.self_ns as f64 / 1e6 / per);
        if !alloc_name.is_empty() {
            m.insert(alloc_name, alloc::mib(t.alloc_bytes) / per);
        }
    }
    let assign_peak = totals.get("assign").map_or(0, |t| t.peak_bytes);
    m.insert("assign.peak_mb", alloc::mib(assign_peak));
    m
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(o: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        o.correct, o.attempted, o.failed
    );
    for (i, (name, value, unit)) in o.metrics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            num(*value)
        );
    }
    s.push_str("}}");
    s
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

struct Args {
    workloads: Vec<String>,
    cfg: Config,
    traced: bool,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let default_parmem = std::env::current_exe()
        .map(|p| p.with_file_name("parmem"))
        .unwrap_or_else(|_| PathBuf::from("parmem"));
    let mut a = Args {
        workloads: WORKLOADS.iter().map(|w| w.to_string()).collect(),
        cfg: Config {
            seed: 1,
            seconds: 20.0,
            smoke: false,
            parmem: default_parmem,
        },
        traced: false,
        out: None,
        spans: None,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            a.cfg.smoke = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("option `{flag}` needs a value"))?;
        let bad = || format!("option `{flag}` has invalid value `{value}`");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!(
                        "unknown workload `{value}` (one of: {})",
                        WORKLOADS.join(", ")
                    ));
                }
                a.workloads = vec![value.clone()];
            }
            "--seed" => a.cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                a.cfg.seconds = value.parse().map_err(|_| bad())?;
                if !(a.cfg.seconds > 0.0 && a.cfg.seconds <= 600.0) {
                    return Err(format!("`--seconds` must be in (0, 600], got {value}"));
                }
            }
            "--trace" => {
                a.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("`--trace` takes 0 or 1, got `{value}`")),
                }
            }
            "--out" => a.out = Some(PathBuf::from(value)),
            "--spans" => a.spans = Some(PathBuf::from(value)),
            "--parmem" => a.cfg.parmem = PathBuf::from(value),
            _ => {
                return Err(format!(
                    "unknown option `{flag}` (accepted: --workload, --seed, --seconds, --trace, \
                     --out, --spans, --parmem, --smoke)"
                ))
            }
        }
    }
    Ok(a)
}

fn append_line(path: &PathBuf, line: &str) -> Result<(), String> {
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(f, "{line}").map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("compare") {
        return match compare::main(&raw[1..]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("e2e compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e: {e}");
            return ExitCode::from(2);
        }
    };
    let mut all_correct = true;
    for workload in &args.workloads {
        eprintln!(
            "e2e: {workload} seed={} seconds={} trace={}",
            args.cfg.seed,
            args.cfg.seconds,
            u8::from(args.traced)
        );
        let outcome = match run(workload, &args.cfg, args.traced) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("e2e: {workload}: {e}");
                return ExitCode::FAILURE;
            }
        };
        for (name, value, unit) in &outcome.metrics {
            eprintln!("  {workload:<15} {name:<29} {value:>14.4} {unit}");
        }
        let line = result_json(&outcome);
        if let Some(path) = &args.out {
            let record = format!(
                "{{\"workload\":\"{workload}\",\"seed\":{},\"trace\":{},{}",
                args.cfg.seed,
                u8::from(args.traced),
                &line[1..]
            );
            if let Err(e) = append_line(path, &record) {
                eprintln!("e2e: {e}");
                return ExitCode::FAILURE;
            }
        }
        if let Some(path) = &args.spans {
            let doc = trace::to_json(workload, args.cfg.seed, &outcome.spans);
            if let Err(e) = std::fs::write(path, doc) {
                eprintln!("e2e: {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        all_correct &= outcome.correct;
        println!("{line}");
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &str, traced: bool) -> Outcome {
        let cfg = Config {
            seed: 3,
            seconds: 1.0,
            smoke: true,
            parmem: PathBuf::from("parmem"),
        };
        run(workload, &cfg, traced).unwrap_or_else(|e| panic!("{workload}: {e}"))
    }

    fn value(o: &Outcome, name: &str) -> f64 {
        o.metrics.iter().find(|m| m.0 == name).expect(name).1
    }

    #[test]
    fn smoke_runs_report_every_metric() {
        for workload in ["corpus", "corpus-planned", "synth-1e5"] {
            let o = smoke(workload, false);
            assert!(o.correct && o.attempted > 0, "{workload}: {o:?}");
            let names: Vec<&str> = o.metrics.iter().map(|m| m.0).collect();
            assert_eq!(names, END_TO_END.map(|m| m.0), "{workload}");
            for (name, v, _) in &o.metrics {
                assert!(*v > 0.0, "{workload}: {name} = {v}");
            }
            let line = result_json(&o);
            let doc = json::parse(&line).expect("result line is JSON");
            assert_eq!(
                doc.at(&["metrics", "setup_s", "unit"])
                    .and_then(json::Json::str),
                Some("s")
            );
        }
    }

    #[test]
    fn traced_smoke_runs_split_by_layer() {
        let o = smoke("corpus", true);
        assert!(o.correct, "{o:?}");
        assert_eq!(o.metrics.len(), PER_LAYER.len());
        assert!(value(&o, "simulate.ms") > 0.0);
        assert!(value(&o, "reference.steps") > 0.0);
        assert_eq!(value(&o, "serve.cache_evictions"), 0.0);
        let names: std::collections::BTreeSet<&str> = o.spans.iter().map(|s| s.name).collect();
        for (stage, _, _) in corpus::STAGE_METRICS {
            assert!(names.contains(stage), "{stage} span missing");
        }
        let o = smoke("synth-1e5", true);
        assert!(o.correct, "{o:?}");
        assert!(value(&o, "graph.build_ms") > 0.0);
        assert!(value(&o, "graph.edges") > 0.0);
        assert!(value(&o, "assign.extra_copies") > 0.0);
    }

    #[test]
    fn metric_tables_have_unique_valid_names() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
        }
    }

    #[test]
    fn benchmark_json_lists_these_metrics_and_workloads() {
        let Some(doc) =
            compare::find_benchmark_json(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        else {
            return; // built outside the repository: nothing to compare with
        };
        let bench = compare::Bench::load(&doc).expect("BENCHMARK.json parses");
        let e2e: Vec<(&str, &str)> = bench
            .end_to_end
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str()))
            .collect();
        assert_eq!(e2e, END_TO_END.to_vec());
        let layers: Vec<(&str, &str)> = bench
            .per_layer
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str()))
            .collect();
        assert_eq!(layers, PER_LAYER.to_vec());
        assert_eq!(bench.workloads, WORKLOADS.map(String::from).to_vec());
    }

    #[test]
    fn args_parse_strictly() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload synth-1e5 --seed 9 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workloads, ["synth-1e5"]);
        assert_eq!((a.cfg.seed, a.cfg.seconds, a.traced), (9, 2.5, true));
        assert_eq!(parse_args(&[]).unwrap().workloads.len(), WORKLOADS.len());
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seconds 0",
            "--seed x",
            "--bogus 1",
            "--seed",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}

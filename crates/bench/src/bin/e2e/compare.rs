//! `e2e compare A.jsonl B.jsonl`: compare two sets of repeated runs (the
//! records `--out` appends) metric by metric and workload by workload,
//! under the bounds `BENCHMARK.json` fixes.
//!
//! For each (workload, end-to-end metric) the verdict is
//! * **unchanged** when the medians differ by no more than the metric's
//!   absolute floor ([`abs_floor`]), whatever the spread;
//! * **worse** when B's median is worse than A's by more than the bound;
//! * otherwise **unresolved** when either side's quartile spread (as a
//!   share of its median) is wider than the bound, unless every B run reads
//!   better than every A run (then **better**);
//! * otherwise **better** when B's median is better by more than the bound
//!   (by anything, for a bound of 0), else **unchanged**.
//!
//! A row for the failure ratio (failed ÷ attempted) is worse whenever B's
//! ratio exceeds A's. The command exits nonzero if any row is worse.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use crate::json::{self, Json};
use crate::stats;

/// One metric of `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `"better": "higher"`.
    pub higher_is_better: bool,
    /// Share of A's median B may worsen by (0 for per-layer metrics).
    pub bound: f64,
}

/// The parts of `BENCHMARK.json` the benchmark reads.
#[derive(Clone, Debug, PartialEq)]
pub struct Bench {
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// End-to-end metrics with their bounds.
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics.
    pub per_layer: Vec<MetricSpec>,
}

impl Bench {
    /// Read and check a `BENCHMARK.json`.
    pub fn load(path: &Path) -> Result<Bench, String> {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| Bench::parse(&text))
            .map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Check the text of a `BENCHMARK.json`.
    pub fn parse(text: &str) -> Result<Bench, String> {
        let doc = json::parse(text)?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::arr)
                .ok_or_else(|| format!("`{key}` must be an array"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let s = |f: &str| m.get(f).and_then(Json::str).map(str::to_string);
                    Ok(MetricSpec {
                        name: s("name").ok_or(format!("{key}: metric without a name"))?,
                        unit: s("unit").ok_or(format!("{key}: metric without a unit"))?,
                        higher_is_better: match s("better").as_deref() {
                            Some("higher") => true,
                            Some("lower") => false,
                            _ => return Err(format!("{key}: `better` must be higher or lower")),
                        },
                        bound: m.get("bound").and_then(Json::num).unwrap_or(0.0),
                    })
                })
                .collect()
        };
        Ok(Bench {
            workloads: list("workloads")?
                .iter()
                .filter_map(|w| w.get("name").and_then(Json::str).map(str::to_string))
                .collect(),
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

/// The nearest `BENCHMARK.json` in `start` or one of its ancestors.
pub fn find_benchmark_json(start: &Path) -> Option<PathBuf> {
    start
        .ancestors()
        .map(|d| d.join("BENCHMARK.json"))
        .find(|p| p.is_file())
}

/// A comparison verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B beats A by more than the bound.
    Better,
    /// B loses to A by more than the bound: a regression.
    Worse,
    /// Within the bound, and the spread is narrow enough to say so.
    Unchanged,
    /// The run-to-run spread is wider than the bound.
    Unresolved,
}

/// The smallest change of a metric's median, in its unit, that can count
/// as a change. `setup_s` is bounded by the larger of its relative bound
/// and 0.1 s: the corpus set-ups take about 2 ms and vary by a third
/// between runs, yet a change that small costs no user anything.
pub fn abs_floor(metric: &str) -> f64 {
    match metric {
        "setup_s" => 0.1,
        _ => 0.0,
    }
}

/// Compare repeated runs `a` (parent) and `b` (change) of one metric.
pub fn verdict(a: &[f64], b: &[f64], bound: f64, floor: f64, higher_is_better: bool) -> Verdict {
    let (Some(ma), Some(mb)) = (stats::median(a), stats::median(b)) else {
        return Verdict::Unresolved;
    };
    if floor > 0.0 && (mb - ma).abs() <= floor {
        return Verdict::Unchanged;
    }
    // Positive = B worse than A, as a share of A's median.
    let sign = if higher_is_better { -1.0 } else { 1.0 };
    let worse_by = if ma == 0.0 {
        if mb == 0.0 {
            0.0
        } else {
            sign * mb.signum() * f64::INFINITY
        }
    } else {
        sign * (mb - ma) / ma.abs()
    };
    let spread = stats::relative_spread(a)
        .unwrap_or(0.0)
        .max(stats::relative_spread(b).unwrap_or(0.0));
    let beats = |x: f64, y: f64| if higher_is_better { x > y } else { x < y };
    let all_better = b.iter().all(|&x| a.iter().all(|&y| beats(x, y)));
    if worse_by > bound {
        Verdict::Worse
    } else if spread > bound {
        if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if -worse_by > bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// Untraced records of one results file: values per (workload, metric),
/// and (failed, attempted) per workload.
#[derive(Debug, Default)]
struct Runs {
    values: BTreeMap<(String, String), Vec<f64>>,
    failures: BTreeMap<String, (f64, f64)>,
}

fn load_runs(path: &Path) -> Result<Runs, String> {
    std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| parse_runs(&text))
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn parse_runs(text: &str) -> Result<Runs, String> {
    let mut runs = Runs::default();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = |e: String| format!("line {}: {e}", n + 1);
        let rec = json::parse(line).map_err(at)?;
        if rec.get("trace").and_then(Json::num) != Some(0.0) {
            continue;
        }
        let workload = rec
            .get("workload")
            .and_then(Json::str)
            .ok_or_else(|| at("record without a workload".into()))?;
        let count = |k: &str| rec.get(k).and_then(Json::num).unwrap_or(0.0);
        let f = runs.failures.entry(workload.to_string()).or_default();
        f.0 += count("failed");
        f.1 += count("attempted");
        let Some(Json::Obj(metrics)) = rec.get("metrics") else {
            return Err(at("record without metrics".into()));
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::num) {
                runs.values
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(runs)
}

fn summary(v: &[f64]) -> String {
    match (stats::median(v), stats::quartiles(v)) {
        (Some(m), Some([q1, _, q3])) => format!("{m:.4} [{q1:.4}, {q3:.4}]"),
        _ => "-".to_string(),
    }
}

/// Run the subcommand; `Ok(false)` when some metric regressed.
pub fn main(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut bench_path = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--bench" => {
                bench_path = Some(PathBuf::from(it.next().ok_or("`--bench` needs a path")?))
            }
            _ if a.starts_with("--") => {
                return Err(format!("unknown option `{a}` (accepted: --bench)"))
            }
            _ => files.push(PathBuf::from(a)),
        }
    }
    let [a_path, b_path] = files.as_slice() else {
        return Err("usage: e2e compare A.jsonl B.jsonl [--bench BENCHMARK.json]".into());
    };
    let bench_path = match bench_path {
        Some(p) => p,
        None => {
            let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
            find_benchmark_json(&cwd).ok_or("no BENCHMARK.json here or above; pass --bench")?
        }
    };
    let bench = Bench::load(&bench_path)?;
    let (table, regressed) = report(&bench, &load_runs(a_path)?, &load_runs(b_path)?);
    print!("{table}");
    Ok(!regressed)
}

/// The comparison table, and whether any row is worse.
fn report(bench: &Bench, a: &Runs, b: &Runs) -> (String, bool) {
    let mut out = format!(
        "{:<15} {:<16} {:>32} {:>32} {:>9} {:>9}  verdict\n",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "bound"
    );
    let mut regressed = false;
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for w in &bench.workloads {
        for m in &bench.end_to_end {
            let key = (w.clone(), m.name.clone());
            let (Some(va), Some(vb)) = (a.values.get(&key), b.values.get(&key)) else {
                continue;
            };
            let floor = abs_floor(&m.name);
            let v = verdict(va, vb, m.bound, floor, m.higher_is_better);
            let change = match (stats::median(va), stats::median(vb)) {
                (Some(x), Some(y)) if x != 0.0 => format!("{:+.2}%", 100.0 * (y - x) / x.abs()),
                _ => "-".to_string(),
            };
            let mut bound = format!("{}%", 100.0 * m.bound);
            if floor > 0.0 {
                let _ = write!(bound, "|{floor}{}", m.unit);
            }
            let label = format!("{v:?}").to_lowercase();
            let _ = writeln!(
                out,
                "{w:<15} {:<16} {:>32} {:>32} {change:>9} {bound:>9}  {label}",
                m.name,
                summary(va),
                summary(vb),
            );
            regressed |= v == Verdict::Worse;
            *counts.entry(label).or_default() += 1;
        }
        if let (Some(fa), Some(fb)) = (a.failures.get(w), b.failures.get(w)) {
            let ratio = |(failed, attempted): (f64, f64)| failed / attempted.max(1.0);
            let worse = ratio(*fb) > ratio(*fa);
            regressed |= worse;
            let _ = writeln!(
                out,
                "{w:<15} {:<16} {:>32.4} {:>32.4} {:>9} {:>9}  {}",
                "fail_ratio",
                ratio(*fa),
                ratio(*fb),
                "",
                "0%",
                if worse { "worse" } else { "unchanged" }
            );
        }
    }
    let tally: Vec<String> = counts.iter().map(|(k, n)| format!("{n} {k}")).collect();
    let _ = writeln!(out, "summary: {}", tally.join(", "));
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIGHT_A: [f64; 5] = [100.0, 101.0, 99.0, 100.5, 99.5];

    #[test]
    fn bound_logic_for_lower_is_better() {
        let b_same = [100.2, 99.8, 100.0, 100.4, 99.6];
        assert_eq!(
            verdict(&TIGHT_A, &b_same, 0.1, 0.0, false),
            Verdict::Unchanged
        );
        let b_slow: Vec<f64> = TIGHT_A.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&TIGHT_A, &b_slow, 0.1, 0.0, false), Verdict::Worse);
        let b_fast: Vec<f64> = TIGHT_A.iter().map(|x| x * 0.8).collect();
        assert_eq!(verdict(&TIGHT_A, &b_fast, 0.1, 0.0, false), Verdict::Better);
        // 5% slower is inside a 10% bound.
        let b_bit: Vec<f64> = TIGHT_A.iter().map(|x| x * 1.05).collect();
        assert_eq!(
            verdict(&TIGHT_A, &b_bit, 0.1, 0.0, false),
            Verdict::Unchanged
        );
    }

    #[test]
    fn higher_is_better_flips_direction() {
        let b_more: Vec<f64> = TIGHT_A.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&TIGHT_A, &b_more, 0.1, 0.0, true), Verdict::Better);
        let b_less: Vec<f64> = TIGHT_A.iter().map(|x| x * 0.8).collect();
        assert_eq!(verdict(&TIGHT_A, &b_less, 0.1, 0.0, true), Verdict::Worse);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_wins() {
        let noisy = [60.0, 140.0, 100.0, 80.0, 120.0];
        assert_eq!(
            verdict(&noisy, &noisy, 0.1, 0.0, false),
            Verdict::Unresolved
        );
        let all_lower = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(
            verdict(&noisy, &all_lower, 0.1, 0.0, false),
            Verdict::Better
        );
        // A median far worse is a regression whatever the spread.
        let far = [300.0, 400.0, 500.0];
        assert_eq!(verdict(&noisy, &far, 0.1, 0.0, false), Verdict::Worse);
    }

    #[test]
    fn exact_bound_catches_any_change() {
        let a = [5.0; 4];
        assert_eq!(verdict(&a, &[5.0; 4], 0.0, 0.0, false), Verdict::Unchanged);
        assert_eq!(verdict(&a, &[6.0; 4], 0.0, 0.0, false), Verdict::Worse);
        assert_eq!(verdict(&a, &[4.0; 4], 0.0, 0.0, false), Verdict::Better);
    }

    #[test]
    fn absolute_floor_absorbs_small_changes_whatever_the_spread() {
        // Millisecond set-ups that double and vary by a third.
        let a = [0.0018, 0.0024, 0.0012, 0.0021, 0.0016];
        let b = a.map(|x| x * 2.0);
        assert_eq!(verdict(&a, &b, 0.25, 0.0, false), Verdict::Worse);
        let floor = abs_floor("setup_s");
        assert_eq!(verdict(&a, &b, 0.25, floor, false), Verdict::Unchanged);
        assert_eq!(verdict(&a, &a, 0.25, floor, false), Verdict::Unchanged);
        // A change past the floor is judged by the relative bound.
        assert_eq!(
            verdict(&a, &a.map(|x| x + 0.2), 0.25, floor, false),
            Verdict::Worse
        );
        let slow = [1.0, 1.01, 0.99, 1.0, 1.02];
        assert_eq!(
            verdict(&slow, &slow.map(|x| x + 0.15), 0.25, floor, false),
            Verdict::Unchanged
        );
        assert_eq!(abs_floor("ops_per_s"), 0.0);
    }

    #[test]
    fn report_reads_records_and_flags_regressions() {
        let bench = Bench::parse(
            r#"{"workloads":[{"name":"w","why":"x"}],
               "end_to_end":[{"name":"lat","unit":"ms","better":"lower","bound":0.1}],
               "per_layer":[]}"#,
        )
        .unwrap();
        let runs = |lat: &[f64], failed: u32| {
            let lines: Vec<String> = lat
                .iter()
                .map(|v| {
                    format!(
                        "{{\"workload\":\"w\",\"seed\":1,\"trace\":0,\"correct\":true,\"attempted\":3,\
                         \"failed\":{failed},\"metrics\":{{\"lat\":{{\"value\":{v},\"unit\":\"ms\"}}}}}}"
                    )
                })
                .collect();
            parse_runs(&lines.join("\n")).unwrap()
        };
        let a = runs(&TIGHT_A, 0);
        let (table, regressed) = report(&bench, &a, &runs(&TIGHT_A, 0));
        assert!(!regressed, "{table}");
        assert!(table.contains("unchanged"), "{table}");
        let (table, regressed) = report(&bench, &a, &runs(&TIGHT_A.map(|x| x * 2.0), 0));
        assert!(regressed && table.contains("worse"), "{table}");
        let (table, regressed) = report(&bench, &a, &runs(&TIGHT_A, 1));
        assert!(regressed, "more failures are a regression: {table}");
        assert!(
            parse_runs("{\"trace\":0}").is_err(),
            "records need a workload"
        );
        assert!(Bench::parse("{}").is_err());
    }
}

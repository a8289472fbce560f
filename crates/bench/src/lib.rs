//! # parmem-bench
//!
//! Harness that regenerates every table and figure of the paper's
//! evaluation:
//!
//! * `cargo run -p parmem-bench --bin table1` — Table 1 (duplication of
//!   data under STOR1/STOR2/STOR3, eight memory modules).
//! * `cargo run -p parmem-bench --bin table2` — Table 2 (memory conflicts
//!   due to array accesses, `t_ave/t_min` and `t_max/t_min` for k=8 and
//!   k=4).
//! * `cargo run -p parmem-bench --bin speedup` — the §3 prose claim
//!   (overall RLIW speed-up, 64–300% in the paper).
//!
//! The `exact_gaps` and `placement` bins check their sweeps against the
//! committed `baselines/BENCH_*.json` reports ([`baseline_rows`] reads
//! them), and the `e2e` bin is the end-to-end benchmark.
//!
//! All three table generators run on the `parmem-batch` work-stealing
//! engine: each benchmark × configuration becomes one job, executed
//! concurrently with results merged back in submission order, so the
//! rendered tables are byte-identical to the old serial harness.

use liw_ir::unroll::UnrollConfig;
use parmem_batch::BatchOptions;
use parmem_core::strategies::Strategy;
use parmem_driver::{JobOutput, JobResult, JobSpec, Session};
use parmem_obs::json::{self, Json};
use rliw_sim::pipeline::{CompiledProgram, Table2Row};
use rliw_sim::CompileOptions;
use workloads::benchmarks;

/// Shared harness configuration.
#[derive(Clone, Copy, Debug)]
pub struct BenchConfig {
    /// Memory modules (= functional units).
    pub modules: usize,
    /// Innermost-loop unrolling factor applied before scheduling
    /// (`None` = no unrolling). The paper's compiler achieved comparable
    /// instruction-word density via trace scheduling.
    pub unroll: Option<usize>,
}

impl BenchConfig {
    pub fn new(modules: usize) -> BenchConfig {
        BenchConfig {
            modules,
            unroll: None,
        }
    }

    pub fn unrolled(modules: usize, factor: usize) -> BenchConfig {
        BenchConfig {
            modules,
            unroll: Some(factor),
        }
    }
}

/// The driver session matching a harness configuration: no scalar optimizer
/// (the tables measure the paper's pipeline as scheduled), renaming on,
/// unrolled when the configuration says so.
pub fn bench_session(cfg: BenchConfig) -> Session {
    Session::new(cfg.modules).with_opts(compile_options(cfg))
}

/// Compile one benchmark under a harness configuration.
pub fn compile_bench(source: &str, cfg: BenchConfig) -> CompiledProgram {
    bench_session(cfg)
        .compile(source)
        .expect("benchmark compiles")
}

/// The front-end options behind [`bench_session`].
fn compile_options(cfg: BenchConfig) -> CompileOptions {
    CompileOptions {
        unroll: cfg.unroll.map(|factor| UnrollConfig {
            factor,
            max_body_stmts: 16,
        }),
        optimize: false,
        rename: true,
    }
}

/// Run one batch-engine job per benchmark under `cfg` and hand each
/// successful output to `f`, panicking (like the old serial harness) on any
/// structured job failure.
fn batch_rows<R>(cfg: BenchConfig, f: impl Fn(&JobResult, &JobOutput) -> R) -> Vec<R> {
    let opts = compile_options(cfg);
    let specs: Vec<JobSpec> = benchmarks()
        .iter()
        .map(|b| JobSpec::new(b.name, b.source, cfg.modules).with_opts(opts))
        .collect();
    let report = parmem_batch::run_batch(specs, &BatchOptions::default());
    report
        .results
        .iter()
        .map(|r| match &r.outcome {
            Ok(out) => f(r, out),
            Err(e) => panic!("{}: {e}", r.spec.program),
        })
        .collect()
}

/// One Table 1 cell: scalars with exactly one copy vs. more than one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Table1Cell {
    pub single: usize,
    pub multi: usize,
    pub residual_conflicts: usize,
}

/// One Table 1 row: a program under the three strategies.
#[derive(Clone, Debug)]
pub struct Table1Row {
    pub program: String,
    pub stor1: Table1Cell,
    pub stor2: Table1Cell,
    pub stor3: Table1Cell,
}

/// One Table 1 cell straight from a batch job's assignment statistics.
fn cell(r: &JobResult) -> Table1Cell {
    match &r.outcome {
        Ok(out) => Table1Cell {
            single: out.assign_report.single_copy,
            multi: out.assign_report.multi_copy,
            residual_conflicts: out.assign_report.residual_conflicts,
        },
        Err(e) => panic!("{}: {e}", r.spec.program),
    }
}

/// Regenerate Table 1 for a machine with `k` memory modules (the paper used
/// eight).
pub fn table1(k: usize) -> Vec<Table1Row> {
    table1_with(BenchConfig::new(k))
}

/// Table 1 under an explicit harness configuration: one batch job per
/// benchmark × strategy (18 jobs), regrouped into rows afterwards.
pub fn table1_with(cfg: BenchConfig) -> Vec<Table1Row> {
    const STRATEGIES: [Strategy; 3] = [Strategy::Stor1, Strategy::Stor2, Strategy::STOR3];
    let opts = compile_options(cfg);
    let specs: Vec<JobSpec> = benchmarks()
        .iter()
        .flat_map(|b| {
            STRATEGIES.map(|s| {
                JobSpec::new(b.name, b.source, cfg.modules)
                    .with_opts(opts)
                    .with_strategy(s)
            })
        })
        .collect();
    let report = parmem_batch::run_batch(specs, &BatchOptions::default());
    report
        .results
        .chunks(STRATEGIES.len())
        .map(|row| Table1Row {
            program: row[0].spec.program.clone(),
            stor1: cell(&row[0]),
            stor2: cell(&row[1]),
            stor3: cell(&row[2]),
        })
        .collect()
}

/// Render Table 1 in the paper's layout.
pub fn format_table1(rows: &[Table1Row]) -> String {
    let mut s = String::new();
    s.push_str("Table 1. Duplication of Data\n");
    s.push_str(&format!(
        "{:<10} | {:>5} {:>5} | {:>5} {:>5} | {:>5} {:>5}\n",
        "", "STOR1", "", "STOR2", "", "STOR3", ""
    ));
    s.push_str(&format!(
        "{:<10} | {:>5} {:>5} | {:>5} {:>5} | {:>5} {:>5}\n",
        "program", "=1", ">1", "=1", ">1", "=1", ">1"
    ));
    s.push_str(&"-".repeat(56));
    s.push('\n');
    for r in rows {
        s.push_str(&format!(
            "{:<10} | {:>5} {:>5} | {:>5} {:>5} | {:>5} {:>5}\n",
            r.program,
            r.stor1.single,
            r.stor1.multi,
            r.stor2.single,
            r.stor2.multi,
            r.stor3.single,
            r.stor3.multi
        ));
    }
    s
}

/// Regenerate Table 2 for a machine with `k` modules.
pub fn table2(k: usize) -> Vec<Table2Row> {
    table2_with(BenchConfig::new(k))
}

/// Table 2 under an explicit harness configuration (one batch job per
/// benchmark; the engine already fails jobs whose scalar assignment keeps
/// residual conflicts).
pub fn table2_with(cfg: BenchConfig) -> Vec<Table2Row> {
    batch_rows(cfg, |r, out| {
        assert_eq!(
            out.assign_report.residual_conflicts, 0,
            "{}: scalar assignment must be conflict-free",
            r.spec.program
        );
        out.table2.clone()
    })
}

/// Render Table 2 (both module counts) in the paper's layout.
pub fn format_table2(rows8: &[Table2Row], rows4: &[Table2Row]) -> String {
    let mut s = String::new();
    s.push_str("Table 2. Memory Conflicts due to Array Accesses\n");
    s.push_str(&format!(
        "{:<10} | {:^23} | {:^23}\n",
        "", "M = <M1..M8>", "M = <M1..M4>"
    ));
    s.push_str(&format!(
        "{:<10} | {:>11} {:>11} | {:>11} {:>11}\n",
        "program", "t_ave/t_min", "t_max/t_min", "t_ave/t_min", "t_max/t_min"
    ));
    s.push_str(&"-".repeat(64));
    s.push('\n');
    for (r8, r4) in rows8.iter().zip(rows4) {
        s.push_str(&format!(
            "{:<10} | {:>11.2} {:>11.2} | {:>11.2} {:>11.2}\n",
            r8.program,
            r8.ave_ratio(),
            r8.max_ratio(),
            r4.ave_ratio(),
            r4.max_ratio()
        ));
    }
    s
}

/// Speed-up of the LIW machine over a sequential 1-op/cycle machine for one
/// program, as a percentage (paper §3 reports 64–300%).
#[derive(Clone, Debug)]
pub struct SpeedupRow {
    pub program: String,
    pub seq_steps: u64,
    pub liw_cycles: u64,
    /// e.g. 1.8 → 80% speed-up.
    pub speedup: f64,
    /// Fraction of transfer-time increase from array conflicts
    /// (interleaved vs. ideal).
    pub array_conflict_overhead: f64,
}

/// Run the speed-up experiment for all benchmarks at width/modules `k`.
pub fn speedup(k: usize) -> Vec<SpeedupRow> {
    speedup_with(BenchConfig::unrolled(k, 4))
}

/// Speed-up rows under an explicit harness configuration. The batch job
/// already simulated every array placement, so the conflict overhead is
/// `t_interleaved / t_min - 1` straight from its Table 2 measurements.
pub fn speedup_with(cfg: BenchConfig) -> Vec<SpeedupRow> {
    batch_rows(cfg, |r, out| {
        let overhead = if out.table2.t_min > 0 {
            out.table2.t_interleaved as f64 / out.table2.t_min as f64 - 1.0
        } else {
            0.0
        };
        SpeedupRow {
            program: r.spec.program.clone(),
            seq_steps: out.reference_steps,
            liw_cycles: out.cycles,
            speedup: out.speedup,
            array_conflict_overhead: overhead,
        }
    })
}

/// Render the speed-up report.
pub fn format_speedup(rows: &[SpeedupRow]) -> String {
    let mut s = String::new();
    s.push_str("RLIW speed-up over sequential execution (paper: 64-300%)\n");
    s.push_str(&format!(
        "{:<10} | {:>10} {:>10} {:>9} {:>16}\n",
        "program", "seq steps", "liw cycles", "speedup", "array overhead"
    ));
    s.push_str(&"-".repeat(62));
    s.push('\n');
    for r in rows {
        s.push_str(&format!(
            "{:<10} | {:>10} {:>10} {:>8.0}% {:>15.1}%\n",
            r.program,
            r.seq_steps,
            r.liw_cycles,
            (r.speedup - 1.0) * 100.0,
            r.array_conflict_overhead * 100.0
        ));
    }
    s
}

/// The rows of a `BENCH_*.json` report, each mapped by `row`, which returns
/// `None` when a member it needs is missing or mistyped. A document or row
/// that cannot be read is an error, so a damaged baseline fails its check
/// instead of skipping rows.
pub fn baseline_rows<T>(text: &str, row: impl Fn(&Json) -> Option<T>) -> Result<Vec<T>, String> {
    let doc = json::parse(text)?;
    let rows = doc
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("no `rows` array")?;
    rows.iter()
        .enumerate()
        .map(|(i, r)| row(r).ok_or_else(|| format!("row {i} lacks a checked member")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_runs_conflict_free_everywhere() {
        let rows = table1(8);
        assert_eq!(rows.len(), 6);
        for r in &rows {
            for c in [r.stor1, r.stor2, r.stor3] {
                assert_eq!(c.residual_conflicts, 0, "{}", r.program);
                assert!(c.single + c.multi > 0, "{}", r.program);
            }
        }
    }

    #[test]
    fn table1_stor1_duplicates_least_overall() {
        // The paper's headline: STOR1 needs almost no duplication; the
        // staged strategies duplicate at least as much in total.
        let rows = table1(8);
        let total1: usize = rows.iter().map(|r| r.stor1.multi).sum();
        let total2: usize = rows.iter().map(|r| r.stor2.multi).sum();
        assert!(
            total1 <= total2,
            "STOR1 total duplication {total1} should not exceed STOR2 {total2}"
        );
    }

    #[test]
    fn table2_ratios_are_sane() {
        for k in [8, 4] {
            for r in table2(k) {
                assert!(r.ave_ratio() >= 1.0 - 1e-9, "{} k={k}: {r:?}", r.program);
                assert!(
                    r.max_ratio() + 1e-9 >= r.ave_ratio(),
                    "{} k={k}: {r:?}",
                    r.program
                );
                assert!(r.t_min > 0, "{} k={k}", r.program);
            }
        }
    }

    #[test]
    fn speedup_is_positive_for_all_benchmarks() {
        for r in speedup(8) {
            assert!(
                r.speedup > 1.0,
                "{}: LIW should beat sequential, got {:.2}",
                r.program,
                r.speedup
            );
        }
    }

    #[test]
    fn formatting_contains_all_programs() {
        let t1 = format_table1(&table1(8));
        for b in workloads::benchmarks() {
            assert!(t1.contains(b.name));
        }
    }
}

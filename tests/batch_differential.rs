//! Differential tests for the batch engine.
//!
//! The engine's contract is that concurrency is *unobservable*: a batch
//! report (minus timings) is byte-identical whether jobs ran serially,
//! on one worker, or on eight — and identical to running each job by hand
//! without any pool at all. These tests check that contract three ways:
//!
//! 1. a proptest over random MiniLang programs comparing the no-pool serial
//!    pipeline against `run_batch` at several worker counts;
//! 2. an output-hash cross-check against the reference interpreter;
//! 3. a CLI-level byte comparison of `parmem batch --jobs 1` vs `--jobs 8`
//!    over the full paper sweep (the acceptance criterion).

use proptest::prelude::*;

use parallel_memories::batch::{self, BatchOptions, BatchReport};
use parallel_memories::driver::{job, JobSpec, Session};

/// Small random programs: cheap enough to push through the full pipeline
/// many times per proptest case.
fn arb_program() -> impl Strategy<Value = String> {
    let stmt = (0usize..4, 0usize..4, 0usize..4, 0usize..3).prop_map(|(a, b, c, op)| {
        let ops = ["+", "-", "*"];
        format!("v{a} := v{b} {} v{c};", ops[op])
    });
    (proptest::collection::vec(stmt, 1..6), 1i64..6).prop_map(|(stmts, n)| {
        format!(
            "program diff;
             var v0, v1, v2, v3, i: int;
             begin
               v0 := 2; v1 := 3; v2 := 5; v3 := 7;
               for i := 0 to {n} do begin
                 {}
               end;
               print v0; print v1; print v2; print v3;
             end.",
            stmts.join("\n                 ")
        )
    })
}

fn specs_for(srcs: &[String]) -> Vec<JobSpec> {
    srcs.iter()
        .enumerate()
        .flat_map(|(i, src)| [2usize, 4].map(|k| Session::new(k).job(format!("P{i}"), src.clone())))
        .collect()
}

/// The pool-free baseline: run every job inline, in order.
fn serial_report(specs: Vec<JobSpec>) -> BatchReport {
    BatchReport {
        results: specs.iter().map(job::run_job).collect(),
        wall_ns: 0,
        workers: 1,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Batch results are byte-identical to the serial pipeline and
    /// independent of the worker count.
    #[test]
    fn batch_equals_serial_at_every_worker_count(
        srcs in proptest::collection::vec(arb_program(), 1..4)
    ) {
        let baseline = serial_report(specs_for(&srcs));
        for jobs in [1usize, 2, 8] {
            let batched = batch::run_batch(
                specs_for(&srcs),
                &BatchOptions { jobs, ..Default::default() },
            );
            prop_assert_eq!(
                baseline.to_json(false),
                batched.to_json(false),
                "jobs={} diverges from serial",
                jobs
            );
            prop_assert_eq!(baseline.golden_lines(), batched.golden_lines());
        }
    }

    /// The output hash a batch job reports is the hash of what the reference
    /// interpreter prints — the simulator path cannot drift unnoticed.
    #[test]
    fn job_output_hash_matches_reference_interpreter(src in arb_program()) {
        let reference = liw_ir::run_source(&src).unwrap();
        let expected = job::hash_output(&reference.output);
        for k in [2usize, 4, 8] {
            let r = Session::new(k).run("P", src.clone());
            let out = r.outcome.as_ref().expect("pipeline succeeds");
            prop_assert_eq!(out.output_hash, expected, "k={}", k);
            prop_assert_eq!(out.output_len, reference.output.len());
        }
    }
}

/// Differential scale test: generated workloads up to 10⁴ values assign
/// byte-identically whether the per-component coloring runs sequentially or
/// on eight pool workers. The full report and every value's copy set must
/// agree — concurrency in the core is as unobservable as in the batch
/// engine.
#[test]
fn scale_assignment_is_independent_of_jobs() {
    use parallel_memories::core::assignment::{assign_trace, AssignParams};
    use parallel_memories::core::synth::{scale_trace, ScaleSpec};

    // 10³ stays below the parallel-component gate (inline path), 10⁴
    // crosses it — the comparison covers gated and fanned-out execution.
    for (values, edges) in [(1_000usize, 4_000usize), (10_000, 40_000)] {
        let spec = ScaleSpec {
            values,
            edges,
            cliques: 8,
            clique_size: 10, // > modules: forces duplication work too
            components: 8,
            modules: 8,
        };
        let trace = scale_trace(&spec, 123);

        let run = |jobs: usize| {
            let params = AssignParams {
                jobs,
                ..Default::default()
            };
            assign_trace(&trace, &params)
        };
        let (a1, r1) = run(1);
        let (a8, r8) = run(8);
        assert_eq!(r1, r8, "n={values}: reports diverge between jobs 1 and 8");
        assert_eq!(r1.residual_conflicts, 0);
        for v in trace.distinct_values() {
            assert_eq!(
                a1.copies(v),
                a8.copies(v),
                "n={values}: copies of {v:?} diverge"
            );
        }
    }
}

/// Differential: the unified layout's interleaved scheme is the same
/// placement the simulator's legacy statistical `Interleaved` mode used, so
/// running the plan must measure exactly the transfer time the legacy path
/// reports (`t_interleaved`) on every paper workload at every machine size.
#[test]
fn planned_interleaved_matches_legacy_interleaved() {
    use parallel_memories::core::prelude::ArrayPolicy;

    for bench in workloads::benchmarks() {
        for k in [2usize, 4, 8] {
            let r = Session::new(k)
                .with_array_policy(ArrayPolicy::Interleaved)
                .run(bench.name, bench.source);
            let out = r.outcome.as_ref().expect("pipeline succeeds");
            let planned = out
                .planned
                .as_ref()
                .expect("planned summary present when a policy was asked for");
            assert_eq!(
                planned.transfer_time, out.table2.t_interleaved,
                "{} k={k}: planned interleaved diverges from the legacy path",
                bench.name
            );
        }
    }
}

/// Acceptance criterion: the CLI over all paper workloads at k ∈ {2,4,8}
/// prints byte-identical reports with `--jobs 8` and `--jobs 1`.
#[test]
fn cli_batch_report_is_independent_of_jobs() {
    let run = |jobs: &str, fmt: &str| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_parmem"))
            .args(["batch", "--jobs", jobs, fmt])
            .output()
            .expect("parmem batch runs");
        assert!(
            out.status.success(),
            "parmem batch --jobs {jobs} {fmt} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    for fmt in ["--json", "--csv"] {
        let eight = run("8", fmt);
        let one = run("1", fmt);
        assert!(
            eight == one,
            "`parmem batch {fmt}` differs between --jobs 8 and --jobs 1"
        );
    }
}

/// The deterministic profile (`--trace-summary`: span tree + metrics dump)
/// is also byte-identical across worker counts — tracing does not make
/// concurrency observable.
#[test]
fn cli_trace_summary_is_independent_of_jobs() {
    let dir = std::env::temp_dir();
    let run = |jobs: &str| {
        let path = dir.join(format!("parmem-trace-summary-{jobs}.txt"));
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_parmem"))
            .args(["batch", "fft", "sort", "-k", "2,4"])
            .args(["--jobs", jobs, "--trace-summary"])
            .arg(&path)
            .output()
            .expect("parmem batch runs");
        assert!(
            out.status.success(),
            "parmem batch --jobs {jobs} --trace-summary failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let summary = std::fs::read_to_string(&path).expect("summary written");
        let _ = std::fs::remove_file(&path);
        (out.stdout, summary)
    };
    let (stdout1, summary1) = run("1");
    let (stdout8, summary8) = run("8");
    assert_eq!(stdout1, stdout8, "stdout differs with --trace-summary");
    assert!(
        summary1 == summary8,
        "--trace-summary differs between --jobs 1 and --jobs 8:\n--- jobs 1 ---\n{summary1}\n--- jobs 8 ---\n{summary8}"
    );
    // The summary must actually cover the requested jobs and the pipeline.
    for needle in [
        "job{program=FFT, k=2, stor=STOR1}",
        "job{program=SORT, k=4, stor=STOR1}",
        "stage.simulate",
        "parmem_sim_cycles",
    ] {
        assert!(
            summary1.contains(needle),
            "summary lacks `{needle}`:\n{summary1}"
        );
    }
}

/// With tracing disabled (no profiling flags), the batch report is
/// byte-identical to a profiled run's report — instrumentation never leaks
/// into the golden output.
#[test]
fn profiling_does_not_change_the_report() {
    let run = |extra: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_parmem"))
            .args(["batch", "fft", "-k", "2,4", "--json"])
            .args(extra)
            .output()
            .expect("parmem batch runs");
        assert!(out.status.success());
        out.stdout
    };
    let plain = run(&[]);
    let profiled = run(&["--profile"]);
    assert_eq!(
        plain, profiled,
        "--profile changed the batch report on stdout"
    );
}

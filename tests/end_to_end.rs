//! End-to-end integration tests: every benchmark program, compiled,
//! scheduled, module-assigned under every strategy, and executed on the
//! simulated RLIW — with outputs checked against the reference interpreter
//! and the paper's timing inequalities checked on the measurements.
//!
//! All pipeline driving goes through `parmem_driver::Session`; the plain
//! simulator entry points (`sim::run`, `sim::table2_row`) are exercised
//! directly where a test wants an unverified run.

use parallel_memories::core::prelude::*;
use parallel_memories::driver::Session;
use parallel_memories::sim::{self, ArrayPlacement};

/// The historical plain-compile pipeline: frontend → schedule with
/// renaming, no scalar optimizer.
fn plain(k: usize) -> Session {
    Session::new(k).without_optimizer()
}

#[test]
fn all_benchmarks_all_strategies_run_conflict_free_k8() {
    for b in workloads::benchmarks() {
        let prog = plain(8).compile(b.source).unwrap();
        for strategy in [Strategy::Stor1, Strategy::Stor2, Strategy::STOR3] {
            let session = plain(8).with_strategy(strategy);
            let (a, report) = session.assign(&prog);
            assert_eq!(
                report.residual_conflicts,
                0,
                "{} under {}",
                b.name,
                strategy.name()
            );
            let run = session
                .verified_run(&prog, &a, ArrayPlacement::Interleaved)
                .unwrap_or_else(|e| panic!("{} {}: {e}", b.name, strategy.name()));
            assert_eq!(
                run.stats.scalar_conflict_words,
                0,
                "{} under {}: scalar conflicts at runtime",
                b.name,
                strategy.name()
            );
            assert_eq!(run.stats.unplaced_reads, 0);
        }
    }
}

#[test]
fn all_benchmarks_verify_on_small_machines() {
    for b in workloads::benchmarks() {
        for k in [2, 3, 4] {
            let session = plain(k);
            let prog = session.compile(b.source).unwrap();
            let (a, report) = session.assign(&prog);
            assert_eq!(report.residual_conflicts, 0, "{} k={k}", b.name);
            let run = session
                .verified_run(&prog, &a, ArrayPlacement::Interleaved)
                .unwrap_or_else(|e| panic!("{} k={k}: {e}", b.name, k = k));
            assert_eq!(run.stats.scalar_conflict_words, 0, "{} k={k}", b.name);
        }
    }
}

#[test]
fn timing_inequalities_hold_for_every_benchmark() {
    for b in workloads::benchmarks() {
        let session = plain(8);
        let prog = session.compile(b.source).unwrap();
        let (a, _) = session.assign(&prog);
        let row = sim::table2_row(b.name, &prog.sched, &a, 7, None)
            .unwrap()
            .row;
        assert!(row.t_min > 0, "{}", b.name);
        assert!(
            row.t_min <= row.t_ave_measured && row.t_ave_measured <= row.t_max,
            "{}: {} ≤ {} ≤ {} violated",
            b.name,
            row.t_min,
            row.t_ave_measured,
            row.t_max
        );
        // Analytic t_ave within [t_min, t_max] too.
        assert!(row.t_ave_analytic >= row.t_min as f64 - 1e-6, "{}", b.name);
        assert!(row.t_ave_analytic <= row.t_max as f64 + 1e-6, "{}", b.name);
    }
}

#[test]
fn output_is_invariant_under_layout_and_policy() {
    // Whatever the memory layout or array policy, program semantics must
    // not change — only timing.
    let b = workloads::by_name("SORT").unwrap();
    let session = plain(4);
    let prog = session.compile(b.source).unwrap();
    let reference = liw_ir::run_source(b.source).unwrap().output;

    let trace = prog.sched.access_trace();
    let layouts = [
        session.assign(&prog).0,
        parallel_memories::core::baseline::round_robin(&trace),
        parallel_memories::core::baseline::single_module(&trace),
        parallel_memories::core::baseline::random_assignment(&trace, 3),
    ];
    let policies = [
        ArrayPlacement::Ideal,
        ArrayPlacement::Interleaved,
        ArrayPlacement::SameModule(1),
        ArrayPlacement::UniformRandom(9),
    ];
    for (i, layout) in layouts.iter().enumerate() {
        for policy in policies.clone() {
            let run = sim::run(&prog.sched, layout, policy.clone()).unwrap();
            assert_eq!(run.output, reference, "layout {i} policy {policy:?}");
        }
    }
}

#[test]
fn duplication_strategies_agree_on_feasibility() {
    for b in workloads::benchmarks() {
        let prog = plain(4).compile(b.source).unwrap();
        let trace = prog.sched.access_trace();
        for dup in [
            DuplicationStrategy::Backtrack,
            DuplicationStrategy::HittingSet,
        ] {
            let params = AssignParams {
                duplication: dup,
                ..AssignParams::default()
            };
            let (a, report) = assign_trace(&trace, &params);
            assert_eq!(report.residual_conflicts, 0, "{} {dup:?}", b.name);
            assert_eq!(a.residual_conflicts(&trace), 0, "{} {dup:?}", b.name);
        }
    }
}

#[test]
fn speedup_band_is_plausible() {
    // The paper reports 64-300% overall speed-up (with trace scheduling
    // across branches, which our per-block list scheduler does not do).
    // Assert a generous band: every benchmark gains, branch-light numeric
    // kernels clear 60%, and the branch-heavy SORT at least 10%.
    let rows = parmem_bench_speedups();
    let mut best = 0.0f64;
    for (name, s) in &rows {
        assert!(*s > 1.10, "{name}: speed-up {s:.2} too low");
        best = best.max(*s);
    }
    assert!(best > 1.6, "best speed-up only {best:.2}");
}

fn parmem_bench_speedups() -> Vec<(String, f64)> {
    let session = plain(8);
    workloads::benchmarks()
        .iter()
        .map(|b| {
            let prog = session.compile(b.source).unwrap();
            let (a, _) = session.assign(&prog);
            let run = session
                .verified_run(&prog, &a, ArrayPlacement::Interleaved)
                .unwrap();
            (b.name.to_string(), run.speedup)
        })
        .collect()
}

#[test]
fn copy_transfer_overhead_is_small() {
    // Table 1's point: little duplication → few compile-time-scheduled copy
    // transfers. Check the runtime cost of those transfers is a tiny
    // fraction of total transfer time.
    let session = plain(8);
    for b in workloads::benchmarks() {
        let prog = session.compile(b.source).unwrap();
        let (a, _) = session.assign(&prog);
        let run = sim::run(&prog.sched, &a, ArrayPlacement::Interleaved).unwrap();
        let frac = run.copy_write_transfers as f64 / run.transfer_time.max(1) as f64;
        assert!(
            frac < 0.10,
            "{}: copy transfers are {frac:.2} of traffic",
            b.name
        );
    }
}

#[test]
fn optimizer_and_unroller_preserve_benchmark_semantics() {
    use liw_ir::unroll::UnrollConfig;
    use parallel_memories::sim::CompileOptions;

    for b in workloads::benchmarks() {
        let reference = liw_ir::run_source(b.source).unwrap().output;
        for opts in [
            CompileOptions {
                unroll: None,
                optimize: true,
                rename: true,
            },
            CompileOptions {
                unroll: Some(UnrollConfig {
                    factor: 4,
                    max_body_stmts: 16,
                }),
                optimize: true,
                rename: true,
            },
            CompileOptions {
                unroll: Some(UnrollConfig {
                    factor: 3,
                    max_body_stmts: 16,
                }),
                optimize: false,
                rename: false,
            },
        ] {
            let session = Session::new(8).with_opts(opts);
            let prog = session.compile(b.source).unwrap();
            let (a, report) = session.assign(&prog);
            assert_eq!(report.residual_conflicts, 0, "{} {opts:?}", b.name);
            let run = sim::run(&prog.sched, &a, ArrayPlacement::Interleaved).unwrap();
            assert_eq!(run.output, reference, "{} {opts:?}", b.name);
            assert_eq!(run.scalar_conflict_words, 0, "{} {opts:?}", b.name);
        }
    }
}

#[test]
fn optimizer_never_increases_cycles_materially() {
    for b in workloads::benchmarks() {
        let plain_prog = plain(8).compile(b.source).unwrap();
        let opt_prog = Session::new(8).compile(b.source).unwrap();
        let run = |p: &sim::CompiledProgram| {
            let (a, _) = plain(8).assign(p);
            sim::run(&p.sched, &a, ArrayPlacement::Ideal)
                .unwrap()
                .cycles
        };
        let (c_plain, c_opt) = (run(&plain_prog), run(&opt_prog));
        assert!(
            c_opt <= c_plain + c_plain / 20,
            "{}: optimizer regressed cycles {c_plain} -> {c_opt}",
            b.name
        );
    }
}

#[test]
fn extended_workloads_run_conflict_free() {
    for b in workloads::extended::extended() {
        let reference = liw_ir::run_source(b.source).unwrap().output;
        for k in [4, 8] {
            let session = plain(k);
            let prog = session.compile(b.source).unwrap();
            let (a, report) = session.assign(&prog);
            assert_eq!(report.residual_conflicts, 0, "{} k={k}", b.name);
            let run = sim::run(&prog.sched, &a, ArrayPlacement::Interleaved).unwrap();
            assert_eq!(run.output, reference, "{} k={k}", b.name);
            assert_eq!(run.scalar_conflict_words, 0, "{} k={k}", b.name);
        }
    }
}

#[test]
fn if_converted_code_runs_correctly_on_the_machine() {
    // A branchy kernel: with the optimizer on (k=8 → if-conversion active)
    // the hot diamond becomes selects; the simulated RLIW must still produce
    // reference output with zero scalar conflicts, in fewer cycles.
    let src = "program branchy; var i, acc, m: int;
        begin
          acc := 0; m := 0;
          for i := 1 to 200 do begin
            if i mod 3 = 0 then acc := acc + i; else m := m + 1;
          end;
          print acc; print m;
        end.";
    let reference = liw_ir::run_source(src).unwrap().output;
    let mut cycles = Vec::new();
    for optimize in [false, true] {
        let session = if optimize { Session::new(8) } else { plain(8) };
        let prog = session.compile(src).unwrap();
        let (a, r) = session.assign(&prog);
        assert_eq!(r.residual_conflicts, 0);
        let run = sim::run(&prog.sched, &a, ArrayPlacement::Interleaved).unwrap();
        assert_eq!(run.output, reference, "optimize={optimize}");
        assert_eq!(run.scalar_conflict_words, 0);
        cycles.push(run.cycles);
    }
    assert!(
        cycles[1] < cycles[0],
        "if-conversion should cut cycles: {} -> {}",
        cycles[0],
        cycles[1]
    );
}

//! Pins the deterministic work of the dataflow analyses on the corpus:
//! `lint.solve_steps`, the transfer applications `engine::solve` makes, and
//! `lint.const_sites`, the definitions constant propagation solves. The
//! TACs are the ones a pipeline job analyzes, in the `corpus` configuration
//! (the 11 programs at k = 2, 4 and 8) and the `corpus-planned` one (k = 4
//! and 8, unrolled by 4). Each is run through the verifier's renaming
//! check, lint's liveness, `lint_program` and `array_stride_profiles`, and
//! each entry point's totals are pinned on their own, so a change that
//! makes one cheaper shows which work it removed.
//!
//! The collector is process-global, so this file holds a single test.

use parallel_memories::driver::Session;
use parallel_memories::ir::compute_webs;
use parallel_memories::lint::{array_stride_profiles, lint_program, LintOptions, Liveness};
use parallel_memories::obs;
use parallel_memories::verify::dataflow::check_renaming;

/// The work one entry point did: `(lint.solve_steps, lint.const_sites)`.
fn work(f: impl FnOnce()) -> (u64, u64) {
    let _ = obs::take();
    f();
    let session = obs::take();
    let counter = |name: &str| session.counters.get(name).copied().unwrap_or(0);
    (counter("lint.solve_steps"), counter("lint.const_sites"))
}

/// Per entry point, summed over the corpus at every `k`:
/// `[renaming steps, liveness steps, lint steps, lint const sites,
/// stride steps, stride const sites]`.
fn corpus_work(ks: &[usize], unroll: Option<usize>) -> [u64; 6] {
    let mut total = [0; 6];
    for bench in parallel_memories::workloads::all_benchmarks() {
        for &k in ks {
            let mut session = Session::new(k);
            if let Some(factor) = unroll {
                session = session.with_unroll(factor);
            }
            let tac = session.optimize(&session.frontend(bench.source).unwrap());
            let webs = compute_webs(&tac);
            let renaming = work(|| assert!(check_renaming(&tac, &webs).is_empty()));
            let liveness = work(|| drop(Liveness::compute(&tac)));
            let lint = work(|| drop(lint_program(&tac, &LintOptions { modules: k })));
            let stride = work(|| drop(array_stride_profiles(&tac)));
            assert_eq!((renaming.1, liveness.1), (0, 0));
            let row = [renaming.0, liveness.0, lint.0, lint.1, stride.0, stride.1];
            for (t, w) in total.iter_mut().zip(row) {
                *t += w;
            }
        }
    }
    total
}

#[test]
fn corpus_dataflow_work_is_pinned() {
    // With constant propagation carrying one environment per block through
    // the engine, lint took 15,913 and 21,284 steps and the stride analysis
    // 8,920 and 13,196 on the same definitions; the sparse solve's one
    // reaching-definitions solve leaves the other totals as they were.
    obs::set_enabled(true);
    let got = [corpus_work(&[2, 4, 8], None), corpus_work(&[4, 8], Some(4))];
    obs::set_enabled(false);
    assert_eq!(
        got,
        [
            [5_579, 1_678, 12_073, 1_757, 4_738, 672],
            [7_712, 1_674, 15_012, 2_204, 6_776, 1_140],
        ],
        "dataflow work moved: {got:?}"
    );
}

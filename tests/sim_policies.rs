//! One execution, many costings: `rliw_sim::run_policies` executes a
//! program once and costs it under every array policy. Each policy's stats
//! must equal a one-policy `run` of that policy on every field — f64 fields
//! to the bit — so no policy can see another's random draws or load buffer.

use std::sync::Arc;

use parallel_memories::core::layout::plan;
use parallel_memories::core::prelude::*;
use parallel_memories::driver::Session;
use parallel_memories::ir::unroll::UnrollConfig;
use parallel_memories::sim::{
    run, run_policies, run_policies_with_fuel, run_with_fuel, uniform_seed, ArrayPlacement,
    SimError, SimStats,
};

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Every `SimStats` field, f64s as bits.
fn assert_same(got: &SimStats, want: &SimStats, what: &str) {
    assert_eq!(got.words, want.words, "{what}: words");
    assert_eq!(got.cycles, want.cycles, "{what}: cycles");
    assert_eq!(
        got.transfer_time, want.transfer_time,
        "{what}: transfer_time"
    );
    assert_eq!(
        got.expected_transfer_time.to_bits(),
        want.expected_transfer_time.to_bits(),
        "{what}: expected_transfer_time"
    );
    assert_eq!(got.mem_words, want.mem_words, "{what}: mem_words");
    assert_eq!(
        got.scalar_conflict_words, want.scalar_conflict_words,
        "{what}: scalar_conflict_words"
    );
    assert_eq!(
        got.unplaced_reads, want.unplaced_reads,
        "{what}: unplaced_reads"
    );
    assert_eq!(
        got.makespan_hist, want.makespan_hist,
        "{what}: makespan_hist"
    );
    assert_eq!(
        bits(&got.analytic_hist),
        bits(&want.analytic_hist),
        "{what}: analytic_hist"
    );
    assert_eq!(
        got.copy_write_transfers, want.copy_write_transfers,
        "{what}: copy_write_transfers"
    );
    assert_eq!(
        got.module_transfers, want.module_transfers,
        "{what}: module_transfers"
    );
    assert_eq!(got.dup_reads, want.dup_reads, "{what}: dup_reads");
    assert_eq!(
        got.dup_alt_reads, want.dup_alt_reads,
        "{what}: dup_alt_reads"
    );
    assert_eq!(got.ops, want.ops, "{what}: ops");
    assert_eq!(got.block_exec, want.block_exec, "{what}: block_exec");
    assert_eq!(got.output, want.output, "{what}: output");
}

fn unrolled_stor3(k: usize) -> Session {
    let mut s = Session::new(k).with_strategy(Strategy::STOR3);
    s.opts.unroll = Some(UnrollConfig {
        factor: 4,
        max_body_stmts: 16,
    });
    s
}

#[test]
fn every_policy_matches_its_one_policy_run() {
    for b in workloads::all_benchmarks() {
        for k in [2usize, 4, 8] {
            for (config, session) in [
                ("default", Session::new(k)),
                ("stor3+unroll4", unrolled_stor3(k)),
            ] {
                let prog = session.compile(b.source).unwrap();
                let (a, _) = session.assign(&prog);
                let seed = uniform_seed(session.seed, prog.sched.workload_digest());
                let profiles = parallel_memories::lint::array_stride_profiles(&prog.tac);
                let mut policies = vec![
                    ArrayPlacement::Ideal,
                    ArrayPlacement::UniformRandom(seed),
                    ArrayPlacement::Interleaved,
                    ArrayPlacement::SameModule(0),
                ];
                policies.extend(
                    [
                        ArrayPolicy::Interleaved,
                        ArrayPolicy::Hash,
                        ArrayPolicy::Block,
                        ArrayPolicy::Auto,
                    ]
                    .map(|p| ArrayPlacement::Planned(Arc::new(plan(k, p, a.clone(), &profiles)))),
                );

                let all = run_policies(&prog.sched, &a, &policies).unwrap();
                assert_eq!(all.len(), policies.len());
                for (stats, policy) in all.iter().zip(&policies) {
                    let alone = run(&prog.sched, &a, policy.clone()).unwrap();
                    let what = format!("{} k={k} {config} {}", b.name, policy.label());
                    assert_same(stats, &alone, &what);
                }
            }
        }
    }
}

#[test]
fn errors_match_the_one_policy_path() {
    let policies = [
        ArrayPlacement::Ideal,
        ArrayPlacement::UniformRandom(3),
        ArrayPlacement::Interleaved,
        ArrayPlacement::SameModule(0),
    ];

    let oob = "program t; var a: array[4] of int; i: int;
        begin i := 9; a[i] := 1; end.";
    let session = Session::new(4);
    let prog = session.compile(oob).unwrap();
    let (a, _) = session.assign(&prog);
    let alone = run(&prog.sched, &a, ArrayPlacement::Interleaved).unwrap_err();
    assert!(
        matches!(alone, SimError::Bounds { index: 9, .. }),
        "{alone:?}"
    );
    assert_eq!(run_policies(&prog.sched, &a, &policies).unwrap_err(), alone);

    let fft = workloads::all_benchmarks()
        .into_iter()
        .find(|b| b.name == "FFT")
        .expect("FFT workload");
    let prog = session.compile(fft.source).unwrap();
    let (a, _) = session.assign(&prog);
    let alone = run_with_fuel(&prog.sched, &a, ArrayPlacement::Ideal, 3).unwrap_err();
    assert_eq!(alone, SimError::OutOfFuel);
    assert_eq!(
        run_policies_with_fuel(&prog.sched, &a, &policies, 3).unwrap_err(),
        alone
    );
}

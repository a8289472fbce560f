//! The verifier against the paper's six benchmark programs: every pipeline
//! invariant must hold on real workloads, across machine sizes and both
//! duplication strategies, and a deliberately corrupted assignment must be
//! caught with a diagnostic naming the offending instruction.

use parmem_core::assignment::{assign_trace, AssignParams, DuplicationStrategy};
use parmem_core::types::{ModuleId, ModuleSet};
use parmem_driver::Session;
use parmem_verify::{verify_all, verify_trace, Code};
use rliw_sim::ArrayPlacement;

#[test]
fn all_six_workloads_verify_clean() {
    for bench in workloads::benchmarks() {
        for k in [4, 8] {
            let prog = Session::new(k)
                .without_optimizer()
                .compile(bench.source)
                .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
            let (a, r) = assign_trace(&prog.sched.access_trace(), &AssignParams::default());
            let report = verify_all(&prog.tac, &prog.sched, &a, Some(&r));
            assert!(report.is_clean(), "{} (k={k}): {report}", bench.name);
        }
    }
}

#[test]
fn both_duplication_strategies_verify_clean() {
    for bench in workloads::benchmarks() {
        for dup in [
            DuplicationStrategy::Backtrack,
            DuplicationStrategy::HittingSet,
        ] {
            let prog = Session::new(4)
                .without_optimizer()
                .compile(bench.source)
                .unwrap();
            let params = AssignParams {
                duplication: dup,
                ..AssignParams::default()
            };
            let (a, r) = assign_trace(&prog.sched.access_trace(), &params);
            let report = verify_all(&prog.tac, &prog.sched, &a, Some(&r));
            assert!(report.is_clean(), "{} ({dup:?}): {report}", bench.name);
        }
    }
}

#[test]
fn static_prediction_matches_simulator_on_all_workloads() {
    // With a verified assignment the static prediction is "no conflicts";
    // the simulator must agree exactly, workload by workload.
    for bench in workloads::benchmarks() {
        for k in [2, 4, 8] {
            let prog = Session::new(k)
                .without_optimizer()
                .compile(bench.source)
                .unwrap();
            let (a, r) = assign_trace(&prog.sched.access_trace(), &AssignParams::default());
            assert_eq!(r.residual_conflicts, 0, "{} k={k}", bench.name);
            let prediction = parmem_verify::differential::predict(&prog.sched, &a);
            assert!(
                prediction.conflicting_words.is_empty(),
                "{} k={k}: static conflicts {:?}",
                bench.name,
                prediction.conflicting_words
            );
            let stats = rliw_sim::run(&prog.sched, &a, ArrayPlacement::Ideal)
                .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
            assert_eq!(stats.scalar_conflict_words, 0, "{} k={k}", bench.name);
            assert_eq!(stats.unplaced_reads, 0, "{} k={k}", bench.name);
        }
    }
}

#[test]
fn corrupted_assignment_yields_pm_diagnostic_naming_the_instruction() {
    // Acceptance demo: force two operands of one instruction into a single
    // module and watch the verifier name that exact instruction.
    let bench = workloads::by_name("taylor1")
        .or_else(|| workloads::benchmarks().into_iter().next())
        .expect("at least one workload");
    let prog = Session::new(8)
        .without_optimizer()
        .compile(bench.source)
        .unwrap();
    let trace = prog.sched.access_trace();
    let (mut a, _) = assign_trace(&trace, &AssignParams::default());

    let inst = trace
        .instructions
        .iter()
        .position(|i| i.len() >= 2)
        .expect("some word fetches two scalars");
    let ops = &trace.instructions[inst];
    a.set_copies(ops[0], ModuleSet::singleton(ModuleId(3)));
    a.set_copies(ops[1], ModuleSet::singleton(ModuleId(3)));

    let report = verify_trace(&trace, &a, None);
    let hits = report.with_code(Code::PM003);
    assert!(
        hits.iter().any(|d| d.instruction == Some(inst)),
        "expected PM003 naming instruction {inst}, got: {report}"
    );
    // The clashing pair is also reported at value granularity.
    assert!(report.has_code(Code::PM005));
    // And the JSON rendering carries the code for machine consumption.
    assert!(report.to_json().contains("\"PM003\""));
}

#[test]
fn extended_workload_set_verifies_clean() {
    for bench in workloads::all_benchmarks() {
        let prog = Session::new(8)
            .without_optimizer()
            .compile(bench.source)
            .unwrap();
        let (a, r) = assign_trace(&prog.sched.access_trace(), &AssignParams::default());
        let report = verify_all(&prog.tac, &prog.sched, &a, Some(&r));
        assert!(report.is_clean(), "{}: {report}", bench.name);
    }
}

//! Conflict checks allocate nothing.
//!
//! This binary counts allocations with `parmem_obs::alloc::CountingAlloc`
//! and asserts that recounting residual conflicts and computing every
//! instruction's fetch makespan on a 10^4-value scale trace leave the
//! calling thread's allocation count unchanged.

use parmem_core::assignment::{assign_trace, AssignParams};
use parmem_core::synth::{scale_trace, ScaleSpec};
use parmem_obs::alloc::{alloc_counters, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn conflict_checks_do_not_allocate() {
    let spec = ScaleSpec {
        values: 10_000,
        edges: 40_000,
        cliques: 8,
        clique_size: 10,
        components: 8,
        modules: 8,
    };
    let trace = scale_trace(&spec, 123);
    let params = AssignParams {
        jobs: 1,
        ..AssignParams::default()
    };
    let (a, report) = assign_trace(&trace, &params);
    assert!(
        report.extra_copies > 0,
        "the trace exercises duplicated values"
    );

    let (_, before) = alloc_counters();
    let residual = a.residual_conflicts(&trace);
    let (_, after) = alloc_counters();
    assert_eq!(residual, 0);
    assert_eq!(after, before, "residual_conflicts allocated");

    let (_, before) = alloc_counters();
    let mut cycles = 0;
    for inst in &trace.instructions {
        cycles += a.fetch_makespan(inst).expect("every operand is placed");
    }
    let (_, after) = alloc_counters();
    assert_eq!(
        cycles,
        trace.instructions.len(),
        "conflict-free: one cycle each"
    );
    assert_eq!(after, before, "fetch_makespan allocated");
}

//! Pins the deterministic work counters of the scale assignment path:
//! `graph.pairs`, the operand pairs the conflict-graph build sorts, and
//! `assign.urgency_raises`, the urgency-heap entries the Fig. 4 coloring
//! raises. A change that makes either step cheaper must leave both equal:
//! the same pairs sorted and the same raises taken, only each one cheaper.
//!
//! The collector is process-global, so this file holds a single test.

use parallel_memories::core::assignment::{assign_trace, AssignParams};
use parallel_memories::core::synth::{scale_trace, ScaleSpec};
use parallel_memories::obs;

/// `(graph.pairs, assign.urgency_raises)` of one sequential assignment of
/// the seeded scale trace of `spec`.
fn work(spec: &ScaleSpec, seed: u64) -> (u64, u64) {
    let trace = scale_trace(spec, seed);
    obs::set_enabled(true);
    let _ = obs::take();
    let params = AssignParams {
        jobs: 1,
        ..AssignParams::default()
    };
    let (_, report) = assign_trace(&trace, &params);
    let session = obs::take();
    obs::set_enabled(false);
    assert_eq!(report.residual_conflicts, 0);
    let counter = |name: &str| session.counters.get(name).copied().unwrap_or(0);
    (counter("graph.pairs"), counter("assign.urgency_raises"))
}

#[test]
fn scale_assignment_work_is_pinned() {
    // The serve-shape synth request and the 10^5-value CI shape.
    let serve = ScaleSpec {
        values: 2_000,
        edges: 8_000,
        cliques: 4,
        clique_size: 10,
        components: 4,
        modules: 4,
    };
    let ci = ScaleSpec {
        values: 100_000,
        edges: 400_000,
        cliques: 40,
        clique_size: 16,
        components: 8,
        modules: 8,
    };
    let got = [work(&serve, 7), work(&ci, 1)];
    assert_eq!(
        got,
        [(9_143, 7_166), (457_143, 384_194)],
        "work counters moved: {got:?}"
    );
}

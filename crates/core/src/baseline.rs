//! Baseline assignment policies the paper implicitly compares against (a
//! value has to live *somewhere*). Used by the ablation benchmarks to show
//! what the conflict-graph machinery buys.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::assignment::Assignment;
use crate::graph::ConflictGraph;
use crate::types::{AccessTrace, ModuleId, ModuleSet};

/// Every value in module 0 — the worst case (`t_max` flavor for scalars).
pub fn single_module(trace: &AccessTrace) -> Assignment {
    let mut a = Assignment::new(trace.modules);
    for v in trace.distinct_values() {
        a.add_copy(v, ModuleId(0));
    }
    a
}

/// Value `i` (in first-use order) goes to module `i mod k` — the classic
/// interleaved layout, oblivious to which values co-occur.
pub fn round_robin(trace: &AccessTrace) -> Assignment {
    let mut a = Assignment::new(trace.modules);
    let k = trace.modules;
    let mut next = 0usize;
    for &v in trace.instructions.operands() {
        if !a.is_placed(v) {
            a.add_copy(v, ModuleId((next % k) as u16));
            next += 1;
        }
    }
    a
}

/// Uniform random module per value (seeded, reproducible).
pub fn random_assignment(trace: &AccessTrace, seed: u64) -> Assignment {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut a = Assignment::new(trace.modules);
    let k = trace.modules;
    let modules: Vec<ModuleId> = (0..k as u16).map(ModuleId).collect();
    for v in trace.distinct_values() {
        let m = *modules.choose(&mut rng).expect("k >= 1");
        a.add_copy(v, m);
    }
    a
}

/// Plain first-fit greedy coloring in value order, no weights, no urgency,
/// no atoms. Returns the assignment plus the values it failed to color
/// (left unplaced). The ablation benchmark contrasts its failure count with
/// the Fig. 4 heuristic's.
pub fn first_fit_coloring(trace: &AccessTrace) -> (Assignment, usize) {
    let g = ConflictGraph::build(trace);
    let k = trace.modules;
    let all = ModuleSet::all(k);
    let mut a = Assignment::new(trace.modules);
    let mut failed = 0usize;
    for v in 0..g.len() as u32 {
        let mut forbidden = ModuleSet::EMPTY;
        for &u in g.neighbors(v) {
            let c = a.copies(g.value(u));
            if c.len() == 1 {
                forbidden = forbidden.union(c);
            }
        }
        match all.difference(forbidden).first() {
            Some(m) => a.add_copy(g.value(v), m),
            None => failed += 1,
        }
    }
    (a, failed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ValueId;

    fn trace() -> AccessTrace {
        AccessTrace::from_lists(3, &[&[1, 2, 4], &[2, 3, 5], &[2, 3, 4]])
    }

    #[test]
    fn single_module_maximizes_conflicts() {
        let t = trace();
        let a = single_module(&t);
        assert_eq!(a.residual_conflicts(&t), 3);
        // Makespan of each instruction equals its operand count.
        for inst in &t.instructions {
            assert_eq!(a.fetch_makespan(inst), Some(inst.len()));
        }
    }

    #[test]
    fn round_robin_places_everything_once() {
        let t = trace();
        let a = round_robin(&t);
        assert_eq!(a.single_copy_count(), 5);
        assert_eq!(a.multi_copy_count(), 0);
        // First instruction {1,2,4} gets modules 0,1,2 → conflict-free.
        assert!(a.instruction_conflict_free(&t.instructions[0]));
    }

    #[test]
    fn random_assignment_is_reproducible() {
        let t = trace();
        let a1 = random_assignment(&t, 42);
        let a2 = random_assignment(&t, 42);
        for v in t.distinct_values() {
            assert_eq!(a1.copies(v), a2.copies(v));
        }
        assert_eq!(a1.total_copies(), 5);
    }

    #[test]
    fn first_fit_colors_easy_graph() {
        let t = trace();
        let (a, failed) = first_fit_coloring(&t);
        // Fig. 1's graph is 3-colorable and small enough for first-fit.
        assert_eq!(failed + a.single_copy_count(), 5);
    }

    #[test]
    fn first_fit_fails_on_k5_with_3_modules() {
        let t = AccessTrace::from_lists(
            3,
            &[
                &[1, 2, 3],
                &[2, 3, 4],
                &[1, 3, 4],
                &[1, 3, 5],
                &[2, 3, 5],
                &[1, 4, 5],
            ],
        );
        let (_, failed) = first_fit_coloring(&t);
        assert_eq!(failed, 2, "K5 with 3 colors strands exactly 2 values");
    }

    #[test]
    fn baselines_place_all_values_exactly_once() {
        let t = trace();
        for a in [single_module(&t), round_robin(&t), random_assignment(&t, 7)] {
            for v in t.distinct_values() {
                assert_eq!(a.copies(v).len(), 1, "{v}");
            }
        }
        let _ = ValueId(0); // silence unused import in some cfgs
    }
}

//! Heuristic-vs-exact gap measurement.
//!
//! The comparison point is the paper's weighted-urgency coloring (Fig. 4)
//! restricted to single copies: color the full conflict graph, then place
//! any uncolored values greedily (fewest newly conflicting instructions,
//! lowest module on ties). Because that is *some* single-copy assignment,
//! its residual can never beat a certified optimum — the gap
//! `heuristic - lower` is non-negative whenever the certificate is valid,
//! which the property tests and PM206 both enforce.

use parmem_core::assignment::Assignment;
use parmem_core::coloring::color_graph;
use parmem_core::graph::ConflictGraph;
use parmem_core::types::{AccessTrace, ModuleId, ModuleSet};

/// Residual-conflict count of the heuristic single-copy assignment.
pub fn heuristic_single_copy_residual(trace: &AccessTrace) -> usize {
    let k = trace.modules;
    if k == 0 {
        return 0;
    }
    let g = ConflictGraph::build(trace);
    let col = color_graph(&g, k, |_| ModuleSet::EMPTY);
    let mut a = Assignment::new(k);
    for &(v, m) in &col.assigned {
        a.set_copies(g.value(v), ModuleSet::singleton(m));
    }
    for &v in &col.unassigned {
        let val = g.value(v);
        let mut best = (usize::MAX, ModuleId(0));
        for m in 0..k {
            let m = ModuleId(m as u16);
            a.set_copies(val, ModuleSet::singleton(m));
            let r = a.residual_conflicts(trace);
            if r < best.0 {
                best = (r, m);
            }
        }
        a.set_copies(val, ModuleSet::singleton(best.1));
    }
    a.residual_conflicts(trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heuristic_residual_is_zero_on_an_easy_trace() {
        let trace = AccessTrace::from_lists(2, &[&[0, 1], &[1, 2]]);
        assert_eq!(heuristic_single_copy_residual(&trace), 0);
    }

    #[test]
    fn heuristic_residual_sees_the_forced_conflict() {
        // K3 on 2 modules: any single-copy assignment conflicts once.
        let trace = AccessTrace::from_lists(2, &[&[0, 1, 2]]);
        assert!(heuristic_single_copy_residual(&trace) >= 1);
    }
}

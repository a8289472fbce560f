//! Clique-based lower-bound evidence.
//!
//! A clique of size `k + 1` in the access-conflict graph pigeonholes: any
//! single-copy assignment puts two of its values in the same module, and
//! since adjacent values co-occur in some instruction, at least one
//! instruction conflicts. Two cliques force *distinct* conflicting
//! instructions when their instruction supports (the instructions holding
//! two or more clique members) are disjoint — so a family of vertex-disjoint,
//! support-disjoint cliques of size `> k` is an additive, machine-checkable
//! lower bound on the residual.
//!
//! The greedy search below grows cliques from high-degree seeds inside one
//! connected component; it reuses the graph the core pipeline built (the
//! atoms of chordal regions are cliques too, and instruction operand sets —
//! including the paper's "oversized word" case `|I| > k` — are cliques by
//! construction, so both show up naturally as seeds).

use crate::instance::Instance;

/// Greedily collect vertex-disjoint, support-disjoint cliques of size
/// `> k` among `comp`'s vertices. Returns dense vertex lists (sorted).
pub(crate) fn clique_evidence(inst: &Instance, comp: &[u32]) -> Vec<Vec<u32>> {
    let k = inst.k;
    let mut order: Vec<u32> = comp.to_vec();
    order.sort_by_key(|&v| (std::cmp::Reverse(inst.graph.degree(v)), v));

    let mut used_vert = vec![false; inst.n];
    let mut used_inst = vec![false; inst.view.len()];
    let mut out = Vec::new();

    for &seed in &order {
        if used_vert[seed as usize] || inst.graph.degree(seed) < k {
            continue;
        }
        // Grow a clique from `seed`, always taking the highest-degree
        // remaining candidate (ties: smallest id).
        let mut clique = vec![seed];
        let mut cand: Vec<u32> = inst
            .graph
            .neighbors(seed)
            .iter()
            .copied()
            .filter(|&u| !used_vert[u as usize])
            .collect();
        while clique.len() <= k && !cand.is_empty() {
            let &next = cand
                .iter()
                .max_by_key(|&&u| (inst.graph.degree(u), std::cmp::Reverse(u)))
                .expect("cand non-empty");
            clique.push(next);
            cand.retain(|&u| u != next && inst.graph.has_edge(u, next));
        }
        if clique.len() <= k {
            continue;
        }
        // Support: instructions holding >= 2 clique members.
        let support: Vec<u32> = inst.view.support_of(|v| clique.contains(&v));
        if support.iter().any(|&i| used_inst[i as usize]) {
            continue;
        }
        for &i in &support {
            used_inst[i as usize] = true;
        }
        for &v in &clique {
            used_vert[v as usize] = true;
        }
        clique.sort_unstable();
        out.push(clique);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use parmem_core::types::AccessTrace;

    #[test]
    fn finds_the_oversized_instruction_clique() {
        // One word reading 4 scalars on a 3-module machine: K4, lb = 1.
        let trace = AccessTrace::from_lists(3, &[&[0, 1, 2, 3]]);
        let inst = Instance::build(&trace);
        let comp: Vec<u32> = (0..4).collect();
        let ev = clique_evidence(&inst, &comp);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].len(), 4);
    }

    #[test]
    fn disjoint_supports_make_the_bound_additive() {
        // Two disjoint K3s on a 2-module machine.
        let trace = AccessTrace::from_lists(2, &[&[0, 1, 2], &[3, 4, 5]]);
        let inst = Instance::build(&trace);
        let ev0 = clique_evidence(&inst, &[0, 1, 2]);
        let ev1 = clique_evidence(&inst, &[3, 4, 5]);
        assert_eq!(ev0.len() + ev1.len(), 2);
    }

    #[test]
    fn no_clique_when_graph_is_k_colorable() {
        // A 4-cycle is 2-colorable: no K3 exists.
        let trace = AccessTrace::from_lists(2, &[&[0, 1], &[1, 2], &[2, 3], &[3, 0]]);
        let inst = Instance::build(&trace);
        let comp: Vec<u32> = (0..4).collect();
        assert!(clique_evidence(&inst, &comp).is_empty());
    }
}

//! Property tests for the [`ScaleSpec`] workload generator — the gate in
//! front of the scale path: if the generator's structural guarantees hold
//! (determinism, planted cliques, exact component counts, edge budgets) and
//! its graphs round-trip through the CSR builder bit-for-bit, the large-n
//! benchmarks downstream are measuring what they claim to.

use std::collections::BTreeMap;

use proptest::prelude::*;

use parmem_core::graph::ConflictGraph;
use parmem_core::synth::{scale_graph, scale_trace, scale_workload, ScaleSpec};

/// Specs kept sparse enough (target well under half the intra-block pair
/// capacity) that the bounded top-up rounds always reach the exact target.
fn arb_spec() -> impl Strategy<Value = ScaleSpec> {
    (
        1usize..=4,   // components
        16usize..=96, // values per component
        0usize..=4,   // cliques
        3usize..=9,   // clique_size
        4usize..=8,   // modules
        1usize..=4,   // avg degree
    )
        .prop_map(
            |(components, per_comp, cliques, clique_size, modules, deg)| {
                let values = components * per_comp;
                ScaleSpec {
                    values,
                    edges: values * deg / 2,
                    cliques,
                    clique_size,
                    components,
                    modules,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Same `(spec, seed)` ⇒ byte-identical edge list, plan and graph.
    #[test]
    fn same_seed_is_byte_identical(spec in arb_spec(), seed in 0u64..1024) {
        let a = scale_workload(&spec, seed);
        let b = scale_workload(&spec, seed);
        prop_assert_eq!(&a.edges, &b.edges);
        prop_assert_eq!(&a.cliques, &b.cliques);
        prop_assert_eq!(&a.blocks, &b.blocks);
        prop_assert_eq!(
            scale_graph(&spec, seed).digest(),
            scale_graph(&spec, seed).digest()
        );
    }

    /// Every planted clique is an actual clique of the generated graph.
    #[test]
    fn planted_cliques_are_cliques(spec in arb_spec(), seed in 0u64..1024) {
        let w = scale_workload(&spec, seed);
        let g = ConflictGraph::from_sorted_edges(spec.values, &w.edges);
        prop_assert_eq!(w.cliques.len(), spec.cliques);
        for clique in &w.cliques {
            prop_assert!(g.is_clique(clique), "planted set {clique:?} is not a clique");
        }
    }

    /// Edge count lands exactly on the target when the target clears the
    /// structural floor (trees + cliques), and never below the floor.
    #[test]
    fn edge_count_within_tolerance(spec in arb_spec(), seed in 0u64..1024) {
        let w = scale_workload(&spec, seed);
        prop_assert!(w.edges.len() >= w.forced_edges);
        prop_assert_eq!(w.edges.len(), spec.edges.max(w.forced_edges));
    }

    /// The graph has exactly `spec.components` connected components and the
    /// blocks partition the vertex range with no cross-block edge.
    #[test]
    fn component_count_matches_spec(spec in arb_spec(), seed in 0u64..1024) {
        let w = scale_workload(&spec, seed);
        let g = ConflictGraph::from_sorted_edges(spec.values, &w.edges);
        prop_assert_eq!(g.connected_components().len(), spec.components);
        prop_assert_eq!(w.blocks.len(), spec.components);
        prop_assert_eq!(w.blocks[0].0, 0);
        prop_assert_eq!(w.blocks[w.blocks.len() - 1].1 as usize, spec.values);
        for pair in w.blocks.windows(2) {
            prop_assert_eq!(pair[0].1, pair[1].0, "blocks must tile the range");
        }
        let block_of = |v: u32| w.blocks.partition_point(|&(s, _)| s <= v) - 1;
        for &(a, b, _) in &w.edges {
            prop_assert_eq!(block_of(a), block_of(b), "edge {a}-{b} crosses blocks");
        }
    }

    /// The generated graph round-trips: CSR assembly from the edge list and
    /// the trace-driven builder both equal a naive pair-map reference.
    #[test]
    fn round_trips_through_csr_construction(spec in arb_spec(), seed in 0u64..1024) {
        let w = scale_workload(&spec, seed);
        let g = ConflictGraph::from_sorted_edges(spec.values, &w.edges);

        let trace = scale_trace(&spec, seed);
        let from_trace = ConflictGraph::build(&trace);
        prop_assert_eq!(g.digest(), from_trace.digest());

        // Naive reference: pair → conf map over the trace.
        let mut reference: BTreeMap<(u32, u32), u32> = BTreeMap::new();
        for inst in &trace.instructions {
            let ops: Vec<u32> = inst.iter().map(|v| v.0).collect();
            for i in 0..ops.len() {
                for j in (i + 1)..ops.len() {
                    let k = (ops[i].min(ops[j]), ops[i].max(ops[j]));
                    *reference.entry(k).or_insert(0) += 1;
                }
            }
        }
        let produced: BTreeMap<(u32, u32), u32> = g
            .edges()
            .map(|(u, v, c)| ((g.value(u).0, g.value(v).0), c))
            .collect();
        prop_assert_eq!(produced, reference);
    }
}

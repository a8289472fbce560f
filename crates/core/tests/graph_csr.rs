//! Property tests pinning the CSR [`ConflictGraph`] to a naive reference
//! builder.
//!
//! The reference keeps the original formulation directly: a sorted set of
//! values and a map `(a, b) -> conf` over normalized value pairs, built by
//! scanning every instruction's operand pairs. The CSR graph must agree on
//! the vertex set, adjacency, degrees, conf weights, and edge iteration for
//! random traces — including filtered builds and `from_edges` inputs with
//! duplicate and reversed mentions — and `induced` subgraphs must equal
//! `from_edges` over the edges they keep.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

use parmem_core::graph::ConflictGraph;
use parmem_core::types::{AccessTrace, ValueId};

/// The pre-CSR formulation: distinct values + a pair→conf map.
struct NaiveGraph {
    values: Vec<ValueId>,
    conf: BTreeMap<(ValueId, ValueId), u32>,
}

fn key(a: ValueId, b: ValueId) -> (ValueId, ValueId) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

fn naive_build(trace: &AccessTrace, keep: impl Fn(ValueId) -> bool) -> NaiveGraph {
    let mut values: Vec<ValueId> = trace
        .instructions
        .iter()
        .flatten()
        .copied()
        .filter(|&v| keep(v))
        .collect();
    values.sort_unstable();
    values.dedup();
    let mut conf = BTreeMap::new();
    for inst in &trace.instructions {
        let ops: Vec<ValueId> = inst.iter().copied().filter(|&v| keep(v)).collect();
        for i in 0..ops.len() {
            for j in (i + 1)..ops.len() {
                *conf.entry(key(ops[i], ops[j])).or_insert(0u32) += 1;
            }
        }
    }
    NaiveGraph { values, conf }
}

/// Assert the CSR graph and the naive reference describe the same graph.
fn assert_equivalent(g: &ConflictGraph, n: &NaiveGraph) {
    // Vertex set: same values, each resolvable in both directions.
    assert_eq!(g.len(), n.values.len());
    let mut seen: Vec<ValueId> = (0..g.len() as u32).map(|v| g.value(v)).collect();
    seen.sort_unstable();
    assert_eq!(seen, n.values);
    for &val in &n.values {
        let v = g.vertex_of(val).expect("value must have a vertex");
        assert_eq!(g.value(v), val);
    }
    assert_eq!(g.vertex_of(ValueId(u32::MAX)), None);

    // Every pair: conf / has_edge agree with the reference map.
    assert_eq!(g.edge_count(), n.conf.len());
    for i in 0..n.values.len() {
        for j in (i + 1)..n.values.len() {
            let (a, b) = (n.values[i], n.values[j]);
            let (u, v) = (g.vertex_of(a).unwrap(), g.vertex_of(b).unwrap());
            let expected = n.conf.get(&key(a, b)).copied().unwrap_or(0);
            assert_eq!(g.conf(u, v), expected, "conf({a:?},{b:?})");
            assert_eq!(g.conf(v, u), expected, "conf must be symmetric");
            assert_eq!(g.has_edge(u, v), expected > 0);
        }
    }

    // Per-vertex adjacency: sorted, duplicate-free, weights parallel.
    let mut total_degree = 0;
    for v in 0..g.len() as u32 {
        let ns = g.neighbors(v);
        assert!(ns.windows(2).all(|w| w[0] < w[1]), "row must be ascending");
        assert_eq!(ns.len(), g.degree(v));
        total_degree += ns.len();
        let expected_deg = n
            .conf
            .keys()
            .filter(|&&(a, b)| a == g.value(v) || b == g.value(v))
            .count();
        assert_eq!(ns.len(), expected_deg, "degree of {:?}", g.value(v));
        for (w, c) in g.neighbors_with_conf(v) {
            assert_eq!(
                n.conf.get(&key(g.value(v), g.value(w))).copied(),
                Some(c),
                "row weight of ({v},{w})"
            );
        }
    }
    assert_eq!(total_degree, 2 * g.edge_count());

    // Edge iteration: each undirected edge exactly once, ascending.
    let edges: Vec<(u32, u32, u32)> = g.edges().collect();
    assert_eq!(edges.len(), g.edge_count());
    assert!(edges.windows(2).all(|w| w[0] < w[1]));
    for &(u, v, c) in &edges {
        assert!(u < v);
        assert_eq!(n.conf.get(&key(g.value(u), g.value(v))).copied(), Some(c));
    }
}

/// Random traces: up to 24 instructions of up to 6 operands over a small
/// value universe, so co-occurrence counts above 1 actually happen.
fn arb_trace() -> impl Strategy<Value = AccessTrace> {
    (
        2usize..=8,
        proptest::collection::vec(proptest::collection::vec(0u32..24, 0..6), 0..24),
    )
        .prop_map(|(modules, insts)| {
            AccessTrace::new(
                modules,
                insts
                    .into_iter()
                    .map(|ops| ops.into_iter().map(ValueId))
                    .collect(),
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn csr_matches_naive_reference_on_random_traces(trace in arb_trace()) {
        let g = ConflictGraph::build(&trace);
        let n = naive_build(&trace, |_| true);
        assert_equivalent(&g, &n);
    }

    #[test]
    fn filtered_csr_matches_filtered_reference(trace in arb_trace(), modulus in 2u32..5) {
        let keep = |v: ValueId| v.0.is_multiple_of(modulus);
        let g = ConflictGraph::build_filtered(&trace, keep);
        let n = naive_build(&trace, keep);
        assert_equivalent(&g, &n);
    }

    #[test]
    fn components_partition_the_vertices(trace in arb_trace()) {
        let g = ConflictGraph::build(&trace);
        let comps = g.connected_components();
        let mut all: Vec<u32> = comps.iter().flatten().copied().collect();
        all.sort_unstable();
        let expected: Vec<u32> = (0..g.len() as u32).collect();
        prop_assert_eq!(all, expected, "components must partition 0..n");
        // No edge crosses components.
        for comp in &comps {
            for &v in comp {
                for &w in g.neighbors(v) {
                    prop_assert!(comp.binary_search(&w).is_ok(), "edge {v}-{w} leaves its component");
                }
            }
        }
    }

    /// `from_edges` with duplicate / reversed mentions: one edge kept per
    /// unordered pair, last conf wins (the old map-insert semantics).
    #[test]
    fn from_edges_matches_map_insert_semantics(
        n in 1usize..12,
        raw in proptest::collection::vec((0u32..12, 0u32..12, 1u32..9), 0..32),
    ) {
        let edge_list: Vec<(u32, u32, u32)> = raw
            .into_iter()
            .filter(|&(a, b, _)| (a as usize) < n && (b as usize) < n && a != b)
            .collect();
        let g = ConflictGraph::from_edges(n, &edge_list);

        let mut reference: BTreeMap<(u32, u32), u32> = BTreeMap::new();
        for &(a, b, c) in &edge_list {
            let k = if a < b { (a, b) } else { (b, a) };
            reference.insert(k, c);
        }
        prop_assert_eq!(g.edge_count(), reference.len());
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                let expected = reference.get(&(u, v)).copied().unwrap_or(0);
                prop_assert_eq!(g.conf(u, v), expected, "conf({},{})", u, v);
            }
        }
    }

    /// `induced` on a random subset, given ascending and shuffled, equals
    /// `from_edges` over the parent's edges with both ends in the subset,
    /// renumbered by position in the subset: row for row, neighbors and
    /// `conf`, and each vertex keeps its parent's value. Subsets range from
    /// a few vertices of a large graph (the hash-map lookup) to most of it.
    #[test]
    fn induced_matches_from_edges_over_kept_edges(
        n in 1usize..=200,
        density in 1u32..=30,
        keep in 1u32..=100,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut edges = Vec::new();
        for a in 0..n as u32 {
            for b in a + 1..n as u32 {
                if rng.gen_bool(f64::from(density) / 100.0) {
                    edges.push((a, b, rng.gen_range(1..=u32::MAX)));
                }
            }
        }
        let g = ConflictGraph::from_edges(n, &edges);
        let ascending: Vec<u32> = (0..n as u32)
            .filter(|_| rng.gen_bool(f64::from(keep) / 100.0))
            .collect();
        let mut shuffled = ascending.clone();
        shuffled.shuffle(&mut rng);
        for vertices in [ascending, shuffled] {
            let sub = g.induced(&vertices);
            let local = |v: u32| vertices.iter().position(|&x| x == v).map(|i| i as u32);
            let kept: Vec<(u32, u32, u32)> = g
                .edges()
                .filter_map(|(u, v, c)| Some((local(u)?, local(v)?, c)))
                .collect();
            let want = ConflictGraph::from_edges(vertices.len(), &kept);
            prop_assert_eq!(sub.len(), vertices.len());
            prop_assert_eq!(sub.edge_count(), want.edge_count());
            for (i, &v) in vertices.iter().enumerate() {
                let i = i as u32;
                prop_assert_eq!(sub.value(i), g.value(v));
                prop_assert_eq!(sub.vertex_of(g.value(v)), Some(i));
                let got: Vec<(u32, u32)> = sub.neighbors_with_conf(i).collect();
                let expected: Vec<(u32, u32)> = want.neighbors_with_conf(i).collect();
                prop_assert_eq!(got, expected, "row {}", i);
            }
        }
    }
}

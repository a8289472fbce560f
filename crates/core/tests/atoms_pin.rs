//! Pins the clique-separator decomposition and MCS-M byte for byte.
//!
//! `atoms::atoms` (every atom, in creation order) and `atoms::mcs_m`
//! (`order`, `position` and `fill`) are digested over random traces at
//! k ∈ {2,3,4,8}, seeds 0..100, as a whole graph and per component; over
//! clique traces; and over every component of the serve-shape scale trace
//! (2000 values, 8000 edges, 4 planted cliques of 10, 4 components) at
//! seeds 0..10. A scale trace's graph does not depend on k, so its
//! components are pinned once per seed, while `assign_trace`'s copy sets
//! and report (the `placement_pin` digest) are pinned on the same traces at
//! k ∈ {2,4,8}. Any change to which vertex is numbered when, which fill
//! edge is added or which atom splits off moves a digest.
//!
//! A property test also checks `mcs_m` against a bottleneck Dijkstra over a
//! binary heap, kept here as the oracle, and `atoms` against the separator
//! scan over the oracle's filled graph.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use parmem_core::assignment::{assign_trace, AssignParams, AssignmentReport};
use parmem_core::atoms::{atoms, mcs_m, MinimalOrdering};
use parmem_core::graph::ConflictGraph;
use parmem_core::synth::{
    clique_trace, random_trace, scale_graph, scale_trace, ScaleSpec, TraceSpec,
};
use parmem_core::types::AccessTrace;
use parmem_obs::digest::Fnv1a;
use proptest::prelude::*;

/// Feed every atom, in creation order, each length-prefixed.
fn feed_atoms(h: &mut Fnv1a, atom_sets: &[Vec<u32>]) {
    h.u64(atom_sets.len() as u64);
    for atom in atom_sets {
        h.u64(atom.len() as u64);
        for &v in atom {
            h.u64(u64::from(v));
        }
    }
}

/// Feed an ordering's `order`, `position` and `fill`.
fn feed_ordering(h: &mut Fnv1a, mo: &MinimalOrdering) {
    h.u64(mo.order.len() as u64);
    for &v in &mo.order {
        h.u64(u64::from(v));
    }
    for &p in &mo.position {
        h.u64(p as u64);
    }
    h.u64(mo.fill.len() as u64);
    for &(a, b) in &mo.fill {
        h.u64(u64::from(a));
        h.u64(u64::from(b));
    }
}

/// `(atoms, mcs_m)` digests accumulated over a run of graphs.
struct Pins {
    atoms: Fnv1a,
    mcs_m: Fnv1a,
}

impl Pins {
    fn new() -> Pins {
        Pins {
            atoms: Fnv1a::new(),
            mcs_m: Fnv1a::new(),
        }
    }

    fn feed(&mut self, g: &ConflictGraph) {
        feed_atoms(&mut self.atoms, &atoms(g));
        feed_ordering(&mut self.mcs_m, &mcs_m(g));
    }

    /// Feed `g` whole, then each of its components.
    fn feed_with_components(&mut self, g: &ConflictGraph) {
        self.feed(g);
        for c in g.connected_components() {
            self.feed(&g.induced(&c));
        }
    }

    fn finish(&self) -> (u64, u64) {
        (self.atoms.finish(), self.mcs_m.finish())
    }
}

fn random_case(k: usize, seed: u64) -> AccessTrace {
    let spec = TraceSpec {
        values: 64,
        instructions: 120,
        modules: k,
        min_ops: 2,
        max_ops: k,
        skew: 0.8,
    };
    random_trace(&spec, seed)
}

/// The synth request shape `parmem serve` answers: four 500-vertex
/// components, each under the atom size limit.
fn serve_spec(k: usize) -> ScaleSpec {
    ScaleSpec {
        values: 2000,
        edges: 8000,
        cliques: 4,
        clique_size: 10,
        components: 4,
        modules: k,
    }
}

/// Expected `(atoms, mcs_m)` digests per k ∈ {2,3,4,8} over seeds 0..100.
const RANDOM: [(u64, u64); 4] = [
    (0xce06c725a8c0f331, 0xe4c0abaa6e35902c),
    (0xb77e0f118f099036, 0xf74ea3fee7de63d9),
    (0x84b52649984a1084, 0x6746df63b3eea092),
    (0x43b58c531fc56f85, 0x4d098bbf16c31ee5),
];

#[test]
fn random_graphs_decompose_identically() {
    let mut got = Vec::new();
    for k in [2, 3, 4, 8] {
        let mut pins = Pins::new();
        for seed in 0..100 {
            pins.feed_with_components(&ConflictGraph::build(&random_case(k, seed)));
        }
        got.push(pins.finish());
    }
    assert_eq!(got, RANDOM, "decomposition moved: {got:#018x?}");
}

#[test]
fn clique_graphs_decompose_identically() {
    let mut pins = Pins::new();
    for k in [2, 3, 4, 8] {
        for (cliques, extra) in [(1, 1), (3, 2), (5, 3)] {
            for seed in 0..4 {
                pins.feed_with_components(&ConflictGraph::build(&clique_trace(
                    k, cliques, extra, seed,
                )));
            }
        }
    }
    let got = pins.finish();
    assert_eq!(
        got,
        (0x7af9e2b62a7c38a5, 0x7b6c27eee99e6ca5),
        "decomposition moved: {got:#018x?}"
    );
}

#[test]
fn serve_shape_components_decompose_identically() {
    let mut pins = Pins::new();
    for seed in 0..10 {
        let g = scale_graph(&serve_spec(4), seed);
        let comps = g.connected_components();
        assert_eq!(comps.len(), 4);
        for c in comps {
            pins.feed(&g.induced(&c));
        }
    }
    let got = pins.finish();
    assert_eq!(
        got,
        (0x46bb7d9a23074f36, 0xc4573a42c5a88507),
        "decomposition moved: {got:#018x?}"
    );
}

/// FNV-1a over every `(value, copy set)` pair and every report field, as in
/// `placement_pin`.
fn placement_digest(trace: &AccessTrace) -> u64 {
    let params = AssignParams {
        jobs: 1,
        ..AssignParams::default()
    };
    let (a, r) = assign_trace(trace, &params);
    let AssignmentReport {
        single_copy,
        multi_copy,
        extra_copies,
        uncolored,
        atoms,
        residual_conflicts,
        repair_copies,
    } = r;
    let mut h = Fnv1a::new();
    for (v, set) in a.placed_values() {
        h.u64(u64::from(v.0));
        h.u64(set.0);
    }
    for field in [
        single_copy,
        multi_copy,
        extra_copies,
        uncolored,
        atoms,
        residual_conflicts,
        repair_copies,
    ] {
        h.u64(field as u64);
    }
    h.finish()
}

/// Expected placement digest per k ∈ {2,4,8}, folded over seeds 0..10.
/// These 500-vertex components are above the atom decomposition's bound,
/// so `assign_trace` colors them whole.
const SERVE_PLACEMENT: [u64; 3] = [0x12146735834ed5aa, 0x1ba11d5e3fde2e4d, 0xe46e81838d123b5a];

#[test]
fn serve_shape_traces_place_identically() {
    let mut got = Vec::new();
    for k in [2, 4, 8] {
        let mut h = Fnv1a::new();
        for seed in 0..10 {
            h.u64(placement_digest(&scale_trace(&serve_spec(k), seed)));
        }
        got.push(h.finish());
    }
    assert_eq!(got, SERVE_PLACEMENT, "placement moved: {got:#018x?}");
}

/// MCS-M as a bottleneck Dijkstra over a binary heap: from each numbered
/// vertex, `incoming[x]` is the least, over paths through unnumbered
/// vertices, of the largest intermediate weight, and `x` joins S when that
/// is below its own weight.
fn heap_mcs_m(g: &ConflictGraph) -> MinimalOrdering {
    let n = g.len();
    let mut weight = vec![0i64; n];
    let mut numbered = vec![false; n];
    let mut order = vec![0u32; n];
    let mut position = vec![0usize; n];
    let mut fill = Vec::new();
    let mut incoming = vec![i64::MAX; n];
    let mut touched: Vec<u32> = Vec::new();
    for i in (0..n).rev() {
        let v = (0..n as u32)
            .filter(|&x| !numbered[x as usize])
            .max_by_key(|&x| (weight[x as usize], Reverse(x)))
            .expect("an unnumbered vertex must remain");
        order[i] = v;
        position[v as usize] = i;
        numbered[v as usize] = true;
        let mut heap: BinaryHeap<Reverse<(i64, u32)>> = BinaryHeap::new();
        for &u in g.neighbors(v) {
            if !numbered[u as usize] && incoming[u as usize] > -1 {
                if incoming[u as usize] == i64::MAX {
                    touched.push(u);
                }
                incoming[u as usize] = -1;
                heap.push(Reverse((-1, u)));
            }
        }
        while let Some(Reverse((inc, x))) = heap.pop() {
            if inc > incoming[x as usize] {
                continue;
            }
            let through = inc.max(weight[x as usize]);
            for &y in g.neighbors(x) {
                if numbered[y as usize] {
                    continue;
                }
                if through < incoming[y as usize] {
                    if incoming[y as usize] == i64::MAX {
                        touched.push(y);
                    }
                    incoming[y as usize] = through;
                    heap.push(Reverse((through, y)));
                }
            }
        }
        for &u in &touched {
            if incoming[u as usize] < weight[u as usize] {
                weight[u as usize] += 1;
                if !g.has_edge(u, v) {
                    fill.push((u.min(v), u.max(v)));
                }
            }
            incoming[u as usize] = i64::MAX;
        }
        touched.clear();
    }
    fill.sort_unstable();
    fill.dedup();
    MinimalOrdering {
        order,
        position,
        fill,
    }
}

/// Connected component of `start` among `alive` vertices outside `removed`.
fn component(g: &ConflictGraph, start: u32, alive: &[bool], removed: &[u32]) -> Vec<u32> {
    let mut seen = vec![false; g.len()];
    for &r in removed {
        seen[r as usize] = true;
    }
    seen[start as usize] = true;
    let mut comp = Vec::new();
    let mut stack = vec![start];
    while let Some(v) = stack.pop() {
        comp.push(v);
        for &w in g.neighbors(v) {
            if alive[w as usize] && !seen[w as usize] {
                seen[w as usize] = true;
                stack.push(w);
            }
        }
    }
    comp.sort_unstable();
    comp
}

/// The separator scan over the filled graph of [`heap_mcs_m`]: each vertex's
/// higher-numbered filled neighbourhood, when a clique of `g` that splits
/// its live component, splits off an atom; what stays alive ends as one
/// atom per component.
fn reference_atoms(g: &ConflictGraph) -> Vec<Vec<u32>> {
    let n = g.len();
    let mo = heap_mcs_m(g);
    let mut filled: Vec<Vec<u32>> = (0..n as u32).map(|v| g.neighbors(v).to_vec()).collect();
    for &(a, b) in &mo.fill {
        filled[a as usize].push(b);
        filled[b as usize].push(a);
    }
    let mut alive = vec![true; n];
    let mut out = Vec::new();
    for (i, &x) in mo.order.iter().enumerate() {
        if !alive[x as usize] {
            continue;
        }
        let madj: Vec<u32> = filled[x as usize]
            .iter()
            .copied()
            .filter(|&w| mo.position[w as usize] > i && alive[w as usize])
            .collect();
        if madj.is_empty() || !g.is_clique(&madj) {
            continue;
        }
        let comp = component(g, x, &alive, &madj);
        if comp.len() + madj.len() >= component(g, x, &alive, &[]).len() {
            continue;
        }
        for &c in &comp {
            alive[c as usize] = false;
        }
        let mut atom = comp;
        atom.extend_from_slice(&madj);
        atom.sort_unstable();
        out.push(atom);
    }
    let mut rest = alive.clone();
    for s in 0..n as u32 {
        if rest[s as usize] {
            let comp = component(g, s, &alive, &[]);
            for &c in &comp {
                rest[c as usize] = false;
            }
            out.push(comp);
        }
    }
    out
}

fn check_against_oracle(g: &ConflictGraph) -> Result<(), TestCaseError> {
    let got = mcs_m(g);
    let want = heap_mcs_m(g);
    prop_assert_eq!(&got.order, &want.order);
    prop_assert_eq!(&got.position, &want.position);
    prop_assert_eq!(&got.fill, &want.fill);
    prop_assert_eq!(atoms(g), reference_atoms(g));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// MCS-M numbers, fills and decomposes random traces exactly as the
    /// heap oracle does.
    #[test]
    fn mcs_m_matches_heap_oracle_on_random_traces(
        k in 2usize..=8,
        values in 2usize..=80,
        instructions in 1usize..=160,
        seed in 0u64..1_000_000,
    ) {
        let spec = TraceSpec {
            values,
            instructions,
            modules: k,
            min_ops: 2,
            max_ops: k,
            skew: 0.8,
        };
        check_against_oracle(&ConflictGraph::build(&random_trace(&spec, seed)))?;
    }

    /// The same on sparse scale graphs, where long chordless cycles make
    /// the bottleneck search pass through heavier vertices.
    #[test]
    fn mcs_m_matches_heap_oracle_on_scale_graphs(
        components in 1usize..=3,
        per_component in 2usize..=60,
        density in 1usize..=4,
        cliques in 0usize..=3,
        clique_size in 2usize..=8,
        seed in 0u64..1_000_000,
    ) {
        let values = components * per_component;
        let spec = ScaleSpec {
            values,
            edges: values * density,
            cliques,
            clique_size,
            components,
            modules: 4,
        };
        check_against_oracle(&scale_graph(&spec, seed))?;
    }
}

//! Pins the Fig. 4 coloring and the conflict-graph build byte for byte.
//!
//! `color_graph`'s processing order, its `(vertex, module)` assignments and
//! its `V_unassigned` list are digested over random traces at k ∈ {2,3,4,8},
//! with no fixed sets, with single-copy fixed sets (including modules outside
//! `0..k`) and with a mix of multi-copy and single-copy fixed sets; and over
//! every component of the 10^4 seed-123 scale trace. The graph pins cover `build_filtered` with a predicate and
//! `build` on a trace whose value ids are sparse. Any change to which vertex
//! is processed when, or which module it gets, moves a digest.
//!
//! A property test also checks `color_graph` against an O(n²) reference
//! that rescans every uncolored vertex for the maximum urgency at each step.

use std::cmp::Ordering;

use parmem_core::coloring::{color_graph, Coloring};
use parmem_core::graph::ConflictGraph;
use parmem_core::synth::{random_trace, scale_trace, ScaleSpec, TraceSpec};
use parmem_core::types::{AccessTrace, ModuleId, ModuleSet, OperandSet, ValueId};
use parmem_obs::digest::Fnv1a;
use proptest::prelude::*;

/// Which vertices arrive with pre-existing copies.
#[derive(Clone, Copy, Debug)]
enum Fixed {
    /// Nothing fixed.
    None,
    /// Every 7th vertex holds one copy; the module cycles through `0..=k`,
    /// so some fixed copies sit outside the modules being colored.
    Single,
    /// Every 5th vertex holds two copies, every 9th (not 5th) one copy.
    Multi,
}

impl Fixed {
    fn set(self, v: u32, k: usize) -> ModuleSet {
        let m = |i: u32| ModuleId((i as usize % k) as u16);
        match self {
            Fixed::None => ModuleSet::EMPTY,
            Fixed::Single if v.is_multiple_of(7) => {
                ModuleSet::singleton(ModuleId(((v / 7) as usize % (k + 1)) as u16))
            }
            Fixed::Multi if v.is_multiple_of(5) => {
                let mut s = ModuleSet::singleton(m(v / 5));
                s.insert(m(v / 5 + 1));
                s
            }
            Fixed::Multi if v.is_multiple_of(9) => ModuleSet::singleton(m(v / 9)),
            _ => ModuleSet::EMPTY,
        }
    }
}

const FIXED: [Fixed; 3] = [Fixed::None, Fixed::Single, Fixed::Multi];

fn color(g: &ConflictGraph, k: usize, fixed: Fixed) -> Coloring {
    color_graph(g, k, |v| fixed.set(v, k))
}

/// Feed one coloring's three lists, each length-prefixed.
fn feed(h: &mut Fnv1a, c: &Coloring) {
    h.u64(c.order.len() as u64);
    for &v in &c.order {
        h.u64(u64::from(v));
    }
    h.u64(c.assigned.len() as u64);
    for &(v, m) in &c.assigned {
        h.u64(u64::from(v));
        h.u64(m.index() as u64);
    }
    h.u64(c.unassigned.len() as u64);
    for &v in &c.unassigned {
        h.u64(u64::from(v));
    }
}

fn random_case(k: usize, seed: u64) -> AccessTrace {
    let spec = TraceSpec {
        values: 64,
        instructions: 200,
        modules: k,
        min_ops: 2,
        max_ops: k,
        skew: 0.8,
    };
    random_trace(&spec, seed)
}

/// Expected digest per `(k, fixed)` over seeds 0..50, in the order the
/// loops below visit them.
const RANDOM: [u64; 12] = [
    0xe6d826eb5e5a6ee6,
    0xa8475a6d40450724,
    0xb39d9f1efde1c6c3,
    0x1ba4dcf056ca0de3,
    0x203699953bbadf26,
    0x360d8d64852081bb,
    0x852a4dab2d74c641,
    0x764f3baee11f2f5b,
    0xed44b08577a1e791,
    0x8e056da6e0e4f9d8,
    0xc9ee32d51e36792a,
    0x45e44b64c2e2d40a,
];

#[test]
fn random_graphs_color_identically() {
    let mut got = Vec::new();
    for k in [2, 3, 4, 8] {
        let graphs: Vec<ConflictGraph> = (0..50)
            .map(|seed| ConflictGraph::build(&random_case(k, seed)))
            .collect();
        for fixed in FIXED {
            let mut h = Fnv1a::new();
            for g in &graphs {
                feed(&mut h, &color(g, k, fixed));
            }
            got.push(h.finish());
        }
    }
    assert_eq!(got, RANDOM, "coloring moved: {got:#018x?}");
}

/// Expected digest per k over every component of the 10^4 seed-123 scale
/// trace.
const SCALE: [u64; 2] = [0x4b768f62e01255e2, 0x15400bd12f64e6bd];

#[test]
fn scale_components_color_identically() {
    let spec = ScaleSpec {
        values: 10_000,
        edges: 40_000,
        cliques: 8,
        clique_size: 10,
        components: 8,
        modules: 8,
    };
    let g = ConflictGraph::build(&scale_trace(&spec, 123));
    let comps: Vec<ConflictGraph> = g
        .connected_components()
        .iter()
        .map(|c| g.induced(c))
        .collect();
    assert_eq!(comps.len(), 8);
    let mut got = Vec::new();
    for k in [4, 8] {
        let mut h = Fnv1a::new();
        for c in &comps {
            feed(&mut h, &color(c, k, Fixed::None));
        }
        got.push(h.finish());
    }
    assert_eq!(got, SCALE, "coloring moved: {got:#018x?}");
}

#[test]
fn filtered_build_is_pinned() {
    let mut got = Vec::new();
    for seed in 0..4 {
        let t = random_case(8, seed);
        let g = ConflictGraph::build_filtered(&t, |v| v.0 % 3 != 1);
        for v in 0..g.len() as u32 {
            assert_eq!(g.vertex_of(g.value(v)), Some(v));
            assert_ne!(g.value(v).0 % 3, 1);
        }
        got.push(g.digest());
    }
    assert_eq!(
        got,
        [
            0x2818686c9277e1b0,
            0xa3f508f803ca3283,
            0x3d89bfb9c27772df,
            0xe5bd31a1f6c8c865,
        ],
        "filtered build moved: {got:#018x?}"
    );
}

#[test]
fn sparse_id_build_is_pinned() {
    let mut got = Vec::new();
    for seed in 0..4 {
        let dense = random_case(8, seed);
        let sparse = AccessTrace::new(
            dense.modules,
            dense
                .instructions
                .iter()
                .map(|i| OperandSet::new(i.iter().map(|v| ValueId(v.0 * 37 + 5)).collect()))
                .collect(),
        );
        let g = ConflictGraph::build(&sparse);
        let d = ConflictGraph::build(&dense);
        assert_eq!(g.len(), d.len());
        assert_eq!(g.edge_count(), d.edge_count());
        for v in 0..g.len() as u32 {
            assert_eq!(g.value(v).0, d.value(v).0 * 37 + 5);
            assert_eq!(g.vertex_of(g.value(v)), Some(v));
        }
        assert_eq!(g.vertex_of(ValueId(6)), None);
        got.push(g.digest());
    }
    assert_eq!(
        got,
        [
            0x74dcf5b15b096c8e,
            0xd259b7893f758496,
            0x4a9f3c9310aeaf5e,
            0x1c4e666428fc7522,
        ],
        "sparse-id build moved: {got:#018x?}"
    );
}

/// Compare two urgencies `num / k_avail` (`k_avail == 0` is infinite),
/// breaking ties by the larger initial weight sum `s`, then the lower
/// vertex.
fn urgency_cmp(a: (u64, u32, u64, u32), b: (u64, u32, u64, u32)) -> Ordering {
    let frac = match (a.1, b.1) {
        (0, 0) => Ordering::Equal,
        (0, _) => Ordering::Greater,
        (_, 0) => Ordering::Less,
        (ka, kb) => (u128::from(a.0) * u128::from(kb)).cmp(&(u128::from(b.0) * u128::from(ka))),
    };
    frac.then(a.2.cmp(&b.2)).then(b.3.cmp(&a.3))
}

/// Fig. 4 with no heap: every step scans all uncolored vertices for the
/// most urgent one.
fn reference_coloring(g: &ConflictGraph, k: usize, fixed: impl Fn(u32) -> ModuleSet) -> Coloring {
    let n = g.len();
    let all = ModuleSet::all(k);
    let heavy = |v: u32| g.degree(v) >= k;
    let s: Vec<u64> = (0..n as u32)
        .map(|v| {
            if heavy(v) {
                g.neighbors_with_conf(v).map(|(_, c)| u64::from(c)).sum()
            } else {
                0
            }
        })
        .collect();
    let fixed_sets: Vec<ModuleSet> = (0..n as u32).map(&fixed).collect();
    let mut forbidden = vec![ModuleSet::EMPTY; n];
    let mut num = vec![0u64; n];
    let mut done: Vec<bool> = fixed_sets.iter().map(|f| !f.is_empty()).collect();
    for v in 0..n as u32 {
        let fs = fixed_sets[v as usize];
        if fs.is_empty() {
            continue;
        }
        let single = fs.len() == 1;
        for (j, c) in g.neighbors_with_conf(v) {
            if !fixed_sets[j as usize].is_empty() {
                continue;
            }
            if single {
                forbidden[j as usize].insert(fs.first().unwrap());
            }
            if heavy(v) {
                num[j as usize] += u64::from(c);
            }
        }
    }
    let mut out = Coloring::default();
    loop {
        let key = |v: u32| {
            let k_avail = (k - forbidden[v as usize].intersection(all).len()) as u32;
            (num[v as usize], k_avail, s[v as usize], v)
        };
        let Some(v) = (0..n as u32)
            .filter(|&v| !done[v as usize])
            .max_by(|&a, &b| urgency_cmp(key(a), key(b)))
        else {
            break;
        };
        done[v as usize] = true;
        out.order.push(v);
        let Some(m) = all.difference(forbidden[v as usize]).first() else {
            out.unassigned.push(v);
            continue;
        };
        out.assigned.push((v, m));
        for (j, c) in g.neighbors_with_conf(v) {
            if !done[j as usize] {
                forbidden[j as usize].insert(m);
                if heavy(v) {
                    num[j as usize] += u64::from(c);
                }
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// The heap-driven coloring processes, colors and drops exactly what
    /// the quadratic rescan does, for every fixed-set shape.
    #[test]
    fn coloring_matches_quadratic_reference(
        k in 2usize..=8,
        values in 4usize..=80,
        instructions in 1usize..=240,
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
        let g = ConflictGraph::build(&random_trace(&spec, seed));
        for fixed in FIXED {
            let got = color(&g, k, fixed);
            let want = reference_coloring(&g, k, |v| fixed.set(v, k));
            prop_assert_eq!(&got.order, &want.order, "{:?}", fixed);
            prop_assert_eq!(&got.assigned, &want.assigned, "{:?}", fixed);
            prop_assert_eq!(&got.unassigned, &want.unassigned, "{:?}", fixed);
        }
    }
}

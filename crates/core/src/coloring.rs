//! The weighted-urgency graph-coloring heuristic of paper Fig. 4.
//!
//! Colors are memory modules. Edge weights: an edge *leaving* a node of
//! degree `< k` weighs 0 (such a node can always be colored last), otherwise
//! `wt(u→v) = conf(u,v)`. The first node colored is the one with the largest
//! outgoing weight sum `S`. Thereafter the uncolored node with the highest
//! *urgency* is processed, where
//!
//! ```text
//! U(j) = Σ_{colored neighbors u} wt(u→j)  /  K(j)
//! ```
//!
//! and `K(j)` is the number of modules still usable for `j`. A node with
//! `K = 0` has infinite urgency and is moved to `V_unassigned` — it will be
//! resolved later by duplication + placement.
//!
//! The implementation keeps one entry per uncolored node in an indexed
//! binary max-heap. An entry is a single `u128` key: the urgency, encoded
//! exactly as an integer, above a static tie rank (see [`urgency_key`]), so
//! a heap comparison is one integer compare. Urgency never decreases — the
//! numerator only grows and `K` only shrinks — so coloring a node rewrites
//! each affected neighbor's key in place and sifts it up, skipping updates
//! that change nothing. That gives the `O((n+e)·log n)` bound within the
//! paper's `O((n+e)·log(n+e))`, with a heap of at most `n` entries.

use crate::graph::ConflictGraph;
use crate::types::{ModuleId, ModuleSet, MAX_MODULES};

/// Outcome of coloring one graph (usually one atom).
#[derive(Clone, Debug, Default)]
pub struct Coloring {
    /// `(dense vertex, module)` for every node successfully colored.
    pub assigned: Vec<(u32, ModuleId)>,
    /// Dense vertices that could not be colored (`V_unassigned`).
    pub unassigned: Vec<u32>,
    /// The order in which nodes were processed (colored or removed) — useful
    /// for reproducing the paper's Fig. 5 walkthrough.
    pub order: Vec<u32>,
}

/// Key fraction of a node with infinite urgency (`K = 0`), above every
/// finite fraction: those stay below 2^76.
const INFINITE: u128 = (1 << 77) - 1;

/// `RECIPROCAL[K] = ⌈2^82 / K⌉` for `K` in `1..=64`, as (high, low)
/// 64-bit words.
const RECIPROCAL: [(u64, u64); MAX_MODULES + 1] = {
    let mut table = [(0, 0); MAX_MODULES + 1];
    let mut k = 1;
    while k <= MAX_MODULES {
        let c = (1u128 << 82).div_ceil(k as u128);
        table[k] = ((c >> 64) as u64, c as u64);
        k += 1;
    }
    table
};

/// The urgency `num / k_avail` and a node's static tie rank packed into one
/// integer whose order is Fig. 4's processing order: a higher key is more
/// urgent.
///
/// The key is `frac << 32 | rank` with `frac = ⌊num·4096 / K⌋` for
/// `K = k_avail ≥ 1` and [`INFINITE`] for `K = 0`.
///
/// *The fraction keeps the order of urgencies exactly.* `K ≤ 64`, so two
/// different urgencies `a/K` and `b/L` differ by `|aL − bK| / KL`: at least
/// `1/64` when `K = L` and at least `1/(64·63) = 1/4032` otherwise. Scaled
/// by 4096 they differ by more than 1, so their floors keep the strict
/// order; equal urgencies scale to equal values and equal floors.
/// `num < 2^64` keeps `frac` below 2^76, so the key fits in 109 bits.
///
/// *The fraction is computed without division.* With `C = ⌈2^82/K⌉ =
/// 2^82/K + δ`, `0 ≤ δ < 1`, the product `num·C / 2^70` is `num·4096/K + ε`
/// with `ε = num·δ / 2^70 < 2^64 / 2^70 = 1/64`. The fractional part of
/// `num·4096/K` is a multiple of `1/K` below 1, so at most `1 − 1/64`, and
/// adding `ε` never carries into the integer part: `⌊num·C / 2^70⌋` is
/// exactly `⌊num·4096/K⌋`. `C < 2^83` is split into 64-bit words, and the
/// two partial products fit in `u128`.
///
/// `rank` breaks ties between equal urgencies: it orders nodes by initial
/// weight sum `S` ascending, then vertex descending, so the larger `S`, then
/// the lower vertex, is more urgent.
#[inline]
fn urgency_key(num: u64, k_avail: usize, rank: u32) -> u128 {
    let frac = if k_avail == 0 {
        INFINITE
    } else {
        let (hi, lo) = RECIPROCAL[k_avail];
        let low = u128::from(num) * u128::from(lo);
        let high = u128::from(num) * u128::from(hi);
        (high + (low >> 64)) >> 6
    };
    frac << 32 | u128::from(rank)
}

/// Binary max-heap of urgency keys, at most one per node, with a position
/// table indexed by the key's rank so a node's entry can be found and
/// raised in place.
struct UrgencyHeap {
    heap: Vec<u128>,
    /// Rank -> index in `heap`, or [`UrgencyHeap::ABSENT`].
    pos: Vec<u32>,
}

impl UrgencyHeap {
    const ABSENT: u32 = u32::MAX;

    /// Heapify `keys` (distinct ranks below `n`).
    fn new(n: usize, keys: Vec<u128>) -> UrgencyHeap {
        let mut h = UrgencyHeap {
            heap: keys,
            pos: vec![Self::ABSENT; n],
        };
        for (i, &key) in h.heap.iter().enumerate() {
            h.pos[key as u32 as usize] = i as u32;
        }
        for i in (0..h.heap.len() / 2).rev() {
            h.sift_down(i);
        }
        h
    }

    /// True while the node of `rank` has an entry.
    fn contains(&self, rank: u32) -> bool {
        self.pos[rank as usize] != Self::ABSENT
    }

    /// Remove and return the most urgent key.
    fn pop(&mut self) -> Option<u128> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty");
        self.pos[top as u32 as usize] = Self::ABSENT;
        if !self.heap.is_empty() {
            self.place(0, last);
            self.sift_down(0);
        }
        Some(top)
    }

    /// Overwrite the entry of `key`'s rank, which must be present, with
    /// `key`, which must be at least as urgent.
    fn raise(&mut self, key: u128) {
        let i = self.pos[key as u32 as usize] as usize;
        debug_assert!(key >= self.heap[i], "urgency never decreases");
        self.heap[i] = key;
        self.sift_up(i);
    }

    #[inline]
    fn place(&mut self, i: usize, key: u128) {
        self.heap[i] = key;
        self.pos[key as u32 as usize] = i as u32;
    }

    fn sift_up(&mut self, mut i: usize) {
        let key = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent] >= key {
                break;
            }
            self.place(i, self.heap[parent]);
            i = parent;
        }
        self.place(i, key);
    }

    fn sift_down(&mut self, mut i: usize) {
        let key = self.heap[i];
        let n = self.heap.len();
        loop {
            let mut child = 2 * i + 1;
            if child >= n {
                break;
            }
            // Branch-free pick of the larger child: the comparison is a
            // coin flip the predictor cannot learn.
            if child + 1 < n {
                child += usize::from(self.heap[child + 1] > self.heap[child]);
            }
            if key >= self.heap[child] {
                break;
            }
            self.place(i, self.heap[child]);
            i = child;
        }
        self.place(i, key);
    }
}

/// Color `g` with `k` modules using the Fig. 4 heuristic. Where the paper
/// gives a node "one of the available modules", it takes the
/// lowest-numbered one.
///
/// `fixed(v)` reports pre-existing copies of vertex `v` (e.g. the clique
/// separator shared with an already-colored atom, or values placed by an
/// earlier STOR2/STOR3 stage). Vertices with a non-empty fixed set are not
/// re-colored; fixed *single-copy* neighbors forbid their module (a
/// multi-copy neighbor can always dodge pairwise, so it constrains nothing
/// at this stage).
pub fn color_graph(g: &ConflictGraph, k: usize, fixed: impl FnMut(u32) -> ModuleSet) -> Coloring {
    let fixed_sets: Vec<ModuleSet> = (0..g.len() as u32).map(fixed).collect();
    color_with_fixed_sets(g, k, &fixed_sets)
}

/// [`color_graph`] with the fixed sets resolved, `fixed_sets[v]` for every
/// vertex.
fn color_with_fixed_sets(g: &ConflictGraph, k: usize, fixed_sets: &[ModuleSet]) -> Coloring {
    let n = g.len();
    let all_modules = ModuleSet::all(k);
    let mut out = Coloring::default();
    if n == 0 {
        return out;
    }

    let is_fixed = |v: u32| !fixed_sets[v as usize].is_empty();

    // wt(u→v) is 0 if d(u) < k, else conf(u,v); since every use scans one
    // vertex's whole neighborhood, we hoist the degree test and read the
    // conf weights straight out of the CSR row instead of probing per edge.
    let heavy = |u: u32| g.degree(u) >= k;

    // Static tie rank: position in (S ascending, vertex descending) order,
    // where S_v = Σ outgoing weights (the initial pick and tie-breaks).
    // Nodes with S = 0 come first, already in order; only the others sort.
    let by_rank: Vec<u32> = {
        let s: Vec<u64> = (0..n as u32)
            .map(|v| {
                if heavy(v) {
                    g.neighbors_with_conf(v).map(|(_, c)| c as u64).sum()
                } else {
                    0
                }
            })
            .collect();
        let mut order: Vec<u32> = (0..n as u32)
            .rev()
            .filter(|&v| s[v as usize] == 0)
            .collect();
        let mut weighted: Vec<u128> = (0..n as u32)
            .filter(|&v| s[v as usize] != 0)
            .map(|v| u128::from(s[v as usize]) << 32 | u128::from(!v))
            .collect();
        weighted.sort_unstable();
        order.extend(weighted.iter().map(|&key| !(key as u32)));
        order
    };
    let mut rank = vec![0u32; n];
    for (r, &v) in by_rank.iter().enumerate() {
        rank[v as usize] = r as u32;
    }

    // Per-vertex state.
    let mut forbidden = vec![ModuleSet::EMPTY; n];
    let mut urg_num = vec![0u64; n];

    // Seed constraints from fixed vertices.
    for v in 0..n as u32 {
        let fs = fixed_sets[v as usize];
        if fs.is_empty() {
            continue;
        }
        if fs.len() == 1 {
            let m = fs.first().unwrap();
            let w = heavy(v);
            for (j, c) in g.neighbors_with_conf(v) {
                if !is_fixed(j) {
                    forbidden[j as usize].insert(m);
                    if w {
                        urg_num[j as usize] += c as u64;
                    }
                }
            }
        } else {
            // Multi-copy fixed neighbor: contributes urgency weight but does
            // not forbid a specific module.
            let w = heavy(v);
            for (j, c) in g.neighbors_with_conf(v) {
                if !is_fixed(j) && w {
                    urg_num[j as usize] += c as u64;
                }
            }
        }
    }

    let key = |num: u64, forbidden: ModuleSet, rank: u32| {
        urgency_key(num, k - forbidden.intersection(all_modules).len(), rank)
    };
    let mut raises = 0u64;
    let mut heap = UrgencyHeap::new(
        n,
        (0..n)
            .filter(|&v| !is_fixed(v as u32))
            .map(|v| key(urg_num[v], forbidden[v], rank[v]))
            .collect(),
    );

    while let Some(top) = heap.pop() {
        let v = by_rank[top as u32 as usize];
        out.order.push(v);

        match all_modules.difference(forbidden[v as usize]).first() {
            None => out.unassigned.push(v),
            Some(m) => {
                out.assigned.push((v, m));
                // Update uncolored neighbors.
                let w = heavy(v);
                for (j, c) in g.neighbors_with_conf(v) {
                    let r = rank[j as usize];
                    if !heap.contains(r) {
                        continue;
                    }
                    let add = if w { c as u64 } else { 0 };
                    let forb_j = &mut forbidden[j as usize];
                    if add == 0 && forb_j.contains(m) {
                        continue;
                    }
                    forb_j.insert(m);
                    urg_num[j as usize] += add;
                    raises += 1;
                    heap.raise(key(urg_num[j as usize], *forb_j, r));
                }
            }
        }
    }

    parmem_obs::counter_add("assign.urgency_picks", out.order.len() as u64);
    parmem_obs::counter_add("assign.urgency_raises", raises);
    parmem_obs::counter_add("assign.uncolorable_picks", out.unassigned.len() as u64);
    out
}

/// Validate a coloring: no two *colored* adjacent vertices share a module.
/// (Unassigned vertices are exempt — duplication handles them.)
pub fn coloring_is_valid(g: &ConflictGraph, coloring: &Coloring) -> bool {
    let mut color: Vec<Option<ModuleId>> = vec![None; g.len()];
    for &(v, m) in &coloring.assigned {
        color[v as usize] = Some(m);
    }
    for (u, v, _) in g.edges() {
        if let (Some(a), Some(b)) = (color[u as usize], color[v as usize]) {
            if a == b {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::AccessTrace;

    fn no_fixed(_: u32) -> ModuleSet {
        ModuleSet::EMPTY
    }

    /// Paper Fig. 1: k=3, instructions {V1 V2 V4} {V2 V3 V5} {V2 V3 V4}.
    /// A conflict-free single-copy assignment exists; the heuristic must
    /// color everything.
    #[test]
    fn fig1_fully_colorable() {
        let t = AccessTrace::from_lists(3, &[&[1, 2, 4], &[2, 3, 5], &[2, 3, 4]]);
        let g = ConflictGraph::build(&t);
        let c = color_graph(&g, 3, no_fixed);
        assert!(c.unassigned.is_empty(), "unassigned: {:?}", c.unassigned);
        assert_eq!(c.assigned.len(), 5);
        assert!(coloring_is_valid(&g, &c));
    }

    /// Paper Fig. 5: k=3, the example where V5 is removed by the heuristic.
    /// Instructions chosen to produce the paper's graph: pairwise conflicts
    /// forming K5 minus some edges — we reuse the Fig. 3 instruction list
    /// which the paper's Fig. 5 illustration is drawn from.
    #[test]
    fn fig3_removes_nodes_when_k3_insufficient() {
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
        let g = ConflictGraph::build(&t);
        // This graph is K5 (every pair co-occurs): not 3-colorable.
        assert_eq!(g.edge_count(), 10);
        let c = color_graph(&g, 3, no_fixed);
        assert!(!c.unassigned.is_empty());
        // A K5 needs 5 colors; with 3 colors exactly 2 nodes must be removed.
        assert_eq!(c.unassigned.len(), 2, "unassigned: {:?}", c.unassigned);
        assert!(coloring_is_valid(&g, &c));
    }

    #[test]
    fn triangle_with_two_colors_drops_one() {
        let g = ConflictGraph::from_edges(3, &[(0, 1, 1), (1, 2, 1), (0, 2, 1)]);
        let c = color_graph(&g, 2, no_fixed);
        assert_eq!(c.assigned.len(), 2);
        assert_eq!(c.unassigned.len(), 1);
        assert!(coloring_is_valid(&g, &c));
    }

    #[test]
    fn fixed_single_copy_forbids_module() {
        // Edge 0-1; vertex 0 fixed in M0 → vertex 1 must avoid M0.
        let g = ConflictGraph::from_edges(2, &[(0, 1, 1)]);
        let c = color_graph(&g, 2, |v| {
            if v == 0 {
                ModuleSet::singleton(ModuleId(0))
            } else {
                ModuleSet::EMPTY
            }
        });
        assert_eq!(c.assigned, vec![(1, ModuleId(1))]);
        assert!(c.unassigned.is_empty());
    }

    #[test]
    fn fixed_multi_copy_does_not_forbid() {
        // Vertex 0 fixed with copies in both modules; vertex 1 may use M0.
        let g = ConflictGraph::from_edges(2, &[(0, 1, 1)]);
        let c = color_graph(&g, 2, |v| {
            if v == 0 {
                ModuleSet::all(2)
            } else {
                ModuleSet::EMPTY
            }
        });
        assert_eq!(c.assigned, vec![(1, ModuleId(0))]);
    }

    #[test]
    fn fixed_vertices_saturating_all_modules_force_removal() {
        // Triangle; vertices 0,1 fixed in M0,M1; k=2 → vertex 2 unassignable.
        let g = ConflictGraph::from_edges(3, &[(0, 1, 1), (1, 2, 1), (0, 2, 1)]);
        let c = color_graph(&g, 2, |v| match v {
            0 => ModuleSet::singleton(ModuleId(0)),
            1 => ModuleSet::singleton(ModuleId(1)),
            _ => ModuleSet::EMPTY,
        });
        assert!(c.assigned.is_empty());
        assert_eq!(c.unassigned, vec![2]);
    }

    #[test]
    fn empty_graph_colors_trivially() {
        let g = ConflictGraph::from_edges(0, &[]);
        let c = color_graph(&g, 3, no_fixed);
        assert!(c.assigned.is_empty());
        assert!(c.unassigned.is_empty());
    }

    #[test]
    fn low_degree_nodes_never_removed() {
        // Paper: a node of degree < k can always be colored. Build a graph
        // where high-degree nodes exist; verify every removed node has
        // degree >= k.
        let t = AccessTrace::from_lists(
            3,
            &[
                &[1, 2, 3],
                &[1, 2, 4],
                &[1, 3, 4],
                &[2, 3, 4],
                &[1, 2, 5],
                &[3, 4, 5],
                &[2, 4, 5],
                &[1, 3, 5],
            ],
        );
        let g = ConflictGraph::build(&t);
        let c = color_graph(&g, 3, no_fixed);
        for &v in &c.unassigned {
            assert!(
                g.degree(v) >= 3,
                "removed node {v} has degree {} < k",
                g.degree(v)
            );
        }
        assert!(coloring_is_valid(&g, &c));
    }

    /// The multiply-and-shift fraction equals `⌊num·4096 / K⌋` computed by
    /// division, for every `K` and numerators up to `u64::MAX`.
    #[test]
    fn urgency_key_fraction_is_exact() {
        let mut nums = vec![0, 1, 63, 64, 4095, 4096, u64::MAX, u64::MAX - 1];
        for shift in [12, 32, 52, 58, 63] {
            let p = 1u64 << shift;
            nums.extend([p - 1, p, p + 1]);
        }
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..200 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            nums.push(x);
        }
        for k in 1..=MAX_MODULES {
            for &num in &nums {
                for n in [num, num.saturating_sub(k as u64 - 1)] {
                    let want = u128::from(n) * 4096 / k as u128;
                    assert_eq!(urgency_key(n, k, 7) >> 32, want, "num {n}, K {k}");
                }
            }
        }
        assert_eq!(urgency_key(0, 0, 7) >> 32, INFINITE);
        assert!(urgency_key(u64::MAX, 1, u32::MAX) < urgency_key(0, 0, 0));
    }

    #[test]
    fn processing_order_starts_with_max_weight_sum() {
        // K4 with one heavy edge; the endpoints of the heavy edge have the
        // largest S, so one of them is processed first.
        let g = ConflictGraph::from_edges(
            4,
            &[
                (0, 1, 10),
                (0, 2, 1),
                (0, 3, 1),
                (1, 2, 1),
                (1, 3, 1),
                (2, 3, 1),
            ],
        );
        let c = color_graph(&g, 4, no_fixed);
        assert!(c.order[0] == 0 || c.order[0] == 1, "order: {:?}", c.order);
    }
}

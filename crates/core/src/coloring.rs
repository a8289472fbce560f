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
//! binary max-heap. Urgency never decreases — the numerator only grows and
//! `K` only shrinks — so coloring a node rewrites each affected neighbor's
//! entry in place and sifts it up, skipping updates that change nothing.
//! That gives the `O((n+e)·log n)` bound within the paper's
//! `O((n+e)·log(n+e))`, with a heap of at most `n` entries.

use std::cmp::Ordering;

use crate::graph::ConflictGraph;
use crate::types::{ModuleId, ModuleSet};

/// How to pick among multiple still-available modules when coloring a node
/// (the paper leaves this choice open: "one of the available modules").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ModuleChoice {
    /// Always the lowest-numbered available module (deterministic; default).
    #[default]
    LowestIndex,
    /// The available module that currently holds the fewest colored values —
    /// spreads load, used in the ablation benchmarks.
    LeastUsed,
}

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

/// Urgency of an uncolored node as an exact rational `num / k_avail`, with
/// `k_avail == 0` meaning infinity. Ties broken by larger `s` (the initial
/// weight sum), then lower vertex id.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Urgency {
    num: u64,
    k_avail: u32,
    s: u64,
    vertex: u32,
}

impl Ord for Urgency {
    fn cmp(&self, other: &Self) -> Ordering {
        // Compare num_a/k_a vs num_b/k_b by cross-multiplication, treating
        // k == 0 as +infinity.
        let frac = match (self.k_avail, other.k_avail) {
            (0, 0) => Ordering::Equal,
            (0, _) => Ordering::Greater,
            (_, 0) => Ordering::Less,
            (ka, kb) => (self.num as u128 * kb as u128).cmp(&(other.num as u128 * ka as u128)),
        };
        frac.then_with(|| self.s.cmp(&other.s))
            .then_with(|| other.vertex.cmp(&self.vertex))
    }
}

impl PartialOrd for Urgency {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Binary max-heap of [`Urgency`] entries, at most one per vertex, with a
/// position table so a vertex's entry can be found and raised in place.
struct UrgencyHeap {
    heap: Vec<Urgency>,
    /// Vertex -> index in `heap`, or [`UrgencyHeap::ABSENT`].
    pos: Vec<u32>,
}

impl UrgencyHeap {
    const ABSENT: u32 = u32::MAX;

    /// Heapify `entries` (distinct vertices below `n`).
    fn new(n: usize, entries: Vec<Urgency>) -> UrgencyHeap {
        let mut h = UrgencyHeap {
            heap: entries,
            pos: vec![Self::ABSENT; n],
        };
        for (i, e) in h.heap.iter().enumerate() {
            h.pos[e.vertex as usize] = i as u32;
        }
        for i in (0..h.heap.len() / 2).rev() {
            h.sift_down(i);
        }
        h
    }

    /// True while `v` has an entry.
    fn contains(&self, v: u32) -> bool {
        self.pos[v as usize] != Self::ABSENT
    }

    /// Remove and return the most urgent entry.
    fn pop(&mut self) -> Option<Urgency> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty");
        self.pos[top.vertex as usize] = Self::ABSENT;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last.vertex as usize] = 0;
            self.sift_down(0);
        }
        Some(top)
    }

    /// Overwrite the entry of `u.vertex`, which must be present, with `u`,
    /// which must be at least as urgent.
    fn raise(&mut self, u: Urgency) {
        let i = self.pos[u.vertex as usize] as usize;
        debug_assert!(u >= self.heap[i], "urgency never decreases");
        self.heap[i] = u;
        self.sift_up(i);
    }

    fn place(&mut self, i: usize, e: Urgency) {
        self.heap[i] = e;
        self.pos[e.vertex as usize] = i as u32;
    }

    fn sift_up(&mut self, mut i: usize) {
        let e = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent] >= e {
                break;
            }
            self.place(i, self.heap[parent]);
            i = parent;
        }
        self.place(i, e);
    }

    fn sift_down(&mut self, mut i: usize) {
        let e = self.heap[i];
        let n = self.heap.len();
        loop {
            let mut child = 2 * i + 1;
            if child >= n {
                break;
            }
            if child + 1 < n && self.heap[child + 1] > self.heap[child] {
                child += 1;
            }
            if e >= self.heap[child] {
                break;
            }
            self.place(i, self.heap[child]);
            i = child;
        }
        self.place(i, e);
    }
}

/// Color `g` with `k` modules using the Fig. 4 heuristic.
///
/// `fixed(v)` reports pre-existing copies of vertex `v` (e.g. the clique
/// separator shared with an already-colored atom, or values placed by an
/// earlier STOR2/STOR3 stage). Vertices with a non-empty fixed set are not
/// re-colored; fixed *single-copy* neighbors forbid their module (a
/// multi-copy neighbor can always dodge pairwise, so it constrains nothing
/// at this stage).
pub fn color_graph(
    g: &ConflictGraph,
    k: usize,
    choice: ModuleChoice,
    mut fixed: impl FnMut(u32) -> ModuleSet,
) -> Coloring {
    let n = g.len();
    let all_modules = ModuleSet::all(k);
    let mut out = Coloring::default();
    if n == 0 {
        return out;
    }

    // Pre-resolve fixed sets.
    let fixed_sets: Vec<ModuleSet> = (0..n as u32).map(&mut fixed).collect();
    let is_fixed = |v: u32| !fixed_sets[v as usize].is_empty();

    // wt(u→v) is 0 if d(u) < k, else conf(u,v); since every use scans one
    // vertex's whole neighborhood, we hoist the degree test and read the
    // conf weights straight out of the CSR row instead of probing per edge.
    let heavy = |u: u32| g.degree(u) >= k;

    // S_v = Σ outgoing weights (used for the initial pick and tie-breaks).
    let s: Vec<u64> = (0..n as u32)
        .map(|v| {
            if heavy(v) {
                g.neighbors_with_conf(v).map(|(_, c)| c as u64).sum()
            } else {
                0
            }
        })
        .collect();

    // Per-vertex state.
    let mut forbidden = vec![ModuleSet::EMPTY; n];
    let mut urg_num = vec![0u64; n];
    let mut module_load = vec![0usize; k];

    // Seed constraints from fixed vertices.
    for v in 0..n as u32 {
        let fs = fixed_sets[v as usize];
        if fs.is_empty() {
            continue;
        }
        if fs.len() == 1 {
            let m = fs.first().unwrap();
            if m.index() < k {
                module_load[m.index()] += 1;
            }
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

    let urgency = |v: u32, num: u64, forbidden: ModuleSet| Urgency {
        num,
        k_avail: (k - forbidden.intersection(all_modules).len()) as u32,
        s: s[v as usize],
        vertex: v,
    };
    let mut heap = UrgencyHeap::new(
        n,
        (0..n as u32)
            .filter(|&v| !is_fixed(v))
            .map(|v| urgency(v, urg_num[v as usize], forbidden[v as usize]))
            .collect(),
    );

    while let Some(top) = heap.pop() {
        let v = top.vertex;
        out.order.push(v);

        let available = all_modules.difference(forbidden[v as usize]);
        let chosen = match choice {
            ModuleChoice::LowestIndex => available.first(),
            ModuleChoice::LeastUsed => available
                .iter()
                .min_by_key(|m| (module_load[m.index()], m.index())),
        };

        match chosen {
            None => out.unassigned.push(v),
            Some(m) => {
                module_load[m.index()] += 1;
                out.assigned.push((v, m));
                // Update uncolored neighbors.
                let w = heavy(v);
                for (j, c) in g.neighbors_with_conf(v) {
                    if !heap.contains(j) {
                        continue;
                    }
                    let add = if w { c as u64 } else { 0 };
                    let forb_j = &mut forbidden[j as usize];
                    if add == 0 && forb_j.contains(m) {
                        continue;
                    }
                    forb_j.insert(m);
                    urg_num[j as usize] += add;
                    heap.raise(urgency(j, urg_num[j as usize], *forb_j));
                }
            }
        }
    }

    parmem_obs::counter_add("assign.urgency_picks", out.order.len() as u64);
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
        let c = color_graph(&g, 3, ModuleChoice::LowestIndex, no_fixed);
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
        let c = color_graph(&g, 3, ModuleChoice::LowestIndex, no_fixed);
        assert!(!c.unassigned.is_empty());
        // A K5 needs 5 colors; with 3 colors exactly 2 nodes must be removed.
        assert_eq!(c.unassigned.len(), 2, "unassigned: {:?}", c.unassigned);
        assert!(coloring_is_valid(&g, &c));
    }

    #[test]
    fn triangle_with_two_colors_drops_one() {
        let g = ConflictGraph::from_edges(3, &[(0, 1, 1), (1, 2, 1), (0, 2, 1)]);
        let c = color_graph(&g, 2, ModuleChoice::LowestIndex, no_fixed);
        assert_eq!(c.assigned.len(), 2);
        assert_eq!(c.unassigned.len(), 1);
        assert!(coloring_is_valid(&g, &c));
    }

    #[test]
    fn fixed_single_copy_forbids_module() {
        // Edge 0-1; vertex 0 fixed in M0 → vertex 1 must avoid M0.
        let g = ConflictGraph::from_edges(2, &[(0, 1, 1)]);
        let c = color_graph(&g, 2, ModuleChoice::LowestIndex, |v| {
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
        let c = color_graph(&g, 2, ModuleChoice::LowestIndex, |v| {
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
        let c = color_graph(&g, 2, ModuleChoice::LowestIndex, |v| match v {
            0 => ModuleSet::singleton(ModuleId(0)),
            1 => ModuleSet::singleton(ModuleId(1)),
            _ => ModuleSet::EMPTY,
        });
        assert!(c.assigned.is_empty());
        assert_eq!(c.unassigned, vec![2]);
    }

    #[test]
    fn least_used_policy_spreads_load() {
        // Star: center 0 adjacent to 1..=4, k=4. Center colored first (max S);
        // leaves then avoid the center's module. LeastUsed should spread the
        // leaves over the remaining modules.
        let g = ConflictGraph::from_edges(5, &[(0, 1, 5), (0, 2, 5), (0, 3, 5), (0, 4, 5)]);
        let c = color_graph(&g, 4, ModuleChoice::LeastUsed, no_fixed);
        assert!(c.unassigned.is_empty());
        assert!(coloring_is_valid(&g, &c));
        let mut loads = [0; 4];
        for &(_, m) in &c.assigned {
            loads[m.index()] += 1;
        }
        assert!(loads.iter().all(|&l| l >= 1), "loads: {loads:?}");
    }

    #[test]
    fn empty_graph_colors_trivially() {
        let g = ConflictGraph::from_edges(0, &[]);
        let c = color_graph(&g, 3, ModuleChoice::LowestIndex, no_fixed);
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
        let c = color_graph(&g, 3, ModuleChoice::LowestIndex, no_fixed);
        for &v in &c.unassigned {
            assert!(
                g.degree(v) >= 3,
                "removed node {v} has degree {} < k",
                g.degree(v)
            );
        }
        assert!(coloring_is_valid(&g, &c));
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
        let c = color_graph(&g, 4, ModuleChoice::LowestIndex, no_fixed);
        assert!(c.order[0] == 0 || c.order[0] == 1, "order: {:?}", c.order);
    }
}

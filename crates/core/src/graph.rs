//! The *access conflict graph* (paper §2).
//!
//! Nodes are data values; an edge joins two values that appear as operands of
//! the same long instruction. Each edge carries `conf(u,v)`, the number of
//! instructions in which both endpoints occur — the weight source for the
//! coloring heuristic of Fig. 4.

use parmem_obs::digest::Fnv1a;

use crate::types::{AccessTrace, ValueId};

/// Access conflict graph over the distinct values of an [`AccessTrace`],
/// stored as an immutable compressed-sparse-row (CSR) structure.
///
/// Vertices are dense (`0..n`) with a mapping back to [`ValueId`]s, so the
/// coloring and decomposition algorithms can use flat arrays. The adjacency
/// of vertex `v` is the slice `neighbors[offsets[v] .. offsets[v+1]]`
/// (sorted ascending), with `conf_weights` parallel to `neighbors` — an
/// edge probe is a binary search of one flat slice (`O(log deg)`), a
/// neighborhood walk is one contiguous scan, and there is no per-edge hash
/// map anywhere in the representation.
#[derive(Clone, Debug)]
pub struct ConflictGraph {
    /// Dense vertex -> original value.
    values: Vec<ValueId>,
    /// Dense vertices ordered by their [`ValueId`]; value -> vertex lookup
    /// is a binary search through this permutation.
    by_value: Vec<u32>,
    /// CSR row starts: vertex `v`'s neighbors occupy
    /// `neighbors[offsets[v] as usize .. offsets[v + 1] as usize]`.
    /// Length `n + 1`.
    offsets: Vec<u32>,
    /// Concatenated adjacency, sorted ascending within each vertex's row;
    /// no self loops, no duplicates.
    neighbors: Vec<u32>,
    /// `conf(v, neighbors[i])`, parallel to `neighbors`.
    conf_weights: Vec<u32>,
    /// Total number of undirected edges.
    edges: usize,
}

impl ConflictGraph {
    /// Build the conflict graph of `trace`. Every pair of distinct values
    /// co-occurring in an instruction gets an edge; multiplicity is counted
    /// in `conf`.
    pub fn build(trace: &AccessTrace) -> ConflictGraph {
        Self::build_filtered(trace, |_| true)
    }

    /// Build the conflict graph considering only values for which `keep`
    /// returns true (used by the STOR2 global/local split, where each stage
    /// sees a projection of the instruction stream).
    ///
    /// Value ids are dense by contract, so the kept values are numbered
    /// through one flat table indexed by [`ValueId`]: `keep` is asked once
    /// per distinct value, and the dense ids follow ascending value order.
    pub fn build_filtered(
        trace: &AccessTrace,
        mut keep: impl FnMut(ValueId) -> bool,
    ) -> ConflictGraph {
        const UNSEEN: u32 = u32::MAX;
        const KEPT: u32 = 1;
        let mut dense = vec![UNSEEN; trace.value_table_len()];
        for v in trace.instructions.iter().flat_map(|i| i.iter()) {
            let slot = &mut dense[v.index()];
            if *slot == UNSEEN {
                *slot = u32::from(keep(v));
            }
        }
        let mut values: Vec<ValueId> = Vec::new();
        for (i, slot) in dense.iter_mut().enumerate() {
            *slot = if *slot == KEPT {
                values.push(ValueId(i as u32));
                values.len() as u32 - 1
            } else {
                UNSEEN
            };
        }

        // Operand sets are ascending and the table preserves value order, so
        // the dense ids of one instruction come out ascending: every
        // generated pair is already normalized to `a < b`. A pair packs into
        // one `u64` as `a << 32 | b`, whose order is the `(a, b)` order.
        let pair_bound = trace
            .instructions
            .iter()
            .map(|i| i.len() * i.len().saturating_sub(1) / 2)
            .sum();
        let mut pairs: Vec<u64> = Vec::with_capacity(pair_bound);
        let mut ops: Vec<u32> = Vec::new();
        for inst in &trace.instructions {
            ops.clear();
            ops.extend(
                inst.iter()
                    .map(|v| dense[v.index()])
                    .filter(|&d| d != UNSEEN),
            );
            for (i, &a) in ops.iter().enumerate() {
                pairs.extend(
                    ops[i + 1..]
                        .iter()
                        .map(|&b| u64::from(a) << 32 | u64::from(b)),
                );
            }
        }
        drop(dense);
        pairs.sort_unstable();
        let mut edge_list: Vec<(u32, u32, u32)> = Vec::new();
        for p in pairs {
            let (a, b) = ((p >> 32) as u32, p as u32);
            match edge_list.last_mut() {
                Some((la, lb, c)) if *la == a && *lb == b => *c += 1,
                _ => edge_list.push((a, b, 1)),
            }
        }

        Self::assemble(values, &edge_list)
    }

    /// Build directly from dense edge lists (used by tests, the synthetic
    /// generators, and the atom decomposition which works on subgraphs).
    pub fn from_edges(n: usize, edge_list: &[(u32, u32, u32)]) -> ConflictGraph {
        let values: Vec<ValueId> = (0..n as u32).map(ValueId).collect();
        // Normalize to `a < b` keeping the input position, so duplicate
        // mentions of one edge resolve deterministically (last `conf` wins,
        // matching map-insert semantics).
        let mut tmp: Vec<(u32, u32, u32, u32)> = edge_list
            .iter()
            .enumerate()
            .map(|(pos, &(a, b, c))| {
                assert!(a != b, "self loops are not allowed");
                let (a, b) = if a < b { (a, b) } else { (b, a) };
                (a, b, pos as u32, c)
            })
            .collect();
        tmp.sort_unstable();
        let mut dedup: Vec<(u32, u32, u32)> = Vec::with_capacity(tmp.len());
        for (a, b, _, c) in tmp {
            match dedup.last_mut() {
                Some((la, lb, lc)) if *la == a && *lb == b => *lc = c,
                _ => dedup.push((a, b, c)),
            }
        }
        Self::assemble(values, &dedup)
    }

    /// Build directly from an edge list that is already normalized — strictly
    /// ascending `(a, b)` pairs with `a < b`, no duplicates — over the dense
    /// vertices `0..n`. The synthetic scale generator emits exactly this
    /// shape; the result equals [`ConflictGraph::from_edges`] on the same
    /// list.
    pub fn from_sorted_edges(n: usize, edge_list: &[(u32, u32, u32)]) -> ConflictGraph {
        let values: Vec<ValueId> = (0..n as u32).map(ValueId).collect();
        Self::assemble(values, edge_list)
    }

    /// Assemble the CSR arrays from a normalized edge list: `a < b`, unique
    /// pairs, sorted ascending by `(a, b)`. One counting pass sizes the rows
    /// and one pass fills them. Rows come out ascending because, for a
    /// vertex `v`, the entries `(x, v)` with `x < v` all precede the entries
    /// `(v, y)` with `y > v` in the sorted list.
    fn assemble(values: Vec<ValueId>, edge_list: &[(u32, u32, u32)]) -> ConflictGraph {
        debug_assert!(edge_list
            .windows(2)
            .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
        debug_assert!(edge_list.iter().all(|&(a, b, _)| a < b));
        let n = values.len();
        let mut by_value: Vec<u32> = (0..n as u32).collect();
        by_value.sort_unstable_by_key(|&i| values[i as usize]);

        let mut offsets = vec![0u32; n + 1];
        for &(a, b, _) in edge_list {
            offsets[a as usize + 1] += 1;
            offsets[b as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let total = offsets[n] as usize;
        let mut neighbors = vec![0u32; total];
        let mut conf_weights = vec![0u32; total];
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        for &(a, b, c) in edge_list {
            for (v, w) in [(a, b), (b, a)] {
                let slot = &mut cursor[v as usize];
                neighbors[*slot as usize] = w;
                conf_weights[*slot as usize] = c;
                *slot += 1;
            }
        }

        ConflictGraph {
            values,
            by_value,
            offsets,
            neighbors,
            conf_weights,
            edges: edge_list.len(),
        }
    }

    /// Order-stable FNV-1a digest of the entire representation (values,
    /// offsets, adjacency, conf weights): two graphs digest equal exactly
    /// when their CSR arrays are identical. The differential scale tests and
    /// the bench harness use this to compare build paths without a full
    /// structural walk.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.word(self.values.len() as u64);
        for v in &self.values {
            h.word(v.0 as u64);
        }
        for &o in &self.offsets {
            h.word(o as u64);
        }
        for (&nb, &c) in self.neighbors.iter().zip(&self.conf_weights) {
            h.word(((nb as u64) << 32) | c as u64);
        }
        h.finish()
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// The value a dense vertex represents.
    pub fn value(&self, v: u32) -> ValueId {
        self.values[v as usize]
    }

    /// Dense vertex of a value, if the value occurs in the graph.
    pub fn vertex_of(&self, v: ValueId) -> Option<u32> {
        self.by_value
            .binary_search_by_key(&v, |&i| self.values[i as usize])
            .ok()
            .map(|pos| self.by_value[pos])
    }

    #[inline]
    fn row(&self, v: u32) -> std::ops::Range<usize> {
        self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize
    }

    /// Neighbors of a dense vertex, ascending.
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.neighbors[self.row(v)]
    }

    /// Neighbors of `v` paired with `conf(v, ·)`, ascending by neighbor —
    /// one contiguous scan, no per-edge probes.
    pub fn neighbors_with_conf(&self, v: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        let row = self.row(v);
        self.neighbors[row.clone()]
            .iter()
            .copied()
            .zip(self.conf_weights[row].iter().copied())
    }

    /// Degree of a dense vertex.
    pub fn degree(&self, v: u32) -> usize {
        self.row(v).len()
    }

    /// `conf(u, v)` — how many instructions use both endpoints (0 if no edge).
    pub fn conf(&self, u: u32, v: u32) -> u32 {
        // Probe `u`'s row directly: adjacency is symmetric, so either row
        // answers, and a data-dependent "pick the shorter row" test costs a
        // hard-to-predict branch per probe — more than the O(log deg)
        // search it could save on these short rows.
        let row = self.row(u);
        match self.neighbors[row.clone()].binary_search(&v) {
            Ok(i) => self.conf_weights[row.start + i],
            Err(_) => 0,
        }
    }

    /// Whether `u` and `v` are adjacent.
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.conf(u, v) > 0
    }

    /// Whether every pair of vertices in `set` is adjacent (i.e. `set`
    /// induces a clique). Used by the clique-separator decomposition.
    pub fn is_clique(&self, set: &[u32]) -> bool {
        for i in 0..set.len() {
            for j in (i + 1)..set.len() {
                if !self.has_edge(set[i], set[j]) {
                    return false;
                }
            }
        }
        true
    }

    /// Induced subgraph on `vertices` (dense vertex ids of `self`). The
    /// returned graph's vertex `i` corresponds to `vertices[i]`; its
    /// `value()` mapping is preserved from the parent.
    pub fn induced(&self, vertices: &[u32]) -> ConflictGraph {
        // Local-id lookup: a flat array when the subset is a sizable slice of
        // the graph, a hash map when it is tiny relative to `self` — carving
        // many small components out of a huge graph must cost the components'
        // total size, not O(n) scratch per component.
        let use_map = vertices.len().saturating_mul(16) < self.len();
        let mut flat = Vec::new();
        let mut map: std::collections::HashMap<u32, u32> = Default::default();
        if use_map {
            map.reserve(vertices.len());
            for (i, &v) in vertices.iter().enumerate() {
                map.insert(v, i as u32);
            }
        } else {
            flat = vec![u32::MAX; self.len()];
            for (i, &v) in vertices.iter().enumerate() {
                flat[v as usize] = i as u32;
            }
        }
        let local = |w: u32| -> u32 {
            if use_map {
                map.get(&w).copied().unwrap_or(u32::MAX)
            } else {
                flat[w as usize]
            }
        };
        let values: Vec<ValueId> = vertices.iter().map(|&v| self.value(v)).collect();
        let mut edge_list: Vec<(u32, u32, u32)> = Vec::new();
        for (i, &v) in vertices.iter().enumerate() {
            for (w, c) in self.neighbors_with_conf(v) {
                let j = local(w);
                if j != u32::MAX && (i as u32) < j {
                    edge_list.push((i as u32, j, c));
                }
            }
        }
        edge_list.sort_unstable();
        Self::assemble(values, &edge_list)
    }

    /// Iterate all edges as `(u, v, conf)` with `u < v`, ascending by
    /// `(u, v)` (a deterministic order, unlike the former hash-map walk).
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
        (0..self.len() as u32).flat_map(move |u| {
            self.neighbors_with_conf(u)
                .filter(move |&(v, _)| u < v)
                .map(move |(v, c)| (u, v, c))
        })
    }

    /// Connected components as lists of dense vertices (ascending within
    /// each component; components ordered by smallest vertex).
    pub fn connected_components(&self) -> Vec<Vec<u32>> {
        let n = self.len();
        let mut seen = vec![false; n];
        let mut comps = Vec::new();
        let mut stack = Vec::new();
        for s in 0..n as u32 {
            if seen[s as usize] {
                continue;
            }
            let mut comp = Vec::new();
            seen[s as usize] = true;
            stack.push(s);
            while let Some(v) = stack.pop() {
                comp.push(v);
                for &w in self.neighbors(v) {
                    if !seen[w as usize] {
                        seen[w as usize] = true;
                        stack.push(w);
                    }
                }
            }
            comp.sort_unstable();
            comps.push(comp);
        }
        comps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::AccessTrace;

    /// The Fig. 1 trace from the paper: instructions {V1 V2 V4}, {V2 V3 V5},
    /// {V2 V3 V4} with three modules.
    fn fig1() -> AccessTrace {
        AccessTrace::from_lists(3, &[&[1, 2, 4], &[2, 3, 5], &[2, 3, 4]])
    }

    #[test]
    fn builds_fig1_graph() {
        let g = ConflictGraph::build(&fig1());
        assert_eq!(g.len(), 5);
        // Edges: 1-2, 1-4, 2-4, 2-3, 2-5, 3-5, 3-4.
        assert_eq!(g.edge_count(), 7);
        let v2 = g.vertex_of(ValueId(2)).unwrap();
        let v3 = g.vertex_of(ValueId(3)).unwrap();
        let v1 = g.vertex_of(ValueId(1)).unwrap();
        let v5 = g.vertex_of(ValueId(5)).unwrap();
        // V2 and V3 co-occur twice.
        assert_eq!(g.conf(v2, v3), 2);
        assert_eq!(g.conf(v1, v2), 1);
        assert_eq!(g.conf(v1, v5), 0);
        assert!(!g.has_edge(v1, v5));
        assert_eq!(g.degree(v2), 4);
    }

    #[test]
    fn filtered_build_projects_values() {
        let t = fig1();
        // Keep only odd values: instructions project to {1}, {3,5}, {3}.
        let g = ConflictGraph::build_filtered(&t, |v| v.0 % 2 == 1);
        assert_eq!(g.len(), 3);
        assert_eq!(g.edge_count(), 1);
        let v3 = g.vertex_of(ValueId(3)).unwrap();
        let v5 = g.vertex_of(ValueId(5)).unwrap();
        assert_eq!(g.conf(v3, v5), 1);
    }

    #[test]
    fn clique_detection() {
        let g = ConflictGraph::from_edges(4, &[(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 1)]);
        let v = |i: u32| i;
        assert!(g.is_clique(&[v(0), v(1), v(2)]));
        assert!(!g.is_clique(&[v(0), v(1), v(3)]));
        assert!(g.is_clique(&[v(2), v(3)]));
        assert!(g.is_clique(&[v(0)]));
        assert!(g.is_clique(&[]));
    }

    #[test]
    fn induced_subgraph_preserves_values_and_conf() {
        let g = ConflictGraph::build(&fig1());
        let v2 = g.vertex_of(ValueId(2)).unwrap();
        let v3 = g.vertex_of(ValueId(3)).unwrap();
        let v5 = g.vertex_of(ValueId(5)).unwrap();
        let sub = g.induced(&[v2, v3, v5]);
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.edge_count(), 3);
        let s2 = sub.vertex_of(ValueId(2)).unwrap();
        let s3 = sub.vertex_of(ValueId(3)).unwrap();
        assert_eq!(sub.conf(s2, s3), 2);
        assert_eq!(sub.value(s2), ValueId(2));
    }

    #[test]
    fn connected_components_split() {
        let g = ConflictGraph::from_edges(5, &[(0, 1, 1), (2, 3, 1)]);
        let comps = g.connected_components();
        assert_eq!(comps, vec![vec![0, 1], vec![2, 3], vec![4]]);
    }

    #[test]
    fn from_edges_dedups() {
        let g = ConflictGraph::from_edges(3, &[(0, 1, 2), (1, 0, 2)]);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.conf(0, 1), 2);
    }

    #[test]
    fn edges_iterate_sorted_with_weights() {
        let g = ConflictGraph::build(&fig1());
        let mut es: Vec<(u32, u32, u32)> = g.edges().collect();
        let sorted = {
            let mut s = es.clone();
            s.sort_unstable();
            s
        };
        assert_eq!(es, sorted, "edges() must come out pre-sorted");
        assert_eq!(es.len(), g.edge_count());
        es.retain(|&(u, v, _)| !g.has_edge(u, v));
        assert!(es.is_empty());
    }

    #[test]
    fn neighbors_with_conf_matches_probes() {
        let g = ConflictGraph::build(&fig1());
        for v in 0..g.len() as u32 {
            let pairs: Vec<(u32, u32)> = g.neighbors_with_conf(v).collect();
            assert_eq!(pairs.len(), g.degree(v));
            for (u, c) in pairs {
                assert_eq!(g.conf(v, u), c);
                assert_eq!(g.conf(u, v), c);
            }
        }
    }

    #[test]
    fn from_sorted_edges_matches_from_edges() {
        let n = 400usize;
        let mut edges: Vec<(u32, u32, u32)> = Vec::new();
        for a in 0..n as u32 {
            for off in 1..=3u32 {
                let b = a + off * 7;
                if (b as usize) < n {
                    edges.push((a, b, 1 + (a + b) % 4));
                }
            }
        }
        edges.sort_unstable();
        let reference = ConflictGraph::from_edges(n, &edges);
        let fast = ConflictGraph::from_sorted_edges(n, &edges);
        assert_eq!(fast.digest(), reference.digest());
    }

    #[test]
    fn digest_distinguishes_graphs() {
        let a = ConflictGraph::from_edges(3, &[(0, 1, 1)]);
        let b = ConflictGraph::from_edges(3, &[(0, 1, 2)]);
        let c = ConflictGraph::from_edges(3, &[(0, 2, 1)]);
        assert_ne!(a.digest(), b.digest(), "conf weight must show");
        assert_ne!(a.digest(), c.digest(), "edge identity must show");
        assert_eq!(
            a.digest(),
            ConflictGraph::from_edges(3, &[(0, 1, 1)]).digest()
        );
    }

    #[test]
    fn induced_with_unsorted_vertex_order_keeps_lookup() {
        let g = ConflictGraph::build(&fig1());
        let v2 = g.vertex_of(ValueId(2)).unwrap();
        let v3 = g.vertex_of(ValueId(3)).unwrap();
        let v5 = g.vertex_of(ValueId(5)).unwrap();
        // Vertex order deliberately not ascending by value.
        let sub = g.induced(&[v5, v2, v3]);
        assert_eq!(sub.value(0), ValueId(5));
        assert_eq!(sub.vertex_of(ValueId(5)), Some(0));
        assert_eq!(sub.vertex_of(ValueId(2)), Some(1));
        assert_eq!(sub.conf(1, 2), 2);
    }
}

//! Decomposition of the conflict graph into *atoms* by clique separators
//! (paper §2.1, citing Tarjan, "Decomposition by clique separators", 1985).
//!
//! An atom is an induced subgraph with no clique separator. Tarjan's theorem:
//! if each atom is k-colorable then the whole graph is k-colorable, because
//! atoms overlap only in cliques whose colorings can be permuted into
//! agreement. The coloring heuristic therefore runs per atom.
//!
//! Implementation: MCS-M (Berry, Blair, Heggernes & Peyton 2004) computes a
//! *minimal elimination ordering*; the decomposition then follows the
//! standard algorithm (Leimer 1993 / Berry, Pogorelcnik & Simonet 2010):
//! scan vertices in elimination order, and whenever the vertex's
//! higher-numbered neighborhood in the *filled* graph is a clique in the
//! original graph, it is a clique (minimal) separator that splits off an atom.
//!
//! Each MCS-M step numbers a vertex `v` and finds S(v), the unnumbered
//! vertices that some path from `v` reaches through strictly lighter
//! unnumbered vertices, with a bucket queue over weight levels. A vertex's
//! higher-numbered filled neighborhood is exactly the set of `v` whose S
//! held it (original neighbors always join S, and every fill edge comes from
//! S), so the scan reads those sets as MCS-M records them and never builds
//! the fill.

use crate::graph::ConflictGraph;

/// Result of MCS-M: a minimal elimination ordering plus the fill edges that
/// make the graph chordal.
#[derive(Clone, Debug)]
pub struct MinimalOrdering {
    /// `order[i]` is the vertex eliminated at position `i` (0-based).
    pub order: Vec<u32>,
    /// `position[v]` is the index of `v` in `order`.
    pub position: Vec<usize>,
    /// Fill edges `(u, v)` added by the minimal triangulation.
    pub fill: Vec<(u32, u32)>,
}

/// Run MCS-M on `g`, producing a minimal elimination ordering and fill.
///
/// At each step the unnumbered vertex with the largest weight is numbered
/// (ties broken by lowest vertex id for determinism), and every unnumbered
/// vertex reachable through strictly-smaller-weight unnumbered intermediates
/// has its weight incremented; non-edges among those pairs become fill.
pub fn mcs_m(g: &ConflictGraph) -> MinimalOrdering {
    let mut fill = Vec::new();
    let order = number(g, |v, _, filled| {
        fill.extend(filled.iter().map(|&u| (u.min(v), u.max(v))));
    });
    fill.sort_unstable();
    let mut position = vec![0usize; order.len()];
    for (i, &v) in order.iter().enumerate() {
        position[v as usize] = i;
    }
    MinimalOrdering {
        order,
        position,
        fill,
    }
}

/// The MCS-M core: numbers every vertex of `g` from position `n - 1` down
/// to `0` and returns the elimination order. As it numbers `v` it calls
/// `step(v, adjacent, filled)`, where `adjacent` and `filled` split S(v)
/// into `v`'s unnumbered neighbors and the vertices that gain a fill edge to
/// `v`.
///
/// The search from `v` is a monotone bucket queue. A path's cost is the
/// largest weight among its intermediate vertices, so a vertex first reached
/// while level `j` is swept has least cost `j`, joins S iff its weight
/// exceeds `j`, and is passed through at level `max(j, weight)`. The sweep
/// stops once no unreached vertex outweighs the current level, since none
/// could join S after that. Numbered vertices are swap-removed from a working
/// copy of the adjacency, so searches walk unnumbered vertices only.
fn number(g: &ConflictGraph, mut step: impl FnMut(u32, &[u32], &[u32])) -> Vec<u32> {
    let n = g.len();
    let mut live = LiveAdjacency::new(g);
    let mut weight = vec![0u32; n];
    let mut numbered = vec![false; n];
    let mut order = vec![0u32; n];
    // `unreached[w]`: unnumbered vertices of weight `w` the current search
    // has not reached (between searches, every unnumbered vertex).
    let mut unreached = vec![0usize; n + 1];
    unreached[0] = n;
    let mut bucket: Vec<Vec<u32>> = vec![Vec::new(); n];
    // `reached[x] == i` marks `x` as reached by the search of step `i`.
    let mut reached = vec![usize::MAX; n];
    let mut touched: Vec<u32> = Vec::new();
    let mut s: Vec<u32> = Vec::new();

    for i in (0..n).rev() {
        // Pick unnumbered vertex of maximum weight, lowest id on ties.
        let v = (0..n as u32)
            .filter(|&x| !numbered[x as usize])
            .max_by_key(|&x| (weight[x as usize], std::cmp::Reverse(x)))
            .expect("an unnumbered vertex must remain");
        order[i] = v;
        numbered[v as usize] = true;
        unreached[weight[v as usize] as usize] -= 1;
        live.remove(v);

        // Unreached vertices heavier than the level being swept; every one
        // of the `i` unnumbered vertices outweighs the start level -1.
        let mut above = i;
        let mut top = 0usize;
        for &u in live.neighbors(v) {
            let w = weight[u as usize] as usize;
            reached[u as usize] = i;
            touched.push(u);
            s.push(u);
            unreached[w] -= 1;
            above -= 1;
            bucket[w].push(u);
            top = top.max(w);
        }
        let adjacent = s.len();
        let mut level = 0usize;
        above -= unreached[0];
        'sweep: while level <= top && above > 0 {
            while let Some(x) = bucket[level].pop() {
                for &z in live.neighbors(x) {
                    if reached[z as usize] == i {
                        continue;
                    }
                    reached[z as usize] = i;
                    touched.push(z);
                    let w = weight[z as usize] as usize;
                    unreached[w] -= 1;
                    if w > level {
                        s.push(z);
                        above -= 1;
                        bucket[w].push(z);
                        top = top.max(w);
                    } else {
                        bucket[level].push(z);
                    }
                }
                if above == 0 {
                    break 'sweep;
                }
            }
            level += 1;
            above -= unreached[level];
        }
        for b in bucket.iter_mut().take(top + 1).skip(level) {
            b.clear();
        }

        for &x in &touched {
            unreached[weight[x as usize] as usize] += 1;
        }
        for &u in &s {
            let w = &mut weight[u as usize];
            unreached[*w as usize] -= 1;
            *w += 1;
            unreached[*w as usize] += 1;
        }
        step(v, &s[..adjacent], &s[adjacent..]);
        touched.clear();
        s.clear();
    }
    order
}

/// A working copy of a graph's adjacency from which vertices are deleted in
/// O(degree): each row keeps its live neighbors in a prefix, and `twin`
/// links every slot to the slot holding the same edge in the other row, so
/// deleting `v` swap-removes it from each neighbor's row directly.
struct LiveAdjacency {
    start: Vec<u32>,
    len: Vec<u32>,
    adj: Vec<u32>,
    twin: Vec<u32>,
}

impl LiveAdjacency {
    fn new(g: &ConflictGraph) -> LiveAdjacency {
        let n = g.len();
        let mut start = Vec::with_capacity(n);
        let mut len = Vec::with_capacity(n);
        let mut adj = Vec::new();
        for v in 0..n as u32 {
            start.push(adj.len() as u32);
            len.push(g.degree(v) as u32);
            adj.extend_from_slice(g.neighbors(v));
        }
        // Rows are ascending, so row `w`'s neighbors below `w` lead it in
        // the order the ascending walk over `u` meets them.
        let mut twin = vec![0u32; adj.len()];
        let mut below = vec![0u32; n];
        for u in 0..n {
            let row = start[u] as usize..(start[u] + len[u]) as usize;
            for slot in row {
                let w = adj[slot] as usize;
                if w > u {
                    let other = start[w] + below[w];
                    below[w] += 1;
                    twin[slot] = other;
                    twin[other as usize] = slot as u32;
                }
            }
        }
        LiveAdjacency {
            start,
            len,
            adj,
            twin,
        }
    }

    /// Live neighbors of `v`. A deleted vertex keeps the row it had when it
    /// was deleted.
    fn neighbors(&self, v: u32) -> &[u32] {
        let lo = self.start[v as usize] as usize;
        &self.adj[lo..lo + self.len[v as usize] as usize]
    }

    /// Delete `v` from every live neighbor's row.
    fn remove(&mut self, v: u32) {
        let lo = self.start[v as usize] as usize;
        for slot in lo..lo + self.len[v as usize] as usize {
            let w = self.adj[slot] as usize;
            let hole = self.twin[slot] as usize;
            self.len[w] -= 1;
            let last = (self.start[w] + self.len[w]) as usize;
            let moved_twin = self.twin[last];
            self.adj[hole] = self.adj[last];
            self.twin[hole] = moved_twin;
            self.twin[moved_twin as usize] = hole as u32;
        }
    }
}

/// Decompose `g` into atoms: vertex sets (dense ids of `g`, ascending) such
/// that each induced subgraph has no clique separator, and the union covers
/// every vertex and edge of `g`. Atoms may share vertices (the separators).
pub fn atoms(g: &ConflictGraph) -> Vec<Vec<u32>> {
    let n = g.len();
    if n == 0 {
        return Vec::new();
    }
    // `higher[x]`: x's higher-numbered neighbors in the filled graph, that
    // is every `v` whose S held `x`.
    let mut higher: Vec<Vec<u32>> = vec![Vec::new(); n];
    let order = number(g, |v, adjacent, filled| {
        for &u in adjacent.iter().chain(filled) {
            higher[u as usize].push(v);
        }
    });
    let badj = g.bit_adjacency(0);

    // Working graph G'': vertices get removed as atoms split off.
    let mut alive = vec![true; n];
    let mut search = ComponentSearch::new(n);
    let mut madj: Vec<u32> = Vec::new();
    let mut out = Vec::new();

    for &x in &order {
        if !alive[x as usize] {
            continue;
        }
        // madj(x): higher-numbered filled neighbors of x still alive.
        madj.clear();
        madj.extend(higher[x as usize].iter().filter(|&&w| alive[w as usize]));
        if madj.is_empty() || !badj.is_clique(g, &madj) {
            continue;
        }
        // madj is a clique — but it only yields an atom if it genuinely
        // *separates* x's remaining component (otherwise x's component is
        // swept up by the final per-component pass).
        let full_comp = search.run(g, x, &alive, &[]);
        let comp = search.run(g, x, &alive, &madj);
        if comp + madj.len() >= full_comp {
            continue; // separator removes nothing: not a real split
        }
        let mut atom = search.comp.clone();
        atom.extend_from_slice(&madj);
        for &c in &search.comp {
            alive[c as usize] = false;
        }
        out.push(sorted(atom));
    }

    // Any remaining vertices form the final atom(s) — one per component,
    // ordered by smallest vertex.
    for s in 0..n as u32 {
        if alive[s as usize] {
            search.run(g, s, &alive, &[]);
            for &c in &search.comp {
                alive[c as usize] = false;
            }
            out.push(sorted(search.comp.clone()));
        }
    }

    out
}

/// Reusable scratch for the separator scan's component searches: one
/// stamped mark per vertex, so a search costs the component it walks.
struct ComponentSearch {
    mark: Vec<u32>,
    stamp: u32,
    stack: Vec<u32>,
    /// The component found by the last [`ComponentSearch::run`].
    comp: Vec<u32>,
}

impl ComponentSearch {
    fn new(n: usize) -> ComponentSearch {
        ComponentSearch {
            mark: vec![0; n],
            stamp: 0,
            stack: Vec::new(),
            comp: Vec::new(),
        }
    }

    /// Collect into `comp` the connected component of `start` in the graph
    /// induced on `alive` vertices minus the `removed` separator, and return
    /// its size.
    fn run(&mut self, g: &ConflictGraph, start: u32, alive: &[bool], removed: &[u32]) -> usize {
        self.stamp += 1;
        let stamp = self.stamp;
        for &r in removed {
            self.mark[r as usize] = stamp;
        }
        self.comp.clear();
        self.mark[start as usize] = stamp;
        self.stack.push(start);
        while let Some(v) = self.stack.pop() {
            self.comp.push(v);
            for &w in g.neighbors(v) {
                if alive[w as usize] && self.mark[w as usize] != stamp {
                    self.mark[w as usize] = stamp;
                    self.stack.push(w);
                }
            }
        }
        self.comp.len()
    }
}

fn sorted(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v
}

/// Check that a fill set makes `g` chordal under `order` — every vertex's
/// higher-numbered filled neighborhood must be a clique in the filled graph.
/// Exposed for tests.
pub fn is_filled_chordal(g: &ConflictGraph, mo: &MinimalOrdering) -> bool {
    let n = g.len();
    let mut filled: std::collections::HashSet<(u32, u32)> =
        g.edges().map(|(u, v, _)| (u.min(v), u.max(v))).collect();
    for &(a, b) in &mo.fill {
        filled.insert((a.min(b), a.max(b)));
    }
    let has = |a: u32, b: u32| filled.contains(&(a.min(b), a.max(b)));
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    for &(a, b) in &filled {
        adj[a as usize].push(b);
        adj[b as usize].push(a);
    }
    for i in 0..n {
        let v = mo.order[i];
        let madj: Vec<u32> = adj[v as usize]
            .iter()
            .copied()
            .filter(|&w| mo.position[w as usize] > i)
            .collect();
        for a in 0..madj.len() {
            for b in (a + 1)..madj.len() {
                if !has(madj[a], madj[b]) {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ConflictGraph;

    fn path(n: usize) -> ConflictGraph {
        let edges: Vec<(u32, u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1, 1)).collect();
        ConflictGraph::from_edges(n, &edges)
    }

    fn cycle(n: usize) -> ConflictGraph {
        let mut edges: Vec<(u32, u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1, 1)).collect();
        edges.push((n as u32 - 1, 0, 1));
        ConflictGraph::from_edges(n, &edges)
    }

    #[test]
    fn mcs_m_on_chordal_graph_adds_no_fill() {
        // A triangle with a pendant: already chordal.
        let g = ConflictGraph::from_edges(4, &[(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 1)]);
        let mo = mcs_m(&g);
        assert!(
            mo.fill.is_empty(),
            "chordal graph needs no fill: {:?}",
            mo.fill
        );
        assert!(is_filled_chordal(&g, &mo));
    }

    #[test]
    fn mcs_m_fills_a_cycle() {
        let g = cycle(5);
        let mo = mcs_m(&g);
        // A 5-cycle needs exactly 2 fill edges for a *minimal* triangulation.
        assert_eq!(mo.fill.len(), 2, "fill: {:?}", mo.fill);
        assert!(is_filled_chordal(&g, &mo));
    }

    #[test]
    fn path_decomposes_into_edges() {
        // Every internal vertex of a path is a (singleton) clique separator,
        // so atoms are exactly the edges.
        let g = path(5);
        let a = atoms(&g);
        assert_eq!(a.len(), 4, "atoms: {a:?}");
        for atom in &a {
            assert_eq!(atom.len(), 2);
            assert!(g.has_edge(atom[0], atom[1]));
        }
    }

    #[test]
    fn cycle_is_a_single_atom() {
        // A chordless cycle has no clique separator.
        let g = cycle(6);
        let a = atoms(&g);
        assert_eq!(a.len(), 1, "atoms: {a:?}");
        assert_eq!(a[0], vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn two_triangles_sharing_an_edge_split() {
        // Vertices 0-1-2 and 1-2-3; the shared edge {1,2} is a clique
        // separator, so the atoms are the two triangles.
        let g =
            ConflictGraph::from_edges(4, &[(0, 1, 1), (0, 2, 1), (1, 2, 1), (1, 3, 1), (2, 3, 1)]);
        let a = atoms(&g);
        assert_eq!(a.len(), 2, "atoms: {a:?}");
        let mut sets: Vec<Vec<u32>> = a.clone();
        sets.sort();
        assert_eq!(sets, vec![vec![0, 1, 2], vec![1, 2, 3]]);
    }

    #[test]
    fn disconnected_components_are_separate_atoms() {
        let g = ConflictGraph::from_edges(6, &[(0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 1)]);
        let a = atoms(&g);
        // triangle {0,1,2}, edge {3,4}, isolated {5}
        assert_eq!(a.len(), 3, "atoms: {a:?}");
        let mut sets = a.clone();
        sets.sort();
        assert_eq!(sets, vec![vec![0, 1, 2], vec![3, 4], vec![5]]);
    }

    #[test]
    fn atoms_cover_all_vertices_and_edges() {
        // Random-ish composite graph: two cycles joined by a bridge vertex.
        let g = ConflictGraph::from_edges(
            9,
            &[
                (0, 1, 1),
                (1, 2, 1),
                (2, 3, 1),
                (3, 0, 1),
                (3, 4, 1),
                (4, 5, 1),
                (5, 6, 1),
                (6, 7, 1),
                (7, 8, 1),
                (8, 4, 1),
            ],
        );
        let a = atoms(&g);
        let mut covered = vec![false; g.len()];
        for atom in &a {
            for &v in atom {
                covered[v as usize] = true;
            }
        }
        assert!(covered.iter().all(|&c| c), "all vertices covered");
        // Every edge inside some atom.
        for (u, v, _) in g.edges() {
            assert!(
                a.iter().any(|atom| atom.contains(&u) && atom.contains(&v)),
                "edge ({u},{v}) not inside any atom"
            );
        }
    }

    #[test]
    fn single_vertex_graph() {
        let g = ConflictGraph::from_edges(1, &[]);
        assert_eq!(atoms(&g), vec![vec![0]]);
    }

    #[test]
    fn empty_graph() {
        let g = ConflictGraph::from_edges(0, &[]);
        assert!(atoms(&g).is_empty());
    }
}

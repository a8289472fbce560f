//! The generic lattice-based fixpoint dataflow engine.
//!
//! An [`Analysis`] names a direction, a lattice (`Domain` + [`Analysis::join`]),
//! boundary/initial values, and a per-node transfer function; [`solve`] runs
//! a deterministic worklist to the least fixpoint over a [`FlowGraph`]. The
//! graph is usually built from a `liw_ir` CFG ([`FlowGraph::from_cfg`]), but
//! can be built from raw edges ([`FlowGraph::from_edges`]) — that is what
//! the property tests use to pin the engine against a naive reference on
//! random graphs, and what lets scheduled-program CFGs reuse the engine.
//!
//! Determinism: the worklist is a bit set over reverse postorder positions
//! (postorder for backward analyses), popped lowest first, so iteration
//! order — and therefore the step count — is a pure function of the graph,
//! never of hash seeds.

use liw_ir::cfg::Cfg;
use liw_ir::BitSet;

/// Which way facts flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow from predecessors to successors (e.g. reaching
    /// definitions).
    Forward,
    /// Facts flow from successors to predecessors (e.g. liveness).
    Backward,
}

/// One dataflow problem: a lattice, a direction, and a transfer function.
///
/// Requirements for [`solve`] to terminate at the least fixpoint:
/// `transfer` must be monotone in its input, `join` must compute a least
/// upper bound, and [`Analysis::init`] must be the identity of `join` (⊥
/// for a may analysis, ⊤ for a must analysis whose join is intersection).
pub trait Analysis {
    /// The lattice of facts attached to each node.
    type Domain: Clone + PartialEq;

    /// Forward or backward.
    fn direction(&self) -> Direction;

    /// The value entering the boundary node(s): the entry node for a
    /// forward analysis, every exit node (no successors) for a backward
    /// one.
    fn boundary(&self) -> Self::Domain;

    /// The initial value of every other node input — must be the identity
    /// of [`Analysis::join`].
    fn init(&self) -> Self::Domain;

    /// `into ⊔= from`.
    fn join(&self, into: &mut Self::Domain, from: &Self::Domain);

    /// Apply node `n`'s transfer function to `input`.
    fn transfer(&self, n: usize, input: &Self::Domain) -> Self::Domain;
}

/// A directed graph with a designated entry and a reverse postorder over
/// the nodes reachable from it.
#[derive(Clone, Debug)]
pub struct FlowGraph {
    /// Predecessors per node.
    pub preds: Vec<Vec<usize>>,
    /// Successors per node.
    pub succs: Vec<Vec<usize>>,
    /// Reverse postorder over reachable nodes, entry first.
    pub rpo: Vec<usize>,
    /// Position of each node in `rpo` (`usize::MAX` = unreachable).
    pub rpo_pos: Vec<usize>,
    /// The entry node.
    pub entry: usize,
}

impl FlowGraph {
    /// Adopt a `liw_ir` CFG unchanged (same edges, same reverse postorder).
    pub fn from_cfg(cfg: &Cfg) -> FlowGraph {
        FlowGraph {
            preds: cfg
                .preds
                .iter()
                .map(|ps| ps.iter().map(|p| p.index()).collect())
                .collect(),
            succs: cfg
                .succs
                .iter()
                .map(|ss| ss.iter().map(|s| s.index()).collect())
                .collect(),
            rpo: cfg.rpo.iter().map(|b| b.index()).collect(),
            rpo_pos: cfg.rpo_pos.clone(),
            entry: cfg.entry.index(),
        }
    }

    /// Build a graph over `n` nodes from an edge list, computing the
    /// reverse postorder from `entry` with the same DFS the `liw_ir` CFG
    /// uses.
    pub fn from_edges(n: usize, entry: usize, edges: &[(usize, usize)]) -> FlowGraph {
        assert!(entry < n, "entry out of range");
        let mut preds = vec![Vec::new(); n];
        let mut succs = vec![Vec::new(); n];
        for &(a, b) in edges {
            assert!(a < n && b < n, "edge ({a},{b}) out of range");
            succs[a].push(b);
            preds[b].push(a);
        }
        let mut post = Vec::new();
        let mut state = vec![0u8; n]; // 0 unvisited, 1 in progress, 2 done
        let mut stack = vec![(entry, 0usize)];
        state[entry] = 1;
        while let Some(&mut (v, ref mut i)) = stack.last_mut() {
            if *i < succs[v].len() {
                let nxt = succs[v][*i];
                *i += 1;
                if state[nxt] == 0 {
                    state[nxt] = 1;
                    stack.push((nxt, 0));
                }
            } else {
                state[v] = 2;
                post.push(v);
                stack.pop();
            }
        }
        let rpo: Vec<usize> = post.into_iter().rev().collect();
        let mut rpo_pos = vec![usize::MAX; n];
        for (i, &b) in rpo.iter().enumerate() {
            rpo_pos[b] = i;
        }
        FlowGraph {
            preds,
            succs,
            rpo,
            rpo_pos,
            entry,
        }
    }

    /// Number of nodes (reachable or not).
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Whether `n` is reachable from the entry.
    pub fn is_reachable(&self, n: usize) -> bool {
        self.rpo_pos[n] != usize::MAX
    }
}

/// The solved dataflow facts plus iteration diagnostics.
#[derive(Clone, Debug)]
pub struct Solution<D> {
    /// Per node: the joined value *entering* the transfer function (at
    /// block entry for a forward analysis, at block exit for a backward
    /// one). Unreachable nodes keep [`Analysis::init`].
    pub input: Vec<D>,
    /// Per node: `transfer(input)` (at block exit forward, at block entry
    /// backward). Unreachable nodes keep [`Analysis::init`].
    pub output: Vec<D>,
    /// Transfer applications performed.
    pub steps: u64,
    /// `false` when the step limit was hit before the worklist drained —
    /// the termination guard against non-monotone clients; the facts are
    /// then a best-effort under-approximation.
    pub converged: bool,
}

/// Run `analysis` over `g` to a fixpoint, with a hard cap of `max_steps`
/// transfer applications (the termination guard).
///
/// For a monotone analysis over a lattice of height `h`,
/// `g.rpo.len() * (h + 1)` steps always suffice; pass any comfortable
/// upper bound. See [`steps_bound`] for the powerset-domain default.
pub fn solve<A: Analysis>(g: &FlowGraph, analysis: &A, max_steps: u64) -> Solution<A::Domain> {
    let n = g.len();
    let dir = analysis.direction();

    // Iteration order: RPO for forward, postorder (reversed RPO) for
    // backward, so a pass tends to visit producers before consumers.
    let order: Vec<usize> = match dir {
        Direction::Forward => g.rpo.clone(),
        Direction::Backward => g.rpo.iter().rev().copied().collect(),
    };
    let mut posn = vec![usize::MAX; n];
    for (i, &b) in order.iter().enumerate() {
        posn[b] = i;
    }

    let deps: &Vec<Vec<usize>> = match dir {
        Direction::Forward => &g.preds,
        Direction::Backward => &g.succs,
    };
    let users: &Vec<Vec<usize>> = match dir {
        Direction::Forward => &g.succs,
        Direction::Backward => &g.preds,
    };
    let is_boundary = |b: usize| match dir {
        Direction::Forward => b == g.entry,
        Direction::Backward => g.succs[b].is_empty(),
    };

    let boundary = analysis.boundary();
    let init = analysis.init();
    let mut input: Vec<A::Domain> = vec![init.clone(); n];
    let mut output: Vec<A::Domain> = vec![init.clone(); n];
    // Positions in `order` still to process; the lowest goes first.
    let mut work = BitSet::full(order.len());
    let mut steps = 0u64;
    let mut converged = true;

    while let Some(i) = work.pop_first() {
        if steps >= max_steps {
            converged = false;
            break;
        }
        steps += 1;
        let b = order[i];

        // Reuse the node's input buffer: a step allocates only what its
        // transfer returns.
        let inp = &mut input[b];
        inp.clone_from(if is_boundary(b) { &boundary } else { &init });
        for &d in &deps[b] {
            if posn[d] != usize::MAX {
                analysis.join(inp, &output[d]);
            }
        }
        let out = analysis.transfer(b, inp);
        if out != output[b] {
            output[b] = out;
            for &u in &users[b] {
                if posn[u] != usize::MAX {
                    work.insert(posn[u]);
                }
            }
        }
    }

    parmem_obs::counter_add("lint.solve_steps", steps);
    Solution {
        input,
        output,
        steps,
        converged,
    }
}

/// A safe step budget for a monotone powerset analysis: each of the
/// `nodes` reachable nodes can be re-processed at most once per lattice
/// level (`bits + 1`), plus slack for the initial seeding pass.
pub fn steps_bound(nodes: usize, bits: usize) -> u64 {
    (nodes as u64 + 1) * (bits as u64 + 2) + 64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Forward may analysis: out = (in − kill) ∪ gen.
    struct GenKill {
        gen: Vec<BitSet>,
        kill: Vec<BitSet>,
        bits: usize,
        boundary: BitSet,
    }

    impl Analysis for GenKill {
        type Domain = BitSet;
        fn direction(&self) -> Direction {
            Direction::Forward
        }
        fn boundary(&self) -> BitSet {
            self.boundary.clone()
        }
        fn init(&self) -> BitSet {
            BitSet::new(self.bits)
        }
        fn join(&self, into: &mut BitSet, from: &BitSet) {
            into.union_with(from);
        }
        fn transfer(&self, n: usize, input: &BitSet) -> BitSet {
            let mut out = input.clone();
            out.subtract(&self.kill[n]);
            out.union_with(&self.gen[n]);
            out
        }
    }

    #[test]
    fn diamond_joins_both_arms() {
        // 0 → {1,2} → 3; node 1 gens bit 1, node 2 gens bit 2.
        let g = FlowGraph::from_edges(4, 0, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let bits = 4;
        let mut a = GenKill {
            gen: vec![BitSet::new(bits); 4],
            kill: vec![BitSet::new(bits); 4],
            bits,
            boundary: BitSet::new(bits),
        };
        a.gen[1].insert(1);
        a.gen[2].insert(2);
        let sol = solve(&g, &a, steps_bound(4, bits));
        assert!(sol.converged);
        assert_eq!(sol.input[3].iter().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn loop_reaches_fixpoint_and_unreachable_stays_init() {
        // 0 → 1 ⇄ 2, node 3 unreachable; gen at 2 must flow around the
        // loop into 1's input.
        let g = FlowGraph::from_edges(4, 0, &[(0, 1), (1, 2), (2, 1)]);
        let bits = 2;
        let mut a = GenKill {
            gen: vec![BitSet::new(bits); 4],
            kill: vec![BitSet::new(bits); 4],
            bits,
            boundary: BitSet::new(bits),
        };
        a.gen[2].insert(0);
        let sol = solve(&g, &a, steps_bound(4, bits));
        assert!(sol.converged);
        assert!(sol.input[1].contains(0), "loop-carried fact");
        assert!(!g.is_reachable(3));
        assert!(sol.output[3].is_empty());
    }

    #[test]
    fn step_limit_reports_non_convergence() {
        /// Deliberately non-monotone: output oscillates between {0} and {}.
        struct Oscillator;
        impl Analysis for Oscillator {
            type Domain = BitSet;
            fn direction(&self) -> Direction {
                Direction::Forward
            }
            fn boundary(&self) -> BitSet {
                BitSet::new(1)
            }
            fn init(&self) -> BitSet {
                BitSet::new(1)
            }
            fn join(&self, into: &mut BitSet, from: &BitSet) {
                into.union_with(from);
            }
            fn transfer(&self, _n: usize, input: &BitSet) -> BitSet {
                let mut out = BitSet::new(1);
                if !input.contains(0) {
                    out.insert(0);
                }
                out
            }
        }
        // A self-loop feeds the flipped output straight back into the
        // node's own input, so the fixpoint never settles.
        let g = FlowGraph::from_edges(1, 0, &[(0, 0)]);
        let sol = solve(&g, &Oscillator, 1000);
        assert!(!sol.converged, "oscillator must hit the step cap");
        assert_eq!(sol.steps, 1000);
    }
}

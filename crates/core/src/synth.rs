//! Synthetic access-trace generators for property tests, scaling studies and
//! the ablation benchmarks. All generators are seeded and reproducible.

use std::collections::HashMap;

use rand::distributions::{Distribution, WeightedIndex};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::graph::ConflictGraph;
use crate::types::{AccessTrace, OperandSet, ValueId, MAX_MODULES};

/// Parameters for [`random_trace`].
#[derive(Clone, Copy, Debug)]
pub struct TraceSpec {
    /// Number of distinct data values to draw from.
    pub values: usize,
    /// Number of long instructions.
    pub instructions: usize,
    /// Number of memory modules `k`.
    pub modules: usize,
    /// Minimum operands per instruction (inclusive).
    pub min_ops: usize,
    /// Maximum operands per instruction (inclusive, clamped to `modules`).
    pub max_ops: usize,
    /// Zipf-like skew exponent: 0.0 = uniform popularity, 1.0 ≈ natural
    /// scalar reuse (loop counters and accumulators recur in many
    /// instructions, like real compiled code).
    pub skew: f64,
}

impl Default for TraceSpec {
    fn default() -> Self {
        TraceSpec {
            values: 64,
            instructions: 200,
            modules: 8,
            min_ops: 2,
            max_ops: 8,
            skew: 0.8,
        }
    }
}

/// A random trace with Zipf-skewed value popularity.
pub fn random_trace(spec: &TraceSpec, seed: u64) -> AccessTrace {
    assert!(spec.values >= 1 && spec.min_ops >= 1);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let max_ops = spec.max_ops.min(spec.modules).min(spec.values);
    let min_ops = spec.min_ops.min(max_ops);

    let weights: Vec<f64> = (1..=spec.values)
        .map(|r| 1.0 / (r as f64).powf(spec.skew))
        .collect();
    let dist = WeightedIndex::new(&weights).expect("non-empty positive weights");

    let mut instructions = Vec::with_capacity(spec.instructions);
    for _ in 0..spec.instructions {
        let n_ops = rng.gen_range(min_ops..=max_ops);
        let mut ops = Vec::with_capacity(n_ops);
        // Draw distinct values (rejection; n_ops << values in practice).
        let mut guard = 0;
        while ops.len() < n_ops && guard < 10_000 {
            let v = ValueId(dist.sample(&mut rng) as u32);
            if !ops.contains(&v) {
                ops.push(v);
            }
            guard += 1;
        }
        instructions.push(OperandSet::new(ops));
    }
    AccessTrace::new(spec.modules, instructions)
}

/// A trace guaranteed to admit a conflict-free single-copy assignment: a
/// hidden k-coloring is fixed and every instruction samples operands with
/// pairwise-distinct hidden colors. Used to measure how often the heuristics
/// find zero-duplication solutions when one exists.
pub fn colorable_trace(spec: &TraceSpec, seed: u64) -> AccessTrace {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let k = spec.modules;
    let max_ops = spec.max_ops.min(k).min(spec.values);
    let min_ops = spec.min_ops.min(max_ops);

    // Hidden color per value.
    let hidden: Vec<usize> = (0..spec.values).map(|_| rng.gen_range(0..k)).collect();
    // Bucket values by hidden color.
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); k];
    for (v, &c) in hidden.iter().enumerate() {
        buckets[c].push(v as u32);
    }
    let nonempty: Vec<usize> = (0..k).filter(|&c| !buckets[c].is_empty()).collect();

    let mut instructions = Vec::with_capacity(spec.instructions);
    for _ in 0..spec.instructions {
        let n_ops = rng.gen_range(min_ops..=max_ops).min(nonempty.len());
        // Choose n_ops distinct colors, then one value from each bucket.
        let mut colors = nonempty.clone();
        for i in (1..colors.len()).rev() {
            let j = rng.gen_range(0..=i);
            colors.swap(i, j);
        }
        let ops: Vec<ValueId> = colors[..n_ops]
            .iter()
            .map(|&c| {
                let b = &buckets[c];
                ValueId(b[rng.gen_range(0..b.len())])
            })
            .collect();
        instructions.push(OperandSet::new(ops));
    }
    AccessTrace::new(spec.modules, instructions)
}

/// An adversarial trace that forces duplication: `cliques` groups of
/// `modules + extra` values, each group fully co-scheduled (every
/// `modules`-sized combination of the group appears as an instruction for
/// small groups, or a covering sample for large ones).
pub fn clique_trace(modules: usize, cliques: usize, extra: usize, seed: u64) -> AccessTrace {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let group = modules + extra;
    let mut instructions = Vec::new();
    for c in 0..cliques {
        let base = (c * group) as u32;
        let members: Vec<ValueId> = (0..group as u32).map(|i| ValueId(base + i)).collect();
        // Cover all pairs within the group using `modules`-sized windows, and
        // throw in random combos so higher-order conflicts appear too.
        for w in members.windows(modules.min(group)) {
            instructions.push(OperandSet::new(w.to_vec()));
        }
        for _ in 0..group {
            let mut combo = members.clone();
            for i in (1..combo.len()).rev() {
                let j = rng.gen_range(0..=i);
                combo.swap(i, j);
            }
            combo.truncate(modules.min(group));
            instructions.push(OperandSet::new(combo));
        }
        // Ensure every pair co-occurs at least once (pad with pair+filler
        // instructions if modules >= 2).
        if modules >= 2 {
            for i in 0..members.len() {
                for j in (i + 1)..members.len() {
                    instructions.push(OperandSet::new(vec![members[i], members[j]]));
                }
            }
        }
    }
    AccessTrace::new(modules, instructions)
}

/// The most edges a [`ScaleSpec`] may target or plant: a [`ConflictGraph`]
/// indexes its adjacency with `u32` offsets over both directions of every
/// edge.
pub const SCALE_MAX_EDGES: usize = (u32::MAX / 2) as usize;

/// Parameters for the scale-workload generators ([`scale_edges`],
/// [`scale_graph`], [`scale_trace`]): conflict graphs of 10⁴–10⁶ values with
/// controlled structure, for exercising the CSR build and the per-component
/// coloring fan-out.
///
/// Bounds: an `edges` target beyond the vertex pairs inside the component
/// blocks is clamped to that count ([`ScaleSpec::edge_target`]), and
/// [`ScaleSpec::validate`] rejects a spec whose clamped target, or whose
/// spanning-tree edges plus planted-clique pairs
/// ([`ScaleSpec::planted_pairs`]), exceed [`SCALE_MAX_EDGES`]. So the
/// generator's work and memory stay within what the resulting graph can
/// hold.
#[derive(Clone, Copy, Debug)]
pub struct ScaleSpec {
    /// Number of values (graph vertices). Must be at least `2 * components`
    /// so every component holds an edge (which keeps the emitted trace's
    /// value set equal to `0..values`).
    pub values: usize,
    /// Target edge count, clamped to the vertex pairs inside the component
    /// blocks. The generator lands exactly here for sparse specs; it only
    /// falls short when the components saturate, and never goes below the
    /// structural minimum (spanning trees + planted cliques).
    pub edges: usize,
    /// Number of planted cliques (each a guaranteed-dense subgraph the
    /// coloring must spend `clique_size` colors on).
    pub cliques: usize,
    /// Vertices per planted clique (clamped to the host component's size).
    pub clique_size: usize,
    /// Exact number of connected components: vertices split into contiguous
    /// near-equal blocks, each internally spanned by a random tree, with no
    /// cross-block edges.
    pub components: usize,
    /// Memory modules `k` for the emitted trace.
    pub modules: usize,
}

impl ScaleSpec {
    /// Check the spec is one the generators accept: at least one component,
    /// at least two values per component, values addressable as
    /// [`ValueId`]s, `k` within `1..=MAX_MODULES`, and an edge target and
    /// structural edge count (spanning trees plus planted-clique pairs) of
    /// at most [`SCALE_MAX_EDGES`] each.
    pub fn validate(&self) -> Result<(), String> {
        if self.components == 0 {
            return Err("components must be at least 1".to_string());
        }
        if self.values < self.components.saturating_mul(2) {
            return Err(format!(
                "values {} is too small for {} components (need at least 2 values per component)",
                self.values, self.components
            ));
        }
        if self.values > u32::MAX as usize {
            return Err(format!(
                "values {} exceeds the value-id range (at most {})",
                self.values,
                u32::MAX
            ));
        }
        if !(1..=MAX_MODULES).contains(&self.modules) {
            return Err(format!("k = {} is outside 1..={MAX_MODULES}", self.modules));
        }
        let structural = (self.values - self.components).saturating_add(self.planted_pairs());
        if structural > SCALE_MAX_EDGES {
            return Err(format!(
                "the spanning trees and {} planted cliques of size {} need {structural} edges, more than the edge range (at most {SCALE_MAX_EDGES})",
                self.cliques, self.clique_size
            ));
        }
        if self.edge_target() > SCALE_MAX_EDGES {
            return Err(format!(
                "edges {} (clamped to the {} vertex pairs the components hold) exceeds the edge range (at most {SCALE_MAX_EDGES})",
                self.edges,
                self.edge_target()
            ));
        }
        Ok(())
    }

    /// The edge count the generator aims for: `edges`, clamped to the
    /// vertex pairs inside the component blocks.
    pub fn edge_target(&self) -> usize {
        let c = self.components.max(1);
        let (base, rem) = (self.values / c, self.values % c);
        let capacity = pairs(base + 1)
            .saturating_mul(rem)
            .saturating_add(pairs(base).saturating_mul(c - rem));
        self.edges.min(capacity)
    }

    /// The vertex pairs the planted cliques span: each clique counts at its
    /// size clamped to the largest component block, and as at least one
    /// pair, so the count bounds both the edges the cliques force and the
    /// plan's list of cliques.
    pub fn planted_pairs(&self) -> usize {
        let largest = self.values.div_ceil(self.components.max(1));
        self.cliques
            .saturating_mul(pairs(self.clique_size.min(largest)).max(1))
    }
}

/// Unordered pairs among `n` vertices, saturating.
fn pairs(n: usize) -> usize {
    n.saturating_mul(n.saturating_sub(1)) / 2
}

impl Default for ScaleSpec {
    fn default() -> Self {
        ScaleSpec {
            values: 1_000,
            edges: 4_000,
            cliques: 4,
            clique_size: 10,
            components: 4,
            modules: 8,
        }
    }
}

/// A generated scale workload: the edge list plus the structural plan that
/// produced it, so property tests can check the plan was honored.
#[derive(Clone, Debug)]
pub struct ScaleWorkload {
    /// `(a, b, conf)` triples with `a < b`, strictly ascending — ready for
    /// [`ConflictGraph::from_sorted_edges`].
    pub edges: Vec<(u32, u32, u32)>,
    /// The planted cliques' members, each sorted ascending.
    pub cliques: Vec<Vec<u32>>,
    /// Component blocks as `[start, end)` vertex ranges.
    pub blocks: Vec<(u32, u32)>,
    /// Edges forced by structure (spanning trees + planted cliques) before
    /// random top-up; the edge count can never go below this.
    pub forced_edges: usize,
}

/// The edge list of a [`ScaleSpec`] workload (see [`scale_workload`] for the
/// full plan). Deterministic in `(spec, seed)`.
pub fn scale_edges(spec: &ScaleSpec, seed: u64) -> Vec<(u32, u32, u32)> {
    scale_workload(spec, seed).edges
}

/// Generate a [`ScaleSpec`] workload. Deterministic in `(spec, seed)`.
///
/// Construction: per-component random spanning trees (pinning the component
/// count exactly), planted cliques assigned round-robin to components with
/// members drawn by partial Fisher-Yates, then random intra-component edges
/// topped up to the target in bounded sort-merge-dedup rounds (no hash sets,
/// so the 10⁶-value case stays memory-lean). Every 7th edge (index ≡ 3
/// mod 7) gets conflict weight 2, the rest weight 1 — enough weight variety
/// to exercise the urgency heuristic without swamping it.
///
/// Panics if [`ScaleSpec::validate`] rejects `spec`.
pub fn scale_workload(spec: &ScaleSpec, seed: u64) -> ScaleWorkload {
    if let Err(e) = spec.validate() {
        panic!("invalid ScaleSpec: {e}");
    }
    let n = spec.values;
    let c = spec.components;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);

    // Contiguous component blocks, sizes as even as possible.
    let (base, rem) = (n / c, n % c);
    let mut starts = Vec::with_capacity(c + 1);
    let mut s = 0usize;
    for i in 0..c {
        starts.push(s);
        s += base + usize::from(i < rem);
    }
    starts.push(n);

    // Spanning-tree edges plus the planted pairs, which `validate` bounds.
    let mut forced: Vec<(u32, u32)> = Vec::with_capacity(
        (n - c)
            .checked_add(spec.planted_pairs())
            .expect("validate bounds the planted pairs"),
    );

    // Random spanning tree per block: vertex v attaches to a uniform earlier
    // vertex of its block, so each block is connected and blocks never mix —
    // the component count is exactly `c`.
    for b in 0..c {
        let (lo, hi) = (starts[b], starts[b + 1]);
        for v in (lo + 1)..hi {
            let u = rng.gen_range(lo..v) as u32;
            forced.push((u, v as u32));
        }
    }

    // Planted cliques, round-robin over blocks. Members come from a partial
    // Fisher-Yates shuffle of the block that stores only the positions it
    // displaces, so a clique costs its own size, not its block's.
    let mut planted: Vec<Vec<u32>> = Vec::with_capacity(spec.cliques);
    let mut displaced: HashMap<usize, u32> = HashMap::new();
    for q in 0..spec.cliques {
        let b = q % c;
        let (lo, hi) = (starts[b], starts[b + 1]);
        let size = spec.clique_size.min(hi - lo);
        displaced.clear();
        let mut members: Vec<u32> = Vec::with_capacity(size);
        for i in 0..size {
            let j = rng.gen_range(i..hi - lo);
            let at = |p: usize| displaced.get(&p).copied().unwrap_or((lo + p) as u32);
            let (vi, vj) = (at(i), at(j));
            // Position i takes the value at j and is never drawn again.
            displaced.insert(j, vi);
            members.push(vj);
        }
        members.sort_unstable();
        for i in 0..size {
            for j in (i + 1)..size {
                forced.push((members[i], members[j]));
            }
        }
        planted.push(members);
    }
    forced.sort_unstable();
    forced.dedup();
    let forced_edges = forced.len();

    // Random intra-block edges up to the target. Each round oversamples a
    // little, dedups against everything seen, and truncates back to the
    // deficit; sparse specs converge in one or two rounds.
    let target_extra = spec.edge_target().saturating_sub(forced.len());
    let mut extra: Vec<(u32, u32)> = Vec::new();
    for _round in 0..16 {
        if extra.len() >= target_extra {
            break;
        }
        let need = target_extra - extra.len();
        let mut batch: Vec<(u32, u32)> = Vec::with_capacity(need + need / 4 + 8);
        for _ in 0..(need + need / 4 + 8) {
            let u = rng.gen_range(0..n);
            let b = starts.partition_point(|&st| st <= u) - 1;
            let v = rng.gen_range(starts[b]..starts[b + 1]);
            if u != v {
                batch.push((u.min(v) as u32, u.max(v) as u32));
            }
        }
        batch.sort_unstable();
        batch.dedup();
        batch.retain(|p| forced.binary_search(p).is_err());
        extra.extend(batch);
        extra.sort_unstable();
        extra.dedup();
        extra.truncate(target_extra);
    }

    // Merge and weight.
    let mut all = forced;
    all.extend(extra);
    all.sort_unstable();
    let edges = all
        .into_iter()
        .enumerate()
        .map(|(i, (a, b))| (a, b, if i % 7 == 3 { 2 } else { 1 }))
        .collect();
    ScaleWorkload {
        edges,
        cliques: planted,
        blocks: (0..c)
            .map(|b| (starts[b] as u32, starts[b + 1] as u32))
            .collect(),
        forced_edges,
    }
}

/// The conflict graph of a [`ScaleSpec`] workload, assembled directly from
/// the sorted edge list. Equal — by [`ConflictGraph::digest`] — to building
/// from [`scale_trace`]'s instruction stream.
pub fn scale_graph(spec: &ScaleSpec, seed: u64) -> ConflictGraph {
    let edges = scale_edges(spec, seed);
    ConflictGraph::from_sorted_edges(spec.values, &edges)
}

/// An access trace realizing a [`ScaleSpec`] workload: one two-operand
/// instruction per edge, repeated `conf` times, so the trace-built conflict
/// graph reproduces [`scale_graph`] exactly (the spanning trees guarantee
/// every value appears).
pub fn scale_trace(spec: &ScaleSpec, seed: u64) -> AccessTrace {
    let edges = scale_edges(spec, seed);
    let mut instructions = Vec::with_capacity(edges.len() + edges.len() / 7 + 1);
    for &(a, b, w) in &edges {
        let inst = OperandSet::new(vec![ValueId(a), ValueId(b)]);
        for _ in 1..w {
            instructions.push(inst.clone());
        }
        instructions.push(inst);
    }
    AccessTrace::new(spec.modules, instructions)
}

/// A synthetic *regionized* workload reproducing the pressure regime where
/// the paper's STOR2 strategy degrades (Table 1's mechanism): each region's
/// locals form dense near-`k`-chromatic structures, and instructions mix
/// `k-1` locals with one region-crossing global. A strategy that places the
/// globals blind to local structure (STOR2's first stage) boxes the local
/// coloring in; STOR1, seeing all conflicts at once, does not.
pub fn regional_pressure_trace(
    modules: usize,
    regions: usize,
    globals: usize,
    seed: u64,
) -> crate::strategies::RegionizedTrace {
    use crate::strategies::RegionizedTrace;
    assert!(modules >= 2);
    let k = modules;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let global_ids: Vec<ValueId> = (0..globals as u32).map(ValueId).collect();
    let mut next_local = globals as u32;

    let mut region_streams = Vec::with_capacity(regions);
    for r in 0..regions {
        // Locals of this region: a k-clique (co-scheduled everywhere), so
        // the locals alone need all k modules.
        let locals: Vec<ValueId> = (0..k as u32)
            .map(|_| {
                let v = ValueId(next_local);
                next_local += 1;
                v
            })
            .collect();
        let mut insts = Vec::new();
        insts.push(OperandSet::new(locals.clone()));
        // Word i carries global g_i plus the clique minus local l_i — so a
        // conflict-free single-copy layout exists (give g_i the module of
        // the local it excludes), but only if the globals' modules are
        // chosen with the local structure in view. Globals are never
        // co-fetched with each other, so a blind global stage sees no
        // conflicts among them and stacks them in one module; then every
        // local is excluded from that module and the k-clique no longer
        // fits in k-1 modules → forced duplication. Globals rotate across
        // regions so each is genuinely live in several regions.
        for i in 0..k {
            let g = global_ids[(r + i) % global_ids.len()];
            let mut ops: Vec<ValueId> = locals
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, &l)| l)
                .collect();
            ops.push(g);
            insts.push(OperandSet::new(ops));
        }
        // A little noise: repeat a couple of the mixed words (affects conf
        // weights, not the structure).
        for _ in 0..2 {
            let pick = 1 + rng.gen_range(0..k);
            insts.push(insts[pick].clone());
        }
        region_streams.push(insts);
    }

    RegionizedTrace {
        modules,
        regions: region_streams,
        globals: global_ids.into_iter().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_trace_respects_spec() {
        let spec = TraceSpec {
            values: 30,
            instructions: 100,
            modules: 4,
            min_ops: 2,
            max_ops: 4,
            skew: 0.5,
        };
        let t = random_trace(&spec, 1);
        assert_eq!(t.instructions.len(), 100);
        assert_eq!(t.modules, 4);
        for inst in &t.instructions {
            assert!(inst.len() >= 2 && inst.len() <= 4, "{:?}", inst);
        }
        assert_eq!(t.oversized_instructions(), 0);
    }

    #[test]
    fn random_trace_is_deterministic() {
        let spec = TraceSpec::default();
        let a = random_trace(&spec, 99);
        let b = random_trace(&spec, 99);
        assert_eq!(a.instructions.len(), b.instructions.len());
        for (x, y) in a.instructions.iter().zip(&b.instructions) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let spec = TraceSpec::default();
        let a = random_trace(&spec, 1);
        let b = random_trace(&spec, 2);
        assert!(
            a.instructions
                .iter()
                .zip(&b.instructions)
                .any(|(x, y)| x != y),
            "seeds should change the trace"
        );
    }

    #[test]
    fn colorable_trace_admits_conflict_free_assignment() {
        // By construction the hidden coloring is conflict-free; verify by
        // reconstructing it (the generator's invariant, not the heuristic's).
        let spec = TraceSpec {
            values: 40,
            instructions: 150,
            modules: 5,
            min_ops: 2,
            max_ops: 5,
            skew: 0.3,
        };
        let t = colorable_trace(&spec, 7);
        // All instructions must have ≤ k operands and be pairwise colorable:
        // the generator guarantees distinct hidden colors inside each
        // instruction, so a valid assignment exists. Check the weaker,
        // machine-verifiable property: the graph produced is k-colorable via
        // the exact hidden reconstruction — i.e. no instruction has more
        // operands than modules.
        assert_eq!(t.oversized_instructions(), 0);
        use crate::assignment::{assign_trace, AssignParams};
        let (a, r) = assign_trace(&t, &AssignParams::default());
        assert_eq!(r.residual_conflicts, 0);
        assert_eq!(a.residual_conflicts(&t), 0);
    }

    #[test]
    fn regional_pressure_reproduces_stor2_pathology() {
        use crate::assignment::AssignParams;
        use crate::strategies::{run_strategy, Strategy};
        // k=4, 8 regions, 8 globals: a conflict-free single-copy layout
        // exists (STOR1 finds it), but STOR2's blind global stage forces
        // duplication — the mechanism behind the paper's Table 1.
        let rt = regional_pressure_trace(4, 8, 8, 3);
        let (_, r1) = run_strategy(&rt, Strategy::Stor1, &AssignParams::default());
        let (_, r2) = run_strategy(&rt, Strategy::Stor2, &AssignParams::default());
        assert_eq!(r1.residual_conflicts, 0);
        assert_eq!(r2.residual_conflicts, 0);
        assert_eq!(r1.multi_copy, 0, "STOR1 should need no duplication: {r1:?}");
        assert!(
            r2.multi_copy >= 4,
            "STOR2's global stage should force duplication: {r2:?}"
        );
    }

    #[test]
    fn regional_pressure_globals_span_regions() {
        let rt = regional_pressure_trace(4, 6, 6, 1);
        assert_eq!(rt.regions.len(), 6);
        assert_eq!(rt.globals.len(), 6);
        // Every region's stream stays within the k-operand limit.
        for region in &rt.regions {
            for inst in region {
                assert!(inst.len() <= 4);
            }
        }
        // Each global really appears in at least two regions.
        for &g in &rt.globals {
            let n = rt
                .regions
                .iter()
                .filter(|rr| rr.iter().any(|i| i.contains(g)))
                .count();
            assert!(n >= 2, "{g} appears in {n} regions");
        }
    }

    #[test]
    fn scale_edges_hits_target_and_structure() {
        let spec = ScaleSpec::default();
        let edges = scale_edges(&spec, 42);
        assert_eq!(edges.len(), spec.edges);
        assert!(edges
            .windows(2)
            .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
        assert!(edges
            .iter()
            .all(|&(a, b, _)| a < b && (b as usize) < spec.values));
        assert!(edges.iter().any(|&(_, _, w)| w == 2));
    }

    #[test]
    fn scale_graph_matches_trace_built_graph() {
        let spec = ScaleSpec {
            values: 500,
            edges: 2_000,
            cliques: 3,
            clique_size: 9,
            components: 3,
            modules: 8,
        };
        let g = scale_graph(&spec, 7);
        let t = scale_trace(&spec, 7);
        let from_trace = ConflictGraph::build(&t);
        assert_eq!(g.digest(), from_trace.digest());
        assert_eq!(g.connected_components().len(), spec.components);
    }

    #[test]
    fn clique_trace_forces_duplication() {
        use crate::assignment::{assign_trace, AssignParams};
        let t = clique_trace(3, 1, 2, 3);
        let (a, r) = assign_trace(&t, &AssignParams::default());
        assert_eq!(r.residual_conflicts, 0, "{r:?}");
        assert!(
            a.multi_copy_count() > 0,
            "a K5 co-schedule with k=3 must duplicate"
        );
    }
}

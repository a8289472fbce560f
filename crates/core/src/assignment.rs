//! The module assignment itself — which modules hold a copy of each data
//! value — plus the end-to-end driver implementing the paper's overall
//! strategy (Fig. 2):
//!
//! 1. build the access conflict graph,
//! 2. decompose into atoms by clique separators,
//! 3. color each atom with the Fig. 4 heuristic,
//! 4. resolve the uncolorable values (`V_unassigned`) by duplication and
//!    placement — either the backtracking algorithm (Fig. 6) or the
//!    hitting-set algorithm (Figs. 7/9/10).

use crate::atoms;
use crate::coloring::color_graph;
use crate::duplication::{backtrack_duplicate, hitting_set_duplicate};
use crate::graph::ConflictGraph;
use crate::matching;
use crate::types::{AccessTrace, ModuleId, ModuleSet, OperandSet, ValueId, ValueMask, MAX_MODULES};

/// Below this many vertices the per-component coloring fan-out stays on the
/// calling thread regardless of `AssignParams::jobs`: paper-scale graphs gain
/// nothing from threads, and inline execution keeps their obs span traces
/// single-threaded (and therefore golden-stable).
const PAR_COMPONENT_MIN_VERTICES: usize = 4096;

/// Components of at most this many vertices are decomposed into atoms
/// (paper §2.1); larger ones are colored whole. The decomposition is for
/// graphs of the paper's size: the largest components of the bundled
/// programs have 62 vertices without unrolling, 177 at unroll 4 (113 in the
/// STOR3, unroll-4, auto-placement configuration) and 268 at unroll 8. On
/// larger components, such as the 500-vertex ones of a serve synth
/// request, MCS-M (O(n·m)) and the atom scan cost 5–12× the rest of the
/// assignment and never gave fewer copies than coloring the component
/// whole. 256 is the smallest bound under which the corpus reports, without
/// unrolling and at unroll 4, equal those of decomposing every component.
const ATOM_MAX_VERTICES: usize = 256;

/// Where each data value's copies live. Indexed densely by [`ValueId`].
#[derive(Clone, Debug)]
pub struct Assignment {
    k: usize,
    copies: Vec<ModuleSet>,
}

impl Assignment {
    /// An empty assignment for a machine with `k` modules.
    pub fn new(k: usize) -> Assignment {
        Assignment {
            k,
            copies: Vec::new(),
        }
    }

    /// Number of memory modules `k`.
    pub fn modules(&self) -> usize {
        self.k
    }

    fn ensure(&mut self, v: ValueId) {
        if v.index() >= self.copies.len() {
            self.copies.resize(v.index() + 1, ModuleSet::EMPTY);
        }
    }

    /// Modules currently holding a copy of `v` (empty set if unplaced).
    pub fn copies(&self, v: ValueId) -> ModuleSet {
        self.copies
            .get(v.index())
            .copied()
            .unwrap_or(ModuleSet::EMPTY)
    }

    /// True if `v` has at least one copy somewhere.
    pub fn is_placed(&self, v: ValueId) -> bool {
        !self.copies(v).is_empty()
    }

    /// Record a copy of `v` in module `m`.
    pub fn add_copy(&mut self, v: ValueId, m: ModuleId) {
        assert!(m.index() < self.k, "module {m} out of range (k={})", self.k);
        self.ensure(v);
        self.copies[v.index()].insert(m);
    }

    /// Overwrite the copy set of `v`.
    pub fn set_copies(&mut self, v: ValueId, set: ModuleSet) {
        self.ensure(v);
        self.copies[v.index()] = set;
    }

    /// All `(value, copy set)` pairs with at least one copy.
    pub fn placed_values(&self) -> impl Iterator<Item = (ValueId, ModuleSet)> + '_ {
        self.copies
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.is_empty())
            .map(|(i, &s)| (ValueId(i as u32), s))
    }

    /// Run `f` on the copy sets of `inst`'s operands, in operand order,
    /// gathered on the stack (only an instruction wider than
    /// [`MAX_MODULES`] gathers on the heap).
    fn with_copy_sets<R>(&self, inst: &OperandSet, f: impl FnOnce(&[ModuleSet]) -> R) -> R {
        let ops = inst.values();
        if ops.len() > MAX_MODULES {
            return f(&ops.iter().map(|&v| self.copies(v)).collect::<Vec<_>>());
        }
        let mut sets = [ModuleSet::EMPTY; MAX_MODULES];
        for (set, &v) in sets.iter_mut().zip(ops) {
            *set = self.copies(v);
        }
        f(&sets[..ops.len()])
    }

    /// Whether `inst` can fetch all operands in one parallel access.
    pub fn instruction_conflict_free(&self, inst: &OperandSet) -> bool {
        self.with_copy_sets(inst, matching::instruction_conflict_free)
    }

    /// Fetch makespan of `inst` (1 = conflict-free); `None` if an operand is
    /// unplaced.
    pub fn fetch_makespan(&self, inst: &OperandSet) -> Option<usize> {
        self.with_copy_sets(inst, matching::fetch_makespan)
    }

    /// Number of values with exactly one copy.
    pub fn single_copy_count(&self) -> usize {
        self.copies.iter().filter(|s| s.len() == 1).count()
    }

    /// Number of values with more than one copy.
    pub fn multi_copy_count(&self) -> usize {
        self.copies.iter().filter(|s| s.len() > 1).count()
    }

    /// Total copies across all values.
    pub fn total_copies(&self) -> usize {
        self.copies.iter().map(|s| s.len()).sum()
    }

    /// Extra copies beyond one per placed value (the paper's "degree of
    /// duplication").
    pub fn extra_copies(&self) -> usize {
        self.copies
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| s.len() - 1)
            .sum()
    }

    /// Number of instructions in `trace` that still conflict.
    pub fn residual_conflicts(&self, trace: &AccessTrace) -> usize {
        trace
            .instructions
            .iter()
            .filter(|i| !self.instruction_conflict_free(i))
            .count()
    }
}

/// Which duplication/placement algorithm resolves `V_unassigned`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DuplicationStrategy {
    /// Paper §2.2.1 — per-instruction backtracking (Fig. 6).
    Backtrack,
    /// Paper §2.2.2 — global hitting-set duplication with grouped placement
    /// (Figs. 7, 9, 10). The paper's preferred algorithm.
    #[default]
    HittingSet,
}

/// Tunables for the end-to-end assignment.
#[derive(Clone, Copy, Debug)]
pub struct AssignParams {
    /// Duplication algorithm for uncolorable values.
    pub duplication: DuplicationStrategy,
    /// Whether to decompose the conflict graph into atoms first (paper §2.1).
    /// Disabling this is an ablation knob; results stay correct either way.
    pub use_atoms: bool,
    /// Worker threads for per-component coloring (`0` = auto, `1` =
    /// sequential); the conflict graph itself is always built on the calling
    /// thread. Results are byte-identical for every value: parallelism only
    /// changes who computes what, never the outcome.
    pub jobs: usize,
}

impl Default for AssignParams {
    fn default() -> Self {
        AssignParams {
            duplication: DuplicationStrategy::HittingSet,
            use_atoms: true,
            jobs: 0,
        }
    }
}

/// Statistics from one assignment run — the numbers Table 1 reports.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AssignmentReport {
    /// Scalars that ended with exactly one copy (Table 1 column "=1").
    pub single_copy: usize,
    /// Scalars that ended with multiple copies (Table 1 column ">1").
    pub multi_copy: usize,
    /// Total extra copies created beyond one per value.
    pub extra_copies: usize,
    /// Values the coloring heuristic could not color (`|V_unassigned|`).
    pub uncolored: usize,
    /// Number of atoms the conflict graph decomposed into.
    pub atoms: usize,
    /// Instructions still conflicting after duplication (should be 0 for
    /// traces whose instructions carry at most k operands).
    pub residual_conflicts: usize,
    /// Copies added by the final repair sweep (0 unless a heuristic failed).
    pub repair_copies: usize,
}

/// Run the full Fig. 2 pipeline on `trace`, starting from an empty
/// assignment.
pub fn assign_trace(trace: &AccessTrace, params: &AssignParams) -> (Assignment, AssignmentReport) {
    let mut a = Assignment::new(trace.modules);
    let report = assign_trace_into(trace, params, &mut a);
    (a, report)
}

/// Run the pipeline on `trace`, *extending* an existing assignment: values
/// that already have copies are treated as fixed (this is how the STOR2 and
/// STOR3 strategies stage their work). Only values with no copies yet are
/// colored/duplicated.
pub fn assign_trace_into(
    trace: &AccessTrace,
    params: &AssignParams,
    assignment: &mut Assignment,
) -> AssignmentReport {
    assert_eq!(
        assignment.modules(),
        trace.modules,
        "assignment and trace must agree on module count"
    );
    let k = trace.modules;
    // Staged strategies call in with earlier stages' values already placed;
    // those can leave conflicts here that only the strategy's final repair
    // over the whole program resolves.
    #[cfg(debug_assertions)]
    let fresh = assignment.total_copies() == 0;
    let mut pipeline_span = parmem_obs::span("assign.pipeline");
    pipeline_span.attr("k", k);
    pipeline_span.attr("instructions", trace.instructions.len());
    let g = {
        let mut gsp = parmem_obs::span("assign.graph");
        let g = ConflictGraph::build(trace);
        gsp.attr("nodes", g.len());
        g
    };

    // --- Coloring phase ---
    //
    // Per connected component: decompose into atoms (paper §2.1) and color
    // them in order, holding clique-separator vertices fixed across atoms.
    //
    // Components are vertex-disjoint, so each one only ever reads its *own*
    // values' pre-existing copies (stage fixing from STOR2/STOR3): coloring
    // every component against the assignment as it stood before the loop is
    // byte-identical to interleaving reads with the sequential apply order.
    // That independence is what lets large graphs fan components out across
    // the pool; results are applied sequentially in component order either
    // way, so the outcome does not depend on `jobs`.
    let color_span = parmem_obs::span("assign.color");
    let comps = g.connected_components();
    let comp_jobs = if g.len() >= PAR_COMPONENT_MIN_VERTICES {
        params.jobs
    } else {
        1
    };
    let colored = {
        let frozen: &Assignment = assignment;
        let progress = parmem_obs::progress("assign.components", comps.len() as u64);
        parmem_pool::map_indexed(comps, comp_jobs, |_, comp| {
            let cc = color_component(&g, &comp, k, params, frozen);
            progress.tick(1);
            cc
        })
    };

    let mut n_atoms = 0usize;
    let mut unassigned: Vec<ValueId> = Vec::new();
    let mut unassigned_mask = ValueMask::default();
    for cc in colored {
        n_atoms += cc.atoms;
        for (val, m) in cc.colors {
            assignment.add_copy(val, m);
        }
        for val in cc.unassigned {
            if unassigned_mask.insert(val) {
                unassigned.push(val);
            }
        }
    }
    drop(color_span);
    let uncolored = unassigned.len();

    // --- Duplication + placement phase ---
    let copies_before = assignment.extra_copies();
    match params.duplication {
        DuplicationStrategy::Backtrack => backtrack_duplicate(trace, &unassigned, assignment),
        DuplicationStrategy::HittingSet => hitting_set_duplicate(trace, &unassigned, assignment),
    }
    parmem_obs::counter_add(
        "assign.dup_copies",
        (assignment.extra_copies() - copies_before) as u64,
    );

    // --- Safety net: repair any instruction the heuristics left conflicting
    // (cannot happen for well-formed traces, but keeps the conflict-free
    // invariant machine-checked). Only instructions with ≤ k operands can be
    // repaired at all.
    let repair_copies = repair(trace, &unassigned_mask, assignment);

    parmem_obs::counter_add("assign.atoms", n_atoms as u64);
    parmem_obs::counter_add("assign.uncolorable", uncolored as u64);
    parmem_obs::counter_add("assign.repair_copies", repair_copies as u64);
    pipeline_span.attr("atoms", n_atoms);
    pipeline_span.attr("uncolored", uncolored);

    let report = AssignmentReport {
        single_copy: assignment.single_copy_count(),
        multi_copy: assignment.multi_copy_count(),
        extra_copies: assignment.extra_copies(),
        uncolored,
        atoms: n_atoms,
        residual_conflicts: assignment.residual_conflicts(trace),
        repair_copies,
    };
    #[cfg(debug_assertions)]
    debug_validate(trace, assignment, &report, fresh);
    report
}

/// Debug-build self-check run on every pipeline exit: the invariants the
/// heavier `parmem-verify` crate re-derives independently, asserted here in
/// their cheap form so a violation aborts at the point of construction
/// rather than surfacing later in a simulator mismatch.
#[cfg(debug_assertions)]
fn debug_validate(
    trace: &AccessTrace,
    assignment: &Assignment,
    report: &AssignmentReport,
    fresh: bool,
) {
    let k = trace.modules;
    let in_range = ModuleSet::all(k);
    let all_fit = trace.instructions.iter().all(|i| i.len() <= k);
    for v in trace.distinct_values() {
        let copies = assignment.copies(v);
        debug_assert_eq!(
            copies.0 & !in_range.0,
            0,
            "value {v:?} has a copy outside modules 0..{k}"
        );
        debug_assert!(
            !all_fit || !copies.is_empty(),
            "value {v:?} fetched by the trace has no module copy"
        );
    }
    // The published residual count must match a recount, and must be zero
    // whenever every instruction fits in the machine and no earlier stage
    // pre-placed values (repair guarantees it then).
    debug_assert_eq!(
        report.residual_conflicts,
        assignment.residual_conflicts(trace),
        "residual_conflicts drifted from a recount"
    );
    if all_fit && fresh {
        debug_assert_eq!(
            report.residual_conflicts, 0,
            "repair() left a fitting instruction conflicting"
        );
    }
    debug_assert_eq!(
        report.single_copy + report.multi_copy,
        assignment.placed_values().count(),
        "copy bookkeeping does not add up"
    );
}

/// Result of coloring one connected component, in [`ValueId`] terms so the
/// caller can apply it without re-deriving the dense-vertex mapping.
struct ColoredComponent {
    colors: Vec<(ValueId, ModuleId)>,
    unassigned: Vec<ValueId>,
    atoms: usize,
}

/// Color one connected component of `g` (read-only; safe to run on a pool
/// worker). Atoms decompose the component first (paper §2.1) unless it is
/// larger than the paper's graphs ([`ATOM_MAX_VERTICES`]), where the
/// decomposition costs more than it gains. Tarjan's theorem guarantees a
/// per-atom coloring extends to the whole graph, but only up to a
/// *permutation* of colors per atom, so the greedy heuristic with
/// hard-fixed separators can strand nodes an un-decomposed run would color.
/// When that happens we fall back to coloring the whole component at once
/// and keep the better result, so the decomposition never loses quality.
fn color_component(
    g: &ConflictGraph,
    comp: &[u32],
    k: usize,
    params: &AssignParams,
    frozen: &Assignment,
) -> ColoredComponent {
    let sub = g.induced(comp);
    let use_atoms = params.use_atoms && sub.len() <= ATOM_MAX_VERTICES;
    let mut n_atoms = 0usize;

    let (mut colors, mut unas) = if use_atoms {
        color_component_by_atoms(&sub, k, frozen, &mut n_atoms)
    } else {
        n_atoms += 1;
        let c = color_graph(&sub, k, |v| frozen.copies(sub.value(v)));
        (c.assigned, c.unassigned)
    };

    if use_atoms {
        // Fall back to whole-component coloring when the atom-wise merge
        // produced a violation (possible when stage-fixed values defeat
        // the permutation merge) or strands more nodes than a direct run
        // would. The direct run is valid by construction, so this keeps
        // atom decomposition a pure efficiency feature.
        let valid = merged_coloring_valid(&sub, &colors, frozen);
        if !valid || !unas.is_empty() {
            let whole = color_graph(&sub, k, |v| frozen.copies(sub.value(v)));
            if !valid || whole.unassigned.len() < unas.len() {
                colors = whole.assigned;
                unas = whole.unassigned;
            }
        }
    }

    ColoredComponent {
        colors: colors.into_iter().map(|(v, m)| (sub.value(v), m)).collect(),
        unassigned: unas.into_iter().map(|v| sub.value(v)).collect(),
        atoms: n_atoms,
    }
}

/// Color one connected component atom by atom.
///
/// Atoms are processed in *reverse* creation order: the decomposition
/// guarantees each earlier atom meets the union of later ones in exactly its
/// clique separator (Leimer's running-intersection property), so in the
/// reverse direction every atom overlaps the already-colored region in one
/// clique. Each atom is colored *independently* and its colors are then
/// permuted to agree on that clique — the constructive content of Tarjan's
/// theorem. When a permutation cannot align (only possible with stage-fixed
/// values from a previous STOR2/STOR3 stage), the atom falls back to
/// fixed-constraint coloring; the caller validates the merge and falls back
/// to whole-component coloring if needed.
fn color_component_by_atoms(
    sub: &ConflictGraph,
    k: usize,
    assignment: &Assignment,
    n_atoms: &mut usize,
) -> (Vec<(u32, ModuleId)>, Vec<u32>) {
    let atom_sets = atoms::atoms(sub);
    *n_atoms += atom_sets.len();
    let mut colors: Vec<(u32, ModuleId)> = Vec::new();
    // `local[v]`: the module vertex `v` of `sub` received from an earlier
    // atom; `in_unas[v]`: whether `v` is already in `unas` (kept in push
    // order).
    let mut local: Vec<Option<ModuleId>> = vec![None; sub.len()];
    let mut unas: Vec<u32> = Vec::new();
    let mut in_unas = vec![false; sub.len()];

    for atom in atom_sets.iter().rev() {
        let asub = sub.induced(atom);
        let stage_fixed_present = atom
            .iter()
            .any(|&sv| !assignment.copies(sub.value(sv)).is_empty());

        let mut merged = false;
        if !stage_fixed_present {
            // Independent coloring + permutation alignment.
            let fresh = color_graph(&asub, k, |_| ModuleSet::EMPTY);
            let mut perm: Vec<Option<ModuleId>> = vec![None; k];
            let mut used_target = ModuleSet::EMPTY;
            let mut ok = true;
            for &(v, m) in &fresh.assigned {
                let sv = atom[v as usize];
                if let Some(target) = local[sv as usize] {
                    match perm[m.index()] {
                        None => {
                            if used_target.contains(target) {
                                ok = false;
                                break;
                            }
                            perm[m.index()] = Some(target);
                            used_target.insert(target);
                        }
                        Some(t) if t != target => {
                            ok = false;
                            break;
                        }
                        _ => {}
                    }
                }
            }
            if ok {
                // Complete the permutation over all k modules.
                let mut free = ModuleSet::all(k).difference(used_target);
                for slot in perm.iter_mut() {
                    if slot.is_none() {
                        let m = free.first().expect("bijection completes");
                        free.remove(m);
                        *slot = Some(m);
                    }
                }
                for &(v, m) in &fresh.assigned {
                    let sv = atom[v as usize];
                    let target = perm[m.index()].expect("complete");
                    if local[sv as usize].is_none() {
                        local[sv as usize] = Some(target);
                        colors.push((sv, target));
                    }
                }
                for &v in &fresh.unassigned {
                    let sv = atom[v as usize];
                    if !in_unas[sv as usize] && local[sv as usize].is_none() {
                        in_unas[sv as usize] = true;
                        unas.push(sv);
                    }
                }
                merged = true;
            }
        }

        if !merged {
            // Fixed-constraint greedy (stage-fixed values present, or the
            // permutation failed).
            let coloring = color_graph(&asub, k, |v| {
                let sv = atom[v as usize];
                if let Some(m) = local[sv as usize] {
                    ModuleSet::singleton(m)
                } else {
                    assignment.copies(asub.value(v))
                }
            });
            for &(v, m) in &coloring.assigned {
                let sv = atom[v as usize];
                local[sv as usize] = Some(m);
                colors.push((sv, m));
            }
            for &v in &coloring.unassigned {
                let sv = atom[v as usize];
                if !in_unas[sv as usize] {
                    in_unas[sv as usize] = true;
                    unas.push(sv);
                }
            }
        }
    }

    (colors, unas)
}

/// Check a merged per-component coloring: no edge may join two same-colored
/// vertices, and no colored vertex may clash with a stage-fixed single-copy
/// neighbor.
fn merged_coloring_valid(
    sub: &ConflictGraph,
    colors: &[(u32, ModuleId)],
    assignment: &Assignment,
) -> bool {
    let mut color: Vec<Option<ModuleId>> = vec![None; sub.len()];
    for &(v, m) in colors {
        color[v as usize] = Some(m);
    }
    for (u, v, _) in sub.edges() {
        let cu = color[u as usize]
            .map(ModuleSet::singleton)
            .unwrap_or_else(|| {
                let s = assignment.copies(sub.value(u));
                if s.len() == 1 {
                    s
                } else {
                    ModuleSet::EMPTY
                }
            });
        let cv = color[v as usize]
            .map(ModuleSet::singleton)
            .unwrap_or_else(|| {
                let s = assignment.copies(sub.value(v));
                if s.len() == 1 {
                    s
                } else {
                    ModuleSet::EMPTY
                }
            });
        if !cu.is_empty() && cu == cv {
            return false;
        }
    }
    true
}

/// Greedy last-resort fix: for each conflicting instruction with ≤ k
/// operands, add copies of its duplicable operands until a matching exists.
/// Returns the number of copies added (0 in normal operation).
fn repair(trace: &AccessTrace, dup_ok: &ValueMask, assignment: &mut Assignment) -> usize {
    let k = trace.modules;
    let mut added = 0;
    for inst in &trace.instructions {
        if inst.len() > k || assignment.instruction_conflict_free(inst) {
            continue;
        }
        // Ensure every operand has at least one copy (unplaced values can
        // appear if a trace mentions values the coloring never saw — not
        // possible via the public pipeline, but cheap to guard).
        for v in inst.iter() {
            if !assignment.is_placed(v) {
                let used: ModuleSet = inst
                    .iter()
                    .filter(|&o| o != v)
                    .map(|o| assignment.copies(o))
                    .fold(ModuleSet::EMPTY, |acc, s| {
                        if s.len() == 1 {
                            acc.union(s)
                        } else {
                            acc
                        }
                    });
                let free = ModuleSet::all(k).difference(used);
                let m = free.first().unwrap_or(ModuleId(0));
                assignment.add_copy(v, m);
                added += 1;
            }
        }
        // Add copies of duplicable operands into free modules until matched.
        while !assignment.instruction_conflict_free(inst) {
            let occupied: ModuleSet = inst
                .iter()
                .map(|o| assignment.copies(o))
                .fold(ModuleSet::EMPTY, ModuleSet::union);
            let free = ModuleSet::all(k).difference(occupied);
            let candidate = inst
                .iter()
                .filter(|&v| dup_ok.contains(v) || !free.is_empty())
                .find(|&v| assignment.copies(v).len() < k);
            let Some(v) = candidate else { break };
            let target = free
                .first()
                .or_else(|| ModuleSet::all(k).difference(assignment.copies(v)).first());
            let Some(m) = target else { break };
            assignment.add_copy(v, m);
            added += 1;
        }
    }
    added
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig1() -> AccessTrace {
        AccessTrace::from_lists(3, &[&[1, 2, 4], &[2, 3, 5], &[2, 3, 4]])
    }

    #[test]
    fn assignment_bookkeeping() {
        let mut a = Assignment::new(4);
        a.add_copy(ValueId(2), ModuleId(1));
        a.add_copy(ValueId(2), ModuleId(3));
        a.add_copy(ValueId(7), ModuleId(0));
        assert_eq!(a.copies(ValueId(2)).len(), 2);
        assert_eq!(a.copies(ValueId(0)), ModuleSet::EMPTY);
        assert_eq!(a.single_copy_count(), 1);
        assert_eq!(a.multi_copy_count(), 1);
        assert_eq!(a.total_copies(), 3);
        assert_eq!(a.extra_copies(), 1);
        assert!(a.is_placed(ValueId(7)));
        assert!(!a.is_placed(ValueId(3)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_copy_checks_module_range() {
        let mut a = Assignment::new(2);
        a.add_copy(ValueId(0), ModuleId(2));
    }

    #[test]
    fn fig1_assigns_without_duplication() {
        // Paper Fig. 1: a conflict-free single-copy assignment exists.
        let (a, r) = assign_trace(&fig1(), &AssignParams::default());
        assert_eq!(r.multi_copy, 0, "report: {r:?}");
        assert_eq!(r.single_copy, 5);
        assert_eq!(r.residual_conflicts, 0);
        assert_eq!(r.repair_copies, 0);
        assert_eq!(a.residual_conflicts(&fig1()), 0);
    }

    #[test]
    fn fig1_extended_needs_duplication() {
        // Paper §2: adding {V2 V4 V5} makes single copies insufficient.
        let t = AccessTrace::from_lists(3, &[&[1, 2, 4], &[2, 3, 5], &[2, 3, 4], &[2, 4, 5]]);
        for dup in [
            DuplicationStrategy::Backtrack,
            DuplicationStrategy::HittingSet,
        ] {
            let params = AssignParams {
                duplication: dup,
                ..AssignParams::default()
            };
            let (a, r) = assign_trace(&t, &params);
            assert_eq!(r.residual_conflicts, 0, "{dup:?}: {r:?}");
            assert_eq!(a.residual_conflicts(&t), 0);
            // The paper resolves this with one extra copy (of V5).
            assert!(
                r.extra_copies >= 1 && r.extra_copies <= 2,
                "{dup:?} created {} extra copies",
                r.extra_copies
            );
        }
    }

    #[test]
    fn fig1_double_extension_reaches_three_copies() {
        // Paper §2: with {V2 V4 V5} and {V1 V4 V5} added, V5 may need a copy
        // in every module. Whatever the heuristics choose, the result must be
        // conflict-free.
        let t = AccessTrace::from_lists(
            3,
            &[&[1, 2, 4], &[2, 3, 5], &[2, 3, 4], &[2, 4, 5], &[1, 4, 5]],
        );
        for dup in [
            DuplicationStrategy::Backtrack,
            DuplicationStrategy::HittingSet,
        ] {
            let params = AssignParams {
                duplication: dup,
                ..AssignParams::default()
            };
            let (a, r) = assign_trace(&t, &params);
            assert_eq!(r.residual_conflicts, 0, "{dup:?}: {r:?}");
            assert_eq!(a.residual_conflicts(&t), 0);
        }
    }

    #[test]
    fn sixty_four_modules_assign_and_self_check() {
        // k = MAX_MODULES: a 64-value instruction fills every module, so the
        // debug self-check must accept copies in module 63.
        let wide: Vec<u32> = (0..64).collect();
        let t = AccessTrace::from_lists(64, &[&wide, &[0, 64, 65], &[1, 64, 66]]);
        for dup in [
            DuplicationStrategy::Backtrack,
            DuplicationStrategy::HittingSet,
        ] {
            let params = AssignParams {
                duplication: dup,
                ..AssignParams::default()
            };
            let (a, r) = assign_trace(&t, &params);
            assert_eq!(r.residual_conflicts, 0, "{dup:?}: {r:?}");
            assert!(
                (0..64).any(|v| a.copies(ValueId(v)).contains(ModuleId(63))),
                "{dup:?}: no value in module 63"
            );
        }
    }

    #[test]
    fn staged_assignment_respects_fixed_values() {
        let t = fig1();
        let mut a = Assignment::new(3);
        // Pre-place V2 in M2 (paper's Fig. 1 answer uses M3 for V2; any fixed
        // choice must be honored).
        a.add_copy(ValueId(2), ModuleId(1));
        let r = assign_trace_into(&t, &AssignParams::default(), &mut a);
        assert_eq!(a.copies(ValueId(2)), ModuleSet::singleton(ModuleId(1)));
        assert_eq!(r.residual_conflicts, 0);
    }

    #[test]
    fn atoms_toggle_gives_same_guarantee() {
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
        for use_atoms in [true, false] {
            let params = AssignParams {
                use_atoms,
                ..AssignParams::default()
            };
            let (a, r) = assign_trace(&t, &params);
            assert_eq!(r.residual_conflicts, 0, "use_atoms={use_atoms}: {r:?}");
            assert_eq!(a.residual_conflicts(&t), 0);
        }
    }

    #[test]
    fn oversized_instruction_is_reported_not_repaired() {
        // 3 operands, 2 modules: impossible; pipeline must not loop forever
        // and must report the residual conflict.
        let t = AccessTrace::from_lists(2, &[&[1, 2, 3]]);
        let (_, r) = assign_trace(&t, &AssignParams::default());
        assert_eq!(r.residual_conflicts, 1);
    }

    #[test]
    fn empty_trace() {
        let t = AccessTrace::new(4, vec![]);
        let (a, r) = assign_trace(&t, &AssignParams::default());
        assert_eq!(r.single_copy, 0);
        assert_eq!(a.total_copies(), 0);
        assert_eq!(r.residual_conflicts, 0);
    }
}

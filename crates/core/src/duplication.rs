//! Duplication strategies for the values the coloring heuristic could not
//! place (`V_unassigned`) — paper §2.2.
//!
//! Two algorithms, exactly as in the paper:
//!
//! * [`backtrack_duplicate`] (§2.2.1, Fig. 6) — instructions are processed
//!   one at a time, ordered by how many duplicable operands they carry; for
//!   each conflicting instruction an exhaustive backtracking search finds the
//!   placement of its duplicable operands that needs the fewest *new* copies.
//! * [`hitting_set_duplicate`] (§2.2.2, Figs. 7 & 9) — all instructions are
//!   examined together: two copies of every unassigned value remove all
//!   pairwise conflicts, then for growing combination sizes `3..k` a greedy
//!   minimum-hitting-set picks which values receive an additional copy, and
//!   the Fig. 10 placement algorithm decides where each copy goes.

use crate::assignment::Assignment;
use crate::layout::{place_values, DuplicationIndex};
use crate::matching;
use crate::types::{AccessTrace, ModuleId, ModuleSet, ValueId, ValueMask, MAX_MODULES};

// ---------------------------------------------------------------------------
// §2.2.1 Backtracking
// ---------------------------------------------------------------------------

/// Resolve all remaining conflicts by per-instruction backtracking (Fig. 6).
///
/// Instructions are partitioned into `S_1 .. S_k` by the number of operands
/// in `V_unassigned` and processed in ascending order (most-constrained
/// first); within a group, program order. For each still-conflicting
/// instruction, every assignment of operands to distinct modules is
/// enumerated (operands outside `V_unassigned` may only use their existing
/// copies) and the one creating the fewest new copies is applied.
pub fn backtrack_duplicate(
    trace: &AccessTrace,
    unassigned: &[ValueId],
    assignment: &mut Assignment,
) {
    let mut sp = parmem_obs::span("assign.dup.backtrack");
    sp.attr("unassigned", unassigned.len());
    let k = trace.modules;
    let dup_ok = ValueMask::new(unassigned);

    // Order: (|operands ∩ V_unassigned|, program index).
    let mut order: Vec<usize> = (0..trace.instructions.len())
        .filter(|&i| trace.instructions[i].len() <= k)
        .collect();
    order.sort_by_key(|&i| {
        let n_dup = trace.instructions[i]
            .iter()
            .filter(|&&v| dup_ok.contains(v))
            .count();
        (n_dup, i)
    });

    for idx in order {
        let inst = &trace.instructions[idx];
        if assignment.instruction_conflict_free(inst) {
            continue;
        }
        if let Some(plan) = best_instruction_placement(inst, &dup_ok, assignment, k) {
            for (v, m) in plan {
                assignment.add_copy(v, m);
            }
        }
    }
}

/// Find the minimum-new-copy conflict-free module choice for one
/// instruction. Returns the new copies to create (`(value, module)` pairs),
/// or `None` if no conflict-free placement exists (e.g. a non-duplicable
/// operand pair pinned to one module).
fn best_instruction_placement(
    inst: &[ValueId],
    dup_ok: &ValueMask,
    assignment: &Assignment,
    k: usize,
) -> Option<Vec<(ValueId, ModuleId)>> {
    #[derive(Clone)]
    struct Op {
        value: ValueId,
        existing: ModuleSet,
        duplicable: bool,
    }
    let mut ops: Vec<Op> = inst
        .iter()
        .map(|&v| Op {
            value: v,
            existing: assignment.copies(v),
            duplicable: dup_ok.contains(v),
        })
        .collect();
    // Most-constrained operands first: non-duplicable ones are limited to
    // their existing copies.
    ops.sort_by_key(|o| {
        if o.duplicable {
            k + o.existing.len()
        } else {
            o.existing.len()
        }
    });

    struct Search<'a> {
        ops: &'a [Op],
        all: ModuleSet,
        plan: Vec<(ValueId, ModuleId)>,
        best_cost: usize,
        best_plan: Option<Vec<(ValueId, ModuleId)>>,
        steps: u64,
    }

    impl Search<'_> {
        fn dfs(&mut self, i: usize, used: ModuleSet, cost: usize) {
            self.steps += 1;
            if cost >= self.best_cost {
                return; // prune: cannot improve
            }
            if i == self.ops.len() {
                self.best_cost = cost;
                self.best_plan = Some(self.plan.clone());
                return;
            }
            let op = self.ops[i].clone();
            // Try existing copies first (cost 0), then new copies (cost 1).
            for m in op.existing.difference(used).iter() {
                let mut used2 = used;
                used2.insert(m);
                self.dfs(i + 1, used2, cost);
            }
            if op.duplicable || op.existing.is_empty() {
                for m in self.all.difference(used.union(op.existing)).iter() {
                    let mut used2 = used;
                    used2.insert(m);
                    self.plan.push((op.value, m));
                    self.dfs(i + 1, used2, cost + 1);
                    self.plan.pop();
                }
            }
        }
    }

    let mut search = Search {
        ops: &ops,
        all: ModuleSet::all(k),
        plan: Vec::new(),
        best_cost: usize::MAX,
        best_plan: None,
        steps: 0,
    };
    search.dfs(0, ModuleSet::EMPTY, 0);
    parmem_obs::counter_add("assign.backtrack_steps", search.steps);
    search.best_plan
}

// ---------------------------------------------------------------------------
// §2.2.2 Hitting set
// ---------------------------------------------------------------------------

/// Resolve all remaining conflicts with the global hitting-set algorithm
/// (Fig. 7): place two copies of each unassigned value (eliminating all
/// pairwise conflicts), then for each combination size `3..=k` compute the
/// candidate sets of still-conflicting operand combinations, hit them with
/// the Fig. 9 greedy heuristic, and place the resulting copies with Fig. 10.
///
/// One [`DuplicationIndex`] serves every step; it lives only as long as
/// this call.
pub fn hitting_set_duplicate(
    trace: &AccessTrace,
    unassigned: &[ValueId],
    assignment: &mut Assignment,
) {
    let k = trace.modules;
    if unassigned.is_empty() {
        return;
    }
    let mut sp = parmem_obs::span("assign.dup.hitting_set");
    sp.attr("unassigned", unassigned.len());
    let mut index = DuplicationIndex::new(trace, unassigned, assignment);

    // First copies of every value in V_unassigned.
    let need_first: Vec<ValueId> = unassigned
        .iter()
        .copied()
        .filter(|&v| !assignment.is_placed(v))
        .collect();
    place_values(trace, &mut index, &need_first, assignment);

    // Second copies (conflicts between operand *pairs* disappear once every
    // duplicable value has two copies).
    if k >= 2 {
        let need_second: Vec<ValueId> = unassigned
            .iter()
            .copied()
            .filter(|&v| assignment.copies(v).len() == 1)
            .collect();
        place_values(trace, &mut index, &need_second, assignment);
    }

    // Combinations of 3..=k operands.
    for num in 3..=k {
        let family = conflicting_candidate_sets(trace, &index, assignment, num);
        if family.is_empty() {
            continue;
        }
        let hs = hitting_set(&family, k);
        place_values(trace, &mut index, &hs, assignment);
    }
}

/// For every `num`-operand combination drawn from a single instruction that
/// still has a memory access conflict, the set of its members that may be
/// duplicated further (in `V_unassigned`, with spare modules). Deduplicated
/// and sorted for determinism.
///
/// Only the index's still-conflicting instructions are enumerated: every
/// combination drawn from a conflict-free instruction is itself
/// conflict-free, and an instruction without a `V_unassigned` operand has
/// no candidates.
pub fn conflicting_candidate_sets(
    trace: &AccessTrace,
    index: &DuplicationIndex,
    assignment: &Assignment,
    num: usize,
) -> Vec<Vec<ValueId>> {
    let k = trace.modules;
    let mut family: Vec<Vec<ValueId>> = Vec::new();
    for ops in index.conflicting_instructions(trace) {
        if ops.len() < num || ops.len() > k {
            continue;
        }
        // Operand positions of the current combination, in lexicographic
        // order (starting at 0..num), and the members' copy sets.
        let mut combo: [usize; MAX_MODULES] = std::array::from_fn(|i| i);
        let mut sets = [ModuleSet::EMPTY; MAX_MODULES];
        loop {
            for (set, &c) in sets.iter_mut().zip(&combo[..num]) {
                *set = assignment.copies(ops[c]);
            }
            if !matching::instruction_conflict_free(&sets[..num]) {
                let cand: Vec<ValueId> = combo[..num]
                    .iter()
                    .map(|&c| ops[c])
                    .filter(|&v| index.is_unassigned(v) && assignment.copies(v).len() < k)
                    .collect();
                if !cand.is_empty() {
                    family.push(cand);
                }
            }
            if !next_combination(&mut combo[..num], ops.len()) {
                break;
            }
        }
    }
    family.sort_unstable();
    family.dedup();
    family
}

/// Advance `combo` (ascending positions into `0..n`) to the next
/// combination in lexicographic order; false after the last one.
fn next_combination(combo: &mut [usize], n: usize) -> bool {
    let r = combo.len();
    for i in (0..r).rev() {
        if combo[i] != i + n - r {
            combo[i] += 1;
            for j in i + 1..r {
                combo[j] = combo[j - 1] + 1;
            }
            return true;
        }
    }
    false
}

/// Greedy hitting-set heuristic (Fig. 9). `sets` are the candidate sets
/// (each with `1 ≤ |s| ≤ k`); returns a set of values intersecting every
/// input set. Singletons are forced; larger sets are processed in ascending
/// size, each uncovered set contributing its member with the
/// lexicographically largest occurrence profile `(S_{v,size}, .., S_{v,k})`.
///
/// Worst-case ratio vs. optimal is the harmonic bound `H_m` (paper §2.2.2.2).
pub fn hitting_set(sets: &[Vec<ValueId>], k: usize) -> Vec<ValueId> {
    // Every per-value table is indexed by the value's rank among the
    // distinct members.
    let mut members: Vec<ValueId> = sets.iter().flatten().copied().collect();
    members.sort_unstable();
    members.dedup();
    let rank = |v: ValueId| members.binary_search(&v).expect("v is a member");

    // Occurrence profile S[v][p] = number of sets of size p containing v.
    let mut profile = vec![0usize; members.len() * (k + 1)];
    for s in sets {
        let p = s.len().min(k);
        for &v in s {
            profile[rank(v) * (k + 1) + p] += 1;
        }
    }
    let tail =
        |v: ValueId, size: usize| &profile[rank(v) * (k + 1) + size..(rank(v) + 1) * (k + 1)];

    // Forced singletons.
    let mut chosen = vec![false; members.len()];
    for s in sets {
        if s.len() == 1 {
            chosen[rank(s[0])] = true;
        }
    }

    // Deterministic order: sets sorted by (size, contents).
    let mut ordered: Vec<&Vec<ValueId>> = sets.iter().collect();
    ordered.sort_by_key(|s| (s.len(), *s));

    for size in 2..=k {
        for s in ordered.iter().filter(|s| s.len() == size) {
            if s.iter().any(|&v| chosen[rank(v)]) {
                continue;
            }
            // Lexicographically largest (S_{v,size}, .., S_{v,k}); ties to
            // the smallest value id.
            let vn = s
                .iter()
                .copied()
                .max_by(|&a, &b| tail(a, size).cmp(tail(b, size)).then(b.cmp(&a)))
                .expect("candidate sets are non-empty");
            chosen[rank(vn)] = true;
        }
    }

    members
        .into_iter()
        .zip(chosen)
        .filter_map(|(v, c)| c.then_some(v))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::AccessTrace;

    fn vids(ids: &[u32]) -> Vec<ValueId> {
        ids.iter().map(|&i| ValueId(i)).collect()
    }

    // ---- hitting set ----

    #[test]
    fn hitting_set_hits_every_set() {
        let sets = vec![vids(&[1, 2]), vids(&[2, 3]), vids(&[4]), vids(&[1, 3, 5])];
        let hs = hitting_set(&sets, 4);
        for s in &sets {
            assert!(
                s.iter().any(|v| hs.contains(v)),
                "set {s:?} not hit by {hs:?}"
            );
        }
        assert!(hs.contains(&ValueId(4)), "singleton is forced");
    }

    #[test]
    fn hitting_set_prefers_frequent_elements() {
        // V2 occurs in all three 2-sets — one pick should cover them all.
        let sets = vec![vids(&[1, 2]), vids(&[2, 3]), vids(&[2, 4])];
        let hs = hitting_set(&sets, 4);
        assert_eq!(hs, vids(&[2]));
    }

    #[test]
    fn hitting_set_empty_input() {
        assert!(hitting_set(&[], 4).is_empty());
    }

    #[test]
    fn hitting_set_harmonic_worst_case_shape() {
        // Classic greedy-set-cover adversary: disjoint singleton-forcing is
        // avoided; here greedy picks the popular element first and still
        // hits everything.
        let sets = vec![
            vids(&[1, 10]),
            vids(&[1, 11]),
            vids(&[1, 12]),
            vids(&[10, 11]),
        ];
        let hs = hitting_set(&sets, 4);
        for s in &sets {
            assert!(s.iter().any(|v| hs.contains(v)));
        }
    }

    // ---- backtracking ----

    #[test]
    fn backtrack_resolves_single_instruction() {
        // V1@M0, V2@M0 both non-duplicable would be stuck; make V2 duplicable.
        let t = AccessTrace::from_lists(2, &[&[1, 2]]);
        let mut a = Assignment::new(2);
        a.add_copy(ValueId(1), ModuleId(0));
        a.add_copy(ValueId(2), ModuleId(0));
        backtrack_duplicate(&t, &vids(&[2]), &mut a);
        assert!(a.instruction_conflict_free(&t.instructions[0]));
        assert_eq!(a.copies(ValueId(2)).len(), 2);
    }

    #[test]
    fn backtrack_reuses_existing_copies() {
        // V9 already has a copy in M2; instruction {1,2,9} with V1@M0, V2@M1
        // needs no new copies at all.
        let t = AccessTrace::from_lists(3, &[&[1, 2, 9]]);
        let mut a = Assignment::new(3);
        a.add_copy(ValueId(1), ModuleId(0));
        a.add_copy(ValueId(2), ModuleId(1));
        a.add_copy(ValueId(9), ModuleId(0));
        a.add_copy(ValueId(9), ModuleId(2));
        let before = a.total_copies();
        backtrack_duplicate(&t, &vids(&[9]), &mut a);
        assert_eq!(a.total_copies(), before, "no new copies needed");
        assert!(a.instruction_conflict_free(&t.instructions[0]));
    }

    #[test]
    fn backtrack_minimizes_new_copies() {
        // Instruction {1,2,3}: V1@M0 fixed; V2 has copies {M0,M1}; V3@M0 only,
        // duplicable. One new copy of V3 (in M2) suffices — V2 uses M1.
        let t = AccessTrace::from_lists(3, &[&[1, 2, 3]]);
        let mut a = Assignment::new(3);
        a.add_copy(ValueId(1), ModuleId(0));
        a.add_copy(ValueId(2), ModuleId(0));
        a.add_copy(ValueId(2), ModuleId(1));
        a.add_copy(ValueId(3), ModuleId(0));
        backtrack_duplicate(&t, &vids(&[3]), &mut a);
        assert!(a.instruction_conflict_free(&t.instructions[0]));
        assert_eq!(a.copies(ValueId(3)).len(), 2);
        assert_eq!(a.copies(ValueId(2)).len(), 2, "V2 untouched");
    }

    #[test]
    fn backtrack_orders_constrained_instructions_first() {
        // S_1 before S_2 (paper's rationale): copies created for the forced
        // instruction should be reusable by the looser one.
        let t = AccessTrace::from_lists(3, &[&[7, 8], &[1, 2, 7]]);
        let mut a = Assignment::new(3);
        a.add_copy(ValueId(1), ModuleId(0));
        a.add_copy(ValueId(2), ModuleId(1));
        a.add_copy(ValueId(7), ModuleId(0));
        a.add_copy(ValueId(8), ModuleId(0));
        backtrack_duplicate(&t, &vids(&[7, 8]), &mut a);
        assert_eq!(a.residual_conflicts(&t), 0);
    }

    // ---- hitting-set duplication end to end ----

    #[test]
    fn hitting_set_duplicate_clears_all_conflicts() {
        // K5 as 3-operand instructions with k=3 (the Fig. 3 stream).
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
        let mut a = Assignment::new(3);
        // Simulate coloring: color V1,V2,V3 distinct; V4,V5 unassigned.
        a.add_copy(ValueId(1), ModuleId(0));
        a.add_copy(ValueId(2), ModuleId(1));
        a.add_copy(ValueId(3), ModuleId(2));
        hitting_set_duplicate(&t, &vids(&[4, 5]), &mut a);
        assert_eq!(a.residual_conflicts(&t), 0);
        assert!(a.copies(ValueId(4)).len() >= 2);
        assert!(a.copies(ValueId(5)).len() >= 2);
    }

    #[test]
    fn fig8_hitting_set_four_modules() {
        // Paper Fig. 8: k=4; during coloring V4 is removed. A good placement
        // needs only 3 copies of V4; a bad one needs 4. Our deterministic
        // heuristics must at least stay conflict-free and within 4 copies.
        let t = AccessTrace::from_lists(
            4,
            &[&[1, 2, 3, 5], &[4, 2, 3, 5], &[1, 2, 3, 4], &[4, 2, 1, 5]],
        );
        let mut a = Assignment::new(4);
        // Paper's coloring: V1→M2, V2→M3, V3→M4, V5→M1 (0-based: 1,2,3,0).
        a.add_copy(ValueId(1), ModuleId(1));
        a.add_copy(ValueId(2), ModuleId(2));
        a.add_copy(ValueId(3), ModuleId(3));
        a.add_copy(ValueId(5), ModuleId(0));
        hitting_set_duplicate(&t, &vids(&[4]), &mut a);
        assert_eq!(a.residual_conflicts(&t), 0);
        let n4 = a.copies(ValueId(4)).len();
        assert!(
            (2..=4).contains(&n4),
            "V4 has {n4} copies: {:?}",
            a.copies(ValueId(4))
        );
    }

    #[test]
    fn combinations_enumerate_correctly() {
        let all = |n: usize, r: usize| {
            let mut combo: Vec<usize> = (0..r).collect();
            let mut out = vec![combo.clone()];
            while next_combination(&mut combo, n) {
                out.push(combo.clone());
            }
            out
        };
        assert_eq!(
            all(4, 2),
            [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]].map(Vec::from)
        );
        assert_eq!(all(4, 4), vec![vec![0, 1, 2, 3]]);
        assert_eq!(
            all(4, 0),
            vec![Vec::<usize>::new()],
            "one empty combination"
        );
    }

    #[test]
    fn candidate_sets_only_include_conflicting_combos() {
        let t = AccessTrace::from_lists(3, &[&[1, 2, 3]]);
        let mut a = Assignment::new(3);
        a.add_copy(ValueId(1), ModuleId(0));
        a.add_copy(ValueId(2), ModuleId(1));
        a.add_copy(ValueId(3), ModuleId(0));
        a.add_copy(ValueId(3), ModuleId(1));
        let index = DuplicationIndex::new(&t, &vids(&[3]), &a);
        let fam = conflicting_candidate_sets(&t, &index, &a, 3);
        // {1,2,3} conflicts (V3 confined to M0/M1, both taken) → candidate {3}.
        assert_eq!(fam, vec![vids(&[3])]);
    }
}

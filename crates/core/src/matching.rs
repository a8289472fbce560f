//! Bipartite-matching utilities used to *verify* conflict freedom.
//!
//! An instruction with operands `o_1..o_r` is conflict-free under an
//! assignment iff each operand can be fetched from a *different* module that
//! holds one of its copies — i.e. iff the bipartite graph
//! (operands × modules-with-a-copy) has a perfect matching on the operand
//! side. This checker is independent of the constructive algorithms, so the
//! property tests use it as ground truth.
//!
//! The same machinery computes the *fetch makespan* of a conflicting
//! instruction: the smallest `L` such that operands can be served with at
//! most `L` fetches per module (each serialized fetch costs Δ in the paper's
//! §3 model).
//!
//! Every entry point runs the same kernel: Kuhn's augmenting-path matching
//! with a per-module capacity, whose working state (load per module,
//! module and service slot per operand) lives in fixed-size stack arrays
//! for up to [`MAX_MODULES`] operands. The conflict-freedom test, which the
//! duplication stage asks millions of times at scale, answers most calls
//! without matching at all.

use crate::types::{ModuleSet, MAX_MODULES};

/// Module index of an operand no module serves.
const UNMATCHED: u8 = u8::MAX;

/// Working state of one capacitated Kuhn run.
///
/// Each module serves its operands in slots `0..load`; when an augmenting
/// path reaches a full module it tries to move the occupants in slot order,
/// and a displaced occupant's slot passes to the operand that displaced it.
/// That order decides which of several minimum-makespan schedules comes
/// out, and the simulator's per-module loads depend on the choice, so the
/// slots are kept rather than re-derived. Finding a slot's occupant scans
/// the operands; that is cheap up to [`MAX_MODULES`] of them, and no
/// scheduled word is wider (the scheduler keeps memory operands ≤ k).
struct Kuhn<'a> {
    operands: &'a [ModuleSet],
    cap: u32,
    load: [u32; MAX_MODULES],
    module: &'a mut [u8],
    slot: &'a mut [u32],
}

impl Kuhn<'_> {
    /// The operand in slot `s` of module `m`.
    fn occupant(&self, m: usize, s: u32) -> usize {
        (0..self.module.len())
            .find(|&o| usize::from(self.module[o]) == m && self.slot[o] == s)
            .expect("slots below a module's load are occupied")
    }

    /// Try to match `op`, relocating occupants along an augmenting path.
    /// `visited` marks the modules this attempt has explored (the standard
    /// Kuhn invariant); a failed attempt changes nothing.
    fn augment(&mut self, op: usize, visited: &mut u64) -> bool {
        for m in self.operands[op].iter() {
            let mi = m.index();
            if *visited & (1u64 << mi) != 0 {
                continue;
            }
            *visited |= 1u64 << mi;
            let slot = if self.load[mi] < self.cap {
                self.load[mi] += 1;
                Some(self.load[mi] - 1)
            } else {
                (0..self.cap).find(|&s| {
                    let occupant = self.occupant(mi, s);
                    self.augment(occupant, visited)
                })
            };
            if let Some(s) = slot {
                self.module[op] = mi as u8;
                self.slot[op] = s;
                return true;
            }
        }
        false
    }
}

/// Match `operands` to modules, each module serving at most `cap` of them,
/// and hand `f` the module serving each operand ([`UNMATCHED`] if none).
/// Operands are matched in order, each by one augmenting-path search.
fn with_matching<R>(operands: &[ModuleSet], cap: usize, f: impl FnOnce(&[u8]) -> R) -> R {
    let n = operands.len();
    let run = |module: &mut [u8], slot: &mut [u32]| {
        let mut kuhn = Kuhn {
            operands,
            // A module never needs more slots than there are operands.
            cap: u32::try_from(cap.min(n)).expect("operand count fits u32"),
            load: [0; MAX_MODULES],
            module,
            slot,
        };
        for op in 0..n {
            kuhn.augment(op, &mut 0);
        }
    };
    if n <= MAX_MODULES {
        let (mut module, mut slot) = ([UNMATCHED; MAX_MODULES], [0u32; MAX_MODULES]);
        run(&mut module[..n], &mut slot[..n]);
        f(&module[..n])
    } else {
        let (mut module, mut slot) = (vec![UNMATCHED; n], vec![0u32; n]);
        run(&mut module, &mut slot);
        f(&module)
    }
}

/// Whether every operand is matched at capacity `cap`.
fn perfect(operands: &[ModuleSet], cap: usize) -> bool {
    with_matching(operands, cap, |module| !module.contains(&UNMATCHED))
}

/// The schedule as module numbers; the caller knows every operand matched.
fn schedule(module: &[u8]) -> Vec<u16> {
    debug_assert!(!module.contains(&UNMATCHED), "schedule has no gaps");
    module.iter().map(|&m| u16::from(m)).collect()
}

/// Maximum-cardinality matching between `operands` (each a [`ModuleSet`] of
/// modules holding a copy) and modules, where each module may serve at most
/// `cap` operands. Returns the number of matched operands.
pub fn max_matching_with_capacity(operands: &[ModuleSet], cap: usize) -> usize {
    with_matching(operands, cap, |module| {
        module.iter().filter(|&&m| m != UNMATCHED).count()
    })
}

/// True iff every operand can be served by a distinct module holding one of
/// its copies — the paper's definition of a conflict-free instruction.
///
/// An operand with an empty copy set (value not yet placed anywhere) makes
/// the instruction trivially non-conflict-free. Two more cases need no
/// matching: fewer modules hold copies than there are operands (Hall's
/// condition fails, so this is also every instruction wider than
/// [`MAX_MODULES`]), and every operand has exactly one copy (then the
/// copies are in distinct modules).
pub fn instruction_conflict_free(operands: &[ModuleSet]) -> bool {
    let mut union = ModuleSet::EMPTY;
    let mut single_copies = true;
    for &s in operands {
        if s.is_empty() {
            return false;
        }
        union = union.union(s);
        single_copies &= s.len() == 1;
    }
    if union.len() < operands.len() {
        return false;
    }
    single_copies || perfect(operands, 1)
}

/// Minimum fetch makespan: the smallest `L ≥ 1` such that all operands can be
/// served with at most `L` fetches per module. Equals 1 iff the instruction
/// is conflict-free. Returns `None` if some operand has no copy at all.
pub fn fetch_makespan(operands: &[ModuleSet]) -> Option<usize> {
    if operands.iter().any(|s| s.is_empty()) {
        return None;
    }
    if instruction_conflict_free(operands) {
        return Some(1);
    }
    // Binary search over L; feasibility is monotone in L, and the modules
    // holding copies must serve all n operands, so L ≥ ⌈n / |union|⌉.
    let n = operands.len();
    let union = operands.iter().fold(ModuleSet::EMPTY, |u, &s| u.union(s));
    let (mut lo, mut hi) = (n.div_ceil(union.len()).max(2), n);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if perfect(operands, mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(lo)
}

/// A minimum-makespan fetch schedule: assigns every operand to a module
/// holding one of its copies while minimizing the maximum per-module load.
/// Returns `(operand → module, makespan)`, or `None` if an operand has no
/// copy anywhere. Used by the simulator to serialize conflicting fetches.
pub fn makespan_schedule(operands: &[ModuleSet]) -> Option<(Vec<u16>, usize)> {
    if operands.is_empty() {
        return Some((Vec::new(), 0));
    }
    let l = fetch_makespan(operands)?;
    Some((with_matching(operands, l, schedule), l))
}

/// One concrete conflict-free fetch schedule (operand index → module), if the
/// instruction is conflict-free. Used by the simulator to pick which copy of
/// each value to read.
pub fn conflict_free_schedule(operands: &[ModuleSet]) -> Option<Vec<u16>> {
    if !instruction_conflict_free(operands) {
        return None;
    }
    Some(with_matching(operands, 1, schedule))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{ModuleId, ModuleSet};

    fn ms(modules: &[u16]) -> ModuleSet {
        modules.iter().map(|&m| ModuleId(m)).collect()
    }

    #[test]
    fn distinct_singletons_are_conflict_free() {
        let ops = [ms(&[0]), ms(&[1]), ms(&[2])];
        assert!(instruction_conflict_free(&ops));
        assert_eq!(fetch_makespan(&ops), Some(1));
    }

    #[test]
    fn same_module_singletons_conflict() {
        let ops = [ms(&[0]), ms(&[0])];
        assert!(!instruction_conflict_free(&ops));
        assert_eq!(fetch_makespan(&ops), Some(2));
    }

    #[test]
    fn duplicate_copy_resolves_conflict() {
        // Two values both in M0, but one also has a copy in M1.
        let ops = [ms(&[0]), ms(&[0, 1])];
        assert!(instruction_conflict_free(&ops));
    }

    #[test]
    fn augmenting_path_is_found() {
        // op0: {M0}, op1: {M0, M1}, op2: {M1}. Needs op1 to move to M1? No:
        // op2 needs M1, so op1 must take M0 — but op0 needs M0. Conflict.
        let ops = [ms(&[0]), ms(&[0, 1]), ms(&[1])];
        assert!(!instruction_conflict_free(&ops));
        assert_eq!(fetch_makespan(&ops), Some(2));

        // Give op1 a third copy: matching exists via displacement.
        let ops = [ms(&[0]), ms(&[0, 1, 2]), ms(&[1])];
        assert!(instruction_conflict_free(&ops));
        let sched = conflict_free_schedule(&ops).unwrap();
        assert_eq!(sched.len(), 3);
        let mut seen = std::collections::HashSet::new();
        for (i, &m) in sched.iter().enumerate() {
            assert!(ops[i].contains(ModuleId(m)), "schedule uses a real copy");
            assert!(seen.insert(m), "modules must be distinct");
        }
    }

    #[test]
    fn empty_copy_set_is_never_free() {
        let ops = [ms(&[]), ms(&[1])];
        assert!(!instruction_conflict_free(&ops));
        assert_eq!(fetch_makespan(&ops), None);
        assert!(conflict_free_schedule(&ops).is_none());
    }

    #[test]
    fn makespan_counts_worst_module_load() {
        // Four operands all only in M0.
        let ops = [ms(&[0]), ms(&[0]), ms(&[0]), ms(&[0])];
        assert_eq!(fetch_makespan(&ops), Some(4));
        // Spread two of them to M1: loads 2 + 2.
        let ops = [ms(&[0]), ms(&[0]), ms(&[0, 1]), ms(&[0, 1])];
        assert_eq!(fetch_makespan(&ops), Some(2));
    }

    #[test]
    fn empty_instruction_is_free() {
        assert!(instruction_conflict_free(&[]));
        assert_eq!(fetch_makespan(&[]), Some(1));
        assert_eq!(conflict_free_schedule(&[]), Some(vec![]));
    }

    #[test]
    fn capacity_zero_matches_nothing() {
        let ops = [ms(&[0])];
        assert_eq!(max_matching_with_capacity(&ops, 0), 0);
    }

    #[test]
    fn makespan_schedule_relocates_in_slot_order() {
        // Makespan 2 admits per-module loads (2, 2, 0) and (2, 1, 1) here,
        // and the simulator's t_ave depends on which comes out. Offering a
        // full module's occupants in the order they took their slots gives
        // the first; offering them in operand order would give the second.
        let ops = [ms(&[0, 1]), ms(&[0, 2]), ms(&[0, 1, 2]), ms(&[0])];
        assert_eq!(makespan_schedule(&ops), Some((vec![1, 0, 1, 0], 2)));
    }

    #[test]
    fn wider_than_the_stack_arrays() {
        // 65 operands, each with a copy in every one of 64 modules: one
        // module must serve two of them.
        let ops = vec![ModuleSet::all(64); 65];
        assert!(!instruction_conflict_free(&ops));
        assert!(conflict_free_schedule(&ops).is_none());
        assert_eq!(max_matching_with_capacity(&ops, 1), 64);
        assert_eq!(max_matching_with_capacity(&ops, 2), 65);
        assert_eq!(fetch_makespan(&ops), Some(2));
        let (sched, l) = makespan_schedule(&ops).unwrap();
        assert_eq!(l, 2);
        let mut loads = [0usize; 64];
        for &m in &sched {
            loads[m as usize] += 1;
        }
        assert_eq!(loads.iter().max(), Some(&2));
        assert_eq!(loads.iter().sum::<usize>(), 65);

        // All 65 confined to module 0: the makespan is the operand count.
        let ops = vec![ms(&[0]); 65];
        assert_eq!(fetch_makespan(&ops), Some(65));
        assert_eq!(max_matching_with_capacity(&ops, 1), 1);
    }
}

//! Fundamental identifier and container types shared across the crate.
//!
//! The paper's model: a program is a sequence of *long instructions*, each of
//! which simultaneously fetches up to `k` scalar operands (symbolic *data
//! values*) from `k` parallel memory modules. These types encode exactly that
//! view and nothing machine-specific — the front end (`liw-ir`) and scheduler
//! (`liw-sched`) lower real programs into an [`AccessTrace`].

use std::fmt;

/// Maximum number of memory modules supported by [`ModuleSet`]'s bitset
/// representation.
pub const MAX_MODULES: usize = 64;

/// A symbolic *data value* — one per definition of a program variable after
/// renaming (paper §2: "Corresponding to each definition of a variable, a
/// distinct data value is created").
///
/// Values are dense small integers so the algorithms can use flat arrays.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ValueId(pub u32);

impl ValueId {
    /// Index into dense per-value tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "V{}", self.0)
    }
}

impl fmt::Display for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "V{}", self.0)
    }
}

/// A set of [`ValueId`]s stored as one flag per value index: membership
/// without hashing, for sets drawn from a trace's dense value range.
#[derive(Clone, Debug, Default)]
pub struct ValueMask(Vec<bool>);

impl ValueMask {
    /// The set holding exactly `values`.
    pub fn new(values: &[ValueId]) -> ValueMask {
        let len = values.iter().map(|v| v.index() + 1).max().unwrap_or(0);
        let mut mask = ValueMask(vec![false; len]);
        for &v in values {
            mask.0[v.index()] = true;
        }
        mask
    }

    /// Add `v`; true if it was not already present.
    pub fn insert(&mut self, v: ValueId) -> bool {
        if v.index() >= self.0.len() {
            self.0.resize(v.index() + 1, false);
        }
        !std::mem::replace(&mut self.0[v.index()], true)
    }

    /// True if `v` is in the set.
    #[inline]
    pub fn contains(&self, v: ValueId) -> bool {
        self.0.get(v.index()).copied().unwrap_or(false)
    }

    /// The members, ascending.
    pub fn iter(&self) -> impl Iterator<Item = ValueId> + '_ {
        self.0
            .iter()
            .enumerate()
            .filter_map(|(i, &member)| member.then_some(ValueId(i as u32)))
    }
}

/// One of the `k` parallel memory modules, `M_1 .. M_k` in the paper.
/// Internally zero-based.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ModuleId(pub u16);

impl ModuleId {
    /// Index into dense per-module tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ModuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // One-based in display to match the paper's M_1..M_k convention.
        write!(f, "M{}", self.0 + 1)
    }
}

impl fmt::Display for ModuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "M{}", self.0 + 1)
    }
}

/// A set of memory modules, as a 64-bit bitset. Records in which modules a
/// data value has copies.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ModuleSet(pub u64);

impl ModuleSet {
    /// The empty module set.
    pub const EMPTY: ModuleSet = ModuleSet(0);

    /// The set containing every module `0..k`.
    #[inline]
    pub fn all(k: usize) -> ModuleSet {
        assert!(k <= MAX_MODULES, "at most {MAX_MODULES} modules supported");
        if k == MAX_MODULES {
            ModuleSet(u64::MAX)
        } else {
            ModuleSet((1u64 << k) - 1)
        }
    }

    /// The set containing only `m`.
    #[inline]
    pub fn singleton(m: ModuleId) -> ModuleSet {
        ModuleSet(1u64 << m.index())
    }

    /// True if no module is in the set.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of modules in the set.
    #[inline]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// True if `m` is in the set.
    #[inline]
    pub fn contains(self, m: ModuleId) -> bool {
        self.0 & (1u64 << m.index()) != 0
    }

    /// Add `m` to the set.
    #[inline]
    pub fn insert(&mut self, m: ModuleId) {
        self.0 |= 1u64 << m.index();
    }

    /// Remove `m` from the set.
    #[inline]
    pub fn remove(&mut self, m: ModuleId) {
        self.0 &= !(1u64 << m.index());
    }

    /// Set union.
    #[inline]
    pub fn union(self, other: ModuleSet) -> ModuleSet {
        ModuleSet(self.0 | other.0)
    }

    /// Set intersection.
    #[inline]
    pub fn intersection(self, other: ModuleSet) -> ModuleSet {
        ModuleSet(self.0 & other.0)
    }

    /// Modules in `self` but not `other`.
    #[inline]
    pub fn difference(self, other: ModuleSet) -> ModuleSet {
        ModuleSet(self.0 & !other.0)
    }

    /// Lowest-numbered module in the set, if any.
    #[inline]
    pub fn first(self) -> Option<ModuleId> {
        if self.0 == 0 {
            None
        } else {
            Some(ModuleId(self.0.trailing_zeros() as u16))
        }
    }

    /// Iterate modules in ascending order.
    pub fn iter(self) -> impl Iterator<Item = ModuleId> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let m = bits.trailing_zeros() as u16;
                bits &= bits - 1;
                Some(ModuleId(m))
            }
        })
    }
}

impl FromIterator<ModuleId> for ModuleSet {
    fn from_iter<T: IntoIterator<Item = ModuleId>>(iter: T) -> Self {
        let mut s = ModuleSet::EMPTY;
        for m in iter {
            s.insert(m);
        }
        s
    }
}

impl fmt::Debug for ModuleSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// The scalar operands one long instruction fetches simultaneously.
///
/// Stored sorted and deduplicated: fetching the same value twice in one
/// instruction needs only one module access, so duplicates carry no conflict
/// information.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct OperandSet {
    values: Vec<ValueId>,
}

impl OperandSet {
    /// Build an operand set (sorted, deduplicated).
    pub fn new(mut values: Vec<ValueId>) -> OperandSet {
        values.sort_unstable();
        values.dedup();
        OperandSet { values }
    }

    /// The operands, ascending.
    pub fn values(&self) -> &[ValueId] {
        &self.values
    }

    /// Number of distinct operands.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the instruction reads no scalars.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// True if `v` is an operand.
    pub fn contains(&self, v: ValueId) -> bool {
        self.values.binary_search(&v).is_ok()
    }

    /// Iterate the operands, ascending.
    pub fn iter(&self) -> impl Iterator<Item = ValueId> + '_ {
        self.values.iter().copied()
    }

    /// The operand set restricted to values satisfying `keep`.
    pub fn filtered(&self, mut keep: impl FnMut(ValueId) -> bool) -> OperandSet {
        OperandSet {
            values: self.values.iter().copied().filter(|&v| keep(v)).collect(),
        }
    }
}

impl fmt::Debug for OperandSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.values.iter()).finish()
    }
}

impl<const N: usize> From<[u32; N]> for OperandSet {
    fn from(ids: [u32; N]) -> Self {
        OperandSet::new(ids.iter().map(|&i| ValueId(i)).collect())
    }
}

/// A sequence of long-instruction operand fetches, plus the machine's module
/// count `k`. This is the sole input the assignment algorithms need.
#[derive(Clone, Debug)]
pub struct AccessTrace {
    /// Number of parallel memory modules (`k` in the paper).
    pub modules: usize,
    /// One entry per long instruction, in program order.
    pub instructions: Vec<OperandSet>,
}

impl AccessTrace {
    /// Build a trace, validating the module count.
    pub fn new(modules: usize, instructions: Vec<OperandSet>) -> AccessTrace {
        assert!(
            (1..=MAX_MODULES).contains(&modules),
            "module count must be in 1..={MAX_MODULES}"
        );
        AccessTrace {
            modules,
            instructions,
        }
    }

    /// Construct from integer literals, handy in tests and examples:
    /// `AccessTrace::from_lists(3, &[&[1,2,4], &[2,3,5]])`.
    pub fn from_lists(modules: usize, lists: &[&[u32]]) -> AccessTrace {
        AccessTrace::new(
            modules,
            lists
                .iter()
                .map(|l| OperandSet::new(l.iter().map(|&i| ValueId(i)).collect()))
                .collect(),
        )
    }

    /// All distinct values used anywhere in the trace, ascending. Value ids
    /// are dense by contract, so this marks a flag per id instead of
    /// sorting every occurrence.
    pub fn distinct_values(&self) -> Vec<ValueId> {
        let mut seen = ValueMask::default();
        for v in self.instructions.iter().flat_map(|i| i.iter()) {
            seen.insert(v);
        }
        seen.iter().collect()
    }

    /// Largest value index used, plus one (size for dense tables).
    pub fn value_table_len(&self) -> usize {
        self.instructions
            .iter()
            .flat_map(|i| i.iter())
            .map(|v| v.index() + 1)
            .max()
            .unwrap_or(0)
    }

    /// Number of instructions whose operand count exceeds `k` — such an
    /// instruction can never be conflict-free and indicates a scheduler bug.
    pub fn oversized_instructions(&self) -> usize {
        self.instructions
            .iter()
            .filter(|i| i.len() > self.modules)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn module_set_basic_ops() {
        let mut s = ModuleSet::EMPTY;
        assert!(s.is_empty());
        s.insert(ModuleId(3));
        s.insert(ModuleId(0));
        assert_eq!(s.len(), 2);
        assert!(s.contains(ModuleId(3)));
        assert!(!s.contains(ModuleId(1)));
        assert_eq!(s.first(), Some(ModuleId(0)));
        let collected: Vec<_> = s.iter().collect();
        assert_eq!(collected, vec![ModuleId(0), ModuleId(3)]);
        s.remove(ModuleId(0));
        assert_eq!(s.first(), Some(ModuleId(3)));
    }

    #[test]
    fn module_set_all_and_difference() {
        let all = ModuleSet::all(4);
        assert_eq!(all.len(), 4);
        let s = ModuleSet::singleton(ModuleId(2));
        let d = all.difference(s);
        assert_eq!(d.len(), 3);
        assert!(!d.contains(ModuleId(2)));
        assert_eq!(ModuleSet::all(MAX_MODULES).len(), MAX_MODULES);
    }

    #[test]
    fn operand_set_sorts_and_dedups() {
        let s = OperandSet::new(vec![ValueId(5), ValueId(1), ValueId(5), ValueId(3)]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.values(), &[ValueId(1), ValueId(3), ValueId(5)]);
        assert!(s.contains(ValueId(3)));
        assert!(!s.contains(ValueId(2)));
    }

    #[test]
    fn trace_distinct_values() {
        let t = AccessTrace::from_lists(3, &[&[1, 2, 4], &[2, 3, 5], &[2, 3, 4]]);
        assert_eq!(
            t.distinct_values(),
            vec![ValueId(1), ValueId(2), ValueId(3), ValueId(4), ValueId(5)]
        );
        assert_eq!(t.value_table_len(), 6);
        assert_eq!(t.oversized_instructions(), 0);
    }

    #[test]
    fn trace_flags_oversized_instructions() {
        let t = AccessTrace::from_lists(2, &[&[1, 2, 3], &[1, 2]]);
        assert_eq!(t.oversized_instructions(), 1);
    }

    #[test]
    #[should_panic(expected = "module count")]
    fn trace_rejects_zero_modules() {
        let _ = AccessTrace::from_lists(0, &[&[1]]);
    }

    #[test]
    fn module_set_from_iterator() {
        let s: ModuleSet = [ModuleId(1), ModuleId(4)].into_iter().collect();
        assert_eq!(s.len(), 2);
        assert!(s.contains(ModuleId(4)));
    }
}

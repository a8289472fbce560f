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

/// The operand sets of a sequence of long instructions, stored flat.
///
/// Instruction `i` fetches `operands[offsets[i]..offsets[i + 1]]`: its
/// distinct scalar operands, ascending. Fetching the same value twice in one
/// instruction needs only one module access, so duplicates carry no conflict
/// information and [`Instructions::push`] drops them. One offset array and
/// one operand array hold every instruction, so `I` instructions of `O`
/// operands in all take `4·(I + 1) + 4·O` bytes and two allocations, and a
/// pass over every operand is one contiguous scan.
#[derive(Clone, PartialEq, Eq)]
pub struct Instructions {
    /// Where each instruction's operands start, then where the last ends:
    /// `len() + 1` entries, the first 0, non-decreasing.
    offsets: Vec<u32>,
    /// Every instruction's operands, instruction by instruction.
    operands: Vec<ValueId>,
}

impl Instructions {
    /// No instructions.
    pub fn new() -> Instructions {
        Instructions::with_capacity(0, 0)
    }

    /// No instructions yet, with room for `instructions` instructions of
    /// `operands` operands in all: pushing that many, none repeated within
    /// its instruction, allocates nothing more.
    pub fn with_capacity(instructions: usize, operands: usize) -> Instructions {
        let mut offsets = Vec::with_capacity(instructions + 1);
        offsets.push(0);
        Instructions {
            offsets,
            operands: Vec::with_capacity(operands),
        }
    }

    /// Append one instruction fetching `operands`, which are sorted and
    /// deduplicated here.
    pub fn push(&mut self, operands: impl IntoIterator<Item = ValueId>) {
        let start = self.operands.len();
        self.operands.extend(operands);
        let new = &mut self.operands[start..];
        new.sort_unstable();
        let mut kept = 0;
        for i in 0..new.len() {
            if kept == 0 || new[i] != new[kept - 1] {
                new[kept] = new[i];
                kept += 1;
            }
        }
        self.operands.truncate(start + kept);
        self.end_instruction();
    }

    /// Close the instruction whose operands were appended last.
    fn end_instruction(&mut self) {
        let end = u32::try_from(self.operands.len())
            .expect("a trace holds at most u32::MAX operands in all");
        self.offsets.push(end);
    }

    /// Number of instructions.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True if there are no instructions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The instructions' operand sets, in order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            bounds: self.offsets.windows(2),
            operands: &self.operands,
        }
    }

    /// Every operand of every instruction, instruction by instruction.
    pub fn operands(&self) -> &[ValueId] {
        &self.operands
    }

    /// The instructions restricted to the operands `keep` accepts, in order,
    /// leaving out those with no operand left.
    pub fn projected(&self, mut keep: impl FnMut(ValueId) -> bool) -> Instructions {
        let mut out = Instructions::new();
        for inst in self {
            let start = out.operands.len();
            out.operands
                .extend(inst.iter().copied().filter(|&v| keep(v)));
            if out.operands.len() > start {
                out.end_instruction();
            }
        }
        out
    }

    /// A copy of the instructions in `range`, in order.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Instructions {
        let bounds = &self.offsets[range.start..=range.end];
        let (lo, hi) = (bounds[0], bounds[bounds.len() - 1]);
        Instructions {
            offsets: bounds.iter().map(|&o| o - lo).collect(),
            operands: self.operands[lo as usize..hi as usize].to_vec(),
        }
    }
}

impl Default for Instructions {
    fn default() -> Self {
        Instructions::new()
    }
}

impl std::ops::Index<usize> for Instructions {
    type Output = [ValueId];

    /// The operands of instruction `i`, ascending.
    #[inline]
    fn index(&self, i: usize) -> &[ValueId] {
        &self.operands[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

impl<'a> IntoIterator for &'a Instructions {
    type Item = &'a [ValueId];
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl<I: IntoIterator<Item = ValueId>> FromIterator<I> for Instructions {
    /// One instruction per item, each pushed with [`Instructions::push`].
    fn from_iter<T: IntoIterator<Item = I>>(iter: T) -> Self {
        let mut instructions = Instructions::new();
        for operands in iter {
            instructions.push(operands);
        }
        instructions
    }
}

impl fmt::Debug for Instructions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Iterator over the operand sets of [`Instructions`], in order.
#[derive(Clone, Debug)]
pub struct Iter<'a> {
    bounds: std::slice::Windows<'a, u32>,
    operands: &'a [ValueId],
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a [ValueId];

    #[inline]
    fn next(&mut self) -> Option<&'a [ValueId]> {
        let w = self.bounds.next()?;
        Some(&self.operands[w[0] as usize..w[1] as usize])
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.bounds.size_hint()
    }
}

impl ExactSizeIterator for Iter<'_> {}

/// A sequence of long-instruction operand fetches, plus the machine's module
/// count `k`. This is the sole input the assignment algorithms need.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AccessTrace {
    /// Number of parallel memory modules (`k` in the paper).
    pub modules: usize,
    /// The long instructions' operand sets, in program order.
    pub instructions: Instructions,
}

impl AccessTrace {
    /// Build a trace, validating the module count.
    pub fn new(modules: usize, instructions: Instructions) -> AccessTrace {
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
        let mut instructions =
            Instructions::with_capacity(lists.len(), lists.iter().map(|l| l.len()).sum());
        for l in lists {
            instructions.push(l.iter().map(|&i| ValueId(i)));
        }
        AccessTrace::new(modules, instructions)
    }

    /// All distinct values used anywhere in the trace, ascending. Value ids
    /// are dense by contract, so this marks a flag per id instead of
    /// sorting every occurrence.
    pub fn distinct_values(&self) -> Vec<ValueId> {
        let mut seen = ValueMask::default();
        for &v in self.instructions.operands() {
            seen.insert(v);
        }
        seen.iter().collect()
    }

    /// Largest value index used, plus one (size for dense tables).
    pub fn value_table_len(&self) -> usize {
        self.instructions
            .operands()
            .iter()
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
    fn push_sorts_and_dedups_each_instruction() {
        let mut insts = Instructions::new();
        insts.push([5, 1, 5, 3].map(ValueId));
        insts.push([]);
        insts.push([2, 2].map(ValueId));
        assert_eq!(insts.len(), 3);
        assert_eq!(&insts[0], &[ValueId(1), ValueId(3), ValueId(5)]);
        assert!(insts[1].is_empty());
        assert_eq!(&insts[2], &[ValueId(2)]);
        assert_eq!(insts.operands().len(), 4);
        let lens: Vec<usize> = insts.iter().map(<[ValueId]>::len).collect();
        assert_eq!(lens, vec![3, 0, 1]);
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

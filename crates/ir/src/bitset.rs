//! A dense fixed-capacity bit set — the workhorse domain of the powerset
//! analyses (liveness, reaching definitions, definite assignment) in
//! `parmem-lint`, of the reaching definitions behind [`crate::webs`], and of
//! the liveness behind `liw-opt`'s dead code elimination.
//!
//! The lint dataflow engine only requires `Clone + PartialEq` of its
//! domains; this set exists so the common powerset lattices get
//! word-parallel `join`/`transfer` operations instead of hashing.

/// A set of small integers in `0..capacity`, stored one bit each.
#[derive(PartialEq, Eq, Debug, Default)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl Clone for BitSet {
    fn clone(&self) -> BitSet {
        BitSet {
            words: self.words.clone(),
            capacity: self.capacity,
        }
    }

    /// Copy `source` into this set's own buffer, allocating only when the
    /// buffer is too small.
    fn clone_from(&mut self, source: &BitSet) {
        self.words.clone_from(&source.words);
        self.capacity = source.capacity;
    }
}

impl BitSet {
    /// The empty set over the universe `0..capacity`.
    pub fn new(capacity: usize) -> BitSet {
        BitSet {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// The full set over the universe `0..capacity` (the ⊤ of a must
    /// analysis).
    pub fn full(capacity: usize) -> BitSet {
        let mut words = vec![u64::MAX; capacity.div_ceil(64)];
        if let Some(last) = words.last_mut() {
            *last >>= (64 - capacity % 64) % 64;
        }
        BitSet { words, capacity }
    }

    /// Universe size this set was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Add `i`; returns `true` if it was not already present.
    pub fn insert(&mut self, i: usize) -> bool {
        debug_assert!(i < self.capacity);
        let (w, b) = (i / 64, 1u64 << (i % 64));
        let fresh = self.words[w] & b == 0;
        self.words[w] |= b;
        fresh
    }

    /// Remove `i`; returns `true` if it was present.
    pub fn remove(&mut self, i: usize) -> bool {
        debug_assert!(i < self.capacity);
        let (w, b) = (i / 64, 1u64 << (i % 64));
        let had = self.words[w] & b != 0;
        self.words[w] &= !b;
        had
    }

    /// Whether `i` is in the set.
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.capacity);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// `self ∪= other`; returns `true` if `self` changed.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        debug_assert_eq!(self.capacity, other.capacity);
        let mut changed = false;
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            let merged = *a | b;
            changed |= merged != *a;
            *a = merged;
        }
        changed
    }

    /// `self ∩= other`; returns `true` if `self` changed.
    pub fn intersect_with(&mut self, other: &BitSet) -> bool {
        debug_assert_eq!(self.capacity, other.capacity);
        let mut changed = false;
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            let merged = *a & b;
            changed |= merged != *a;
            *a = merged;
        }
        changed
    }

    /// `self −= other` (set difference).
    pub fn subtract(&mut self, other: &BitSet) {
        debug_assert_eq!(self.capacity, other.capacity);
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Remove and return the smallest member.
    pub fn pop_first(&mut self) -> Option<usize> {
        let wi = self.words.iter().position(|&w| w != 0)?;
        let w = &mut self.words[wi];
        let b = w.trailing_zeros() as usize;
        *w &= *w - 1;
        Some(wi * 64 + b)
    }

    /// Members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let b = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    wi * 64 + b
                })
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(100);
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert!(s.insert(99));
        assert!(s.contains(3) && s.contains(99) && !s.contains(4));
        assert_eq!(s.len(), 2);
        assert!(s.remove(3));
        assert!(!s.remove(3));
        assert!(!s.contains(3));
    }

    #[test]
    fn set_algebra() {
        let mut a = BitSet::new(70);
        let mut b = BitSet::new(70);
        a.insert(1);
        a.insert(65);
        b.insert(2);
        b.insert(65);
        let mut u = a.clone();
        assert!(u.union_with(&b));
        assert!(!u.union_with(&b), "idempotent");
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 2, 65]);
        let mut i = a.clone();
        assert!(i.intersect_with(&b));
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![65]);
        let mut d = u.clone();
        d.subtract(&a);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn pop_first_takes_members_in_ascending_order() {
        let mut s = BitSet::new(200);
        for i in [130, 3, 64, 199] {
            s.insert(i);
        }
        assert_eq!(s.pop_first(), Some(3));
        s.insert(1);
        let rest: Vec<usize> = std::iter::from_fn(|| s.pop_first()).collect();
        assert_eq!(rest, vec![1, 64, 130, 199]);
        assert!(s.is_empty());
    }

    #[test]
    fn clone_from_copies_into_the_buffer() {
        let mut a = BitSet::full(100);
        let b = BitSet::new(70);
        a.clone_from(&b);
        assert_eq!(a, b);
        assert_eq!(a.capacity(), 70);
    }

    #[test]
    fn full_is_everything() {
        let f = BitSet::full(130);
        assert_eq!(f.len(), 130);
        assert!(f.contains(0) && f.contains(129));
        assert_eq!(BitSet::full(128).len(), 128);
        assert!(BitSet::new(0).is_empty() && BitSet::full(0).is_empty());
    }
}

#![warn(missing_docs)]

//! Minimal, dependency-free re-implementation of the subset of the `rand`
//! 0.8 API this workspace uses. The build environment has no access to a
//! crates registry, so instead of the upstream crate we vendor exactly the
//! surface the code consumes:
//!
//! * [`RngCore`] / [`Rng`] with `gen_range` (integer ranges) and `gen_bool`,
//! * [`SeedableRng::seed_from_u64`],
//! * [`distributions::WeightedIndex`] + [`distributions::Distribution`],
//! * [`seq::SliceRandom::choose`].
//!
//! The generators are deterministic and seeded exactly like callers expect
//! (`seed_from_u64` expands the seed with SplitMix64, as upstream does).
//! Nothing in the workspace asserts particular stream *values* — only
//! reproducibility — so this implementation is behaviorally compatible.

/// Core trait: a source of uniformly distributed 64-bit words.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 random bits (upper half of [`RngCore::next_u64`]).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// User-facing convenience methods, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// A uniform sample from `range` (half-open or inclusive integer
    /// ranges).
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
        Self: Sized,
    {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "p={p} out of [0,1]");
        // 53 random bits → uniform f64 in [0,1).
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < p
    }
}

impl<R: RngCore> Rng for R {}

/// A range that can produce a uniform sample. Implemented for the integer
/// `Range` / `RangeInclusive` types the workspace uses.
pub trait SampleRange<T> {
    /// Draw one uniform sample.
    fn sample_single<R: RngCore>(self, rng: &mut R) -> T;
}

/// Uniform `u64` in `[0, span)` by widening multiply (Lemire); unbiased
/// enough for simulation purposes and exactly reproducible.
fn uniform_below<R: RngCore>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    // Widening-multiply rejection sampling: unbiased.
    let zone = span.wrapping_neg() % span; // 2^64 mod span
    loop {
        let x = rng.next_u64();
        let m = (x as u128) * (span as u128);
        if (m as u64) >= zone || zone == 0 {
            return (m >> 64) as u64;
        }
    }
}

macro_rules! impl_sample_range_uint {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: RngCore>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end - self.start) as u64;
                self.start + uniform_below(rng, span) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + uniform_below(rng, span + 1) as $t
            }
        }
    )*};
}

impl_sample_range_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: RngCore>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = self.end.wrapping_sub(self.start) as u64;
                self.start.wrapping_add(uniform_below(rng, span) as $t)
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = hi.wrapping_sub(lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(uniform_below(rng, span + 1) as $t)
            }
        }
    )*};
}

impl_sample_range_int!(i8, i16, i32, i64, isize);

/// A generator that can be constructed from a seed.
pub trait SeedableRng: Sized {
    /// Build from a 64-bit seed (expanded internally, upstream-style).
    fn seed_from_u64(state: u64) -> Self;
}

/// SplitMix64 — the seed-expansion function `rand` itself uses for
/// `seed_from_u64`, and a perfectly good small PRNG in its own right.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Start from the given state.
    pub fn new(state: u64) -> SplitMix64 {
        SplitMix64 { state }
    }
}

impl RngCore for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl SeedableRng for SplitMix64 {
    fn seed_from_u64(state: u64) -> SplitMix64 {
        SplitMix64::new(state)
    }
}

pub mod distributions {
    //! The `Distribution` trait and `WeightedIndex` (Zipf-style sampling in
    //! `parmem_core::synth` is the only consumer).

    use super::RngCore;
    use std::borrow::Borrow;
    use std::fmt;

    /// Types that can produce samples of `T` given a generator.
    pub trait Distribution<T> {
        /// Draw one sample.
        fn sample<R: RngCore>(&self, rng: &mut R) -> T;
    }

    /// Error constructing a [`WeightedIndex`].
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum WeightedError {
        /// No weights were supplied.
        NoItem,
        /// A weight was negative, NaN, or infinite.
        InvalidWeight,
        /// All weights are zero.
        AllWeightsZero,
    }

    impl fmt::Display for WeightedError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                WeightedError::NoItem => write!(f, "no weights provided"),
                WeightedError::InvalidWeight => write!(f, "invalid weight"),
                WeightedError::AllWeightsZero => write!(f, "all weights zero"),
            }
        }
    }

    impl std::error::Error for WeightedError {}

    /// Samples indices `0..n` proportionally to the given `f64` weights.
    #[derive(Clone, Debug)]
    pub struct WeightedIndex {
        cumulative: Vec<f64>,
        total: f64,
    }

    impl WeightedIndex {
        /// Build from any iterator of (borrowable) `f64` weights.
        pub fn new<I>(weights: I) -> Result<WeightedIndex, WeightedError>
        where
            I: IntoIterator,
            I::Item: Borrow<f64>,
        {
            let mut cumulative = Vec::new();
            let mut total = 0.0f64;
            for w in weights {
                let w = *w.borrow();
                if !w.is_finite() || w < 0.0 {
                    return Err(WeightedError::InvalidWeight);
                }
                total += w;
                cumulative.push(total);
            }
            if cumulative.is_empty() {
                return Err(WeightedError::NoItem);
            }
            if total <= 0.0 {
                return Err(WeightedError::AllWeightsZero);
            }
            Ok(WeightedIndex { cumulative, total })
        }
    }

    impl Distribution<usize> for WeightedIndex {
        fn sample<R: RngCore>(&self, rng: &mut R) -> usize {
            let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            let target = u * self.total;
            // First index whose cumulative weight exceeds the target.
            match self
                .cumulative
                .binary_search_by(|c| c.partial_cmp(&target).expect("finite weights"))
            {
                Ok(i) | Err(i) => i.min(self.cumulative.len() - 1),
            }
        }
    }
}

pub mod seq {
    //! Slice helpers (`choose`).

    use super::{RngCore, SampleRange};

    /// Random selection from slices.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// A uniformly random element, or `None` if empty.
        fn choose<R: RngCore>(&self, rng: &mut R) -> Option<&Self::Item>;

        /// Fisher–Yates shuffle in place.
        fn shuffle<R: RngCore>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn choose<R: RngCore>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                let i = (0..self.len()).sample_single(rng);
                Some(&self[i])
            }
        }

        fn shuffle<R: RngCore>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = (0..=i).sample_single(rng);
                self.swap(i, j);
            }
        }
    }
}

/// Glob-import convenience mirroring `rand::prelude`.
pub mod prelude {
    pub use super::distributions::Distribution;
    pub use super::seq::SliceRandom;
    pub use super::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::distributions::{Distribution, WeightedIndex};
    use super::seq::SliceRandom;
    use super::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = SplitMix64::new(1);
        for _ in 0..1000 {
            let a: usize = rng.gen_range(3..10);
            assert!((3..10).contains(&a));
            let b: u32 = rng.gen_range(0..=5);
            assert!(b <= 5);
            let c: i64 = rng.gen_range(-4..4);
            assert!((-4..4).contains(&c));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = SplitMix64::new(2);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2000..4000).contains(&hits), "{hits}");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let w = vec![0.0, 3.0, 1.0];
        let dist = WeightedIndex::new(&w).unwrap();
        let mut rng = SplitMix64::new(3);
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[dist.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[0], 0);
        assert!(counts[1] > counts[2] * 2, "{counts:?}");
    }

    #[test]
    fn weighted_index_rejects_bad_input() {
        assert!(WeightedIndex::new(Vec::<f64>::new()).is_err());
        assert!(WeightedIndex::new([0.0, 0.0]).is_err());
        assert!(WeightedIndex::new([-1.0]).is_err());
    }

    #[test]
    fn choose_covers_all_and_none_on_empty() {
        let mut rng = SplitMix64::new(4);
        let empty: [u8; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
        let items = [1, 2, 3, 4];
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[*items.choose(&mut rng).unwrap()] = true;
        }
        assert!(seen[1..].iter().all(|&s| s));
    }

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(9);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(9);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u64> = {
            let mut r = SplitMix64::new(10);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, c);
    }
}

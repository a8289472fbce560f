#![warn(missing_docs)]

//! Minimal vendored property-testing harness, source-compatible with the
//! subset of the `proptest` crate this workspace uses (the build
//! environment has no registry access). It provides:
//!
//! * [`Strategy`] with `prop_map`, `prop_flat_map`, `prop_recursive`,
//!   `boxed`, integer-range and tuple strategies,
//! * [`collection::vec`] and [`collection::btree_set`],
//! * the [`proptest!`], [`prop_assert!`], [`prop_assert_eq!`], and
//!   [`prop_oneof!`] macros,
//! * [`ProptestConfig::with_cases`].
//!
//! Cases are generated from a deterministic per-test seed so failures are
//! reproducible; there is no shrinking — the failing case's inputs are
//! printed in full instead.

use std::rc::Rc;

use rand::{RngCore, SampleRange, SplitMix64};

/// Deterministic generator handed to strategies.
#[derive(Clone, Debug)]
pub struct TestRng(SplitMix64);

impl TestRng {
    /// Build from a case seed.
    pub fn from_seed(seed: u64) -> TestRng {
        TestRng(SplitMix64::new(seed))
    }
}

impl RngCore for TestRng {
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
}

/// A failed property check (carried to the runner, which panics with
/// context).
#[derive(Clone, Debug)]
pub struct TestCaseError(pub String);

impl TestCaseError {
    /// Build from any message.
    pub fn fail(msg: impl Into<String>) -> TestCaseError {
        TestCaseError(msg.into())
    }
}

/// Per-`proptest!` block configuration.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Run `cases` random cases per test.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 256 }
    }
}

/// A generator of random values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Produce one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Generate a value, then generate from the strategy `f` builds from
    /// it.
    fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S2: Strategy,
        F: Fn(Self::Value) -> S2,
    {
        FlatMap { inner: self, f }
    }

    /// Recursive strategies: `self` generates leaves; `f` wraps an inner
    /// strategy into a branch. Nesting is bounded by `depth`. The
    /// `_desired_size` / `_expected_branch_size` tuning knobs of upstream
    /// proptest are accepted and ignored.
    fn prop_recursive<R, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        f: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + Clone + 'static,
        Self::Value: 'static,
        R: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> R,
    {
        let leaf = self.boxed();
        let mut strat = leaf.clone();
        for _ in 0..depth {
            let branch = f(strat).boxed();
            strat = Union::new(vec![leaf.clone(), branch]).boxed();
        }
        strat
    }

    /// Type-erase into a clonable handle.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
    {
        let inner = self;
        BoxedStrategy {
            generate: Rc::new(move |rng| inner.generate(rng)),
        }
    }
}

/// Type-erased, clonable strategy handle.
pub struct BoxedStrategy<T> {
    generate: Rc<dyn Fn(&mut TestRng) -> T>,
}

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> BoxedStrategy<T> {
        BoxedStrategy {
            generate: Rc::clone(&self.generate),
        }
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        (self.generate)(rng)
    }
}

/// See [`Strategy::prop_map`].
#[derive(Clone, Debug)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, U, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
#[derive(Clone, Debug)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, S2, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;

    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// Uniform choice between alternative strategies of one value type
/// (backing for [`prop_oneof!`]).
pub struct Union<T> {
    arms: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// Build from the given arms (must be non-empty).
    pub fn new(arms: Vec<BoxedStrategy<T>>) -> Union<T> {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<T> Clone for Union<T> {
    fn clone(&self) -> Union<T> {
        Union {
            arms: self.arms.clone(),
        }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        let i = (0..self.arms.len()).sample_single(rng);
        self.arms[i].generate(rng)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                self.clone().sample_single(rng)
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                self.clone().sample_single(rng)
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// A strategy that always yields clones of one value.
#[derive(Clone, Debug)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_tuple_strategy {
    ($($name:ident $idx:tt),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A 0);
impl_tuple_strategy!(A 0, B 1);
impl_tuple_strategy!(A 0, B 1, C 2);
impl_tuple_strategy!(A 0, B 1, C 2, D 3);
impl_tuple_strategy!(A 0, B 1, C 2, D 3, E 4);
impl_tuple_strategy!(A 0, B 1, C 2, D 3, E 4, F 5);

pub mod collection {
    //! Collection strategies (`vec`, `btree_set`).

    use super::{SampleRange, Strategy, TestRng};
    use std::collections::BTreeSet;

    /// Inclusive size bounds for generated collections.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> SizeRange {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    impl SizeRange {
        fn pick(self, rng: &mut TestRng) -> usize {
            (self.lo..=self.hi).sample_single(rng)
        }
    }

    /// `Vec` of values from `element`, with a size in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec`].
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// `BTreeSet` of distinct values from `element`, targeting a size in
    /// `size` (best-effort when the element domain is small).
    pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`btree_set`].
    #[derive(Clone, Debug)]
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let n = self.size.pick(rng);
            let mut set = BTreeSet::new();
            // Duplicates are possible; cap the attempts so tiny domains
            // cannot loop forever.
            for _ in 0..(16 * (n + 1)) {
                if set.len() >= n {
                    break;
                }
                set.insert(self.element.generate(rng));
            }
            set
        }
    }
}

/// Test-runner internals used by the [`proptest!`] expansion.
pub mod runner {
    use super::{ProptestConfig, TestCaseError, TestRng};

    /// Stable per-(test, case) seed: FNV-1a over the test name, mixed with
    /// the case index.
    pub fn case_seed(name: &str, case: u32) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h ^ ((case as u64) << 32) ^ case as u64
    }

    /// Run `config.cases` deterministic cases of `f`, panicking with the
    /// case's seed and message on the first failure.
    pub fn run<F>(config: ProptestConfig, name: &str, mut f: F)
    where
        F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
    {
        for case in 0..config.cases {
            let seed = case_seed(name, case);
            let mut rng = TestRng::from_seed(seed);
            if let Err(e) = f(&mut rng) {
                panic!(
                    "property `{name}` failed at case {case}/{} (seed {seed:#018x}):\n{}",
                    config.cases, e.0
                );
            }
        }
    }
}

/// Define property tests. Mirrors upstream `proptest!` syntax:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn my_prop(x in 0u32..10, v in proptest::collection::vec(0u32..4, 1..8)) {
///         prop_assert!(x < 10);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr) $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::ProptestConfig = $cfg;
                $crate::runner::run(__config, stringify!($name), |__rng| {
                    $(let $arg = $crate::Strategy::generate(&($strat), __rng);)+
                    let __inputs = format!(
                        concat!($(stringify!($arg), " = {:?}\n",)+),
                        $(&$arg),+
                    );
                    let __result: ::std::result::Result<(), $crate::TestCaseError> =
                        (move || {
                            $body
                            ::std::result::Result::Ok(())
                        })();
                    __result.map_err(|e| {
                        $crate::TestCaseError(format!("{}\ninputs:\n{}", e.0, __inputs))
                    })
                });
            }
        )*
    };
}

/// Fail the enclosing property if `cond` is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError(format!(
                "assertion failed: {}\n{}",
                stringify!($cond),
                format!($($fmt)+)
            )));
        }
    };
}

/// Fail the enclosing property if the two expressions differ.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (__left, __right) = (&$a, &$b);
        if !(__left == __right) {
            return ::std::result::Result::Err($crate::TestCaseError(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($a),
                stringify!($b),
                __left,
                __right
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (__left, __right) = (&$a, &$b);
        if !(__left == __right) {
            return ::std::result::Result::Err($crate::TestCaseError(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}\n{}",
                stringify!($a),
                stringify!($b),
                __left,
                __right,
                format!($($fmt)+)
            )));
        }
    }};
}

/// Uniform choice among strategies producing one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

/// Glob-import convenience mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
    pub use crate::{BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_and_tuples_generate_in_bounds() {
        let mut rng = crate::TestRng::from_seed(1);
        let s = (0u32..10, 5usize..=6);
        for _ in 0..100 {
            let (a, b) = s.generate(&mut rng);
            assert!(a < 10);
            assert!(b == 5 || b == 6);
        }
    }

    #[test]
    fn vec_respects_size_bounds() {
        let mut rng = crate::TestRng::from_seed(2);
        let s = crate::collection::vec(0u32..4, 2..5);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!((2..5).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 4));
        }
    }

    #[test]
    fn btree_set_yields_distinct_values() {
        let mut rng = crate::TestRng::from_seed(3);
        let s = crate::collection::btree_set(0u32..20, 1..5);
        for _ in 0..100 {
            let set = s.generate(&mut rng);
            assert!(!set.is_empty() && set.len() < 5);
        }
    }

    #[test]
    fn flat_map_dependent_generation() {
        let mut rng = crate::TestRng::from_seed(4);
        let s = (1usize..=4)
            .prop_flat_map(|k| crate::collection::vec(0usize..k, 1..=k).prop_map(move |v| (k, v)));
        for _ in 0..100 {
            let (k, v) = s.generate(&mut rng);
            assert!(v.len() <= k);
            assert!(v.iter().all(|&x| x < k));
        }
    }

    #[test]
    fn recursive_strategies_terminate() {
        #[derive(Clone, Debug)]
        enum Tree {
            Leaf(u32),
            Node(Vec<Tree>),
        }
        fn depth(t: &Tree) -> usize {
            match t {
                Tree::Leaf(v) => {
                    assert!(*v < 10, "leaf {v} outside its strategy's range");
                    0
                }
                Tree::Node(c) => 1 + c.iter().map(depth).max().unwrap_or(0),
            }
        }
        let leaf = (0u32..10).prop_map(Tree::Leaf);
        let s = leaf.prop_recursive(3, 8, 2, |inner| {
            crate::collection::vec(inner, 1..3).prop_map(Tree::Node)
        });
        let mut rng = crate::TestRng::from_seed(5);
        for _ in 0..200 {
            assert!(depth(&s.generate(&mut rng)) <= 3);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_generates_and_checks(x in 0u32..100, v in crate::collection::vec(0u32..5, 1..4)) {
            prop_assert!(x < 100);
            prop_assert_eq!(v.len(), v.len());
        }
    }

    #[test]
    #[should_panic(expected = "property `failing_prop` failed")]
    fn failing_property_panics_with_context() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]
            fn failing_prop(x in 0u32..10) {
                prop_assert!(x > 100, "x was {x}");
            }
        }
        failing_prop();
    }
}

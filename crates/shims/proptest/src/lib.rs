//! Offline drop-in subset of [proptest](https://crates.io/crates/proptest).
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the APIs it uses as path crates under `crates/shims/`. This shim
//! keeps proptest's surface (the `Strategy` trait with
//! `prop_map`/`prop_flat_map`/`boxed`/`no_shrink`, `prop::collection::vec`,
//! tuple and `Vec<BoxedStrategy<_>>` composition, the `proptest!` /
//! `prop_assert!` / `prop_assert_eq!` macros and `ProptestConfig`) but
//! implements it as a plain deterministic generator: each test runs
//! `cases` random inputs seeded from a stable hash of the test name, and a
//! failing case panics with the case number. There is **no shrinking** —
//! rerunning reproduces the identical failing input, which is what matters
//! for a fixed-seed CI suite.

use std::ops::{Range, RangeInclusive};

/// Everything needed for `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::{
        prop, prop_assert, prop_assert_eq, prop_assert_ne, proptest, BoxedStrategy, Just,
        ProptestConfig, Strategy, TestCaseError,
    };
}

/// Deterministic SplitMix64 generator driving all strategies.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeded construction.
    pub(crate) fn new(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// Next raw 64-bit output.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, n)`; `n` must be nonzero.
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }
}

/// A value generator (proptest's `Strategy`, minus shrinking).
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Produce one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Map generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Build a dependent strategy from each generated value.
    fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S2: Strategy,
        F: Fn(Self::Value) -> S2,
    {
        FlatMap { inner: self, f }
    }

    /// Type-erase the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }

    /// Disable shrinking (a no-op here; the shim never shrinks).
    fn no_shrink(self) -> Self
    where
        Self: Sized,
    {
        self
    }
}

/// A boxed, type-erased strategy.
pub struct BoxedStrategy<T>(Box<dyn Strategy<Value = T>>);

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.generate(rng)
    }
}

/// Strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// `prop_map` adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// `prop_flat_map` adapter.
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, F, S2> Strategy for FlatMap<S, F>
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

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let lo = self.start as i128;
                let hi = self.end as i128;
                assert!(lo < hi, "empty range strategy");
                let span = (hi - lo) as u64;
                (lo + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let lo = *self.start() as i128;
                let hi = *self.end() as i128;
                assert!(lo <= hi, "empty range strategy");
                let span = (hi - lo + 1) as u64;
                (lo + rng.below(span) as i128) as $t
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// A `Vec` of strategies generates a `Vec` of values element-wise.
impl<S: Strategy> Strategy for Vec<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        self.iter().map(|s| s.generate(rng)).collect()
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($n:ident . $i:tt),+))*) => {$(
        impl<$($n: Strategy),+> Strategy for ($($n,)+) {
            type Value = ($($n::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$i.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
}

/// Namespaced strategy constructors (`prop::collection::vec`).
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use crate::{Strategy, TestRng};
        use std::ops::{Range, RangeInclusive};

        /// Inclusive-exclusive size bounds for generated collections.
        #[derive(Debug, Clone, Copy)]
        pub struct SizeRange {
            lo: usize,
            hi: usize,
        }

        impl From<usize> for SizeRange {
            fn from(n: usize) -> Self {
                SizeRange { lo: n, hi: n + 1 }
            }
        }

        impl From<Range<usize>> for SizeRange {
            fn from(r: Range<usize>) -> Self {
                assert!(r.start < r.end, "empty size range");
                SizeRange {
                    lo: r.start,
                    hi: r.end,
                }
            }
        }

        impl From<RangeInclusive<usize>> for SizeRange {
            fn from(r: RangeInclusive<usize>) -> Self {
                SizeRange {
                    lo: *r.start(),
                    hi: *r.end() + 1,
                }
            }
        }

        /// Strategy producing `Vec`s of values from an element strategy.
        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let span = (self.size.hi - self.size.lo) as u64;
                let len = self.size.lo
                    + if span > 0 {
                        rng.below(span) as usize
                    } else {
                        0
                    };
                (0..len).map(|_| self.element.generate(rng)).collect()
            }
        }

        /// `vec(element, len_or_range)`: a `Vec` strategy.
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                element,
                size: size.into(),
            }
        }
    }
}

/// Per-test configuration (`cases` only).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each test runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// Configuration running `cases` random inputs per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A failed property (carried by `prop_assert!` early returns).
#[derive(Debug)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    /// Build a failure with a message.
    pub fn fail(message: impl Into<String>) -> Self {
        TestCaseError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

/// Stable FNV-1a hash of the test name, used as the deterministic seed.
fn seed_for(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Driver used by the `proptest!` macro expansion: run `cases` inputs,
/// panicking with the case number on the first failure.
pub fn run_proptest<F>(config: &ProptestConfig, name: &str, mut case: F)
where
    F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
{
    let mut rng = TestRng::new(seed_for(name));
    for i in 0..config.cases {
        if let Err(e) = case(&mut rng) {
            panic!("proptest '{name}' failed at case {i}/{}: {e}", config.cases);
        }
    }
}

/// Assert a boolean property inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Assert equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let left = $left;
        let right = $right;
        $crate::prop_assert!(
            left == right,
            "assertion failed: `left == right`\n  left: `{:?}`\n right: `{:?}`",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let left = $left;
        let right = $right;
        $crate::prop_assert!(left == right, $($fmt)*);
    }};
}

/// Assert inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let left = $left;
        let right = $right;
        $crate::prop_assert!(
            left != right,
            "assertion failed: `left != right`\n  both: `{:?}`",
            left
        );
    }};
}

/// Define property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` random inputs.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident ( $( $pat:pat in $strat:expr ),* $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                $crate::run_proptest(&$config, stringify!($name), |rng| {
                    $(
                        let $pat = {
                            let strategy = $strat;
                            $crate::Strategy::generate(&strategy, rng)
                        };
                    )*
                    $body
                    ::core::result::Result::Ok(())
                });
            }
        )*
    };
    (
        $(
            $(#[$meta:meta])*
            fn $name:ident ( $( $pat:pat in $strat:expr ),* $(,)? ) $body:block
        )*
    ) => {
        $crate::proptest! {
            #![proptest_config($crate::ProptestConfig::default())]
            $(
                $(#[$meta])*
                fn $name ( $( $pat in $strat ),* ) $body
            )*
        }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::TestRng::new(1);
        for _ in 0..1000 {
            let v = crate::Strategy::generate(&(3u32..17), &mut rng);
            assert!((3..17).contains(&v));
            let w = crate::Strategy::generate(&(-5i32..5), &mut rng);
            assert!((-5..5).contains(&w));
            let x = crate::Strategy::generate(&(2usize..=3), &mut rng);
            assert!((2..=3).contains(&x));
        }
    }

    #[test]
    fn composition_generates_expected_shapes() {
        let strat = (2usize..=3)
            .prop_flat_map(|order| {
                prop::collection::vec(1u32..10, order)
                    .prop_map(|dims| dims.iter().map(|&d| d as u64).sum::<u64>())
            })
            .no_shrink();
        let mut rng = crate::TestRng::new(9);
        for _ in 0..100 {
            let total = crate::Strategy::generate(&strat, &mut rng);
            assert!((2..=27).contains(&total));
        }
    }

    #[test]
    fn vec_of_boxed_strategies_is_a_strategy() {
        let coords: Vec<BoxedStrategy<u32>> = vec![(0u32..4).boxed(), (0u32..7).boxed()];
        let entry = (coords, -50i32..50).prop_map(|(c, v)| (c, v));
        let mut rng = crate::TestRng::new(5);
        let (c, v) = crate::Strategy::generate(&entry, &mut rng);
        assert_eq!(c.len(), 2);
        assert!(c[0] < 4 && c[1] < 7);
        assert!((-50..50).contains(&v));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_binds_multiple_args(a in 0usize..10, (b, c) in (0u32..5, 1u8..=4)) {
            prop_assert!(a < 10);
            prop_assert!(b < 5);
            prop_assert!((1..=4).contains(&c), "c out of range: {c}");
            prop_assert_eq!(a, a);
            prop_assert_ne!(c as usize, 100);
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failing_property_panics_with_case_number() {
        crate::run_proptest(&ProptestConfig::with_cases(4), "always_fails", |_rng| {
            prop_assert!(false);
            ::core::result::Result::Ok(())
        });
    }
}

//! Workspace-local shim with the `proptest` API subset this repository's
//! property tests use.
//!
//! The real `proptest` is a registry crate; this repository builds in
//! network-restricted environments, so the workspace carries a compact
//! random-testing harness as a path dependency. Supported surface:
//! [`proptest!`] with an optional `#![proptest_config(..)]` header,
//! integer/float range strategies, tuples, `any::<T>()`,
//! `prop::collection::{vec, btree_set}`, `prop::option::of`,
//! [`Strategy::prop_map`], and the `prop_assert*` macros.
//!
//! Differences from upstream: cases are drawn from a seed derived from the
//! test name (override with `PROPTEST_SEED`), and failing inputs are not
//! shrunk — the failing case index and seed are printed for replay.

#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![warn(missing_docs)]

use rand::prelude::*;

/// Per-test configuration (`#![proptest_config(..)]`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// The shim's test-case generator.
// Structural: strategies receive `&mut TestRng` without naming the type.
// lint:allow(shim-surface-drift)
pub type TestRng = StdRng;

/// Derives the base RNG for a named test: `PROPTEST_SEED` if set, else a
/// stable hash of the test name.
fn rng_for(test_name: &str) -> TestRng {
    let seed = match std::env::var("PROPTEST_SEED") {
        Ok(s) => s.parse::<u64>().unwrap_or(0xF00D),
        Err(_) => {
            // FNV-1a over the name: stable across runs and platforms.
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in test_name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            h
        }
    };
    TestRng::seed_from_u64(seed)
}

/// A value generator (no shrinking in the shim).
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

/// [`Strategy::prop_map`] adapter.
#[derive(Debug, Clone)]
// Structural: the return type of `prop_map`. lint:allow(shim-surface-drift)
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

/// A strategy for any value of `T` ([`any`]).
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(core::marker::PhantomData<T>);

/// `any::<T>()` — arbitrary values of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(core::marker::PhantomData)
}

/// Types with a canonical "arbitrary value" strategy.
// Structural: the bound of `any::<T>()`. lint:allow(shim-surface-drift)
pub trait Arbitrary: Sized {
    /// Draws an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.gen_bool(0.5)
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);
impl_tuple_strategy!(A, B, C, D, E, F, G);
impl_tuple_strategy!(A, B, C, D, E, F, G, H);
impl_tuple_strategy!(A, B, C, D, E, F, G, H, I);
impl_tuple_strategy!(A, B, C, D, E, F, G, H, I, J);

/// Collection size specification: a fixed count or a half-open range.
#[derive(Debug, Clone, Copy)]
// Structural: callers pass `usize`/ranges through `impl Into<SizeRange>`.
// lint:allow(shim-surface-drift)
pub struct SizeRange {
    lo: usize,
    hi: usize, // exclusive
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n + 1 }
    }
}

impl From<core::ops::Range<usize>> for SizeRange {
    fn from(r: core::ops::Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange { lo: r.start, hi: r.end }
    }
}

impl From<core::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: core::ops::RangeInclusive<usize>) -> Self {
        SizeRange { lo: *r.start(), hi: *r.end() + 1 }
    }
}

impl SizeRange {
    fn sample(&self, rng: &mut TestRng) -> usize {
        rng.gen_range(self.lo..self.hi)
    }
}

/// Strategy combinators namespaced like upstream `proptest::prop`.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::{SizeRange, Strategy, TestRng};

        /// Strategy for `Vec<S::Value>` with a size drawn from `size`.
        #[derive(Debug, Clone)]
        // Structural: the return type of `vec()`. lint:allow(shim-surface-drift)
        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        /// `vec(element, size)` — vectors of `element` values.
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy { element, size: size.into() }
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let n = self.size.sample(rng);
                (0..n).map(|_| self.element.generate(rng)).collect()
            }
        }

        /// Strategy for `BTreeSet<S::Value>`.
        #[derive(Debug, Clone)]
        // Structural: the return type of `btree_set()`. lint:allow(shim-surface-drift)
        pub struct BTreeSetStrategy<S> {
            element: S,
            size: SizeRange,
        }

        /// `btree_set(element, size)` — sets with a *target* size drawn
        /// from `size`; duplicates shrink the realized size, as upstream.
        pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
        where
            S: Strategy,
            S::Value: Ord,
        {
            BTreeSetStrategy { element, size: size.into() }
        }

        impl<S: Strategy> Strategy for BTreeSetStrategy<S>
        where
            S::Value: Ord,
        {
            type Value = std::collections::BTreeSet<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let n = self.size.sample(rng);
                (0..n).map(|_| self.element.generate(rng)).collect()
            }
        }
    }

    /// Option strategies.
    pub mod option {
        use super::super::{Strategy, TestRng};
        use rand::Rng;

        /// Strategy for `Option<S::Value>`, `None` 25% of the time.
        #[derive(Debug, Clone)]
        // Structural: the return type of `of()`. lint:allow(shim-surface-drift)
        pub struct OptionStrategy<S> {
            inner: S,
        }

        /// `of(element)` — `Some(element)` or `None`.
        pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
            OptionStrategy { inner }
        }

        impl<S: Strategy> Strategy for OptionStrategy<S> {
            type Value = Option<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                if rng.gen_bool(0.75) {
                    Some(self.inner.generate(rng))
                } else {
                    None
                }
            }
        }
    }
}

/// Runs `cases` random executions of a closure over generated inputs.
/// Used by the [`proptest!`] expansion; panics propagate with a replay
/// header identifying the failing case.
#[expect(clippy::print_stderr, reason = "failure-replay reporting is part of the harness contract")]
pub fn run_cases(test_name: &str, cases: u32, mut case_fn: impl FnMut(&mut TestRng)) {
    let mut rng = rng_for(test_name);
    for case in 0..cases {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            case_fn(&mut rng)
        }));
        if let Err(payload) = result {
            eprintln!(
                "proptest shim: `{test_name}` failed at case {case}/{cases} \
                 (set PROPTEST_SEED to replay a fixed stream)"
            );
            std::panic::resume_unwind(payload);
        }
    }
}

/// Defines property tests: `proptest! { #[test] fn f(x in strat) { .. } }`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_config ($cfg) $($rest)*);
    };
    (@with_config ($cfg:expr)
        $($(#[$meta:meta])* fn $name:ident($($arg:pat_param in $strat:expr),* $(,)?) $body:block)*
    ) => {
        $(
            #[test]
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                $crate::run_cases(stringify!($name), config.cases, |rng| {
                    $(let $arg = $crate::Strategy::generate(&($strat), rng);)*
                    $body
                });
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@with_config ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// `assert!` under a proptest-compatible name.
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// `assert_eq!` under a proptest-compatible name.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Common imports, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::prop;
    pub use crate::{any, Arbitrary, ProptestConfig, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, proptest};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_sample_in_bounds(x in 0u32..10, y in -4i64..=4, f in 0.25f64..0.75) {
            prop_assert!(x < 10);
            prop_assert!((-4..=4).contains(&y));
            prop_assert!((0.25..0.75).contains(&f));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn collections_and_tuples(
            v in prop::collection::vec((0u8..4, 0i64..100), 0..6),
            s in prop::collection::btree_set(0u32..50, 0..10),
            o in prop::option::of(1usize..3),
            b in any::<bool>(),
        ) {
            prop_assert!(v.len() < 6);
            prop_assert!(s.len() < 10);
            prop_assert!(s.iter().all(|&x| x < 50));
            if let Some(x) = o {
                prop_assert!((1..3).contains(&x));
            }
            let _ = b;
        }

        #[test]
        fn prop_map_applies(doubled in (0u32..10).prop_map(|x| x * 2)) {
            prop_assert_eq!(doubled % 2, 0);
            prop_assert!(doubled < 20);
        }
    }

    #[test]
    fn fixed_size_vec_is_exact() {
        let strat = prop::collection::vec(0i64..5, 7usize);
        let mut rng = crate::rng_for("fixed_size_vec_is_exact");
        for _ in 0..20 {
            assert_eq!(crate::Strategy::generate(&strat, &mut rng).len(), 7);
        }
    }

    #[test]
    fn named_rng_is_deterministic() {
        let a: Vec<u64> = {
            let mut r = crate::rng_for("t");
            (0..4).map(|_| rand::RngCore::next_u64(&mut r)).collect()
        };
        let b: Vec<u64> = {
            let mut r = crate::rng_for("t");
            (0..4).map(|_| rand::RngCore::next_u64(&mut r)).collect()
        };
        assert_eq!(a, b);
    }
}

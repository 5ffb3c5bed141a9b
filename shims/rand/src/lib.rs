//! Workspace-local shim with the `rand` API subset this repository uses.
//!
//! The real `rand` is a registry crate; this repository builds in
//! network-restricted environments, so the workspace carries a small,
//! self-contained implementation as a path dependency. The generator is
//! xoshiro256** seeded through SplitMix64 — statistically solid for
//! workload generation and ε-greedy exploration, deterministic for a given
//! seed. Streams differ from upstream `rand`'s ChaCha-based `StdRng`, so
//! seed-pinned expectations belong to *this* generator.

#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![warn(missing_docs)]

/// Low-level entropy source: a stream of `u64`s.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// A generator constructible from a `u64` seed.
pub trait SeedableRng: Sized {
    /// Creates a generator deterministically from `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// User-facing sampling methods, `rand`-style.
pub trait Rng: RngCore {
    /// Samples uniformly from `range` (`a..b` or `a..=b`).
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Samples a value from the "standard" distribution: uniform in
    /// `[0, 1)` for floats, uniform over all values for integers and
    /// `bool`.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::from_rng(self)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        debug_assert!((0.0..=1.0).contains(&p), "gen_bool probability {p} out of range");
        unit_f64(self.next_u64()) < p
    }

    /// `true` with probability `numerator / denominator`.
    fn gen_ratio(&mut self, numerator: u32, denominator: u32) -> bool
    where
        Self: Sized,
    {
        assert!(denominator > 0 && numerator <= denominator);
        self.gen_range(0..denominator) < numerator
    }
}

impl<T: RngCore> Rng for T {}

#[inline]
fn unit_f64(bits: u64) -> f64 {
    // 53 high bits → uniform in [0, 1).
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Types samplable from the standard distribution via [`Rng::gen`].
// Structural: the bound of `Rng::gen`. lint:allow(shim-surface-drift)
pub trait Standard: Sized {
    /// Draws one value from `rng`.
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        unit_f64(rng.next_u64())
    }
}

impl Standard for f32 {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
        unit_f64(rng.next_u64()) as f32
    }
}

impl Standard for bool {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// A range that can be sampled uniformly.
// Structural: the bound of `Rng::gen_range`. lint:allow(shim-surface-drift)
pub trait SampleRange<T> {
    /// Draws one value from the range using `rng`.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Element types with a uniform sampler over `[lo, hi)` / `[lo, hi]`.
///
/// The generic `SampleRange` impls below hang off this trait — one impl
/// per range *shape*, as in upstream `rand`, so that integer-literal
/// ranges unify with surrounding expression types during inference.
// Structural: element-type bound behind `SampleRange`. lint:allow(shim-surface-drift)
pub trait SampleUniform: Sized {
    /// Uniform draw; `inclusive` selects `[lo, hi]` over `[lo, hi)`.
    fn sample_uniform<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self, inclusive: bool) -> Self;
}

#[inline]
fn uniform_u64<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    // Debiased multiply-shift (Lemire); the widening multiply maps the
    // 64-bit stream onto [0, span) with rejection of the biased low zone.
    let zone = span.wrapping_neg() % span; // = 2^64 mod span
    loop {
        let x = rng.next_u64();
        let m = (x as u128) * (span as u128);
        if (m as u64) >= zone {
            return (m >> 64) as u64;
        }
    }
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_uniform<R: RngCore + ?Sized>(rng: &mut R, lo: $t, hi: $t, inclusive: bool) -> $t {
                let span = (hi as i128 - lo as i128) as u128 + inclusive as u128;
                assert!(span > 0, "empty gen_range");
                if span > u64::MAX as u128 {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(uniform_u64(rng, span as u64) as $t)
            }
        }
    )*};
}

impl_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    #[inline]
    fn sample_uniform<R: RngCore + ?Sized>(rng: &mut R, lo: f64, hi: f64, _inclusive: bool) -> f64 {
        assert!(lo < hi, "empty gen_range");
        lo + unit_f64(rng.next_u64()) * (hi - lo)
    }
}

impl SampleUniform for f32 {
    #[inline]
    fn sample_uniform<R: RngCore + ?Sized>(rng: &mut R, lo: f32, hi: f32, _inclusive: bool) -> f32 {
        assert!(lo < hi, "empty gen_range");
        lo + (unit_f64(rng.next_u64()) as f32) * (hi - lo)
    }
}

impl<T: SampleUniform + PartialOrd> SampleRange<T> for core::ops::Range<T> {
    #[inline]
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "empty gen_range");
        T::sample_uniform(rng, self.start, self.end, false)
    }
}

impl<T: SampleUniform + PartialOrd + Copy> SampleRange<T> for core::ops::RangeInclusive<T> {
    #[inline]
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start() <= self.end(), "empty gen_range");
        T::sample_uniform(rng, *self.start(), *self.end(), true)
    }
}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard generator: xoshiro256**.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion, per the xoshiro authors' seeding advice.
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            let s = [next(), next(), next(), next()];
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

/// Sequence helpers (`SliceRandom`).
pub mod seq {
    use super::{Rng, RngCore};

    /// Random selection and shuffling over slices.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// A uniformly random element, or `None` if empty.
        fn choose<R: RngCore>(&self, rng: &mut R) -> Option<&Self::Item>;

        /// Uniform in-place Fisher–Yates shuffle.
        fn shuffle<R: RngCore>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn choose<R: RngCore>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }

        fn shuffle<R: RngCore>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, rng.gen_range(0..=i));
            }
        }
    }
}

/// Commonly used re-exports, mirroring `rand::prelude`.
pub mod prelude {
    pub use super::rngs::StdRng;
    pub use super::seq::SliceRandom;
    pub use super::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let mut c = StdRng::seed_from_u64(43);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, (0..8).map(|_| c.next_u64()).collect::<Vec<_>>());
    }

    #[test]
    fn gen_range_bounds_and_coverage() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.gen_range(0..10usize);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
        for _ in 0..1000 {
            let v = rng.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&v));
            let f = rng.gen_range(0.5..2.0);
            assert!((0.5..2.0).contains(&f));
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(1);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "{hits}");
        assert_eq!((0..100).filter(|_| rng.gen_bool(0.0)).count(), 0);
        assert_eq!((0..100).filter(|_| rng.gen_bool(1.0)).count(), 100);
    }

    #[test]
    fn gen_ratio_edge_cases() {
        let mut rng = StdRng::seed_from_u64(2);
        assert!(!(0..50).any(|_| rng.gen_ratio(0, 3)));
        assert!((0..50).all(|_| rng.gen_ratio(3, 3)));
    }

    #[test]
    fn shuffle_and_choose_are_permutations() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut v: Vec<u32> = (0..20).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
        assert!(v.choose(&mut rng).is_some());
        let empty: [u32; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
    }
}

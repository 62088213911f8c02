//! Deterministic, seedable pseudo-random number generation.
//!
//! Replaces the `rand` crate for the workspace's needs: seed-reproducible
//! synthetic workloads (`engage-testgen`) and the property-testing runner.
//! The generator is xoshiro256++ (Blackman & Vigna), seeded through
//! SplitMix64 exactly as the xoshiro authors recommend, so a single
//! `u64` seed expands to a full 256-bit state with no weak lanes.
//!
//! Supported API subset: `StdRng::seed_from_u64`, `Rng::gen_range` over
//! half-open and inclusive integer ranges, `Rng::gen_bool`, and
//! `Rng::shuffle`.

use std::ops::{Range, RangeInclusive};

/// SplitMix64 — a tiny, fast, well-distributed 64-bit generator. Used
/// both as a seed expander for [`Xoshiro256PlusPlus`] and directly where
/// a throwaway stream is enough.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
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

/// xoshiro256++ — the workspace's general-purpose generator.
///
/// 256-bit state, period 2^256 − 1, passes BigCrush. Not cryptographic;
/// none of our uses need that.
#[derive(Debug, Clone)]
pub struct Xoshiro256PlusPlus {
    s: [u64; 4],
}

/// The default generator, by analogy with `rand::rngs::StdRng`.
pub type StdRng = Xoshiro256PlusPlus;

/// Construction from a `u64` seed (the `rand::SeedableRng` subset).
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

impl SeedableRng for Xoshiro256PlusPlus {
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for lane in &mut s {
            *lane = sm.next_u64();
        }
        // All-zero state is the one forbidden state; SplitMix64 cannot
        // produce four consecutive zeros, but keep the guard explicit.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Xoshiro256PlusPlus { s }
    }
}

impl SeedableRng for SplitMix64 {
    fn seed_from_u64(seed: u64) -> Self {
        SplitMix64::new(seed)
    }
}

impl RngCore for Xoshiro256PlusPlus {
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
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

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// The raw-output core every generator implements.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 random bits (upper half of [`next_u64`]).
    ///
    /// [`next_u64`]: RngCore::next_u64
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Returns a uniform value in `0..span` (`span >= 1`) by rejection
/// sampling, so every value is exactly equally likely.
pub(crate) fn uniform_below(rng: &mut impl RngCore, span: u64) -> u64 {
    debug_assert!(span >= 1);
    if span.is_power_of_two() {
        return rng.next_u64() & (span - 1);
    }
    // Reject the final partial block of u64 space to avoid modulo bias.
    let limit = u64::MAX - (u64::MAX % span) - 1;
    loop {
        let v = rng.next_u64();
        if v <= limit {
            return v % span;
        }
    }
}

/// A range that [`Rng::gen_range`] can sample uniformly.
pub trait SampleRange {
    /// The element type produced.
    type Output;
    /// Draws one uniform sample from the range. Panics on empty ranges.
    fn sample(&self, rng: &mut dyn FnMut() -> u64) -> Self::Output;
}

macro_rules! impl_sample_range {
    ($($t:ty),* $(,)?) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            fn sample(&self, next: &mut dyn FnMut() -> u64) -> $t {
                assert!(
                    self.start < self.end,
                    "gen_range: empty range {}..{}", self.start, self.end
                );
                let span = (self.end as i128 - self.start as i128) as u64;
                let off = sample_below(next, span);
                (self.start as i128 + off as i128) as $t
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            fn sample(&self, next: &mut dyn FnMut() -> u64) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range {lo}..={hi}");
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return next() as $t;
                }
                let off = sample_below(next, span + 1);
                (lo as i128 + off as i128) as $t
            }
        }
    )*};
}

impl_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Rejection sampling over a closure (object-safe form of
/// [`uniform_below`], so [`SampleRange`] stays dyn-compatible).
fn sample_below(next: &mut dyn FnMut() -> u64, span: u64) -> u64 {
    struct F<'a>(&'a mut dyn FnMut() -> u64);
    impl RngCore for F<'_> {
        fn next_u64(&mut self) -> u64 {
            (self.0)()
        }
    }
    uniform_below(&mut F(next), span)
}

/// High-level sampling methods, blanket-implemented for every
/// [`RngCore`]. The `rand::Rng` subset the workspace uses.
pub trait Rng: RngCore {
    /// Uniform sample from an integer range: `rng.gen_range(0..n)`.
    fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output
    where
        Self: Sized,
    {
        range.sample(&mut || self.next_u64())
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        // 53 random bits → uniform f64 in [0, 1).
        let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < p
    }

    /// Fisher–Yates shuffle in place.
    fn shuffle<T>(&mut self, slice: &mut [T])
    where
        Self: Sized,
    {
        for i in (1..slice.len()).rev() {
            let j = uniform_below(self, i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }
}

impl<T: RngCore> Rng for T {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn gen_range_stays_in_bounds_and_hits_everything() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut seen = [0usize; 10];
        for _ in 0..10_000 {
            let v = rng.gen_range(0..10usize);
            seen[v] += 1;
        }
        // Uniform expectation is 1000 per bucket; allow a wide margin.
        for (i, &n) in seen.iter().enumerate() {
            assert!((700..1300).contains(&n), "bucket {i} count {n}");
        }
    }

    #[test]
    fn gen_range_signed_and_inclusive() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let v = rng.gen_range(-5i64..5);
            assert!((-5..5).contains(&v));
            let w = rng.gen_range(1u32..=3);
            assert!((1..=3).contains(&w));
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(9);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "{hits}");
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements should not shuffle to identity");
    }
}

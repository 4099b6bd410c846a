//! Offline stand-in for `rand` 0.8: `RngCore`, `Rng` (`gen`, `gen_range`,
//! `gen_bool`), `SeedableRng::seed_from_u64` and `rngs::StdRng`.
//!
//! `StdRng` here is xoshiro256** seeded through splitmix64, not ChaCha12,
//! so streams differ from the published crate. The scec crates draw
//! randomness only while building a system (code design, encode, keys),
//! never per query, and the benchmark verifies answers against `A·x`
//! computed from the same data, so no result depends on the stream.

/// The core of a random number generator.
pub trait RngCore {
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types `Rng::gen` can produce (the `Standard` distribution).
pub trait StandardSample {
    /// Draws one value.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

/// Types `Rng::gen_range` can produce.
pub trait SampleUniform: Sized + PartialOrd {
    /// Uniform in `[low, high)`.
    fn sample_half_open<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
    /// Uniform in `[low, high]`.
    fn sample_inclusive<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
}

/// Range arguments of `Rng::gen_range`.
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for std::ops::Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "cannot sample empty range");
        T::sample_half_open(self.start, self.end, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for std::ops::RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (low, high) = self.into_inner();
        assert!(low <= high, "cannot sample empty range");
        T::sample_inclusive(low, high, rng)
    }
}

/// Uniform in `[0, span)` by rejection, so no value is favoured.
fn below<R: RngCore + ?Sized>(span: u64, rng: &mut R) -> u64 {
    debug_assert!(span > 0);
    let zone = u64::MAX - (u64::MAX - span + 1) % span;
    loop {
        let v = rng.next_u64();
        if v <= zone {
            return v % span;
        }
    }
}

macro_rules! uniform_int {
    ($($t:ty => $wide:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
                let span = (high as $wide).wrapping_sub(low as $wide) as u64;
                (low as $wide).wrapping_add(below(span, rng) as $wide) as $t
            }
            fn sample_inclusive<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
                let span = ((high as $wide).wrapping_sub(low as $wide) as u64).wrapping_add(1);
                if span == 0 {
                    return rng.next_u64() as $t;
                }
                (low as $wide).wrapping_add(below(span, rng) as $wide) as $t
            }
        }
        impl StandardSample for $t {
            fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

uniform_int!(u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
             i8 => i64, i16 => i64, i32 => i64, i64 => i64, isize => i64);

/// 53 random mantissa bits in `[0, 1)`.
fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

macro_rules! uniform_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
                loop {
                    let v = low + (high - low) * unit_f64(rng) as $t;
                    if v < high {
                        return v;
                    }
                }
            }
            fn sample_inclusive<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
                low + (high - low) * unit_f64(rng) as $t
            }
        }
        impl StandardSample for $t {
            fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                unit_f64(rng) as $t
            }
        }
    )*};
}

uniform_float!(f32, f64);

impl StandardSample for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

/// User-facing sampling methods, implemented for every `RngCore`.
pub trait Rng: RngCore {
    /// A value from the standard distribution of `T`.
    fn gen<T: StandardSample>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// A value uniform in `range` (`a..b` or `a..=b`).
    fn gen_range<T, S>(&mut self, range: S) -> T
    where
        T: SampleUniform,
        S: SampleRange<T>,
    {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p={p} is outside [0, 1]");
        unit_f64(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Generators that can be built from a seed.
pub trait SeedableRng: Sized {
    /// Builds the generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

pub mod rngs {
    //! The one concrete generator the scec crates name.

    use super::{RngCore, SeedableRng};

    /// xoshiro256** (Blackman & Vigna), seeded through splitmix64.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(mut seed: u64) -> Self {
            let mut s = [0u64; 4];
            for word in &mut s {
                seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = seed;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                *word = z ^ (z >> 31);
            }
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

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

#[cfg(test)]
mod tests {
    use super::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream_and_ranges_hold() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x: u64 = a.gen_range(0..((1u64 << 61) - 1));
            assert_eq!(x, b.gen_range(0..((1u64 << 61) - 1)));
            assert!(x < (1u64 << 61) - 1);
            let f: f64 = a.gen_range(0.5..=1.5);
            let _: f64 = b.gen_range(0.5..=1.5);
            assert!((0.5..=1.5).contains(&f));
            let i = a.gen_range(-3i32..4);
            let _ = b.gen_range(-3i32..4);
            assert!((-3..4).contains(&i));
        }
        assert_ne!(
            StdRng::seed_from_u64(1).gen::<u64>(),
            StdRng::seed_from_u64(2).gen::<u64>()
        );
    }
}

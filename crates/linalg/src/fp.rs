//! The Mersenne prime field GF(2⁶¹ − 1).
//!
//! Random vectors drawn uniformly from a finite field are what make the
//! paper's security guarantee *information-theoretic*: conditioned on the
//! coded rows a single device observes, every data matrix remains equally
//! likely (Definition 2, `H(A | B_j T) = H(A)`). 2⁶¹ − 1 is chosen because
//! Mersenne reduction keeps multiplication branch-free and fast, while the
//! field is comfortably larger than any payload precision we need.

use std::fmt;
use std::iter::{Product, Sum};
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

use rand::Rng;

use crate::scalar::Scalar;

/// The field modulus `p = 2^61 - 1` (a Mersenne prime).
pub const MODULUS: u64 = (1u64 << 61) - 1;

/// Maximum number of unreduced products the lazy kernels accumulate in a
/// `u128` between reductions.
///
/// Each product of canonical representatives is at most `(p−1)² < 2^122`,
/// and the folded carry from the previous block is `< 2^61`, so a block of
/// `63` products stays below `63·2^122 + 2^61 < 2^128` — no overflow. This
/// is the headroom the Mersenne prime buys: one `reduce128` per 63 terms
/// instead of one per multiply.
pub const LAZY_BLOCK: usize = 63;

/// `2^122 − 1 = p·(p+2)` — a multiple of `p` that dominates every product
/// of canonical representatives (`(p−1)² = 2^122 − 2^63 + 4`). Adding
/// `FOLD_ZERO − a·b` is how the fused kernels subtract a product without
/// first reducing it.
const FOLD_ZERO: u128 = (1u128 << 122) - 1;

/// An element of GF(2⁶¹ − 1).
///
/// The canonical representative is always kept in `[0, p)`. Arithmetic
/// operators (`+`, `-`, `*`, `/`) are implemented on values; `/` panics on
/// division by zero, while the [`Scalar::inv`]/[`Scalar::div`] trait methods
/// return `None` instead.
///
/// # Example
///
/// ```
/// use scec_linalg::Fp61;
///
/// let a = Fp61::new(7);
/// let b = Fp61::new(3);
/// assert_eq!((a * b).residue(), 21);
/// assert_eq!((a / b) * b, a);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(transparent)] // the simd kernels reinterpret &[Fp61] as &[u64]
pub struct Fp61(u64);

impl Fp61 {
    /// Creates a field element from any `u64`, reducing modulo `p`.
    #[inline]
    pub fn new(value: u64) -> Self {
        Fp61(value % MODULUS)
    }

    /// Creates a field element from a signed integer, mapping negatives to
    /// their additive-inverse representatives.
    #[inline]
    pub fn from_i64(value: i64) -> Self {
        if value >= 0 {
            Fp61::new(value as u64)
        } else {
            -Fp61::new(value.unsigned_abs())
        }
    }

    /// The canonical representative in `[0, p)`.
    #[inline]
    pub fn residue(self) -> u64 {
        self.0
    }

    /// Fast reduction of a 128-bit value into `[0, p)` using the Mersenne
    /// structure of the modulus: `x mod (2^61 - 1)` folds the high bits onto
    /// the low bits.
    ///
    /// Valid for `x < 2^122 + 2^61` — which covers both a product of
    /// canonical representatives (`(p−1)² < 2^122`) and the fused-kernel
    /// sums `t + prod` and `t + (FOLD_ZERO − prod)`. For arbitrary `u128`
    /// values (the lazy dot accumulator) use [`Fp61::reduce_wide`].
    #[inline]
    fn reduce128(x: u128) -> u64 {
        let lo = (x as u64) & MODULUS;
        let hi = (x >> 61) as u64;
        let mut s = lo + hi;
        if s >= MODULUS {
            s -= MODULUS;
        }
        // Two conditional subtractions suffice: for x < 2^122 + 2^61 the
        // fold gives hi ≤ 2^61 and lo < 2^61, so lo + hi < 2^62 < 3p.
        if s >= MODULUS {
            s -= MODULUS;
        }
        s
    }

    /// Creates a field element from an already-canonical representative
    /// (crate-internal: the simd kernels produce canonical residues).
    #[inline]
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    pub(crate) fn from_canonical(value: u64) -> Self {
        debug_assert!(value < MODULUS);
        Fp61(value)
    }

    /// Full-range reduction of any `u128` into `[0, p)` via two folds.
    ///
    /// The lazy dot kernel accumulates up to [`LAZY_BLOCK`] unreduced
    /// products (`< 2^128`), so its accumulator exceeds the domain of
    /// [`Fp61::reduce128`]; this variant folds twice.
    #[inline]
    pub(crate) fn reduce_wide(x: u128) -> u64 {
        // First fold: x = hi·2^61 + lo with hi < 2^67 ⇒ hi + lo < 2^68.
        let folded = (x >> 61) + (x & MODULUS as u128);
        // Second fold now fits comfortably in u64 arithmetic.
        let lo = (folded as u64) & MODULUS;
        let hi = (folded >> 61) as u64; // < 2^7
        let mut s = lo + hi;
        if s >= MODULUS {
            s -= MODULUS;
        }
        s
    }

    /// The portable scalar lazy dot kernel: unreduced `u128` accumulation
    /// in four ILP lanes with one wide reduction per [`LAZY_BLOCK`]
    /// products. This is the dispatch fallback of
    /// [`Scalar::dot_slices`]; it is public so agreement tests can pin
    /// the scalar path explicitly (see [`crate::simd`]).
    ///
    /// # Panics
    ///
    /// Panics (debug) when the slices have different lengths.
    pub fn dot_slices_scalar(a: &[Fp61], b: &[Fp61]) -> Fp61 {
        debug_assert_eq!(a.len(), b.len());
        let mut acc: u128 = 0;
        for (ca, cb) in a.chunks(LAZY_BLOCK).zip(b.chunks(LAZY_BLOCK)) {
            // Entering each block acc < 2^61 (folded carry), and 63
            // products of at most (p−1)² keep the sum below 2^128 no
            // matter how they are split across the four lanes below.
            //
            // Four independent accumulators break the loop-carried
            // add-with-carry chain: a single u128 accumulator serializes
            // at ~2 cycles per product, while independent lanes let the
            // multiplies pipeline.
            let (mut e0, mut e1, mut e2, mut e3) = (0u128, 0u128, 0u128, 0u128);
            let mut qa = ca.chunks_exact(4);
            let mut qb = cb.chunks_exact(4);
            for (pa, pb) in (&mut qa).zip(&mut qb) {
                e0 += pa[0].0 as u128 * pb[0].0 as u128;
                e1 += pa[1].0 as u128 * pb[1].0 as u128;
                e2 += pa[2].0 as u128 * pb[2].0 as u128;
                e3 += pa[3].0 as u128 * pb[3].0 as u128;
            }
            for (&x, &y) in qa.remainder().iter().zip(qb.remainder()) {
                e0 += x.0 as u128 * y.0 as u128;
            }
            acc = Fp61::reduce_wide(acc + (e0 + e1) + (e2 + e3)) as u128;
        }
        Fp61(acc as u64)
    }

    /// Modular exponentiation by squaring.
    #[inline]
    pub fn pow(self, mut exp: u64) -> Self {
        let mut base = self;
        let mut acc = Fp61(1);
        while exp > 0 {
            if exp & 1 == 1 {
                acc *= base;
            }
            base *= base;
            exp >>= 1;
        }
        acc
    }
}

impl fmt::Debug for Fp61 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fp61({})", self.0)
    }
}

impl fmt::Display for Fp61 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

impl From<u64> for Fp61 {
    fn from(value: u64) -> Self {
        Fp61::new(value)
    }
}

impl From<u32> for Fp61 {
    fn from(value: u32) -> Self {
        Fp61(value as u64)
    }
}

impl From<i64> for Fp61 {
    fn from(value: i64) -> Self {
        Fp61::from_i64(value)
    }
}

impl Add for Fp61 {
    type Output = Fp61;

    #[inline]
    fn add(self, rhs: Fp61) -> Fp61 {
        let mut s = self.0 + rhs.0;
        if s >= MODULUS {
            s -= MODULUS;
        }
        Fp61(s)
    }
}

impl AddAssign for Fp61 {
    #[inline]
    fn add_assign(&mut self, rhs: Fp61) {
        *self = *self + rhs;
    }
}

impl Sub for Fp61 {
    type Output = Fp61;

    #[inline]
    fn sub(self, rhs: Fp61) -> Fp61 {
        let s = if self.0 >= rhs.0 {
            self.0 - rhs.0
        } else {
            self.0 + MODULUS - rhs.0
        };
        Fp61(s)
    }
}

impl SubAssign for Fp61 {
    #[inline]
    fn sub_assign(&mut self, rhs: Fp61) {
        *self = *self - rhs;
    }
}

impl Mul for Fp61 {
    type Output = Fp61;

    #[inline]
    fn mul(self, rhs: Fp61) -> Fp61 {
        Fp61(Fp61::reduce128(self.0 as u128 * rhs.0 as u128))
    }
}

impl MulAssign for Fp61 {
    #[inline]
    fn mul_assign(&mut self, rhs: Fp61) {
        *self = *self * rhs;
    }
}

impl Neg for Fp61 {
    type Output = Fp61;

    #[inline]
    fn neg(self) -> Fp61 {
        if self.0 == 0 {
            self
        } else {
            Fp61(MODULUS - self.0)
        }
    }
}

impl Div for Fp61 {
    type Output = Fp61;

    /// # Panics
    ///
    /// Panics if `rhs` is zero. Use [`Scalar::div`] for a fallible variant.
    #[inline]
    fn div(self, rhs: Fp61) -> Fp61 {
        Scalar::div(self, rhs).expect("division by zero in GF(2^61-1)")
    }
}

impl Sum for Fp61 {
    fn sum<I: Iterator<Item = Fp61>>(iter: I) -> Fp61 {
        iter.fold(Fp61(0), |a, b| a + b)
    }
}

impl Product for Fp61 {
    fn product<I: Iterator<Item = Fp61>>(iter: I) -> Fp61 {
        iter.fold(Fp61(1), |a, b| a * b)
    }
}

impl Scalar for Fp61 {
    #[inline]
    fn zero() -> Self {
        Fp61(0)
    }

    #[inline]
    fn one() -> Self {
        Fp61(1)
    }

    #[inline]
    fn add(self, rhs: Self) -> Self {
        self + rhs
    }

    #[inline]
    fn sub(self, rhs: Self) -> Self {
        self - rhs
    }

    #[inline]
    fn mul(self, rhs: Self) -> Self {
        self * rhs
    }

    #[inline]
    fn neg(self) -> Self {
        -self
    }

    #[inline]
    fn inv(self) -> Option<Self> {
        if self.0 == 0 {
            None
        } else {
            // Fermat: a^(p-2) = a^(-1) mod p.
            Some(self.pow(MODULUS - 2))
        }
    }

    #[inline]
    fn is_zero(&self) -> bool {
        self.0 == 0
    }

    #[inline]
    fn pivot_weight(&self) -> f64 {
        if self.0 == 0 {
            0.0
        } else {
            1.0
        }
    }

    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // Uniform over [0, p): rejection-free because gen_range is exact.
        Fp61(rng.gen_range(0..MODULUS))
    }

    // Lazy-reduction kernel overrides. See the `kernels` module docs for
    // the headroom argument; the block length is [`LAZY_BLOCK`].

    fn dot_slices(a: &[Self], b: &[Self]) -> Self {
        debug_assert_eq!(a.len(), b.len());
        // Runtime SIMD dispatch by CPU tier and slice length: every path
        // produces the canonical representative, so this is a speed
        // decision only (bit-identical results; see `crate::simd` docs).
        crate::simd::dot_fp61(a, b).unwrap_or_else(|| Fp61::dot_slices_scalar(a, b))
    }

    fn dot_slices_x4(a: &[Self], b: [&[Self]; 4]) -> [Self; 4] {
        // Same dispatch rule as `dot_slices`; the column-blocked
        // microkernel shares the `a` loads across columns, but each
        // column's result is the canonical representative, so it is
        // bit-identical to four single dots.
        crate::simd::dot4_fp61(a, b).unwrap_or_else(|| b.map(|col| Fp61::dot_slices(a, col)))
    }

    fn fused_muladd(acc: &mut [Self], factor: Self, rhs: &[Self]) {
        debug_assert_eq!(acc.len(), rhs.len());
        let f = factor.0 as u128;
        for (o, &r) in acc.iter_mut().zip(rhs) {
            // o + f·r ≤ (p−1) + (p−1)² < 2^122: one reduce128, no
            // intermediate canonicalization of the product.
            o.0 = Fp61::reduce128(o.0 as u128 + f * r.0 as u128);
        }
    }

    fn fused_submul(target: &mut [Self], factor: Self, source: &[Self]) {
        debug_assert_eq!(target.len(), source.len());
        let f = factor.0 as u128;
        for (t, &s) in target.iter_mut().zip(source) {
            // t − f·s ≡ t + (FOLD_ZERO − f·s) (mod p); the sum stays below
            // 2^122 + 2^61, inside reduce128's domain.
            t.0 = Fp61::reduce128(t.0 as u128 + (FOLD_ZERO - f * s.0 as u128));
        }
    }

    #[inline]
    fn prefers_dot_matmul() -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn canonical_reduction() {
        assert_eq!(Fp61::new(MODULUS).residue(), 0);
        assert_eq!(Fp61::new(MODULUS + 5).residue(), 5);
        assert_eq!(Fp61::new(u64::MAX).residue(), u64::MAX % MODULUS);
    }

    #[test]
    fn from_i64_handles_negatives() {
        assert_eq!(Fp61::from_i64(-1), -Fp61::new(1));
        assert_eq!(Fp61::from_i64(-1).residue(), MODULUS - 1);
        assert_eq!(Fp61::from_i64(42).residue(), 42);
        assert_eq!(Fp61::from_i64(i64::MIN), -Fp61::new(1u64 << 63));
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Fp61::new(MODULUS - 3);
        let b = Fp61::new(10);
        assert_eq!((a + b).residue(), 7);
        assert_eq!(a + b - b, a);
        assert_eq!((Fp61::new(3) - Fp61::new(5)).residue(), MODULUS - 2);
    }

    #[test]
    fn mul_matches_u128_reference() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let a = <Fp61 as Scalar>::sample(&mut rng);
            let b = <Fp61 as Scalar>::sample(&mut rng);
            let want = ((a.residue() as u128 * b.residue() as u128) % MODULUS as u128) as u64;
            assert_eq!((a * b).residue(), want);
        }
    }

    #[test]
    fn neg_is_additive_inverse() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            let a = <Fp61 as Scalar>::sample(&mut rng);
            assert_eq!((a + (-a)).residue(), 0);
        }
        assert_eq!((-Fp61::new(0)).residue(), 0);
    }

    #[test]
    fn inverse_is_multiplicative_inverse() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let a = <Fp61 as Scalar>::sample(&mut rng);
            if Scalar::is_zero(&a) {
                continue;
            }
            let inv = Scalar::inv(a).unwrap();
            assert_eq!(a * inv, Fp61::new(1));
        }
        assert_eq!(Scalar::inv(Fp61::new(0)), None);
    }

    #[test]
    fn pow_small_cases() {
        assert_eq!(Fp61::new(2).pow(10).residue(), 1024);
        assert_eq!(Fp61::new(5).pow(0).residue(), 1);
        assert_eq!(Fp61::new(0).pow(0).residue(), 1); // convention: 0^0 = 1
                                                      // Fermat's little theorem: a^(p-1) = 1.
        assert_eq!(Fp61::new(123456789).pow(MODULUS - 1).residue(), 1);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = Fp61::new(1) / Fp61::new(0);
    }

    #[test]
    fn div_operator_matches_inv() {
        let a = Fp61::new(123);
        let b = Fp61::new(456);
        assert_eq!(a / b, a * Scalar::inv(b).unwrap());
    }

    #[test]
    fn sum_and_product_iterators() {
        let xs = [Fp61::new(1), Fp61::new(2), Fp61::new(3)];
        assert_eq!(xs.iter().copied().sum::<Fp61>().residue(), 6);
        assert_eq!(xs.iter().copied().product::<Fp61>().residue(), 6);
        let empty: [Fp61; 0] = [];
        assert_eq!(empty.iter().copied().sum::<Fp61>().residue(), 0);
        assert_eq!(empty.iter().copied().product::<Fp61>().residue(), 1);
    }

    #[test]
    fn sample_is_uniform_ish() {
        // Crude sanity: mean of residues near p/2 for a large sample.
        let mut rng = StdRng::seed_from_u64(4);
        let n = 10_000;
        let mean: f64 = (0..n)
            .map(|_| <Fp61 as Scalar>::sample(&mut rng).residue() as f64)
            .sum::<f64>()
            / n as f64;
        let half = MODULUS as f64 / 2.0;
        assert!((mean - half).abs() < half * 0.05, "mean {mean} vs {half}");
    }

    #[test]
    fn display_and_debug() {
        assert_eq!(Fp61::new(42).to_string(), "42");
        assert_eq!(format!("{:?}", Fp61::new(42)), "Fp61(42)");
    }

    /// Naive one-reduction-per-multiply dot used as the reference for the
    /// lazy kernel.
    fn dot_reference(a: &[Fp61], b: &[Fp61]) -> Fp61 {
        a.iter()
            .zip(b)
            .fold(Fp61::new(0), |acc, (&x, &y)| acc + x * y)
    }

    #[test]
    fn lazy_dot_matches_reference_at_block_boundaries() {
        let mut rng = StdRng::seed_from_u64(8);
        for n in [
            0,
            1,
            LAZY_BLOCK - 1,
            LAZY_BLOCK,
            LAZY_BLOCK + 1,
            2 * LAZY_BLOCK,
            2 * LAZY_BLOCK + 1,
            1000,
        ] {
            let a: Vec<Fp61> = (0..n).map(|_| <Fp61 as Scalar>::sample(&mut rng)).collect();
            let b: Vec<Fp61> = (0..n).map(|_| <Fp61 as Scalar>::sample(&mut rng)).collect();
            assert_eq!(
                <Fp61 as Scalar>::dot_slices(&a, &b),
                dot_reference(&a, &b),
                "length {n}"
            );
        }
    }

    #[test]
    fn lazy_dot_survives_maximum_unreduced_accumulation() {
        // The overflow boundary: LAZY_BLOCK all-max products is the largest
        // sum the kernel ever holds unreduced. Check it, its neighbors, and
        // a multi-block all-max run against u128 reference arithmetic.
        let max = Fp61::new(MODULUS - 1);
        for n in [LAZY_BLOCK, LAZY_BLOCK + 1, 4 * LAZY_BLOCK + 7] {
            let a = vec![max; n];
            let want = {
                let sq = ((MODULUS - 1) as u128 * (MODULUS - 1) as u128) % MODULUS as u128;
                Fp61::new(((sq * n as u128) % MODULUS as u128) as u64)
            };
            assert_eq!(<Fp61 as Scalar>::dot_slices(&a, &a), want, "length {n}");
            assert_eq!(dot_reference(&a, &a), want, "reference length {n}");
        }
    }

    #[test]
    fn fused_muladd_and_submul_match_scalar_ops() {
        let mut rng = StdRng::seed_from_u64(9);
        let max = Fp61::new(MODULUS - 1);
        for factor in [
            Fp61::new(0),
            Fp61::new(1),
            max,
            <Fp61 as Scalar>::sample(&mut rng),
        ] {
            let target: Vec<Fp61> = (0..100)
                .map(|i| {
                    if i == 0 {
                        max
                    } else {
                        <Fp61 as Scalar>::sample(&mut rng)
                    }
                })
                .collect();
            let source: Vec<Fp61> = (0..100)
                .map(|i| {
                    if i == 0 {
                        max
                    } else {
                        <Fp61 as Scalar>::sample(&mut rng)
                    }
                })
                .collect();

            let mut add_got = target.clone();
            <Fp61 as Scalar>::fused_muladd(&mut add_got, factor, &source);
            let mut sub_got = target.clone();
            <Fp61 as Scalar>::fused_submul(&mut sub_got, factor, &source);
            for i in 0..target.len() {
                assert_eq!(add_got[i], target[i] + factor * source[i]);
                assert_eq!(sub_got[i], target[i] - factor * source[i]);
            }
        }
    }

    #[test]
    fn reduce_wide_handles_full_u128_range() {
        assert_eq!(Fp61::reduce_wide(0), 0);
        assert_eq!(Fp61::reduce_wide(MODULUS as u128), 0);
        assert_eq!(
            Fp61::reduce_wide(u128::MAX),
            (u128::MAX % MODULUS as u128) as u64
        );
        let x = 63u128 * ((MODULUS - 1) as u128 * (MODULUS - 1) as u128) + (MODULUS - 1) as u128;
        assert_eq!(Fp61::reduce_wide(x), (x % MODULUS as u128) as u64);
    }
}

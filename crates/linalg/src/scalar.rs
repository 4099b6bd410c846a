//! The [`Scalar`] field abstraction.
//!
//! All coding and decoding in the SCEC workspace is generic over a field.
//! Two implementations ship with this crate:
//!
//! * [`f64`] — numerical mode. Fast and convenient for machine-learning
//!   payloads, but only *algebraically* secure: the span-based security
//!   condition holds, while entropy-based information-theoretic security is
//!   not well defined over the reals.
//! * [`Fp61`](crate::fp::Fp61) — the Mersenne prime field GF(2⁶¹ − 1).
//!   Uniform random field elements give exact information-theoretic
//!   security in the sense of the paper's Definition 2.

use std::fmt::Debug;

use rand::Rng;

/// An element of a field, as required by the coded-computation pipeline.
///
/// The trait deliberately exposes *total* operations plus a fallible
/// [`inv`](Scalar::inv); division by zero is the only failure mode of field
/// arithmetic and is surfaced as `None` rather than a panic so that callers
/// can map it to [`Error::DivisionByZero`](crate::Error::DivisionByZero).
///
/// # Numerical caveat
///
/// For `f64` the field axioms hold only approximately. [`is_zero`]
/// consequently applies a tolerance, and Gaussian elimination uses
/// [`pivot_weight`] for partial pivoting. Exact fields return `1.0` for any
/// non-zero element so pivot choice degenerates to "first non-zero", which
/// is correct there.
///
/// [`is_zero`]: Scalar::is_zero
/// [`pivot_weight`]: Scalar::pivot_weight
pub trait Scalar: Copy + Clone + Debug + PartialEq + Send + Sync + 'static {
    /// The additive identity.
    fn zero() -> Self;

    /// The multiplicative identity.
    fn one() -> Self;

    /// Field addition.
    fn add(self, rhs: Self) -> Self;

    /// Field subtraction.
    fn sub(self, rhs: Self) -> Self;

    /// Field multiplication.
    fn mul(self, rhs: Self) -> Self;

    /// Additive inverse.
    fn neg(self) -> Self;

    /// Multiplicative inverse, or `None` for the zero element.
    fn inv(self) -> Option<Self>;

    /// Whether this element is (numerically) zero.
    fn is_zero(&self) -> bool;

    /// Weight used to select pivots during Gaussian elimination.
    ///
    /// Must be `0.0` exactly when [`is_zero`](Scalar::is_zero) is true and
    /// positive otherwise. For `f64` this is `|x|` (partial pivoting); exact
    /// fields return `1.0` for every non-zero element.
    fn pivot_weight(&self) -> f64;

    /// Draws an element uniformly at random (for exact fields) or from a
    /// standard uniform distribution on `[0, 1)` scaled to a generic
    /// "random payload" (for `f64`).
    ///
    /// Random elements are what the cloud mixes into the data matrix to blind
    /// it; for exact information-theoretic security they must be uniform
    /// over the field, which [`Fp61`](crate::fp::Fp61) guarantees.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self;

    /// Field division: `self / rhs`, or `None` when `rhs` is zero.
    fn div(self, rhs: Self) -> Option<Self> {
        rhs.inv().map(|i| self.mul(i))
    }

    // ------------------------------------------------------------------
    // Fused slice kernels.
    //
    // Stable Rust has no impl specialization, so the kernel dispatch point
    // is the trait itself: the default bodies below are the naive
    // reference (one reduction per multiply), and fields whose structure
    // admits something faster override them. `Fp61` overrides all three
    // with lazy-reduction code (see `kernels` module docs for the
    // invariant). Every hot path in this crate — `matmul`, `matvec`,
    // Gaussian elimination, `Vector::dot` — is written against these
    // hooks, so a new field gets correct (if unspectacular) behavior for
    // free and can opt into a fast path without touching the callers.
    // ------------------------------------------------------------------

    /// Inner product of two equal-length slices.
    ///
    /// The default accumulates `add(mul(..))` element by element; exact
    /// fields with reduction headroom should override with a fused kernel.
    fn dot_slices(a: &[Self], b: &[Self]) -> Self {
        debug_assert_eq!(a.len(), b.len());
        a.iter()
            .zip(b)
            .fold(Self::zero(), |acc, (&x, &y)| acc.add(x.mul(y)))
    }

    /// Four inner products sharing the left operand:
    /// `[a·b0, a·b1, a·b2, a·b3]`.
    ///
    /// This is the register-blocked shape of the transpose-then-dot
    /// `matmul`: one row of the left factor against four consecutive
    /// output columns. The default delegates to four [`dot_slices`]
    /// calls; fields with a wide kernel override it to reuse the `a`
    /// loads across columns and run four independent accumulation chains
    /// (see the `simd` module). Overrides must return exactly what the
    /// four per-column calls would.
    fn dot_slices_x4(a: &[Self], b: [&[Self]; 4]) -> [Self; 4] {
        [
            Self::dot_slices(a, b[0]),
            Self::dot_slices(a, b[1]),
            Self::dot_slices(a, b[2]),
            Self::dot_slices(a, b[3]),
        ]
    }

    /// Fused multiply-add over slices: `acc[i] += factor · rhs[i]`.
    ///
    /// This is the inner update of the i-k-j `matmul` loop and of
    /// transposed mat-vec accumulation.
    fn fused_muladd(acc: &mut [Self], factor: Self, rhs: &[Self]) {
        debug_assert_eq!(acc.len(), rhs.len());
        for (o, &r) in acc.iter_mut().zip(rhs) {
            *o = o.add(factor.mul(r));
        }
    }

    /// Fused multiply-subtract over slices: `target[i] -= factor · source[i]`.
    ///
    /// This is the elementary row operation of Gaussian elimination
    /// ([`Matrix::row_axpy`](crate::Matrix::row_axpy) routes here).
    fn fused_submul(target: &mut [Self], factor: Self, source: &[Self]) {
        debug_assert_eq!(target.len(), source.len());
        for (t, &s) in target.iter_mut().zip(source) {
            *t = t.sub(factor.mul(s));
        }
    }

    /// Whether `matmul` should use the transpose-then-dot formulation.
    ///
    /// Fields whose [`dot_slices`](Scalar::dot_slices) amortizes reductions
    /// across the inner dimension (e.g. `Fp61`) answer `true`; for plain
    /// floating point the streaming i-k-j loop is faster, so the default
    /// is `false`.
    fn prefers_dot_matmul() -> bool {
        false
    }
}

/// Tolerance under which an `f64` is considered zero by the elimination
/// routines.
///
/// The coded matrices this crate manipulates are built from 0/1 coefficients
/// and well-conditioned random entries, so a fixed absolute tolerance is
/// adequate; callers with badly scaled data should normalize first.
pub const F64_ZERO_TOL: f64 = 1e-9;

impl Scalar for f64 {
    #[inline]
    fn zero() -> Self {
        0.0
    }

    #[inline]
    fn one() -> Self {
        1.0
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
        if Scalar::is_zero(&self) {
            None
        } else {
            Some(1.0 / self)
        }
    }

    #[inline]
    fn is_zero(&self) -> bool {
        self.abs() < F64_ZERO_TOL
    }

    #[inline]
    fn pivot_weight(&self) -> f64 {
        if Scalar::is_zero(self) {
            0.0
        } else {
            self.abs()
        }
    }

    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // Standard normal via Box–Muller: a widely used blinding
        // distribution for real-valued coded computing.
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

/// `n` scalars drawn by [`Scalar::sample`]: what
/// [`Matrix::random`](crate::Matrix::random) and
/// [`Vector::random`](crate::Vector::random) fill themselves with.
///
/// A provided method on the generator, with an explicit loop, on
/// purpose. rustc compiles a provided trait method in the codegen unit
/// of its `Self` type, so this loop lands beside the generator's own
/// `gen_range` and the two always inline. The offline `rand` stand-in
/// marks none of its `gen_range` chain `#[inline]`; from a loop in any
/// other unit (a `collect` puts it in `Vec::from_iter`'s) ThinLTO has to
/// import the chain three calls deep, which succeeds or not with how the
/// dependent crate happens to be partitioned, and when it does not each
/// element pays two 64-bit divisions by the modulus (the repo
/// benchmark's `setup_s` at m = 256, l = 1024: 0.9 or 1.4 ms). Crates-io
/// `rand` inlines either way.
pub(crate) trait DrawScalars: Rng {
    /// Draws `n` scalars, in order.
    fn draw_scalars<F: Scalar>(&mut self, n: usize) -> Vec<F> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(F::sample(self));
        }
        out
    }
}

impl<R: Rng + ?Sized> DrawScalars for R {}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn f64_field_basics() {
        assert_eq!(<f64 as Scalar>::zero(), 0.0);
        assert_eq!(<f64 as Scalar>::one(), 1.0);
        assert_eq!(Scalar::add(2.0, 3.0), 5.0);
        assert_eq!(Scalar::sub(2.0, 3.0), -1.0);
        assert_eq!(Scalar::mul(2.0, 3.0), 6.0);
        assert_eq!(Scalar::neg(2.0), -2.0);
        assert_eq!(Scalar::inv(2.0), Some(0.5));
        assert_eq!(Scalar::inv(0.0), None);
        assert_eq!(Scalar::div(6.0, 3.0), Some(2.0));
        assert_eq!(Scalar::div(6.0, 0.0), None);
    }

    #[test]
    fn f64_zero_tolerance() {
        assert!(Scalar::is_zero(&0.0));
        assert!(Scalar::is_zero(&1e-12));
        assert!(!Scalar::is_zero(&1e-6));
        assert_eq!(Scalar::pivot_weight(&0.0), 0.0);
        assert_eq!(Scalar::pivot_weight(&1e-12), 0.0);
        assert_eq!(Scalar::pivot_weight(&-3.0), 3.0);
    }

    #[test]
    fn f64_sample_is_finite_and_varied() {
        let mut rng = StdRng::seed_from_u64(7);
        let xs: Vec<f64> = (0..100)
            .map(|_| <f64 as Scalar>::sample(&mut rng))
            .collect();
        assert!(xs.iter().all(|x| x.is_finite()));
        // Standard-normal samples: mean near 0, not all equal.
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 0.5, "mean {mean} too far from 0");
        assert!(xs.iter().any(|&x| (x - xs[0]).abs() > 1e-6));
    }
}

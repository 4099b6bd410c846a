//! A generic prime field `GF(P)` with a const-generic modulus.
//!
//! [`Fp61`](crate::fp::Fp61) is the production field: a Mersenne prime
//! large enough that random matrices are invertible with probability
//! `1 − 2⁻⁶¹`. `FpGeneric<P>` complements it for two purposes:
//!
//! * **wire efficiency** — deployments with small payloads can run over
//!   e.g. `GF(257)` or `GF(65537)` and ship one or two bytes per value;
//! * **adversarial testing** — over a small field, random constructions
//!   (dense mixers, straggler extensions) *do* occasionally come out
//!   singular, which exercises the re-sampling and error paths that a
//!   2⁶¹-sized field never hits in practice.
//!
//! The modulus is validated with a `const`-evaluated primality test, so
//! the runtime assertion compiles away entirely for valid moduli.

use std::fmt;

use rand::Rng;

use crate::scalar::Scalar;

/// An element of `GF(P)` for a caller-chosen prime `P < 2^31`.
///
/// The bound `P < 2^31` keeps products inside `u64` without widening to
/// `u128`, which makes small fields cheap.
///
/// # Panics
///
/// Any arithmetic or sampling panics if `P` is not a prime in
/// `[2, 2^31)` — the check runs once per field and is cached.
///
/// # Example
///
/// ```
/// use scec_linalg::fp_generic::FpGeneric;
///
/// type F257 = FpGeneric<257>;
/// let a = F257::new(200);
/// let b = F257::new(100);
/// assert_eq!((a + b).residue(), 43); // 300 mod 257
/// assert_eq!((a / b) * b, a);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct FpGeneric<const P: u64>(u64);

/// Trial-division primality test, const-evaluable so the check costs
/// nothing at runtime.
const fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    if n.is_multiple_of(2) {
        return n == 2;
    }
    let mut d = 3;
    while d * d <= n {
        if n.is_multiple_of(d) {
            return false;
        }
        d += 2;
    }
    true
}

impl<const P: u64> FpGeneric<P> {
    /// Evaluated at monomorphization time; the runtime assert on it
    /// compiles away for valid moduli.
    const VALID_MODULUS: bool = P >= 2 && P < (1 << 31) && is_prime(P);

    fn assert_valid_modulus() {
        assert!(
            Self::VALID_MODULUS,
            "modulus {P} is not prime (or not below 2^31)"
        );
    }

    /// Creates a field element, reducing modulo `P`.
    ///
    /// # Panics
    ///
    /// Panics when `P` is not a prime below `2^31`.
    #[inline]
    pub fn new(value: u64) -> Self {
        Self::assert_valid_modulus();
        FpGeneric(value % P)
    }

    /// The canonical representative in `[0, P)`.
    #[inline]
    pub fn residue(self) -> u64 {
        self.0
    }

    /// Modular exponentiation by squaring.
    pub fn pow(self, mut exp: u64) -> Self {
        let mut base = self;
        let mut acc = FpGeneric(1 % P);
        while exp > 0 {
            if exp & 1 == 1 {
                acc = acc * base;
            }
            base = base * base;
            exp >>= 1;
        }
        acc
    }
}

impl<const P: u64> fmt::Debug for FpGeneric<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fp<{P}>({})", self.0)
    }
}

impl<const P: u64> fmt::Display for FpGeneric<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

impl<const P: u64> std::ops::Add for FpGeneric<P> {
    type Output = Self;

    #[inline]
    fn add(self, rhs: Self) -> Self {
        let mut s = self.0 + rhs.0;
        if s >= P {
            s -= P;
        }
        FpGeneric(s)
    }
}

impl<const P: u64> std::ops::Sub for FpGeneric<P> {
    type Output = Self;

    #[inline]
    fn sub(self, rhs: Self) -> Self {
        FpGeneric(if self.0 >= rhs.0 {
            self.0 - rhs.0
        } else {
            self.0 + P - rhs.0
        })
    }
}

impl<const P: u64> std::ops::Mul for FpGeneric<P> {
    type Output = Self;

    #[inline]
    fn mul(self, rhs: Self) -> Self {
        // P < 2^31 so the product fits u64 exactly.
        FpGeneric(self.0 * rhs.0 % P)
    }
}

impl<const P: u64> std::ops::Neg for FpGeneric<P> {
    type Output = Self;

    #[inline]
    fn neg(self) -> Self {
        if self.0 == 0 {
            self
        } else {
            FpGeneric(P - self.0)
        }
    }
}

impl<const P: u64> std::ops::Div for FpGeneric<P> {
    type Output = Self;

    /// # Panics
    ///
    /// Panics on division by zero; use [`Scalar::div`] for the fallible
    /// form.
    #[inline]
    fn div(self, rhs: Self) -> Self {
        Scalar::div(self, rhs).expect("division by zero in GF(P)")
    }
}

impl<const P: u64> Scalar for FpGeneric<P> {
    #[inline]
    fn zero() -> Self {
        Self::assert_valid_modulus();
        FpGeneric(0)
    }

    #[inline]
    fn one() -> Self {
        Self::assert_valid_modulus();
        FpGeneric(1 % P)
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
            Some(self.pow(P - 2))
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
        Self::assert_valid_modulus();
        FpGeneric(rng.gen_range(0..P))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gauss;
    use crate::matrix::Matrix;
    use rand::{rngs::StdRng, SeedableRng};

    type F257 = FpGeneric<257>;
    type F65537 = FpGeneric<65537>;

    #[test]
    fn field_axioms_smoke() {
        for a in [0u64, 1, 7, 128, 256] {
            for b in [0u64, 1, 100, 256] {
                let (fa, fb) = (F257::new(a), F257::new(b));
                assert_eq!((fa + fb).residue(), (a + b) % 257);
                assert_eq!((fa * fb).residue(), a * b % 257);
                assert_eq!(fa + (-fa), F257::new(0));
                if b % 257 != 0 {
                    assert_eq!((fa / fb) * fb, fa);
                }
            }
        }
    }

    #[test]
    fn fermat_inverse() {
        for v in 1..257u64 {
            let x = F257::new(v);
            assert_eq!(x * Scalar::inv(x).unwrap(), F257::new(1));
        }
        assert_eq!(Scalar::inv(F257::new(0)), None);
    }

    #[test]
    fn large_prime_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Matrix::<F65537>::random(8, 8, &mut rng);
        if let Ok(inv) = gauss::invert(&a) {
            assert_eq!(a.matmul(&inv).unwrap(), Matrix::identity(8));
        }
    }

    #[test]
    fn small_field_singularity_happens_and_is_handled() {
        // Over GF(257), random 8x8 matrices are singular w.p. ~1/257·c;
        // scanning seeds must find at least one singular draw, and rank
        // must never panic.
        let mut singular_seen = false;
        for seed in 0..2000u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = Matrix::<F257>::random(8, 8, &mut rng);
            if a.rank() < 8 {
                singular_seen = true;
                assert!(gauss::invert(&a).is_err());
                break;
            }
        }
        assert!(
            singular_seen,
            "no singular matrix in 2000 draws — suspicious"
        );
    }

    #[test]
    fn solve_works_over_small_field() {
        use crate::vector::Vector;
        let mut rng = StdRng::seed_from_u64(5);
        let a = Matrix::<F257>::random(5, 5, &mut rng);
        let x = Vector::<F257>::random(5, &mut rng);
        let b = a.matvec(&x).unwrap();
        match gauss::solve(&a, &b) {
            Ok(got) => assert_eq!(a.matvec(&got).unwrap(), b),
            Err(_) => assert!(a.rank() < 5),
        }
    }

    #[test]
    fn pow_edge_cases() {
        assert_eq!(F257::new(2).pow(8).residue(), 256);
        assert_eq!(F257::new(5).pow(0).residue(), 1);
        assert_eq!(F257::new(3).pow(256).residue(), 1); // Fermat
    }

    #[test]
    #[should_panic(expected = "not prime")]
    fn composite_modulus_panics() {
        let _ = FpGeneric::<256>::new(1);
    }

    #[test]
    fn display_and_debug() {
        assert_eq!(F257::new(300).to_string(), "43");
        assert_eq!(format!("{:?}", F257::new(43)), "Fp<257>(43)");
    }
}

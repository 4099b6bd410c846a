//! Result integrity: detecting *wrong* answers, not just curious devices.
//!
//! The paper's attack model is honest-but-curious — devices follow the
//! protocol. A deployed system also wants to notice when they don't
//! (bit-flips, bugs, or actively Byzantine devices). This module adds a
//! Freivalds-style check in the spirit of the verifiable-computing line
//! the paper cites ([16] Gennaro–Gentry–Parno):
//!
//! * **offline**, the cloud samples a secret vector `u` and hands the
//!   user the pair `(u, uᵀA)`;
//! * **online**, after decoding `y`, the user accepts iff
//!   `uᵀ·y == (uᵀA)·x` — two inner products, O(m + l) per query.
//!
//! Over GF(2⁶¹−1) any incorrect `y` passes with probability `2⁻⁶¹`
//! (it would require `u ⊥ (y − A·x)` for a `u` the devices never see);
//! over `f64` the check is applied with a relative tolerance. The key is
//! reusable across queries because `u` stays secret from the devices.

use rand::Rng;

use scec_linalg::{Matrix, Scalar, Vector};

use crate::error::{Error, Result};
use crate::system::Deployment;

/// A reusable integrity key `(u, uᵀA)` held by the user.
///
/// # Example
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use scec_core::IntegrityKey;
/// use scec_linalg::{Fp61, Matrix, Vector};
///
/// let mut rng = StdRng::seed_from_u64(2);
/// let a = Matrix::<Fp61>::random(5, 3, &mut rng);
/// let key = IntegrityKey::generate(&a, &mut rng)?;
/// let x = Vector::<Fp61>::random(3, &mut rng);
/// let y = a.matvec(&x).unwrap();
/// assert!(key.verify(&x, &y)?);
/// let mut forged = y.clone();
/// forged.as_mut_slice()[0] = forged.at(0) + Fp61::new(1);
/// assert!(!key.verify(&x, &forged)?);
/// # Ok::<(), scec_core::Error>(())
/// ```
#[derive(Clone, PartialEq)]
pub struct IntegrityKey<F> {
    u: Vector<F>,
    ut_a: Vector<F>,
}

impl<F: Scalar> std::fmt::Debug for IntegrityKey<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The check vector is secret; print only the shape.
        f.debug_struct("IntegrityKey")
            .field("rows", &self.u.len())
            .field("width", &self.ut_a.len())
            .finish()
    }
}

impl<F: Scalar> IntegrityKey<F> {
    /// Cloud-side: samples `u` and precomputes `uᵀA`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyData`] when `a` is empty.
    pub fn generate<R: Rng + ?Sized>(a: &Matrix<F>, rng: &mut R) -> Result<Self> {
        if a.is_empty() {
            return Err(Error::EmptyData);
        }
        let u = Vector::<F>::random(a.nrows(), rng);
        // uᵀA via the fused transposed kernel — no materialized transpose.
        let ut_a = a.tr_matvec(&u).map_err(scec_coding::Error::from)?;
        Ok(IntegrityKey { u, ut_a })
    }

    /// Number of data rows this key checks.
    pub fn rows(&self) -> usize {
        self.u.len()
    }

    /// Checks a query of `x_len` entries and a result of `y_len` against
    /// the key's shape.
    fn check_shapes(&self, x_len: usize, y_len: usize) -> Result<()> {
        if y_len != self.u.len() {
            return Err(Error::Coding(scec_coding::Error::PayloadShape {
                what: "result vector vs integrity key",
                expected: (self.u.len(), 1),
                got: (y_len, 1),
            }));
        }
        if x_len != self.ut_a.len() {
            return Err(Error::Coding(scec_coding::Error::PayloadShape {
                what: "query vector vs integrity key",
                expected: (self.ut_a.len(), 1),
                got: (x_len, 1),
            }));
        }
        Ok(())
    }

    /// The residual `uᵀ·y − (uᵀA)·x`; zero (within field exactness) for a
    /// correct result.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Coding`] for shape mismatches.
    pub fn residual(&self, x: &Vector<F>, y: &Vector<F>) -> Result<F> {
        self.check_shapes(x.len(), y.len())?;
        let lhs = self.u.dot(y).map_err(scec_coding::Error::from)?;
        let rhs = self.ut_a.dot(x).map_err(scec_coding::Error::from)?;
        Ok(lhs.sub(rhs))
    }

    /// Whether `y` is (with overwhelming probability) really `A·x`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Coding`] for shape mismatches.
    pub fn verify(&self, x: &Vector<F>, y: &Vector<F>) -> Result<bool> {
        Ok(self.residual(x, y)?.is_zero())
    }

    /// [`verify`](Self::verify) for a result that is not laid out as a
    /// [`Vector`] — row-tagged responses, say: `y` yields the entries in
    /// row order, and the residual is taken over them where they sit.
    /// The same test against the same `u`, with the same acceptance
    /// rule.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Coding`] for shape mismatches.
    pub fn verify_values(
        &self,
        x: &Vector<F>,
        y: impl ExactSizeIterator<Item = F>,
    ) -> Result<bool> {
        self.check_shapes(x.len(), y.len())?;
        let weigh = |acc: F, (&u, y): (&F, F)| acc.add(u.mul(y));
        let lhs = self.u.as_slice().iter().zip(y).fold(F::zero(), weigh);
        let rhs = self.ut_a.dot(x).map_err(scec_coding::Error::from)?;
        Ok(lhs.sub(rhs).is_zero())
    }

    /// Batched residuals for a query panel: entry `j` is
    /// `uᵀ·Y_j − (uᵀA)·X_j`, zero for a correct column.
    ///
    /// One `Yᵀu` matvec and one `Xᵀ(uᵀA)` matvec check all `k` columns —
    /// two fused transposed kernels per **panel** instead of two dots per
    /// query; the per-column soundness bound (`2⁻⁶¹` over GF(2⁶¹−1)) is
    /// unchanged because each column is still an independent Freivalds
    /// test against the same secret `u`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Coding`] when `xs`/`ys` widths disagree or their
    /// row counts do not match the key.
    pub fn residual_panel(&self, xs: &Matrix<F>, ys: &Matrix<F>) -> Result<Vector<F>> {
        if ys.nrows() != self.u.len() || ys.ncols() != xs.ncols() {
            return Err(Error::Coding(scec_coding::Error::PayloadShape {
                what: "result panel vs integrity key",
                expected: (self.u.len(), xs.ncols()),
                got: ys.shape(),
            }));
        }
        if xs.nrows() != self.ut_a.len() {
            return Err(Error::Coding(scec_coding::Error::PayloadShape {
                what: "query panel vs integrity key",
                expected: (self.ut_a.len(), xs.ncols()),
                got: xs.shape(),
            }));
        }
        let lhs = ys.tr_matvec(&self.u).map_err(scec_coding::Error::from)?;
        let rhs = xs.tr_matvec(&self.ut_a).map_err(scec_coding::Error::from)?;
        Ok(lhs.sub(&rhs).map_err(scec_coding::Error::from)?)
    }

    /// Batched verify: checks every column of a decoded panel at once.
    /// Returns `Ok(None)` when every column passes, or `Ok(Some(j))` with
    /// the index of the first corrupted column.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Coding`] for shape mismatches.
    pub fn verify_panel(&self, xs: &Matrix<F>, ys: &Matrix<F>) -> Result<Option<usize>> {
        let residuals = self.residual_panel(xs, ys)?;
        Ok(residuals.as_slice().iter().position(|r| !r.is_zero()))
    }
}

/// Runs a secure query and verifies the result before returning it.
///
/// # Errors
///
/// * Propagates [`Deployment::query`] failures;
/// * returns [`Error::IntegrityViolation`] when the decoded result fails
///   the Freivalds check — some device returned a wrong partial.
pub fn query_verified<F: Scalar>(
    deployment: &Deployment<F>,
    key: &IntegrityKey<F>,
    x: &Vector<F>,
) -> Result<Vector<F>> {
    let y = deployment.query(x)?;
    if !key.verify(x, &y)? {
        return Err(Error::IntegrityViolation);
    }
    Ok(y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::AllocationStrategy;
    use crate::system::ScecSystem;
    use rand::{rngs::StdRng, SeedableRng};
    use scec_allocation::EdgeFleet;
    use scec_linalg::Fp61;

    fn setup(seed: u64) -> (Matrix<Fp61>, Deployment<Fp61>, IntegrityKey<Fp61>, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::<Fp61>::random(7, 4, &mut rng);
        let fleet = EdgeFleet::from_unit_costs(vec![1.0, 1.5, 2.0, 2.5]).unwrap();
        let sys =
            ScecSystem::build(a.clone(), fleet, AllocationStrategy::Mcscec, &mut rng).unwrap();
        let deployment = sys.distribute(&mut rng).unwrap();
        let key = IntegrityKey::generate(&a, &mut rng).unwrap();
        (a, deployment, key, rng)
    }

    #[test]
    fn honest_results_verify() {
        let (a, deployment, key, mut rng) = setup(1);
        for _ in 0..10 {
            let x = Vector::<Fp61>::random(4, &mut rng);
            let y = query_verified(&deployment, &key, &x).unwrap();
            assert_eq!(y, a.matvec(&x).unwrap());
        }
    }

    #[test]
    fn any_single_corruption_is_caught() {
        let (a, deployment, key, mut rng) = setup(2);
        let x = Vector::<Fp61>::random(4, &mut rng);
        let y = a.matvec(&x).unwrap();
        let _ = deployment;
        // Corrupt each coordinate in turn; all must be rejected.
        for p in 0..y.len() {
            let mut bad = y.clone();
            bad.as_mut_slice()[p] = bad.at(p) + Fp61::new(1);
            assert!(!key.verify(&x, &bad).unwrap(), "corruption at {p} passed");
            assert!(!key.residual(&x, &bad).unwrap().is_zero());
        }
        assert!(key.verify(&x, &y).unwrap());
    }

    #[test]
    fn byzantine_partial_fails_the_query_path() {
        // Corrupt one device's partial before recovery: the decoded y is
        // wrong somewhere, and the verified path must reject it.
        let (_a, deployment, key, mut rng) = setup(3);
        let x = Vector::<Fp61>::random(4, &mut rng);
        let mut partials = deployment.partials(&x).unwrap();
        let victim = partials.len() - 1;
        let slice = partials[victim].as_mut_slice();
        slice[0] += Fp61::new(42);
        let y = deployment.recover(&partials).unwrap();
        assert!(!key.verify(&x, &y).unwrap());
    }

    #[test]
    fn key_is_reusable_across_queries() {
        let (a, deployment, key, mut rng) = setup(4);
        for _ in 0..5 {
            let x = Vector::<Fp61>::random(4, &mut rng);
            let y = deployment.query(&x).unwrap();
            assert!(key.verify(&x, &y).unwrap());
            assert_eq!(y, a.matvec(&x).unwrap());
        }
        assert_eq!(key.rows(), 7);
    }

    #[test]
    fn honest_panels_verify_and_match_per_query_residuals() {
        let (a, _deployment, key, mut rng) = setup(8);
        for k in [1usize, 6] {
            let xs = Matrix::<Fp61>::random(4, k, &mut rng);
            let ys = a.matmul(&xs).unwrap();
            assert_eq!(key.verify_panel(&xs, &ys).unwrap(), None, "k={k}");
            let residuals = key.residual_panel(&xs, &ys).unwrap();
            for j in 0..k {
                assert_eq!(
                    residuals.at(j),
                    key.residual(&xs.col(j), &ys.col(j)).unwrap(),
                    "k={k} column {j}"
                );
            }
        }
    }

    #[test]
    fn panel_verify_pinpoints_each_corrupted_column() {
        let (a, _deployment, key, mut rng) = setup(9);
        let xs = Matrix::<Fp61>::random(4, 5, &mut rng);
        let ys = a.matmul(&xs).unwrap();
        for victim in 0..5 {
            let mut bad = ys.clone();
            let old = bad.at(2, victim);
            bad.set(2, victim, old + Fp61::new(1)).unwrap();
            assert_eq!(
                key.verify_panel(&xs, &bad).unwrap(),
                Some(victim),
                "corrupted column {victim} not identified"
            );
        }
    }

    #[test]
    fn panel_verify_validates_shapes() {
        let (_a, _deployment, key, mut rng) = setup(10);
        let xs = Matrix::<Fp61>::random(4, 3, &mut rng);
        assert!(key.verify_panel(&xs, &Matrix::zeros(6, 3)).is_err());
        assert!(key.verify_panel(&xs, &Matrix::zeros(7, 2)).is_err());
        assert!(key
            .verify_panel(&Matrix::zeros(5, 3), &Matrix::zeros(7, 3))
            .is_err());
    }

    #[test]
    fn shape_validation() {
        let (_a, _deployment, key, _rng) = setup(5);
        let bad_y = Vector::<Fp61>::zeros(3);
        let x = Vector::<Fp61>::zeros(4);
        assert!(key.verify(&x, &bad_y).is_err());
        let y = Vector::<Fp61>::zeros(7);
        let bad_x = Vector::<Fp61>::zeros(9);
        assert!(key.verify(&bad_x, &y).is_err());
        let mut rng = StdRng::seed_from_u64(6);
        assert!(IntegrityKey::<Fp61>::generate(&Matrix::zeros(0, 3), &mut rng).is_err());
    }

    #[test]
    fn f64_mode_verifies_with_tolerance_semantics() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = Matrix::<f64>::random(6, 3, &mut rng);
        let key = IntegrityKey::generate(&a, &mut rng).unwrap();
        let x = Vector::<f64>::random(3, &mut rng);
        let y = a.matvec(&x).unwrap();
        // f64 Scalar::is_zero applies the numeric tolerance.
        assert!(key.verify(&x, &y).unwrap());
        let mut bad = y.clone();
        bad.as_mut_slice()[0] += 1.0;
        assert!(!key.verify(&x, &bad).unwrap());
    }
}

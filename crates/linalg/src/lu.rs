//! PLU factorization: factor a square matrix once, solve many times.
//!
//! The `t`-private decoder (and any deployment answering a stream of
//! queries through the same code) repeatedly solves systems against the
//! *same* coefficient matrix. Refactoring the Gaussian elimination into a
//! reusable factorization turns each subsequent solve from O(n³) into
//! O(n²).

use crate::error::{Error, Result};
use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::vector::Vector;

/// A PLU factorization `P·A = L·U` with partial pivoting.
///
/// `L` (unit lower triangular) and `U` (upper triangular) are packed into
/// one matrix; `perm` records the row permutation.
///
/// # Example
///
/// ```
/// use scec_linalg::{lu::Lu, Matrix, Vector};
///
/// let a = Matrix::from_rows(vec![vec![4.0, 3.0], vec![6.0, 3.0]])?;
/// let lu = Lu::factor(&a)?;
/// let x = lu.solve(&Vector::from_vec(vec![10.0, 12.0]))?;
/// // 4x + 3y = 10, 6x + 3y = 12 → x = 1, y = 2
/// assert!((x.at(0) - 1.0).abs() < 1e-12);
/// assert!((x.at(1) - 2.0).abs() < 1e-12);
/// # Ok::<(), scec_linalg::Error>(())
/// ```
#[derive(Clone, PartialEq)]
pub struct Lu<F> {
    packed: Matrix<F>,
    perm: Vec<usize>,
    swaps_odd: bool,
}

impl<F: Scalar> std::fmt::Debug for Lu<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lu")
            .field("packed", &self.packed)
            .field("perm", &self.perm)
            .field("swaps_odd", &self.swaps_odd)
            .finish()
    }
}

impl<F: Scalar> Lu<F> {
    /// Factors a square, invertible matrix.
    ///
    /// # Errors
    ///
    /// * [`Error::NotSquare`] when `a` is not square;
    /// * [`Error::Empty`] when `a` has no rows;
    /// * [`Error::Singular`] when `a` is (numerically) rank deficient.
    pub fn factor(a: &Matrix<F>) -> Result<Self> {
        let (rows, cols) = a.shape();
        if rows != cols {
            return Err(Error::NotSquare { rows, cols });
        }
        if rows == 0 {
            return Err(Error::Empty);
        }
        let n = rows;
        let mut packed = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut swaps_odd = false;
        for k in 0..n {
            // Partial pivoting within column k.
            let mut best = k;
            let mut best_w = packed.at(k, k).pivot_weight();
            for r in (k + 1)..n {
                let w = packed.at(r, k).pivot_weight();
                if w > best_w {
                    best = r;
                    best_w = w;
                }
            }
            if best_w == 0.0 {
                return Err(Error::Singular);
            }
            if best != k {
                packed.swap_rows(k, best);
                perm.swap(k, best);
                swaps_odd = !swaps_odd;
            }
            let pivot = packed.at(k, k);
            let inv = pivot.inv().expect("non-zero pivot");
            // Copy the pivot row's trailing block once so the update can
            // run on the fused slice kernel (disjoint borrows).
            let pivot_tail: Vec<F> = packed.row(k)[k + 1..].to_vec();
            for r in (k + 1)..n {
                let factor = packed.at(r, k).mul(inv);
                packed.set(r, k, factor)?; // store L multiplier in place
                if factor.is_zero() {
                    continue;
                }
                let row = packed.row_mut(r);
                F::fused_submul(&mut row[k + 1..], factor, &pivot_tail);
            }
        }
        Ok(Lu {
            packed,
            perm,
            swaps_odd,
        })
    }

    /// The system dimension `n`.
    pub fn dim(&self) -> usize {
        self.packed.nrows()
    }

    /// Solves `A·x = b` using the stored factors (O(n²)).
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] when `b.len() != self.dim()`.
    pub fn solve(&self, b: &Vector<F>) -> Result<Vector<F>> {
        let n = self.dim();
        let mut scratch = vec![F::zero(); n];
        let mut x = vec![F::zero(); n];
        self.solve_into(b.as_slice(), &mut scratch, &mut x)?;
        Ok(Vector::from_vec(x))
    }

    /// Allocation-free solve for streams of right-hand sides against the
    /// same factorization: writes the solution of `A·x = b` into `out`,
    /// using `scratch` for the forward-substitution intermediate. Both
    /// working slices must have length [`dim`](Self::dim); callers keep
    /// them across queries so a sustained solve stream performs zero
    /// allocations. The substitution inner loops run on the fused
    /// [`Scalar::dot_slices`] kernel, so `Fp61` triangular solves get
    /// lazy reduction like the dense products do.
    ///
    /// # Errors
    ///
    /// * [`Error::ShapeMismatch`] when `b`, `scratch`, or `out` is not of
    ///   length `dim()`;
    /// * [`Error::Singular`] when a diagonal entry is not invertible
    ///   (impossible for a factorization produced by [`Lu::factor`]).
    pub fn solve_into(&self, b: &[F], scratch: &mut [F], out: &mut [F]) -> Result<()> {
        let n = self.dim();
        if b.len() != n || scratch.len() != n || out.len() != n {
            return Err(Error::ShapeMismatch {
                op: "lu_solve_into",
                lhs: (n, n),
                rhs: (b.len().max(scratch.len()).max(out.len()), 1),
            });
        }
        // Forward substitution on P·b with unit-diagonal L.
        for i in 0..n {
            let row = self.packed.row(i);
            let acc = F::dot_slices(&row[..i], &scratch[..i]);
            scratch[i] = b[self.perm[i]].sub(acc);
        }
        // Backward substitution with U.
        for i in (0..n).rev() {
            let row = self.packed.row(i);
            let acc = F::dot_slices(&row[i + 1..], &out[i + 1..]);
            let diag = row[i];
            out[i] = scratch[i].sub(acc).div(diag).ok_or(Error::Singular)?;
        }
        Ok(())
    }

    /// Solves `A·X = B` for a whole right-hand-side panel.
    ///
    /// Allocates the working buffers once and delegates to
    /// [`Lu::solve_panel_into`]; results are bit-identical to solving
    /// column by column with [`Lu::solve`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] when `b.nrows() != self.dim()`.
    pub fn solve_matrix(&self, b: &Matrix<F>) -> Result<Matrix<F>> {
        let n = self.dim();
        let k = b.ncols();
        let mut scratch = vec![F::zero(); (n + 1) * k];
        let mut out = Matrix::zeros(n, k);
        self.solve_panel_into(b, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// Scratch length [`Lu::solve_panel_into`] requires for a panel of
    /// `width` right-hand sides: `dim` intermediate rows plus one
    /// accumulator row.
    #[inline]
    pub fn panel_scratch_len(&self, width: usize) -> usize {
        (self.dim() + 1) * width
    }

    /// Allocation-free multi-RHS solve: writes the solution of `A·X = B`
    /// into `out` for an `n×k` panel `B`, using `scratch` (length
    /// [`panel_scratch_len`](Self::panel_scratch_len)) for the
    /// forward-substitution intermediate plus one accumulator row.
    ///
    /// The substitution runs row-wise over the panel on the fused
    /// [`Scalar::fused_muladd`] kernel, but accumulates per column in
    /// exactly the order [`Lu::solve_into`] does (ascending `j`, one
    /// subtraction, one multiply by the row's pivot inverse), so the
    /// panel result is **bit-identical** to `k` independent per-column
    /// solves — exactly over finite fields and bitwise over `f64`. One
    /// pivot inversion per row is shared by all `k` columns, so over
    /// `Fp61` the panel solve also amortizes the Fermat inversions.
    ///
    /// # Errors
    ///
    /// * [`Error::ShapeMismatch`] when `b` or `out` is not `dim×k` or
    ///   `scratch` is not of length `(dim+1)·k`;
    /// * [`Error::Singular`] when a diagonal entry is not invertible
    ///   (impossible for a factorization produced by [`Lu::factor`]).
    pub fn solve_panel_into(
        &self,
        b: &Matrix<F>,
        scratch: &mut [F],
        out: &mut Matrix<F>,
    ) -> Result<()> {
        let n = self.dim();
        let k = b.ncols();
        if b.nrows() != n || out.shape() != (n, k) || scratch.len() != (n + 1) * k {
            return Err(Error::ShapeMismatch {
                op: "lu_solve_panel_into",
                lhs: (n, k),
                rhs: (out.nrows().max(b.nrows()), scratch.len()),
            });
        }
        if k == 0 {
            return Ok(());
        }
        let (s, acc) = scratch.split_at_mut(n * k);
        // Forward substitution on P·B with unit-diagonal L:
        // S[i,:] = B[perm[i],:] − Σ_{j<i} L[i,j]·S[j,:].
        for i in 0..n {
            let lrow = self.packed.row(i);
            let (done, rest) = s.split_at_mut(i * k);
            acc.fill(F::zero());
            for (j, srow) in done.chunks_exact(k).enumerate() {
                F::fused_muladd(acc, lrow[j], srow);
            }
            let brow = b.row(self.perm[i]);
            for ((t, &bv), &a) in rest[..k].iter_mut().zip(brow).zip(acc.iter()) {
                *t = bv.sub(a);
            }
        }
        // Backward substitution with U:
        // X[i,:] = (S[i,:] − Σ_{j>i} U[i,j]·X[j,:]) · U[i,i]⁻¹.
        let of = out.flat_mut();
        for i in (0..n).rev() {
            let urow = self.packed.row(i);
            let diag_inv = urow[i].inv().ok_or(Error::Singular)?;
            let (head, tail) = of.split_at_mut((i + 1) * k);
            acc.fill(F::zero());
            for (j, xrow) in tail.chunks_exact(k).enumerate() {
                F::fused_muladd(acc, urow[i + 1 + j], xrow);
            }
            let srow = &s[i * k..(i + 1) * k];
            for ((t, &sv), &a) in head[i * k..].iter_mut().zip(srow).zip(acc.iter()) {
                *t = sv.sub(a).mul(diag_inv);
            }
        }
        Ok(())
    }

    /// The determinant, from the product of `U`'s diagonal and the
    /// permutation sign.
    pub fn determinant(&self) -> F {
        let mut det = F::one();
        for i in 0..self.dim() {
            det = det.mul(self.packed.at(i, i));
        }
        if self.swaps_odd {
            det.neg()
        } else {
            det
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fp::Fp61;
    use crate::gauss;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn factor_solve_matches_gauss() {
        let mut rng = StdRng::seed_from_u64(1);
        for n in [1usize, 2, 5, 12] {
            let a = Matrix::<Fp61>::random(n, n, &mut rng);
            let lu = Lu::factor(&a).unwrap();
            for _ in 0..3 {
                let b = Vector::<Fp61>::random(n, &mut rng);
                let via_lu = lu.solve(&b).unwrap();
                let via_gauss = gauss::solve(&a, &b).unwrap();
                assert_eq!(via_lu, via_gauss, "n={n}");
            }
        }
    }

    #[test]
    fn f64_accuracy() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 20;
        let a = Matrix::<f64>::random(n, n, &mut rng);
        let want = Vector::<f64>::random(n, &mut rng);
        let b = a.matvec(&want).unwrap();
        let lu = Lu::factor(&a).unwrap();
        let got = lu.solve(&b).unwrap();
        for i in 0..n {
            assert!((got.at(i) - want.at(i)).abs() < 1e-6, "i={i}");
        }
    }

    #[test]
    fn solve_matrix_matches_columnwise() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Matrix::<Fp61>::random(6, 6, &mut rng);
        let b = Matrix::<Fp61>::random(6, 4, &mut rng);
        let lu = Lu::factor(&a).unwrap();
        let x = lu.solve_matrix(&b).unwrap();
        assert_eq!(a.matmul(&x).unwrap(), b);
    }

    #[test]
    fn panel_solve_bit_identical_to_per_column() {
        let mut rng = StdRng::seed_from_u64(5);
        for k in [1usize, 3, 8] {
            let a = Matrix::<Fp61>::random(9, 9, &mut rng);
            let b = Matrix::<Fp61>::random(9, k, &mut rng);
            let lu = Lu::factor(&a).unwrap();
            let panel = lu.solve_matrix(&b).unwrap();
            for c in 0..k {
                assert_eq!(panel.col(c), lu.solve(&b.col(c)).unwrap(), "k={k} c={c}");
            }

            // f64: bitwise, not approximate — the panel path performs the
            // same float ops in the same order as the per-column path.
            let af = Matrix::<f64>::random(9, 9, &mut rng);
            let bf = Matrix::<f64>::random(9, k, &mut rng);
            let luf = Lu::factor(&af).unwrap();
            let panelf = luf.solve_matrix(&bf).unwrap();
            for c in 0..k {
                let col = luf.solve(&bf.col(c)).unwrap();
                for i in 0..9 {
                    assert!(
                        panelf.at(i, c).to_bits() == col.at(i).to_bits(),
                        "f64 k={k} c={c} i={i}"
                    );
                }
            }
        }
    }

    #[test]
    fn panel_solve_validates_shapes() {
        let a = Matrix::<f64>::identity(3);
        let lu = Lu::factor(&a).unwrap();
        let b = Matrix::<f64>::zeros(3, 2);
        assert_eq!(lu.panel_scratch_len(2), 8);
        let mut out = Matrix::zeros(3, 2);
        let mut short = vec![0.0; 7];
        assert!(lu.solve_panel_into(&b, &mut short, &mut out).is_err());
        let mut wrong_out = Matrix::zeros(2, 2);
        let mut scratch = vec![0.0; 8];
        assert!(lu
            .solve_panel_into(&b, &mut scratch, &mut wrong_out)
            .is_err());
        assert!(lu.solve_panel_into(&b, &mut scratch, &mut out).is_ok());
    }

    #[test]
    fn determinant_matches_gauss() {
        let mut rng = StdRng::seed_from_u64(4);
        for n in [2usize, 3, 6] {
            let a = Matrix::<Fp61>::random(n, n, &mut rng);
            let lu = Lu::factor(&a).unwrap();
            assert_eq!(lu.determinant(), gauss::determinant(&a).unwrap(), "n={n}");
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(matches!(
            Lu::factor(&Matrix::<f64>::zeros(2, 3)),
            Err(Error::NotSquare { .. })
        ));
        assert!(matches!(
            Lu::<f64>::factor(&Matrix::zeros(0, 0)),
            Err(Error::Empty)
        ));
        let singular = Matrix::from_rows(vec![vec![1.0, 2.0], vec![2.0, 4.0]]).unwrap();
        assert!(matches!(Lu::factor(&singular), Err(Error::Singular)));
        let a = Matrix::<f64>::identity(3);
        let lu = Lu::factor(&a).unwrap();
        assert!(lu.solve(&Vector::zeros(2)).is_err());
        assert!(lu.solve_matrix(&Matrix::zeros(2, 2)).is_err());
        assert_eq!(lu.dim(), 3);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        // [[0, 1], [1, 0]] needs the row swap to factor at all.
        let a = Matrix::from_rows(vec![vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let lu = Lu::factor(&a).unwrap();
        let x = lu.solve(&Vector::from_vec(vec![3.0, 7.0])).unwrap();
        assert!((x.at(0) - 7.0).abs() < 1e-12);
        assert!((x.at(1) - 3.0).abs() < 1e-12);
        assert!((lu.determinant() + 1.0).abs() < 1e-12);
    }
}

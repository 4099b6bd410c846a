//! Compressed sparse row (CSR) matrices.
//!
//! The structured encoding matrix of Eq. (8) has at most **two** non-zero
//! entries per row, so materializing it densely costs `(m+r)²` field
//! elements of which almost all are zero. `CsrMatrix` stores only the
//! non-zeros and multiplies in O(nnz) — the representation a
//! production cloud would use for encoding and verification at
//! `m = 10⁴⁺` scale.

use crate::error::{Axis, Error, Result};
use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::vector::Vector;

/// A sparse matrix in compressed-sparse-row form.
///
/// # Example
///
/// ```
/// use scec_linalg::{sparse::CsrMatrix, Matrix, Vector};
///
/// // [[1, 0], [0, 2]] from (row, col, value) triplets.
/// let s = CsrMatrix::from_triplets(2, 2, vec![(0, 0, 1.0), (1, 1, 2.0)])?;
/// let x = Vector::from_vec(vec![3.0, 4.0]);
/// assert_eq!(s.matvec(&x)?.as_slice(), &[3.0, 8.0]);
/// assert_eq!(s.to_dense(), Matrix::from_rows(vec![vec![1.0, 0.0], vec![0.0, 2.0]])?);
/// # Ok::<(), scec_linalg::Error>(())
/// ```
#[derive(Clone, PartialEq)]
pub struct CsrMatrix<F> {
    rows: usize,
    cols: usize,
    /// Row pointer: `indptr[i]..indptr[i+1]` indexes row `i`'s entries.
    indptr: Vec<usize>,
    /// Column index per stored entry.
    indices: Vec<usize>,
    /// Value per stored entry.
    values: Vec<F>,
}

impl<F: Scalar> std::fmt::Debug for CsrMatrix<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CsrMatrix")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("nnz", &self.values.len())
            .finish()
    }
}

impl<F: Scalar> CsrMatrix<F> {
    /// Builds from `(row, col, value)` triplets; duplicate positions are
    /// summed, explicit zeros dropped.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IndexOutOfBounds`] when a triplet is outside the
    /// shape.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        mut triplets: Vec<(usize, usize, F)>,
    ) -> Result<Self> {
        for &(r, c, _) in &triplets {
            if r >= rows {
                return Err(Error::IndexOutOfBounds {
                    index: r,
                    bound: rows,
                    axis: Axis::Row,
                });
            }
            if c >= cols {
                return Err(Error::IndexOutOfBounds {
                    index: c,
                    bound: cols,
                    axis: Axis::Col,
                });
            }
        }
        triplets.sort_by_key(|&(r, c, _)| (r, c));
        let mut indptr = vec![0usize; rows + 1];
        let mut indices = Vec::with_capacity(triplets.len());
        let mut values: Vec<F> = Vec::with_capacity(triplets.len());
        let mut row_counts = vec![0usize; rows];
        // Sorted, so duplicates of one position are adjacent: fold each
        // group into one entry, dropping groups that sum to zero.
        let mut i = 0;
        while i < triplets.len() {
            let (r, c, mut v) = triplets[i];
            let mut j = i + 1;
            while j < triplets.len() && triplets[j].0 == r && triplets[j].1 == c {
                v = v.add(triplets[j].2);
                j += 1;
            }
            if !v.is_zero() {
                indices.push(c);
                values.push(v);
                row_counts[r] += 1;
            }
            i = j;
        }
        for r in 0..rows {
            indptr[r + 1] = indptr[r] + row_counts[r];
        }
        Ok(CsrMatrix {
            rows,
            cols,
            indptr,
            indices,
            values,
        })
    }

    /// Converts a dense matrix (dropping zeros).
    pub fn from_dense(m: &Matrix<F>) -> Self {
        let mut triplets = Vec::new();
        for r in 0..m.nrows() {
            for (c, &v) in m.row(r).iter().enumerate() {
                if !v.is_zero() {
                    triplets.push((r, c, v));
                }
            }
        }
        CsrMatrix::from_triplets(m.nrows(), m.ncols(), triplets)
            .expect("indices from a dense matrix are in range")
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The entries of row `i` as `(col, value)` pairs.
    ///
    /// # Panics
    ///
    /// Panics when `i >= nrows`.
    pub fn row_entries(&self, i: usize) -> impl Iterator<Item = (usize, F)> + '_ {
        let span = self.indptr[i]..self.indptr[i + 1];
        self.indices[span.clone()]
            .iter()
            .zip(&self.values[span])
            .map(|(&c, &v)| (c, v))
    }

    /// Densifies.
    pub fn to_dense(&self) -> Matrix<F> {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row_entries(r) {
                out.set(r, c, v).expect("in range");
            }
        }
        out
    }

    /// Sparse × dense vector in O(nnz).
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] when `x.len() != ncols`.
    pub fn matvec(&self, x: &Vector<F>) -> Result<Vector<F>> {
        if x.len() != self.cols {
            return Err(Error::ShapeMismatch {
                op: "sparse matvec",
                lhs: (self.rows, self.cols),
                rhs: (x.len(), 1),
            });
        }
        let xs = x.as_slice();
        let mut out = Vec::with_capacity(self.rows);
        for r in 0..self.rows {
            let mut acc = F::zero();
            for (c, v) in self.row_entries(r) {
                acc = acc.add(v.mul(xs[c]));
            }
            out.push(acc);
        }
        Ok(Vector::from_vec(out))
    }

    /// Sparse × dense matrix in O(nnz · rhs.ncols()).
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] when `rhs.nrows() != ncols`.
    pub fn matmul(&self, rhs: &Matrix<F>) -> Result<Matrix<F>> {
        if rhs.nrows() != self.cols {
            return Err(Error::ShapeMismatch {
                op: "sparse matmul",
                lhs: (self.rows, self.cols),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.ncols());
        for r in 0..self.rows {
            for (c, v) in self.row_entries(r) {
                let src: &[F] = rhs.row(c);
                let dst: &mut [F] = out.row_mut(r);
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d = d.add(v.mul(s));
                }
            }
        }
        Ok(out)
    }

    /// The transpose, still sparse.
    pub fn transpose(&self) -> CsrMatrix<F> {
        let mut triplets = Vec::with_capacity(self.nnz());
        for r in 0..self.rows {
            for (c, v) in self.row_entries(r) {
                triplets.push((c, r, v));
            }
        }
        CsrMatrix::from_triplets(self.cols, self.rows, triplets)
            .expect("transposed indices are in range")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fp::Fp61;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn triplet_construction_and_dense_roundtrip() {
        let s =
            CsrMatrix::from_triplets(3, 4, vec![(0, 1, 2.0), (2, 3, 5.0), (1, 0, -1.0)]).unwrap();
        assert_eq!(s.nnz(), 3);
        assert_eq!(s.nrows(), 3);
        assert_eq!(s.ncols(), 4);
        let d = s.to_dense();
        assert_eq!(d.at(0, 1), 2.0);
        assert_eq!(d.at(1, 0), -1.0);
        assert_eq!(d.at(2, 3), 5.0);
        assert_eq!(CsrMatrix::from_dense(&d), s);
    }

    #[test]
    fn out_of_range_triplets_are_rejected() {
        assert!(CsrMatrix::from_triplets(2, 2, vec![(2, 0, 1.0)]).is_err());
        assert!(CsrMatrix::from_triplets(2, 2, vec![(0, 5, 1.0)]).is_err());
    }

    #[test]
    fn explicit_zeros_are_dropped() {
        let s = CsrMatrix::from_triplets(2, 2, vec![(0, 0, 0.0), (1, 1, 3.0)]).unwrap();
        assert_eq!(s.nnz(), 1);
    }

    #[test]
    fn duplicates_are_summed() {
        let s = CsrMatrix::from_triplets(
            2,
            2,
            vec![(0, 0, 1.0), (0, 0, 2.0), (1, 1, 5.0), (1, 1, -5.0)],
        )
        .unwrap();
        let d = s.to_dense();
        assert_eq!(d.at(0, 0), 3.0);
        assert_eq!(d.at(1, 1), 0.0);
        assert_eq!(s.nnz(), 1); // the cancelled entry is dropped
    }

    #[test]
    fn matvec_matches_dense_random() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let dense = Matrix::<Fp61>::random(6, 8, &mut rng);
            // Sparsify: zero out most entries.
            let mut sparse_dense = Matrix::<Fp61>::zeros(6, 8);
            for r in 0..6 {
                for c in 0..8 {
                    if (r + c) % 3 == 0 {
                        sparse_dense.set(r, c, dense.at(r, c)).unwrap();
                    }
                }
            }
            let s = CsrMatrix::from_dense(&sparse_dense);
            let x = Vector::<Fp61>::random(8, &mut rng);
            assert_eq!(s.matvec(&x).unwrap(), sparse_dense.matvec(&x).unwrap());
            let rhs = Matrix::<Fp61>::random(8, 3, &mut rng);
            assert_eq!(s.matmul(&rhs).unwrap(), sparse_dense.matmul(&rhs).unwrap());
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let mut rng = StdRng::seed_from_u64(2);
        let dense = Matrix::<Fp61>::random(4, 6, &mut rng);
        let s = CsrMatrix::from_dense(&dense);
        assert_eq!(s.transpose().to_dense(), dense.transpose());
        assert_eq!(s.transpose().transpose(), s);
    }

    #[test]
    fn shape_mismatches_are_rejected() {
        let s = CsrMatrix::<f64>::from_triplets(2, 3, vec![(0, 0, 1.0)]).unwrap();
        assert!(s.matvec(&Vector::zeros(2)).is_err());
        assert!(s.matmul(&Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn empty_matrix() {
        let s = CsrMatrix::<f64>::from_triplets(0, 0, vec![]).unwrap();
        assert_eq!(s.nnz(), 0);
        assert_eq!(s.to_dense().shape(), (0, 0));
    }
}

//! Dense row-major matrices over a generic [`Scalar`] field.

use std::fmt;

use rand::Rng;

use crate::error::{Axis, Error, Result};
use crate::kernels;
use crate::scalar::{DrawScalars, Scalar};
use crate::vector::Vector;

/// A dense, row-major matrix over a field `F`.
///
/// `Matrix` is the workhorse of the SCEC workspace: the data matrix `A`, the
/// encoding coefficient matrix `B`, its per-device blocks `B_j`, and the
/// stacked matrix `T = [A; R]` are all `Matrix` values. The API favors
/// explicit, fallible operations ([`Result`]) over panics; only the indexed
/// accessors [`Matrix::get`]/[`Matrix::set`] have panicking `[( )]`-style
/// siblings ([`Matrix::at`]).
///
/// # Example
///
/// ```
/// use scec_linalg::Matrix;
///
/// let a = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]])?;
/// let b = Matrix::identity(2);
/// assert_eq!(a.matmul(&b)?, a);
/// # Ok::<(), scec_linalg::Error>(())
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix<F> {
    rows: usize,
    cols: usize,
    data: Vec<F>,
}

impl<F: Scalar> Matrix<F> {
    /// Creates a matrix of the given shape with every entry zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![F::zero(); rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix (the paper's `E_n`).
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = F::one();
        }
        m
    }

    /// Builds a matrix from row vectors.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Empty`] when `rows` is empty or the first row has no
    /// columns, and [`Error::ShapeMismatch`] when rows have differing
    /// lengths.
    pub fn from_rows(rows: Vec<Vec<F>>) -> Result<Self> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(Error::Empty);
        }
        let cols = rows[0].len();
        let nrows = rows.len();
        let mut data = Vec::with_capacity(nrows * cols);
        for (i, row) in rows.into_iter().enumerate() {
            if row.len() != cols {
                return Err(Error::ShapeMismatch {
                    op: "from_rows",
                    lhs: (i, cols),
                    rhs: (i, row.len()),
                });
            }
            data.extend(row);
        }
        Ok(Matrix {
            rows: nrows,
            cols,
            data,
        })
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] when `data.len() != rows * cols`.
    pub fn from_flat(rows: usize, cols: usize, data: Vec<F>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(Error::ShapeMismatch {
                op: "from_flat",
                lhs: (rows, cols),
                rhs: (data.len(), 1),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix with entries drawn by [`Scalar::sample`].
    ///
    /// This is how the cloud generates the random blinding rows
    /// `R_1, …, R_r`.
    pub fn random<R: Rng + ?Sized>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let data = rng.draw_scalars(rows * cols);
        Matrix { rows, cols, data }
    }

    /// Number of rows (`V(·)` in the paper's notation).
    #[inline]
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Whether the matrix has zero rows or columns.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0 || self.cols == 0
    }

    /// Whether the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Checked element access.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IndexOutOfBounds`] for indices outside the shape.
    pub fn get(&self, row: usize, col: usize) -> Result<F> {
        self.check_index(row, col)?;
        Ok(self.data[row * self.cols + col])
    }

    /// Unchecked-feel element access.
    ///
    /// # Panics
    ///
    /// Panics when the index is out of bounds. Prefer [`Matrix::get`] in
    /// fallible contexts.
    #[inline]
    pub fn at(&self, row: usize, col: usize) -> F {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row}, {col}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        self.data[row * self.cols + col]
    }

    /// Checked element mutation.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IndexOutOfBounds`] for indices outside the shape.
    pub fn set(&mut self, row: usize, col: usize, value: F) -> Result<()> {
        self.check_index(row, col)?;
        self.data[row * self.cols + col] = value;
        Ok(())
    }

    fn check_index(&self, row: usize, col: usize) -> Result<()> {
        if row >= self.rows {
            return Err(Error::IndexOutOfBounds {
                index: row,
                bound: self.rows,
                axis: Axis::Row,
            });
        }
        if col >= self.cols {
            return Err(Error::IndexOutOfBounds {
                index: col,
                bound: self.cols,
                axis: Axis::Col,
            });
        }
        Ok(())
    }

    /// A borrowed view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i >= self.nrows()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[F] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// A mutable view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i >= self.nrows()`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [F] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Iterates over rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[F]> {
        self.data.chunks(self.cols.max(1)).take(self.rows)
    }

    /// Column `j` as an owned [`Vector`].
    ///
    /// # Panics
    ///
    /// Panics when `j >= self.ncols()`.
    pub fn col(&self, j: usize) -> Vector<F> {
        assert!(
            j < self.cols,
            "column index {j} out of bounds ({})",
            self.cols
        );
        Vector::from_vec(
            (0..self.rows)
                .map(|i| self.data[i * self.cols + j])
                .collect(),
        )
    }

    /// The transpose, computed tile-by-tile.
    ///
    /// A naive transpose walks one side with stride `cols`, missing cache
    /// on every element once the matrix outgrows L1. Delegates to
    /// [`kernels::transpose_blocked`] with the tuned
    /// [`kernels::TRANSPOSE_TILE`] edge, which keeps both the read and the
    /// write window resident regardless of the matrix shape.
    pub fn transpose(&self) -> Matrix<F> {
        kernels::transpose_blocked(self, kernels::TRANSPOSE_TILE)
    }

    /// Matrix product `self · rhs`.
    ///
    /// Routed through the fused kernels: over `Fp61` the inner dimension
    /// is folded with lazy reduction ([`Scalar::dot_slices`]), and large
    /// products are row-banded across threads (see [`kernels`]). Results
    /// are identical to the naive reference — exactly over finite fields,
    /// bitwise over `f64`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] when `self.ncols() != rhs.nrows()`.
    pub fn matmul(&self, rhs: &Matrix<F>) -> Result<Matrix<F>> {
        self.matmul_with_threads(
            rhs,
            kernels::threads_for(self.rows * self.cols * rhs.cols.max(1)),
        )
    }

    /// [`Matrix::matmul`] pinned to the single-threaded kernel path.
    ///
    /// The agreement tests compare it with the banded path and the
    /// naive kernel; results are identical to [`Matrix::matmul`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] when `self.ncols() != rhs.nrows()`.
    pub fn matmul_serial(&self, rhs: &Matrix<F>) -> Result<Matrix<F>> {
        self.matmul_with_threads(rhs, 1)
    }

    fn matmul_with_threads(&self, rhs: &Matrix<F>, threads: usize) -> Result<Matrix<F>> {
        if self.cols != rhs.rows {
            return Err(Error::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let (rows, inner, cols) = (self.rows, self.cols, rhs.cols);
        crate::ops::record_mults((rows * inner * cols) as u64);
        crate::ops::record_adds((rows * inner.saturating_sub(1) * cols) as u64);
        let mut out = vec![F::zero(); rows * cols];
        if F::prefers_dot_matmul() && inner > 0 {
            // Dot formulation: transpose rhs once (blocked, O(inner·cols))
            // so every output entry is a contiguous dot, letting
            // dot_slices amortize reductions across the inner dimension.
            let rt = rhs.transpose();
            kernels::for_row_bands(&mut out, cols.max(1), threads, |first_row, band| {
                for (local, orow) in band.chunks_mut(cols.max(1)).enumerate() {
                    let arow = self.row(first_row + local);
                    // Register blocking: four output columns share each
                    // `arow` load (and, over Fp61 with SIMD, four
                    // independent accumulator chains). The tail columns
                    // fall back to single dots; results are identical.
                    let mut j = 0;
                    while j + 4 <= cols {
                        let d = F::dot_slices_x4(
                            arow,
                            [rt.row(j), rt.row(j + 1), rt.row(j + 2), rt.row(j + 3)],
                        );
                        orow[j..j + 4].copy_from_slice(&d);
                        j += 4;
                    }
                    for (jj, o) in orow.iter_mut().enumerate().skip(j) {
                        *o = F::dot_slices(arow, rt.row(jj));
                    }
                }
            });
        } else {
            // i-k-j loop order: streams over rhs rows for cache
            // friendliness and skips zero coefficients (the structured 0/1
            // encoding matrices are mostly zeros).
            kernels::for_row_bands(&mut out, cols.max(1), threads, |first_row, band| {
                for (local, orow) in band.chunks_mut(cols.max(1)).enumerate() {
                    let i = first_row + local;
                    for k in 0..inner {
                        let a = self.data[i * inner + k];
                        if a.is_zero() {
                            continue;
                        }
                        F::fused_muladd(orow, a, rhs.row(k));
                    }
                }
            });
        }
        Ok(Matrix {
            rows,
            cols,
            data: out,
        })
    }

    /// Matrix–vector product `self · x`, one fused dot per row, four
    /// rows per [`Scalar::dot_slices_x4`] call (the matmul driver's
    /// register blocking with the roles swapped: `x` is loaded and split
    /// once per four rows), row-banded across threads when large.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] when `self.ncols() != x.len()`.
    pub fn matvec(&self, x: &Vector<F>) -> Result<Vector<F>> {
        if self.cols != x.len() {
            return Err(Error::ShapeMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (x.len(), 1),
            });
        }
        crate::ops::record_mults((self.rows * self.cols) as u64);
        crate::ops::record_adds((self.rows * self.cols.saturating_sub(1)) as u64);
        let threads = kernels::threads_for(self.rows * self.cols);
        let out = self.matvec_with_threads(x.as_slice(), threads);
        Ok(Vector::from_vec(out))
    }

    /// [`matvec`](Self::matvec) over `threads` row bands. The tail rows
    /// of a band fall back to single dots; results are identical.
    fn matvec_with_threads(&self, xs: &[F], threads: usize) -> Vec<F> {
        let mut out = vec![F::zero(); self.rows];
        kernels::for_row_bands(&mut out, 1, threads, |first_row, band| {
            let mut quads = band.chunks_exact_mut(4);
            let mut i = first_row;
            for quad in &mut quads {
                let rows = [
                    self.row(i),
                    self.row(i + 1),
                    self.row(i + 2),
                    self.row(i + 3),
                ];
                quad.copy_from_slice(&F::dot_slices_x4(xs, rows));
                i += 4;
            }
            for o in quads.into_remainder() {
                *o = F::dot_slices(self.row(i), xs);
                i += 1;
            }
        });
        out
    }

    /// Transposed matrix–vector product `selfᵀ · u` without materializing
    /// the transpose: accumulates `u[i] · row_i` with the fused kernel.
    ///
    /// This is the Freivalds-key precomputation (`uᵀA`) in `scec-core`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] when `self.nrows() != u.len()`.
    pub fn tr_matvec(&self, u: &Vector<F>) -> Result<Vector<F>> {
        if self.rows != u.len() {
            return Err(Error::ShapeMismatch {
                op: "tr_matvec",
                lhs: self.shape(),
                rhs: (u.len(), 1),
            });
        }
        crate::ops::record_mults((self.rows * self.cols) as u64);
        crate::ops::record_adds((self.rows.saturating_sub(1) * self.cols) as u64);
        let mut acc = vec![F::zero(); self.cols];
        for (i, &ui) in u.as_slice().iter().enumerate() {
            if ui.is_zero() {
                continue;
            }
            F::fused_muladd(&mut acc, ui, self.row(i));
        }
        Ok(Vector::from_vec(acc))
    }

    /// Entry-wise sum `self + rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] when shapes differ.
    pub fn add(&self, rhs: &Matrix<F>) -> Result<Matrix<F>> {
        if self.shape() != rhs.shape() {
            return Err(Error::ShapeMismatch {
                op: "add",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| a.add(b))
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Entry-wise difference `self - rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] when shapes differ.
    pub fn sub(&self, rhs: &Matrix<F>) -> Result<Matrix<F>> {
        if self.shape() != rhs.shape() {
            return Err(Error::ShapeMismatch {
                op: "sub",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| a.sub(b))
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Scales every entry by `s`.
    pub fn scale(&self, s: F) -> Matrix<F> {
        let data = self.data.iter().map(|&a| a.mul(s)).collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Horizontal concatenation `[self | rhs]`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] when row counts differ.
    pub fn hstack(&self, rhs: &Matrix<F>) -> Result<Matrix<F>> {
        if self.rows != rhs.rows {
            return Err(Error::ShapeMismatch {
                op: "hstack",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let cols = self.cols + rhs.cols;
        let mut data = Vec::with_capacity(self.rows * cols);
        for i in 0..self.rows {
            data.extend_from_slice(self.row(i));
            data.extend_from_slice(rhs.row(i));
        }
        Ok(Matrix {
            rows: self.rows,
            cols,
            data,
        })
    }

    /// Vertical concatenation `[self; rhs]` (the paper's `[Bᵀ_1, …]ᵀ`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] when column counts differ.
    pub fn vstack(&self, rhs: &Matrix<F>) -> Result<Matrix<F>> {
        if self.cols != rhs.cols {
            return Err(Error::ShapeMismatch {
                op: "vstack",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut data = Vec::with_capacity((self.rows + rhs.rows) * self.cols);
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&rhs.data);
        Ok(Matrix {
            rows: self.rows + rhs.rows,
            cols: self.cols,
            data,
        })
    }

    /// Extracts the row range `[start, end)` as a new matrix — the paper's
    /// `{·}ᵃ_b` block-selection operator.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IndexOutOfBounds`] when `end > self.nrows()` or
    /// `start > end`.
    pub fn row_block(&self, start: usize, end: usize) -> Result<Matrix<F>> {
        if end > self.rows || start > end {
            return Err(Error::IndexOutOfBounds {
                index: end.max(start),
                bound: self.rows,
                axis: Axis::Row,
            });
        }
        Ok(Matrix {
            rows: end - start,
            cols: self.cols,
            data: self.data[start * self.cols..end * self.cols].to_vec(),
        })
    }

    /// Extracts an arbitrary sub-matrix by row and column ranges.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IndexOutOfBounds`] when a range exceeds the shape.
    pub fn submatrix(
        &self,
        rows: std::ops::Range<usize>,
        cols: std::ops::Range<usize>,
    ) -> Result<Matrix<F>> {
        if rows.end > self.rows || rows.start > rows.end {
            return Err(Error::IndexOutOfBounds {
                index: rows.end.max(rows.start),
                bound: self.rows,
                axis: Axis::Row,
            });
        }
        if cols.end > self.cols || cols.start > cols.end {
            return Err(Error::IndexOutOfBounds {
                index: cols.end.max(cols.start),
                bound: self.cols,
                axis: Axis::Col,
            });
        }
        let mut data = Vec::with_capacity(rows.len() * cols.len());
        for i in rows.clone() {
            data.extend_from_slice(
                &self.data[i * self.cols + cols.start..i * self.cols + cols.end],
            );
        }
        Ok(Matrix {
            rows: rows.len(),
            cols: cols.len(),
            data,
        })
    }

    /// Swaps rows `a` and `b` in place.
    ///
    /// # Panics
    ///
    /// Panics when either index is out of bounds.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        assert!(a < self.rows && b < self.rows, "row index out of bounds");
        if a == b {
            return;
        }
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let (head, tail) = self.data.split_at_mut(hi * self.cols);
        head[lo * self.cols..(lo + 1) * self.cols].swap_with_slice(&mut tail[..self.cols]);
    }

    /// In-place `row[target] -= factor * row[source]` — the elementary row
    /// operation used by Gaussian elimination.
    ///
    /// # Panics
    ///
    /// Panics when either index is out of bounds or `target == source`.
    pub fn row_axpy(&mut self, target: usize, source: usize, factor: F) {
        assert!(
            target < self.rows && source < self.rows,
            "row index out of bounds"
        );
        assert_ne!(target, source, "row_axpy requires distinct rows");
        let (t, s) = if target < source {
            let (head, tail) = self.data.split_at_mut(source * self.cols);
            (
                &mut head[target * self.cols..(target + 1) * self.cols],
                &tail[..self.cols],
            )
        } else {
            let (head, tail) = self.data.split_at_mut(target * self.cols);
            (
                &mut tail[..self.cols],
                &head[source * self.cols..(source + 1) * self.cols],
            )
        };
        F::fused_submul(t, factor, s);
    }

    /// Eliminates column `pc` from every row below `pr`: for each row
    /// `r > pr` with a non-zero entry `v` at column `pc`, applies
    /// `row[r] -= (v · inv) · row[pr]` and writes an exact zero at
    /// `(r, pc)`. `inv` must be the inverse of the pivot `(pr, pc)`.
    ///
    /// This is the forward-elimination inner loop of [`crate::gauss`],
    /// fused ([`Scalar::fused_submul`]) and row-banded across threads when
    /// the trailing block is large.
    ///
    /// # Panics
    ///
    /// Panics when `pr >= self.nrows()` or `pc >= self.ncols()`.
    pub fn eliminate_below(&mut self, pr: usize, pc: usize, inv: F) {
        assert!(pr < self.rows && pc < self.cols, "pivot out of bounds");
        let cols = self.cols;
        let (head, tail) = self.data.split_at_mut((pr + 1) * cols);
        let pivot_row: &[F] = &head[pr * cols..(pr + 1) * cols];
        let below_rows = tail.len() / cols;
        let threads = kernels::threads_for(below_rows * cols);
        kernels::for_row_bands(tail, cols, threads, |_, band| {
            for row in band.chunks_mut(cols) {
                let v = row[pc];
                if v.is_zero() {
                    continue;
                }
                F::fused_submul(row, v.mul(inv), pivot_row);
                // Force exact zero to keep f64 echelon clean.
                row[pc] = F::zero();
            }
        });
    }

    /// Mutable access to one entry (crate-internal; bounds unchecked
    /// beyond debug assertions in callers).
    #[inline]
    pub(crate) fn entry_mut(&mut self, row: usize, col: usize) -> &mut F {
        &mut self.data[row * self.cols + col]
    }

    /// The flat row-major buffer (crate-internal, for kernels).
    #[inline]
    pub(crate) fn flat(&self) -> &[F] {
        &self.data
    }

    /// Mutable flat row-major buffer (crate-internal, for kernels).
    #[inline]
    pub(crate) fn flat_mut(&mut self) -> &mut [F] {
        &mut self.data
    }

    /// Scales row `i` by `factor` in place.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of bounds.
    pub fn scale_row(&mut self, i: usize, factor: F) {
        for v in self.row_mut(i) {
            *v = v.mul(factor);
        }
    }

    /// Consumes the matrix and returns the flat row-major buffer.
    pub fn into_flat(self) -> Vec<F> {
        self.data
    }

    /// Borrow the flat row-major buffer.
    pub fn as_flat(&self) -> &[F] {
        &self.data
    }

    /// The rank, computed by Gaussian elimination with partial pivoting.
    ///
    /// This is the paper's `Rank(·)`; availability of an LCEC is
    /// `rank(B) == m + r`.
    pub fn rank(&self) -> usize {
        crate::gauss::rank(self)
    }
}

impl<F: Scalar> fmt::Debug for Matrix<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        // Clamp output so huge experiment matrices stay debuggable.
        const MAX_SHOWN: usize = 8;
        for i in 0..self.rows.min(MAX_SHOWN) {
            write!(f, "  [")?;
            for j in 0..self.cols.min(MAX_SHOWN) {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:?}", self.data[i * self.cols + j])?;
            }
            if self.cols > MAX_SHOWN {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > MAX_SHOWN {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fp::Fp61;
    use rand::{rngs::StdRng, SeedableRng};

    fn m2x2() -> Matrix<f64> {
        Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap()
    }

    #[test]
    fn construction_and_shape() {
        let m = m2x2();
        assert_eq!(m.shape(), (2, 2));
        assert!(!m.is_empty());
        assert!(m.is_square());
        assert_eq!(m.at(1, 0), 3.0);
        assert_eq!(m.get(1, 1).unwrap(), 4.0);
    }

    #[test]
    fn from_rows_rejects_ragged_and_empty() {
        assert_eq!(Matrix::<f64>::from_rows(vec![]), Err(Error::Empty));
        assert_eq!(Matrix::<f64>::from_rows(vec![vec![]]), Err(Error::Empty));
        assert!(matches!(
            Matrix::from_rows(vec![vec![1.0], vec![1.0, 2.0]]),
            Err(Error::ShapeMismatch {
                op: "from_rows",
                ..
            })
        ));
    }

    #[test]
    fn from_flat_validates_length() {
        assert!(Matrix::from_flat(2, 2, vec![1.0; 4]).is_ok());
        assert!(Matrix::from_flat(2, 2, vec![1.0; 3]).is_err());
    }

    #[test]
    fn get_set_bounds() {
        let mut m = m2x2();
        assert!(matches!(
            m.get(2, 0),
            Err(Error::IndexOutOfBounds {
                axis: Axis::Row,
                ..
            })
        ));
        assert!(matches!(
            m.get(0, 2),
            Err(Error::IndexOutOfBounds {
                axis: Axis::Col,
                ..
            })
        ));
        m.set(0, 0, 9.0).unwrap();
        assert_eq!(m.at(0, 0), 9.0);
        assert!(m.set(5, 5, 1.0).is_err());
    }

    #[test]
    fn identity_and_zeros() {
        let i = Matrix::<f64>::identity(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i.at(r, c), if r == c { 1.0 } else { 0.0 });
            }
        }
        let z = Matrix::<f64>::zeros(2, 3);
        assert!(z.as_flat().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_rows(vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.at(2, 1), 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_identity_and_known_product() {
        let m = m2x2();
        let i = Matrix::identity(2);
        assert_eq!(m.matmul(&i).unwrap(), m);
        assert_eq!(i.matmul(&m).unwrap(), m);
        let p = m.matmul(&m).unwrap();
        assert_eq!(
            p,
            Matrix::from_rows(vec![vec![7.0, 10.0], vec![15.0, 22.0]]).unwrap()
        );
        let bad = Matrix::<f64>::zeros(3, 3);
        assert!(m.matmul(&bad).is_err());
    }

    #[test]
    fn matvec_known_product() {
        let m = m2x2();
        let x = Vector::from_vec(vec![1.0, 1.0]);
        assert_eq!(m.matvec(&x).unwrap().as_slice(), &[3.0, 7.0]);
        let wrong = Vector::from_vec(vec![1.0]);
        assert!(m.matvec(&wrong).is_err());
    }

    #[test]
    fn add_sub_scale() {
        let m = m2x2();
        let s = m.add(&m).unwrap();
        assert_eq!(s, m.scale(2.0));
        assert_eq!(s.sub(&m).unwrap(), m);
        assert!(m.add(&Matrix::zeros(3, 2)).is_err());
        assert!(m.sub(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn stacking() {
        let m = m2x2();
        let h = m.hstack(&Matrix::identity(2)).unwrap();
        assert_eq!(h.shape(), (2, 4));
        assert_eq!(h.at(0, 2), 1.0);
        assert_eq!(h.at(0, 3), 0.0);
        let v = m.vstack(&Matrix::identity(2)).unwrap();
        assert_eq!(v.shape(), (4, 2));
        assert_eq!(v.at(2, 0), 1.0);
        assert!(m.hstack(&Matrix::zeros(3, 1)).is_err());
        assert!(m.vstack(&Matrix::zeros(1, 3)).is_err());
    }

    #[test]
    fn row_block_and_submatrix() {
        let m = Matrix::from_rows(vec![
            vec![1.0, 2.0, 3.0],
            vec![4.0, 5.0, 6.0],
            vec![7.0, 8.0, 9.0],
        ])
        .unwrap();
        let b = m.row_block(1, 3).unwrap();
        assert_eq!(b.shape(), (2, 3));
        assert_eq!(b.at(0, 0), 4.0);
        assert!(m.row_block(2, 4).is_err());
        // Empty block is allowed (used for unselected devices).
        assert_eq!(m.row_block(1, 1).unwrap().nrows(), 0);

        let s = m.submatrix(0..2, 1..3).unwrap();
        assert_eq!(
            s,
            Matrix::from_rows(vec![vec![2.0, 3.0], vec![5.0, 6.0]]).unwrap()
        );
        assert!(m.submatrix(0..4, 0..1).is_err());
        assert!(m.submatrix(0..1, 0..4).is_err());
    }

    #[test]
    fn swap_rows_and_axpy() {
        let mut m = Matrix::from_rows(vec![vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
        m.swap_rows(0, 1);
        assert_eq!(m.at(0, 0), 0.0);
        assert_eq!(m.at(0, 1), 1.0);
        m.swap_rows(1, 1); // no-op
        assert_eq!(m.at(1, 0), 1.0);

        let mut m = m2x2();
        m.row_axpy(1, 0, 3.0); // row1 -= 3*row0 => [0, -2]
        assert_eq!(m.row(1), &[0.0, -2.0]);
        m.row_axpy(0, 1, -1.0); // row0 += row1 => [1, 0]
        assert_eq!(m.row(0), &[1.0, 0.0]);
        m.scale_row(1, -0.5);
        assert_eq!(m.row(1), &[0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "distinct rows")]
    fn row_axpy_same_row_panics() {
        let mut m = m2x2();
        m.row_axpy(0, 0, 1.0);
    }

    #[test]
    fn col_extraction() {
        let m = m2x2();
        assert_eq!(m.col(0).as_slice(), &[1.0, 3.0]);
        assert_eq!(m.col(1).as_slice(), &[2.0, 4.0]);
    }

    #[test]
    fn rows_iter_yields_all_rows() {
        let m = m2x2();
        let rows: Vec<&[f64]> = m.rows_iter().collect();
        assert_eq!(rows, vec![&[1.0, 2.0][..], &[3.0, 4.0][..]]);
    }

    #[test]
    fn random_matrix_over_fp() {
        let mut rng = StdRng::seed_from_u64(11);
        let m = Matrix::<Fp61>::random(4, 5, &mut rng);
        assert_eq!(m.shape(), (4, 5));
        // Overwhelmingly likely all distinct in a 2^61 field.
        let mut seen = std::collections::HashSet::new();
        for &v in m.as_flat() {
            seen.insert(v.residue());
        }
        assert!(seen.len() > 15);
    }

    #[test]
    fn blocked_transpose_matches_naive_past_tile_size() {
        // 45x70 straddles tile boundaries (TRANSPOSE_TILE = 32) with
        // ragged edge tiles in both dimensions.
        let mut rng = StdRng::seed_from_u64(21);
        let m = Matrix::<Fp61>::random(45, 70, &mut rng);
        let t = m.transpose();
        assert_eq!(t.shape(), (70, 45));
        for i in 0..45 {
            for j in 0..70 {
                assert_eq!(t.at(j, i), m.at(i, j));
            }
        }
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_serial_and_parallel_agree() {
        let mut rng = StdRng::seed_from_u64(22);
        // Banded by hand: the shape is far below PAR_THRESHOLD.
        let a = Matrix::<Fp61>::random(40, 64, &mut rng);
        let b = Matrix::<Fp61>::random(64, 33, &mut rng);
        let serial = a.matmul_serial(&b).unwrap();
        assert_eq!(a.matmul_with_threads(&b, 3).unwrap(), serial);
        assert_eq!(a.matmul(&b).unwrap(), serial);

        let af = Matrix::<f64>::random(40, 64, &mut rng);
        let bf = Matrix::<f64>::random(64, 33, &mut rng);
        // f64 must agree bitwise: per-row op order is identical.
        let serial = af.matmul_serial(&bf).unwrap();
        assert_eq!(af.matmul_with_threads(&bf, 3).unwrap(), serial);
    }

    #[test]
    fn matvec_four_row_blocks_agree_banded_serial_and_naive() {
        let mut rng = StdRng::seed_from_u64(25);
        // Widths on both sides of the 4-column kernel's vector floor,
        // row counts of every residue mod 4 and below one block; three
        // bands over 13 rows leaves each band its own tail rows.
        for cols in [16, 23, 24, 25, 96, 200] {
            for rows in [1, 2, 3, 4, 5, 6, 7, 8, 13, 64] {
                let a = Matrix::<Fp61>::random(rows, cols, &mut rng);
                let x = Vector::<Fp61>::random(cols, &mut rng);
                let want = kernels::matvec_naive(&a, &x).unwrap();
                assert_eq!(a.matvec(&x).unwrap(), want, "{rows}x{cols}");
                for threads in [1, 2, 3] {
                    let got = a.matvec_with_threads(x.as_slice(), threads);
                    assert_eq!(got, want.as_slice(), "{rows}x{cols}, {threads} bands");
                }
                // f64: four rows per call is four per-row folds, so each
                // row stays bitwise the naive one.
                let a = Matrix::<f64>::random(rows, cols, &mut rng);
                let x = Vector::<f64>::random(cols, &mut rng);
                let want = kernels::matvec_naive(&a, &x).unwrap();
                assert_eq!(a.matvec(&x).unwrap(), want, "f64 {rows}x{cols}");
                for threads in [1, 3] {
                    let got = a.matvec_with_threads(x.as_slice(), threads);
                    assert_eq!(got, want.as_slice(), "f64 {rows}x{cols}, {threads} bands");
                }
            }
        }
    }

    /// Serial against banded, ignored by default: `cargo test --release
    /// -p scec-linalg -- --ignored par_threshold --nocapture` on a host
    /// with at least two CPUs prints µs per call either way for every
    /// kind of work the threshold gates: mat-vec and panel shapes, one
    /// elimination step, and the encoder's per-device blinding fan-out
    /// (its loop, replayed here). The table is recorded in the
    /// [`kernels::PAR_THRESHOLD`] doc comment.
    #[test]
    #[ignore]
    fn par_threshold_report() {
        let mut rng = StdRng::seed_from_u64(42);
        let time = |f: &mut dyn FnMut()| {
            let best = (0..15).map(|_| {
                let start = std::time::Instant::now();
                (0..20).for_each(|_| f());
                start.elapsed().as_secs_f64() * 1e6 / 20.0
            });
            best.fold(f64::INFINITY, f64::min)
        };
        println!("cpus: {}", kernels::max_threads());
        for (rows, inner, k) in [
            (32, 1024, 1),
            (128, 1024, 1),
            (512, 1024, 1),
            (1024, 1024, 1),
            (2048, 1024, 1),
            (8192, 1024, 1),
            (8, 1024, 32),
            (16, 1024, 32),
            (32, 1024, 32),
            (64, 1024, 32),
            (128, 1024, 32),
        ] {
            let a = Matrix::<Fp61>::random(rows, inner, &mut rng);
            let xs = Matrix::<Fp61>::random(inner, k, &mut rng);
            let x = xs.col(0);
            let run = |threads: usize| {
                time(&mut || {
                    if k == 1 {
                        std::hint::black_box(a.matvec_with_threads(x.as_slice(), threads));
                    } else {
                        std::hint::black_box(a.matmul_with_threads(&xs, threads).unwrap());
                    }
                })
            };
            let (serial, banded) = (run(1), run(2));
            println!(
                "{rows:>5} x {inner} x {k:<2} = 2^{:<4.1} serial {serial:>8.1} us  2 bands {banded:>8.1} us",
                ((rows * inner * k) as f64).log2()
            );
        }
        // `eliminate_below`'s band body and `Encoder::blind`'s per-device
        // closure (eight devices), over `rows × 1024` elements.
        let cols = 1024;
        for rows in [128, 512, 1024, 2048, 4096] {
            let pivot = Matrix::<Fp61>::random(1, cols, &mut rng);
            let factor = Fp61::new(0x0123_4567_89ab_cdef);
            let mut below = Matrix::<Fp61>::random(rows, cols, &mut rng);
            let mut eliminate = |threads: usize| {
                time(&mut || {
                    kernels::for_row_bands(below.flat_mut(), cols, threads, |_, band| {
                        for row in band.chunks_mut(cols) {
                            Fp61::fused_submul(row, factor, pivot.row(0));
                        }
                    });
                })
            };
            let (serial, banded) = (eliminate(1), eliminate(2));
            let a = Matrix::<Fp61>::random(rows, cols, &mut rng);
            let noise = Matrix::<Fp61>::random(rows / 8, cols, &mut rng);
            let blind = |threads: usize| {
                time(&mut || {
                    std::hint::black_box(kernels::par_map_collect(8, threads, |dev| {
                        let mut flat = Vec::with_capacity(rows / 8 * cols);
                        for p in dev * rows / 8..(dev + 1) * rows / 8 {
                            let sum = a.row(p).iter().zip(noise.row(p % (rows / 8)));
                            flat.extend(sum.map(|(&d, &n)| d.add(n)));
                        }
                        flat
                    }));
                })
            };
            println!(
                "{rows:>5} x {cols} = 2^{:<4.1} eliminate {serial:>8.1} -> {banded:>8.1} us  blind {:>8.1} -> {:>8.1} us",
                ((rows * cols) as f64).log2(),
                blind(1),
                blind(2)
            );
        }
    }

    #[test]
    fn tr_matvec_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(23);
        let a = Matrix::<Fp61>::random(37, 19, &mut rng);
        let u = Vector::<Fp61>::random(37, &mut rng);
        let direct = a.tr_matvec(&u).unwrap();
        let via_transpose = a.transpose().matvec(&u).unwrap();
        assert_eq!(direct, via_transpose);
        assert!(a.tr_matvec(&Vector::zeros(5)).is_err());
    }

    #[test]
    fn eliminate_below_matches_row_axpy_loop() {
        let mut rng = StdRng::seed_from_u64(24);
        let src = Matrix::<Fp61>::random(12, 9, &mut rng);
        let inv = src.at(2, 3).inv().unwrap();

        let mut fused = src.clone();
        fused.eliminate_below(2, 3, inv);

        let mut reference = src.clone();
        for r in 3..12 {
            let factor = reference.at(r, 3).mul(inv);
            if !factor.is_zero() {
                reference.row_axpy(r, 2, factor);
            }
            reference.set(r, 3, Fp61::zero()).unwrap();
        }
        assert_eq!(fused, reference);
        // Rows at or above the pivot are untouched.
        for r in 0..3 {
            assert_eq!(fused.row(r), src.row(r));
        }
    }

    #[test]
    fn debug_output_is_clamped() {
        let m = Matrix::<f64>::zeros(20, 20);
        let s = format!("{m:?}");
        assert!(s.contains("Matrix 20x20"));
        assert!(s.contains('…'));
    }
}

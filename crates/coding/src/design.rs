//! The structured encoding coefficient matrix of Eq. (8).

use scec_linalg::{Matrix, Scalar};

use crate::error::{Error, Result};

/// The parameters of a structured LCEC: `m` data rows blinded by `r`
/// random rows, spread over `i = ⌈(m+r)/r⌉` devices.
///
/// `CodeDesign` is a pure description — it knows the 0/1 coefficient
/// pattern of Eq. (8) but holds no payload. The per-device row partition is
/// exactly Lemma 2's canonical shape: device 1 stores the `r` random rows,
/// devices `2..i-1` store `r` coded rows each, and device `i` stores the
/// remaining `m − (i−2)·r`.
///
/// # Example
///
/// ```
/// use scec_coding::CodeDesign;
///
/// let d = CodeDesign::new(5, 2)?; // i = ⌈7/2⌉ = 4 devices
/// assert_eq!(d.device_count(), 4);
/// assert_eq!(d.device_load(1)?, 2); // random rows
/// assert_eq!(d.device_load(4)?, 1); // remainder
/// assert_eq!(d.total_rows(), 7);
/// # Ok::<(), scec_coding::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CodeDesign {
    m: usize,
    r: usize,
    i: usize,
}

impl CodeDesign {
    /// Creates a design for `m` data rows and `r` random rows; the device
    /// count is derived as `i = ⌈(m+r)/r⌉`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDesign`] when `m == 0`, `r == 0`, or
    /// `r > m` (more blinding rows than data rows never helps: `r = m`
    /// already lets two devices carry everything, and Lemma 1 would be
    /// violated in the other direction).
    pub fn new(m: usize, r: usize) -> Result<Self> {
        if m == 0 {
            return Err(Error::InvalidDesign {
                m,
                r,
                reason: "m must be positive",
            });
        }
        if r == 0 {
            return Err(Error::InvalidDesign {
                m,
                r,
                reason: "r must be positive: without random rows no device block can be secure",
            });
        }
        if r > m {
            return Err(Error::InvalidDesign {
                m,
                r,
                reason: "r must not exceed m (Theorem 2 feasible range)",
            });
        }
        let i = (m + r).div_ceil(r);
        Ok(CodeDesign { m, r, i })
    }

    /// Number of data rows `m`.
    #[inline]
    pub fn data_rows(&self) -> usize {
        self.m
    }

    /// Number of random rows `r`.
    #[inline]
    pub fn random_rows(&self) -> usize {
        self.r
    }

    /// Number of participating devices `i`.
    #[inline]
    pub fn device_count(&self) -> usize {
        self.i
    }

    /// Total coded rows `m + r`.
    #[inline]
    pub fn total_rows(&self) -> usize {
        self.m + self.r
    }

    /// Rows of `B` (and of `T`-coded payload) held by device `j`
    /// (**1-based**, matching the paper's `s_j`), as a half-open range into
    /// the stacked `m + r` rows.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownDevice`] when `j` is outside `1..=i`.
    pub fn device_row_range(&self, j: usize) -> Result<std::ops::Range<usize>> {
        if j == 0 || j > self.i {
            return Err(Error::UnknownDevice {
                device: j,
                devices: self.i,
            });
        }
        let start = (j - 1) * self.r;
        let end = (j * self.r).min(self.m + self.r);
        Ok(start..end)
    }

    /// The number of coded rows `V(B_j)` on device `j` (1-based).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownDevice`] when `j` is outside `1..=i`.
    pub fn device_load(&self, j: usize) -> Result<usize> {
        Ok(self.device_row_range(j)?.len())
    }

    /// Materializes the full `(m+r) × (m+r)` encoding coefficient matrix
    /// `B` of Eq. (8) over a field `F`.
    ///
    /// Row `t < r` is `[0 … 0 | e_t]` (pure random row `R_t`); row `r + p`
    /// is `[e_p | e_{p mod r}]` (data row `A_p` blinded by `R_{p mod r}`).
    pub fn encoding_matrix<F: Scalar>(&self) -> Matrix<F> {
        let n = self.m + self.r;
        let mut b = Matrix::zeros(n, n);
        for t in 0..self.r {
            b.set(t, self.m + t, F::one()).expect("in range");
        }
        for p in 0..self.m {
            b.set(self.r + p, p, F::one()).expect("in range");
            b.set(self.r + p, self.m + (p % self.r), F::one())
                .expect("in range");
        }
        b
    }

    /// Materializes `B` in compressed-sparse-row form: Eq. (8) has at most
    /// two non-zeros per row (`2m + r` total), so the sparse form costs
    /// O(m + r) memory instead of O((m+r)²) — the representation to use
    /// for verification or re-encoding at `m = 10⁴⁺` scale.
    pub fn encoding_matrix_sparse<F: Scalar>(&self) -> scec_linalg::sparse::CsrMatrix<F> {
        let n = self.m + self.r;
        let mut triplets = Vec::with_capacity(2 * self.m + self.r);
        for t in 0..self.r {
            triplets.push((t, self.m + t, F::one()));
        }
        for p in 0..self.m {
            triplets.push((self.r + p, p, F::one()));
            triplets.push((self.r + p, self.m + (p % self.r), F::one()));
        }
        scec_linalg::sparse::CsrMatrix::from_triplets(n, n, triplets)
            .expect("structured indices are in range")
    }

    /// The coefficient block `B_j` stored on device `j` (1-based).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownDevice`] when `j` is outside `1..=i`.
    pub fn device_block<F: Scalar>(&self, j: usize) -> Result<Matrix<F>> {
        let range = self.device_row_range(j)?;
        let n = self.m + self.r;
        let mut block = Matrix::zeros(range.len(), n);
        for (out_row, row) in range.enumerate() {
            if row < self.r {
                block
                    .set(out_row, self.m + row, F::one())
                    .expect("in range");
            } else {
                let p = row - self.r;
                block.set(out_row, p, F::one()).expect("in range");
                block
                    .set(out_row, self.m + (p % self.r), F::one())
                    .expect("in range");
            }
        }
        Ok(block)
    }

    /// For a coded row index `row` in `0..m+r`, the index of the data row
    /// it carries (`None` for the pure-random rows of device 1).
    pub fn data_row_of(&self, row: usize) -> Option<usize> {
        (row >= self.r && row < self.m + self.r).then(|| row - self.r)
    }

    /// For a coded row index `row` in `0..m+r`, the index of the random
    /// row mixed into it.
    ///
    /// # Panics
    ///
    /// Panics when `row >= m + r`.
    pub fn random_row_of(&self, row: usize) -> usize {
        assert!(row < self.m + self.r, "row {row} out of range");
        if row < self.r {
            row
        } else {
            (row - self.r) % self.r
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scec_linalg::Fp61;

    #[test]
    fn validation() {
        assert!(CodeDesign::new(5, 2).is_ok());
        assert!(matches!(
            CodeDesign::new(0, 1),
            Err(Error::InvalidDesign { .. })
        ));
        assert!(matches!(
            CodeDesign::new(5, 0),
            Err(Error::InvalidDesign { .. })
        ));
        assert!(matches!(
            CodeDesign::new(5, 6),
            Err(Error::InvalidDesign { .. })
        ));
        // r = m is the MinNode corner: exactly two devices.
        let d = CodeDesign::new(5, 5).unwrap();
        assert_eq!(d.device_count(), 2);
    }

    #[test]
    fn device_partition_matches_lemma_2() {
        let d = CodeDesign::new(5, 2).unwrap(); // i = 4
        assert_eq!(d.device_row_range(1).unwrap(), 0..2);
        assert_eq!(d.device_row_range(2).unwrap(), 2..4);
        assert_eq!(d.device_row_range(3).unwrap(), 4..6);
        assert_eq!(d.device_row_range(4).unwrap(), 6..7);
        assert_eq!(d.device_load(4).unwrap(), 1);
        assert!(matches!(
            d.device_row_range(0),
            Err(Error::UnknownDevice { .. })
        ));
        assert!(matches!(
            d.device_row_range(5),
            Err(Error::UnknownDevice { .. })
        ));
        // Loads sum to m + r.
        let total: usize = (1..=4).map(|j| d.device_load(j).unwrap()).sum();
        assert_eq!(total, d.total_rows());
    }

    #[test]
    fn encoding_matrix_matches_eq_8() {
        let d = CodeDesign::new(3, 2).unwrap(); // m=3, r=2, i=3
        let b = d.encoding_matrix::<f64>();
        assert_eq!(b.shape(), (5, 5));
        // Row 0..2: [O_{2,3} | E_2]
        assert_eq!(b.row(0), &[0.0, 0.0, 0.0, 1.0, 0.0]);
        assert_eq!(b.row(1), &[0.0, 0.0, 0.0, 0.0, 1.0]);
        // Row 2..5: [E_3 | E_{3,2}] with E_{3,2} cycling columns 0,1,0.
        assert_eq!(b.row(2), &[1.0, 0.0, 0.0, 1.0, 0.0]);
        assert_eq!(b.row(3), &[0.0, 1.0, 0.0, 0.0, 1.0]);
        assert_eq!(b.row(4), &[0.0, 0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn device_blocks_tile_the_encoding_matrix() {
        for (m, r) in [(3usize, 2usize), (6, 2), (7, 3), (4, 4), (1, 1), (10, 1)] {
            let d = CodeDesign::new(m, r).unwrap();
            let b = d.encoding_matrix::<f64>();
            let mut stacked: Option<Matrix<f64>> = None;
            for j in 1..=d.device_count() {
                let block = d.device_block::<f64>(j).unwrap();
                assert_eq!(block.nrows(), d.device_load(j).unwrap());
                stacked = Some(match stacked {
                    None => block,
                    Some(s) => s.vstack(&block).unwrap(),
                });
            }
            assert_eq!(stacked.unwrap(), b, "m={m} r={r}");
        }
    }

    #[test]
    fn encoding_matrix_is_full_rank() {
        for (m, r) in [(3usize, 2usize), (6, 2), (7, 3), (4, 4), (1, 1), (9, 5)] {
            let d = CodeDesign::new(m, r).unwrap();
            assert_eq!(
                d.encoding_matrix::<Fp61>().rank(),
                d.total_rows(),
                "m={m} r={r}"
            );
        }
    }

    #[test]
    fn sparse_encoding_matrix_matches_dense() {
        for (m, r) in [(3usize, 2usize), (7, 3), (4, 4), (10, 1)] {
            let d = CodeDesign::new(m, r).unwrap();
            let sparse = d.encoding_matrix_sparse::<Fp61>();
            assert_eq!(
                sparse.to_dense(),
                d.encoding_matrix::<Fp61>(),
                "m={m} r={r}"
            );
            assert_eq!(sparse.nnz(), 2 * m + r);
        }
    }

    #[test]
    fn sparse_encoding_agrees_with_fast_encoder() {
        use crate::encode::Encoder;
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        let d = CodeDesign::new(6, 2).unwrap();
        let a = crate::design::tests::rand_matrix(&mut rng, 6, 4);
        let randomness = crate::design::tests::rand_matrix(&mut rng, 2, 4);
        let t = a.vstack(&randomness).unwrap();
        let via_sparse = d.encoding_matrix_sparse::<Fp61>().matmul(&t).unwrap();
        let via_encoder = Encoder::new(d)
            .encode_with_randomness(&a, &randomness)
            .unwrap()
            .stacked();
        assert_eq!(via_sparse, via_encoder);
    }

    fn rand_matrix(rng: &mut impl rand::Rng, rows: usize, cols: usize) -> Matrix<Fp61> {
        Matrix::random(rows, cols, rng)
    }

    #[test]
    fn row_provenance_helpers() {
        let d = CodeDesign::new(5, 2).unwrap();
        assert_eq!(d.data_row_of(0), None);
        assert_eq!(d.data_row_of(1), None);
        assert_eq!(d.data_row_of(2), Some(0));
        assert_eq!(d.data_row_of(6), Some(4));
        assert_eq!(d.data_row_of(7), None);
        assert_eq!(d.random_row_of(0), 0);
        assert_eq!(d.random_row_of(1), 1);
        assert_eq!(d.random_row_of(2), 0);
        assert_eq!(d.random_row_of(3), 1);
        assert_eq!(d.random_row_of(6), 0);
    }

    #[test]
    fn r_equal_one_every_coded_row_shares_the_single_random() {
        // r = 1 is degenerate but legal: i = m + 1 devices, one row each.
        // Each non-random coded row mixes the single random row — still
        // secure per device because every device holds exactly ONE row.
        let d = CodeDesign::new(3, 1).unwrap();
        assert_eq!(d.device_count(), 4);
        for j in 1..=4 {
            assert_eq!(d.device_load(j).unwrap(), 1);
        }
    }
}

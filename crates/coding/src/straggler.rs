//! Straggler tolerance via redundant coded rows — the extension the
//! paper's footnote 1 sketches: "redundant vectors can also be used to
//! provide processing delay guarantee".
//!
//! A [`StragglerCode`] appends `s` extra coded rows to the structured
//! design. Each extra row is a *uniformly random* combination of all
//! `m + r` rows of `T`, so over GF(2⁶¹−1) any `m + r` of the `m + r + s`
//! coded rows decode `Ax` with overwhelming probability (the random
//! extension behaves like an MDS code): up to `s` row responses — e.g.
//! an entire slow device — can simply be *ignored*.
//!
//! Crucially, the extra rows live on **standby devices**, not on the base
//! devices: Lemma 1 shows a secure device can hold at most `r` coded
//! rows, and the base devices are already at (or near) that cap. Each
//! standby device receives at most `r` random rows, which keeps its
//! random-coefficient block full row rank — hence secure — with
//! probability `1 − O(1/p)`; the constructor verifies and re-samples.
//!
//! Decoding uses the O(m) fast path when all base rows arrived, and falls
//! back to Gaussian elimination over the available rows otherwise.

use rand::Rng;

use scec_linalg::{gauss, span, Matrix, Scalar, Vector};

use crate::design::CodeDesign;
use crate::encode::Encoder;
use crate::error::{Error, Result};

/// A straggler-tolerant extension of the structured LCEC.
///
/// # Example
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use scec_coding::{CodeDesign, StragglerCode};
/// use scec_linalg::{Fp61, Matrix, Vector};
///
/// let mut rng = StdRng::seed_from_u64(5);
/// let code = StragglerCode::<Fp61>::new(CodeDesign::new(4, 2)?, 2, &mut rng)?;
/// let a = Matrix::<Fp61>::random(4, 3, &mut rng);
/// let x = Vector::<Fp61>::random(3, &mut rng);
/// let store = code.encode(&a, &mut rng)?;
/// // Collect everything, then discard the first 2 responses: any m + r
/// // of the m + r + s tagged rows decode.
/// let responses: Vec<_> = store
///     .shares()
///     .iter()
///     .flat_map(|s| s.compute(&x).unwrap())
///     .skip(2)
///     .collect();
/// assert_eq!(code.decode(&responses)?, a.matvec(&x).unwrap());
/// # Ok::<(), scec_coding::Error>(())
/// ```
#[derive(Clone)]
pub struct StragglerCode<F> {
    pub(crate) base: CodeDesign,
    /// The `s × (m+r)` random extension block appended below Eq. (8)'s B.
    pub(crate) extension: Matrix<F>,
}

impl<F: Scalar> std::fmt::Debug for StragglerCode<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StragglerCode")
            .field("base", &self.base)
            .field("redundancy", &self.extension.nrows())
            .finish()
    }
}

impl<F: Scalar> StragglerCode<F> {
    /// Builds a straggler code with `redundancy` extra rows on standby
    /// devices (at most `r` rows each, per Lemma 1), re-sampling until
    /// every device's block is secure.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDesign`] when `redundancy == 0` (use the
    /// plain [`CodeDesign`] instead — the straggler machinery would only
    /// add overhead).
    pub fn new<R: Rng + ?Sized>(base: CodeDesign, redundancy: usize, rng: &mut R) -> Result<Self> {
        if redundancy == 0 {
            return Err(Error::InvalidDesign {
                m: base.data_rows(),
                r: base.random_rows(),
                reason: "straggler redundancy must be positive",
            });
        }
        let n = base.total_rows();
        let lambda = span::data_span_basis::<F>(base.data_rows(), base.random_rows());
        // Re-sample the extension until all standby devices are secure
        // (base devices are untouched and secure by Theorem 3). Over a
        // 2^61 field a single draw suffices w.p. ~1; the loop is defensive.
        for _ in 0..16 {
            let extension = Matrix::<F>::random(redundancy, n, rng);
            let code = StragglerCode {
                base: base.clone(),
                extension,
            };
            let secure = (code.base.device_count() + 1..=code.device_count()).all(|j| {
                let block = code.device_block(j).expect("j in range");
                span::intersection_dim(&block, &lambda) == 0
            });
            if secure {
                return Ok(code);
            }
        }
        Err(Error::InvalidDesign {
            m: base.data_rows(),
            r: base.random_rows(),
            reason: "could not sample a secure extension (field too small?)",
        })
    }

    /// Reassembles a straggler code from its parts (the `scec-wire`
    /// deserialization path), re-verifying the standby devices' security
    /// condition — never trust bytes.
    ///
    /// # Errors
    ///
    /// Returns [`Error::PayloadShape`] when the extension width is not
    /// `m + r`, or [`Error::InvalidDesign`] when it is empty or a standby
    /// block violates the security condition.
    pub fn from_parts(base: CodeDesign, extension: Matrix<F>) -> Result<Self> {
        if extension.ncols() != base.total_rows() {
            return Err(Error::PayloadShape {
                what: "straggler extension block",
                expected: (extension.nrows(), base.total_rows()),
                got: extension.shape(),
            });
        }
        if extension.nrows() == 0 {
            return Err(Error::InvalidDesign {
                m: base.data_rows(),
                r: base.random_rows(),
                reason: "straggler redundancy must be positive",
            });
        }
        let code = StragglerCode { base, extension };
        let lambda = span::data_span_basis::<F>(code.base.data_rows(), code.base.random_rows());
        for j in code.base.device_count() + 1..=code.device_count() {
            let block = code.device_block(j)?;
            if span::intersection_dim(&block, &lambda) != 0 {
                return Err(Error::InvalidDesign {
                    m: code.base.data_rows(),
                    r: code.base.random_rows(),
                    reason: "extension block violates the security condition",
                });
            }
        }
        Ok(code)
    }

    /// The extension block (the `s` random rows appended below Eq. (8)'s
    /// `B`).
    pub fn extension(&self) -> &Matrix<F> {
        &self.extension
    }

    /// The underlying structured design.
    pub fn base(&self) -> &CodeDesign {
        &self.base
    }

    /// Number of redundant rows `s`.
    pub fn redundancy(&self) -> usize {
        self.extension.nrows()
    }

    /// Total coded rows `m + r + s`.
    pub fn total_rows(&self) -> usize {
        self.base.total_rows() + self.redundancy()
    }

    /// Minimum responses needed to decode (`m + r`).
    pub fn rows_needed(&self) -> usize {
        self.base.total_rows()
    }

    /// Number of standby devices carrying the redundant rows
    /// (`⌈s/r⌉` — each capped at `r` rows per Lemma 1).
    pub fn standby_devices(&self) -> usize {
        self.redundancy().div_ceil(self.base.random_rows())
    }

    /// Total participating devices: the base design's `i` plus the
    /// standbys.
    pub fn device_count(&self) -> usize {
        self.base.device_count() + self.standby_devices()
    }

    /// The full `(m+r+s) × (m+r)` extended coefficient matrix.
    pub fn extended_matrix(&self) -> Matrix<F> {
        self.base
            .encoding_matrix::<F>()
            .vstack(&self.extension)
            .expect("widths agree")
    }

    /// Global row indices held by device `j` (1-based): base devices keep
    /// their structured rows; standby device `i + t` holds the `t`-th
    /// chunk of at most `r` extension rows.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownDevice`] when `j` is outside
    /// `1..=device_count()`.
    pub fn device_rows(&self, j: usize) -> Result<Vec<usize>> {
        let i = self.base.device_count();
        if j >= 1 && j <= i {
            return Ok(self.base.device_row_range(j)?.collect());
        }
        if j == 0 || j > self.device_count() {
            return Err(Error::UnknownDevice {
                device: j,
                devices: self.device_count(),
            });
        }
        let n = self.base.total_rows();
        let r = self.base.random_rows();
        let chunk = j - i - 1;
        let start = chunk * r;
        let end = ((chunk + 1) * r).min(self.redundancy());
        Ok((start..end).map(|t| n + t).collect())
    }

    /// The coefficient block of device `j` (base or standby).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownDevice`] when `j` is outside
    /// `1..=device_count()`.
    pub fn device_block(&self, j: usize) -> Result<Matrix<F>> {
        let full = self.extended_matrix();
        let rows = self.device_rows(j)?;
        let mut out = Matrix::zeros(rows.len(), full.ncols());
        for (t, &row) in rows.iter().enumerate() {
            for c in 0..full.ncols() {
                out.set(t, c, full.at(row, c))?;
            }
        }
        Ok(out)
    }

    /// Encodes the data matrix into per-device tagged shares.
    ///
    /// # Errors
    ///
    /// Propagates [`Encoder::encode`] shape validation.
    pub fn encode<R: Rng + ?Sized>(&self, a: &Matrix<F>, rng: &mut R) -> Result<StragglerStore<F>> {
        let randomness = Matrix::<F>::random(self.base.random_rows(), a.ncols(), rng);
        self.blind(a, randomness)
    }

    /// Deterministic encoding with caller-supplied randomness.
    ///
    /// # Errors
    ///
    /// Propagates shape validation from the base encoder.
    pub fn encode_with_randomness(
        &self,
        a: &Matrix<F>,
        randomness: &Matrix<F>,
    ) -> Result<StragglerStore<F>> {
        self.blind(a, randomness.clone())
    }

    /// The encode both entry points end in: the base encoder takes `R`
    /// (it is device 1's share, and is read back from there to mix the
    /// extension rows), and every base share moves into the store.
    fn blind(&self, a: &Matrix<F>, randomness: Matrix<F>) -> Result<StragglerStore<F>> {
        let base_store = Encoder::new(self.base.clone()).blind(a, randomness)?;
        let t = a.vstack(base_store.share(1)?.coded())?;
        let extra_payload = self.extension.matmul(&t)?;
        let n = self.base.total_rows();
        let mut shares = Vec::with_capacity(self.device_count());
        for share in base_store.into_shares() {
            shares.push(StragglerShare {
                device: share.device,
                rows: self.device_rows(share.device)?,
                coded: share.coded,
            });
        }
        for j in self.base.device_count() + 1..=self.device_count() {
            let rows = self.device_rows(j)?;
            let payload_rows: Vec<Vec<F>> = rows
                .iter()
                .map(|&row| extra_payload.row(row - n).to_vec())
                .collect();
            shares.push(StragglerShare {
                device: j,
                rows,
                coded: Matrix::from_rows(payload_rows)?,
            });
        }
        Ok(StragglerStore {
            code: self.clone(),
            shares,
        })
    }

    /// Decodes `Ax` from any set of tagged responses covering at least
    /// `m + r` distinct rows. Uses the O(m) fast path when every base row
    /// is present; otherwise solves the available square subsystem.
    ///
    /// # Errors
    ///
    /// * [`Error::PayloadShape`] when fewer than `m + r` distinct rows are
    ///   supplied or a duplicate row disagrees in value;
    /// * [`Error::Linalg`] when the selected submatrix is singular (a
    ///   probability-`O(1/p)` event for the random extension).
    pub fn decode(&self, responses: &[TaggedResponse<F>]) -> Result<Vector<F>> {
        let n = self.base.total_rows();
        let mut have: Vec<Option<F>> = vec![None; self.total_rows()];
        let mut distinct = 0;
        for resp in responses {
            if resp.row >= self.total_rows() {
                return Err(Error::PayloadShape {
                    what: "tagged response row index",
                    expected: (self.total_rows(), 1),
                    got: (resp.row, 1),
                });
            }
            if have[resp.row].is_none() {
                have[resp.row] = Some(resp.value);
                distinct += 1;
            }
        }
        if distinct < n {
            return Err(Error::PayloadShape {
                what: "straggler responses (distinct rows)",
                expected: (n, 1),
                got: (distinct, 1),
            });
        }
        // Fast path: all base rows arrived.
        if have[..n].iter().all(Option::is_some) {
            let btx = Vector::from_vec(have[..n].iter().map(|v| v.expect("checked")).collect());
            return crate::decode::decode_fast(&self.base, &btx);
        }
        // General path: pick the first n available rows and solve.
        let full = self.extended_matrix();
        let mut rows = Vec::with_capacity(n);
        let mut rhs = Vec::with_capacity(n);
        for (row, value) in have.iter().enumerate() {
            if let Some(v) = value {
                rows.push(row);
                rhs.push(*v);
                if rows.len() == n {
                    break;
                }
            }
        }
        let mut sub = Matrix::zeros(n, n);
        for (t, &row) in rows.iter().enumerate() {
            for c in 0..n {
                sub.set(t, c, full.at(row, c))?;
            }
        }
        // PLU-factorize and solve (same route, and hence bit-identical
        // per-column results, as the multi-RHS panel path below).
        let tx = gauss::factorize(&sub)?.solve(&Vector::from_vec(rhs))?;
        Ok(tx.slice(0, self.base.data_rows())?)
    }

    /// Batched decode: recovers the `m × k` answer panel `Y = A X` from
    /// row-tagged partial-result *panels* (one column per query).
    ///
    /// `rows[t]` tags row `t` of `values` with its global coded-row index,
    /// exactly like [`TaggedResponse::row`] tags a scalar; duplicates are
    /// deduplicated first-occurrence-wins, matching [`decode`](Self::decode).
    /// Column `j` of the result is bit-identical to `decode` of the
    /// corresponding tagged column, but the row bookkeeping, fast-path
    /// subtraction sweep, and (on the general path) the elimination run
    /// **once per panel** instead of once per query.
    ///
    /// # Errors
    ///
    /// * [`Error::PayloadShape`] when `rows` and `values` disagree in
    ///   length, a tag is out of range, or fewer than `m + r` distinct
    ///   rows are supplied;
    /// * [`Error::Linalg`] when the selected submatrix is singular.
    pub fn decode_panel(&self, rows: &[usize], values: &Matrix<F>) -> Result<Matrix<F>> {
        if rows.len() != values.nrows() {
            return Err(Error::PayloadShape {
                what: "tagged panel row tags",
                expected: (values.nrows(), 1),
                got: (rows.len(), 1),
            });
        }
        let n = self.base.total_rows();
        let k = values.ncols();
        // First response index per global row, first occurrence wins.
        let mut have: Vec<Option<usize>> = vec![None; self.total_rows()];
        let mut distinct = 0;
        for (t, &row) in rows.iter().enumerate() {
            if row >= self.total_rows() {
                return Err(Error::PayloadShape {
                    what: "tagged response row index",
                    expected: (self.total_rows(), 1),
                    got: (row, 1),
                });
            }
            if have[row].is_none() {
                have[row] = Some(t);
                distinct += 1;
            }
        }
        if distinct < n {
            return Err(Error::PayloadShape {
                what: "straggler responses (distinct rows)",
                expected: (n, 1),
                got: (distinct, 1),
            });
        }
        // Fast path: all base rows arrived — one batched subtraction sweep.
        if have[..n].iter().all(Option::is_some) {
            let mut flat = Vec::with_capacity(n * k);
            for slot in &have[..n] {
                flat.extend_from_slice(values.row(slot.expect("checked")));
            }
            let btx = Matrix::from_flat(n, k, flat)?;
            return crate::decode::decode_fast_batch(&self.base, &btx);
        }
        // General path: first n available rows, one factorization, one
        // multi-RHS solve.
        let full = self.extended_matrix();
        let mut picked = Vec::with_capacity(n);
        for (row, slot) in have.iter().enumerate() {
            if let Some(t) = slot {
                picked.push((row, *t));
                if picked.len() == n {
                    break;
                }
            }
        }
        let mut sub = Matrix::zeros(n, n);
        let mut rhs_flat = Vec::with_capacity(n * k);
        for (t, &(row, resp)) in picked.iter().enumerate() {
            for c in 0..n {
                sub.set(t, c, full.at(row, c))?;
            }
            rhs_flat.extend_from_slice(values.row(resp));
        }
        let rhs = Matrix::from_flat(n, k, rhs_flat)?;
        let lu = gauss::factorize(&sub)?;
        let tx = lu.solve_matrix(&rhs)?;
        let mut out_flat = Vec::with_capacity(self.base.data_rows() * k);
        for p in 0..self.base.data_rows() {
            out_flat.extend_from_slice(tx.row(p));
        }
        Ok(Matrix::from_flat(self.base.data_rows(), k, out_flat)?)
    }
}

/// One device's tagged share: coded payload plus the global row indices
/// each payload row corresponds to.
#[derive(Clone, PartialEq)]
pub struct StragglerShare<F> {
    device: usize,
    rows: Vec<usize>,
    coded: Matrix<F>,
}

impl<F: Scalar> std::fmt::Debug for StragglerShare<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StragglerShare")
            .field("device", &self.device)
            .field("rows", &self.rows)
            .field("coded", &self.coded)
            .finish()
    }
}

impl<F: Scalar> StragglerShare<F> {
    /// Reassembles a tagged share from its parts (the `scec-wire`
    /// deserialization path).
    ///
    /// # Errors
    ///
    /// Returns [`Error::PayloadShape`] when the row-tag count and payload
    /// row count disagree.
    pub fn from_parts(device: usize, rows: Vec<usize>, coded: Matrix<F>) -> Result<Self> {
        if rows.len() != coded.nrows() {
            return Err(Error::PayloadShape {
                what: "straggler share row tags",
                expected: (coded.nrows(), 1),
                got: (rows.len(), 1),
            });
        }
        Ok(StragglerShare {
            device,
            rows,
            coded,
        })
    }

    /// The 1-based device index.
    pub fn device(&self) -> usize {
        self.device
    }

    /// Global row indices, aligned with the payload rows.
    pub fn rows(&self) -> &[usize] {
        &self.rows
    }

    /// The coded payload (base rows then extra rows).
    pub fn coded(&self) -> &Matrix<F> {
        &self.coded
    }

    /// The device-side computation: tagged partial results for `x`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::PayloadShape`] when `x` has the wrong length.
    pub fn compute(&self, x: &Vector<F>) -> Result<Vec<TaggedResponse<F>>> {
        if x.len() != self.coded.ncols() {
            return Err(Error::PayloadShape {
                what: "input vector",
                expected: (self.coded.ncols(), 1),
                got: (x.len(), 1),
            });
        }
        let values = self.coded.matvec(x)?;
        Ok(self
            .rows
            .iter()
            .zip(values.as_slice())
            .map(|(&row, &value)| TaggedResponse { row, value })
            .collect())
    }

    /// The device-side *panel* computation: one `coded · X` matmul serving
    /// `k` queries at once. Row `t` of the result carries the values for
    /// global coded row [`rows()`](Self::rows)`[t]`, i.e. column `j` is
    /// bit-identical to the values [`compute`](Self::compute) returns for
    /// column `j` of `xs`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::PayloadShape`] when `xs` has the wrong row count.
    pub fn compute_panel(&self, xs: &Matrix<F>) -> Result<Matrix<F>> {
        if xs.nrows() != self.coded.ncols() {
            return Err(Error::PayloadShape {
                what: "input panel",
                expected: (self.coded.ncols(), xs.ncols()),
                got: xs.shape(),
            });
        }
        Ok(self.coded.matmul(xs)?)
    }
}

/// A single computed value, tagged with its global coded-row index so the
/// decoder can work from any subset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaggedResponse<F> {
    /// Global row index in `0..m+r+s`.
    pub row: usize,
    /// The computed value `(B_ext T x)_row`.
    pub value: F,
}

/// All tagged shares of one straggler-coded data matrix.
#[derive(Clone)]
pub struct StragglerStore<F> {
    code: StragglerCode<F>,
    shares: Vec<StragglerShare<F>>,
}

impl<F: Scalar> std::fmt::Debug for StragglerStore<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StragglerStore")
            .field("code", &self.code)
            .field("shares", &self.shares)
            .finish()
    }
}

impl<F: Scalar> StragglerStore<F> {
    /// The code this store was encoded under.
    pub fn code(&self) -> &StragglerCode<F> {
        &self.code
    }

    /// Per-device shares, device 1 first.
    pub fn shares(&self) -> &[StragglerShare<F>] {
        &self.shares
    }

    /// Consumes the store, returning the shares.
    pub fn into_shares(self) -> Vec<StragglerShare<F>> {
        self.shares
    }

    /// Replaces the store's code with a grown (rateless) one. Appending
    /// rows never disturbs existing indices, so already-installed shares
    /// stay valid under the new code.
    pub(crate) fn adopt_code(&mut self, code: StragglerCode<F>) {
        self.code = code;
    }

    /// Appends tagged rows to an existing device's share.
    pub(crate) fn grow_share(
        &mut self,
        device: usize,
        rows: &[usize],
        coded: &Matrix<F>,
    ) -> Result<()> {
        let devices = self.shares.len();
        let share = self
            .shares
            .get_mut(device - 1)
            .ok_or(Error::UnknownDevice { device, devices })?;
        share.coded = share.coded.vstack(coded)?;
        share.rows.extend_from_slice(rows);
        Ok(())
    }

    /// Adds a brand-new device's share at the next contiguous slot.
    pub(crate) fn push_share(
        &mut self,
        device: usize,
        rows: Vec<usize>,
        coded: Matrix<F>,
    ) -> Result<()> {
        self.shares
            .push(StragglerShare::from_parts(device, rows, coded)?);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use scec_linalg::Fp61;

    fn setup(
        m: usize,
        r: usize,
        s: usize,
        l: usize,
        seed: u64,
    ) -> (
        StragglerCode<Fp61>,
        Matrix<Fp61>,
        Vector<Fp61>,
        StragglerStore<Fp61>,
        StdRng,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = CodeDesign::new(m, r).unwrap();
        let code = StragglerCode::<Fp61>::new(base, s, &mut rng).unwrap();
        let a = Matrix::<Fp61>::random(m, l, &mut rng);
        let x = Vector::<Fp61>::random(l, &mut rng);
        let store = code.encode(&a, &mut rng).unwrap();
        (code, a, x, store, rng)
    }

    fn all_responses(store: &StragglerStore<Fp61>, x: &Vector<Fp61>) -> Vec<TaggedResponse<Fp61>> {
        store
            .shares()
            .iter()
            .flat_map(|s| s.compute(x).unwrap())
            .collect()
    }

    #[test]
    fn encode_is_encode_with_the_randomness_the_seed_draws() {
        let (code, a, _, _, _) = setup(6, 3, 4, 5, 40);
        let drawn = code.encode(&a, &mut StdRng::seed_from_u64(41)).unwrap();
        let randomness = Matrix::<Fp61>::random(3, 5, &mut StdRng::seed_from_u64(41));
        let given = code.encode_with_randomness(&a, &randomness).unwrap();
        assert_eq!(drawn.shares(), given.shares());
        // And the block it drew is device 1's share, not a copy of it.
        let drawn = randomness.as_flat().as_ptr();
        let store = code.blind(&a, randomness).unwrap();
        assert_eq!(store.shares()[0].coded().as_flat().as_ptr(), drawn);
    }

    #[test]
    fn decodes_with_all_responses_via_fast_path() {
        let (code, a, x, store, _) = setup(6, 2, 3, 4, 1);
        let responses = all_responses(&store, &x);
        assert_eq!(responses.len(), code.total_rows());
        let y = code.decode(&responses).unwrap();
        assert_eq!(y, a.matvec(&x).unwrap());
    }

    #[test]
    fn decodes_with_any_s_rows_missing() {
        let (code, a, x, store, _) = setup(6, 2, 3, 4, 2);
        let responses = all_responses(&store, &x);
        let want = a.matvec(&x).unwrap();
        // Drop every possible set of exactly s=3 responses (positional).
        let n = responses.len();
        for i in 0..n {
            for j in (i + 1)..n {
                for k in (j + 1)..n {
                    let kept: Vec<TaggedResponse<Fp61>> = responses
                        .iter()
                        .enumerate()
                        .filter(|(t, _)| *t != i && *t != j && *t != k)
                        .map(|(_, r)| *r)
                        .collect();
                    let y = code.decode(&kept).unwrap();
                    assert_eq!(y, want, "dropping {i},{j},{k}");
                }
            }
        }
    }

    #[test]
    fn tolerates_losing_a_whole_device() {
        // Redundancy >= the largest device load: drop any single device.
        let (code, a, x, store, _) = setup(6, 3, 4, 3, 3);
        let want = a.matvec(&x).unwrap();
        for dropped in 1..=code.base().device_count() {
            let kept: Vec<TaggedResponse<Fp61>> = store
                .shares()
                .iter()
                .filter(|s| s.device() != dropped)
                .flat_map(|s| s.compute(&x).unwrap())
                .collect();
            if kept.len() < code.rows_needed() {
                continue; // device held more rows than the redundancy
            }
            let y = code.decode(&kept).unwrap();
            assert_eq!(y, want, "dropping device {dropped}");
        }
    }

    /// Tagged panel for a subset of devices: (row tags, stacked values).
    fn panel_responses(
        store: &StragglerStore<Fp61>,
        xs: &Matrix<Fp61>,
        skip_devices: &[usize],
    ) -> (Vec<usize>, Matrix<Fp61>) {
        let mut rows = Vec::new();
        let mut parts = Vec::new();
        for share in store.shares() {
            if skip_devices.contains(&share.device()) {
                continue;
            }
            rows.extend_from_slice(share.rows());
            parts.push(share.compute_panel(xs).unwrap());
        }
        (rows, crate::decode::stack_partial_matrices(&parts).unwrap())
    }

    #[test]
    fn panel_decode_matches_per_query_fast_path() {
        let (code, a, _x, store, mut rng) = setup(6, 2, 3, 4, 31);
        for k in [1usize, 4] {
            let xs = Matrix::<Fp61>::random(4, k, &mut rng);
            let (rows, values) = panel_responses(&store, &xs, &[]);
            let y = code.decode_panel(&rows, &values).unwrap();
            assert_eq!(y, a.matmul(&xs).unwrap());
            for j in 0..k {
                let per_query: Vec<TaggedResponse<Fp61>> = store
                    .shares()
                    .iter()
                    .flat_map(|s| s.compute(&xs.col(j)).unwrap())
                    .collect();
                assert_eq!(y.col(j), code.decode(&per_query).unwrap(), "column {j}");
            }
        }
    }

    #[test]
    fn panel_decode_matches_per_query_general_path() {
        // Drop device 1 to knock out base rows and force elimination.
        let (code, a, _x, store, mut rng) = setup(6, 3, 4, 3, 37);
        let xs = Matrix::<Fp61>::random(3, 5, &mut rng);
        let (rows, values) = panel_responses(&store, &xs, &[1]);
        let y = code.decode_panel(&rows, &values).unwrap();
        assert_eq!(y, a.matmul(&xs).unwrap());
        for j in 0..5 {
            let per_query: Vec<TaggedResponse<Fp61>> = store
                .shares()
                .iter()
                .filter(|s| s.device() != 1)
                .flat_map(|s| s.compute(&xs.col(j)).unwrap())
                .collect();
            assert_eq!(y.col(j), code.decode(&per_query).unwrap(), "column {j}");
        }
    }

    #[test]
    fn panel_decode_validates_inputs() {
        let (code, _a, _x, store, mut rng) = setup(5, 2, 2, 3, 41);
        let xs = Matrix::<Fp61>::random(3, 2, &mut rng);
        let (rows, values) = panel_responses(&store, &xs, &[]);
        // Tag/value length mismatch.
        assert!(matches!(
            code.decode_panel(&rows[..rows.len() - 1], &values),
            Err(Error::PayloadShape { .. })
        ));
        // Out-of-range tag.
        let mut bad_rows = rows.clone();
        bad_rows[0] = code.total_rows();
        assert!(matches!(
            code.decode_panel(&bad_rows, &values),
            Err(Error::PayloadShape { .. })
        ));
        // Too few distinct rows.
        let short = Matrix::from_rows(vec![values.row(0).to_vec(); rows.len()]).unwrap();
        let same_rows = vec![rows[0]; rows.len()];
        assert!(matches!(
            code.decode_panel(&same_rows, &short),
            Err(Error::PayloadShape { .. })
        ));
    }

    #[test]
    fn too_few_responses_is_rejected() {
        let (code, _a, x, store, _) = setup(5, 2, 2, 3, 4);
        let responses = all_responses(&store, &x);
        let kept = &responses[..code.rows_needed() - 1];
        assert!(matches!(code.decode(kept), Err(Error::PayloadShape { .. })));
    }

    #[test]
    fn duplicate_responses_are_deduplicated() {
        let (code, a, x, store, _) = setup(5, 2, 2, 3, 5);
        let mut responses = all_responses(&store, &x);
        let dup = responses[0];
        responses.push(dup);
        let y = code.decode(&responses).unwrap();
        assert_eq!(y, a.matvec(&x).unwrap());
    }

    #[test]
    fn out_of_range_row_is_rejected() {
        let (code, _a, _x, _store, _) = setup(5, 2, 2, 3, 6);
        let bogus = vec![TaggedResponse {
            row: code.total_rows(),
            value: Fp61::new(1),
        }];
        assert!(matches!(
            code.decode(&bogus),
            Err(Error::PayloadShape { .. })
        ));
    }

    #[test]
    fn every_device_block_remains_secure() {
        let (code, _a, _x, _store, _) = setup(8, 3, 5, 4, 7);
        let lambda = span::data_span_basis::<Fp61>(8, 3);
        for j in 1..=code.device_count() {
            let block = code.device_block(j).unwrap();
            assert_eq!(span::intersection_dim(&block, &lambda), 0, "device {j}");
        }
    }

    #[test]
    fn row_assignment_is_chunked_and_complete() {
        let (code, _a, _x, _store, _) = setup(6, 2, 5, 3, 8);
        // s = 5 extra rows in chunks of r = 2 → 3 standby devices.
        assert_eq!(code.standby_devices(), 3);
        let total = code.device_count();
        let mut seen = std::collections::HashSet::new();
        for j in 1..=total {
            let rows = code.device_rows(j).unwrap();
            // Lemma 1: no device (base or standby) exceeds r rows.
            assert!(rows.len() <= code.base().random_rows(), "device {j}");
            for row in rows {
                assert!(seen.insert(row), "row {row} assigned twice");
            }
        }
        assert_eq!(seen.len(), code.total_rows());
        assert!(code.device_rows(0).is_err());
        assert!(code.device_rows(total + 1).is_err());
    }

    #[test]
    fn zero_redundancy_is_rejected() {
        let mut rng = StdRng::seed_from_u64(9);
        let base = CodeDesign::new(4, 2).unwrap();
        assert!(matches!(
            StragglerCode::<Fp61>::new(base, 0, &mut rng),
            Err(Error::InvalidDesign { .. })
        ));
    }

    #[test]
    fn share_compute_validates_width() {
        let (_code, _a, _x, store, _) = setup(4, 2, 2, 3, 10);
        let bad = Vector::<Fp61>::zeros(5);
        assert!(matches!(
            store.shares()[0].compute(&bad),
            Err(Error::PayloadShape { .. })
        ));
    }

    #[test]
    fn works_over_f64_with_tolerance() {
        let mut rng = StdRng::seed_from_u64(11);
        let base = CodeDesign::new(5, 2).unwrap();
        let code = StragglerCode::<f64>::new(base, 2, &mut rng).unwrap();
        let a = Matrix::<f64>::random(5, 3, &mut rng);
        let x = Vector::<f64>::random(3, &mut rng);
        let store = code.encode(&a, &mut rng).unwrap();
        let responses: Vec<TaggedResponse<f64>> = store
            .shares()
            .iter()
            .flat_map(|s| s.compute(&x).unwrap())
            .collect();
        // Drop the first two responses to force the general path.
        let kept = &responses[2..];
        let y = code.decode(kept).unwrap();
        let want = a.matvec(&x).unwrap();
        for p in 0..5 {
            assert!((y.at(p) - want.at(p)).abs() < 1e-6);
        }
    }
}

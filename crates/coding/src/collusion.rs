//! Collusion-resistant coding — the generalization the paper's conclusion
//! names as future work: "a more general case that more than one edge
//! devices can attack cooperatively".
//!
//! The structured design of Eq. (8) is secure against **single** passive
//! devices only: device 1 holds the raw random rows, so any coalition
//! containing it (or two data devices sharing a random row) can cancel
//! the blinding. [`TPrivateCode`] fixes this with dense blinding:
//!
//! * each coded data row is `A_p + g_p·R` for a fresh uniformly random
//!   coefficient vector `g_p ∈ F^r`;
//! * `r = t·v` pure-noise rows `h_q·R` (with `H = [h_q]` invertible)
//!   provide the decoding side-information;
//! * every device holds at most `v` rows.
//!
//! A coalition of up to `t` devices observes at most `t·v = r` rows whose
//! random-coefficient submatrix is a `≤ r × r` uniformly random matrix —
//! full row rank with probability `1 − O(1/p)` — so the coalition's view
//! is simulatable for *any* data matrix: information-theoretic
//! `t`-privacy. The constructor verifies the relevant ranks and
//! re-samples on the (astronomically unlikely) failure.
//!
//! The price of collusion resistance is decoding cost: recovery becomes
//! one `r × r` solve plus `m` length-`r` dot products, instead of the
//! single-device design's `m` subtractions — quantified by ablation A6
//! (`scec_experiments::ablation::collusion_cost`).

use rand::Rng;

use scec_linalg::{gauss, lu::Lu, span, Matrix, Scalar, Vector};

use crate::encode::DeviceShare;
use crate::error::{Error, Result};

/// A `t`-private linear code for coded edge computing.
///
/// # Example
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use scec_coding::TPrivateCode;
/// use scec_linalg::{Fp61, Matrix, Vector};
///
/// let mut rng = StdRng::seed_from_u64(3);
/// // 2-private: any pair of devices learns nothing.
/// let code = TPrivateCode::<Fp61>::new(6, 2, 2, &mut rng)?;
/// assert!(code.verify_t_privacy()?);
/// let a = Matrix::<Fp61>::random(6, 3, &mut rng);
/// let x = Vector::<Fp61>::random(3, &mut rng);
/// let store = code.encode(&a, &mut rng)?;
/// let mut btx = Vec::new();
/// for share in store.shares() {
///     btx.extend(share.compute(&x).unwrap().into_vec());
/// }
/// assert_eq!(code.decode(&Vector::from_vec(btx))?, a.matvec(&x).unwrap());
/// # Ok::<(), scec_coding::Error>(())
/// ```
#[derive(Clone)]
pub struct TPrivateCode<F> {
    m: usize,
    t: usize,
    load_cap: usize,
    /// `m × r` random blinding coefficients (`g_p` rows).
    data_coeffs: Matrix<F>,
    /// `r × r` invertible noise mixer (`h_q` rows).
    noise_mixer: Matrix<F>,
    /// PLU factorization of the mixer, prepared once so each decode costs
    /// O(r²) instead of O(r³).
    mixer_lu: Lu<F>,
}

impl<F: Scalar> std::fmt::Debug for TPrivateCode<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TPrivateCode")
            .field("m", &self.m)
            .field("t", &self.t)
            .field("load_cap", &self.load_cap)
            .field("r", &self.random_rows())
            .finish()
    }
}

impl<F: Scalar> TPrivateCode<F> {
    /// Builds a `t`-private code for `m` data rows with per-device load
    /// cap `v` (so `r = t·v` random rows are mixed in).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDesign`] when `m == 0`, `t == 0`, or
    /// `v == 0`.
    pub fn new<R: Rng + ?Sized>(m: usize, t: usize, v: usize, rng: &mut R) -> Result<Self> {
        if m == 0 || t == 0 || v == 0 {
            return Err(Error::InvalidDesign {
                m,
                r: t * v,
                reason: "m, t, and the load cap must all be positive",
            });
        }
        let r = t * v;
        // Re-sample until the noise mixer is invertible (w.p. ~1 on the
        // first draw over GF(2^61−1)).
        for _ in 0..16 {
            let data_coeffs = Matrix::<F>::random(m, r, rng);
            let noise_mixer = Matrix::<F>::random(r, r, rng);
            if let Ok(mixer_lu) = Lu::factor(&noise_mixer) {
                debug_assert_eq!(gauss::rank(&noise_mixer), r);
                return Ok(TPrivateCode {
                    m,
                    t,
                    load_cap: v,
                    data_coeffs,
                    noise_mixer,
                    mixer_lu,
                });
            }
        }
        Err(Error::InvalidDesign {
            m,
            r,
            reason: "could not sample an invertible noise mixer",
        })
    }

    /// Reassembles a code from its parts (the `scec-wire` deserialization
    /// path), re-deriving the mixer factorization and re-validating all
    /// shapes — never trust bytes.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDesign`] for zero parameters or a singular
    /// mixer, and [`Error::PayloadShape`] for mismatched coefficient
    /// shapes.
    pub fn from_parts(
        m: usize,
        t: usize,
        load_cap: usize,
        data_coeffs: Matrix<F>,
        noise_mixer: Matrix<F>,
    ) -> Result<Self> {
        if m == 0 || t == 0 || load_cap == 0 {
            return Err(Error::InvalidDesign {
                m,
                r: t * load_cap,
                reason: "m, t, and the load cap must all be positive",
            });
        }
        let r = t * load_cap;
        if data_coeffs.shape() != (m, r) {
            return Err(Error::PayloadShape {
                what: "t-private data coefficients",
                expected: (m, r),
                got: data_coeffs.shape(),
            });
        }
        if noise_mixer.shape() != (r, r) {
            return Err(Error::PayloadShape {
                what: "t-private noise mixer",
                expected: (r, r),
                got: noise_mixer.shape(),
            });
        }
        let mixer_lu = Lu::factor(&noise_mixer).map_err(|_| Error::InvalidDesign {
            m,
            r,
            reason: "noise mixer is singular",
        })?;
        Ok(TPrivateCode {
            m,
            t,
            load_cap,
            data_coeffs,
            noise_mixer,
            mixer_lu,
        })
    }

    /// The blinding coefficient block `G` (`m × r`).
    pub fn data_coeffs(&self) -> &Matrix<F> {
        &self.data_coeffs
    }

    /// The noise mixer `H` (`r × r`, invertible).
    pub fn noise_mixer(&self) -> &Matrix<F> {
        &self.noise_mixer
    }

    /// Number of data rows `m`.
    pub fn data_rows(&self) -> usize {
        self.m
    }

    /// Collusion threshold `t`.
    pub fn threshold(&self) -> usize {
        self.t
    }

    /// Per-device load cap `v`.
    pub fn load_cap(&self) -> usize {
        self.load_cap
    }

    /// Number of random rows `r = t·v`.
    pub fn random_rows(&self) -> usize {
        self.t * self.load_cap
    }

    /// Total coded rows `m + r`.
    pub fn total_rows(&self) -> usize {
        self.m + self.random_rows()
    }

    /// Number of participating devices: `⌈r/v⌉ + ⌈m/v⌉` (noise devices
    /// first, then data devices), each holding at most `v` rows.
    pub fn device_count(&self) -> usize {
        self.random_rows().div_ceil(self.load_cap) + self.m.div_ceil(self.load_cap)
    }

    /// Global row indices of device `j` (1-based): rows are dealt in
    /// chunks of `v` — noise rows `0..r` first, data rows after.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownDevice`] when `j` is outside
    /// `1..=device_count()`.
    pub fn device_rows(&self, j: usize) -> Result<std::ops::Range<usize>> {
        if j == 0 || j > self.device_count() {
            return Err(Error::UnknownDevice {
                device: j,
                devices: self.device_count(),
            });
        }
        let r = self.random_rows();
        let noise_devices = r.div_ceil(self.load_cap);
        if j <= noise_devices {
            let start = (j - 1) * self.load_cap;
            Ok(start..(start + self.load_cap).min(r))
        } else {
            let d = j - noise_devices - 1;
            let start = r + d * self.load_cap;
            Ok(start..(start + self.load_cap).min(r + self.m))
        }
    }

    /// The full `(m+r) × (m+r)` coefficient matrix: `[[O | H], [E_m | G]]`.
    pub fn encoding_matrix(&self) -> Matrix<F> {
        let r = self.random_rows();
        let top = Matrix::zeros(r, self.m)
            .hstack(&self.noise_mixer)
            .expect("row counts agree");
        let bottom = Matrix::identity(self.m)
            .hstack(&self.data_coeffs)
            .expect("row counts agree");
        top.vstack(&bottom).expect("widths agree")
    }

    /// The coefficient block of device `j`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownDevice`] when `j` is out of range.
    pub fn device_block(&self, j: usize) -> Result<Matrix<F>> {
        let range = self.device_rows(j)?;
        Ok(self.encoding_matrix().row_block(range.start, range.end)?)
    }

    /// Whether a specific coalition (1-based device indices) learns
    /// nothing: `dim(L(stacked blocks) ∩ L(λ̄)) = 0`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownDevice`] for an out-of-range member.
    pub fn resists_coalition(&self, coalition: &[usize]) -> Result<bool> {
        let mut stacked: Option<Matrix<F>> = None;
        for &j in coalition {
            let block = self.device_block(j)?;
            stacked = Some(match stacked {
                None => block,
                Some(acc) => acc.vstack(&block)?,
            });
        }
        let Some(stacked) = stacked else {
            return Ok(true); // empty coalition sees nothing
        };
        let lambda = span::data_span_basis::<F>(self.m, self.random_rows());
        Ok(span::intersection_dim(&stacked, &lambda) == 0)
    }

    /// Exhaustively verifies `t`-privacy over **all** coalitions of size
    /// up to `t`. Combinatorial — intended for tests and small fleets;
    /// production deployments rely on the rank argument plus spot checks.
    ///
    /// # Errors
    ///
    /// Propagates [`TPrivateCode::resists_coalition`] failures.
    pub fn verify_t_privacy(&self) -> Result<bool> {
        let n = self.device_count();
        let mut coalition = Vec::new();
        self.check_coalitions(1, n, &mut coalition)
    }

    fn check_coalitions(&self, from: usize, n: usize, coalition: &mut Vec<usize>) -> Result<bool> {
        if coalition.len() == self.t {
            return self.resists_coalition(coalition);
        }
        for j in from..=n {
            coalition.push(j);
            if !self.check_coalitions(j + 1, n, coalition)? {
                coalition.pop();
                return Ok(false);
            }
            coalition.pop();
        }
        // Padding with fewer than t members is implied by monotonicity:
        // a subset of a resisting coalition resists.
        Ok(true)
    }

    /// Encodes the data matrix into per-device shares.
    ///
    /// # Errors
    ///
    /// Returns [`Error::PayloadShape`] when `a` is not `m × l`.
    pub fn encode<R: Rng + ?Sized>(&self, a: &Matrix<F>, rng: &mut R) -> Result<TPrivateStore<F>> {
        let randomness = Matrix::<F>::random(self.random_rows(), a.ncols(), rng);
        self.encode_with_randomness(a, &randomness)
    }

    /// Deterministic encoding with caller-supplied randomness.
    ///
    /// # Errors
    ///
    /// Returns [`Error::PayloadShape`] on any shape mismatch.
    pub fn encode_with_randomness(
        &self,
        a: &Matrix<F>,
        randomness: &Matrix<F>,
    ) -> Result<TPrivateStore<F>> {
        if a.nrows() != self.m || a.ncols() == 0 {
            return Err(Error::PayloadShape {
                what: "data matrix",
                expected: (self.m, a.ncols().max(1)),
                got: a.shape(),
            });
        }
        if randomness.shape() != (self.random_rows(), a.ncols()) {
            return Err(Error::PayloadShape {
                what: "randomness block",
                expected: (self.random_rows(), a.ncols()),
                got: randomness.shape(),
            });
        }
        // Payload: noise rows H·R, then data rows A + G·R.
        let noise_payload = self.noise_mixer.matmul(randomness)?;
        let data_payload = a.add(&self.data_coeffs.matmul(randomness)?)?;
        let full = noise_payload.vstack(&data_payload)?;
        let shares = (1..=self.device_count())
            .map(|j| {
                let range = self.device_rows(j)?;
                Ok(TPrivateShare {
                    device: j,
                    first_row: range.start,
                    coded: full.row_block(range.start, range.end)?,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(TPrivateStore {
            code: self.clone(),
            shares,
        })
    }

    /// Decodes `y = Ax` from the stacked intermediate results: solve
    /// `H·(Rx) = W_noise`, then `y_p = W_data[p] − g_p·(Rx)`.
    ///
    /// # Errors
    ///
    /// * [`Error::PayloadShape`] when `btx.len() != m + r`;
    /// * [`Error::Linalg`] when the noise mixer solve fails (impossible
    ///   for a constructed code).
    pub fn decode(&self, btx: &Vector<F>) -> Result<Vector<F>> {
        let r = self.random_rows();
        if btx.len() != self.total_rows() {
            return Err(Error::PayloadShape {
                what: "stacked intermediate results",
                expected: (self.total_rows(), 1),
                got: (btx.len(), 1),
            });
        }
        let w_noise = btx.slice(0, r)?;
        let rx = self.mixer_lu.solve(&w_noise)?;
        let vals = btx.as_slice();
        let rx_vals = rx.as_slice();
        let mut y = Vec::with_capacity(self.m);
        for p in 0..self.m {
            // Fused dot over the coefficient row: no per-row allocation,
            // lazy reduction over Fp61.
            let correction = F::dot_slices(self.data_coeffs.row(p), rx_vals);
            y.push(vals[r + p].sub(correction));
        }
        Ok(Vector::from_vec(y))
    }

    /// Batched decode: recovers the `m × k` answer panel `Y = A X` from
    /// the stacked intermediate result panel `B T X` (one column per
    /// query).
    ///
    /// One multi-RHS mixer solve recovers `R X`, one matmul forms all the
    /// `G·(RX)` corrections, and one subtraction sweep finishes — versus
    /// `k` solves and `m·k` scalar dots on the per-query path. Column `j`
    /// is bit-identical to [`decode`](Self::decode) of column `j`: the
    /// panel solve and the matmul both replay the per-query operation
    /// sequence exactly.
    ///
    /// # Errors
    ///
    /// * [`Error::PayloadShape`] when `btx` does not have `m + r` rows;
    /// * [`Error::Linalg`] when the noise mixer solve fails (impossible
    ///   for a constructed code).
    pub fn decode_panel(&self, btx: &Matrix<F>) -> Result<Matrix<F>> {
        let r = self.random_rows();
        if btx.nrows() != self.total_rows() {
            return Err(Error::PayloadShape {
                what: "stacked intermediate result panel",
                expected: (self.total_rows(), btx.ncols()),
                got: btx.shape(),
            });
        }
        let k = btx.ncols();
        let w_noise = btx.row_block(0, r)?;
        let rx = self.mixer_lu.solve_matrix(&w_noise)?;
        let correction = self.data_coeffs.matmul(&rx)?;
        let mut flat = Vec::with_capacity(self.m * k);
        for p in 0..self.m {
            flat.extend(
                btx.row(r + p)
                    .iter()
                    .zip(correction.row(p))
                    .map(|(&d, &c)| d.sub(c)),
            );
        }
        Ok(Matrix::from_flat(self.m, k, flat)?)
    }
}

/// One device's share under a [`TPrivateCode`].
#[derive(Clone, PartialEq)]
pub struct TPrivateShare<F> {
    device: usize,
    first_row: usize,
    coded: Matrix<F>,
}

impl<F: Scalar> std::fmt::Debug for TPrivateShare<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TPrivateShare")
            .field("device", &self.device)
            .field("first_row", &self.first_row)
            .field("coded", &self.coded)
            .finish()
    }
}

impl<F: Scalar> TPrivateShare<F> {
    /// The 1-based device index.
    pub fn device(&self) -> usize {
        self.device
    }

    /// Index of this share's first row in the stacked payload.
    pub fn first_row(&self) -> usize {
        self.first_row
    }

    /// The coded payload.
    pub fn coded(&self) -> &Matrix<F> {
        &self.coded
    }

    /// Device-side computation `B_j T · x`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::PayloadShape`] when `x` has the wrong length.
    pub fn compute(&self, x: &Vector<F>) -> Result<Vector<F>> {
        if x.len() != self.coded.ncols() {
            return Err(Error::PayloadShape {
                what: "input vector",
                expected: (self.coded.ncols(), 1),
                got: (x.len(), 1),
            });
        }
        Ok(self.coded.matvec(x)?)
    }

    /// Device-side *panel* computation `B_j T · X`: one matmul serving `k`
    /// queries, column `j` bit-identical to [`compute`](Self::compute) of
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

/// All shares of one `t`-privately encoded data matrix.
#[derive(Clone)]
pub struct TPrivateStore<F> {
    code: TPrivateCode<F>,
    shares: Vec<TPrivateShare<F>>,
}

impl<F: Scalar> std::fmt::Debug for TPrivateStore<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TPrivateStore")
            .field("code", &self.code)
            .field("shares", &self.shares)
            .finish()
    }
}

impl<F: Scalar> TPrivateStore<F> {
    /// The code this store was encoded under.
    pub fn code(&self) -> &TPrivateCode<F> {
        &self.code
    }

    /// Per-device shares, device 1 first.
    pub fn shares(&self) -> &[TPrivateShare<F>] {
        &self.shares
    }

    /// Consumes the store, returning each share in the plain container a
    /// device installs: devices are code-agnostic — they multiply
    /// whatever share they hold — so a `t`-private payload ships as a
    /// [`DeviceShare`].
    pub fn into_shares(self) -> Vec<DeviceShare<F>> {
        let plain = |s: TPrivateShare<F>| DeviceShare::from_parts(s.device, s.first_row, s.coded);
        self.shares.into_iter().map(plain).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use scec_linalg::Fp61;

    fn setup(
        m: usize,
        t: usize,
        v: usize,
        l: usize,
        seed: u64,
    ) -> (
        TPrivateCode<Fp61>,
        Matrix<Fp61>,
        Vector<Fp61>,
        TPrivateStore<Fp61>,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let code = TPrivateCode::<Fp61>::new(m, t, v, &mut rng).unwrap();
        let a = Matrix::<Fp61>::random(m, l, &mut rng);
        let x = Vector::<Fp61>::random(l, &mut rng);
        let store = code.encode(&a, &mut rng).unwrap();
        (code, a, x, store)
    }

    #[test]
    fn encode_compute_decode_roundtrip() {
        for (m, t, v, l) in [
            (6usize, 2usize, 2usize, 3usize),
            (5, 3, 2, 4),
            (8, 1, 3, 2),
            (1, 2, 1, 5),
        ] {
            let (code, a, x, store) = setup(m, t, v, l, 1);
            let mut btx = Vec::new();
            for share in store.shares() {
                btx.extend(share.compute(&x).unwrap().into_vec());
            }
            let y = code.decode(&Vector::from_vec(btx)).unwrap();
            assert_eq!(y, a.matvec(&x).unwrap(), "m={m} t={t} v={v}");
        }
    }

    #[test]
    fn panel_decode_matches_per_query() {
        let (code, a, _x, store) = setup(6, 2, 2, 3, 29);
        let mut rng = StdRng::seed_from_u64(30);
        for k in [1usize, 5] {
            let xs = Matrix::<Fp61>::random(3, k, &mut rng);
            let parts: Vec<Matrix<Fp61>> = store
                .shares()
                .iter()
                .map(|s| s.compute_panel(&xs).unwrap())
                .collect();
            let btx = crate::decode::stack_partial_matrices(&parts).unwrap();
            let y = code.decode_panel(&btx).unwrap();
            assert_eq!(y, a.matmul(&xs).unwrap(), "k={k}");
            for j in 0..k {
                assert_eq!(y.col(j), code.decode(&btx.col(j)).unwrap(), "column {j}");
            }
        }
    }

    #[test]
    fn panel_decode_validates_shape() {
        let (code, _a, _x, _store) = setup(5, 2, 2, 3, 33);
        let wrong = Matrix::<Fp61>::zeros(code.total_rows() - 1, 2);
        assert!(matches!(
            code.decode_panel(&wrong),
            Err(Error::PayloadShape { .. })
        ));
    }

    #[test]
    fn t_privacy_holds_exhaustively() {
        let (code, _a, _x, _store) = setup(6, 2, 2, 3, 2);
        assert!(code.verify_t_privacy().unwrap());
    }

    #[test]
    fn coalitions_larger_than_t_break() {
        // By dimension counting a coalition holding more than r rows MUST
        // leak: its block spans > r dims, the noise space has only r.
        let (code, _a, _x, _store) = setup(6, 2, 2, 3, 3);
        let noise_devs = code.random_rows().div_ceil(code.load_cap());
        // Take t+1 = 3 data devices (their combined 6 rows exceed r = 4).
        let coalition: Vec<usize> = (noise_devs + 1..=noise_devs + 3).collect();
        assert!(!code.resists_coalition(&coalition).unwrap());
    }

    #[test]
    fn structured_design_breaks_under_collusion_but_tprivate_survives() {
        // The paper's structured design: device 1 (pure randomness) plus
        // device 2 (data + randomness) cancel each other.
        use crate::design::CodeDesign;
        let design = CodeDesign::new(6, 2).unwrap();
        let b = design.encoding_matrix::<Fp61>();
        let lambda = span::data_span_basis::<Fp61>(6, 2);
        let r1 = design.device_row_range(1).unwrap();
        let r2 = design.device_row_range(2).unwrap();
        let coalition_block = b
            .row_block(r1.start, r1.end)
            .unwrap()
            .vstack(&b.row_block(r2.start, r2.end).unwrap())
            .unwrap();
        assert!(span::intersection_dim(&coalition_block, &lambda) > 0);

        // The 2-private code with the same scale resists every pair.
        let (code, _a, _x, _store) = setup(6, 2, 2, 3, 4);
        assert!(code.verify_t_privacy().unwrap());
    }

    #[test]
    fn device_partition_is_complete_and_capped() {
        let (code, _a, _x, _store) = setup(7, 2, 3, 2, 5);
        let mut seen = std::collections::HashSet::new();
        for j in 1..=code.device_count() {
            let rows = code.device_rows(j).unwrap();
            assert!(rows.len() <= code.load_cap(), "device {j}");
            assert!(!rows.is_empty(), "device {j} got nothing");
            for row in rows {
                assert!(seen.insert(row));
            }
        }
        assert_eq!(seen.len(), code.total_rows());
        assert!(code.device_rows(0).is_err());
        assert!(code.device_rows(code.device_count() + 1).is_err());
    }

    #[test]
    fn encoding_matrix_is_full_rank() {
        let (code, _a, _x, _store) = setup(5, 2, 2, 3, 6);
        assert_eq!(code.encoding_matrix().rank(), code.total_rows());
    }

    #[test]
    fn validation_errors() {
        let mut rng = StdRng::seed_from_u64(7);
        assert!(TPrivateCode::<Fp61>::new(0, 1, 1, &mut rng).is_err());
        assert!(TPrivateCode::<Fp61>::new(5, 0, 1, &mut rng).is_err());
        assert!(TPrivateCode::<Fp61>::new(5, 1, 0, &mut rng).is_err());
        let (code, a, _x, _store) = setup(4, 2, 2, 3, 8);
        let wrong = a.row_block(0, 3).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        assert!(code.encode(&wrong, &mut rng).is_err());
        let bad_btx = Vector::<Fp61>::zeros(3);
        assert!(code.decode(&bad_btx).is_err());
    }

    #[test]
    fn share_metadata() {
        let (code, _a, x, store) = setup(5, 2, 2, 3, 10);
        assert_eq!(store.shares().len(), code.device_count());
        let mut next = 0;
        for share in store.shares() {
            assert_eq!(share.first_row(), next);
            next += share.coded().nrows();
            assert!(share.compute(&x).is_ok());
            let bad = Vector::<Fp61>::zeros(9);
            assert!(share.compute(&bad).is_err());
        }
        assert_eq!(next, code.total_rows());
        assert_eq!(store.code().threshold(), 2);
    }

    #[test]
    fn empty_coalition_trivially_resists() {
        let (code, _a, _x, _store) = setup(4, 2, 2, 3, 11);
        assert!(code.resists_coalition(&[]).unwrap());
        assert!(code.resists_coalition(&[99]).is_err());
    }

    #[test]
    fn works_over_f64() {
        let mut rng = StdRng::seed_from_u64(12);
        let code = TPrivateCode::<f64>::new(5, 2, 2, &mut rng).unwrap();
        let a = Matrix::<f64>::random(5, 3, &mut rng);
        let x = Vector::<f64>::random(3, &mut rng);
        let store = code.encode(&a, &mut rng).unwrap();
        let mut btx = Vec::new();
        for share in store.shares() {
            btx.extend(share.compute(&x).unwrap().into_vec());
        }
        let y = code.decode(&Vector::from_vec(btx)).unwrap();
        let want = a.matvec(&x).unwrap();
        for p in 0..5 {
            assert!((y.at(p) - want.at(p)).abs() < 1e-6);
        }
    }
}

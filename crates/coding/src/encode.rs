//! Encoding: turning the data matrix into per-device coded shares.
//!
//! The cloud computes `B_j T` for every device, where `T = [A; R]` stacks
//! the data rows on top of the random rows. Because `B` is the structured
//! 0/1 matrix of Eq. (8), the product never needs a dense matmul:
//!
//! * device 1's share **is** the random block `R`;
//! * every other coded row is `A_p + R_{p mod r}` — one vector addition.
//!
//! [`Encoder::encode`] uses this fast path; tests cross-check it against
//! the dense `B_j · T` product.

use rand::Rng;

use scec_linalg::{kernels, Matrix, Scalar, Vector};

use crate::design::CodeDesign;
use crate::error::{Error, Result};

/// Builds coded shares from a data matrix according to a [`CodeDesign`].
///
/// See the [crate-level example](crate) for the full pipeline.
#[derive(Debug, Clone)]
pub struct Encoder {
    design: CodeDesign,
}

impl Encoder {
    /// Creates an encoder for a design.
    pub fn new(design: CodeDesign) -> Self {
        Encoder { design }
    }

    /// The underlying design.
    pub fn design(&self) -> &CodeDesign {
        &self.design
    }

    /// Encodes `a`, drawing the `r` random rows from `rng`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::PayloadShape`] when `a` does not have exactly `m`
    /// rows (any positive width is accepted).
    pub fn encode<F: Scalar, R: Rng + ?Sized>(
        &self,
        a: &Matrix<F>,
        rng: &mut R,
    ) -> Result<EncodedStore<F>> {
        let randomness = Matrix::random(self.design.random_rows(), a.ncols(), rng);
        self.blind(a, randomness)
    }

    /// Encodes `a` with caller-supplied randomness (deterministic; used by
    /// tests and by the simulator's reproducible runs).
    ///
    /// # Errors
    ///
    /// Returns [`Error::PayloadShape`] when `a` has the wrong number of
    /// rows or `randomness` is not `r × l`.
    pub fn encode_with_randomness<F: Scalar>(
        &self,
        a: &Matrix<F>,
        randomness: &Matrix<F>,
    ) -> Result<EncodedStore<F>> {
        self.blind(a, randomness.clone())
    }

    /// The encode both entry points end in. Device 1's share *is* `R`,
    /// so it takes the block itself; a caller that drew `R` hands it
    /// over, one that keeps it passes its copy.
    pub(crate) fn blind<F: Scalar>(
        &self,
        a: &Matrix<F>,
        randomness: Matrix<F>,
    ) -> Result<EncodedStore<F>> {
        let (m, r) = (self.design.data_rows(), self.design.random_rows());
        if a.nrows() != m || a.ncols() == 0 {
            return Err(Error::PayloadShape {
                what: "data matrix",
                expected: (m, a.ncols().max(1)),
                got: a.shape(),
            });
        }
        if randomness.shape() != (r, a.ncols()) {
            return Err(Error::PayloadShape {
                what: "randomness block",
                expected: (r, a.ncols()),
                got: randomness.shape(),
            });
        }
        // Fan the per-device share construction out across threads: each
        // device's block is independent, so the store assembles in device
        // order regardless of which thread built which share. Every row
        // past device 1's is a data row plus a random one.
        let ncols = a.ncols();
        let threads = kernels::threads_for(self.design.total_rows() * ncols);
        let blinded = kernels::par_map_collect(self.design.device_count() - 1, threads, |idx| {
            let j = idx + 2;
            let range = self.design.device_row_range(j).expect("j in range");
            let mut flat = Vec::with_capacity(range.len() * ncols);
            for p in range.start - r..range.end - r {
                flat.extend(
                    a.row(p)
                        .iter()
                        .zip(randomness.row(p % r))
                        .map(|(&d, &n)| d.add(n)),
                );
            }
            DeviceShare {
                device: j,
                first_row: range.start,
                coded: Matrix::from_flat(range.len(), ncols, flat).expect("rows are uniform width"),
            }
        });
        let mut shares = Vec::with_capacity(blinded.len() + 1);
        shares.push(DeviceShare {
            device: 1,
            first_row: 0,
            coded: randomness,
        });
        shares.extend(blinded);
        Ok(EncodedStore {
            design: self.design.clone(),
            shares,
        })
    }
}

/// The coded block `B_j T` destined for one edge device.
#[derive(Clone, PartialEq)]
pub struct DeviceShare<F> {
    pub(crate) device: usize,
    first_row: usize,
    pub(crate) coded: Matrix<F>,
}

impl<F: Scalar> DeviceShare<F> {
    /// Reassembles a share from its parts — the deserialization path for
    /// shares shipped over the wire (`scec-wire`). Invariants (device
    /// index vs row range) are the deployment's responsibility; a share
    /// built here computes exactly what its payload encodes.
    pub fn from_parts(device: usize, first_row: usize, coded: Matrix<F>) -> Self {
        DeviceShare {
            device,
            first_row,
            coded,
        }
    }

    /// The 1-based device index `j`.
    pub fn device(&self) -> usize {
        self.device
    }

    /// The index of this share's first row within the stacked `m + r`
    /// coded rows (used to reassemble `B T x` in order).
    pub fn first_row(&self) -> usize {
        self.first_row
    }

    /// The coded payload `B_j T` (each row is one coded vector).
    pub fn coded(&self) -> &Matrix<F> {
        &self.coded
    }

    /// Number of coded rows on this device (`V(B_j)`).
    pub fn load(&self) -> usize {
        self.coded.nrows()
    }

    /// The device-side computation: `B_j T · x`.
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
}

impl<F: Scalar> std::fmt::Debug for DeviceShare<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceShare")
            .field("device", &self.device)
            .field("first_row", &self.first_row)
            .field("coded", &self.coded)
            .finish()
    }
}

/// All shares of one encoded data matrix, in device order.
#[derive(Clone)]
pub struct EncodedStore<F> {
    design: CodeDesign,
    shares: Vec<DeviceShare<F>>,
}

impl<F: Scalar> std::fmt::Debug for EncodedStore<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EncodedStore")
            .field("design", &self.design)
            .field("shares", &self.shares)
            .finish()
    }
}

impl<F: Scalar> EncodedStore<F> {
    /// The design this store was encoded under.
    pub fn design(&self) -> &CodeDesign {
        &self.design
    }

    /// The per-device shares, device 1 first.
    pub fn shares(&self) -> &[DeviceShare<F>] {
        &self.shares
    }

    /// The share of a specific device (1-based).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownDevice`] when `j` is outside `1..=i`.
    pub fn share(&self, j: usize) -> Result<&DeviceShare<F>> {
        self.shares
            .get(j.wrapping_sub(1))
            .ok_or(Error::UnknownDevice {
                device: j,
                devices: self.shares.len(),
            })
    }

    /// Consumes the store, returning the shares.
    pub fn into_shares(self) -> Vec<DeviceShare<F>> {
        self.shares
    }

    /// Reassembles the full coded matrix `B T` by stacking shares — the
    /// dense reference object used by tests and the verifier.
    pub fn stacked(&self) -> Matrix<F> {
        let mut it = self.shares.iter();
        let first = it.next().expect("at least two devices").coded().clone();
        it.fold(first, |acc, s| {
            acc.vstack(s.coded()).expect("uniform widths")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use scec_linalg::Fp61;

    fn setup(m: usize, r: usize, l: usize, seed: u64) -> (CodeDesign, Matrix<f64>, Matrix<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let design = CodeDesign::new(m, r).unwrap();
        let a = Matrix::<f64>::random(m, l, &mut rng);
        let randomness = Matrix::<f64>::random(r, l, &mut rng);
        (design, a, randomness)
    }

    #[test]
    fn fast_encoding_matches_dense_bt() {
        for (m, r, l) in [
            (4usize, 2usize, 3usize),
            (5, 2, 4),
            (7, 3, 2),
            (3, 3, 5),
            (6, 1, 2),
        ] {
            let (design, a, randomness) = setup(m, r, l, 42);
            let store = Encoder::new(design.clone())
                .encode_with_randomness(&a, &randomness)
                .unwrap();
            let t = a.vstack(&randomness).unwrap();
            let dense = design.encoding_matrix::<f64>().matmul(&t).unwrap();
            assert_eq!(store.stacked(), dense, "m={m} r={r} l={l}");
        }
    }

    #[test]
    fn share_metadata_is_consistent() {
        let (design, a, randomness) = setup(5, 2, 3, 1);
        let store = Encoder::new(design.clone())
            .encode_with_randomness(&a, &randomness)
            .unwrap();
        assert_eq!(store.shares().len(), design.device_count());
        let mut expected_start = 0;
        for (idx, share) in store.shares().iter().enumerate() {
            assert_eq!(share.device(), idx + 1);
            assert_eq!(share.first_row(), expected_start);
            assert_eq!(share.load(), design.device_load(idx + 1).unwrap());
            expected_start += share.load();
        }
        assert_eq!(expected_start, design.total_rows());
        assert!(store.share(1).is_ok());
        assert!(matches!(store.share(0), Err(Error::UnknownDevice { .. })));
        assert!(matches!(store.share(9), Err(Error::UnknownDevice { .. })));
    }

    #[test]
    fn device_one_holds_pure_randomness() {
        let (design, a, randomness) = setup(5, 2, 3, 2);
        let store = Encoder::new(design)
            .encode_with_randomness(&a, &randomness)
            .unwrap();
        assert_eq!(store.share(1).unwrap().coded(), &randomness);
    }

    #[test]
    fn encode_is_encode_with_the_randomness_the_seed_draws() {
        for (m, r, l) in [(4usize, 2usize, 3usize), (7, 3, 2), (3, 3, 5), (6, 1, 2)] {
            let design = CodeDesign::new(m, r).unwrap();
            let a = Matrix::<Fp61>::random(m, l, &mut StdRng::seed_from_u64(8));
            let drawn = Encoder::new(design.clone())
                .encode(&a, &mut StdRng::seed_from_u64(9))
                .unwrap();
            let randomness = Matrix::<Fp61>::random(r, l, &mut StdRng::seed_from_u64(9));
            let given = Encoder::new(design)
                .encode_with_randomness(&a, &randomness)
                .unwrap();
            assert_eq!(drawn.shares(), given.shares(), "m={m} r={r} l={l}");
        }
    }

    #[test]
    fn device_one_is_handed_the_randomness_itself() {
        let (design, a, randomness) = setup(5, 2, 3, 6);
        let drawn = randomness.as_flat().as_ptr();
        let store = Encoder::new(design).blind(&a, randomness).unwrap();
        assert_eq!(store.share(1).unwrap().coded().as_flat().as_ptr(), drawn);
    }

    #[test]
    fn compute_is_matvec_of_share() {
        let (design, a, randomness) = setup(4, 2, 3, 3);
        let mut rng = StdRng::seed_from_u64(9);
        let x = Vector::<f64>::random(3, &mut rng);
        let store = Encoder::new(design)
            .encode_with_randomness(&a, &randomness)
            .unwrap();
        for share in store.shares() {
            let got = share.compute(&x).unwrap();
            let want = share.coded().matvec(&x).unwrap();
            assert_eq!(got, want);
        }
        let wrong = Vector::<f64>::zeros(5);
        assert!(matches!(
            store.shares()[0].compute(&wrong),
            Err(Error::PayloadShape { .. })
        ));
    }

    #[test]
    fn shape_validation() {
        let (design, a, randomness) = setup(4, 2, 3, 4);
        let enc = Encoder::new(design);
        let wrong_rows = a.row_block(0, 3).unwrap();
        assert!(matches!(
            enc.encode_with_randomness(&wrong_rows, &randomness),
            Err(Error::PayloadShape { .. })
        ));
        let wrong_rand = randomness.row_block(0, 1).unwrap();
        assert!(matches!(
            enc.encode_with_randomness(&a, &wrong_rand),
            Err(Error::PayloadShape { .. })
        ));
    }

    #[test]
    fn encode_with_rng_roundtrips_over_fp() {
        let mut rng = StdRng::seed_from_u64(5);
        let design = CodeDesign::new(6, 3).unwrap();
        let a = Matrix::<Fp61>::random(6, 4, &mut rng);
        let store = Encoder::new(design.clone()).encode(&a, &mut rng).unwrap();
        // Stacked coded matrix must equal B [A; R] for SOME R; verify the
        // data part: subtracting the mixed random rows recovers A exactly.
        let randomness = store.share(1).unwrap().coded().clone();
        let stacked = store.stacked();
        for p in 0..design.data_rows() {
            let coded_row = stacked.row(design.random_rows() + p);
            let rand_row = randomness.row(p % design.random_rows());
            for (c, (&cv, &rv)) in coded_row.iter().zip(rand_row).enumerate() {
                assert_eq!(cv - rv, a.at(p, c));
            }
        }
    }
}

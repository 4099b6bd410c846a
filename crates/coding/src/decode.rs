//! Decoding: recovering `Ax` from the stacked intermediate results.
//!
//! Two decoders are provided:
//!
//! * [`decode_fast`] — the paper's headline O(m) decoder. Because coded
//!   row `r + p` equals `A_p + R_{p mod r}` and the first `r` results are
//!   exactly the `R_t · x` values, each output needs **one subtraction**:
//!   `(Ax)_p = (BTx)_{r+p} − (BTx)_{p mod r}` (Sec. IV-B).
//! * [`decode_general`] — the generic Gaussian-elimination path that works
//!   for *any* full-rank encoding matrix, at O((m+r)³) cost. This is both
//!   the paper's fallback (Sec. II-A) and the baseline of the decoding
//!   ablation (A1 in `DESIGN.md`).

use scec_linalg::{gauss, Matrix, Scalar, Vector};

use crate::design::CodeDesign;
use crate::error::{Error, Result};

/// Stacks per-device partial results (in device order) into the full
/// `B T x` vector expected by the decoders.
pub fn stack_partials<F: Scalar>(partials: &[Vector<F>]) -> Vector<F> {
    let mut out = Vec::new();
    for p in partials {
        out.extend_from_slice(p.as_slice());
    }
    Vector::from_vec(out)
}

/// Recovers `y = Ax` from `B T x` with `m` subtractions (Sec. IV-B).
///
/// # Example
///
/// ```
/// use scec_coding::{decode, design::CodeDesign, encode::Encoder};
/// use scec_linalg::{Fp61, Matrix, Vector};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let design = CodeDesign::new(3, 2)?;
/// let a = Matrix::<Fp61>::random(3, 4, &mut rng);
/// let x = Vector::<Fp61>::random(4, &mut rng);
/// let store = Encoder::new(design.clone()).encode(&a, &mut rng)?;
/// let partials: Vec<_> = store.shares().iter().map(|s| s.compute(&x).unwrap()).collect();
/// let y = decode::decode_fast(&design, &decode::stack_partials(&partials))?;
/// assert_eq!(y, a.matvec(&x).unwrap());
/// # Ok::<(), scec_coding::Error>(())
/// ```
///
/// # Errors
///
/// Returns [`Error::PayloadShape`] when `btx.len() != m + r`.
pub fn decode_fast<F: Scalar>(design: &CodeDesign, btx: &Vector<F>) -> Result<Vector<F>> {
    let (m, r) = (design.data_rows(), design.random_rows());
    if btx.len() != m + r {
        return Err(Error::PayloadShape {
            what: "stacked intermediate results",
            expected: (m + r, 1),
            got: (btx.len(), 1),
        });
    }
    let vals = btx.as_slice();
    // One field subtraction per data row — telemetry prices these as adds.
    scec_linalg::ops::record_adds(m as u64);
    let mut y = Vec::with_capacity(m);
    for p in 0..m {
        y.push(vals[r + p].sub(vals[p % r]));
    }
    Ok(Vector::from_vec(y))
}

/// Recovers `y = Ax` from `B T x` for an **arbitrary** full-rank encoding
/// matrix `b` by solving `B z = BTx` and taking the first `m` entries of
/// `z = T x`.
///
/// # Errors
///
/// * [`Error::PayloadShape`] when `b` is not `(m+r) × (m+r)` or `btx` has
///   the wrong length;
/// * [`Error::Linalg`] (singular) when `b` is not full rank — i.e. the
///   availability condition fails.
pub fn decode_general<F: Scalar>(
    design: &CodeDesign,
    b: &Matrix<F>,
    btx: &Vector<F>,
) -> Result<Vector<F>> {
    let n = design.total_rows();
    if b.shape() != (n, n) {
        return Err(Error::PayloadShape {
            what: "encoding matrix",
            expected: (n, n),
            got: b.shape(),
        });
    }
    if btx.len() != n {
        return Err(Error::PayloadShape {
            what: "stacked intermediate results",
            expected: (n, 1),
            got: (btx.len(), 1),
        });
    }
    let tx = gauss::solve(b, btx)?;
    Ok(tx.slice(0, design.data_rows())?)
}

/// Stacks per-device partial result *matrices* (for batched queries) into
/// the full `B T X` matrix expected by [`decode_fast_batch`].
///
/// # Errors
///
/// Returns [`Error::PayloadShape`] when partial widths disagree.
pub fn stack_partial_matrices<F: Scalar>(partials: &[Matrix<F>]) -> Result<Matrix<F>> {
    let first = partials.first().ok_or(Error::PayloadShape {
        what: "partial result set",
        expected: (1, 1),
        got: (0, 0),
    })?;
    let cols = first.ncols();
    let total_rows: usize = partials.iter().map(Matrix::nrows).sum();
    // Single allocation instead of a fresh copy per vstack.
    let mut flat = Vec::with_capacity(total_rows * cols);
    for p in partials {
        if p.ncols() != cols {
            return Err(Error::PayloadShape {
                what: "partial result set",
                expected: (p.nrows(), cols),
                got: p.shape(),
            });
        }
        flat.extend_from_slice(p.as_flat());
    }
    Ok(Matrix::from_flat(total_rows, cols, flat)?)
}

/// Batched decoding: recovers `Y = A·X` (one column per query) from
/// `B T X` with `m · n` subtractions, where `n` is the batch width.
///
/// The paper's Sec. II-A notes the scheme "can also be applied to …
/// multiplication of two matrices and/or multiplication of a data matrix
/// with different input vectors" — this is that path.
///
/// # Errors
///
/// Returns [`Error::PayloadShape`] when `btx` does not have `m + r` rows.
pub fn decode_fast_batch<F: Scalar>(design: &CodeDesign, btx: &Matrix<F>) -> Result<Matrix<F>> {
    let (m, r) = (design.data_rows(), design.random_rows());
    if btx.nrows() != m + r {
        return Err(Error::PayloadShape {
            what: "stacked intermediate result matrix",
            expected: (m + r, btx.ncols()),
            got: btx.shape(),
        });
    }
    let n = btx.ncols();
    scec_linalg::ops::record_adds((m * n) as u64);
    // Build the flat output buffer row by row: one slice-wise subtraction
    // per output row, no per-element bounds checks.
    let mut flat = Vec::with_capacity(m * n);
    for p in 0..m {
        let data_row = btx.row(r + p);
        let noise_row = btx.row(p % r);
        flat.extend(data_row.iter().zip(noise_row).map(|(&d, &z)| d.sub(z)));
    }
    Ok(Matrix::from_flat(m, n, flat)?)
}

/// The number of scalar subtractions [`decode_fast`] performs — exposed so
/// the experiment harness can report decoding complexity alongside
/// wall-clock time.
pub fn fast_decode_op_count(design: &CodeDesign) -> usize {
    design.data_rows()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::Encoder;
    use rand::{rngs::StdRng, SeedableRng};
    use scec_linalg::Fp61;

    fn pipeline_f64(
        m: usize,
        r: usize,
        l: usize,
        seed: u64,
    ) -> (CodeDesign, Matrix<f64>, Vector<f64>, Vector<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let design = CodeDesign::new(m, r).unwrap();
        let a = Matrix::<f64>::random(m, l, &mut rng);
        let x = Vector::<f64>::random(l, &mut rng);
        let store = Encoder::new(design.clone()).encode(&a, &mut rng).unwrap();
        let partials: Vec<Vector<f64>> = store
            .shares()
            .iter()
            .map(|s| s.compute(&x).unwrap())
            .collect();
        (design, a, x, stack_partials(&partials))
    }

    #[test]
    fn fast_decode_recovers_ax_f64() {
        for (m, r, l) in [
            (4usize, 2usize, 3usize),
            (5, 2, 3),
            (7, 3, 6),
            (1, 1, 2),
            (10, 10, 4),
        ] {
            let (design, a, x, btx) = pipeline_f64(m, r, l, 7);
            let y = decode_fast(&design, &btx).unwrap();
            let want = a.matvec(&x).unwrap();
            for p in 0..m {
                assert!(
                    (y.at(p) - want.at(p)).abs() < 1e-9,
                    "m={m} r={r} p={p}: {} vs {}",
                    y.at(p),
                    want.at(p)
                );
            }
        }
    }

    #[test]
    fn fast_decode_recovers_ax_fp61_exactly() {
        let mut rng = StdRng::seed_from_u64(11);
        for (m, r, l) in [(4usize, 2usize, 3usize), (9, 4, 5), (6, 6, 2)] {
            let design = CodeDesign::new(m, r).unwrap();
            let a = Matrix::<Fp61>::random(m, l, &mut rng);
            let x = Vector::<Fp61>::random(l, &mut rng);
            let store = Encoder::new(design.clone()).encode(&a, &mut rng).unwrap();
            let partials: Vec<Vector<Fp61>> = store
                .shares()
                .iter()
                .map(|s| s.compute(&x).unwrap())
                .collect();
            let y = decode_fast(&design, &stack_partials(&partials)).unwrap();
            assert_eq!(y, a.matvec(&x).unwrap(), "m={m} r={r}");
        }
    }

    #[test]
    fn general_decode_agrees_with_fast() {
        let (design, a, x, btx) = pipeline_f64(6, 2, 4, 13);
        let b = design.encoding_matrix::<f64>();
        let via_general = decode_general(&design, &b, &btx).unwrap();
        let via_fast = decode_fast(&design, &btx).unwrap();
        let want = a.matvec(&x).unwrap();
        for p in 0..6 {
            assert!((via_general.at(p) - want.at(p)).abs() < 1e-9);
            assert!((via_general.at(p) - via_fast.at(p)).abs() < 1e-9);
        }
    }

    #[test]
    fn general_decode_works_for_dense_full_rank_b() {
        // Mix each device block with a random invertible matrix: spans are
        // preserved (so security still holds) but the fast decoder no
        // longer applies — only decode_general can untangle it.
        let mut rng = StdRng::seed_from_u64(17);
        let design = CodeDesign::new(5, 2).unwrap();
        let a = Matrix::<Fp61>::random(5, 3, &mut rng);
        let x = Vector::<Fp61>::random(3, &mut rng);
        let t = {
            let randomness = Matrix::<Fp61>::random(2, 3, &mut rng);
            a.vstack(&randomness).unwrap()
        };
        let b = crate::verify::densify(&design, &mut rng);
        let btx = b.matmul(&t).unwrap().matvec(&x).unwrap();
        let y = decode_general(&design, &b, &btx).unwrap();
        assert_eq!(y, a.matvec(&x).unwrap());
    }

    #[test]
    fn decoders_validate_shapes() {
        let design = CodeDesign::new(4, 2).unwrap();
        let short = Vector::<f64>::zeros(3);
        assert!(matches!(
            decode_fast(&design, &short),
            Err(Error::PayloadShape { .. })
        ));
        let b = design.encoding_matrix::<f64>();
        assert!(matches!(
            decode_general(&design, &b, &short),
            Err(Error::PayloadShape { .. })
        ));
        let wrong_b = Matrix::<f64>::identity(3);
        assert!(matches!(
            decode_general(&design, &wrong_b, &Vector::zeros(6)),
            Err(Error::PayloadShape { .. })
        ));
    }

    #[test]
    fn general_decode_rejects_singular_b() {
        let design = CodeDesign::new(4, 2).unwrap();
        let singular = Matrix::<f64>::zeros(6, 6);
        let btx = Vector::<f64>::zeros(6);
        assert!(matches!(
            decode_general(&design, &singular, &btx),
            Err(Error::Linalg(_))
        ));
    }

    #[test]
    fn op_count_is_m() {
        let design = CodeDesign::new(123, 7).unwrap();
        assert_eq!(fast_decode_op_count(&design), 123);
    }

    #[test]
    fn batch_decode_recovers_ax_per_column() {
        let mut rng = StdRng::seed_from_u64(19);
        let design = CodeDesign::new(6, 2).unwrap();
        let a = Matrix::<Fp61>::random(6, 4, &mut rng);
        let xs = Matrix::<Fp61>::random(4, 5, &mut rng); // 5 queries
        let store = Encoder::new(design.clone()).encode(&a, &mut rng).unwrap();
        let partials: Vec<Matrix<Fp61>> = store
            .shares()
            .iter()
            .map(|s| s.coded().matmul(&xs).unwrap())
            .collect();
        let btx = stack_partial_matrices(&partials).unwrap();
        let y = decode_fast_batch(&design, &btx).unwrap();
        assert_eq!(y, a.matmul(&xs).unwrap());
    }

    #[test]
    fn batch_decode_validates_shapes() {
        let design = CodeDesign::new(4, 2).unwrap();
        let wrong = Matrix::<Fp61>::zeros(5, 3);
        assert!(matches!(
            decode_fast_batch(&design, &wrong),
            Err(Error::PayloadShape { .. })
        ));
        assert!(matches!(
            stack_partial_matrices::<Fp61>(&[]),
            Err(Error::PayloadShape { .. })
        ));
        let a = Matrix::<Fp61>::zeros(2, 3);
        let b = Matrix::<Fp61>::zeros(2, 4);
        assert!(stack_partial_matrices(&[a.clone(), b]).is_err());
        assert_eq!(stack_partial_matrices(&[a.clone(), a]).unwrap().nrows(), 4);
    }

    #[test]
    fn batch_of_one_matches_vector_decode() {
        let mut rng = StdRng::seed_from_u64(23);
        let design = CodeDesign::new(5, 2).unwrap();
        let a = Matrix::<Fp61>::random(5, 3, &mut rng);
        let x = Vector::<Fp61>::random(3, &mut rng);
        let store = Encoder::new(design.clone()).encode(&a, &mut rng).unwrap();
        let partials_vec: Vec<Vector<Fp61>> = store
            .shares()
            .iter()
            .map(|s| s.compute(&x).unwrap())
            .collect();
        let via_vector = decode_fast(&design, &stack_partials(&partials_vec)).unwrap();
        let x_mat = x.clone().into_column_matrix();
        let partials_mat: Vec<Matrix<Fp61>> = store
            .shares()
            .iter()
            .map(|s| s.coded().matmul(&x_mat).unwrap())
            .collect();
        let via_batch =
            decode_fast_batch(&design, &stack_partial_matrices(&partials_mat).unwrap()).unwrap();
        assert_eq!(via_batch.col(0).as_slice(), via_vector.as_slice());
    }

    #[test]
    fn stack_partials_preserves_order() {
        let a = Vector::from_vec(vec![1.0, 2.0]);
        let b = Vector::from_vec(vec![3.0]);
        assert_eq!(stack_partials(&[a, b]).as_slice(), &[1.0, 2.0, 3.0]);
        assert_eq!(stack_partials::<f64>(&[]).len(), 0);
    }
}

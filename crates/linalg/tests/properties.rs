//! Property-based tests for the linear-algebra substrate.
//!
//! These check the algebraic laws the coding layer silently relies on:
//! field axioms for `Fp61`, rank semantics, and solve/invert roundtrips.

use rand::{rngs::StdRng, Rng};
use scec_linalg::{gauss, kernels, lu::Lu, span, sparse::CsrMatrix};
use scec_linalg::{Fp61, Matrix, Scalar, Vector};

#[path = "../../../tests/support/sweep.rs"]
mod sweep;
use sweep::sweep;

fn fp(rng: &mut StdRng) -> Fp61 {
    Fp61::new(rng.gen())
}

fn fp_vec(rng: &mut StdRng, len: usize) -> Vec<Fp61> {
    (0..len).map(|_| fp(rng)).collect()
}

fn fp_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix<Fp61> {
    Matrix::from_flat(rows, cols, fp_vec(rng, rows * cols)).unwrap()
}

#[test]
fn fp61_addition_is_commutative_associative() {
    sweep(256, |rng| {
        let (a, b, c) = (fp(rng), fp(rng), fp(rng));
        assert_eq!(a + b, b + a);
        assert_eq!((a + b) + c, a + (b + c));
    });
}

#[test]
fn fp61_multiplication_is_commutative_associative() {
    sweep(256, |rng| {
        let (a, b, c) = (fp(rng), fp(rng), fp(rng));
        assert_eq!(a * b, b * a);
        assert_eq!((a * b) * c, a * (b * c));
    });
}

#[test]
fn fp61_distributivity() {
    sweep(256, |rng| {
        let (a, b, c) = (fp(rng), fp(rng), fp(rng));
        assert_eq!(a * (b + c), a * b + a * c);
    });
}

#[test]
fn fp61_additive_inverse() {
    sweep(256, |rng| {
        let a = fp(rng);
        assert_eq!(a + (-a), Fp61::new(0));
        assert_eq!(Scalar::sub(a, a), Fp61::new(0));
    });
}

#[test]
fn fp61_multiplicative_inverse() {
    sweep(256, |rng| {
        let a = fp(rng);
        if !Scalar::is_zero(&a) {
            let inv = Scalar::inv(a).unwrap();
            assert_eq!(a * inv, Fp61::new(1));
        }
    });
}

#[test]
fn fp61_identities() {
    sweep(256, |rng| {
        let a = fp(rng);
        assert_eq!(a + Fp61::new(0), a);
        assert_eq!(a * Fp61::new(1), a);
        assert_eq!(a * Fp61::new(0), Fp61::new(0));
    });
}

#[test]
fn rank_is_bounded_and_transpose_invariant() {
    sweep(256, |rng| {
        let m = fp_matrix(rng, 4, 6);
        let r = m.rank();
        assert!(r <= 4);
        assert_eq!(r, m.transpose().rank());
    });
}

#[test]
fn rank_of_product_at_most_min() {
    sweep(256, |rng| {
        let (a, b) = (fp_matrix(rng, 3, 4), fp_matrix(rng, 4, 5));
        let p = a.matmul(&b).unwrap();
        assert!(p.rank() <= a.rank().min(b.rank()));
    });
}

#[test]
fn duplicating_rows_preserves_rank() {
    sweep(256, |rng| {
        let m = fp_matrix(rng, 3, 5);
        let doubled = m.vstack(&m).unwrap();
        assert_eq!(doubled.rank(), m.rank());
    });
}

#[test]
fn solve_recovers_planted_solution() {
    sweep(256, |rng| {
        let a = fp_matrix(rng, 5, 5);
        let x = Vector::from_vec(fp_vec(rng, 5));
        let b = a.matvec(&x).unwrap();
        match gauss::solve(&a, &b) {
            Ok(got) => {
                // Any solution must reproduce b; with full rank it is x itself.
                let back = a.matvec(&got).unwrap();
                assert_eq!(back, b);
                if a.rank() == 5 {
                    assert_eq!(got, x);
                }
            }
            Err(_) => assert!(a.rank() < 5),
        }
    });
}

#[test]
fn invert_roundtrips_when_full_rank() {
    sweep(256, |rng| {
        let a = fp_matrix(rng, 4, 4);
        match gauss::invert(&a) {
            Ok(inv) => {
                assert_eq!(a.matmul(&inv).unwrap(), Matrix::identity(4));
                assert_eq!(inv.matmul(&a).unwrap(), Matrix::identity(4));
            }
            Err(_) => assert!(a.rank() < 4),
        }
    });
}

#[test]
fn determinant_zero_iff_rank_deficient() {
    sweep(256, |rng| {
        let a = fp_matrix(rng, 4, 4);
        let det = gauss::determinant(&a).unwrap();
        assert_eq!(Scalar::is_zero(&det), a.rank() < 4);
    });
}

#[test]
fn span_dimension_formula_consistency() {
    sweep(256, |rng| {
        let (a, b) = (fp_matrix(rng, 3, 6), fp_matrix(rng, 3, 6));
        let da = span::dim(&a);
        let db = span::dim(&b);
        let ds = span::sum_dim(&a, &b);
        let di = span::intersection_dim(&a, &b);
        // Grassmann identity and bounds.
        assert_eq!(da + db, ds + di);
        assert!(ds <= da + db);
        assert!(ds <= 6);
        assert!(di <= da.min(db));
    });
}

#[test]
fn canonical_basis_is_span_invariant() {
    sweep(256, |rng| {
        let m = fp_matrix(rng, 3, 5);
        let scale = fp(rng);
        // Scaling a row by a non-zero factor must not change the span.
        if Scalar::is_zero(&scale) {
            return;
        }
        let mut scaled = m.clone();
        scaled.scale_row(0, scale);
        assert_eq!(span::canonical_basis(&m), span::canonical_basis(&scaled));
    });
}

#[test]
fn rref_rows_are_contained_in_original_span() {
    sweep(256, |rng| {
        let m = fp_matrix(rng, 3, 5);
        let basis = span::canonical_basis(&m);
        for row in basis.rows_iter() {
            assert!(span::contains(&m, row));
        }
    });
}

#[test]
fn matmul_is_associative() {
    sweep(256, |rng| {
        let a = fp_matrix(rng, 2, 3);
        let b = fp_matrix(rng, 3, 4);
        let c = fp_matrix(rng, 4, 2);
        let left = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let right = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        assert_eq!(left, right);
    });
}

#[test]
fn matvec_agrees_with_matmul() {
    sweep(256, |rng| {
        let a = fp_matrix(rng, 3, 4);
        let x = Vector::from_vec(fp_vec(rng, 4));
        let via_vec = a.matvec(&x).unwrap();
        let via_mat = a.matmul(&x.clone().into_column_matrix()).unwrap();
        assert_eq!(via_vec.as_slice(), via_mat.as_flat());
    });
}

#[test]
fn sparse_matches_dense_on_random_patterns() {
    sweep(256, |rng| {
        let rows = rng.gen_range(1usize..8);
        let cols = rng.gen_range(1usize..8);
        let density_pct = rng.gen_range(0usize..100);
        let mut dense = Matrix::<Fp61>::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                if rng.gen_range(0..100) < density_pct {
                    dense.set(r, c, Scalar::sample(rng)).unwrap();
                }
            }
        }
        let sparse = CsrMatrix::from_dense(&dense);
        assert_eq!(sparse.to_dense(), dense.clone());
        let x = Vector::<Fp61>::random(cols, rng);
        assert_eq!(sparse.matvec(&x).unwrap(), dense.matvec(&x).unwrap());
        let rhs = Matrix::<Fp61>::random(cols, 3, rng);
        assert_eq!(sparse.matmul(&rhs).unwrap(), dense.matmul(&rhs).unwrap());
        assert_eq!(sparse.transpose().to_dense(), dense.transpose());
    });
}

#[test]
fn lu_solve_matches_gauss_property() {
    sweep(256, |rng| {
        let n = rng.gen_range(1usize..8);
        let a = Matrix::<Fp61>::random(n, n, rng);
        let b = Vector::<Fp61>::random(n, rng);
        match (Lu::factor(&a), gauss::solve(&a, &b)) {
            (Ok(lu), Ok(want)) => assert_eq!(lu.solve(&b).unwrap(), want),
            (Err(_), Err(_)) => assert!(a.rank() < n),
            (lu, gs) => {
                // One succeeded where the other failed: only legal when
                // the matrix is singular and gauss found an incidental
                // solution (consistent RHS).
                let (lu, gs) = (lu.is_ok(), gs.is_ok());
                assert!(a.rank() < n, "LU ok={lu} vs gauss ok={gs}");
            }
        }
    });
}

// ------------------------------------------------------------------
// Kernel routing: the lazy-reduction / banded paths must agree with
// the naive references — exactly over Fp61, bitwise over f64 — on
// every shape, including empty, 1×n, n×1, and inner dimensions that
// straddle the LAZY_BLOCK = 63 reduction boundary.
// ------------------------------------------------------------------

#[test]
fn kernel_matmul_matches_naive_fp61() {
    sweep(256, |rng| {
        let rows = rng.gen_range(0usize..12);
        let inner = rng.gen_range(0usize..70);
        let cols = rng.gen_range(0usize..12);
        let a = Matrix::<Fp61>::random(rows, inner, rng);
        let b = Matrix::<Fp61>::random(inner, cols, rng);
        let naive = kernels::matmul_naive(&a, &b).unwrap();
        assert_eq!(&a.matmul(&b).unwrap(), &naive);
        assert_eq!(&a.matmul_serial(&b).unwrap(), &naive);
    });
}

#[test]
fn kernel_matmul_matches_naive_f64_bitwise() {
    sweep(256, |rng| {
        let rows = rng.gen_range(0usize..10);
        let inner = rng.gen_range(0usize..40);
        let cols = rng.gen_range(0usize..10);
        let a = Matrix::<f64>::random(rows, inner, rng);
        let b = Matrix::<f64>::random(inner, cols, rng);
        let naive = kernels::matmul_naive(&a, &b).unwrap();
        // PartialEq on f64 entries: bitwise-equal results (no NaNs here).
        assert_eq!(&a.matmul(&b).unwrap(), &naive);
        assert_eq!(&a.matmul_serial(&b).unwrap(), &naive);
    });
}

#[test]
fn kernel_matvec_and_dot_match_naive() {
    sweep(256, |rng| {
        let rows = rng.gen_range(0usize..16);
        let cols = rng.gen_range(0usize..200);
        let a = Matrix::<Fp61>::random(rows, cols, rng);
        let x = Vector::<Fp61>::random(cols, rng);
        assert_eq!(
            a.matvec(&x).unwrap(),
            kernels::matvec_naive(&a, &x).unwrap()
        );
        let y = Vector::<Fp61>::random(cols, rng);
        assert_eq!(
            x.dot(&y).unwrap(),
            kernels::dot_naive(x.as_slice(), y.as_slice())
        );
        let xf = Vector::<f64>::random(cols, rng);
        let yf = Vector::<f64>::random(cols, rng);
        assert_eq!(
            xf.dot(&yf).unwrap(),
            kernels::dot_naive(xf.as_slice(), yf.as_slice())
        );
    });
}

#[test]
fn blocked_transpose_matches_naive() {
    sweep(256, |rng| {
        let rows = rng.gen_range(1usize..70);
        let cols = rng.gen_range(1usize..70);
        let m = Matrix::<Fp61>::random(rows, cols, rng);
        assert_eq!(m.transpose(), kernels::transpose_naive(&m));
    });
}

#[test]
fn tr_matvec_matches_transpose_then_matvec() {
    sweep(256, |rng| {
        let rows = rng.gen_range(1usize..20);
        let cols = rng.gen_range(1usize..20);
        let a = Matrix::<Fp61>::random(rows, cols, rng);
        let u = Vector::<Fp61>::random(rows, rng);
        assert_eq!(a.tr_matvec(&u).unwrap(), a.transpose().matvec(&u).unwrap());
    });
}

#[test]
fn f64_solve_roundtrip_is_accurate() {
    sweep(256, |rng| {
        let a = Matrix::<f64>::random(6, 6, rng);
        let x = Vector::<f64>::random(6, rng);
        let b = a.matvec(&x).unwrap();
        if let Ok(got) = gauss::solve(&a, &b) {
            for i in 0..6 {
                let (got, want) = (got.at(i), x.at(i));
                assert!((got - want).abs() < 1e-5, "component {i}: {got} vs {want}");
            }
        }
    });
}

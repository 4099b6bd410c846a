//! Property-based tests for the LCEC coding design.
//!
//! For arbitrary valid `(m, r)` and random payloads these assert the
//! paper's Theorem 3 (availability + security of the structured `B`), the
//! correctness of the O(m) decoder, and its agreement with the generic
//! Gaussian-elimination decoder.

use rand::{rngs::StdRng, Rng};
use scec_coding::{decode, design::CodeDesign, encode::Encoder, plan::DecodePlan, verify};
use scec_linalg::{Fp61, Matrix, Vector};

#[path = "../../../tests/support/sweep.rs"]
mod sweep;
use sweep::sweep;

/// A valid (m, r) pair of bounded size.
fn design_params(rng: &mut StdRng) -> (usize, usize) {
    let m = rng.gen_range(1usize..20);
    (m, rng.gen_range(1usize..=m))
}

#[test]
fn structured_b_is_always_available_and_secure() {
    sweep(64, |rng| {
        let (m, r) = design_params(rng);
        let design = CodeDesign::new(m, r).unwrap();
        let b = design.encoding_matrix::<Fp61>();
        let report = verify::verify(&design, &b).unwrap();
        assert!(report.is_valid(), "m={m} r={r}: {report:?}");
    });
}

#[test]
fn device_loads_match_lemma_2() {
    sweep(64, |rng| {
        let (m, r) = design_params(rng);
        let design = CodeDesign::new(m, r).unwrap();
        let i = design.device_count();
        assert_eq!(i, (m + r).div_ceil(r));
        for j in 1..i {
            assert_eq!(design.device_load(j).unwrap(), r);
        }
        let last = design.device_load(i).unwrap();
        assert!(last >= 1 && last <= r);
        let total: usize = (1..=i).map(|j| design.device_load(j).unwrap()).sum();
        assert_eq!(total, m + r);
    });
}

#[test]
fn encode_compute_decode_roundtrip_fp61() {
    sweep(64, |rng| {
        let (m, r) = design_params(rng);
        let l = rng.gen_range(1usize..8);
        let design = CodeDesign::new(m, r).unwrap();
        let a = Matrix::<Fp61>::random(m, l, rng);
        let x = Vector::<Fp61>::random(l, rng);
        let store = Encoder::new(design.clone()).encode(&a, rng).unwrap();
        let partials: Vec<Vector<Fp61>> = store
            .shares()
            .iter()
            .map(|s| s.compute(&x).unwrap())
            .collect();
        let btx = decode::stack_partials(&partials);
        let y = decode::decode_fast(&design, &btx).unwrap();
        assert_eq!(y, a.matvec(&x).unwrap());
    });
}

#[test]
fn fast_and_general_decoders_agree() {
    sweep(64, |rng| {
        let (m, r) = design_params(rng);
        let design = CodeDesign::new(m, r).unwrap();
        let l = 3;
        let a = Matrix::<Fp61>::random(m, l, rng);
        let x = Vector::<Fp61>::random(l, rng);
        let store = Encoder::new(design.clone()).encode(&a, rng).unwrap();
        let partials: Vec<Vector<Fp61>> = store
            .shares()
            .iter()
            .map(|s| s.compute(&x).unwrap())
            .collect();
        let btx = decode::stack_partials(&partials);
        let fast = decode::decode_fast(&design, &btx).unwrap();
        let b = design.encoding_matrix::<Fp61>();
        let general = decode::decode_general(&design, &b, &btx).unwrap();
        assert_eq!(fast, general);
    });
}

#[test]
fn densified_codes_stay_valid_and_decodable() {
    sweep(64, |rng| {
        let m = rng.gen_range(2usize..10);
        let r = 1 + m / 2;
        let design = CodeDesign::new(m, r).unwrap();
        let dense = verify::densify::<Fp61, _>(&design, rng);
        assert!(verify::verify(&design, &dense).unwrap().is_valid());
        // Decodable end to end via the general decoder.
        let l = 2;
        let a = Matrix::<Fp61>::random(m, l, rng);
        let randomness = Matrix::<Fp61>::random(r, l, rng);
        let t = a.vstack(&randomness).unwrap();
        let x = Vector::<Fp61>::random(l, rng);
        let btx = dense.matmul(&t).unwrap().matvec(&x).unwrap();
        let y = decode::decode_general(&design, &dense, &btx).unwrap();
        assert_eq!(y, a.matvec(&x).unwrap());
    });
}

#[test]
fn per_device_randomness_is_never_reused() {
    sweep(64, |rng| {
        let (m, r) = design_params(rng);
        // The structural reason the design is secure: within one device,
        // every coded row mixes a DISTINCT random row.
        let design = CodeDesign::new(m, r).unwrap();
        for j in 2..=design.device_count() {
            let range = design.device_row_range(j).unwrap();
            let mut used = std::collections::HashSet::new();
            for row in range {
                assert!(
                    used.insert(design.random_row_of(row)),
                    "device {j} reuses a random row"
                );
            }
        }
    });
}

#[test]
fn blinding_changes_every_coded_data_row() {
    sweep(64, |rng| {
        let (m, r) = design_params(rng);
        let l = rng.gen_range(1usize..5);
        // Over a 2^61 field, a coded row equals the raw data row only with
        // probability 2^-61: check the blinding is actually applied.
        let design = CodeDesign::new(m, r).unwrap();
        let a = Matrix::<Fp61>::random(m, l, rng);
        let store = Encoder::new(design.clone()).encode(&a, rng).unwrap();
        let stacked = store.stacked();
        for p in 0..m {
            let coded = stacked.row(r + p);
            let raw = a.row(p);
            assert_ne!(coded, raw, "row {p} left unblinded");
        }
    });
}

#[test]
fn panel_decode_matches_per_query_decodes_fp61() {
    sweep(64, |rng| {
        let (m, r) = design_params(rng);
        let k = rng.gen_range(1usize..9);
        // Decoding an n × k panel in one multi-RHS elimination must be
        // bit-identical to decoding its k columns one by one — including
        // the ragged widths (k = 1, k = window) the panel pipeline emits
        // for tail flushes.
        let design = CodeDesign::new(m, r).unwrap();
        let n = design.total_rows();
        for b in [
            design.encoding_matrix::<Fp61>(),
            verify::densify(&design, rng),
        ] {
            let mut plan = DecodePlan::new(&design, &b).unwrap();
            let btx = Matrix::<Fp61>::random(n, k, rng);
            let panel = plan.decode_panel(&btx).unwrap();
            assert_eq!(panel.shape(), (m, k));
            for j in 0..k {
                let single = plan.decode(&btx.col(j)).unwrap();
                assert_eq!(
                    panel.col(j).as_slice(),
                    single.as_slice(),
                    "m={m} r={r} k={k} col {j}"
                );
            }
        }
    });
}

#[test]
fn panel_decode_matches_per_query_decodes_f64() {
    sweep(64, |rng| {
        let (m, r) = design_params(rng);
        let k = rng.gen_range(1usize..9);
        // Same agreement over the reals: the cached LU applies the exact
        // same factor sequence to every right-hand side, so panel and
        // per-query decodes agree to the last bit even though f64
        // arithmetic is not associative.
        let design = CodeDesign::new(m, r).unwrap();
        let n = design.total_rows();
        let b = design.encoding_matrix::<f64>();
        let mut plan = DecodePlan::new(&design, &b).unwrap();
        let btx = Matrix::<f64>::random(n, k, rng);
        let panel = plan.decode_panel(&btx).unwrap();
        assert_eq!(panel.shape(), (m, k));
        for j in 0..k {
            let single = plan.decode(&btx.col(j)).unwrap();
            for p in 0..m {
                assert_eq!(
                    panel.at(p, j).to_bits(),
                    single.at(p).to_bits(),
                    "m={m} r={r} k={k} col {j} row {p}"
                );
            }
        }
    });
}

#[test]
fn decode_plan_matches_per_query_elimination() {
    sweep(64, |rng| {
        let (m, r) = design_params(rng);
        // The cached LU plan must agree bit-for-bit with the fresh
        // `gauss::solve`-based elimination on every query, for both the
        // structured B of Eq. (8) and a dense secure variant — including
        // the edge shapes (m = 1, r = m) the strategy generates.
        let design = CodeDesign::new(m, r).unwrap();
        let n = design.total_rows();
        for b in [
            design.encoding_matrix::<Fp61>(),
            verify::densify(&design, rng),
        ] {
            let mut plan = DecodePlan::new(&design, &b).unwrap();
            for _ in 0..3 {
                let btx = Vector::<Fp61>::random(n, rng);
                let want = decode::decode_general(&design, &b, &btx).unwrap();
                assert_eq!(plan.decode(&btx).unwrap(), want, "m={m} r={r}");
            }
        }
    });
}

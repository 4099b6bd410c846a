//! Property-based tests for the straggler and collusion extensions.

use rand::Rng;
use scec_coding::{decode, CodeDesign, Encoder, StragglerCode, TPrivateCode, TaggedResponse};
use scec_linalg::{span, Fp61, Matrix, Vector};

#[path = "../../../tests/support/sweep.rs"]
mod sweep;
use sweep::sweep;

#[test]
fn straggler_code_decodes_after_random_losses() {
    sweep(32, |rng| {
        let m = rng.gen_range(2usize..10);
        let r = 1 + m / 2;
        let s = r; // enough to lose any one device
        let base = CodeDesign::new(m, r).unwrap();
        let code = StragglerCode::<Fp61>::new(base, s, rng).unwrap();
        let l = 3;
        let a = Matrix::<Fp61>::random(m, l, rng);
        let x = Vector::<Fp61>::random(l, rng);
        let store = code.encode(&a, rng).unwrap();
        let mut responses: Vec<TaggedResponse<Fp61>> = store
            .shares()
            .iter()
            .flat_map(|sh| sh.compute(&x).unwrap())
            .collect();
        // Randomly drop exactly s responses.
        for _ in 0..s {
            let idx = rng.gen_range(0..responses.len());
            responses.swap_remove(idx);
        }
        let y = code.decode(&responses).unwrap();
        assert_eq!(y, a.matvec(&x).unwrap());
    });
}

#[test]
fn straggler_devices_never_exceed_lemma_1_cap() {
    sweep(32, |rng| {
        let m = rng.gen_range(1usize..12);
        let s = rng.gen_range(1usize..12);
        let r = 1 + m / 3;
        let r = r.min(m);
        let base = CodeDesign::new(m, r).unwrap();
        let code = StragglerCode::<Fp61>::new(base, s, rng).unwrap();
        for j in 1..=code.device_count() {
            let held = code.device_rows(j).unwrap().len();
            assert!(held <= r, "device {j} holds {held} > r = {r}");
        }
        // All devices' blocks are secure.
        let lambda = span::data_span_basis::<Fp61>(m, r);
        for j in 1..=code.device_count() {
            let block = code.device_block(j).unwrap();
            assert_eq!(span::intersection_dim(&block, &lambda), 0);
        }
    });
}

#[test]
fn t_private_roundtrip_and_privacy() {
    sweep(32, |rng| {
        let m = rng.gen_range(1usize..8);
        let t = rng.gen_range(1usize..4);
        let v = rng.gen_range(1usize..4);
        let code = TPrivateCode::<Fp61>::new(m, t, v, rng).unwrap();
        let l = 2;
        let a = Matrix::<Fp61>::random(m, l, rng);
        let x = Vector::<Fp61>::random(l, rng);
        let store = code.encode(&a, rng).unwrap();
        let mut btx = Vec::new();
        for share in store.shares() {
            btx.extend(share.compute(&x).unwrap().into_vec());
        }
        assert_eq!(
            code.decode(&Vector::from_vec(btx)).unwrap(),
            a.matvec(&x).unwrap()
        );
        // Exhaustive t-privacy for small systems only (combinatorial).
        if code.device_count() <= 8 {
            assert!(code.verify_t_privacy().unwrap());
        }
    });
}

#[test]
fn t_private_over_capacity_coalitions_leak() {
    sweep(32, |rng| {
        let m = rng.gen_range(4usize..8);
        // A coalition holding MORE than r rows must leak by dimension
        // counting — the converse boundary of the design.
        let (t, v) = (1usize, 2usize);
        let code = TPrivateCode::<Fp61>::new(m, t, v, rng).unwrap();
        // Take enough data devices to exceed r = 2 rows.
        let noise_devs = code.random_rows().div_ceil(code.load_cap());
        let data_devs = code.device_count() - noise_devs;
        if data_devs < 2 {
            return;
        }
        let coalition: Vec<usize> = (noise_devs + 1..=noise_devs + 2).collect();
        let total_rows: usize = coalition
            .iter()
            .map(|&j| code.device_rows(j).unwrap().len())
            .sum();
        if total_rows > code.random_rows() {
            assert!(!code.resists_coalition(&coalition).unwrap());
        }
    });
}

#[test]
fn batch_and_single_decoding_agree() {
    sweep(32, |rng| {
        let m = rng.gen_range(1usize..8);
        let cols = rng.gen_range(1usize..5);
        let r = 1 + m / 2;
        let r = r.min(m);
        let design = CodeDesign::new(m, r).unwrap();
        let a = Matrix::<Fp61>::random(m, 3, rng);
        let xs = Matrix::<Fp61>::random(3, cols, rng);
        let store = Encoder::new(design.clone()).encode(&a, rng).unwrap();
        let partials: Vec<Matrix<Fp61>> = store
            .shares()
            .iter()
            .map(|s| s.coded().matmul(&xs).unwrap())
            .collect();
        let btx = decode::stack_partial_matrices(&partials).unwrap();
        let batch = decode::decode_fast_batch(&design, &btx).unwrap();
        assert_eq!(&batch, &a.matmul(&xs).unwrap());
        for c in 0..cols {
            let x = xs.col(c);
            let single_partials: Vec<Vector<Fp61>> = store
                .shares()
                .iter()
                .map(|s| s.compute(&x).unwrap())
                .collect();
            let single =
                decode::decode_fast(&design, &decode::stack_partials(&single_partials)).unwrap();
            let batch_col = batch.col(c);
            assert_eq!(single.as_slice(), batch_col.as_slice());
        }
    });
}

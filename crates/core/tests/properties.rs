//! Property-based tests for the end-to-end framework: recovery, batch
//! agreement, metrics consistency, input privacy, and integrity across
//! arbitrary shapes and strategies.

use rand::Rng;
use scec_allocation::EdgeFleet;
use scec_core::{
    integrity::IntegrityKey, AllocationStrategy, PrivateQuerier, QueryPad, ScecSystem,
};
use scec_linalg::{Fp61, Matrix, Vector};

#[path = "../../../tests/support/sweep.rs"]
mod sweep;
use sweep::sweep;

fn strategy_from(ix: usize) -> AllocationStrategy {
    [
        AllocationStrategy::Mcscec,
        AllocationStrategy::McscecExhaustive,
        AllocationStrategy::MaxNode,
        AllocationStrategy::MinNode,
        AllocationStrategy::RandomNode,
    ][ix % 5]
}

#[test]
fn end_to_end_recovery_is_exact() {
    sweep(32, |rng| {
        let m = rng.gen_range(1usize..15);
        let l = rng.gen_range(1usize..8);
        let k = rng.gen_range(2usize..8);
        let strat = rng.gen_range(0usize..5);
        let a = Matrix::<Fp61>::random(m, l, rng);
        let costs: Vec<f64> = (0..k).map(|p| 1.0 + 0.4 * p as f64).collect();
        let fleet = EdgeFleet::from_unit_costs(costs).unwrap();
        let sys = ScecSystem::build(a.clone(), fleet, strategy_from(strat), rng).unwrap();
        let deployment = sys.distribute(rng).unwrap();
        let x = Vector::<Fp61>::random(l, rng);
        assert_eq!(deployment.query(&x).unwrap(), a.matvec(&x).unwrap());
    });
}

#[test]
fn usage_is_conserved() {
    sweep(32, |rng| {
        let m = rng.gen_range(1usize..15);
        let l = rng.gen_range(1usize..8);
        let a = Matrix::<Fp61>::random(m, l, rng);
        let fleet = EdgeFleet::from_unit_costs(vec![1.0, 1.5, 2.0, 3.0]).unwrap();
        let sys = ScecSystem::build(a, fleet, AllocationStrategy::Mcscec, rng).unwrap();
        let deployment = sys.distribute(rng).unwrap();
        let usage = deployment.usage();
        let total = usage.device_total();
        let rows = sys.plan().total_rows();
        assert_eq!(total.values_transferred, rows);
        assert_eq!(total.multiplications, rows * l);
        assert_eq!(total.additions, rows * l.saturating_sub(1));
        assert_eq!(usage.decode_subtractions, m);
    });
}

#[test]
fn private_queries_match_plain_queries() {
    sweep(32, |rng| {
        let m = rng.gen_range(1usize..10);
        let l = rng.gen_range(1usize..6);
        let a = Matrix::<Fp61>::random(m, l, rng);
        let fleet = EdgeFleet::from_unit_costs(vec![1.0, 2.0, 2.5]).unwrap();
        let sys = ScecSystem::build(a.clone(), fleet, AllocationStrategy::Mcscec, rng).unwrap();
        let deployment = sys.distribute(rng).unwrap();
        let pads = QueryPad::generate(&a, 2, rng).unwrap();
        let mut querier = PrivateQuerier::new(pads);
        for _ in 0..2 {
            let x = Vector::<Fp61>::random(l, rng);
            let private = querier.query(&deployment, &x).unwrap();
            let plain = deployment.query(&x).unwrap();
            assert_eq!(&private, &plain);
            assert_eq!(private, a.matvec(&x).unwrap());
        }
    });
}

#[test]
fn integrity_accepts_honest_rejects_corrupt() {
    sweep(32, |rng| {
        let m = rng.gen_range(2usize..10);
        let l = rng.gen_range(1usize..6);
        let flip = rng.gen_range(0usize..10);
        let a = Matrix::<Fp61>::random(m, l, rng);
        let key = IntegrityKey::generate(&a, rng).unwrap();
        let x = Vector::<Fp61>::random(l, rng);
        let y = a.matvec(&x).unwrap();
        assert!(key.verify(&x, &y).unwrap());
        let mut bad = y.clone();
        let idx = flip % m;
        bad.as_mut_slice()[idx] = bad.at(idx) + Fp61::new(1);
        assert!(!key.verify(&x, &bad).unwrap());
    });
}

#[test]
fn panel_freivalds_accepts_honest_rejects_corrupted_column() {
    sweep(32, |rng| {
        let m = rng.gen_range(2usize..10);
        let l = rng.gen_range(1usize..6);
        let k = rng.gen_range(1usize..7);
        let corrupt = rng.gen_range(0usize..64);
        // Batched Freivalds over a whole panel: one pair of transposed
        // matvecs must accept every honest column, and corrupting a
        // single entry of a single column must surface exactly that
        // column's index — for every panel width the pipeline can emit
        // (k = 1 ragged tails through full windows).
        let a = Matrix::<Fp61>::random(m, l, rng);
        let key = IntegrityKey::generate(&a, rng).unwrap();
        let xs = Matrix::<Fp61>::random(l, k, rng);
        let ys = a.matmul(&xs).unwrap();
        assert_eq!(key.verify_panel(&xs, &ys).unwrap(), None);
        let (row, col) = (corrupt / k % m, corrupt % k);
        let mut bad = ys.clone();
        bad.set(row, col, ys.at(row, col) + Fp61::new(1)).unwrap();
        assert_eq!(
            key.verify_panel(&xs, &bad).unwrap(),
            Some(col),
            "m={m} l={l} k={k} corrupted ({row}, {col})"
        );
    });
}

#[test]
fn batch_matches_columns() {
    sweep(32, |rng| {
        let m = rng.gen_range(1usize..10);
        let l = rng.gen_range(1usize..6);
        let cols = rng.gen_range(1usize..5);
        let a = Matrix::<Fp61>::random(m, l, rng);
        let fleet = EdgeFleet::from_unit_costs(vec![1.0, 1.1, 1.2]).unwrap();
        let sys = ScecSystem::build(a.clone(), fleet, AllocationStrategy::Mcscec, rng).unwrap();
        let deployment = sys.distribute(rng).unwrap();
        let xs = Matrix::<Fp61>::random(l, cols, rng);
        let batch = deployment.query_batch(&xs).unwrap();
        assert_eq!(&batch, &a.matmul(&xs).unwrap());
        for c in 0..cols {
            let single = deployment.query(&xs.col(c)).unwrap();
            let batch_col = batch.col(c);
            assert_eq!(single.as_slice(), batch_col.as_slice());
        }
    });
}

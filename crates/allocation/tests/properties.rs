//! Property-based cross-validation of the allocation algorithms.
//!
//! The paper proves (Theorems 1, 4, 5) that TA1 and TA2 both attain the
//! optimum and never dip below the lower bound. These properties assert
//! exactly that, against arbitrary fleets and data sizes, with a brute
//! force over the whole feasible range of `r` as ground truth.

use rand::{rngs::StdRng, Rng};
use scec_allocation::{baselines, bound, cost::EdgeFleet, istar, ta, AllocationPlan};

#[path = "../../../tests/support/sweep.rs"]
mod sweep;
use sweep::sweep;

fn random_fleet(rng: &mut StdRng) -> EdgeFleet {
    let costs = (0..rng.gen_range(2usize..20)).map(|_| rng.gen_range(0.1f64..50.0));
    EdgeFleet::from_unit_costs(costs.collect()).expect("valid costs")
}

fn brute_force(m: usize, fleet: &EdgeFleet) -> f64 {
    let min_r = m.div_ceil(fleet.len() - 1);
    (min_r..=m)
        .map(|r| {
            AllocationPlan::canonical(m, r, fleet)
                .expect("feasible r")
                .total_cost()
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
fn ta1_ta2_brute_force_agree() {
    sweep(128, |rng| {
        let fleet = random_fleet(rng);
        let m = rng.gen_range(1usize..200);
        let p1 = ta::ta1(m, &fleet).unwrap().total_cost();
        let p2 = ta::ta2(m, &fleet).unwrap().total_cost();
        let bf = brute_force(m, &fleet);
        let tol = 1e-9 * (1.0 + bf.abs());
        assert!((p1 - bf).abs() < tol, "TA1 {p1} vs brute force {bf}");
        assert!((p2 - bf).abs() < tol, "TA2 {p2} vs brute force {bf}");
    });
}

#[test]
fn optimum_dominates_lower_bound() {
    sweep(128, |rng| {
        let fleet = random_fleet(rng);
        let m = rng.gen_range(1usize..200);
        let lb = bound::lower_bound(m, &fleet).unwrap();
        let opt = ta::ta1(m, &fleet).unwrap().total_cost();
        assert!(
            opt >= lb - 1e-9 * (1.0 + lb.abs()),
            "optimum {opt} below bound {lb}"
        );
        // Corollary 1: exact achievement under divisibility.
        if bound::is_achievable(m, &fleet).unwrap() {
            assert!(
                (opt - lb).abs() < 1e-9 * (1.0 + lb.abs()),
                "divisible case must meet the bound: {opt} vs {lb}"
            );
        }
    });
}

#[test]
fn plans_are_well_formed() {
    sweep(128, |rng| {
        let fleet = random_fleet(rng);
        let m = rng.gen_range(1usize..200);
        for plan in [ta::ta1(m, &fleet).unwrap(), ta::ta2(m, &fleet).unwrap()] {
            let r = plan.random_rows();
            assert!(r >= 1 && r <= m);
            assert!(r >= m.div_ceil(fleet.len() - 1));
            assert_eq!(plan.total_rows(), m + r);
            assert!(plan.satisfies_security_cap());
            assert!(plan.device_count() >= 2);
            assert!(plan.device_count() <= fleet.len());
            // Canonical shape of Lemma 2: all-but-last loads equal r.
            let loads = plan.loads();
            assert!(loads[..loads.len() - 1].iter().all(|&v| v == r));
            assert!(*loads.last().unwrap() >= 1);
            // Cached cost is consistent with the fleet.
            assert!(
                (plan.recompute_cost(&fleet) - plan.total_cost()).abs()
                    < 1e-9 * (1.0 + plan.total_cost().abs())
            );
        }
    });
}

#[test]
fn secure_baselines_never_beat_the_optimum() {
    sweep(128, |rng| {
        let fleet = random_fleet(rng);
        let m = rng.gen_range(1usize..200);
        let opt = ta::ta1(m, &fleet).unwrap().total_cost();
        let tol = 1e-9 * (1.0 + opt.abs());
        assert!(baselines::max_node(m, &fleet).unwrap().total_cost() >= opt - tol);
        assert!(baselines::min_node(m, &fleet).unwrap().total_cost() >= opt - tol);
        assert!(baselines::r_node(m, &fleet, rng).unwrap().total_cost() >= opt - tol);
        // The insecure floor is never above the secure optimum.
        assert!(
            baselines::ta_without_security(m, &fleet)
                .unwrap()
                .total_cost()
                <= opt + tol
        );
    });
}

#[test]
fn cost_is_unimodal_in_r() {
    sweep(128, |rng| {
        let fleet = random_fleet(rng);
        let m = rng.gen_range(1usize..150);
        // Theorem 4's structure: non-increasing up to the optimum region,
        // non-decreasing after. Verify no strict local minimum other than
        // the global one (allowing plateaus).
        let min_r = m.div_ceil(fleet.len() - 1);
        let costs: Vec<f64> = (min_r..=m)
            .map(|r| ta::canonical_cost(m, r, &fleet))
            .collect();
        let best = costs.iter().cloned().fold(f64::INFINITY, f64::min);
        let eps = 1e-9 * (1.0 + best.abs());
        // Find the first and last index attaining the minimum; the cost
        // must be non-increasing before and non-decreasing after.
        let first = costs.iter().position(|&c| (c - best).abs() <= eps).unwrap();
        let last = costs
            .iter()
            .rposition(|&c| (c - best).abs() <= eps)
            .unwrap();
        for w in costs[..=first].windows(2) {
            assert!(w[1] <= w[0] + eps, "not non-increasing before optimum");
        }
        for w in costs[last..].windows(2) {
            assert!(w[1] >= w[0] - eps, "not non-decreasing after optimum");
        }
    });
}

#[test]
fn plans_stay_inside_the_feasibility_region() {
    sweep(128, |rng| {
        let fleet = random_fleet(rng);
        let m = rng.gen_range(1usize..200);
        // Theorem 2's feasible range, per chosen (i, r): availability
        // needs any i-1 devices to recover all m+r rows, which under the
        // Lemma-1 cap V(B_j) ≤ r forces (i-1)·r ≥ m.
        for plan in [ta::ta1(m, &fleet).unwrap(), ta::ta2(m, &fleet).unwrap()] {
            let (i, r) = (plan.device_count(), plan.random_rows());
            assert!((i - 1) * r >= m, "infeasible (i={i}, r={r}) for m={m}");
            assert!(
                plan.loads().iter().all(|&v| v <= r),
                "load above the security cap"
            );
        }
    });
}

#[test]
fn istar_is_consistent_with_its_definition() {
    sweep(128, |rng| {
        let fleet = random_fleet(rng);
        let star = istar::i_star(&fleet);
        assert!(star >= 2 && star <= fleet.len());
        // Defining property: predicate holds at i*, fails for every larger i.
        assert!(istar::predicate(&fleet, star));
        for i in (star + 1)..=fleet.len() {
            assert!(!istar::predicate(&fleet, i));
        }
    });
}

/// Hand-computed optimal instances, pinned so a regression in TA-1/TA-2
/// shows up as a concrete wrong number rather than a property failure.
mod pinned {
    use super::*;

    #[test]
    fn uniform_fleet_m4() {
        // m=4, costs [1,1,1]: i*=3, r=2, loads [2,2,2], cost 6 — and the
        // divisibility condition holds, so the lower bound is met exactly.
        let fleet = EdgeFleet::from_unit_costs(vec![1.0, 1.0, 1.0]).unwrap();
        for plan in [ta::ta1(4, &fleet).unwrap(), ta::ta2(4, &fleet).unwrap()] {
            assert_eq!(plan.random_rows(), 2);
            assert_eq!(plan.device_count(), 3);
            assert_eq!(plan.loads(), &[2, 2, 2]);
            assert!((plan.total_cost() - 6.0).abs() < 1e-12);
        }
        assert!((bound::lower_bound(4, &fleet).unwrap() - 6.0).abs() < 1e-12);
        assert!(bound::is_achievable(4, &fleet).unwrap());
    }

    #[test]
    fn geometric_fleet_m6() {
        // m=6, costs [1,2,4]: the expensive third device prices itself
        // out — i*=2, r=6, loads [6,6], cost 18 beats i=3 (cost 21).
        let fleet = EdgeFleet::from_unit_costs(vec![1.0, 2.0, 4.0]).unwrap();
        assert_eq!(istar::i_star(&fleet), 2);
        for plan in [ta::ta1(6, &fleet).unwrap(), ta::ta2(6, &fleet).unwrap()] {
            assert_eq!(plan.random_rows(), 6);
            assert_eq!(plan.device_count(), 2);
            assert_eq!(plan.loads(), &[6, 6]);
            assert!((plan.total_cost() - 18.0).abs() < 1e-12);
        }
        assert!((bound::lower_bound(6, &fleet).unwrap() - 18.0).abs() < 1e-12);
    }
}

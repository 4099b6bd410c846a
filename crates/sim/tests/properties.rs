//! Property-based tests for the simulation layer.

use rand::{rngs::StdRng, Rng};
use scec_allocation::{ta, EdgeFleet};
use scec_coding::{CodeDesign, Encoder};
use scec_linalg::{Fp61, Matrix};
use scec_sim::adversary::PassiveAdversary;
use scec_sim::event::{DeviceProfile, NetworkModel, ProtocolSimulator};
use scec_sim::planner::DeadlinePlanner;
use scec_sim::{CostDistribution, InstanceGenerator};

#[path = "../../../tests/support/sweep.rs"]
mod sweep;
use sweep::sweep;

fn design_params(rng: &mut StdRng) -> (usize, usize) {
    let m = rng.gen_range(1usize..12);
    (m, rng.gen_range(1usize..=m))
}

#[test]
fn every_device_of_every_design_is_its() {
    sweep(48, |rng| {
        let (m, r) = design_params(rng);
        let l = rng.gen_range(1usize..6);
        let design = CodeDesign::new(m, r).unwrap();
        let a = Matrix::<Fp61>::random(m, l, rng);
        let store = Encoder::new(design.clone()).encode(&a, rng).unwrap();
        let adversary = PassiveAdversary::new(design).with_candidates(2);
        for share in store.shares() {
            let verdict = adversary.attack(share, rng).unwrap();
            assert!(
                verdict.is_information_theoretic_secure(),
                "m={m} r={r} device={} verdict={verdict:?}",
                share.device()
            );
        }
    });
}

#[test]
fn sampled_costs_are_always_positive() {
    sweep(48, |rng| {
        let c_max = rng.gen_range(1.1f64..30.0);
        let sigma = rng.gen_range(0.0f64..3.0);
        for _ in 0..50 {
            assert!(CostDistribution::uniform(c_max).sample(rng) > 0.0);
            assert!(CostDistribution::normal(5.0, sigma).sample(rng) > 0.0);
        }
    });
}

#[test]
fn generated_fleets_are_sorted_and_valid() {
    sweep(48, |rng| {
        let k = rng.gen_range(2usize..40);
        let mut gen = InstanceGenerator::from_seed(rng.gen());
        let fleet = gen.fleet(k, CostDistribution::uniform(5.0));
        assert_eq!(fleet.len(), k);
        let costs = fleet.sorted_costs();
        assert!(costs.windows(2).all(|w| w[0] <= w[1]));
        assert!(costs.iter().all(|&c| c > 0.0));
    });
}

#[test]
fn completion_time_ordering_is_sane() {
    sweep(48, |rng| {
        let (m, r) = design_params(rng);
        let width = rng.gen_range(1usize..50);
        let design = CodeDesign::new(m, r).unwrap();
        let model =
            NetworkModel::homogeneous(design.device_count(), DeviceProfile::default_edge(), 1e-9)
                .unwrap();
        let report = ProtocolSimulator::new(model)
            .simulate(&design, width)
            .unwrap();
        for tl in &report.per_device {
            assert!(tl.input_arrived > 0.0);
            assert!(tl.compute_done >= tl.input_arrived);
            assert!(tl.result_arrived > tl.compute_done);
            assert!(tl.result_arrived <= report.last_result + 1e-15);
        }
        assert!(report.completion_time >= report.last_result);
        assert_eq!(report.per_device.len(), design.device_count());
    });
}

#[test]
fn deadline_planner_is_consistent() {
    sweep(48, |rng| {
        let m = rng.gen_range(4usize..40);
        let k = rng.gen_range(3usize..8);
        let costs: Vec<f64> = (0..k).map(|_| rng.gen_range(1.0..5.0)).collect();
        let fleet = EdgeFleet::from_unit_costs(costs).unwrap();
        let profiles = vec![DeviceProfile::default_edge(); k];
        let planner = DeadlinePlanner::new(&fleet, &profiles, 1e-9).unwrap();
        // A generous deadline must reproduce the unconstrained optimum…
        let plan = planner.plan(m, 8, 1e6).unwrap();
        let opt = ta::ta1(m, &fleet).unwrap();
        assert!((plan.total_cost - opt.total_cost()).abs() < 1e-9);
        // …and any feasible plan can never beat it.
        assert!(plan.total_cost >= opt.total_cost() - 1e-9);
        assert!(plan.completion_time > 0.0);
        // An impossible deadline errors with the fastest time.
        match planner.plan(m, 8, 0.0) {
            Err(scec_sim::Error::DeadlineUnreachable { fastest, .. }) => {
                assert!(fastest > 0.0);
            }
            other => panic!("expected DeadlineUnreachable, got {:?}", other.is_ok()),
        }
    });
}

#[test]
fn leak_detector_counts_shared_randomness() {
    sweep(48, |rng| {
        let m = rng.gen_range(2usize..8);
        // Construct a block where TWO coded rows share one random row: the
        // adversary must report exactly one leaked combination.
        let r = 2;
        if m < r {
            return;
        }
        let design = CodeDesign::new(m, r).unwrap();
        let n = m + r;
        let mut block = Matrix::<Fp61>::zeros(2, n);
        block.set(0, 0, Fp61::new(1)).unwrap();
        block.set(0, m, Fp61::new(1)).unwrap();
        block.set(1, 1, Fp61::new(1)).unwrap();
        block.set(1, m, Fp61::new(1)).unwrap();
        let a = Matrix::<Fp61>::random(m, 3, rng);
        let randomness = Matrix::<Fp61>::random(r, 3, rng);
        let t = a.vstack(&randomness).unwrap();
        let observed = block.matmul(&t).unwrap();
        let verdict = PassiveAdversary::new(design)
            .attack_observation(1, &block, &observed, rng)
            .unwrap();
        assert_eq!(verdict.leaked_combinations, 1);
        assert!(!verdict.is_information_theoretic_secure());
    });
}

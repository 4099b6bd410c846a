//! Property-based tests for the threaded runtime: correctness under
//! arbitrary payloads, device counts, and artificial delay patterns.

use std::time::Duration;

use rand::{rngs::StdRng, Rng, SeedableRng};
use scec_allocation::EdgeFleet;
use scec_coding::{CodeDesign, StragglerCode, TPrivateCode};
use scec_core::{AllocationStrategy, ScecSystem};
use scec_linalg::{Fp61, Matrix, Vector};
use scec_runtime::{
    DeviceBehavior, LocalCluster, QueryPipeline, StragglerCluster, SupervisedCluster,
    SupervisorConfig, TPrivateCluster,
};
use scec_sim::{ChaosFault, ChaosPlan};

#[path = "../../../tests/support/sweep.rs"]
mod sweep;
use sweep::sweep;

/// Maps a chaos plan onto behaviors for the *all-respond* protocols
/// (base and `t`-private): delay and corruption faults are kept verbatim,
/// while crash/drop/omit faults — which can only time the whole query out
/// on these protocols, identically with or without pipelining — are
/// benign-ized. The supervised test below exercises the full fault set.
fn respond_always_behaviors(plan: &ChaosPlan) -> Vec<DeviceBehavior> {
    plan.faults
        .iter()
        .map(|fault| match *fault {
            ChaosFault::Slow { millis } => {
                DeviceBehavior::Delayed(Duration::from_millis(millis.min(20)))
            }
            ChaosFault::Byzantine => DeviceBehavior::Byzantine,
            _ => DeviceBehavior::Honest,
        })
        .collect()
}

/// Full chaos-fault -> behavior map for the supervised cluster.
fn supervised_behaviors(plan: &ChaosPlan) -> Vec<DeviceBehavior> {
    plan.faults
        .iter()
        .map(|fault| match *fault {
            ChaosFault::None => DeviceBehavior::Honest,
            ChaosFault::Slow { millis } => DeviceBehavior::Delayed(Duration::from_millis(millis)),
            ChaosFault::Crash { after_queries } => DeviceBehavior::Crash { after_queries },
            ChaosFault::Flaky { permille } => DeviceBehavior::FlakyDrop { permille },
            ChaosFault::Omit => DeviceBehavior::Omit,
            ChaosFault::Byzantine => DeviceBehavior::Byzantine,
        })
        .collect()
}

// Threaded tests are comparatively expensive: every sweep below runs
// 12 cases.

#[test]
fn threaded_query_is_exact_for_arbitrary_payloads() {
    sweep(12, |rng| {
        let m = rng.gen_range(1usize..12);
        let l = rng.gen_range(1usize..8);
        let k = rng.gen_range(2usize..7);
        let a = Matrix::<Fp61>::random(m, l, rng);
        let costs: Vec<f64> = (0..k).map(|p| 1.0 + p as f64 * 0.3).collect();
        let fleet = EdgeFleet::from_unit_costs(costs).unwrap();
        let sys = ScecSystem::build(a.clone(), fleet, AllocationStrategy::Mcscec, rng).unwrap();
        let cluster = LocalCluster::launch(&sys, rng).unwrap();
        let x = Vector::<Fp61>::random(l, rng);
        assert_eq!(cluster.query(&x).unwrap(), a.matvec(&x).unwrap());
        cluster.shutdown();
    });
}

#[test]
fn jittered_delays_never_affect_correctness() {
    sweep(12, |rng| {
        let m = rng.gen_range(2usize..10);
        let delays: Vec<Duration> = (0..rng.gen_range(0usize..6))
            .map(|_| Duration::from_millis(rng.gen_range(0..15)))
            .collect();
        let l = 3;
        let a = Matrix::<Fp61>::random(m, l, rng);
        let fleet = EdgeFleet::from_unit_costs(vec![1.0, 1.5, 2.0, 2.5]).unwrap();
        let sys = ScecSystem::build(a.clone(), fleet, AllocationStrategy::Mcscec, rng).unwrap();
        let cluster = LocalCluster::launch_with_delays(&sys, rng, &delays).unwrap();
        let x = Vector::<Fp61>::random(l, rng);
        assert_eq!(cluster.query(&x).unwrap(), a.matvec(&x).unwrap());
    });
}

#[test]
fn straggler_quorum_is_exact_under_random_delay_patterns() {
    sweep(12, |rng| {
        let m = rng.gen_range(2usize..8);
        let slow_device = rng.gen_range(0usize..4);
        let r = 1 + m / 2;
        let r = r.min(m);
        let base = CodeDesign::new(m, r).unwrap();
        let code = StragglerCode::<Fp61>::new(base, r, rng).unwrap();
        let l = 3;
        let a = Matrix::<Fp61>::random(m, l, rng);
        let device_count = code.device_count();
        let mut delays = vec![Duration::ZERO; device_count];
        if slow_device < device_count {
            delays[slow_device] = Duration::from_millis(50);
        }
        let cluster = StragglerCluster::launch(code, &a, rng, &delays).unwrap();
        let x = Vector::<Fp61>::random(l, rng);
        let result = cluster.query(&x).unwrap();
        assert_eq!(result.value, a.matvec(&x).unwrap());
    });
}

#[test]
fn pipelined_local_matches_sequential_under_chaos() {
    sweep(12, |rng| {
        let m = rng.gen_range(2usize..10);
        let intensity = rng.gen_range(0.0f64..1.0);
        let l = 3;
        let a = Matrix::<Fp61>::random(m, l, rng);
        let fleet = EdgeFleet::from_unit_costs(vec![1.0, 1.5, 2.0, 2.5]).unwrap();
        let sys = ScecSystem::build(a.clone(), fleet, AllocationStrategy::Mcscec, rng).unwrap();
        let plan = ChaosPlan::generate(sys.plan().device_count(), intensity, rng.gen());
        let behaviors = respond_always_behaviors(&plan);
        let cluster = LocalCluster::launch_with_behaviors(&sys, rng, &behaviors).unwrap();
        let queries: Vec<Vector<Fp61>> = (0..6).map(|_| Vector::random(l, rng)).collect();
        // A Byzantine device makes the decoded value *wrong*, but
        // deterministically so — sequential and pipelined must agree on
        // it bit for bit.
        let sequential: Vec<_> = queries.iter().map(|x| cluster.query(x).unwrap()).collect();
        for window in [1usize, 4, 16] {
            let pipelined = QueryPipeline::run(&cluster, window, &queries).unwrap();
            assert_eq!(&pipelined, &sequential, "window {window}");
        }
    });
}

#[test]
fn pipelined_tprivate_matches_sequential_under_chaos() {
    sweep(12, |rng| {
        let intensity = rng.gen_range(0.0f64..1.0);
        let code = TPrivateCode::<Fp61>::new(6, 2, 2, rng).unwrap();
        let devices = code.device_count();
        let a = Matrix::<Fp61>::random(6, 4, rng);
        let plan = ChaosPlan::generate(devices, intensity, rng.gen());
        let behaviors = respond_always_behaviors(&plan);
        let cluster = TPrivateCluster::launch(code, &a, rng, &behaviors).unwrap();
        let queries: Vec<Vector<Fp61>> = (0..5).map(|_| Vector::random(4, rng)).collect();
        let sequential: Vec<_> = queries.iter().map(|x| cluster.query(x).unwrap()).collect();
        for window in [1usize, 4, 16] {
            let pipelined = QueryPipeline::run(&cluster, window, &queries).unwrap();
            assert_eq!(&pipelined, &sequential, "window {window}");
        }
    });
}

#[test]
fn pipelined_straggler_matches_sequential() {
    sweep(12, |rng| {
        let m = rng.gen_range(2usize..8);
        let slow_device = rng.gen_range(0usize..4);
        let r = (1 + m / 2).min(m);
        let base = CodeDesign::new(m, r).unwrap();
        let code = StragglerCode::<Fp61>::new(base, r, rng).unwrap();
        let l = 3;
        let a = Matrix::<Fp61>::random(m, l, rng);
        let device_count = code.device_count();
        let mut delays = vec![Duration::ZERO; device_count];
        if slow_device < device_count {
            delays[slow_device] = Duration::from_millis(20);
        }
        let cluster = StragglerCluster::launch(code, &a, rng, &delays).unwrap();
        let queries: Vec<Vector<Fp61>> = (0..5).map(|_| Vector::random(l, rng)).collect();
        // Responder sets are arrival-order dependent either way; the
        // decoded values are what the protocol guarantees.
        let sequential: Vec<_> = queries
            .iter()
            .map(|x| cluster.query(x).unwrap().value)
            .collect();
        for window in [1usize, 4, 16] {
            let pipelined: Vec<_> = QueryPipeline::run(&cluster, window, &queries)
                .unwrap()
                .into_iter()
                .map(|r| r.value)
                .collect();
            assert_eq!(&pipelined, &sequential, "window {window}");
        }
    });
}

#[test]
fn pipelined_supervised_matches_sequential_under_chaos() {
    sweep(12, |rng| {
        let seed: u64 = rng.gen();
        let intensity = rng.gen_range(0.0f64..0.8);
        let devices = 6;
        let plan = ChaosPlan::generate(devices, intensity, seed);
        let behaviors = supervised_behaviors(&plan);
        // Two identically-seeded fleets: one serves sequentially, the
        // other through the pipeline, under the same chaos plan.
        let make = || {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = Matrix::<Fp61>::random(6, 4, &mut rng);
            let costs: Vec<f64> = (0..devices).map(|p| 1.0 + 0.25 * p as f64).collect();
            let config = SupervisorConfig::default()
                .with_deadline(Duration::from_millis(500))
                .with_backoff(Duration::from_millis(2), 0.5)
                .with_thresholds(1, 2);
            let cluster =
                SupervisedCluster::launch(&a, &costs, &behaviors, config, &mut rng).unwrap();
            (a, cluster)
        };
        let (a, seq_cluster) = make();
        let (_, pip_cluster) = make();
        let mut qrng = StdRng::seed_from_u64(seed ^ 0x5CEC_9192);
        let queries: Vec<Vector<Fp61>> = (0..5).map(|_| Vector::random(4, &mut qrng)).collect();
        let want: Vec<_> = queries.iter().map(|x| a.matvec(x).unwrap()).collect();
        // Supervision guarantees the *correct* value through crashes,
        // drops, omissions, and Byzantine corruption — pipelined and
        // sequential must both land on it.
        let sequential: Vec<_> = queries
            .iter()
            .map(|x| seq_cluster.query(x).unwrap().value)
            .collect();
        let pipelined: Vec<_> = QueryPipeline::run(&pip_cluster, 4, &queries)
            .unwrap()
            .into_iter()
            .map(|r| r.value)
            .collect();
        assert_eq!(&sequential, &want);
        assert_eq!(&pipelined, &want);
    });
}

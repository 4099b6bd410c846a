//! Monte-Carlo evaluation machinery.
//!
//! Every point of every figure is the average of `instances` random
//! fleets. Instances are sharded deterministically across worker threads
//! (`std::thread::scope`), so results are identical regardless of the
//! machine's core count.

use rand::Rng;

use scec_allocation::{baselines, bound, ta, EdgeFleet};
use scec_sim::{CostDistribution, InstanceGenerator};

/// Mean total cost of each curve at one sweep point.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AlgoCosts {
    /// Theorem 1's lower bound `c^L` (not an algorithm — a floor).
    pub lower_bound: f64,
    /// The optimal scheme (TA1 ≡ TA2 + the structured code).
    pub mcscec: f64,
    /// The insecure floor `TAw/oS`.
    pub ta_without_security: f64,
    /// Smallest feasible `r` (most devices).
    pub max_node: f64,
    /// `r = m` (two devices).
    pub min_node: f64,
    /// Uniformly random feasible `r`.
    pub r_node: f64,
}

impl AlgoCosts {
    /// Component-wise sum (used to accumulate across instances).
    pub fn accumulate(&mut self, other: &AlgoCosts) {
        self.lower_bound += other.lower_bound;
        self.mcscec += other.mcscec;
        self.ta_without_security += other.ta_without_security;
        self.max_node += other.max_node;
        self.min_node += other.min_node;
        self.r_node += other.r_node;
    }

    /// Component-wise division by a count.
    pub fn scale_down(&mut self, n: f64) {
        self.lower_bound /= n;
        self.mcscec /= n;
        self.ta_without_security /= n;
        self.max_node /= n;
        self.min_node /= n;
        self.r_node /= n;
    }

    /// The six values in the canonical column order
    /// `[LB, MCSCEC, TAw/oS, MaxNode, MinNode, RNode]`.
    pub fn as_array(&self) -> [f64; 6] {
        [
            self.lower_bound,
            self.mcscec,
            self.ta_without_security,
            self.max_node,
            self.min_node,
            self.r_node,
        ]
    }

    /// Canonical column labels matching [`AlgoCosts::as_array`].
    pub fn labels() -> [&'static str; 6] {
        ["LB", "MCSCEC", "TAw/oS", "MaxNode", "MinNode", "RNode"]
    }
}

/// Evaluates every curve on one concrete fleet.
///
/// # Panics
///
/// Panics when `m == 0` (figure grids never produce that).
pub fn evaluate_instance<R: Rng + ?Sized>(m: usize, fleet: &EdgeFleet, rng: &mut R) -> AlgoCosts {
    AlgoCosts {
        lower_bound: bound::lower_bound(m, fleet).expect("m >= 1"),
        mcscec: ta::ta1(m, fleet).expect("m >= 1").total_cost(),
        ta_without_security: baselines::ta_without_security(m, fleet)
            .expect("m >= 1")
            .total_cost(),
        max_node: baselines::max_node(m, fleet).expect("m >= 1").total_cost(),
        min_node: baselines::min_node(m, fleet).expect("m >= 1").total_cost(),
        r_node: baselines::r_node(m, fleet, rng)
            .expect("m >= 1")
            .total_cost(),
    }
}

/// Deterministic, parallel Monte-Carlo averaging.
#[derive(Debug, Clone, Copy)]
pub struct MonteCarlo {
    instances: usize,
    seed: u64,
}

impl MonteCarlo {
    /// Creates a runner averaging `instances` fleets per point, seeded for
    /// reproducibility.
    pub fn new(instances: usize, seed: u64) -> Self {
        assert!(instances >= 1, "need at least one instance");
        MonteCarlo { instances, seed }
    }

    /// The number of instances averaged per point.
    pub fn instances(&self) -> usize {
        self.instances
    }

    /// Averages all curves over random fleets of `k` devices with unit
    /// costs from `dist` and data size `m`.
    pub fn run_point(&self, m: usize, k: usize, dist: CostDistribution) -> AlgoCosts {
        // Deterministic sharding: fork one generator per shard from a
        // master seeded by (seed, m, k) so points are independent.
        let master_seed = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((m as u64) << 24)
            .wrapping_add(k as u64);
        let mut master = InstanceGenerator::from_seed(master_seed);
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .min(self.instances);
        let base = self.instances / threads;
        let extra = self.instances % threads;
        let shards: Vec<(usize, InstanceGenerator)> = (0..threads)
            .map(|t| (base + usize::from(t < extra), master.fork()))
            .collect();

        let mut total = AlgoCosts::default();
        std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .into_iter()
                .map(|(count, mut gen)| {
                    scope.spawn(move || {
                        let mut acc = AlgoCosts::default();
                        for _ in 0..count {
                            let fleet = gen.fleet(k, dist);
                            let costs = evaluate_instance(m, &fleet, gen.rng());
                            acc.accumulate(&costs);
                        }
                        acc
                    })
                })
                .collect();
            for h in handles {
                total.accumulate(&h.join().expect("worker panicked"));
            }
        });
        total.scale_down(self.instances as f64);
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn instance_ordering_invariants() {
        let mut rng = StdRng::seed_from_u64(1);
        let fleet = EdgeFleet::from_unit_costs(vec![1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        let c = evaluate_instance(50, &fleet, &mut rng);
        assert!(c.lower_bound <= c.mcscec + 1e-9);
        assert!(c.mcscec <= c.max_node + 1e-9);
        assert!(c.mcscec <= c.min_node + 1e-9);
        assert!(c.mcscec <= c.r_node + 1e-9);
        assert!(c.ta_without_security <= c.mcscec + 1e-9);
    }

    #[test]
    fn run_point_is_deterministic() {
        let mc = MonteCarlo::new(20, 42);
        let a = mc.run_point(100, 10, CostDistribution::uniform(5.0));
        let b = mc.run_point(100, 10, CostDistribution::uniform(5.0));
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_give_different_points() {
        let a = MonteCarlo::new(20, 1).run_point(100, 10, CostDistribution::uniform(5.0));
        let b = MonteCarlo::new(20, 2).run_point(100, 10, CostDistribution::uniform(5.0));
        assert_ne!(a, b);
    }

    #[test]
    fn mean_preserves_ordering() {
        let mc = MonteCarlo::new(50, 3);
        let p = mc.run_point(200, 15, CostDistribution::normal(5.0, 1.25));
        assert!(p.lower_bound <= p.mcscec + 1e-9);
        assert!(p.mcscec <= p.max_node + 1e-9);
        assert!(p.mcscec <= p.min_node + 1e-9);
        assert!(p.mcscec <= p.r_node + 1e-9);
    }

    #[test]
    fn accumulate_and_scale() {
        let mut a = AlgoCosts {
            lower_bound: 1.0,
            mcscec: 2.0,
            ta_without_security: 3.0,
            max_node: 4.0,
            min_node: 5.0,
            r_node: 6.0,
        };
        let b = a;
        a.accumulate(&b);
        a.scale_down(2.0);
        assert_eq!(a, b);
        assert_eq!(a.as_array(), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(AlgoCosts::labels()[1], "MCSCEC");
    }

    #[test]
    fn single_instance_single_thread() {
        let mc = MonteCarlo::new(1, 9);
        let p = mc.run_point(10, 3, CostDistribution::uniform(2.0));
        assert!(p.mcscec > 0.0);
        assert_eq!(mc.instances(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one instance")]
    fn zero_instances_panics() {
        let _ = MonteCarlo::new(0, 1);
    }
}

//! Deadline-aware task allocation.
//!
//! The paper optimizes cost alone and notes (Remark 1) that the
//! per-device load cap `V(B_j) ≤ r` also bounds completion time. This
//! module closes the loop: among all feasible `r` (Theorem 2's range),
//! find the **cheapest allocation whose simulated completion time meets a
//! deadline**. Cost comes from the allocation layer's canonical-plan
//! formula; time comes from the discrete-event protocol simulation over
//! the fleet's timing profiles.

use scec_allocation::{ta, AllocationPlan, EdgeFleet};
use scec_coding::CodeDesign;

use crate::error::{Error, Result};
use crate::event::{DeviceProfile, NetworkModel, ProtocolSimulator};

/// The outcome of deadline-aware planning.
#[derive(Debug, Clone, PartialEq)]
pub struct DeadlinePlan {
    /// Chosen number of random rows.
    pub r: usize,
    /// Participating devices `i = ⌈(m+r)/r⌉`.
    pub devices: usize,
    /// The allocation's total cost `Σ V(B_j)·c_j`.
    pub total_cost: f64,
    /// Simulated completion time, seconds.
    pub completion_time: f64,
    /// The unconstrained optimum's cost, for reporting the premium paid
    /// for the deadline.
    pub unconstrained_cost: f64,
}

impl DeadlinePlan {
    /// Relative extra cost over the unconstrained optimum
    /// (`0.0` when the deadline is loose enough not to bind).
    pub fn deadline_premium(&self) -> f64 {
        (self.total_cost - self.unconstrained_cost) / self.unconstrained_cost
    }
}

/// Plans allocations under a completion-time deadline.
///
/// `profiles[p]` is the timing profile of the `p`-th **cheapest** device
/// (aligned with the fleet's sorted order), so an allocation using `i`
/// devices is simulated over `profiles[..i]`.
///
/// # Example
///
/// ```
/// use scec_allocation::EdgeFleet;
/// use scec_sim::event::DeviceProfile;
/// use scec_sim::planner::DeadlinePlanner;
///
/// let fleet = EdgeFleet::from_unit_costs(vec![1.0, 2.0, 3.0, 4.0, 5.0])?;
/// let profiles = vec![DeviceProfile::default_edge(); 5];
/// let planner = DeadlinePlanner::new(&fleet, &profiles, 1e-9)?;
/// let plan = planner.plan(100, 64, 1.0)?; // a loose 1-second deadline
/// // Loose deadlines reproduce the unconstrained optimum.
/// assert!(plan.deadline_premium() < 1e-9);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct DeadlinePlanner<'a> {
    fleet: &'a EdgeFleet,
    profiles: &'a [DeviceProfile],
    user_per_op_time: f64,
}

impl<'a> DeadlinePlanner<'a> {
    /// Creates a planner.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DeviceCountMismatch`] when fewer profiles than
    /// fleet devices are supplied, or [`Error::InvalidTiming`] for bad
    /// profiles.
    pub fn new(
        fleet: &'a EdgeFleet,
        profiles: &'a [DeviceProfile],
        user_per_op_time: f64,
    ) -> Result<Self> {
        if profiles.len() < fleet.len() {
            return Err(Error::DeviceCountMismatch {
                model: profiles.len(),
                design: fleet.len(),
            });
        }
        for p in profiles {
            p.validate()?;
        }
        if !user_per_op_time.is_finite() || user_per_op_time < 0.0 {
            return Err(Error::InvalidTiming {
                what: "user_per_op_time",
                value: user_per_op_time,
            });
        }
        Ok(DeadlinePlanner {
            fleet,
            profiles,
            user_per_op_time,
        })
    }

    /// Simulated completion time of the canonical allocation for a given
    /// `r`.
    ///
    /// # Errors
    ///
    /// Propagates simulation-model failures (cannot occur for feasible
    /// `r` once the planner is constructed).
    pub fn completion_for(&self, m: usize, width: usize, r: usize) -> Result<f64> {
        let design = CodeDesign::new(m, r).map_err(|_| Error::DeviceCountMismatch {
            model: self.profiles.len(),
            design: 0,
        })?;
        let i = design.device_count();
        let model =
            NetworkModel::heterogeneous(self.profiles[..i].to_vec(), self.user_per_op_time)?;
        let report = ProtocolSimulator::new(model).simulate(&design, width)?;
        Ok(report.completion_time)
    }

    /// Finds the cheapest feasible allocation completing within
    /// `deadline` seconds.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DeadlineUnreachable`] (carrying the best
    /// achievable time) when no feasible `r` meets the deadline.
    pub fn plan(&self, m: usize, width: usize, deadline: f64) -> Result<DeadlinePlan> {
        let k = self.fleet.len();
        let min_r = m.div_ceil(k - 1);
        let unconstrained = ta::ta1(m, self.fleet).map_err(|_| Error::DeviceCountMismatch {
            model: k,
            design: 0,
        })?;
        let mut best: Option<DeadlinePlan> = None;
        let mut fastest = f64::INFINITY;
        for r in min_r..=m {
            let completion = self.completion_for(m, width, r)?;
            fastest = fastest.min(completion);
            if completion > deadline {
                continue;
            }
            let plan = AllocationPlan::canonical(m, r, self.fleet).expect("r in feasible range");
            let candidate = DeadlinePlan {
                r,
                devices: plan.device_count(),
                total_cost: plan.total_cost(),
                completion_time: completion,
                unconstrained_cost: unconstrained.total_cost(),
            };
            let better = match &best {
                None => true,
                Some(b) => candidate.total_cost < b.total_cost,
            };
            if better {
                best = Some(candidate);
            }
        }
        best.ok_or(Error::DeadlineUnreachable { deadline, fastest })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (EdgeFleet, Vec<DeviceProfile>) {
        let fleet = EdgeFleet::from_unit_costs(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        // Homogeneous compute-bound profiles so completion is monotone in
        // the per-device load.
        let profile = DeviceProfile {
            latency: 1e-4,
            per_value_time: 1e-8,
            per_op_time: 1e-6,
        };
        (fleet, vec![profile; 6])
    }

    #[test]
    fn loose_deadline_reproduces_the_unconstrained_optimum() {
        let (fleet, profiles) = setup();
        let planner = DeadlinePlanner::new(&fleet, &profiles, 1e-9).unwrap();
        let plan = planner.plan(60, 32, 10.0).unwrap();
        let opt = ta::ta1(60, &fleet).unwrap();
        assert!((plan.total_cost - opt.total_cost()).abs() < 1e-9);
        assert!(plan.deadline_premium().abs() < 1e-12);
    }

    #[test]
    fn tight_deadline_forces_more_devices_at_higher_cost() {
        let (fleet, profiles) = setup();
        let planner = DeadlinePlanner::new(&fleet, &profiles, 1e-9).unwrap();
        let m = 60;
        let width = 32;
        // Unconstrained optimum for an increasing-cost fleet concentrates
        // load; find its completion time, then demand strictly better.
        let opt = ta::ta1(m, &fleet).unwrap();
        let opt_time = planner.completion_for(m, width, opt.random_rows()).unwrap();
        let fastest = (m.div_ceil(fleet.len() - 1)..=m)
            .map(|r| planner.completion_for(m, width, r).unwrap())
            .fold(f64::INFINITY, f64::min);
        assert!(fastest < opt_time, "no room for a binding deadline");
        let deadline = fastest * 1.05;
        let plan = planner.plan(m, width, deadline).unwrap();
        assert!(plan.completion_time <= deadline);
        assert!(plan.total_cost >= opt.total_cost() - 1e-9);
        assert!(plan.devices >= opt.device_count());
        assert!(plan.deadline_premium() >= 0.0);
    }

    #[test]
    fn impossible_deadline_reports_fastest() {
        let (fleet, profiles) = setup();
        let planner = DeadlinePlanner::new(&fleet, &profiles, 1e-9).unwrap();
        match planner.plan(60, 32, 1e-12) {
            Err(Error::DeadlineUnreachable { fastest, .. }) => {
                assert!(fastest > 1e-12);
            }
            other => panic!("expected DeadlineUnreachable, got {other:?}"),
        }
    }

    #[test]
    fn validation() {
        let (fleet, profiles) = setup();
        assert!(DeadlinePlanner::new(&fleet, &profiles[..3], 1e-9).is_err());
        assert!(DeadlinePlanner::new(&fleet, &profiles, f64::NAN).is_err());
        let mut bad = profiles.clone();
        bad[0].latency = -1.0;
        assert!(DeadlinePlanner::new(&fleet, &bad, 1e-9).is_err());
    }
}

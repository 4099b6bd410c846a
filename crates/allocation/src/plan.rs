//! Allocation plans: who stores how many coded rows, and at what cost.

use crate::cost::EdgeFleet;
use crate::error::{Error, Result};

/// The outcome of a task-allocation algorithm.
///
/// A plan fixes the number of random rows `r`, the set of participating
/// devices (always a prefix of the fleet sorted by unit cost — Lemma 2
/// shows an optimal solution of this shape exists), and each participant's
/// load `V(B_j)` in coded rows. The paper's objective value
/// `c = Σ_j V(B_j)·c_j` is precomputed as [`total_cost`](Self::total_cost).
///
/// # Example
///
/// ```
/// use scec_allocation::{AllocationPlan, EdgeFleet};
///
/// let fleet = EdgeFleet::from_unit_costs(vec![1.0, 2.0, 3.0])?;
/// // m = 4 data rows blinded with r = 2 random rows: 6 coded rows over
/// // i = ⌈(4+2)/2⌉ = 3 devices with loads [2, 2, 2].
/// let plan = AllocationPlan::canonical(4, 2, &fleet)?;
/// assert_eq!(plan.loads(), &[2, 2, 2]);
/// assert_eq!(plan.total_cost(), 2.0 * 1.0 + 2.0 * 2.0 + 2.0 * 3.0);
/// # Ok::<(), scec_allocation::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AllocationPlan {
    m: usize,
    r: usize,
    loads: Vec<usize>,
    total_cost: f64,
}

impl AllocationPlan {
    /// Builds the canonical plan of Lemma 2 for a given `r`: the first
    /// `i − 1` cheapest devices each take `r` rows and device `i` takes the
    /// remainder `m − (i−2)·r`, where `i = ⌈(m+r)/r⌉`.
    ///
    /// # Errors
    ///
    /// * [`Error::EmptyData`] when `m == 0`;
    /// * [`Error::InfeasibleRandomRows`] when `r` lies outside Theorem 2's
    ///   feasible range `⌈m/(k−1)⌉ ≤ r ≤ m`.
    pub fn canonical(m: usize, r: usize, fleet: &EdgeFleet) -> Result<Self> {
        if m == 0 {
            return Err(Error::EmptyData);
        }
        let k = fleet.len();
        let min_r = m.div_ceil(k - 1);
        if r < min_r || r > m {
            return Err(Error::InfeasibleRandomRows {
                r,
                min: min_r,
                max: m,
            });
        }
        let i = (m + r).div_ceil(r);
        debug_assert!(i >= 2 && i <= k);
        let last = (m + r) - (i - 1) * r;
        debug_assert!(last >= 1 && last <= r);
        let mut loads = vec![r; i - 1];
        loads.push(last);
        let total_cost = loads
            .iter()
            .enumerate()
            .map(|(p, &v)| v as f64 * fleet.c(p + 1))
            .sum();
        Ok(AllocationPlan {
            m,
            r,
            loads,
            total_cost,
        })
    }

    /// Builds an explicit (possibly non-canonical) plan from raw loads over
    /// the cheapest devices. Used by the `TAw/oS` baseline, which ignores
    /// the security cap.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyData`] when `m == 0` or `loads` is empty.
    pub fn from_loads(m: usize, r: usize, loads: Vec<usize>, fleet: &EdgeFleet) -> Result<Self> {
        if m == 0 || loads.is_empty() {
            return Err(Error::EmptyData);
        }
        let total_cost = loads
            .iter()
            .enumerate()
            .map(|(p, &v)| v as f64 * fleet.c(p + 1))
            .sum();
        Ok(AllocationPlan {
            m,
            r,
            loads,
            total_cost,
        })
    }

    /// Number of data rows `m`.
    #[inline]
    pub fn data_rows(&self) -> usize {
        self.m
    }

    /// Number of random blinding rows `r` (zero for insecure baselines).
    #[inline]
    pub fn random_rows(&self) -> usize {
        self.r
    }

    /// Number of participating devices `i`.
    #[inline]
    pub fn device_count(&self) -> usize {
        self.loads.len()
    }

    /// Per-device loads `V(B_j)`, cheapest device first.
    #[inline]
    pub fn loads(&self) -> &[usize] {
        &self.loads
    }

    /// Total number of coded rows distributed (`m + r` for secure plans).
    pub fn total_rows(&self) -> usize {
        self.loads.iter().sum()
    }

    /// The objective value `c = Σ_j V(B_j)·c_j`.
    #[inline]
    pub fn total_cost(&self) -> f64 {
        self.total_cost
    }

    /// Whether this plan respects the security cap of Lemma 1
    /// (`V(B_j) ≤ r` for every device, with `r ≥ 1`).
    pub fn satisfies_security_cap(&self) -> bool {
        self.r >= 1 && self.loads.iter().all(|&v| v <= self.r)
    }

    /// Maps the plan's loads back to the caller's device identifiers:
    /// `(original_device_index, coded_rows)` per participating device.
    ///
    /// Loads are stored against the fleet's *sorted* positions (cheapest
    /// first); deployment tooling needs the identifiers the caller used
    /// when constructing the fleet.
    ///
    /// # Example
    ///
    /// ```
    /// use scec_allocation::{AllocationPlan, EdgeFleet};
    ///
    /// // Caller order: device 0 is expensive, device 1 is cheap.
    /// let fleet = EdgeFleet::from_unit_costs(vec![5.0, 1.0])?;
    /// let plan = AllocationPlan::canonical(3, 3, &fleet)?;
    /// let assignments = plan.device_assignments(&fleet);
    /// // The heavier role lands on the cheap device, i.e. caller index 1.
    /// assert_eq!(assignments[0], (1, 3));
    /// assert_eq!(assignments[1], (0, 3));
    /// # Ok::<(), scec_allocation::Error>(())
    /// ```
    pub fn device_assignments(&self, fleet: &EdgeFleet) -> Vec<(usize, usize)> {
        self.loads
            .iter()
            .enumerate()
            .map(|(pos, &load)| (fleet.device_id(pos), load))
            .collect()
    }

    /// Re-derives the cost against a fleet; used by tests to confirm the
    /// cached value.
    pub fn recompute_cost(&self, fleet: &EdgeFleet) -> f64 {
        self.loads
            .iter()
            .enumerate()
            .map(|(p, &v)| v as f64 * fleet.c(p + 1))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet5() -> EdgeFleet {
        EdgeFleet::from_unit_costs(vec![1.0, 2.0, 3.0, 4.0, 5.0]).unwrap()
    }

    #[test]
    fn canonical_shape_matches_lemma_2() {
        let fleet = fleet5();
        let plan = AllocationPlan::canonical(10, 3, &fleet).unwrap();
        // i = ceil(13/3) = 5, loads = [3,3,3,3,1]
        assert_eq!(plan.loads(), &[3, 3, 3, 3, 1]);
        assert_eq!(plan.total_rows(), 13);
        assert_eq!(plan.device_count(), 5);
        assert!(plan.satisfies_security_cap());
        assert_eq!(plan.random_rows(), 3);
        assert_eq!(plan.data_rows(), 10);
    }

    #[test]
    fn canonical_cost_is_cheapest_first() {
        let fleet = fleet5();
        let plan = AllocationPlan::canonical(4, 2, &fleet).unwrap();
        assert_eq!(plan.loads(), &[2, 2, 2]);
        assert!((plan.total_cost() - 12.0).abs() < 1e-12);
        assert!((plan.recompute_cost(&fleet) - plan.total_cost()).abs() < 1e-12);
    }

    #[test]
    fn canonical_r_equals_m_uses_two_devices() {
        let fleet = fleet5();
        let plan = AllocationPlan::canonical(7, 7, &fleet).unwrap();
        assert_eq!(plan.loads(), &[7, 7]);
        assert_eq!(plan.device_count(), 2);
    }

    #[test]
    fn canonical_rejects_infeasible_r() {
        let fleet = fleet5();
        // min feasible r = ceil(10/4) = 3
        assert!(matches!(
            AllocationPlan::canonical(10, 2, &fleet),
            Err(Error::InfeasibleRandomRows {
                min: 3,
                max: 10,
                ..
            })
        ));
        assert!(matches!(
            AllocationPlan::canonical(10, 11, &fleet),
            Err(Error::InfeasibleRandomRows { .. })
        ));
        assert!(matches!(
            AllocationPlan::canonical(0, 1, &fleet),
            Err(Error::EmptyData)
        ));
    }

    #[test]
    fn from_loads_insecure_plan() {
        let fleet = fleet5();
        let plan = AllocationPlan::from_loads(6, 0, vec![3, 3], &fleet).unwrap();
        assert!(!plan.satisfies_security_cap());
        assert_eq!(plan.total_rows(), 6);
        assert!((plan.total_cost() - 9.0).abs() < 1e-12);
        assert!(AllocationPlan::from_loads(0, 0, vec![1], &fleet).is_err());
        assert!(AllocationPlan::from_loads(5, 0, vec![], &fleet).is_err());
    }

    #[test]
    fn last_device_load_is_in_range() {
        let fleet = EdgeFleet::from_unit_costs(vec![1.0; 30]).unwrap();
        for m in [1usize, 2, 5, 17, 100] {
            let min_r = m.div_ceil(29);
            for r in min_r..=m {
                let plan = AllocationPlan::canonical(m, r, &fleet).unwrap();
                let last = *plan.loads().last().unwrap();
                assert!(last >= 1 && last <= r, "m={m} r={r} last={last}");
                assert_eq!(plan.total_rows(), m + r);
                assert!(plan.satisfies_security_cap());
            }
        }
    }
}

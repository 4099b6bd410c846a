//! The resource cost model of the paper's Eq. (1).
//!
//! Each edge device `s_j` prices four resources: storing one field element
//! (`c_j^s`), one addition (`c_j^a`), one multiplication (`c_j^m`), and
//! shipping one intermediate value back to the user (`c_j^d`). For a data
//! matrix with `l` columns, handling one coded row costs
//!
//! ```text
//! c_j = (l + 1)·c_j^s + l·c_j^m + (l − 1)·c_j^a + c_j^d        (Eq. 1)
//! ```
//!
//! plus a fixed per-device term `l·c_j^s` (storing the input vector `x`)
//! that does not depend on the allocation and therefore drops out of the
//! optimization. [`EdgeFleet`] reduces a fleet to the sorted unit-cost
//! vector the algorithms work on, remembering the original device order.

use crate::error::{Error, Result};

/// Component resource prices of a single edge device.
///
/// # Example
///
/// ```
/// use scec_allocation::DeviceCost;
///
/// let dev = DeviceCost::new(0.01, 0.001, 0.002, 0.5)?;
/// // Unit cost per coded row for a 100-column data matrix (Eq. 1):
/// let c = dev.unit_cost(100);
/// assert!((c - (101.0 * 0.01 + 100.0 * 0.002 + 99.0 * 0.001 + 0.5)).abs() < 1e-12);
/// # Ok::<(), scec_allocation::Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceCost {
    storage: f64,
    add: f64,
    mul: f64,
    comm: f64,
}

impl DeviceCost {
    /// Creates a device cost profile.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDeviceCost`] when any price is negative or
    /// non-finite, or when `add > mul` (the model assumes `c_a ≤ c_m`).
    pub fn new(storage: f64, add: f64, mul: f64, comm: f64) -> Result<Self> {
        for v in [storage, add, mul, comm] {
            if !v.is_finite() || v < 0.0 {
                return Err(Error::InvalidDeviceCost {
                    reason: "prices must be finite and non-negative",
                });
            }
        }
        if add > mul {
            return Err(Error::InvalidDeviceCost {
                reason: "addition price must not exceed multiplication price (c_a <= c_m)",
            });
        }
        Ok(DeviceCost {
            storage,
            add,
            mul,
            comm,
        })
    }

    /// Per-element storage price `c_j^s`.
    pub fn storage(&self) -> f64 {
        self.storage
    }

    /// Per-addition price `c_j^a`.
    pub fn add(&self) -> f64 {
        self.add
    }

    /// Per-multiplication price `c_j^m`.
    pub fn mul(&self) -> f64 {
        self.mul
    }

    /// Per-value communication price `c_j^d`.
    pub fn comm(&self) -> f64 {
        self.comm
    }

    /// The unit cost of handling one coded row of an `m × l` data matrix:
    /// Eq. (1)'s `c_j = (l+1)c_j^s + l·c_j^m + (l−1)c_j^a + c_j^d`.
    pub fn unit_cost(&self, l: usize) -> f64 {
        let l = l as f64;
        (l + 1.0) * self.storage + l * self.mul + (l - 1.0) * self.add + self.comm
    }

    /// The allocation-independent fixed cost `l·c_j^s` of storing the input
    /// vector `x`, excluded from the optimization objective.
    pub fn fixed_cost(&self, l: usize) -> f64 {
        l as f64 * self.storage
    }
}

/// A fleet of edge devices reduced to sorted unit costs.
///
/// The paper assumes WLOG `c_1 ≤ c_2 ≤ … ≤ c_k`; `EdgeFleet` enforces the
/// sort and keeps the permutation so allocations can be mapped back to the
/// caller's device identifiers.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeFleet {
    /// Unit costs, ascending.
    sorted_costs: Vec<f64>,
    /// `device_ids[p]` is the caller-facing index of the device at sorted
    /// position `p`.
    device_ids: Vec<usize>,
    /// Prefix sums: `prefix[p] = c_1 + … + c_p` (1-based length `k+1`,
    /// `prefix[0] = 0`). Precomputed so TA2's exhaustive scan is O(1) per
    /// candidate `r`.
    prefix: Vec<f64>,
}

impl EdgeFleet {
    /// Builds a fleet directly from unit costs (one per device, in caller
    /// order).
    ///
    /// # Errors
    ///
    /// * [`Error::TooFewDevices`] when fewer than two costs are given;
    /// * [`Error::InvalidUnitCost`] when a cost is non-positive or
    ///   non-finite.
    pub fn from_unit_costs(costs: Vec<f64>) -> Result<Self> {
        if costs.len() < 2 {
            return Err(Error::TooFewDevices { got: costs.len() });
        }
        for (index, &value) in costs.iter().enumerate() {
            if !value.is_finite() || value <= 0.0 {
                return Err(Error::InvalidUnitCost { index, value });
            }
        }
        let mut order: Vec<usize> = (0..costs.len()).collect();
        order.sort_by(|&a, &b| {
            costs[a]
                .partial_cmp(&costs[b])
                .expect("finite costs are comparable")
        });
        let sorted_costs: Vec<f64> = order.iter().map(|&i| costs[i]).collect();
        let mut prefix = Vec::with_capacity(sorted_costs.len() + 1);
        prefix.push(0.0);
        let mut acc = 0.0;
        for &c in &sorted_costs {
            acc += c;
            prefix.push(acc);
        }
        Ok(EdgeFleet {
            sorted_costs,
            device_ids: order,
            prefix,
        })
    }

    /// Builds a fleet from full component prices and the data-matrix width
    /// `l`, applying Eq. (1).
    ///
    /// # Errors
    ///
    /// Propagates the validation errors of [`EdgeFleet::from_unit_costs`].
    pub fn from_device_costs(devices: &[DeviceCost], l: usize) -> Result<Self> {
        EdgeFleet::from_unit_costs(devices.iter().map(|d| d.unit_cost(l)).collect())
    }

    /// The number of devices `k`.
    #[inline]
    pub fn len(&self) -> usize {
        self.sorted_costs.len()
    }

    /// Whether the fleet is empty (never true for a constructed fleet).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.sorted_costs.is_empty()
    }

    /// The unit cost of the `j`-th cheapest device, **1-based** to match
    /// the paper's `c_j` notation.
    ///
    /// # Panics
    ///
    /// Panics when `j == 0` or `j > self.len()`.
    #[inline]
    pub fn c(&self, j: usize) -> f64 {
        assert!(
            j >= 1 && j <= self.sorted_costs.len(),
            "1-based index {j} out of range"
        );
        self.sorted_costs[j - 1]
    }

    /// `c_1 + … + c_j` (1-based, `j = 0` gives 0).
    ///
    /// # Panics
    ///
    /// Panics when `j > self.len()`.
    #[inline]
    pub fn prefix_sum(&self, j: usize) -> f64 {
        self.prefix[j]
    }

    /// The sorted unit costs, ascending.
    pub fn sorted_costs(&self) -> &[f64] {
        &self.sorted_costs
    }

    /// Maps a sorted position (0-based) back to the caller's device index.
    ///
    /// # Panics
    ///
    /// Panics when `position >= self.len()`.
    pub fn device_id(&self, position: usize) -> usize {
        self.device_ids[position]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_cost_validation() {
        assert!(DeviceCost::new(1.0, 0.1, 0.2, 0.5).is_ok());
        assert!(DeviceCost::new(-1.0, 0.1, 0.2, 0.5).is_err());
        assert!(DeviceCost::new(1.0, 0.3, 0.2, 0.5).is_err()); // c_a > c_m
        assert!(DeviceCost::new(f64::NAN, 0.1, 0.2, 0.5).is_err());
        assert!(DeviceCost::new(1.0, 0.1, 0.2, f64::INFINITY).is_err());
        // Zero prices are allowed (a free resource).
        assert!(DeviceCost::new(0.0, 0.0, 0.0, 0.0).is_ok());
    }

    #[test]
    fn unit_cost_matches_eq_1() {
        let d = DeviceCost::new(2.0, 3.0, 5.0, 7.0).unwrap();
        let l = 10;
        let want = 11.0 * 2.0 + 10.0 * 5.0 + 9.0 * 3.0 + 7.0;
        assert!((d.unit_cost(l) - want).abs() < 1e-12);
        assert!((d.fixed_cost(l) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn accessors() {
        let d = DeviceCost::new(1.0, 2.0, 3.0, 4.0).unwrap();
        assert_eq!(d.storage(), 1.0);
        assert_eq!(d.add(), 2.0);
        assert_eq!(d.mul(), 3.0);
        assert_eq!(d.comm(), 4.0);
    }

    #[test]
    fn fleet_sorts_and_remembers_ids() {
        let fleet = EdgeFleet::from_unit_costs(vec![3.0, 1.0, 2.0]).unwrap();
        assert_eq!(fleet.sorted_costs(), &[1.0, 2.0, 3.0]);
        assert_eq!(fleet.device_id(0), 1);
        assert_eq!(fleet.device_id(1), 2);
        assert_eq!(fleet.device_id(2), 0);
        assert_eq!(fleet.len(), 3);
        assert!(!fleet.is_empty());
    }

    #[test]
    fn fleet_one_based_costs_and_prefix_sums() {
        let fleet = EdgeFleet::from_unit_costs(vec![1.0, 2.0, 4.0]).unwrap();
        assert_eq!(fleet.c(1), 1.0);
        assert_eq!(fleet.c(3), 4.0);
        assert_eq!(fleet.prefix_sum(0), 0.0);
        assert_eq!(fleet.prefix_sum(2), 3.0);
        assert_eq!(fleet.prefix_sum(3), 7.0);
    }

    #[test]
    fn fleet_validation() {
        assert!(matches!(
            EdgeFleet::from_unit_costs(vec![1.0]),
            Err(Error::TooFewDevices { got: 1 })
        ));
        assert!(matches!(
            EdgeFleet::from_unit_costs(vec![1.0, 0.0]),
            Err(Error::InvalidUnitCost { index: 1, .. })
        ));
        assert!(matches!(
            EdgeFleet::from_unit_costs(vec![1.0, -2.0]),
            Err(Error::InvalidUnitCost { index: 1, .. })
        ));
        assert!(EdgeFleet::from_unit_costs(vec![]).is_err());
    }

    #[test]
    fn fleet_from_device_costs() {
        let devices = vec![
            DeviceCost::new(0.1, 0.01, 0.02, 1.0).unwrap(),
            DeviceCost::new(0.05, 0.005, 0.01, 0.5).unwrap(),
        ];
        let fleet = EdgeFleet::from_device_costs(&devices, 100).unwrap();
        assert_eq!(fleet.len(), 2);
        // The second device is cheaper on every component, so it sorts first.
        assert_eq!(fleet.device_id(0), 1);
        assert!(fleet.c(1) < fleet.c(2));
    }

    #[test]
    #[should_panic(expected = "1-based index")]
    fn c_zero_panics() {
        let fleet = EdgeFleet::from_unit_costs(vec![1.0, 2.0]).unwrap();
        let _ = fleet.c(0);
    }

    #[test]
    fn ties_are_stable_enough() {
        let fleet = EdgeFleet::from_unit_costs(vec![2.0, 2.0, 1.0]).unwrap();
        assert_eq!(fleet.sorted_costs(), &[1.0, 2.0, 2.0]);
        assert_eq!(fleet.device_id(0), 2);
    }
}

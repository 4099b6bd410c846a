//! Resource accounting in the units of the paper's Eq. (1).
//!
//! For a device holding `V` coded rows of width `l`, one query costs
//!
//! * storage: `l` (input vector) + `V·l` (coded rows) + `V` (results),
//! * computation: `V·l` multiplications and `V·(l−1)` additions,
//! * communication: `V` values shipped back to the user.
//!
//! Multiplying by the component prices of a
//! [`DeviceCost`] reproduces Eq. (1) exactly,
//! which the tests assert. The experiment harness uses these to report
//! *measured* usage next to the allocation layer's *predicted* cost.

use scec_allocation::DeviceCost;

/// Resource usage of a single device for one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResourceUsage {
    /// Field elements resident on the device (`l + V·l + V`).
    pub stored_elements: usize,
    /// Scalar multiplications performed (`V·l`).
    pub multiplications: usize,
    /// Scalar additions performed (`V·(l−1)`).
    pub additions: usize,
    /// Values shipped back to the user (`V`).
    pub values_transferred: usize,
}

impl ResourceUsage {
    /// Usage of a device holding `load` coded rows of width `l`.
    pub fn for_device(load: usize, l: usize) -> Self {
        ResourceUsage {
            stored_elements: l + load * l + load,
            multiplications: load * l,
            additions: load * l.saturating_sub(1),
            values_transferred: load,
        }
    }

    /// Monetized cost under a device's component prices — the bracketed
    /// per-device term of Eq. (1), including the fixed `l·c^s` part.
    pub fn cost(&self, prices: &DeviceCost) -> f64 {
        self.stored_elements as f64 * prices.storage()
            + self.multiplications as f64 * prices.mul()
            + self.additions as f64 * prices.add()
            + self.values_transferred as f64 * prices.comm()
    }

    /// Component-wise sum.
    pub fn combined(self, other: ResourceUsage) -> ResourceUsage {
        ResourceUsage {
            stored_elements: self.stored_elements + other.stored_elements,
            multiplications: self.multiplications + other.multiplications,
            additions: self.additions + other.additions,
            values_transferred: self.values_transferred + other.values_transferred,
        }
    }
}

/// Usage across a whole deployment, with the user-side decode work.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SystemUsage {
    /// Per-device usage, in device order (cheapest first).
    pub per_device: Vec<ResourceUsage>,
    /// Subtractions the user performs to decode (`m` for the fast path).
    pub decode_subtractions: usize,
}

impl SystemUsage {
    /// Total usage summed over devices (decode work excluded — it happens
    /// on the user device, which Eq. (1) does not price).
    pub fn device_total(&self) -> ResourceUsage {
        self.per_device
            .iter()
            .fold(ResourceUsage::default(), |acc, &u| acc.combined(u))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_device_formulas() {
        let u = ResourceUsage::for_device(4, 10);
        assert_eq!(u.stored_elements, 10 + 40 + 4);
        assert_eq!(u.multiplications, 40);
        assert_eq!(u.additions, 36);
        assert_eq!(u.values_transferred, 4);
    }

    #[test]
    fn width_one_has_no_additions() {
        let u = ResourceUsage::for_device(5, 1);
        assert_eq!(u.additions, 0);
        assert_eq!(u.multiplications, 5);
    }

    #[test]
    fn cost_reproduces_eq_1() {
        // Eq. (1): ((l+1)c_s + l c_m + (l-1) c_a + c_d) V + l c_s.
        let prices = DeviceCost::new(0.3, 0.05, 0.07, 1.1).unwrap();
        let (v, l) = (6usize, 9usize);
        let via_usage = ResourceUsage::for_device(v, l).cost(&prices);
        let unit = prices.unit_cost(l);
        let via_eq1 = unit * v as f64 + prices.fixed_cost(l);
        assert!(
            (via_usage - via_eq1).abs() < 1e-12,
            "{via_usage} vs {via_eq1}"
        );
    }

    #[test]
    fn combined_and_total() {
        let a = ResourceUsage::for_device(2, 3);
        let b = ResourceUsage::for_device(1, 3);
        let c = a.combined(b);
        assert_eq!(c.values_transferred, 3);
        let sys = SystemUsage {
            per_device: vec![a, b],
            decode_subtractions: 5,
        };
        assert_eq!(sys.device_total(), c);
    }
}

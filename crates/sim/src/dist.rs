//! The unit-cost distributions of the paper's evaluation.
//!
//! Sec. V draws device unit costs from either `U(1, c_max)` or
//! `N(µ, σ²)`. Costs must stay strictly positive (the optimality analysis
//! requires `c_j > 0`), so normal samples are re-drawn until positive —
//! with the paper's default `µ = 5`, truncation is negligible even at
//! `σ = 2.5`.

use rand::Rng;

/// A distribution over device unit costs.
///
/// # Example
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use scec_sim::CostDistribution;
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let c = CostDistribution::uniform(5.0).sample(&mut rng);
/// assert!((1.0..5.0).contains(&c));
/// let n = CostDistribution::normal(5.0, 1.25).sample(&mut rng);
/// assert!(n > 0.0); // truncated positive
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum CostDistribution {
    /// Uniform on `[min, max)` — the paper's `U(1, c_max)`.
    Uniform {
        /// Inclusive lower edge (the paper fixes this at 1).
        min: f64,
        /// Exclusive upper edge `c_max`.
        max: f64,
    },
    /// Normal `N(mu, sigma²)` truncated to positive values.
    Normal {
        /// Mean `µ`.
        mu: f64,
        /// Standard deviation `σ`.
        sigma: f64,
    },
}

impl CostDistribution {
    /// The paper's uniform family with `min = 1`.
    pub fn uniform(c_max: f64) -> Self {
        CostDistribution::Uniform {
            min: 1.0,
            max: c_max,
        }
    }

    /// The paper's normal family.
    pub fn normal(mu: f64, sigma: f64) -> Self {
        CostDistribution::Normal { mu, sigma }
    }

    /// Draws one unit cost.
    ///
    /// # Panics
    ///
    /// Panics when the parameters are degenerate (`max <= min`,
    /// `sigma < 0`, or a non-positive `mu` that makes truncation
    /// non-terminating in practice).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            CostDistribution::Uniform { min, max } => {
                assert!(max > min && min > 0.0, "need 0 < min < max");
                rng.gen_range(min..max)
            }
            CostDistribution::Normal { mu, sigma } => {
                assert!(sigma >= 0.0, "sigma must be non-negative");
                assert!(mu > 0.0, "mu must be positive for truncated sampling");
                if sigma == 0.0 {
                    return mu;
                }
                // Box–Muller with rejection of non-positive samples.
                loop {
                    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                    let u2: f64 = rng.gen();
                    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                    let v = mu + sigma * z;
                    if v > 0.0 {
                        return v;
                    }
                }
            }
        }
    }

    /// Draws `n` unit costs.
    pub fn sample_many<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

impl std::fmt::Display for CostDistribution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CostDistribution::Uniform { min, max } => write!(f, "U({min}, {max})"),
            CostDistribution::Normal { mu, sigma } => write!(f, "N({mu}, {sigma}^2)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn uniform_stays_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = CostDistribution::uniform(5.0);
        for _ in 0..1000 {
            let v = d.sample(&mut rng);
            assert!((1.0..5.0).contains(&v));
        }
    }

    #[test]
    fn uniform_mean_is_midpoint() {
        let mut rng = StdRng::seed_from_u64(2);
        let d = CostDistribution::uniform(5.0);
        let n = 20_000;
        let mean: f64 = d.sample_many(n, &mut rng).iter().sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn normal_moments_match() {
        let mut rng = StdRng::seed_from_u64(3);
        let d = CostDistribution::normal(5.0, 1.25);
        let n = 50_000;
        let xs = d.sample_many(n, &mut rng);
        let mean: f64 = xs.iter().sum::<f64>() / n as f64;
        let var: f64 = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.05, "mean {mean}");
        assert!((var - 1.25f64.powi(2)).abs() < 0.1, "var {var}");
    }

    #[test]
    fn normal_is_truncated_positive() {
        let mut rng = StdRng::seed_from_u64(4);
        // Aggressive sigma: raw normal would often go negative.
        let d = CostDistribution::normal(1.0, 2.0);
        for _ in 0..5000 {
            assert!(d.sample(&mut rng) > 0.0);
        }
    }

    #[test]
    fn zero_sigma_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(5);
        let d = CostDistribution::normal(4.2, 0.0);
        assert_eq!(d.sample(&mut rng), 4.2);
    }

    #[test]
    fn display() {
        assert_eq!(CostDistribution::uniform(5.0).to_string(), "U(1, 5)");
        assert_eq!(
            CostDistribution::normal(5.0, 1.25).to_string(),
            "N(5, 1.25^2)"
        );
    }

    #[test]
    #[should_panic(expected = "0 < min < max")]
    fn degenerate_uniform_panics() {
        let mut rng = StdRng::seed_from_u64(6);
        let _ = CostDistribution::Uniform { min: 5.0, max: 1.0 }.sample(&mut rng);
    }

    #[test]
    #[should_panic(expected = "mu must be positive")]
    fn nonpositive_mu_panics() {
        let mut rng = StdRng::seed_from_u64(7);
        let _ = CostDistribution::normal(0.0, 1.0).sample(&mut rng);
    }
}

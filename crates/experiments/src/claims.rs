//! The paper's headline claims (Sec. I and Sec. V prose), computed from
//! the sweeps.
//!
//! * **T1** — MCSCEC's mean cost is within 0.5% of the lower bound when
//!   the parameters are large.
//! * **T2** — MCSCEC saves ≥ 43% / 18% / 13% vs MaxNode / MinNode / RNode
//!   at the large ends of the m / k / c_max sweeps, and the security
//!   premium over TAw/oS stays below ≈ 26% / 19% / 14% / 36% / 48% across
//!   the m / k / µ / c_max / σ sweeps.

use crate::figures::Sweep;
use crate::table::{fmt_f64, Table};

/// Relative gaps at one sweep point, as fractions (0.26 = 26%).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GapReport {
    /// The swept parameter's value.
    pub param: f64,
    /// `(MCSCEC − LB) / LB`.
    pub gap_to_lower_bound: f64,
    /// `(MaxNode − MCSCEC) / MaxNode` — savings vs MaxNode.
    pub savings_vs_max_node: f64,
    /// `(MinNode − MCSCEC) / MinNode`.
    pub savings_vs_min_node: f64,
    /// `(RNode − MCSCEC) / RNode`.
    pub savings_vs_r_node: f64,
    /// `(MCSCEC − TAw/oS) / TAw/oS` — the price of security.
    pub security_premium: f64,
}

/// Computes per-point gap reports for a sweep.
pub fn gaps(sweep: &Sweep) -> Vec<GapReport> {
    sweep
        .points
        .iter()
        .map(|(param, c)| GapReport {
            param: *param,
            gap_to_lower_bound: (c.mcscec - c.lower_bound) / c.lower_bound,
            savings_vs_max_node: (c.max_node - c.mcscec) / c.max_node,
            savings_vs_min_node: (c.min_node - c.mcscec) / c.min_node,
            savings_vs_r_node: (c.r_node - c.mcscec) / c.r_node,
            security_premium: (c.mcscec - c.ta_without_security) / c.ta_without_security,
        })
        .collect()
}

/// Renders gap reports as a table (percent values).
pub fn gaps_table(sweep: &Sweep) -> Table {
    let mut t = Table::new(vec![
        sweep.param.to_string(),
        "gap_to_LB_%".into(),
        "savings_vs_MaxNode_%".into(),
        "savings_vs_MinNode_%".into(),
        "savings_vs_RNode_%".into(),
        "security_premium_%".into(),
    ]);
    for g in gaps(sweep) {
        t.push_row(vec![
            if g.param.fract() == 0.0 {
                format!("{}", g.param as i64)
            } else {
                format!("{}", g.param)
            },
            fmt_f64(g.gap_to_lower_bound * 100.0),
            fmt_f64(g.savings_vs_max_node * 100.0),
            fmt_f64(g.savings_vs_min_node * 100.0),
            fmt_f64(g.savings_vs_r_node * 100.0),
            fmt_f64(g.security_premium * 100.0),
        ])
        .expect("fixed width");
    }
    t
}

/// Verdicts on the paper's headline claims, judged on the *last* (largest)
/// point of each sweep as the paper's "sufficiently large" reading.
#[derive(Debug, Clone, PartialEq)]
pub struct ClaimVerdicts {
    /// T1: final-point gap to the lower bound, per sweep id.
    pub lb_gap_at_largest: Vec<(String, f64)>,
    /// Whether every final-point LB gap is under 0.5%.
    pub t1_holds: bool,
}

/// Evaluates claim T1 over a set of sweeps.
pub fn verdicts(sweeps: &[Sweep]) -> ClaimVerdicts {
    let lb_gap_at_largest: Vec<(String, f64)> = sweeps
        .iter()
        .map(|s| {
            let last = gaps(s).last().copied().expect("non-empty sweep");
            (s.id.to_string(), last.gap_to_lower_bound)
        })
        .collect();
    let t1_holds = lb_gap_at_largest.iter().all(|(_, g)| *g < 0.005);
    ClaimVerdicts {
        lb_gap_at_largest,
        t1_holds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::{fig2a, Defaults};
    use crate::runner::MonteCarlo;

    fn small_sweep() -> Sweep {
        // A real (downscaled) fig2a run: small instance count, small k.
        let mc = MonteCarlo::new(10, 77);
        let d = Defaults {
            k: 12,
            ..Defaults::default()
        };
        fig2a(&mc, &d)
    }

    #[test]
    fn gaps_are_well_signed() {
        let sweep = small_sweep();
        for g in gaps(&sweep) {
            assert!(g.gap_to_lower_bound >= -1e-9, "{g:?}");
            assert!(g.savings_vs_max_node >= -1e-9, "{g:?}");
            assert!(g.savings_vs_min_node >= -1e-9, "{g:?}");
            assert!(g.savings_vs_r_node >= -1e-9, "{g:?}");
            assert!(g.security_premium >= -1e-9, "{g:?}");
        }
    }

    #[test]
    fn t1_holds_on_downscaled_run() {
        // Even with modest instance counts the optimal algorithm sits on
        // the bound whenever divisibility allows; the mean gap at the
        // largest m must be tiny.
        let sweep = small_sweep();
        let v = verdicts(&[sweep]);
        assert_eq!(v.lb_gap_at_largest.len(), 1);
        assert!(
            v.lb_gap_at_largest[0].1 < 0.005,
            "gap {}",
            v.lb_gap_at_largest[0].1
        );
        assert!(v.t1_holds);
    }

    #[test]
    fn gaps_table_shape() {
        let sweep = small_sweep();
        let t = gaps_table(&sweep);
        assert_eq!(t.headers().len(), 6);
        assert_eq!(t.rows().len(), sweep.points.len());
        assert_eq!(t.headers()[1], "gap_to_LB_%");
    }
}

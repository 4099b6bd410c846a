//! Ablations beyond the paper's figures (indexed A1–A4 in `DESIGN.md`).
//!
//! * [`completion_vs_r`] (A3) — end-to-end completion time as a function
//!   of `r` in the event simulator, quantifying Remark 1's claim that the
//!   per-device cap bounds completion time: small `r` spreads work, large
//!   `r` concentrates it.
//! * [`decode_complexity`] (A1, analytic half) — operation counts of the
//!   structured O(m) decoder vs generic Gaussian elimination
//!   (≈ (m+r)³/3 multiply-adds); the wall-clock half is
//!   [`crate::throughput`]'s two decoder columns.

use scec_coding::CodeDesign;
use scec_sim::event::{DeviceProfile, NetworkModel, ProtocolSimulator};
use scec_sim::InstanceGenerator;

use crate::table::{fmt_f64, Table};

/// Sweeps `r` across its feasible range and reports simulated completion
/// time (seconds) for each choice, with `points` grid values.
///
/// Devices are `default_edge` profiles with ±20% jitter. Two opposing
/// forces shape the curve: small `r` spreads compute thinly but waits on
/// the straggler of *many* jittered links, while large `r` concentrates
/// compute on two devices. Which end wins depends on the compute/latency
/// balance (for the paper-scale `m = 5000` with realistic widths, compute
/// dominates and completion grows with `r`).
///
/// # Panics
///
/// Panics when `m == 0` or `k < 2`.
pub fn completion_vs_r(m: usize, k: usize, width: usize, points: usize, seed: u64) -> Table {
    assert!(m >= 1 && k >= 2, "need m >= 1 and k >= 2");
    let mut gen = InstanceGenerator::from_seed(seed);
    let min_r = m.div_ceil(k - 1);
    let grid: Vec<usize> = if points <= 1 || min_r == m {
        vec![min_r]
    } else {
        (0..points)
            .map(|t| min_r + t * (m - min_r) / (points - 1))
            .collect()
    };
    let mut t = Table::new(vec![
        "r".into(),
        "devices".into(),
        "max_load".into(),
        "completion_time_s".into(),
    ]);
    for r in grid {
        let design = CodeDesign::new(m, r).expect("r in feasible range");
        let profiles: Vec<DeviceProfile> = (0..design.device_count())
            .map(|_| DeviceProfile::default_edge().jittered(0.2, gen.rng()))
            .collect();
        let model = NetworkModel::heterogeneous(profiles, 1e-9).expect("valid profiles");
        let report = ProtocolSimulator::new(model)
            .simulate(&design, width)
            .expect("model sized to design");
        t.push_row(vec![
            r.to_string(),
            design.device_count().to_string(),
            r.to_string(),
            fmt_f64(report.completion_time),
        ])
        .expect("fixed width");
    }
    t
}

/// A5: quorum latency with straggler redundancy. For each redundancy
/// level `s`, simulates a jittered fleet where one base device is 10×
/// slower and reports (a) the time to receive *all* rows (what the base
/// protocol must wait for) and (b) the time to receive any `m + r` rows
/// (what the straggler decoder waits for, with `s` extra rows on standby
/// devices).
///
/// # Panics
///
/// Panics when `m == 0` or `k < 2`.
pub fn straggler_quorum(m: usize, r: usize, width: usize, s_grid: &[usize], seed: u64) -> Table {
    assert!(m >= 1 && r >= 1, "need m >= 1 and r >= 1");
    let mut gen = InstanceGenerator::from_seed(seed);
    let design = CodeDesign::new(m, r).expect("feasible (m, r)");
    let base_devices = design.device_count();
    let mut t = Table::new(vec![
        "redundancy_s".into(),
        "standby_devices".into(),
        "wait_all_s".into(),
        "quorum_s".into(),
        "speedup".into(),
    ]);
    for &s in s_grid {
        // Loads: base design loads plus standby chunks of at most r rows.
        let mut loads: Vec<usize> = (1..=base_devices)
            .map(|j| design.device_load(j).expect("j in range"))
            .collect();
        let mut left = s;
        while left > 0 {
            let chunk = left.min(r);
            loads.push(chunk);
            left -= chunk;
        }
        // One slow base device (device 2 if it exists), others jittered.
        let profiles: Vec<DeviceProfile> = (0..loads.len())
            .map(|idx| {
                let mut p = DeviceProfile::default_edge().jittered(0.15, gen.rng());
                if idx == 1 {
                    p.per_op_time *= 10.0;
                    p.latency *= 10.0;
                }
                p
            })
            .collect();
        let model = NetworkModel::heterogeneous(profiles, 1e-9).expect("valid profiles");
        let report = ProtocolSimulator::new(model)
            .simulate_loads(&loads, m, width)
            .expect("model sized to loads");
        let wait_all = report.last_result;
        let quorum = report
            .time_to_rows(design.total_rows())
            .expect("enough rows in total");
        t.push_row(vec![
            s.to_string(),
            loads.len().saturating_sub(base_devices).to_string(),
            fmt_f64(wait_all),
            fmt_f64(quorum),
            fmt_f64(wait_all / quorum),
        ])
        .expect("fixed width");
    }
    t
}

/// A6: the price of collusion resistance. For each threshold `t`, reports
/// the `t`-private code's resource footprint (random rows `r = t·v`,
/// devices, total coded rows) and decoding cost estimate
/// (`r³/3 + m·r` multiply-adds) against the single-device design's
/// baseline (`m` subtractions).
pub fn collusion_cost(m: usize, v: usize, t_grid: &[usize]) -> Table {
    let mut table = Table::new(vec![
        "t".into(),
        "random_rows_r".into(),
        "total_rows".into(),
        "devices".into(),
        "decode_ops".into(),
        "decode_ops_vs_t1_design".into(),
    ]);
    for &t in t_grid {
        let r = t * v;
        let total = m + r;
        let devices = r.div_ceil(v) + m.div_ceil(v);
        let decode_ops = (r as f64).powi(3) / 3.0 + (m * r) as f64;
        table
            .push_row(vec![
                t.to_string(),
                r.to_string(),
                total.to_string(),
                devices.to_string(),
                fmt_f64(decode_ops),
                fmt_f64(decode_ops / m as f64),
            ])
            .expect("fixed width");
    }
    table
}

/// Operation counts of the two decoders across a grid of `m` values
/// (with the MCSCEC-optimal `r ≈ m/4` shape as a representative design).
pub fn decode_complexity(m_grid: &[usize]) -> Table {
    let mut t = Table::new(vec![
        "m".into(),
        "r".into(),
        "fast_subtractions".into(),
        "gaussian_mul_adds_approx".into(),
        "speedup_factor".into(),
    ]);
    for &m in m_grid {
        let r = (m / 4).max(1);
        let design = CodeDesign::new(m, r).expect("valid design");
        let fast = scec_coding::decode::fast_decode_op_count(&design);
        let n = design.total_rows() as f64;
        let gaussian = n * n * n / 3.0;
        t.push_row(vec![
            m.to_string(),
            r.to_string(),
            fast.to_string(),
            fmt_f64(gaussian),
            fmt_f64(gaussian / fast as f64),
        ])
        .expect("fixed width");
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completion_table_has_grid_rows() {
        let t = completion_vs_r(40, 10, 16, 5, 1);
        assert_eq!(t.rows().len(), 5);
        assert_eq!(t.headers()[3], "completion_time_s");
        // r spans from the feasibility floor to m.
        assert_eq!(t.rows()[0][0], "5"); // ceil(40/9) = 5
        assert_eq!(t.rows()[4][0], "40");
        for row in t.rows() {
            let time: f64 = row[3].parse().unwrap();
            assert!(time > 0.0);
        }
    }

    #[test]
    fn completion_grows_with_r_when_compute_dominates() {
        // At paper scale (m = 5000, wide rows) per-device compute swamps
        // the link jitter, so concentrating load (larger r) must cost time.
        let t = completion_vs_r(5000, 25, 512, 5, 3);
        let first: f64 = t.rows()[0][3].parse().unwrap();
        let last: f64 = t.rows().last().unwrap()[3].parse().unwrap();
        assert!(last > first, "{last} <= {first}");
    }

    #[test]
    fn completion_degenerate_grid() {
        // m = 1, k = 2: only r = 1 feasible → a single row.
        let t = completion_vs_r(1, 2, 4, 5, 2);
        assert_eq!(t.rows().len(), 1);
        assert_eq!(t.rows()[0][0], "1");
    }

    #[test]
    fn straggler_quorum_beats_waiting_for_all() {
        // With one 10x-slow device and enough redundancy to skip it, the
        // quorum time must be well below the wait-for-all time.
        let t = straggler_quorum(40, 10, 64, &[10, 20], 5);
        assert_eq!(t.rows().len(), 2);
        for row in t.rows() {
            let speedup: f64 = row[4].parse().unwrap();
            assert!(speedup > 1.5, "speedup {speedup} too small: {row:?}");
        }
    }

    #[test]
    fn straggler_without_redundancy_cannot_skip() {
        // s = 0: quorum requires every base row, so both times coincide.
        let t = straggler_quorum(40, 10, 64, &[0], 6);
        let wait_all: f64 = t.rows()[0][2].parse().unwrap();
        let quorum: f64 = t.rows()[0][3].parse().unwrap();
        assert!((wait_all - quorum).abs() < 1e-9);
    }

    #[test]
    fn collusion_cost_grows_with_t() {
        let t = collusion_cost(100, 5, &[1, 2, 4]);
        assert_eq!(t.rows().len(), 3);
        let r1: usize = t.rows()[0][1].parse().unwrap();
        let r4: usize = t.rows()[2][1].parse().unwrap();
        assert_eq!(r1, 5);
        assert_eq!(r4, 20);
        let ops1: f64 = t.rows()[0][4].parse().unwrap();
        let ops4: f64 = t.rows()[2][4].parse().unwrap();
        assert!(ops4 > ops1 * 4.0);
    }

    #[test]
    fn decode_complexity_scales_cubically() {
        let t = decode_complexity(&[8, 16, 32]);
        assert_eq!(t.rows().len(), 3);
        let s8: f64 = t.rows()[0][4].parse().unwrap();
        let s32: f64 = t.rows()[2][4].parse().unwrap();
        // Speedup factor grows superlinearly with m.
        assert!(s32 > 4.0 * s8, "{s32} vs {s8}");
    }

    #[test]
    #[should_panic(expected = "need m >= 1")]
    fn zero_m_panics() {
        let _ = completion_vs_r(0, 5, 4, 3, 1);
    }
}

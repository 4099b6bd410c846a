//! Wall-clock throughput of the pipeline stages.
//!
//! The *table* version for `EXPERIMENTS.md` (the repo benchmark in
//! `/benchmark` is where performance claims are refereed): one pass
//! over an `m`-grid timing encode, device compute, and both decoders, in
//! the same process. It also grounds the paper's motivation that linear
//! coding beats homomorphic encryption by orders of magnitude: the
//! paper's HElib citation reports ~2.2 s for a 628×628 matrix–vector
//! multiply; the secure coded pipeline below does the *entire* round in
//! milliseconds at larger sizes.

use std::time::Instant;

use scec_coding::{decode, CodeDesign, Encoder};
use scec_linalg::{Fp61, Vector};
use scec_sim::InstanceGenerator;

use crate::table::{fmt_f64, Table};

/// Times one `(encode, device compute, fast decode, general decode)` pass
/// for a given `m` (with `r = m/4`, width `l`).
fn time_point(m: usize, l: usize, gen: &mut InstanceGenerator) -> [f64; 4] {
    let r = (m / 4).max(1);
    let design = CodeDesign::new(m, r).expect("valid design");
    let a = gen.data_matrix::<Fp61>(m, l);
    let x = gen.query::<Fp61>(l);

    let t0 = Instant::now();
    let store = Encoder::new(design.clone())
        .encode(&a, gen.rng())
        .expect("valid shapes");
    let encode_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let partials: Vec<Vector<Fp61>> = store
        .shares()
        .iter()
        .map(|s| s.compute(&x).expect("valid width"))
        .collect();
    let compute_s = t0.elapsed().as_secs_f64();
    let btx = decode::stack_partials(&partials);

    let t0 = Instant::now();
    let y = decode::decode_fast(&design, &btx).expect("valid length");
    let fast_s = t0.elapsed().as_secs_f64();
    assert_eq!(y, a.matvec(&x).expect("valid shapes"));

    // The general decoder materializes B and eliminates: only run it at
    // sizes where O((m+r)^3) stays sub-second.
    let general_s = if m <= 1000 {
        let b = design.encoding_matrix::<Fp61>();
        let t0 = Instant::now();
        let y2 = decode::decode_general(&design, &b, &btx).expect("full rank");
        let elapsed = t0.elapsed().as_secs_f64();
        assert_eq!(y2, y);
        elapsed
    } else {
        f64::NAN
    };
    [encode_s, compute_s, fast_s, general_s]
}

/// Builds the throughput table over an `m` grid.
pub fn throughput_table(m_grid: &[usize], l: usize, seed: u64) -> Table {
    let mut gen = InstanceGenerator::from_seed(seed);
    let mut t = Table::new(vec![
        "m".into(),
        "encode_ms".into(),
        "device_compute_ms".into(),
        "fast_decode_ms".into(),
        "general_decode_ms".into(),
    ]);
    for &m in m_grid {
        let [encode, compute, fast, general] = time_point(m, l, &mut gen);
        t.push_row(vec![
            m.to_string(),
            fmt_f64(encode * 1e3),
            fmt_f64(compute * 1e3),
            fmt_f64(fast * 1e3),
            if general.is_nan() {
                "-".into()
            } else {
                fmt_f64(general * 1e3)
            },
        ])
        .expect("fixed width");
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_grid_rows_and_sane_values() {
        let t = throughput_table(&[50, 100], 32, 3);
        assert_eq!(t.rows().len(), 2);
        for row in t.rows() {
            let fast: f64 = row[3].parse().unwrap();
            let general: f64 = row[4].parse().unwrap();
            assert!(fast >= 0.0);
            // Fast decode must beat Gaussian elimination.
            assert!(fast < general, "fast {fast} !< general {general}");
        }
    }

    #[test]
    fn large_m_skips_general_decoder() {
        let t = throughput_table(&[1200], 8, 5);
        assert_eq!(t.rows()[0][4], "-");
    }
}

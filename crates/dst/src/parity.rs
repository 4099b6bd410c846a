//! Transport parity: proof that the generic-cluster refactor did not
//! fork protocol behavior between message backends.
//!
//! The same seeded scenario is driven twice through a real
//! [`LocalCluster`] — once over the in-memory channel backend
//! ([`LocalCluster::launch_clocked`]) and once over the simulated-link
//! `Transport` backend ([`LocalCluster::launch_sim_linked`]), where
//! every message is encoded to `scec-wire` bytes and decoded back
//! before delivery. Both runs start from identically seeded RNGs, so
//! the coded shares, device behaviors, and query vectors are the same;
//! the only difference is the transport. The workload is sequential
//! queries, one panel, then a pipelined window of queries, so the
//! backends are also compared with several queries to a hand-off. Each
//! operation yields an
//! *oracle verdict*: `ok`/`mismatch` against the ground-truth `A·x`
//! (tagged with a hash of the decoded values, so "identical verdict"
//! means bit-identical results, not just matching outcomes), or the
//! error kind for failed operations. A clean parity report has the two
//! verdict sequences equal element for element.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use rand::{rngs::StdRng, SeedableRng};

use scec_allocation::EdgeFleet;
use scec_core::{AllocationStrategy, ScecSystem};
use scec_linalg::{Fp61, Matrix, Vector};
use scec_runtime::{Clock, DeviceBehavior, LocalCluster, QueryPipeline, RealClock};
use scec_sim::adversary::ChaosPlan;
use scec_sim::{ChaosFault, CostDistribution};

use crate::scenarios::Scenario;

/// One seeded parity world: a data matrix, a fleet, per-device
/// behaviors, and the query workload pushed through both backends.
#[derive(Debug, Clone)]
pub struct ParityConfig {
    /// Data rows `m` of `A`.
    pub rows: usize,
    /// Columns of `A` (query vector length).
    pub cols: usize,
    /// Per-device unit communication costs (fleet size = length).
    pub unit_costs: Vec<f64>,
    /// Behavior per deployed device (padded with honest).
    pub behaviors: Vec<DeviceBehavior>,
    /// Single queries driven through each backend, first one by one and
    /// then again (fresh vectors) through a [`QueryPipeline`].
    pub queries: usize,
    /// Columns of the one batched panel, and — at least 2 — the window
    /// of the pipelined segment, where queries reach a device several to
    /// a hand-off.
    pub panel_width: usize,
    /// Per-query deadline; `None` keeps the cluster default.
    pub timeout: Option<Duration>,
    /// Artificial per-message delay on the simulated link.
    pub link_delay: Duration,
}

impl ParityConfig {
    /// Derives a parity world from a named DST scenario: matrix shape
    /// and query count from the scenario's config, behaviors from a
    /// [`ChaosPlan`] at the scenario's chaos intensity.
    ///
    /// Time- and supervision-dependent faults (crashes, random drops,
    /// omission) are sanitized to honest devices — the plain cluster
    /// under test has no repair path, so those faults measure the
    /// deadline clock rather than the transport. Byzantine corruption
    /// and bounded straggler delays survive: both are deterministic,
    /// so their verdicts must still agree across backends.
    #[must_use]
    pub fn from_scenario(scenario: &Scenario, seed: u64) -> Self {
        let config = scenario.config(None, None);
        let fleet = scenario.default_devices.clamp(3, 8);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7061_7269_7479); // "parity"
        let unit_costs = CostDistribution::uniform(3.0).sample_many(fleet, &mut rng);
        let behaviors = ChaosPlan::generate(fleet, config.intensity, seed)
            .faults
            .into_iter()
            .map(|fault| match fault {
                ChaosFault::Byzantine => DeviceBehavior::Byzantine,
                ChaosFault::Slow { millis } => {
                    DeviceBehavior::Delayed(Duration::from_millis(millis.min(2)))
                }
                _ => DeviceBehavior::Honest,
            })
            .collect();
        ParityConfig {
            rows: config.data_rows.max(2),
            cols: config.width.max(2),
            unit_costs,
            behaviors,
            queries: config.queries.clamp(2, 8),
            panel_width: config.window.clamp(2, 6),
            timeout: None,
            link_delay: Duration::from_micros(200),
        }
    }
}

/// The two verdict sequences produced by [`transport_parity`].
#[derive(Debug, Clone)]
pub struct ParityReport {
    /// The world seed.
    pub seed: u64,
    /// Verdicts from the in-memory channel backend.
    pub channel: Vec<String>,
    /// Verdicts from the simulated-link `Transport` backend.
    pub sim_link: Vec<String>,
}

impl ParityReport {
    /// Whether both backends produced the same verdict for every
    /// operation — the parity oracle.
    #[must_use]
    pub fn is_identical(&self) -> bool {
        self.channel == self.sim_link
    }

    /// Index of the first diverging verdict, if any.
    #[must_use]
    pub fn divergence(&self) -> Option<usize> {
        (0..self.channel.len().max(self.sim_link.len()))
            .find(|&i| self.channel.get(i) != self.sim_link.get(i))
    }

    /// Human-readable side-by-side rendering.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "transport parity seed {}: {}",
            self.seed,
            if self.is_identical() {
                "identical"
            } else {
                "DIVERGED"
            }
        );
        for i in 0..self.channel.len().max(self.sim_link.len()) {
            let left = self.channel.get(i).map_or("<missing>", String::as_str);
            let right = self.sim_link.get(i).map_or("<missing>", String::as_str);
            let marker = if left == right { ' ' } else { '!' };
            let _ = writeln!(out, " {marker} op {i:>3}  channel={left}  sim-link={right}");
        }
        out
    }
}

enum Backend {
    Channel,
    SimLink,
}

/// Runs the seeded workload on both backends and collects verdicts.
///
/// Both clusters are launched from identically seeded RNG streams over
/// the *same* built system, so share distribution (including the random
/// blinding rows) is bit-identical; the transport is the only degree of
/// freedom left.
///
/// # Errors
///
/// Propagates world-construction failures (invalid fleet, allocation,
/// or coding parameters) and cluster launch failures.
pub fn transport_parity(
    config: &ParityConfig,
    seed: u64,
) -> Result<ParityReport, scec_runtime::Error> {
    let mut world = StdRng::seed_from_u64(seed ^ 0x77_6f72_6c64); // "world"
    let a = Matrix::<Fp61>::random(config.rows, config.cols, &mut world);
    let fleet = EdgeFleet::from_unit_costs(config.unit_costs.clone())?;
    let system = ScecSystem::build(a.clone(), fleet, AllocationStrategy::Mcscec, &mut world)?;
    let channel = run_backend(&system, &a, config, seed, &Backend::Channel)?;
    let sim_link = run_backend(&system, &a, config, seed, &Backend::SimLink)?;
    Ok(ParityReport {
        seed,
        channel,
        sim_link,
    })
}

fn run_backend(
    system: &ScecSystem<Fp61>,
    a: &Matrix<Fp61>,
    config: &ParityConfig,
    seed: u64,
    backend: &Backend,
) -> Result<Vec<String>, scec_runtime::Error> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6465_706c_6f79); // "deploy"
    let clock = Arc::new(RealClock::default()) as Arc<dyn Clock>;
    let mut cluster = match backend {
        Backend::Channel => {
            LocalCluster::launch_clocked(system, &mut rng, &config.behaviors, clock)?
        }
        Backend::SimLink => LocalCluster::launch_sim_linked(
            system,
            &mut rng,
            &config.behaviors,
            clock,
            config.link_delay,
        )?,
    };
    if let Some(timeout) = config.timeout {
        cluster.set_timeout(timeout);
    }
    let mut qrng = StdRng::seed_from_u64(seed ^ 0x71_7565_7279); // "query"
    let mut verdicts = Vec::with_capacity(2 * config.queries + 1);
    for _ in 0..config.queries {
        let x = Vector::<Fp61>::random(config.cols, &mut qrng);
        let expected = a.matvec(&x).map_err(scec_coding::Error::from)?;
        verdicts.push(match cluster.query(&x) {
            Ok(y) => {
                let tag = if y == expected { "ok" } else { "mismatch" };
                format!("{tag}[{:016x}]", hash_values(y.as_slice().iter().copied()))
            }
            Err(e) => verdict_name(&e).to_string(),
        });
    }
    let xs = Matrix::<Fp61>::random(config.cols, config.panel_width, &mut qrng);
    let expected = a.matmul(&xs).map_err(scec_coding::Error::from)?;
    verdicts.push(match cluster.query_batch(&xs) {
        Ok(ys) => {
            let tag = if ys == expected {
                "panel-ok"
            } else {
                "panel-mismatch"
            };
            format!("{tag}[{:016x}]", hash_values(matrix_values(&ys)))
        }
        Err(e) => format!("panel-{}", verdict_name(&e)),
    });
    let stream: Vec<Vector<Fp61>> = (0..config.queries)
        .map(|_| Vector::random(config.cols, &mut qrng))
        .collect();
    match QueryPipeline::run(&cluster, config.panel_width.max(2), &stream) {
        Ok(ys) => {
            for (x, y) in stream.iter().zip(&ys) {
                let expected = a.matvec(x).map_err(scec_coding::Error::from)?;
                let tag = if *y == expected { "ok" } else { "mismatch" };
                let hash = hash_values(y.as_slice().iter().copied());
                verdicts.push(format!("window-{tag}[{hash:016x}]"));
            }
        }
        Err(e) => verdicts.push(format!("window-{}", verdict_name(&e))),
    }
    cluster.shutdown();
    Ok(verdicts)
}

fn matrix_values(m: &Matrix<Fp61>) -> impl Iterator<Item = Fp61> + '_ {
    (0..m.nrows()).flat_map(move |r| (0..m.ncols()).map(move |c| m.get(r, c).unwrap_or_default()))
}

/// FNV-1a over the canonical residues: bit-identical values, same hash.
fn hash_values(values: impl Iterator<Item = Fp61>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        h ^= v.residue();
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn verdict_name(e: &scec_runtime::Error) -> &'static str {
    match e {
        scec_runtime::Error::ChannelClosed { .. } => "channel-closed",
        scec_runtime::Error::Timeout { .. } => "timeout",
        scec_runtime::Error::DeviceFailure { .. } => "device-failure",
        scec_runtime::Error::ProtocolViolation { .. } => "protocol-violation",
        scec_runtime::Error::FleetExhausted { .. } => "fleet-exhausted",
        scec_runtime::Error::InvalidConfig { .. } => "invalid-config",
        scec_runtime::Error::Core(_) => "core",
        scec_runtime::Error::Coding(_) => "coding",
        scec_runtime::Error::Allocation(_) => "allocation",
        _ => "error",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios;

    fn honest_config() -> ParityConfig {
        ParityConfig {
            rows: 6,
            cols: 5,
            unit_costs: vec![1.0, 1.4, 1.9, 2.6],
            behaviors: vec![DeviceBehavior::Honest; 4],
            queries: 4,
            panel_width: 3,
            timeout: None,
            link_delay: Duration::from_micros(100),
        }
    }

    #[test]
    fn honest_world_has_identical_clean_verdicts() {
        for seed in [0, 7, 2019] {
            let report = transport_parity(&honest_config(), seed).expect("parity run");
            assert!(report.is_identical(), "{}", report.render());
            assert!(
                report
                    .channel
                    .iter()
                    .all(|v| ["ok", "panel-ok", "window-ok"]
                        .iter()
                        .any(|ok| v.starts_with(ok))),
                "{}",
                report.render()
            );
        }
    }

    #[test]
    fn byzantine_corruption_diverges_identically_on_both_backends() {
        let mut config = honest_config();
        config.behaviors[1] = DeviceBehavior::Byzantine;
        let report = transport_parity(&config, 42).expect("parity run");
        assert!(report.is_identical(), "{}", report.render());
        // The corruption must actually fire — and fire the same way —
        // on both backends, hash included.
        assert!(
            report.channel.iter().any(|v| v.contains("mismatch")),
            "{}",
            report.render()
        );
    }

    #[test]
    fn omitted_device_times_out_identically_on_both_backends() {
        let mut config = honest_config();
        config.behaviors[0] = DeviceBehavior::Omit;
        config.queries = 2;
        config.timeout = Some(Duration::from_millis(100));
        let report = transport_parity(&config, 5).expect("parity run");
        assert!(report.is_identical(), "{}", report.render());
        assert!(
            report.channel.iter().all(|v| v.contains("timeout")),
            "{}",
            report.render()
        );
    }

    #[test]
    fn scenario_catalog_worlds_keep_parity() {
        // Every named scenario, sanitized to the deterministic fault
        // subset, must produce identical verdicts on both backends.
        for scenario in scenarios::catalog() {
            let config = ParityConfig::from_scenario(scenario, 11);
            let report =
                transport_parity(&config, 11).unwrap_or_else(|e| panic!("{}: {e}", scenario.name));
            assert!(
                report.is_identical(),
                "{}: {}",
                scenario.name,
                report.render()
            );
        }
    }

    #[test]
    fn report_renders_the_divergence() {
        let report = ParityReport {
            seed: 1,
            channel: vec!["ok[0]".into(), "ok[1]".into()],
            sim_link: vec!["ok[0]".into(), "timeout".into()],
        };
        assert!(!report.is_identical());
        assert_eq!(report.divergence(), Some(1));
        assert!(report.render().contains("DIVERGED"));
        assert!(report.render().contains('!'));
    }
}

//! The five workloads. A run is one kept set-up, then `ROUNDS` rounds of
//! (timed set-ups, a latency block at window 1 with every query timed by
//! the driver, a throughput round at the workload's window/panel width),
//! then an untimed ledger pass that reads the Eq.-(1) cost per query. The
//! same code serves the untraced run (`probe == None`) and the traced run,
//! which adds the benchmark's spans and attaches the program's `Telemetry`.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;

use scec_linalg::{ops, Fp61, Vector};
use scec_runtime::{PanelPipeline, PanelQuery, SupervisedCluster, Telemetry};
use scec_serve::{DeviceServer, LoadConfig, Router, WireMeter};

use crate::backends::{
    bind_server, build_system, latency_phase, launch, launch_supervised, panel_round, spanned,
    stream_round, Cluster, Link, Round, Tally, Timed,
};
use crate::harness::{host_slowness, median, quantile_sorted, rng_for, Inputs, Recorder};
use crate::spec::{
    scaled, Spec, CHURN_BLOCKS, CHURN_CYCLES, CHURN_CYCLES_PER_SERVER, CHURN_PIPELINED,
    CHURN_SEQUENTIAL, ROUNDS, ROUTER_TENANTS, SETUPS_PER_ROUND,
};

/// Queries of the untimed ledger pass at the reference scale (it scales
/// with `--seconds` like everything else). The cost per query it reads is a
/// count, the same for any number of queries — except that the supervised
/// cluster books a device's rows only when its response lands inside the
/// quorum's grace window, which about one query in 10⁵ misses. With 2048
/// queries one such miss moves the figure by 0.02 %, inside its bound.
const LEDGER_QUERIES: usize = 2048;

/// What to run: the workload, the seed and the `--seconds` scale.
pub struct Params<'a> {
    /// The workload definition.
    pub spec: &'a Spec,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds` over the reference seconds.
    pub scale: f64,
}

/// The traced run's instruments: the benchmark's own span recorder and
/// the program's telemetry handle, attached to every cluster launched.
pub struct Probe {
    /// Spans around every call into the program.
    pub rec: Recorder,
    /// The program's registry, tracer and cost ledger.
    pub tel: Arc<Telemetry>,
}

/// Exact counters: deltas over the throughput rounds, totals over the run.
#[derive(Clone, Copy, Default)]
pub struct Counts {
    /// Queries the deltas below cover.
    pub queries: u64,
    /// Bytes written to device sockets during those queries.
    pub wire_sent: u64,
    /// Bytes read from device sockets during those queries.
    pub wire_received: u64,
    /// Query frames the device server answered during those queries.
    pub served: u64,
    /// `scec_linalg::ops` multiplications during those queries.
    pub field_mults: u64,
    /// `scec_linalg::ops` additions during those queries.
    pub field_adds: u64,
    /// Bytes written to install one tenant's shares (HELLO included).
    pub install_bytes: u64,
    /// Server connections admitted over the whole run.
    pub server_accepted: u64,
    /// Server connections refused over the whole run.
    pub server_rejected: u64,
    /// Query frames served over the whole run.
    pub server_queries_served: u64,
    /// Connections closed with BYE over the whole run.
    pub server_clean_closes: u64,
    /// Router admission high-water mark (max over rounds).
    pub admission_peak: u64,
    /// Router admission cap.
    pub admission_cap: u64,
    /// Worst bucketed p99 the Router reported, seconds.
    pub router_p99_s: f64,
    /// Supervisor retries over the whole run.
    pub retries: u64,
    /// Supervisor repairs over the whole run.
    pub repairs: u64,
}

/// Everything one run of one workload measured.
#[derive(Default)]
pub struct Outcome {
    /// Raw `A` + unit costs → first verified answer, seconds, per set-up.
    pub setups_s: Vec<f64>,
    /// Per-query round trips, microseconds, one list per latency block.
    pub latency_blocks: Vec<Vec<f64>>,
    /// The throughput rounds.
    pub rounds: Vec<Round>,
    /// How slow the host ran beside each round (set-ups, latency block and
    /// throughput round alike), as a multiple of the reference speed: the
    /// mean of the gauge readings at the round's phase boundaries.
    pub slowness: Vec<f64>,
    /// The slowness of the round each entry of `setups_s` ran in.
    pub setup_slowness: Vec<f64>,
    /// Every operation attempted in any phase, and those that failed.
    pub tally: Tally,
    /// Monetised observed Eq.-(1) cost per query from the cost ledger.
    pub cost_per_query: f64,
    /// Wall time of all rounds together (set-ups, latency, throughput).
    pub wall: Duration,
    /// Correctness-gate breaches other than wrong answers.
    pub violations: Vec<String>,
    /// Counter deltas and totals.
    pub counts: Counts,
    /// Nanoseconds inside `TcpTransport::connect`, per TCP set-up.
    pub connect_ns: Vec<f64>,
    /// Nanoseconds from connect's return to the first verified answer
    /// (install frames, device-side decode, one query), per TCP set-up.
    pub install_ns: Vec<f64>,
}

impl Outcome {
    /// Ends a round: books the mean of its gauge readings for the round's
    /// latency block and throughput round, and for every set-up timed since
    /// the round before.
    fn close_round(&mut self, gauge: &[f64]) {
        let slowness = gauge.iter().sum::<f64>() / gauge.len() as f64;
        self.slowness.push(slowness);
        self.setup_slowness.resize(self.setups_s.len(), slowness);
    }

    /// Verified queries per second at the reference host speed: the median
    /// over the rounds of each round's rate times the slowness beside it.
    pub fn throughput_qps(&self) -> f64 {
        let mut per_round: Vec<f64> = self
            .rounds
            .iter()
            .zip(&self.slowness)
            .map(|(round, slowness)| round.qps() * slowness)
            .collect();
        median(&mut per_round)
    }

    /// Verified queries per second by the wall clock, median over the rounds.
    pub fn wall_throughput_qps(&self) -> f64 {
        median(&mut self.rounds.iter().map(Round::qps).collect::<Vec<_>>())
    }

    /// (max − min) / median of the rounds' throughput.
    pub fn round_spread_share(&self) -> f64 {
        let mut qps: Vec<f64> = self.rounds.iter().map(Round::qps).collect();
        let med = median(&mut qps);
        (qps[qps.len() - 1] - qps[0]) / med
    }

    /// Median round trip at the reference host speed, microseconds: the
    /// median over the latency blocks of each block's exact median over the
    /// slowness beside it.
    pub fn latency_p50_us(&self) -> f64 {
        let mut per_block: Vec<f64> = self
            .block_medians_us()
            .iter()
            .zip(&self.slowness)
            .map(|(us, slowness)| us / slowness)
            .collect();
        median(&mut per_block)
    }

    /// Median round trip by the wall clock, microseconds.
    pub fn wall_latency_p50_us(&self) -> f64 {
        median(&mut self.block_medians_us())
    }

    /// Each latency block's exact median, microseconds, in run order.
    pub fn block_medians_us(&self) -> Vec<f64> {
        self.latency_blocks
            .iter()
            .map(|block| median(&mut block.clone()))
            .collect()
    }

    /// The exact `q`-quantile of all latency samples pooled, each at the
    /// reference host speed (over the slowness beside its block).
    pub fn latency_pooled_us(&self, q: f64) -> f64 {
        let mut all: Vec<f64> = self
            .latency_blocks
            .iter()
            .zip(&self.slowness)
            .flat_map(|(block, slowness)| block.iter().map(move |us| us / slowness))
            .collect();
        all.sort_by(f64::total_cmp);
        quantile_sorted(&all, q)
    }

    /// Latency samples across all blocks.
    pub fn latency_samples(&self) -> usize {
        self.latency_blocks.iter().map(Vec::len).sum()
    }

    /// Median set-up time at the reference host speed, seconds.
    pub fn setup_s(&self) -> f64 {
        let mut per_setup: Vec<f64> = self
            .setups_s
            .iter()
            .zip(&self.setup_slowness)
            .map(|(s, slowness)| s / slowness)
            .collect();
        median(&mut per_setup)
    }

    /// Median set-up time by the wall clock, seconds.
    pub fn wall_setup_s(&self) -> f64 {
        median(&mut self.setups_s.clone())
    }
}

/// Called right before every throughput round on even rounds and right
/// after it on odd rounds, with the stream index and the query count of
/// the round; the traced run measures its paired top rung there, in the
/// same stretch of time as the round itself. Alternating the order keeps
/// "runs second, on warm memory" from favouring either side.
pub type BesideRound<'a> = &'a mut dyn FnMut(usize, usize);

/// Runs `p.spec` once. `tcp_churn_install` has no rounds to pair with and
/// never calls `beside_round`.
pub fn run(p: &Params, probe: Option<&Probe>, beside_round: BesideRound) -> Outcome {
    let inputs = Inputs::generate(p.seed, p.spec.m, p.spec.l, p.spec.pool);
    match p.spec.name {
        "tcp_small_stream" => cluster_workload::<Base>(p, &inputs, probe, true, beside_round),
        "inproc_large_panels" => cluster_workload::<Base>(p, &inputs, probe, false, beside_round),
        "inproc_supervised_quorum" => {
            cluster_workload::<SupervisedCluster<Fp61>>(p, &inputs, probe, false, beside_round)
        }
        "router_small_panels" => router_small_panels(p, &inputs, probe, beside_round),
        "tcp_churn_install" => tcp_churn_install(p, &inputs, probe),
        other => unreachable!("no workload named {other}"),
    }
}

fn rec_of(probe: Option<&Probe>) -> Option<&Recorder> {
    probe.map(|p| &p.rec)
}

/// A launched system the round loop can drive: the base-protocol cluster
/// or the supervised quorum cluster.
trait Target: Sized {
    /// One timed set-up: raw `A` + unit costs → first verified answer,
    /// booked into `out`; telemetry attached afterwards on a traced run.
    fn setup(
        inputs: &Inputs,
        rng: &mut StdRng,
        link: Link,
        probe: Option<&Probe>,
        out: &mut Outcome,
    ) -> Self;
    /// One sequential query.
    fn query(&self, x: &Vector<Fp61>) -> scec_runtime::Result<Vector<Fp61>>;
    /// One throughput round at the workload's window / panel width.
    fn round(
        &self,
        spec: &Spec,
        inputs: &Inputs,
        start: usize,
        n: usize,
        rec: Option<&Recorder>,
    ) -> Round;
    /// Attaches the program's telemetry.
    fn attach(self, tel: Arc<Telemetry>) -> Self;
    /// Bytes on this target's sockets so far, `(sent, received)`.
    fn wire_totals(&self) -> (u64, u64);
    /// Books end-of-run health counters into `out`.
    fn health(&self, _out: &mut Outcome) {}
    /// Stops the devices and joins their threads.
    fn shutdown(self);
}

/// The base-protocol cluster with its byte meter (TCP only).
struct Base {
    cluster: Cluster,
    meter: Option<WireMeter>,
}

impl Target for Base {
    fn setup(
        inputs: &Inputs,
        rng: &mut StdRng,
        link: Link,
        probe: Option<&Probe>,
        out: &mut Outcome,
    ) -> Self {
        let rec = rec_of(probe);
        let t = Instant::now();
        let system = spanned(rec, "core.build", u64::MAX, || build_system(&inputs.a, rng));
        let launched = spanned(rec, "runtime.launch", u64::MAX, || {
            launch(&system, rng, link)
        });
        let cluster = launched.cluster;
        let first = spanned(rec, "runtime.first_query", 0, || cluster.query(inputs.x(0)));
        out.setups_s.push(t.elapsed().as_secs_f64());
        if let Some((connect, connected_at)) = launched.connected {
            out.connect_ns.push(connect.as_nanos() as f64);
            out.install_ns
                .push(connected_at.elapsed().as_nanos() as f64);
        }
        out.tally.attempted += 1;
        out.tally.failed += u64::from(!matches!(&first, Ok(y) if y == inputs.truth(0)));
        let base = Base {
            cluster,
            meter: launched.meter,
        };
        match probe {
            Some(p) => base.attach(Arc::clone(&p.tel)),
            None => base,
        }
    }

    fn query(&self, x: &Vector<Fp61>) -> scec_runtime::Result<Vector<Fp61>> {
        self.cluster.query(x)
    }

    fn round(
        &self,
        spec: &Spec,
        inputs: &Inputs,
        start: usize,
        n: usize,
        rec: Option<&Recorder>,
    ) -> Round {
        if spec.panel == 0 {
            stream_round(&self.cluster, spec.window, inputs, start, n, rec)
        } else {
            panel_round(
                &self.cluster,
                spec.panel,
                spec.window,
                inputs,
                start,
                n,
                rec,
            )
        }
    }

    fn attach(self, tel: Arc<Telemetry>) -> Self {
        Base {
            cluster: self.cluster.with_telemetry(tel),
            meter: self.meter,
        }
    }

    fn wire_totals(&self) -> (u64, u64) {
        self.meter.as_ref().map_or((0, 0), WireMeter::totals)
    }

    fn shutdown(self) {
        self.cluster.shutdown();
    }
}

impl Target for SupervisedCluster<Fp61> {
    fn setup(
        inputs: &Inputs,
        rng: &mut StdRng,
        _link: Link,
        probe: Option<&Probe>,
        out: &mut Outcome,
    ) -> Self {
        let rec = rec_of(probe);
        let t = Instant::now();
        let cluster = spanned(rec, "runtime.launch", u64::MAX, || {
            launch_supervised(&inputs.a, rng)
        });
        let first = spanned(rec, "runtime.first_query", 0, || cluster.query(inputs.x(0)));
        out.setups_s.push(t.elapsed().as_secs_f64());
        out.tally.attempted += 1;
        out.tally.failed += u64::from(!matches!(&first, Ok(y) if y.value == *inputs.truth(0)));
        match probe {
            Some(p) => cluster.attach(Arc::clone(&p.tel)),
            None => cluster,
        }
    }

    fn query(&self, x: &Vector<Fp61>) -> scec_runtime::Result<Vector<Fp61>> {
        SupervisedCluster::query(self, x).map(|r| r.value)
    }

    fn round(
        &self,
        spec: &Spec,
        inputs: &Inputs,
        start: usize,
        n: usize,
        rec: Option<&Recorder>,
    ) -> Round {
        stream_round(self, spec.window, inputs, start, n, rec)
    }

    fn attach(self, tel: Arc<Telemetry>) -> Self {
        self.with_telemetry(tel)
    }

    fn wire_totals(&self) -> (u64, u64) {
        (0, 0)
    }

    fn health(&self, out: &mut Outcome) {
        let stats = self.stats();
        out.counts.retries = stats.retries as u64;
        out.counts.repairs = stats.repairs as u64;
        if stats.retries + stats.repairs > 0 {
            out.violations.push(format!(
                "honest fleet saw {} retries and {} repairs",
                stats.retries, stats.repairs
            ));
        }
    }

    fn shutdown(self) {
        SupervisedCluster::shutdown(self);
    }
}

/// One round's timed set-ups: each is a full arrival, torn down at once.
fn round_setups<T: Target>(
    p: &Params,
    inputs: &Inputs,
    link: Link,
    probe: Option<&Probe>,
    round: usize,
    out: &mut Outcome,
) {
    for rep in 0..SETUPS_PER_ROUND {
        let mut rng = rng_for(p.seed, (2 + round * SETUPS_PER_ROUND + rep) as u64);
        let target = T::setup(inputs, &mut rng, link, probe, out);
        spanned(rec_of(probe), "runtime.shutdown", u64::MAX, || {
            target.shutdown()
        });
    }
}

/// Counter readings bracketing a throughput round.
struct Reading {
    wire: (u64, u64),
    served: u64,
    mults: u64,
    adds: u64,
}

impl Reading {
    fn take(wire: (u64, u64), server: Option<&DeviceServer>) -> Self {
        Reading {
            wire,
            served: server.map_or(0, |s| s.stats().queries_served.load(Ordering::Acquire)),
            mults: ops::mults(),
            adds: ops::adds(),
        }
    }

    fn add_since(self, before: &Reading, queries: u64, counts: &mut Counts) {
        counts.queries += queries;
        counts.wire_sent += self.wire.0 - before.wire.0;
        counts.wire_received += self.wire.1 - before.wire.1;
        counts.served += self.served - before.served;
        counts.field_mults += self.mults - before.mults;
        counts.field_adds += self.adds - before.adds;
    }
}

/// The untimed ledger pass: with telemetry attached, a few verified
/// queries fill the cost ledger, whose observed cost per query is read.
fn ledger_pass<T: Target>(
    target: T,
    p: &Params,
    inputs: &Inputs,
    probe: Option<&Probe>,
    out: &mut Outcome,
) -> T {
    let tel = probe.map_or_else(|| Arc::new(Telemetry::new()), |p| Arc::clone(&p.tel));
    let target = match probe {
        Some(_) => target,
        None => target.attach(Arc::clone(&tel)),
    };
    let queries = scaled(LEDGER_QUERIES, p.scale, 64);
    let (_, tally) = latency_phase(inputs, 0, queries, None, |x| target.query(x));
    out.tally.absorb(tally);
    let report = tel.costs.report();
    if report.queries == 0 {
        out.violations
            .push("cost ledger recorded no queries".into());
    } else {
        out.cost_per_query = report.observed_cost / report.queries as f64;
    }
    target
}

/// Waits for the server's connections to close, checks that every
/// admitted connection said BYE, folds its stats into `out`, stops it.
fn retire_server(server: DeviceServer, out: &mut Outcome) {
    server.wait_idle();
    let stats = server.stats();
    let accepted = stats.accepted.load(Ordering::Acquire);
    let clean = stats.clean_closes.load(Ordering::Acquire);
    if accepted != clean {
        out.violations.push(format!(
            "server admitted {accepted} connections but {clean} closed cleanly"
        ));
    }
    out.counts.server_accepted += accepted;
    out.counts.server_rejected += stats.rejected.load(Ordering::Acquire);
    out.counts.server_queries_served += stats.queries_served.load(Ordering::Acquire);
    out.counts.server_clean_closes += clean;
    server.shutdown();
}

/// `tcp_small_stream`, `inproc_large_panels`, `inproc_supervised_quorum`:
/// one long-lived cluster driven through latency blocks and throughput
/// rounds, with fresh set-ups timed beside it every round.
fn cluster_workload<T: Target>(
    p: &Params,
    inputs: &Inputs,
    probe: Option<&Probe>,
    tcp: bool,
    beside_round: BesideRound,
) -> Outcome {
    let spec = p.spec;
    let rec = rec_of(probe);
    let mut out = Outcome::default();
    let server = tcp.then(|| spanned(rec, "serve.bind", u64::MAX, bind_server));
    let link = server
        .as_ref()
        .map_or(Link::Channel, |s| Link::Tcp(s.local_addr()));
    let target = T::setup(inputs, &mut rng_for(p.seed, 1), link, probe, &mut out);
    out.counts.install_bytes = target.wire_totals().0;

    let latency_ops = scaled(spec.latency_ops, p.scale, 1);
    let round_ops = scaled(spec.round_ops, p.scale, spec.panel.max(1));
    let mut next = 1;
    let started = Instant::now();
    for round in 0..ROUNDS {
        let mut gauge = vec![host_slowness()];
        round_setups::<T>(p, inputs, link, probe, round, &mut out);
        gauge.push(host_slowness());
        let (block, tally) = latency_phase(inputs, next, latency_ops, rec, |x| target.query(x));
        gauge.push(host_slowness());
        out.latency_blocks.push(block);
        out.tally.absorb(tally);
        next += latency_ops;
        if round % 2 == 0 {
            beside_round(next, round_ops);
            gauge.push(host_slowness());
        }
        let before = Reading::take(target.wire_totals(), server.as_ref());
        let r = target.round(spec, inputs, next, round_ops, rec);
        gauge.push(host_slowness());
        out.close_round(&gauge);
        Reading::take(target.wire_totals(), server.as_ref()).add_since(
            &before,
            round_ops as u64,
            &mut out.counts,
        );
        out.tally.absorb(r.tally);
        out.rounds.push(r);
        if round % 2 == 1 {
            beside_round(next, round_ops);
        }
        next += round_ops;
    }
    out.wall = started.elapsed();

    let target = ledger_pass(target, p, inputs, probe, &mut out);
    target.health(&mut out);
    spanned(rec, "runtime.shutdown", u64::MAX, || target.shutdown());
    if let Some(server) = server {
        retire_server(server, &mut out);
    }
    out
}

/// `router_small_panels`: latency through a one-tenant TCP cluster's
/// `PanelPipeline` (k=16, window 1, batching delay inside every sample),
/// throughput through `Router::run` with two tenants.
fn router_small_panels(
    p: &Params,
    inputs: &Inputs,
    probe: Option<&Probe>,
    beside_round: BesideRound,
) -> Outcome {
    let spec = p.spec;
    let rec = rec_of(probe);
    let mut out = Outcome::default();
    let server = spanned(rec, "serve.bind", u64::MAX, bind_server);
    let addr = server.local_addr();
    let link = Link::Tcp(addr);
    let target = Base::setup(inputs, &mut rng_for(p.seed, 1), link, probe, &mut out);
    out.counts.install_bytes = target.wire_totals().0;

    let latency_ops = scaled(spec.latency_ops, p.scale, spec.panel);
    let per_tenant = scaled(spec.round_ops, p.scale, spec.panel);
    let attempted = (ROUTER_TENANTS * per_tenant) as u64;
    let (mut cost, mut queries) = (0.0, 0u64);
    let mut next = 1;
    let started = Instant::now();
    for round in 0..ROUNDS {
        let mut gauge = vec![host_slowness()];
        round_setups::<Base>(p, inputs, link, probe, round, &mut out);
        gauge.push(host_slowness());
        let (block, tally) = match rec {
            Some(r) => {
                let timed = Timed::new(&target.cluster, r, next as u64);
                panel_latency_block(&timed, spec.panel, inputs, next, latency_ops, rec)
            }
            None => {
                panel_latency_block(&target.cluster, spec.panel, inputs, next, latency_ops, None)
            }
        };
        gauge.push(host_slowness());
        out.latency_blocks.push(block);
        out.tally.absorb(tally);
        next += latency_ops;

        let config = LoadConfig {
            tenants: ROUTER_TENANTS,
            queries_per_tenant: per_tenant,
            panel_width: spec.panel,
            window: spec.window,
            rows: spec.m,
            cols: spec.l,
            seed: p.seed.wrapping_add(round as u64),
            max_in_flight: 0,
            adaptive: false,
            trace: false,
        };
        let router = Router::new(config).expect("router config is valid");
        if round % 2 == 0 {
            beside_round(round, per_tenant);
            gauge.push(host_slowness());
        }
        let before = Reading::take((0, 0), Some(&server));
        let t = Instant::now();
        let report = spanned(rec, "serve.router_run", u64::MAX, || router.run(addr));
        let elapsed = t.elapsed();
        gauge.push(host_slowness());
        out.close_round(&gauge);
        let mut wire = (0, 0);
        let mut verified = 0;
        match report {
            Ok(report) => {
                for (tenant, err) in &report.failures {
                    out.violations
                        .push(format!("router tenant {tenant} failed: {err}"));
                }
                for t in &report.tenants {
                    verified += t.queries - t.mismatches;
                    cost += t.observed_cost;
                    queries += t.queries;
                    // The Router's meters cover its set-up too; it reports no split.
                    wire.0 += t.wire_sent;
                    wire.1 += t.wire_received;
                }
                out.counts.admission_peak =
                    out.counts.admission_peak.max(report.peak_in_flight as u64);
                out.counts.admission_cap = report.admission_cap as u64;
                out.counts.router_p99_s = out.counts.router_p99_s.max(report.worst_p99_s);
            }
            Err(e) => out.violations.push(format!("router run failed: {e}")),
        }
        Reading::take(wire, Some(&server)).add_since(&before, attempted, &mut out.counts);
        let tally = Tally {
            attempted,
            failed: attempted - verified.min(attempted),
        };
        out.tally.absorb(tally);
        out.rounds.push(Round {
            elapsed,
            tally,
            ..Round::default()
        });
        if round % 2 == 1 {
            beside_round(round, per_tenant);
        }
    }
    out.wall = started.elapsed();
    if queries > 0 {
        out.cost_per_query = cost / queries as f64;
    }
    spanned(rec, "runtime.shutdown", u64::MAX, || target.shutdown());
    retire_server(server, &mut out);
    out
}

/// Window-1 panel latency: each query is timed from its `submit` to the
/// moment its decoded column is handed back, so the wait for the panel to
/// fill and for the next broadcast to displace it is inside the sample.
fn panel_latency_block<C: PanelQuery<Elem = Fp61>>(
    cluster: &C,
    k: usize,
    inputs: &Inputs,
    start: usize,
    n: usize,
    rec: Option<&Recorder>,
) -> (Vec<f64>, Tally) {
    let mut samples_us = Vec::with_capacity(n);
    let mut submitted: VecDeque<Instant> = VecDeque::with_capacity(2 * k);
    let mut next_truth = start;
    let mut verified = 0u64;
    let mut credit = |ys: &[Vector<Fp61>], submitted: &mut VecDeque<Instant>| {
        for y in ys {
            let t0 = submitted.pop_front().expect("one submit per result");
            samples_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
            verified += u64::from(y == inputs.truth(next_truth));
            next_truth += 1;
        }
    };
    let mut pipeline = PanelPipeline::new(cluster, k, 1).expect("panel config is positive");
    let drained = (|| {
        for i in start..start + n {
            submitted.push_back(Instant::now());
            let ys = spanned(rec, "runtime.submit", i as u64, || {
                pipeline.submit(inputs.x(i))
            })?;
            credit(&ys, &mut submitted);
        }
        spanned(rec, "runtime.collect", u64::MAX, || pipeline.collect())
    })();
    if let Ok(ys) = &drained {
        credit(ys, &mut submitted);
    }
    // Queries an error swallowed never came back: they keep a sample (the
    // time they have waited so far) and count as failed.
    for t0 in submitted {
        samples_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    let tally = Tally {
        attempted: n as u64,
        failed: n as u64 - verified,
    };
    (samples_us, tally)
}

/// `tcp_churn_install`: every cycle is a full tenant arrival — build,
/// encode, connect, install, a first verified answer — followed by 16
/// sequential and 48 pipelined queries and a shutdown. A block's
/// throughput is all of its verified queries over its wall time, set-ups
/// included.
fn tcp_churn_install(p: &Params, inputs: &Inputs, probe: Option<&Probe>) -> Outcome {
    let spec = p.spec;
    let rec = rec_of(probe);
    let mut out = Outcome::default();
    let per_block = scaled(CHURN_CYCLES, p.scale, CHURN_BLOCKS) / CHURN_BLOCKS;
    let mut server = spanned(rec, "serve.bind", u64::MAX, bind_server);
    let mut last: Option<Base> = None;
    let before = (ops::mults(), ops::adds());
    let started = Instant::now();
    for block in 0..CHURN_BLOCKS {
        let mut round = Round::default();
        let mut latency_us = Vec::with_capacity(per_block * CHURN_SEQUENTIAL);
        let verified_before = out.tally.attempted - out.tally.failed;
        let slowness_before = host_slowness();
        let block_started = Instant::now();
        for cycle in block * per_block..(block + 1) * per_block {
            if let Some(previous) = last.take() {
                spanned(rec, "runtime.shutdown", u64::MAX, || previous.shutdown());
            }
            if cycle > 0 && cycle % CHURN_CYCLES_PER_SERVER == 0 {
                let fresh = spanned(rec, "serve.bind", u64::MAX, bind_server);
                retire_server(std::mem::replace(&mut server, fresh), &mut out);
            }
            let link = Link::Tcp(server.local_addr());
            let target = Base::setup(
                inputs,
                &mut rng_for(p.seed, 1 + cycle as u64),
                link,
                probe,
                &mut out,
            );
            out.counts.install_bytes = target.wire_totals().0;

            let first = 1 + cycle * (CHURN_SEQUENTIAL + CHURN_PIPELINED);
            let reading = Reading::take(target.wire_totals(), Some(&server));
            let (samples, tally) =
                latency_phase(inputs, first, CHURN_SEQUENTIAL, rec, |x| target.query(x));
            latency_us.extend(samples);
            out.tally.absorb(tally);
            let piped = target.round(spec, inputs, first + CHURN_SEQUENTIAL, CHURN_PIPELINED, rec);
            out.tally.absorb(piped.tally);
            Reading::take(target.wire_totals(), Some(&server)).add_since(
                &reading,
                (CHURN_SEQUENTIAL + CHURN_PIPELINED) as u64,
                &mut out.counts,
            );
            round.occupancy_sum += piped.occupancy_sum;
            round.broadcasts += piped.broadcasts;
            last = Some(target);
        }
        round.elapsed = block_started.elapsed();
        out.close_round(&[slowness_before, host_slowness()]);
        round.tally = Tally {
            attempted: out.tally.attempted - out.tally.failed - verified_before,
            failed: 0,
        };
        out.rounds.push(round);
        out.latency_blocks.push(latency_us);
    }
    out.wall = started.elapsed();
    // A churn cycle's encode is part of the workload, so the per-query
    // field-operation figure here is over everything the cycles did.
    out.counts.field_mults = ops::mults() - before.0;
    out.counts.field_adds = ops::adds() - before.1;

    let target = ledger_pass(
        last.expect("at least one cycle"),
        p,
        inputs,
        probe,
        &mut out,
    );
    spanned(rec, "runtime.shutdown", u64::MAX, || target.shutdown());
    retire_server(server, &mut out);
    out
}

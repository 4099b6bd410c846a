//! The front-end router: many tenants sharded across one TCP device
//! fleet, with admission control and per-tenant cost ledgers.
//!
//! Each tenant is a complete SCEC instance of its own — its own data
//! matrix `A`, its own MCSCEC allocation and code design, its own
//! device enrollments over the shared [`DeviceServer`](crate::DeviceServer)
//! — so tenants share nothing but sockets and server threads. The
//! router drives every tenant from a dedicated thread through a
//! [`PanelPipeline`]: queries batch into width-`w` panels, at most
//! `window` panels ride per tenant, and a **global admission gate**
//! bounds the total number of admitted-but-unfinished queries across
//! all tenants. The gate's high-water mark is the tier's measured peak
//! concurrency.
//!
//! After each tenant drains, the measured per-device wire bytes from
//! its [`WireMeter`] are reconciled into its
//! [`CostAccountant`](scec_telemetry::CostAccountant) ledger — the TCP
//! transport reports `counts_wire_bytes()`, which zeroes the analytic
//! byte columns, so the final report reads *MCSCEC-predicted* bytes
//! against *actually shipped* bytes, per tenant and per device.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::time::Instant;

use rand::{rngs::StdRng, SeedableRng};

use scec_allocation::{AdaptiveAllocator, AdaptiveConfig, DriftSample, EdgeFleet, Verdict};
use scec_core::{AllocationStrategy, ScecSystem};
use scec_linalg::{Fp61, Matrix, Vector};
use scec_runtime::{Clock, LocalCluster, PanelPipeline, RealClock};
use scec_telemetry::{Alert, MetricValue, SloConfig, Telemetry};

use crate::error::{Error, Result};
use crate::obs::ObsPlane;
use crate::transport::{TcpTransport, WireMeter};

/// Per-tenant fleet unit costs — one mid-sized heterogeneous fleet,
/// identical for every tenant so ledgers compare across tenants.
const FLEET_UNIT_COSTS: [f64; 5] = [1.0, 1.3, 1.6, 2.0, 2.5];

/// Divergence factors below this are treated as ledger noise at the
/// adaptive checkpoint: a device must consume at least twice its
/// MCSCEC-predicted cost before it counts as drifted, so a healthy tier
/// never re-plans.
const ROUTER_DEAD_BAND: f64 = 2.0;

/// Workload shape for [`Router::run`].
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Number of tenants (tenant ids `0..tenants`).
    pub tenants: usize,
    /// Queries each tenant submits.
    pub queries_per_tenant: usize,
    /// Panel width `w`: queries batched per broadcast.
    pub panel_width: usize,
    /// Panels in flight per tenant.
    pub window: usize,
    /// Rows of each tenant's data matrix `A`.
    pub rows: usize,
    /// Columns of `A` (query length).
    pub cols: usize,
    /// Base RNG seed; tenant `t` derives its own stream from it.
    pub seed: u64,
    /// Global admission cap: admitted-but-unfinished queries across all
    /// tenants. `0` means "uncapped" (sized to the workload's natural
    /// maximum).
    pub max_in_flight: usize,
    /// Adaptive allocation mode: each tenant drives its stream in two
    /// epochs with a drift checkpoint between. At the checkpoint the
    /// tenant folds its cost ledger's observed-vs-predicted divergence
    /// into per-device drift factors and asks an
    /// [`AdaptiveAllocator`]; on a `Reallocated` verdict it re-runs
    /// TA-1 over drift-scaled costs, re-encodes, and re-enrolls its
    /// devices for the second epoch. A healthy tier never crosses the
    /// trigger, so adaptive mode is inert (and bit-identical) there.
    pub adaptive: bool,
    /// Distributed tracing: each tenant mints deterministic
    /// [`TraceContext`](scec_telemetry::TraceContext)s for its queries,
    /// query frames carry the 17-byte context block (version-2 frames),
    /// and device servers echo it — the predicted side of the cost
    /// ledger prices the block too, so byte reconciliation stays exact
    /// with tracing on. Off by default: frames stay version 1,
    /// byte-identical to the pre-tracing wire format.
    pub trace: bool,
}

impl Default for LoadConfig {
    fn default() -> Self {
        // 64 tenants × 12 panels × 16 queries/panel = 12288 queries
        // admissible at once — the tier's ≥10k concurrency regime.
        LoadConfig {
            tenants: 64,
            queries_per_tenant: 384,
            panel_width: 16,
            window: 12,
            rows: 8,
            cols: 16,
            seed: 7,
            max_in_flight: 0,
            adaptive: false,
            trace: false,
        }
    }
}

impl LoadConfig {
    /// The effective admission cap (resolves the `0 = uncapped`
    /// convention to the workload's natural maximum).
    pub fn admission_cap(&self) -> usize {
        if self.max_in_flight == 0 {
            // Window-full pipelines plus one buffering panel per tenant.
            self.tenants * self.panel_width * (self.window + 1)
        } else {
            self.max_in_flight
        }
    }

    fn validate(&self) -> Result<()> {
        if self.tenants == 0 || self.queries_per_tenant == 0 {
            return Err(Error::Config("tenants and queries must be positive".into()));
        }
        if self.panel_width == 0 || self.window == 0 {
            return Err(Error::Config(
                "panel width and window must be positive".into(),
            ));
        }
        if self.rows == 0 || self.cols == 0 {
            return Err(Error::Config("matrix dimensions must be positive".into()));
        }
        // Permits are acquired one query at a time, so a cap that cannot
        // hold one buffering panel per tenant can strand every tenant
        // below its broadcast threshold.
        if self.admission_cap() < self.tenants * self.panel_width {
            return Err(Error::Config(format!(
                "admission cap {} cannot cover one {}-wide panel per tenant ({})",
                self.admission_cap(),
                self.panel_width,
                self.tenants * self.panel_width
            )));
        }
        Ok(())
    }
}

/// The global admission gate: a counting semaphore over admitted
/// queries, tracking its high-water mark.
struct Admission {
    cap: usize,
    state: Mutex<Admitted>,
    cv: Condvar,
}

#[derive(Default)]
struct Admitted {
    current: usize,
    peak: usize,
    /// Threads inside `acquire`'s wait. A release with none skips the
    /// notify, which on Linux is a `futex_wake` syscall whether or not
    /// anyone sleeps.
    waiting: usize,
}

impl Admission {
    fn new(cap: usize) -> Self {
        Admission {
            cap,
            state: Mutex::new(Admitted::default()),
            cv: Condvar::new(),
        }
    }

    fn acquire(&self, n: usize) {
        let mut s = self.state.lock().unwrap_or_else(|p| p.into_inner());
        while s.current + n > self.cap {
            s.waiting += 1;
            s = self.cv.wait(s).unwrap_or_else(|p| p.into_inner());
            s.waiting -= 1;
        }
        s.current += n;
        s.peak = s.peak.max(s.current);
    }

    fn release(&self, n: usize) {
        if n == 0 {
            return;
        }
        let mut s = self.state.lock().unwrap_or_else(|p| p.into_inner());
        s.current = s.current.saturating_sub(n);
        // Read under the lock a waiter registers under, so a waiter that
        // has not been counted yet has not tested the condition yet.
        let wake = s.waiting > 0;
        drop(s);
        if wake {
            self.cv.notify_all();
        }
    }

    fn peak(&self) -> usize {
        self.state.lock().unwrap_or_else(|p| p.into_inner()).peak
    }
}

/// One tenant's outcome: its ledger and latency summary.
#[derive(Clone, Debug)]
pub struct TenantReport {
    /// Tenant id.
    pub tenant: u64,
    /// Queries completed.
    pub queries: u64,
    /// Results that did not match the tenant's own `A·x` — always 0 on
    /// a healthy tier.
    pub mismatches: u64,
    /// Bytes actually sent to devices (measured, framing included).
    pub wire_sent: u64,
    /// Bytes actually received from devices.
    pub wire_received: u64,
    /// MCSCEC-predicted user→device bytes over the completed queries.
    pub predicted_sent: u64,
    /// MCSCEC-predicted device→user bytes.
    pub predicted_received: u64,
    /// Monetized predicted cost (`Σ c_j · l_j · queries`).
    pub predicted_cost: f64,
    /// Monetized observed cost (`Σ c_j ·` rows served).
    pub observed_cost: f64,
    /// p99 query latency (seconds) from the tenant's pipeline
    /// histogram; 0 when telemetry is compiled out.
    pub p99_latency_s: f64,
    /// Adaptive re-plans this tenant installed (0 unless
    /// [`LoadConfig::adaptive`] is set and the drift checkpoint fired).
    pub reallocations: u64,
    /// SLO alerts fired for this tenant at its final burn-rate window
    /// close (empty on a healthy tier).
    pub alerts: Vec<Alert>,
}

/// The full run: per-tenant rows plus tier-level aggregates.
#[derive(Clone, Debug, Default)]
pub struct LoadReport {
    /// Per-tenant outcomes, ascending tenant id.
    pub tenants: Vec<TenantReport>,
    /// Tenants that failed, with the failure rendered.
    pub failures: Vec<(u64, String)>,
    /// High-water mark of admitted-but-unfinished queries across the
    /// tier.
    pub peak_in_flight: usize,
    /// The admission cap the gate enforced.
    pub admission_cap: usize,
    /// Wall-clock seconds for the whole driving phase.
    pub elapsed_s: f64,
    /// Completed queries across all tenants.
    pub total_queries: u64,
    /// `total_queries / elapsed_s`.
    pub throughput_qps: f64,
    /// Worst per-tenant p99 latency (seconds).
    pub worst_p99_s: f64,
    /// Total adaptive re-plans across the tier.
    pub reallocations: u64,
    /// Total SLO alerts fired across the tier.
    pub alerts: u64,
}

impl LoadReport {
    /// Human-readable summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "serving tier: {} tenants, {} queries, {:.2}s, {:.0} q/s",
            self.tenants.len(),
            self.total_queries,
            self.elapsed_s,
            self.throughput_qps
        );
        let _ = writeln!(
            out,
            "  peak in-flight  = {} (admission cap {})",
            self.peak_in_flight, self.admission_cap
        );
        let _ = writeln!(out, "  worst p99       = {:.6}s", self.worst_p99_s);
        let _ = writeln!(out, "  reallocations   = {}", self.reallocations);
        let _ = writeln!(out, "  slo alerts      = {}", self.alerts);
        let (ws, wr): (u64, u64) = self
            .tenants
            .iter()
            .fold((0, 0), |(s, r), t| (s + t.wire_sent, r + t.wire_received));
        let (ps, pr): (u64, u64) = self.tenants.iter().fold((0, 0), |(s, r), t| {
            (s + t.predicted_sent, r + t.predicted_received)
        });
        let _ = writeln!(
            out,
            "  wire bytes      = {ws} sent / {wr} received (predicted {ps} / {pr})"
        );
        let mismatches: u64 = self.tenants.iter().map(|t| t.mismatches).sum();
        let _ = writeln!(out, "  result mismatches = {mismatches}");
        for t in &self.tenants {
            let _ = writeln!(
                out,
                "  tenant {:>3}: {:>6} q  wire {:>9}/{:<9}  predicted {:>9}/{:<9}  \
                 cost {:.1}/{:.1}  p99 {:.6}s",
                t.tenant,
                t.queries,
                t.wire_sent,
                t.wire_received,
                t.predicted_sent,
                t.predicted_received,
                t.predicted_cost,
                t.observed_cost,
                t.p99_latency_s
            );
            for alert in &t.alerts {
                let _ = writeln!(out, "    {}", alert.render());
            }
        }
        for (tenant, err) in &self.failures {
            let _ = writeln!(out, "  tenant {tenant:>3}: FAILED: {err}");
        }
        out
    }

    /// The report as a JSON object (the `scec load --metrics-out`
    /// payload).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = write!(
            out,
            "  \"peak_in_flight\": {},\n  \"admission_cap\": {},\n  \
             \"elapsed_s\": {:.6},\n  \"total_queries\": {},\n  \
             \"throughput_qps\": {:.1},\n  \"worst_p99_s\": {:.6},\n  \
             \"reallocations\": {},\n  \"slo_alerts\": {},\n  \"tenants\": [",
            self.peak_in_flight,
            self.admission_cap,
            self.elapsed_s,
            self.total_queries,
            self.throughput_qps,
            self.worst_p99_s,
            self.reallocations,
            self.alerts
        );
        for (i, t) in self.tenants.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"tenant\": {}, \"queries\": {}, \"mismatches\": {}, \
                 \"wire_sent\": {}, \"wire_received\": {}, \"predicted_sent\": {}, \
                 \"predicted_received\": {}, \"predicted_cost\": {:.4}, \
                 \"observed_cost\": {:.4}, \"p99_latency_s\": {:.6}, \
                 \"reallocations\": {}, \"alerts\": [",
                t.tenant,
                t.queries,
                t.mismatches,
                t.wire_sent,
                t.wire_received,
                t.predicted_sent,
                t.predicted_received,
                t.predicted_cost,
                t.observed_cost,
                t.p99_latency_s,
                t.reallocations
            );
            for (j, a) in t.alerts.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"kind\": \"{}\", \"burn_permille\": {}}}",
                    a.kind.as_str(),
                    a.burn_permille
                );
            }
            out.push_str("]}");
        }
        out.push_str("\n  ],\n  \"failures\": [");
        for (i, (tenant, err)) in self.failures.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    {{\"tenant\": {tenant}, \"error\": {:?}}}", err);
        }
        out.push_str("\n  ]\n}");
        out
    }
}

/// Shards a multi-tenant query load across one TCP device fleet.
pub struct Router {
    config: LoadConfig,
}

impl Router {
    /// A router for the given workload shape.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] for degenerate shapes (zero tenants, an
    /// admission cap too small to let every tenant fill one panel).
    pub fn new(config: LoadConfig) -> Result<Self> {
        config.validate()?;
        Ok(Router { config })
    }

    /// Drives the full load against the device server at `addr`: one
    /// thread per tenant, all released together after setup, each
    /// pumping its panel pipeline under the global admission gate.
    ///
    /// # Errors
    ///
    /// Setup failures surface per tenant in
    /// [`LoadReport::failures`]; only thread-spawn failures abort the
    /// run.
    pub fn run(&self, addr: SocketAddr) -> Result<LoadReport> {
        self.run_observed(addr, &Arc::new(ObsPlane::new(SloConfig::default())))
    }

    /// Like [`run`](Self::run), wiring every tenant's telemetry into
    /// `obs`: each tenant registers as source `tenant-<id>` before the
    /// load starts (registration order — and therefore each tenant's
    /// trace lane — is deterministic), live scrapes see the run in
    /// flight, the adaptive drift checkpoint closes an SLO window, and
    /// each tenant's final window close lands its alerts in its
    /// [`TenantReport`].
    ///
    /// # Errors
    ///
    /// Same contract as [`run`](Self::run).
    pub fn run_observed(&self, addr: SocketAddr, obs: &Arc<ObsPlane>) -> Result<LoadReport> {
        let cfg = &self.config;
        let admission = Arc::new(Admission::new(cfg.admission_cap()));
        let barrier = Arc::new(Barrier::new(cfg.tenants));
        let started = Instant::now();
        let mut joins = Vec::with_capacity(cfg.tenants);
        for tenant in 0..cfg.tenants as u64 {
            let cfg = cfg.clone();
            let admission = Arc::clone(&admission);
            let barrier = Arc::clone(&barrier);
            let obs = Arc::clone(obs);
            let tel = Arc::new(Telemetry::new());
            obs.register(format!("tenant-{tenant}"), Arc::clone(&tel));
            joins.push(
                std::thread::Builder::new()
                    .name(format!("scec-load-tenant-{tenant}"))
                    .spawn(move || {
                        tenant_session(addr, tenant, &cfg, &admission, &barrier, &obs, tel)
                    })
                    .map_err(Error::Io)?,
            );
        }
        let mut report = LoadReport {
            admission_cap: cfg.admission_cap(),
            ..LoadReport::default()
        };
        for (tenant, join) in joins.into_iter().enumerate() {
            match join.join() {
                Ok(Ok(t)) => report.tenants.push(t),
                Ok(Err(e)) => report.failures.push((tenant as u64, e.to_string())),
                Err(_) => report
                    .failures
                    .push((tenant as u64, "tenant thread panicked".into())),
            }
        }
        report.elapsed_s = started.elapsed().as_secs_f64();
        report.peak_in_flight = admission.peak();
        report.total_queries = report.tenants.iter().map(|t| t.queries).sum();
        report.throughput_qps = if report.elapsed_s > 0.0 {
            report.total_queries as f64 / report.elapsed_s
        } else {
            0.0
        };
        report.worst_p99_s = report
            .tenants
            .iter()
            .map(|t| t.p99_latency_s)
            .fold(0.0, f64::max);
        report.reallocations = report.tenants.iter().map(|t| t.reallocations).sum();
        report.alerts = report.tenants.iter().map(|t| t.alerts.len() as u64).sum();
        Ok(report)
    }
}

/// One tenant, end to end: build its SCEC instance, enroll its devices
/// over TCP, pump the pipeline, verify, reconcile the wire bytes into
/// its ledger.
fn tenant_session(
    addr: SocketAddr,
    tenant: u64,
    cfg: &LoadConfig,
    admission: &Admission,
    barrier: &Barrier,
    obs: &ObsPlane,
    tel: Arc<Telemetry>,
) -> Result<TenantReport> {
    let source = format!("tenant-{tenant}");
    let setup = setup_tenant(addr, tenant, cfg, tel);
    // Pre-generate the whole query stream and its ground truth before
    // the start barrier: the measured loop is then pure protocol I/O,
    // so submission outruns the fleet and the pipeline windows actually
    // fill — the sustained-in-flight regime the tier is sized for.
    let workload = setup.as_ref().ok().map(|(a, _, _, _)| {
        let mut rng = StdRng::seed_from_u64(
            cfg.seed ^ 0x6c6f_6164 ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(tenant + 1)),
        );
        let mut xs = Vec::with_capacity(cfg.queries_per_tenant);
        let mut truths = Vec::with_capacity(cfg.queries_per_tenant);
        for _ in 0..cfg.queries_per_tenant {
            let x = Vector::random(cfg.cols, &mut rng);
            truths.push(a.matvec(&x));
            xs.push(x);
        }
        (xs, truths)
    });
    // Everyone joins the barrier exactly once, success or not, so one
    // failed tenant cannot strand the rest at the starting line.
    barrier.wait();
    let (a, cluster, tel, meter) = setup?;
    let (xs, truths) = workload.expect("workload generated on the success path");
    let truths = truths
        .into_iter()
        .collect::<std::result::Result<Vec<_>, _>>()?;
    let mut st = PumpState::default();
    let mut meters = vec![meter];
    let mut reallocations = 0u64;
    let mut second_cluster: Option<LocalCluster<Fp61>> = None;
    // Adaptive mode drives the stream in two epochs with a drift
    // checkpoint between them; static mode is one epoch.
    let split = if cfg.adaptive { xs.len() / 2 } else { xs.len() };
    let outcome = (|| -> Result<()> {
        {
            let mut pipeline =
                PanelPipeline::new(&cluster, cfg.panel_width, cfg.window)?.with_telemetry(&tel);
            pump_epoch(
                &mut pipeline,
                &xs[..split],
                &truths[..split],
                admission,
                &mut st,
            )?;
        }
        if split == xs.len() {
            return Ok(());
        }
        // The drift checkpoint is also an SLO window close: the
        // CostDivergence alert and the allocator's drift factors read
        // the same ledger, so burn and re-plans line up in the report.
        let _ = obs.observe(&source);
        let factors = drift_factors(&tel, FLEET_UNIT_COSTS.len());
        match checkpoint_scaled_costs(cfg.rows, &factors)? {
            Some(scaled) => {
                // Re-plan for the second epoch: TA-1 over drift-scaled
                // costs, fresh encode, fresh enrollments. The first
                // connection stays open (the server scopes state per
                // connection) and both are shut down together below.
                reallocations += 1;
                let mut rng = StdRng::seed_from_u64(
                    cfg.seed ^ 0x7265_706c ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(tenant + 1)),
                );
                let (c2, m2) =
                    connect_cluster(addr, tenant, &a, &scaled, &tel, cfg.trace, &mut rng)?;
                meters.push(m2);
                let c2 = second_cluster.insert(c2);
                let mut pipeline =
                    PanelPipeline::new(&*c2, cfg.panel_width, cfg.window)?.with_telemetry(&tel);
                pump_epoch(
                    &mut pipeline,
                    &xs[split..],
                    &truths[split..],
                    admission,
                    &mut st,
                )?;
            }
            None => {
                let mut pipeline =
                    PanelPipeline::new(&cluster, cfg.panel_width, cfg.window)?.with_telemetry(&tel);
                pump_epoch(
                    &mut pipeline,
                    &xs[split..],
                    &truths[split..],
                    admission,
                    &mut st,
                )?;
            }
        }
        Ok(())
    })();
    // Never exit holding permits: a failing tenant must not starve
    // the admission gate for the healthy ones.
    admission.release(st.in_flight);
    outcome?;
    // Reconcile measured wire bytes into the ledger: the TCP transport
    // metered real bytes, so the byte columns are still zero here.
    for meter in &meters {
        for (idx, &device) in meter.devices().iter().enumerate() {
            tel.costs.record_sent(device, meter.sent(idx));
            tel.costs.record_received(device, meter.received(idx), 0);
        }
    }
    let ledger = tel.costs.report();
    let p99 = pipeline_p99(&tel);
    // Final burn-rate window close: whatever fires here is the tenant's
    // end-of-run SLO verdict.
    let alerts = obs.observe(&source);
    let (wire_sent, wire_received) = meters
        .iter()
        .map(WireMeter::totals)
        .fold((0, 0), |(s, r), (ms, mr)| (s + ms, r + mr));
    cluster.shutdown();
    if let Some(c2) = second_cluster {
        c2.shutdown();
    }
    Ok(TenantReport {
        tenant,
        queries: st.queries,
        mismatches: st.mismatches,
        wire_sent,
        wire_received,
        predicted_sent: ledger.total_predicted.bytes_sent,
        predicted_received: ledger.total_predicted.bytes_received,
        predicted_cost: ledger.predicted_cost,
        observed_cost: ledger.observed_cost,
        p99_latency_s: p99,
        reallocations,
        alerts,
    })
}

/// Per-tenant pump bookkeeping shared across epochs: completed-query
/// and mismatch counters, the FIFO of expected results, and the
/// admission permits currently held.
#[derive(Default)]
struct PumpState {
    queries: u64,
    mismatches: u64,
    expected: VecDeque<Vector<Fp61>>,
    in_flight: usize,
}

impl PumpState {
    /// Books the queries one pipeline call completed: checks each result
    /// against the expected FIFO, then returns their admission permits
    /// together — one lock and at most one wake-up per batch, where one
    /// per result only spaced the same releases a few nanoseconds apart.
    fn credit(&mut self, admission: &Admission, ys: &[Vector<Fp61>]) {
        for y in ys {
            if self.expected.pop_front().as_ref() != Some(y) {
                self.mismatches += 1;
            }
        }
        self.queries += ys.len() as u64;
        self.in_flight -= ys.len();
        admission.release(ys.len());
    }
}

/// Drives one slice of the query stream through `pipeline` under the
/// admission gate, draining the pipeline completely at the end (an
/// epoch boundary is a checkpoint — nothing may straddle it).
fn pump_epoch(
    pipeline: &mut PanelPipeline<'_, LocalCluster<Fp61>>,
    xs: &[Vector<Fp61>],
    truths: &[Vector<Fp61>],
    admission: &Admission,
    st: &mut PumpState,
) -> Result<()> {
    for (x, truth) in xs.iter().zip(truths) {
        admission.acquire(1);
        st.in_flight += 1;
        st.expected.push_back(truth.clone());
        st.credit(admission, &pipeline.submit(x)?);
    }
    st.credit(admission, &pipeline.flush()?);
    st.credit(admission, &pipeline.collect()?);
    Ok(())
}

/// Per-device drift factors from the cost ledger at the epoch
/// checkpoint: observed-vs-predicted divergence, flattened to 1.0
/// inside the dead band so ledger noise on a healthy tier never reads
/// as drift.
fn drift_factors(tel: &Telemetry, devices: usize) -> Vec<f64> {
    (1..=devices)
        .map(|d| {
            let div = tel.costs.device_divergence_permille(d) as f64 / 1_000.0;
            if div >= ROUTER_DEAD_BAND {
                div
            } else {
                1.0
            }
        })
        .collect()
}

/// Asks a fresh [`AdaptiveAllocator`] whether the drift factors warrant
/// a re-plan; `Some(scaled_costs)` means re-run TA-1 over these
/// effective unit costs for the next epoch.
fn checkpoint_scaled_costs(rows: usize, factors: &[f64]) -> Result<Option<Vec<f64>>> {
    let devices: Vec<(usize, f64)> = FLEET_UNIT_COSTS
        .iter()
        .enumerate()
        .map(|(i, &c)| (i + 1, c))
        .collect();
    let mut alloc = AdaptiveAllocator::new(rows, &devices, AdaptiveConfig::default())?;
    let samples: Vec<DriftSample> = factors
        .iter()
        .enumerate()
        .map(|(i, &f)| DriftSample {
            device: i + 1,
            factor: f,
            healthy: true,
        })
        .collect();
    match alloc.observe(&samples) {
        Ok(Verdict::Reallocated { .. }) => Ok(Some(
            FLEET_UNIT_COSTS
                .iter()
                .zip(factors)
                .map(|(c, f)| c * f)
                .collect(),
        )),
        // An allocator error means the fleet cannot staff any plan at
        // all — the current plan is no worse, keep serving on it.
        Ok(Verdict::Hold { .. }) | Err(_) => Ok(None),
    }
}

type TenantSetup = (Matrix<Fp61>, LocalCluster<Fp61>, Arc<Telemetry>, WireMeter);

fn setup_tenant(
    addr: SocketAddr,
    tenant: u64,
    cfg: &LoadConfig,
    tel: Arc<Telemetry>,
) -> Result<TenantSetup> {
    // Tenant-distinct streams from one base seed: each tenant gets its
    // own A, randomness, and query stream.
    let mut rng =
        StdRng::seed_from_u64(cfg.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(tenant + 1)));
    let a = Matrix::<Fp61>::random(cfg.rows, cfg.cols, &mut rng);
    let (cluster, meter) = connect_cluster(
        addr,
        tenant,
        &a,
        &FLEET_UNIT_COSTS,
        &tel,
        cfg.trace,
        &mut rng,
    )?;
    Ok((a, cluster, tel, meter))
}

/// Builds one SCEC instance over `a` with the given unit costs (MCSCEC
/// allocation + code design), enrolls its devices over TCP, and wires
/// the shared telemetry in — used both for initial setup and for the
/// adaptive checkpoint's re-plan.
fn connect_cluster(
    addr: SocketAddr,
    tenant: u64,
    a: &Matrix<Fp61>,
    unit_costs: &[f64],
    tel: &Arc<Telemetry>,
    trace: bool,
    rng: &mut StdRng,
) -> Result<(LocalCluster<Fp61>, WireMeter)> {
    let fleet = EdgeFleet::from_unit_costs(unit_costs.to_vec())?;
    let system = ScecSystem::build(a.clone(), fleet, AllocationStrategy::Mcscec, rng)?;
    let mut meter_slot: Option<WireMeter> = None;
    let mut connect_err: Option<Error> = None;
    let launched = LocalCluster::launch_with_transport(
        &system,
        rng,
        Arc::new(RealClock::default()) as Arc<dyn Clock>,
        |shares| {
            let ids: Vec<usize> = shares.iter().map(|s| s.device()).collect();
            match TcpTransport::connect(addr, tenant, &ids) {
                Ok((transport, resp_rx, meter)) => {
                    meter_slot = Some(meter);
                    Ok((Box::new(transport), resp_rx))
                }
                Err(e) => {
                    connect_err = Some(e);
                    Err(scec_runtime::Error::ChannelClosed { device: None })
                }
            }
        },
    );
    let cluster = match launched {
        Ok(c) => {
            let c = c.with_telemetry(Arc::clone(tel));
            if trace {
                c.with_trace_tenant(tenant)
            } else {
                c
            }
        }
        Err(e) => {
            // Surface the richer serve-side error (admission refusals
            // carry the server's reason) over the generic runtime one.
            return Err(connect_err.take().unwrap_or(Error::Runtime(e)));
        }
    };
    let meter = meter_slot.expect("connect ran on the success path");
    Ok((cluster, meter))
}

/// p99 of the tenant's per-query FIFO latency (falls back to the
/// cluster's query-latency histogram; 0 when neither was recorded).
fn pipeline_p99(tel: &Telemetry) -> f64 {
    let snapshot = tel.registry.snapshot();
    for name in [
        "scec_pipeline_fifo_latency_seconds",
        "scec_query_latency_seconds",
    ] {
        for (_, bare, _, value) in &snapshot.entries {
            if bare == name {
                if let MetricValue::Histogram { p99, .. } = value {
                    return *p99;
                }
            }
        }
    }
    0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_wakes_a_counted_waiter_with_one_batched_release() {
        let gate = Admission::new(4);
        gate.acquire(4);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| gate.acquire(2));
            // Release only once the waiter is counted: from then on
            // nothing but the notify can let it through.
            while gate.state.lock().unwrap().waiting == 0 {
                std::thread::yield_now();
            }
            gate.release(3);
            waiter.join().unwrap();
        });
        let s = gate.state.lock().unwrap();
        assert_eq!((s.current, s.peak, s.waiting), (3, 4, 0));
    }

    #[test]
    fn checkpoint_triggers_only_past_the_dead_band() {
        // Uniform factors: the checkpoint holds the current plan.
        assert!(checkpoint_scaled_costs(8, &[1.0; 5]).unwrap().is_none());
        // One device at 4x its predicted cost: re-plan, with that
        // device's unit cost scaled and the rest untouched.
        let scaled = checkpoint_scaled_costs(8, &[4.0, 1.0, 1.0, 1.0, 1.0])
            .unwrap()
            .expect("drift past the trigger must re-plan");
        assert!((scaled[0] - 4.0 * FLEET_UNIT_COSTS[0]).abs() < 1e-12);
        assert!((scaled[1] - FLEET_UNIT_COSTS[1]).abs() < 1e-12);
    }
}

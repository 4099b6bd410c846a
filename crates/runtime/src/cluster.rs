//! The base protocol cluster: one thread per device, all-responses
//! decoding.

use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{Receiver, Sender};
use rand::{rngs::StdRng, Rng, SeedableRng};

use scec_coding::decode;
use scec_core::ScecSystem;
use scec_linalg::{Matrix, Scalar, Vector};

use crate::clock::{default_clock, Clock};
use crate::core::{message_bytes, ClusterCore};
use crate::error::{Error, Result};
use crate::latency::LatencyLog;
use crate::mailbox::lock;
use crate::message::{FromDevice, ToDevice};
use crate::pipeline::{PanelTicket, Ticket};
use crate::transport::{ChannelTransport, DeviceSpec, SimLinkTransport, Transport};

/// How a spawned device actor (mis)behaves — fault injection for tests,
/// demos, and integrity-check validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeviceBehavior {
    /// Follows the protocol.
    #[default]
    Honest,
    /// Follows the protocol after sleeping per query (a straggler).
    Delayed(Duration),
    /// Returns a *corrupted* partial: the first computed value is
    /// perturbed. The decoded result will be wrong — detectably so under
    /// [`scec_core::integrity`]'s Freivalds check.
    Byzantine,
    /// Serves `after_queries` queries faithfully, then the actor thread
    /// exits without responding — a hard crash. Subsequent sends to the
    /// device fail, which is how the supervisor detects the death.
    Crash {
        /// Queries served before the crash.
        after_queries: u32,
    },
    /// Silently drops each query with probability `permille / 1000` (an
    /// intermittent omission fault); prefer [`DeviceBehavior::flaky`].
    FlakyDrop {
        /// Drop probability in thousandths, clamped to `0..=1000`.
        permille: u16,
    },
    /// Receives every query but never responds — a silent omission fault
    /// (the device looks alive at the transport layer but contributes
    /// nothing).
    Omit,
}

impl DeviceBehavior {
    /// An intermittent-omission behavior dropping each query with
    /// probability `p` (clamped to `[0, 1]`).
    pub fn flaky(p: f64) -> Self {
        let permille = (p.clamp(0.0, 1.0) * 1000.0).round() as u16;
        DeviceBehavior::FlakyDrop { permille }
    }

    /// Maps a simulator-drawn [`scec_sim::ChaosFault`] onto the concrete
    /// actor behavior that realizes it on a live cluster. This is the
    /// single fault-model conversion layer: every driver (CLI chaos runs,
    /// DST scenario replays against real actors) goes through it, so the
    /// two enums cannot drift apart silently.
    pub fn from_fault(fault: scec_sim::ChaosFault) -> Self {
        use scec_sim::ChaosFault;
        match fault {
            ChaosFault::None => DeviceBehavior::Honest,
            ChaosFault::Slow { millis } => DeviceBehavior::Delayed(Duration::from_millis(millis)),
            ChaosFault::Crash { after_queries } => DeviceBehavior::Crash { after_queries },
            ChaosFault::Flaky { permille } => DeviceBehavior::FlakyDrop { permille },
            ChaosFault::Omit => DeviceBehavior::Omit,
            ChaosFault::Byzantine => DeviceBehavior::Byzantine,
        }
    }
}

impl From<scec_sim::ChaosFault> for DeviceBehavior {
    fn from(fault: scec_sim::ChaosFault) -> Self {
        DeviceBehavior::from_fault(fault)
    }
}

/// What the fault gate decides for one incoming query.
enum Gate {
    /// Serve it normally.
    Serve,
    /// Swallow it silently (omission).
    Drop,
    /// Exit the actor thread (crash).
    Crash,
}

/// Applies the crash/omission fault model to one received query.
/// `served` counts queries *received* so far, including this one.
fn fault_gate(behavior: DeviceBehavior, served: u64, fault_rng: &mut StdRng) -> Gate {
    match behavior {
        DeviceBehavior::Crash { after_queries } if served > u64::from(after_queries) => Gate::Crash,
        DeviceBehavior::Omit => Gate::Drop,
        DeviceBehavior::FlakyDrop { permille } => {
            if fault_rng.gen_range(0u32..1000) < u32::from(permille.min(1000)) {
                Gate::Drop
            } else {
                Gate::Serve
            }
        }
        _ => Gate::Serve,
    }
}

/// One device actor's thread body: owns its share, serves queries until
/// shutdown.
pub(crate) fn device_main<F: Scalar>(
    device: usize,
    inbox: Receiver<ToDevice<F>>,
    outbox: Sender<FromDevice<F>>,
    behavior: DeviceBehavior,
    clock: Arc<dyn Clock>,
) {
    let mut share = None;
    let mut tagged = None;
    let mut tel: Option<Arc<scec_telemetry::Telemetry>> = None;
    // Queries received so far (crash countdown) and a deterministic
    // per-device stream for FlakyDrop draws.
    let mut served: u64 = 0;
    let mut fault_rng = StdRng::seed_from_u64(0xFA01_7000 ^ ((device as u64) << 32));
    while let Ok(msg) = inbox.recv() {
        match msg {
            ToDevice::Install(s) => share = Some(*s),
            ToDevice::InstallTagged(s) => tagged = Some(*s),
            ToDevice::Instrument(t) => tel = Some(t),
            ToDevice::QueryBatch { request, xs, ctx } => {
                served += 1;
                match fault_gate(behavior, served, &mut fault_rng) {
                    Gate::Crash => return,
                    Gate::Drop => continue,
                    Gate::Serve => {}
                }
                if let DeviceBehavior::Delayed(d) = behavior {
                    clock.sleep(d);
                }
                let compute_started = crate::telemetry::actor_now(&tel, &clock);
                let response = if let Some(s) = &tagged {
                    match s.compute_panel(&xs) {
                        Ok(mut values) => {
                            if behavior == DeviceBehavior::Byzantine && !values.is_empty() {
                                let v = values.at(0, 0).add(F::one());
                                values.set(0, 0, v).expect("in range");
                            }
                            FromDevice::TaggedBatch {
                                request,
                                device,
                                rows: s.rows().to_vec(),
                                values,
                            }
                        }
                        Err(e) => FromDevice::Failure {
                            request,
                            device,
                            reason: e.to_string(),
                        },
                    }
                } else if let Some(s) = &share {
                    match s.coded().matmul(&xs) {
                        Ok(mut values) => {
                            if behavior == DeviceBehavior::Byzantine && !values.is_empty() {
                                let v = values.at(0, 0).add(F::one());
                                values.set(0, 0, v).expect("in range");
                            }
                            FromDevice::BatchPartial {
                                request,
                                device,
                                values,
                            }
                        }
                        Err(e) => FromDevice::Failure {
                            request,
                            device,
                            reason: e.to_string(),
                        },
                    }
                } else {
                    FromDevice::Failure {
                        request,
                        device,
                        reason: "no share installed".into(),
                    }
                };
                crate::telemetry::actor_span(&tel, &clock, compute_started, request, device, ctx);
                if outbox.send(response).is_err() {
                    return;
                }
            }
            ToDevice::Query { request, x, ctx } => {
                served += 1;
                match fault_gate(behavior, served, &mut fault_rng) {
                    Gate::Crash => return,
                    Gate::Drop => continue,
                    Gate::Serve => {}
                }
                if let DeviceBehavior::Delayed(d) = behavior {
                    clock.sleep(d);
                }
                let compute_started = crate::telemetry::actor_now(&tel, &clock);
                let corrupt = |mut values: scec_linalg::Vector<F>| {
                    if behavior == DeviceBehavior::Byzantine {
                        if let Some(first) = values.as_mut_slice().first_mut() {
                            *first = first.add(F::one());
                        }
                    }
                    values
                };
                let response = if let Some(s) = &tagged {
                    match s.compute(&x) {
                        Ok(mut responses) => {
                            if behavior == DeviceBehavior::Byzantine {
                                if let Some(first) = responses.first_mut() {
                                    first.value = first.value.add(F::one());
                                }
                            }
                            FromDevice::TaggedPartial {
                                request,
                                device,
                                responses,
                            }
                        }
                        Err(e) => FromDevice::Failure {
                            request,
                            device,
                            reason: e.to_string(),
                        },
                    }
                } else if let Some(s) = &share {
                    match s.compute(&x) {
                        Ok(values) => FromDevice::Partial {
                            request,
                            device,
                            values: corrupt(values),
                        },
                        Err(e) => FromDevice::Failure {
                            request,
                            device,
                            reason: e.to_string(),
                        },
                    }
                } else {
                    FromDevice::Failure {
                        request,
                        device,
                        reason: "no share installed".into(),
                    }
                };
                crate::telemetry::actor_span(&tel, &clock, compute_started, request, device, ctx);
                if outbox.send(response).is_err() {
                    return; // cluster gone
                }
            }
            ToDevice::Shutdown => return,
        }
    }
}

/// Handle to one spawned device actor.
pub(crate) struct DeviceHandle<F> {
    pub(crate) device: usize,
    pub(crate) tx: Sender<ToDevice<F>>,
    pub(crate) join: Option<JoinHandle<()>>,
}

impl<F> DeviceHandle<F> {
    /// Requests termination; a send failure just means the thread is
    /// already gone.
    pub(crate) fn shutdown(&mut self) {
        let _ = self.tx.send(ToDevice::Shutdown);
    }
}

/// Latency and fault statistics over the queries a cluster has served.
///
/// The latency fields are filled by every cluster; the fault counters
/// stay zero except under [`SupervisedCluster`](crate::SupervisedCluster),
/// which tracks retries, degraded decodes, quarantines, and repairs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QueryStats {
    /// Queries completed successfully.
    pub count: usize,
    /// Mean latency, seconds.
    pub mean: f64,
    /// Median latency, seconds.
    pub p50: f64,
    /// 99th-percentile latency, seconds.
    pub p99: f64,
    /// Worst observed latency, seconds.
    pub max: f64,
    /// Query attempts re-sent after a failed or timed-out attempt.
    pub retries: usize,
    /// Queries decoded without hearing from every enrolled device.
    pub degraded: usize,
    /// Devices currently excluded as quarantined (integrity failures) or
    /// dead (crashes / repeated omissions).
    pub quarantined: usize,
    /// Fleet repairs performed (re-allocation + share re-install).
    pub repairs: usize,
    /// Adaptive drift reallocations installed (telemetry-triggered
    /// TA-1 re-runs; always 0 without
    /// [`with_adaptive`](crate::SupervisedCluster::with_adaptive)).
    pub reallocations: usize,
}

/// A running cluster executing the base SCEC protocol on real threads.
///
/// See the [crate-level example](crate).
pub struct LocalCluster<F: Scalar> {
    design: scec_coding::CodeDesign,
    transport: Box<dyn Transport<F>>,
    core: ClusterCore<F>,
    /// Completed-query latencies, seconds (lifetime histogram).
    latencies: std::sync::Mutex<LatencyLog>,
    /// When encoding started / how long it took (replayed into the
    /// tracer at `with_telemetry` time, since encoding happens at
    /// launch).
    encode_started: Duration,
    encode_dur: Duration,
    /// `(device id, coded rows held, fleet unit cost)` per enrolled
    /// device.
    loads: Vec<(usize, usize, f64)>,
}

impl<F: Scalar> LocalCluster<F> {
    /// Spawns one thread per participating device and installs the coded
    /// shares produced by `system.distribute`.
    ///
    /// # Errors
    ///
    /// Propagates distribution failures.
    pub fn launch<R: Rng + ?Sized>(system: &ScecSystem<F>, rng: &mut R) -> Result<Self> {
        Self::launch_with_delays(system, rng, &[])
    }

    /// Like [`launch`](Self::launch), with an artificial service delay per
    /// device (padded with zero) — used to emulate stragglers in tests
    /// and demos.
    ///
    /// # Errors
    ///
    /// Propagates distribution failures.
    pub fn launch_with_delays<R: Rng + ?Sized>(
        system: &ScecSystem<F>,
        rng: &mut R,
        delays: &[Duration],
    ) -> Result<Self> {
        let behaviors: Vec<DeviceBehavior> = delays
            .iter()
            .map(|&d| {
                if d.is_zero() {
                    DeviceBehavior::Honest
                } else {
                    DeviceBehavior::Delayed(d)
                }
            })
            .collect();
        Self::launch_with_behaviors(system, rng, &behaviors)
    }

    /// Like [`launch`](Self::launch), with an explicit behavior per
    /// device (padded with [`DeviceBehavior::Honest`]) — the fault
    /// injection hook for straggler and Byzantine scenarios.
    ///
    /// # Errors
    ///
    /// Propagates distribution failures.
    pub fn launch_with_behaviors<R: Rng + ?Sized>(
        system: &ScecSystem<F>,
        rng: &mut R,
        behaviors: &[DeviceBehavior],
    ) -> Result<Self> {
        Self::launch_clocked(system, rng, behaviors, default_clock())
    }

    /// Like [`launch_with_behaviors`](Self::launch_with_behaviors), on an
    /// explicit [`Clock`]. Pass a [`SimClock`](crate::SimClock) to make
    /// timeouts and artificial delays advance on virtual time — the
    /// deterministic-simulation entry point.
    ///
    /// # Errors
    ///
    /// Propagates distribution failures.
    pub fn launch_clocked<R: Rng + ?Sized>(
        system: &ScecSystem<F>,
        rng: &mut R,
        behaviors: &[DeviceBehavior],
        clock: Arc<dyn Clock>,
    ) -> Result<Self> {
        let encode_started = clock.now();
        let deployment = system.distribute(rng)?;
        let encode_dur = clock.now().saturating_sub(encode_started);
        let input_len = deployment
            .devices()
            .first()
            .map(|d| d.share().coded().ncols())
            .unwrap_or(0);
        let loads: Vec<(usize, usize, f64)> = deployment
            .devices()
            .iter()
            .map(|d| {
                (
                    d.device(),
                    d.share().coded().nrows(),
                    system.fleet().c(d.device()),
                )
            })
            .collect();
        let specs: Vec<DeviceSpec<F>> = deployment
            .devices()
            .iter()
            .enumerate()
            .map(|(idx, dev)| DeviceSpec {
                device: dev.device(),
                thread_name: format!("scec-device-{}", dev.device()),
                behavior: behaviors.get(idx).copied().unwrap_or_default(),
                install: Some(ToDevice::Install(Box::new(dev.share().clone()))),
            })
            .collect();
        let (transport, resp_rx) = ChannelTransport::spawn(specs, &clock)?;
        Ok(LocalCluster {
            design: system.design().clone(),
            transport: Box::new(transport),
            core: ClusterCore::new(resp_rx, clock, input_len),
            latencies: std::sync::Mutex::new(LatencyLog::default()),
            encode_started,
            encode_dur,
            loads,
        })
    }

    /// Like [`launch_clocked`](Self::launch_clocked), but every message
    /// crosses a [`SimLinkTransport`]: encoded to `scec-wire` bytes and
    /// decoded back (both directions) before delivery, with `delay`
    /// slept per message on `clock`. Used by DST parity suites to prove
    /// the protocol behaves identically once a codec sits on the path.
    ///
    /// # Errors
    ///
    /// Propagates distribution failures.
    pub fn launch_sim_linked<R: Rng + ?Sized>(
        system: &ScecSystem<F>,
        rng: &mut R,
        behaviors: &[DeviceBehavior],
        clock: Arc<dyn Clock>,
        delay: Duration,
    ) -> Result<Self>
    where
        F: scec_wire::WireEncode + scec_wire::WireDecode,
    {
        let encode_started = clock.now();
        let deployment = system.distribute(rng)?;
        let encode_dur = clock.now().saturating_sub(encode_started);
        let input_len = deployment
            .devices()
            .first()
            .map(|d| d.share().coded().ncols())
            .unwrap_or(0);
        let loads: Vec<(usize, usize, f64)> = deployment
            .devices()
            .iter()
            .map(|d| {
                (
                    d.device(),
                    d.share().coded().nrows(),
                    system.fleet().c(d.device()),
                )
            })
            .collect();
        // Spawn bare actors; shares are installed *through* the link so
        // the install frames round-trip the codec too.
        let specs: Vec<DeviceSpec<F>> = deployment
            .devices()
            .iter()
            .enumerate()
            .map(|(idx, dev)| DeviceSpec {
                device: dev.device(),
                thread_name: format!("scec-device-{}", dev.device()),
                behavior: behaviors.get(idx).copied().unwrap_or_default(),
                install: None,
            })
            .collect();
        let (inner, inner_rx) = ChannelTransport::spawn(specs, &clock)?;
        let (transport, resp_rx) =
            SimLinkTransport::wrap(inner, inner_rx, Arc::clone(&clock), delay);
        for (idx, dev) in deployment.devices().iter().enumerate() {
            transport.send(idx, ToDevice::Install(Box::new(dev.share().clone())))?;
        }
        Ok(LocalCluster {
            design: system.design().clone(),
            transport: Box::new(transport),
            core: ClusterCore::new(resp_rx, clock, input_len),
            latencies: std::sync::Mutex::new(LatencyLog::default()),
            encode_started,
            encode_dur,
            loads,
        })
    }

    /// Runs the base protocol over an externally built [`Transport`] —
    /// the entry point for networked deployments (e.g. the `scec-serve`
    /// TCP backend). `connect` receives the freshly distributed shares
    /// (device ids, row counts) and must return the transport plus the
    /// response stream feeding the mailbox; the cluster then installs
    /// each share through the transport, in roster order.
    ///
    /// # Errors
    ///
    /// Propagates distribution failures, connection failures from
    /// `connect`, and install-send failures.
    pub fn launch_with_transport<R: Rng + ?Sized>(
        system: &ScecSystem<F>,
        rng: &mut R,
        clock: Arc<dyn Clock>,
        connect: impl FnOnce(
            &[scec_coding::DeviceShare<F>],
        ) -> Result<(Box<dyn Transport<F>>, Receiver<FromDevice<F>>)>,
    ) -> Result<Self> {
        let encode_started = clock.now();
        let deployment = system.distribute(rng)?;
        let encode_dur = clock.now().saturating_sub(encode_started);
        let input_len = deployment
            .devices()
            .first()
            .map(|d| d.share().coded().ncols())
            .unwrap_or(0);
        let loads: Vec<(usize, usize, f64)> = deployment
            .devices()
            .iter()
            .map(|d| {
                (
                    d.device(),
                    d.share().coded().nrows(),
                    system.fleet().c(d.device()),
                )
            })
            .collect();
        let shares: Vec<scec_coding::DeviceShare<F>> = deployment
            .devices()
            .iter()
            .map(|d| d.share().clone())
            .collect();
        let (transport, resp_rx) = connect(&shares)?;
        for (idx, share) in shares.into_iter().enumerate() {
            transport.send(idx, ToDevice::Install(Box::new(share)))?;
        }
        Ok(LocalCluster {
            design: system.design().clone(),
            transport,
            core: ClusterCore::new(resp_rx, clock, input_len),
            latencies: std::sync::Mutex::new(LatencyLog::default()),
            encode_started,
            encode_dur,
            loads,
        })
    }

    /// Cumulative `(bytes sent, bytes received)` on the wire, when the
    /// transport meters actual bytes (`None` for in-memory backends).
    pub fn wire_bytes(&self) -> Option<(u64, u64)> {
        self.transport.wire_bytes()
    }

    /// Attaches a telemetry handle: queries record spans, metrics, and
    /// observed costs against it, and each device actor starts tracing
    /// its compute spans. The encode span (encoding happened at launch)
    /// is replayed into the tracer, and each device's cost prediction —
    /// its fleet unit cost and the per-query usage the active design
    /// assigns it — is installed alongside its stored coded rows.
    #[must_use]
    pub fn with_telemetry(mut self, tel: Arc<scec_telemetry::Telemetry>) -> Self {
        self.core.instrument(&*self.transport, &tel);
        tel.tracer.span(
            self.encode_started,
            self.encode_dur,
            scec_telemetry::Stage::Encode,
            None,
            None,
        );
        let l = self.core.input_len as u64;
        let esize = std::mem::size_of::<F>() as u64;
        for &(device, rows, unit_cost) in &self.loads {
            let rows = rows as u64;
            tel.costs.record_stored(device, rows);
            tel.costs.set_predicted(
                device,
                unit_cost,
                scec_telemetry::CostVector {
                    stored_rows: rows,
                    rows_served: rows,
                    bytes_sent: l * esize,
                    bytes_received: rows * esize,
                    field_mults: rows * l,
                    field_adds: rows * l.saturating_sub(1),
                },
            );
        }
        self.install_window_predictions(&tel);
        self.core.tel.attach(tel, "local");
        self
    }

    /// Enables distributed tracing for this cluster's queries under
    /// `tenant`: every broadcast derives a deterministic
    /// [`TraceContext`](scec_telemetry::TraceContext) from
    /// `(tenant, request, generation)`, stamps it on the outgoing
    /// frames, and records Router-side spans with matching ids, so
    /// device-side compute spans stitch into one causal tree per query.
    /// Composes with [`with_telemetry`](Self::with_telemetry) in either
    /// order.
    #[must_use]
    pub fn with_trace_tenant(mut self, tenant: u64) -> Self {
        self.core.trace_tenant = Some(tenant);
        // Traced frames carry a 17-byte context block each way, so the
        // per-window predicted message overhead is re-priced to keep
        // predicted-vs-observed wire accounting exact on byte-metered
        // transports.
        self.core
            .tel
            .with(|s| self.install_window_predictions(&s.tel));
        self
    }

    /// Message framing is paid once per *window* (one broadcast and one
    /// reply per device per round), so panels amortize it across their
    /// columns while plain queries — width-1 windows — pay it per
    /// query. Traced frames on a byte-metered transport additionally
    /// carry the wire context block in each direction.
    fn install_window_predictions(&self, tel: &scec_telemetry::Telemetry) {
        let mut bytes = scec_telemetry::MESSAGE_OVERHEAD_BYTES;
        if self.core.trace_tenant.is_some() && self.transport.counts_wire_bytes() {
            bytes += scec_telemetry::TRACE_CONTEXT_WIRE_BYTES;
        }
        for &(device, _, _) in &self.loads {
            tel.costs.set_predicted_window(
                device,
                scec_telemetry::CostVector {
                    stored_rows: 0,
                    rows_served: 0,
                    bytes_sent: bytes,
                    bytes_received: bytes,
                    field_mults: 0,
                    field_adds: 0,
                },
            );
        }
    }

    /// The clock this cluster runs on.
    pub(crate) fn clock_handle(&self) -> &Arc<dyn Clock> {
        &self.core.clock
    }

    /// Latency statistics over the queries served so far (vector queries
    /// only; batches are excluded because their cost scales with width).
    pub fn stats(&self) -> QueryStats {
        let mut stats = QueryStats::default();
        lock(&self.latencies).fill_stats(&mut stats);
        stats
    }

    /// Sets the per-query deadline
    /// (default [`DEFAULT_DEADLINE`](crate::DEFAULT_DEADLINE)).
    pub fn set_timeout(&mut self, timeout: Duration) {
        self.core.timeout = timeout;
    }

    /// Builder-style per-query deadline, usable at launch:
    /// `LocalCluster::launch(&sys, rng)?.with_deadline(d)`.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.core.timeout = deadline;
        self
    }

    /// Number of enrolled devices.
    pub fn device_count(&self) -> usize {
        self.transport.device_count()
    }

    /// Runs one full secure query: broadcast, await **all** partials,
    /// decode with `m` subtractions.
    ///
    /// # Errors
    ///
    /// * [`Error::ChannelClosed`] when a device thread died;
    /// * [`Error::Timeout`] when responses do not arrive in time;
    /// * [`Error::Coding`] when a device reported a failure (wrapped
    ///   reason) or decoding failed.
    pub fn query(&self, x: &Vector<F>) -> Result<Vector<F>> {
        let ticket = self.begin_query(x)?;
        self.finish_query(ticket)
    }

    /// Broadcasts `x` to every device and returns immediately with a
    /// [`Ticket`] for the in-flight request — the first half of
    /// [`query`](Self::query). The devices start computing while the
    /// caller is free to begin further queries; redeem the ticket with
    /// [`finish_query`](Self::finish_query) (or discard the request with
    /// [`abandon_query`](Self::abandon_query)).
    ///
    /// The broadcast shares one `Arc`-wrapped copy of `x` across the
    /// whole fan-out instead of deep-copying it per device.
    ///
    /// The frames are on the wire before this returns. (The pipeline
    /// engines go through [`PipelinedQuery::begin`](crate::PipelinedQuery::begin)
    /// instead, which may leave them queued in the transport until the
    /// pipeline next waits, so a window of queries shares one write.)
    ///
    /// # Errors
    ///
    /// [`Error::ChannelClosed`] when a device thread died.
    pub fn begin_query(&self, x: &Vector<F>) -> Result<Ticket> {
        let ticket = self.begin_query_queued(x)?;
        self.transport.flush()?;
        Ok(ticket)
    }

    /// [`begin_query`](Self::begin_query) minus the flush: the transport
    /// may hold the frames until the next collect, abandon or shutdown.
    pub(crate) fn begin_query_queued(&self, x: &Vector<F>) -> Result<Ticket> {
        self.core.begin_query(&*self.transport, x)
    }

    /// Awaits all partials for an in-flight request and decodes — the
    /// second half of [`query`](Self::query). Tickets may be redeemed in
    /// any order; the mailbox parks responses for the requests not being
    /// waited on.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`query`](Self::query). On error, any
    /// responses already parked for the request are discarded.
    pub fn finish_query(&self, ticket: Ticket) -> Result<Vector<F>> {
        let result = self.finish_inner(ticket.request());
        match &result {
            Ok(_) => {
                let elapsed = ticket.elapsed_secs();
                lock(&self.latencies).record(elapsed);
                self.core.tel.with(|s| s.query_ok(elapsed));
            }
            Err(_) => {
                self.core.mailbox.clear(ticket.request());
                self.core.tel.with(|s| s.query_err());
            }
        }
        result
    }

    /// Drops an in-flight request without waiting for its result,
    /// discarding any responses already parked for it. Responses that
    /// arrive later stay parked until the cluster shuts down, so abandon
    /// is for error paths, not a completion strategy.
    pub fn abandon_query(&self, ticket: Ticket) {
        // Nothing stays queued past an abandon: a request still sitting
        // in the transport is sent all the same.
        let _ = self.transport.flush();
        self.core.mailbox.clear(ticket.request());
    }

    fn finish_inner(&self, request: u64) -> Result<Vector<F>> {
        let device_count = self.transport.device_count();
        let collect_started = self.core.tel.now(&self.core.clock);
        let mut partials: HashMap<usize, Vector<F>> = HashMap::new();
        self.core.mailbox.collect(
            &*self.transport,
            &*self.core.clock,
            request,
            self.core.timeout,
            device_count,
            |resp| {
                Self::absorb(resp, &mut partials)?;
                Ok(partials.len())
            },
        )?;
        let decode_started = self.core.tel.now(&self.core.clock);
        self.core.tel.with(|s| {
            s.span_ids(
                collect_started,
                decode_started,
                scec_telemetry::Stage::Collect,
                request,
                self.core
                    .stage_ids(request, scec_telemetry::context::kind::COLLECT),
            );
            let wire = self.transport.counts_wire_bytes();
            let esize = std::mem::size_of::<F>() as u64;
            let l = self.core.input_len as u64;
            for (&device, values) in &partials {
                let rows = values.len() as u64;
                s.tel.costs.record_served(
                    device,
                    message_bytes(wire, rows * esize),
                    rows,
                    rows * l,
                    rows * l.saturating_sub(1),
                );
            }
        });
        let mut ordered: Vec<Vector<F>> = Vec::with_capacity(device_count);
        for j in 1..=device_count {
            ordered.push(partials.remove(&j).ok_or(Error::ProtocolViolation {
                device: j,
                what: "complete quorum is missing an enrolled device's partial",
            })?);
        }
        let btx = decode::stack_partials(&ordered);
        let y = decode::decode_fast(&self.design, &btx)?;
        self.core.tel.with(|s| {
            s.span_ids(
                decode_started,
                self.core.clock.now(),
                scec_telemetry::Stage::Decode,
                request,
                self.core
                    .stage_ids(request, scec_telemetry::context::kind::DECODE),
            );
        });
        Ok(y)
    }

    fn absorb(resp: FromDevice<F>, partials: &mut HashMap<usize, Vector<F>>) -> Result<()> {
        match resp {
            FromDevice::Partial { device, values, .. } => {
                partials.insert(device, values);
                Ok(())
            }
            FromDevice::Failure { device, reason, .. } => {
                Err(Error::DeviceFailure { device, reason })
            }
            other => Err(Error::ProtocolViolation {
                device: other.device(),
                what: "non-vector partial on the base protocol",
            }),
        }
    }

    /// Batched secure query over the device threads: every device
    /// computes `B_j T · X` for the whole column batch in one message
    /// round, and the user decodes with `m · n` subtractions.
    ///
    /// Equivalent to [`begin_panel`](Self::begin_panel) followed by
    /// [`finish_panel`](Self::finish_panel).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`LocalCluster::query`].
    pub fn query_batch(&self, xs: &Matrix<F>) -> Result<Matrix<F>> {
        let ticket = self.begin_panel(xs)?;
        self.finish_panel(ticket)
    }

    /// Broadcasts a whole `l × k` query panel to every device and
    /// returns immediately with a [`PanelTicket`] — the panel analogue
    /// of [`begin_query`](Self::begin_query). One `Arc`-shared copy of
    /// the panel crosses the fan-out, so the broadcast cost is one
    /// message (plus the panel payload) per device per *window*, not per
    /// query. Like [`begin_query`](Self::begin_query), the frames are on
    /// the wire before this returns.
    ///
    /// # Errors
    ///
    /// [`Error::ChannelClosed`] when a device thread died.
    pub fn begin_panel(&self, xs: &Matrix<F>) -> Result<PanelTicket> {
        let ticket = self.begin_panel_queued(xs)?;
        self.transport.flush()?;
        Ok(ticket)
    }

    /// [`begin_panel`](Self::begin_panel) minus the flush.
    pub(crate) fn begin_panel_queued(&self, xs: &Matrix<F>) -> Result<PanelTicket> {
        self.core.begin_panel(&*self.transport, xs)
    }

    /// Awaits all batch partials for an in-flight panel, stacks them,
    /// and decodes every column with one multi-RHS pass — the second
    /// half of [`query_batch`](Self::query_batch).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`query`](Self::query). On error, any
    /// responses already parked for the request are discarded.
    pub fn finish_panel(&self, ticket: PanelTicket) -> Result<Matrix<F>> {
        let result = self.finish_panel_inner(ticket.request(), ticket.width());
        match &result {
            Ok(_) => {
                self.core
                    .tel
                    .with(|s| s.panel_ok(ticket.elapsed_secs(), ticket.width()));
            }
            Err(_) => {
                self.core.mailbox.clear(ticket.request());
                self.core.tel.with(|s| s.query_err());
            }
        }
        result
    }

    /// Drops an in-flight panel without waiting for its result,
    /// discarding any responses already parked for it.
    pub fn abandon_panel(&self, ticket: PanelTicket) {
        let _ = self.transport.flush();
        self.core.mailbox.clear(ticket.request());
    }

    fn finish_panel_inner(&self, request: u64, width: usize) -> Result<Matrix<F>> {
        let device_count = self.transport.device_count();
        let collect_started = self.core.tel.now(&self.core.clock);
        let mut partials: HashMap<usize, Matrix<F>> = HashMap::new();
        self.core.mailbox.collect(
            &*self.transport,
            &*self.core.clock,
            request,
            self.core.timeout,
            device_count,
            |resp| {
                Self::absorb_batch(resp, &mut partials)?;
                Ok(partials.len())
            },
        )?;
        let decode_started = self.core.tel.now(&self.core.clock);
        self.core.tel.with(|s| {
            s.span_ids(
                collect_started,
                decode_started,
                scec_telemetry::Stage::Collect,
                request,
                self.core
                    .stage_ids(request, scec_telemetry::context::kind::COLLECT),
            );
            let wire = self.transport.counts_wire_bytes();
            let esize = std::mem::size_of::<F>() as u64;
            let l = self.core.input_len as u64;
            let k = width as u64;
            for (&device, values) in &partials {
                let rows = values.nrows() as u64;
                s.tel.costs.record_served(
                    device,
                    message_bytes(wire, rows * k * esize),
                    rows * k,
                    rows * k * l,
                    rows * k * l.saturating_sub(1),
                );
            }
        });
        let mut ordered: Vec<Matrix<F>> = Vec::with_capacity(device_count);
        for j in 1..=device_count {
            ordered.push(partials.remove(&j).ok_or(Error::ProtocolViolation {
                device: j,
                what: "complete quorum is missing an enrolled device's batch partial",
            })?);
        }
        let btx = decode::stack_partial_matrices(&ordered)?;
        let ys = decode::decode_fast_batch(&self.design, &btx)?;
        self.core.tel.with(|s| {
            s.span_ids(
                decode_started,
                self.core.clock.now(),
                scec_telemetry::Stage::Decode,
                request,
                self.core
                    .stage_ids(request, scec_telemetry::context::kind::DECODE),
            );
        });
        Ok(ys)
    }

    fn absorb_batch(resp: FromDevice<F>, partials: &mut HashMap<usize, Matrix<F>>) -> Result<()> {
        match resp {
            FromDevice::BatchPartial { device, values, .. } => {
                partials.insert(device, values);
                Ok(())
            }
            FromDevice::Failure { device, reason, .. } => {
                Err(Error::DeviceFailure { device, reason })
            }
            other => Err(Error::ProtocolViolation {
                device: other.device(),
                what: "non-batch partial on a batch request",
            }),
        }
    }

    /// Shuts down every device thread and joins them.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.transport.shutdown();
    }
}

impl<F: Scalar> Drop for LocalCluster<F> {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use scec_allocation::EdgeFleet;
    use scec_core::AllocationStrategy;
    use scec_linalg::{Fp61, Matrix};

    fn build(m: usize, l: usize, seed: u64) -> (Matrix<Fp61>, ScecSystem<Fp61>, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::<Fp61>::random(m, l, &mut rng);
        let fleet = EdgeFleet::from_unit_costs(vec![1.0, 1.5, 2.0, 2.5, 3.0]).unwrap();
        let sys =
            ScecSystem::build(a.clone(), fleet, AllocationStrategy::Mcscec, &mut rng).unwrap();
        (a, sys, rng)
    }

    #[test]
    fn threaded_query_recovers_exactly() {
        let (a, sys, mut rng) = build(8, 4, 1);
        let cluster = LocalCluster::launch(&sys, &mut rng).unwrap();
        assert_eq!(cluster.device_count(), sys.plan().device_count());
        for _ in 0..5 {
            let x = Vector::<Fp61>::random(4, &mut rng);
            assert_eq!(cluster.query(&x).unwrap(), a.matvec(&x).unwrap());
        }
        cluster.shutdown();
    }

    #[test]
    fn concurrent_queries_from_multiple_threads() {
        let (a, sys, mut rng) = build(6, 3, 2);
        let cluster = std::sync::Arc::new(LocalCluster::launch(&sys, &mut rng).unwrap());
        let queries: Vec<Vector<Fp61>> = (0..8).map(|_| Vector::random(3, &mut rng)).collect();
        let wants: Vec<Vector<Fp61>> = queries.iter().map(|x| a.matvec(x).unwrap()).collect();
        let mut handles = Vec::new();
        for (x, want) in queries.into_iter().zip(wants) {
            let c = std::sync::Arc::clone(&cluster);
            handles.push(std::thread::spawn(move || {
                assert_eq!(c.query(&x).unwrap(), want);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn slow_devices_still_complete_within_timeout() {
        let (a, sys, mut rng) = build(5, 3, 3);
        let delays = vec![Duration::from_millis(30)];
        let cluster = LocalCluster::launch_with_delays(&sys, &mut rng, &delays).unwrap();
        let x = Vector::<Fp61>::random(3, &mut rng);
        assert_eq!(cluster.query(&x).unwrap(), a.matvec(&x).unwrap());
    }

    #[test]
    fn timeout_fires_when_a_device_is_too_slow() {
        // Deterministic timeout: the first device *never* responds (Omit),
        // and the auto-advance SimClock turns each empty 5ms polling
        // slice into 5ms of virtual time, so a 25ms virtual deadline
        // expires after a bounded number of polls — no wall-clock race
        // between a delayed thread and the deadline.
        let (_a, sys, mut rng) = build(5, 3, 4);
        let behaviors = vec![DeviceBehavior::Omit];
        let clock: Arc<dyn Clock> = Arc::new(crate::SimClock::new());
        let mut cluster = LocalCluster::launch_clocked(&sys, &mut rng, &behaviors, clock).unwrap();
        cluster.set_timeout(Duration::from_millis(25));
        let x = Vector::<Fp61>::random(3, &mut rng);
        match cluster.query(&x) {
            Err(Error::Timeout {
                received, needed, ..
            }) => {
                // Everyone except the omitting device responded.
                assert_eq!(needed, sys.plan().device_count());
                assert_eq!(received, needed - 1);
            }
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    #[test]
    fn wrong_width_query_surfaces_device_failure() {
        let (_a, sys, mut rng) = build(5, 3, 5);
        let cluster = LocalCluster::launch(&sys, &mut rng).unwrap();
        let bad = Vector::<Fp61>::zeros(7);
        assert!(matches!(
            cluster.query(&bad),
            Err(Error::DeviceFailure { .. })
        ));
    }

    #[test]
    fn latency_stats_accumulate() {
        let (a, sys, mut rng) = build(5, 3, 8);
        let cluster = LocalCluster::launch(&sys, &mut rng).unwrap();
        assert_eq!(cluster.stats().count, 0);
        for _ in 0..6 {
            let x = Vector::<Fp61>::random(3, &mut rng);
            assert_eq!(cluster.query(&x).unwrap(), a.matvec(&x).unwrap());
        }
        let stats = cluster.stats();
        assert_eq!(stats.count, 6);
        assert!(stats.mean > 0.0);
        assert!(stats.p50 <= stats.p99);
        assert!(stats.p99 <= stats.max);
    }

    #[test]
    fn batched_threaded_query_matches_matmul() {
        let (a, sys, mut rng) = build(6, 3, 7);
        let cluster = LocalCluster::launch(&sys, &mut rng).unwrap();
        let xs = Matrix::<Fp61>::random(3, 5, &mut rng);
        let got = cluster.query_batch(&xs).unwrap();
        assert_eq!(got, a.matmul(&xs).unwrap());
        // Interleave with single queries on the same cluster.
        let x = Vector::<Fp61>::random(3, &mut rng);
        assert_eq!(cluster.query(&x).unwrap(), a.matvec(&x).unwrap());
        cluster.shutdown();
    }

    #[test]
    fn panel_query_is_bit_identical_to_per_query_path() {
        let (a, sys, mut rng) = build(6, 3, 9);
        let cluster = LocalCluster::launch(&sys, &mut rng).unwrap();
        for k in [1usize, 4, 8] {
            let xs = Matrix::<Fp61>::random(3, k, &mut rng);
            let ticket = cluster.begin_panel(&xs).unwrap();
            assert_eq!(ticket.width(), k);
            let panel = cluster.finish_panel(ticket).unwrap();
            assert_eq!(panel, a.matmul(&xs).unwrap());
            for j in 0..k {
                assert_eq!(panel.col(j), cluster.query(&xs.col(j)).unwrap());
            }
        }
        cluster.shutdown();
    }

    #[test]
    fn abandoned_panel_leaves_cluster_usable() {
        let (a, sys, mut rng) = build(5, 3, 10);
        let cluster = LocalCluster::launch(&sys, &mut rng).unwrap();
        let xs = Matrix::<Fp61>::random(3, 4, &mut rng);
        let ticket = cluster.begin_panel(&xs).unwrap();
        cluster.abandon_panel(ticket);
        let x = Vector::<Fp61>::random(3, &mut rng);
        assert_eq!(cluster.query(&x).unwrap(), a.matvec(&x).unwrap());
    }

    /// Every device-compute span must share the dispatch span's trace
    /// and parent directly onto it — the in-process causality oracle.
    fn assert_stitched(tel: &scec_telemetry::Telemetry) {
        let events = tel.tracer.events();
        let dispatches: Vec<_> = events
            .iter()
            .filter(|e| e.name == "span.dispatch")
            .collect();
        let computes: Vec<_> = events
            .iter()
            .filter(|e| e.name == "span.device_compute")
            .collect();
        assert!(!dispatches.is_empty());
        assert!(!computes.is_empty());
        for c in computes {
            let cid = c.ids.expect("device span carries ids");
            let parent = dispatches
                .iter()
                .find(|d| d.request == c.request)
                .and_then(|d| d.ids)
                .expect("matching dispatch span with ids");
            assert_eq!(cid.trace, parent.trace);
            assert_eq!(cid.parent, parent.span);
        }
    }

    #[test]
    fn traced_queries_stitch_device_spans_under_dispatch() {
        let (a, sys, mut rng) = build(6, 3, 11);
        let tel = Arc::new(scec_telemetry::Telemetry::new());
        let cluster = LocalCluster::launch(&sys, &mut rng)
            .unwrap()
            .with_telemetry(Arc::clone(&tel))
            .with_trace_tenant(42);
        let x = Vector::<Fp61>::random(3, &mut rng);
        assert_eq!(cluster.query(&x).unwrap(), a.matvec(&x).unwrap());
        let xs = Matrix::<Fp61>::random(3, 2, &mut rng);
        assert_eq!(cluster.query_batch(&xs).unwrap(), a.matmul(&xs).unwrap());
        assert_stitched(&tel);
        // Collect/decode spans join the same trace as the dispatch.
        let events = tel.tracer.events();
        for name in ["span.collect", "span.decode"] {
            let e = events.iter().find(|e| e.name == name).unwrap();
            assert!(e.ids.is_some(), "{name} should carry trace ids");
        }
        cluster.shutdown();
    }

    #[test]
    fn trace_context_survives_the_wire_codec_on_a_sim_link() {
        let (a, sys, mut rng) = build(5, 3, 12);
        let clock: Arc<dyn Clock> = Arc::new(crate::SimClock::new());
        let tel = Arc::new(scec_telemetry::Telemetry::new());
        let cluster = LocalCluster::launch_sim_linked(&sys, &mut rng, &[], clock, Duration::ZERO)
            .unwrap()
            .with_telemetry(Arc::clone(&tel))
            .with_trace_tenant(7);
        let x = Vector::<Fp61>::random(3, &mut rng);
        assert_eq!(cluster.query(&x).unwrap(), a.matvec(&x).unwrap());
        // The context reached the actors through version-2 frames.
        assert_stitched(&tel);
        cluster.shutdown();
    }

    #[test]
    fn untraced_clusters_record_no_span_ids() {
        let (a, sys, mut rng) = build(5, 3, 13);
        let tel = Arc::new(scec_telemetry::Telemetry::new());
        let cluster = LocalCluster::launch(&sys, &mut rng)
            .unwrap()
            .with_telemetry(Arc::clone(&tel));
        let x = Vector::<Fp61>::random(3, &mut rng);
        assert_eq!(cluster.query(&x).unwrap(), a.matvec(&x).unwrap());
        assert!(tel.tracer.events().iter().all(|e| e.ids.is_none()));
        cluster.shutdown();
    }

    #[test]
    fn drop_joins_threads() {
        let (_a, sys, mut rng) = build(4, 2, 6);
        {
            let _cluster = LocalCluster::launch(&sys, &mut rng).unwrap();
        } // drop here must not hang or leak threads
    }
}

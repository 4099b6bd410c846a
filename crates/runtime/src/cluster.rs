//! The one running cluster: launch, broadcast, collect, account, decode,
//! shut down — for every code the runtime serves.
//!
//! [`Cluster`] is generic over a [`CodeScheme`], which supplies only
//! what differs between codes (see the table in [`crate::scheme`]). The
//! familiar names are aliases of it: [`LocalCluster`] (base protocol),
//! [`StragglerCluster`] (quorum decoding) and [`TPrivateCluster`]
//! (collusion resistance). Each alias has its own constructors — they
//! take different inputs — and every other method is shared.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rand::Rng;

use scec_coding::{decode, CodeDesign, DeviceShare, StragglerCode, TPrivateCode};
use scec_core::ScecSystem;
use scec_linalg::{Matrix, Scalar, Vector};
use scec_telemetry::context::kind;
use scec_telemetry::{Stage, Telemetry, TraceContext};

use crate::clock::{default_clock, Clock};
use crate::device::DeviceBehavior;
use crate::error::{Error, Result};
use crate::latency::LatencyLog;
use crate::mailbox::{lock, Mailbox};
use crate::message::{FromDevice, ToDevice};
use crate::pipeline::{PanelQuery, PanelTicket, PipelinedQuery, Ticket};
use crate::scheme::CodeScheme;
use crate::telemetry::{message_bytes, predicted_per_query, predicted_per_window, Sink};
use crate::transport::{ChannelTransport, Responses, SimLinkTransport, Transport};

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

/// The send side of a fleet plus the stream its responses arrive on, a
/// batch per message — what [`LocalCluster::launch_with_transport`]'s
/// `connect` returns.
pub type Link<F> = (Box<dyn Transport<F>>, Responses<F>);

/// One enrolled device, at its roster position.
struct Enrolled {
    /// Protocol (1-based) device id: what its answers are signed with.
    device: usize,
    /// Coded rows it holds, hence the rows every answer of its carries.
    rows: usize,
    /// Its fleet unit cost, when the launch knew the fleet's prices (the
    /// base constructors do, from the [`ScecSystem`]); priced devices get
    /// a per-query cost prediction in the ledger.
    unit_cost: Option<f64>,
}

/// A query payload and, symmetrically, a device's answer to it: a
/// vector (one query) or a matrix (a panel, one column per query). The
/// query path is written once over this.
trait Payload<F: Scalar>: Clone {
    /// `(rows, columns)`; a vector is one column.
    fn shape(&self) -> (usize, usize);

    /// Stacks per-device answers, in the order given, into the `B T x`
    /// (or `B T X`) the decoders expect.
    fn stack(parts: &[Self]) -> Result<Self>;

    /// The broadcast message that carries this payload to a device.
    fn query(request: u64, shared: Arc<Self>, ctx: Option<TraceContext>) -> ToDevice<F>;

    /// Splits a device's answer into its global row tags (empty from an
    /// untagged share) and values; `None` for an answer of the other
    /// payload kind.
    fn answer(resp: FromDevice<F>) -> Option<(Vec<usize>, Self)>;

    /// Decodes the stacked answers under `scheme`.
    fn decode<S: CodeScheme<F>>(scheme: &S, tags: &[usize], stacked: &Self) -> Result<Self>;
}

impl<F: Scalar> Payload<F> for Vector<F> {
    fn shape(&self) -> (usize, usize) {
        (self.len(), 1)
    }

    fn stack(parts: &[Self]) -> Result<Self> {
        Ok(decode::stack_partials(parts))
    }

    fn query(request: u64, x: Arc<Self>, ctx: Option<TraceContext>) -> ToDevice<F> {
        ToDevice::Query { request, x, ctx }
    }

    fn answer(resp: FromDevice<F>) -> Option<(Vec<usize>, Self)> {
        match resp {
            FromDevice::Partial { values, .. } => Some((Vec::new(), values)),
            FromDevice::TaggedPartial { responses, .. } => Some((
                responses.iter().map(|r| r.row).collect(),
                Vector::from_vec(responses.iter().map(|r| r.value).collect()),
            )),
            _ => None,
        }
    }

    fn decode<S: CodeScheme<F>>(scheme: &S, tags: &[usize], stacked: &Self) -> Result<Self> {
        scheme.decode(tags, stacked)
    }
}

impl<F: Scalar> Payload<F> for Matrix<F> {
    fn shape(&self) -> (usize, usize) {
        Matrix::shape(self)
    }

    fn stack(parts: &[Self]) -> Result<Self> {
        Ok(decode::stack_partial_matrices(parts)?)
    }

    fn query(request: u64, xs: Arc<Self>, ctx: Option<TraceContext>) -> ToDevice<F> {
        ToDevice::QueryBatch { request, xs, ctx }
    }

    fn answer(resp: FromDevice<F>) -> Option<(Vec<usize>, Self)> {
        match resp {
            FromDevice::BatchPartial { values, .. } => Some((Vec::new(), values)),
            FromDevice::TaggedBatch { rows, values, .. } => Some((rows, values)),
            _ => None,
        }
    }

    fn decode<S: CodeScheme<F>>(scheme: &S, tags: &[usize], stacked: &Self) -> Result<Self> {
        scheme.decode_panel(tags, stacked)
    }
}

/// A running cluster executing the SCEC protocol under scheme `S`: one
/// enrolled device per share, reached over a [`Transport`] — in-process
/// actor threads by default.
///
/// A query is a broadcast ([`begin_query`](Self::begin_query)) and a
/// collect-and-decode ([`finish_query`](Self::finish_query));
/// [`query`](Self::query) is the two in a row. Several requests may be
/// in flight at once and finished in any order — responses are
/// correlated by request id — which is what
/// [`QueryPipeline`](crate::QueryPipeline) and
/// [`PanelPipeline`](crate::PanelPipeline) build on. Panels
/// ([`begin_panel`](Self::begin_panel) /
/// [`finish_panel`](Self::finish_panel)) carry `k` query columns through
/// one round.
///
/// See the [crate-level example](crate).
pub struct Cluster<F: Scalar, S: CodeScheme<F>> {
    scheme: S,
    transport: Box<dyn Transport<F>>,
    /// Enrolled devices, in the transport's roster order.
    enrolled: Vec<Enrolled>,
    /// Parked-response stash fed by the transport's response channel.
    mailbox: Mailbox<F>,
    /// Monotonic request ids, starting at 1.
    next_request: AtomicU64,
    /// Per-query deadline.
    timeout: Duration,
    /// The clock queries and device actors run on.
    clock: Arc<dyn Clock>,
    /// Optional telemetry attachment.
    tel: Sink,
    /// Query width `l` (for analytic per-device flop accounting).
    input_len: usize,
    /// Tenant id under which queries mint distributed-tracing contexts;
    /// `None` (the default) sends untraced version-1 frames and records
    /// id-less spans, keeping pre-tracing behavior byte-identical.
    trace_tenant: Option<u64>,
    /// Completed-query latencies, seconds (lifetime histogram).
    latencies: Mutex<LatencyLog>,
    /// When encoding started and how long it took (replayed into the
    /// tracer at `with_telemetry` time, since encoding happens at
    /// launch).
    encoded: (Duration, Duration),
}

/// The base protocol: install shares, fan a query out, wait for *all*
/// partials, decode with `m` subtractions.
pub type LocalCluster<F> = Cluster<F, CodeDesign>;

/// The straggler-tolerant protocol: a query completes as soon as the
/// collected tagged rows reach `m + r` — whichever devices answered
/// first — and its [`QuorumResult`](crate::QuorumResult) says who was
/// waited for.
pub type StragglerCluster<F> = Cluster<F, StragglerCode<F>>;

/// The collusion-resistant `t`-private protocol.
///
/// # Example
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use scec_coding::TPrivateCode;
/// use scec_linalg::{Fp61, Matrix, Vector};
/// use scec_runtime::TPrivateCluster;
///
/// let mut rng = StdRng::seed_from_u64(6);
/// let code = TPrivateCode::<Fp61>::new(6, 2, 2, &mut rng)?; // 2-private
/// let a = Matrix::<Fp61>::random(6, 4, &mut rng);
/// let cluster = TPrivateCluster::launch(code, &a, &mut rng, &[])?;
/// let x = Vector::<Fp61>::random(4, &mut rng);
/// assert_eq!(cluster.query(&x)?, a.matvec(&x)?);
/// cluster.shutdown();
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub type TPrivateCluster<F> = Cluster<F, TPrivateCode<F>>;

impl<F: Scalar> LocalCluster<F> {
    /// Spawns one thread per participating device and installs the coded
    /// shares produced by `system.distribute`.
    ///
    /// # Errors
    ///
    /// Propagates distribution failures.
    pub fn launch<R: Rng + ?Sized>(system: &ScecSystem<F>, rng: &mut R) -> Result<Self> {
        Self::launch_with_behaviors(system, rng, &[])
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
        Self::launch_with_behaviors(system, rng, &DeviceBehavior::from_delays(delays))
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
        let actors = Self::actors(behaviors, &clock);
        Self::launch_with_transport(system, rng, Arc::clone(&clock), actors)
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
        let actors = Self::sim_linked_actors(behaviors, &clock, delay);
        Self::launch_with_transport(system, rng, Arc::clone(&clock), actors)
    }

    /// Runs the base protocol over an externally built [`Transport`] —
    /// the entry point for networked deployments (e.g. the `scec-serve`
    /// TCP backend). `connect` receives the freshly distributed shares
    /// (device ids, row counts) and must return the transport plus the
    /// response stream feeding the mailbox; the cluster then installs
    /// each share through the transport, in roster order. Each device is
    /// priced at its fleet unit cost.
    ///
    /// # Errors
    ///
    /// Propagates distribution failures, connection failures from
    /// `connect`, and install-send failures.
    pub fn launch_with_transport<R: Rng + ?Sized>(
        system: &ScecSystem<F>,
        rng: &mut R,
        clock: Arc<dyn Clock>,
        connect: impl FnOnce(&[DeviceShare<F>]) -> Result<Link<F>>,
    ) -> Result<Self> {
        let encode_started = clock.now();
        let deployment = system.distribute(rng)?;
        let encoded = (encode_started, clock.now().saturating_sub(encode_started));
        let shares = deployment.into_shares();
        let unit_cost = |device| Some(system.fleet().c(device));
        let design = system.design().clone();
        Self::launch_over(design, shares, unit_cost, clock, encoded, connect)
    }
}

impl<F: Scalar> StragglerCluster<F> {
    /// Encodes `a` under `code`, spawns one thread per device (base +
    /// standby), and installs the tagged shares.
    ///
    /// `delays` pads with zero and injects an artificial service delay per
    /// device, letting tests and demos create real stragglers.
    ///
    /// # Errors
    ///
    /// Propagates encoding failures.
    pub fn launch<R: Rng + ?Sized>(
        code: StragglerCode<F>,
        a: &Matrix<F>,
        rng: &mut R,
        delays: &[Duration],
    ) -> Result<Self> {
        let clock = default_clock();
        let encode_started = clock.now();
        let store = code.encode(a, rng)?;
        let encoded = (encode_started, clock.now().saturating_sub(encode_started));
        let behaviors = DeviceBehavior::from_delays(delays);
        let actors = Self::actors(&behaviors, &clock);
        let (shares, clock) = (store.into_shares(), Arc::clone(&clock));
        Self::launch_over(code, shares, |_| None, clock, encoded, actors)
    }
}

impl<F: Scalar> TPrivateCluster<F> {
    /// Encodes `a` under `code` and spawns one actor per device.
    ///
    /// `behaviors` pads with [`DeviceBehavior::Honest`] — fault injection
    /// works exactly as on [`LocalCluster`].
    ///
    /// # Errors
    ///
    /// Propagates encoding failures.
    pub fn launch<R: Rng + ?Sized>(
        code: TPrivateCode<F>,
        a: &Matrix<F>,
        rng: &mut R,
        behaviors: &[DeviceBehavior],
    ) -> Result<Self> {
        let clock = default_clock();
        let encode_started = clock.now();
        let store = code.encode(a, rng)?;
        let encoded = (encode_started, clock.now().saturating_sub(encode_started));
        let shares = store.into_shares();
        let actors = Self::actors(behaviors, &clock);
        Self::launch_over(code, shares, |_| None, Arc::clone(&clock), encoded, actors)
    }
}

impl<F: Scalar, S: CodeScheme<F>> Cluster<F, S> {
    /// The launch every constructor ends in: reach one device per share
    /// over `link`, install the shares through it in roster order, and
    /// assemble the cluster. `encoded` is when the caller's encode
    /// started and how long it took; `unit_cost` prices a device id when
    /// the caller knows the fleet.
    pub(crate) fn launch_over(
        scheme: S,
        shares: Vec<S::Share>,
        unit_cost: impl Fn(usize) -> Option<f64>,
        clock: Arc<dyn Clock>,
        encoded: (Duration, Duration),
        link: impl FnOnce(&[S::Share]) -> Result<Link<F>>,
    ) -> Result<Self> {
        let (mut transport, responses) = link(&shares)?;
        let input_len = shares.first().map_or(0, |s| S::coded(s).ncols());
        let enrolled = shares
            .iter()
            .map(|share| Enrolled {
                device: S::device(share),
                rows: S::coded(share).nrows(),
                unit_cost: unit_cost(S::device(share)),
            })
            .collect();
        for (idx, share) in shares.into_iter().enumerate() {
            if let Err(e) = transport.send(idx, S::install(share)) {
                // Nothing else closes the devices already reached: a
                // dropped transport leaves its connections and their
                // reader threads behind.
                transport.shutdown();
                return Err(e);
            }
        }
        Ok(Cluster {
            scheme,
            transport,
            enrolled,
            mailbox: Mailbox::new(responses),
            next_request: AtomicU64::new(1),
            timeout: crate::DEFAULT_DEADLINE,
            clock,
            tel: Sink::none(),
            input_len,
            trace_tenant: None,
            latencies: Mutex::new(LatencyLog::default()),
            encoded,
        })
    }

    /// The in-process link: one bare actor thread per share (padding
    /// `behaviors` with honest ones), reached over channels.
    pub(crate) fn actors<'a>(
        behaviors: &'a [DeviceBehavior],
        clock: &'a Arc<dyn Clock>,
    ) -> impl FnOnce(&[S::Share]) -> Result<Link<F>> + 'a {
        move |shares| {
            let (transport, responses) = Self::spawn_actors(shares, behaviors, clock);
            Ok((Box::new(transport) as Box<dyn Transport<F>>, responses))
        }
    }

    /// The same actors behind a [`SimLinkTransport`]: every message,
    /// the installs included, round-trips the wire codec.
    pub(crate) fn sim_linked_actors<'a>(
        behaviors: &'a [DeviceBehavior],
        clock: &'a Arc<dyn Clock>,
        delay: Duration,
    ) -> impl FnOnce(&[S::Share]) -> Result<Link<F>> + 'a
    where
        F: scec_wire::WireEncode + scec_wire::WireDecode,
    {
        move |shares| {
            let (inner, inner_rx) = Self::spawn_actors(shares, behaviors, clock);
            let (transport, responses) =
                SimLinkTransport::wrap(inner, inner_rx, Arc::clone(clock), delay);
            Ok((Box::new(transport) as Box<dyn Transport<F>>, responses))
        }
    }

    fn spawn_actors(
        shares: &[S::Share],
        behaviors: &[DeviceBehavior],
        clock: &Arc<dyn Clock>,
    ) -> (ChannelTransport<F>, Responses<F>) {
        let devices = shares
            .iter()
            .enumerate()
            .map(|(idx, share)| {
                let behavior = behaviors.get(idx).copied().unwrap_or_default();
                (S::device(share), behavior)
            })
            .collect();
        ChannelTransport::spawn(devices, clock)
    }

    /// Cumulative `(bytes sent, bytes received)` on the wire, when the
    /// transport meters actual bytes (`None` for in-memory backends).
    pub fn wire_bytes(&self) -> Option<(u64, u64)> {
        self.transport.wire_bytes()
    }

    /// Attaches a telemetry handle: queries record spans, metrics, and
    /// observed costs against it, and each device actor starts tracing
    /// its compute spans. The encode span (encoding happened at launch)
    /// is replayed into the tracer, each device's stored coded rows are
    /// registered with the cost accountant, and a device the launch
    /// priced also gets its cost prediction — its fleet unit cost and
    /// the per-query usage the active design assigns it.
    #[must_use]
    pub fn with_telemetry(mut self, tel: Arc<Telemetry>) -> Self {
        // Best effort: a failed send means the device is already gone,
        // and attaching must not fail for that.
        for idx in 0..self.enrolled.len() {
            let _ = self
                .transport
                .send(idx, ToDevice::Instrument(Arc::clone(&tel)));
        }
        let (encode_started, encode_dur) = self.encoded;
        tel.tracer
            .span(encode_started, encode_dur, Stage::Encode, None, None);
        let l = self.input_len as u64;
        let esize = std::mem::size_of::<F>() as u64;
        for e in &self.enrolled {
            let rows = e.rows as u64;
            tel.costs.record_stored(e.device, rows);
            if let Some(unit_cost) = e.unit_cost {
                // Only the base constructors price devices, and base
                // answers are untagged.
                let per_query = predicted_per_query(rows, l, esize, 0);
                tel.costs.set_predicted(e.device, unit_cost, per_query);
            }
        }
        self.install_window_predictions(&tel);
        self.tel.attach(tel, S::LABEL);
        self
    }

    /// Enables distributed tracing for this cluster's queries under
    /// `tenant`: every broadcast derives a deterministic
    /// [`TraceContext`] from `(tenant, request, generation)`, stamps it
    /// on the outgoing frames, and records Router-side spans with
    /// matching ids, so device-side compute spans stitch into one causal
    /// tree per query. Composes with
    /// [`with_telemetry`](Self::with_telemetry) in either order.
    #[must_use]
    pub fn with_trace_tenant(mut self, tenant: u64) -> Self {
        self.trace_tenant = Some(tenant);
        // Traced frames carry a 17-byte context block each way, so the
        // per-window predicted message overhead is re-priced to keep
        // predicted-vs-observed wire accounting exact on byte-metered
        // transports.
        self.tel.with(|s| self.install_window_predictions(&s.tel));
        self
    }

    /// Message framing is paid once per *window* (one broadcast and one
    /// reply per device per round), so panels amortize it across their
    /// columns while plain queries — width-1 windows — pay it per
    /// query. Traced frames on a byte-metered transport additionally
    /// carry the wire context block in each direction.
    fn install_window_predictions(&self, tel: &Telemetry) {
        let mut bytes = scec_telemetry::MESSAGE_OVERHEAD_BYTES;
        if self.trace_tenant.is_some() && self.transport.counts_wire_bytes() {
            bytes += scec_telemetry::TRACE_CONTEXT_WIRE_BYTES;
        }
        for e in self.enrolled.iter().filter(|e| e.unit_cost.is_some()) {
            tel.costs
                .set_predicted_window(e.device, predicted_per_window(bytes));
        }
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
        self.timeout = timeout;
    }

    /// Builder-style per-query deadline, usable at launch:
    /// `LocalCluster::launch(&sys, rng)?.with_deadline(d)`.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.timeout = deadline;
        self
    }

    /// Number of enrolled devices (standbys included).
    pub fn device_count(&self) -> usize {
        self.enrolled.len()
    }

    /// The code in force.
    pub fn code(&self) -> &S {
        &self.scheme
    }

    /// Runs one full secure query: broadcast, await a sufficient set of
    /// partials — all of them, or under a quorum scheme the first
    /// `m + r` rows to arrive — and decode.
    ///
    /// # Errors
    ///
    /// * [`Error::ChannelClosed`] when a device thread died;
    /// * [`Error::Timeout`] when responses do not arrive in time;
    /// * [`Error::DeviceFailure`] when a device reported a failure;
    /// * [`Error::ProtocolViolation`] when an enrolled device answered
    ///   in a shape its share cannot produce;
    /// * [`Error::Coding`] when decoding failed.
    pub fn query(&self, x: &Vector<F>) -> Result<S::Output> {
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
    /// engines go through [`PipelinedQuery::begin`] instead, which may
    /// leave them queued in the transport until the pipeline next waits,
    /// so a window of queries shares one write.)
    ///
    /// # Errors
    ///
    /// [`Error::ChannelClosed`] when a device thread died.
    pub fn begin_query(&self, x: &Vector<F>) -> Result<Ticket> {
        let ticket = self.begin(x.clone())?;
        self.transport.flush()?;
        Ok(ticket)
    }

    /// Awaits a sufficient set of partials for an in-flight request and
    /// decodes — the second half of [`query`](Self::query). Tickets may
    /// be redeemed in any order; the mailbox parks responses for the
    /// requests not being waited on.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`query`](Self::query).
    pub fn finish_query(&self, ticket: Ticket) -> Result<S::Output> {
        let (value, responders) = self.finish::<Vector<F>>(ticket.request(), 1)?;
        let elapsed = ticket.elapsed_secs();
        lock(&self.latencies).record(elapsed);
        self.tel.with(|s| s.query_ok(elapsed));
        let left_behind = self.enrolled.len() - responders.len();
        Ok(S::output(value, responders, left_behind))
    }

    /// Drops an in-flight request without waiting for its result. What
    /// was parked for it is discarded, and so is whatever arrives for it
    /// later. Nothing stays queued past an abandon: a request still
    /// sitting in the transport is sent all the same.
    pub fn abandon_query(&self, ticket: Ticket) {
        let _ = self.transport.flush();
        self.mailbox.clear(ticket.request());
    }

    /// Batched secure query over the device threads: every device
    /// computes `B_j T · X` for the whole column batch in one message
    /// round, and the user decodes all columns in one pass.
    ///
    /// Equivalent to [`begin_panel`](Self::begin_panel) followed by
    /// [`finish_panel`](Self::finish_panel).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`query`](Self::query).
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
        let ticket = PanelQuery::begin_panel(self, xs)?;
        self.transport.flush()?;
        Ok(ticket)
    }

    /// Awaits a sufficient set of batch partials for an in-flight panel,
    /// stacks them, and decodes every column with one multi-RHS pass —
    /// the second half of [`query_batch`](Self::query_batch). The
    /// decoded `m × k` matrix has column `j` equal to `A x_j`; which
    /// devices a quorum scheme left behind is recorded in telemetry (the
    /// `scec_stragglers_left_behind_total` counter) rather than
    /// returned, so the panel output type is the same for every scheme.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`query`](Self::query).
    pub fn finish_panel(&self, ticket: PanelTicket) -> Result<Matrix<F>> {
        let (ys, _) = self.finish::<Matrix<F>>(ticket.request(), ticket.width())?;
        self.tel
            .with(|s| s.panel_ok(ticket.elapsed_secs(), ticket.width()));
        Ok(ys)
    }

    /// Drops an in-flight panel without waiting for its result, as
    /// [`abandon_query`](Self::abandon_query) does a query.
    pub fn abandon_panel(&self, ticket: PanelTicket) {
        let _ = self.transport.flush();
        self.mailbox.clear(ticket.request());
    }

    /// Assigns a request id, opens its stash, and hands `input`, moved
    /// into one shared `Arc`, to the transport for every enrolled device.
    /// The transport may keep the frames queued until the next collect,
    /// abandon or shutdown.
    fn begin<P: Payload<F>>(&self, input: P) -> Result<Ticket> {
        let request = self.next_request.fetch_add(1, Ordering::Relaxed);
        let ticket = Ticket::new(request, &self.clock);
        let trace = crate::telemetry::dispatch_trace(self.trace_tenant, request, 0);
        let ctx = trace.map(|(_, ctx)| ctx);
        let shared = Arc::new(input);
        self.mailbox.open(request);
        (0..self.enrolled.len())
            .try_for_each(|idx| {
                self.transport
                    .send(idx, P::query(request, Arc::clone(&shared), ctx))
            })
            .inspect_err(|_| self.mailbox.clear(request))?;
        self.tel.with(|s| {
            if !self.transport.counts_wire_bytes() {
                let (rows, cols) = shared.shape();
                let payload = (rows * cols * std::mem::size_of::<F>()) as u64;
                s.tel.costs.record_broadcast(
                    self.enrolled.iter().map(|e| e.device),
                    message_bytes(false, payload),
                );
            }
            s.span_ids(
                ticket.started(),
                self.clock.now(),
                Stage::Dispatch,
                request,
                trace.map(|(ids, _)| ids),
            );
        });
        Ok(ticket)
    }

    /// Collects and decodes one request of `width` queries and closes
    /// it. Returns the decoded payload and the devices whose answers were
    /// used, in arrival order.
    fn finish<P: Payload<F>>(&self, request: u64, width: usize) -> Result<(P, Vec<usize>)> {
        let result = self.collect::<P>(request, width);
        // Closed either way: an answer that arrives from here on (a
        // straggler's, after a quorum) is dropped, not parked.
        self.mailbox.clear(request);
        self.tel.with(|s| match &result {
            Ok((_, responders)) if responders.len() < self.enrolled.len() => {
                let left_behind = (self.enrolled.len() - responders.len()) as u64;
                s.counter("scec_stragglers_left_behind_total")
                    .add(left_behind);
            }
            Ok(_) => {}
            Err(_) => s.query_err(),
        });
        result
    }

    /// The collect → account → span → order → decode skeleton.
    ///
    /// A device speaks once per request and only for itself: an answer
    /// signed with an id that is not enrolled, or with one already heard
    /// for this request, neither counts nor replaces anything, and the
    /// wait continues.
    fn collect<P: Payload<F>>(&self, request: u64, width: usize) -> Result<(P, Vec<usize>)> {
        let collect_started = self.tel.now(&self.clock);
        // Answers by roster position — which is also the stacking order
        // the untagged decoders expect.
        let mut heard: Vec<Option<(Vec<usize>, P)>> = Vec::new();
        heard.resize_with(self.enrolled.len(), || None);
        let mut responders = Vec::with_capacity(self.enrolled.len());
        let mut progress = 0;
        self.mailbox.collect(
            &*self.transport,
            &*self.clock,
            request,
            self.timeout,
            self.scheme.needed(self.enrolled.len()),
            |resp| {
                let device = resp.device();
                let slot = self.enrolled.iter().position(|e| e.device == device);
                let Some(slot) = slot.filter(|&slot| heard[slot].is_none()) else {
                    return Ok(progress);
                };
                if let FromDevice::Failure { reason, .. } = resp {
                    return Err(Error::DeviceFailure { device, reason });
                }
                let rows = self.enrolled[slot].rows;
                let answer = P::answer(resp).filter(|(_, values)| values.shape() == (rows, width));
                let step = answer
                    .as_ref()
                    .and_then(|(tags, _)| S::progress(tags, rows));
                progress += step.ok_or(Error::ProtocolViolation {
                    device,
                    what: "answer does not have the shape the device's share gives the request",
                })?;
                heard[slot] = answer;
                responders.push(device);
                Ok(progress)
            },
        )?;
        let decode_started = self.tel.now(&self.clock);
        self.tel.with(|s| {
            s.span_ids(
                collect_started,
                decode_started,
                Stage::Collect,
                request,
                self.stage_ids(request, kind::COLLECT),
            );
            let wire = self.transport.counts_wire_bytes();
            let esize = std::mem::size_of::<F>() as u64;
            let (l, k) = (self.input_len as u64, width as u64);
            for (e, answer) in self.enrolled.iter().zip(&heard) {
                let Some((tags, _)) = answer else { continue };
                let rows = e.rows as u64;
                // A tagged row ships its u64 tag beside its values.
                let payload = rows * k * esize + 8 * tags.len() as u64;
                s.tel.costs.record_served(
                    e.device,
                    message_bytes(wire, payload),
                    rows * k,
                    rows * k * l,
                    rows * k * l.saturating_sub(1),
                );
            }
        });
        let (mut tags, mut parts) = (Vec::new(), Vec::with_capacity(responders.len()));
        for (device_tags, values) in heard.into_iter().flatten() {
            tags.extend(device_tags);
            parts.push(values);
        }
        let decoded = P::decode(&self.scheme, &tags, &P::stack(&parts)?)?;
        self.tel.with(|s| {
            s.span_ids(
                decode_started,
                self.clock.now(),
                Stage::Decode,
                request,
                self.stage_ids(request, kind::DECODE),
            );
        });
        Ok((decoded, responders))
    }

    /// Stage-span ids within a query's trace tree (`None` when this
    /// cluster does not trace).
    fn stage_ids(&self, request: u64, kind: u64) -> Option<scec_telemetry::SpanIds> {
        crate::telemetry::stage_ids(self.trace_tenant, request, 0, kind, 0)
    }

    /// Shuts down every device thread and joins them (as dropping the
    /// cluster does).
    pub fn shutdown(self) {
        drop(self);
    }
}

impl<F: Scalar, S: CodeScheme<F>> Drop for Cluster<F, S> {
    fn drop(&mut self) {
        self.transport.shutdown();
    }
}

/// The pipeline engines' view of a cluster. `begin` leaves the broadcast
/// queued in the transport (the inherent [`Cluster::begin_query`]
/// flushes it), so a window of requests shares one write per device.
impl<F: Scalar, S: CodeScheme<F>> PipelinedQuery for Cluster<F, S> {
    type Input = Vector<F>;
    type Output = S::Output;
    type Ticket = Ticket;

    fn begin(&self, input: &Vector<F>) -> Result<Ticket> {
        Cluster::begin(self, input.clone())
    }

    fn finish(&self, ticket: Ticket) -> Result<S::Output> {
        self.finish_query(ticket)
    }

    fn abandon(&self, ticket: Ticket) {
        self.abandon_query(ticket);
    }

    fn clock_now(&self) -> Duration {
        self.clock.now()
    }
}

/// As [`PipelinedQuery`], for panels.
impl<F: Scalar, S: CodeScheme<F>> PanelQuery for Cluster<F, S> {
    type Elem = F;
    type PanelTicket = PanelTicket;

    fn begin_panel(&self, xs: &Matrix<F>) -> Result<PanelTicket> {
        self.begin_panel_owned(xs.clone())
    }

    fn begin_panel_owned(&self, xs: Matrix<F>) -> Result<PanelTicket> {
        let width = xs.ncols();
        Ok(PanelTicket::new(self.begin(xs)?, width))
    }

    fn finish_panel(&self, ticket: PanelTicket) -> Result<Matrix<F>> {
        Cluster::finish_panel(self, ticket)
    }

    fn abandon_panel(&self, ticket: PanelTicket) {
        Cluster::abandon_panel(self, ticket);
    }

    fn clock_now(&self) -> Duration {
        self.clock.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;
    use crate::SimClock;
    use rand::{rngs::StdRng, SeedableRng};
    use scec_allocation::EdgeFleet;
    use scec_coding::Encoder;
    use scec_core::AllocationStrategy;
    use scec_linalg::Fp61;
    use std::sync::mpsc::{channel, Sender};

    const M: usize = 6;
    const L: usize = 4;

    fn build(m: usize, l: usize, seed: u64) -> (Matrix<Fp61>, ScecSystem<Fp61>, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::<Fp61>::random(m, l, &mut rng);
        let fleet = EdgeFleet::from_unit_costs(vec![1.0, 1.5, 2.0, 2.5, 3.0]).unwrap();
        let sys =
            ScecSystem::build(a.clone(), fleet, AllocationStrategy::Mcscec, &mut rng).unwrap();
        (a, sys, rng)
    }

    /// A (6, 3) base design with one 3-row standby: four devices of
    /// three rows, any three of which make the quorum of nine.
    fn quorum_code(rng: &mut StdRng) -> StragglerCode<Fp61> {
        StragglerCode::new(CodeDesign::new(M, 3).unwrap(), 3, rng).unwrap()
    }

    fn sim_clock() -> Arc<dyn Clock> {
        Arc::new(SimClock::new())
    }

    /// How a table row's cluster reaches its devices.
    #[derive(Clone, Copy, Debug)]
    enum Via {
        Channel,
        SimLink,
    }

    /// Launches `code` over `shares` through the shared launch, on a
    /// fresh auto-advance [`SimClock`].
    fn launch_via<S: CodeScheme<Fp61>>(
        via: Via,
        code: S,
        shares: &[S::Share],
        behaviors: &[DeviceBehavior],
    ) -> Cluster<Fp61, S>
    where
        S::Share: Clone,
    {
        let shares = shares.to_vec();
        let clock = sim_clock();
        let encoded = (Duration::ZERO, Duration::ZERO);
        let unpriced = |_| None;
        match via {
            Via::Channel => {
                let link = Cluster::<Fp61, S>::actors(behaviors, &clock);
                Cluster::launch_over(code, shares, unpriced, Arc::clone(&clock), encoded, link)
            }
            Via::SimLink => {
                let link = Cluster::<Fp61, S>::sim_linked_actors(behaviors, &clock, Duration::ZERO);
                Cluster::launch_over(code, shares, unpriced, Arc::clone(&clock), encoded, link)
            }
        }
        .unwrap()
    }

    /// One scheme's rows of the parity table: over each link, `A·x` and
    /// `A·X` (k = 1, 5), panel ≡ per-query, abandon leaves the cluster
    /// usable, the latency log counts vector queries, and silencing the
    /// first `omit` devices times the query out at `received`, the
    /// progress the others make.
    fn parity_rows<S: CodeScheme<Fp61, Share: Clone> + Clone>(
        a: &Matrix<Fp61>,
        code: &S,
        shares: &[S::Share],
        (omit, received): (usize, usize),
        value: fn(S::Output) -> Vector<Fp61>,
        rng: &mut StdRng,
    ) {
        for via in [Via::Channel, Via::SimLink] {
            let row = format!("{} over {via:?}", S::LABEL);
            let cluster = launch_via(via, code.clone(), shares, &[]);
            assert_eq!(cluster.device_count(), shares.len(), "{row}");
            let mut queries = 0;
            for k in [1usize, 5] {
                let xs = Matrix::<Fp61>::random(L, k, rng);
                let ticket = cluster.begin_panel(&xs).unwrap();
                assert_eq!(ticket.width(), k, "{row}");
                let panel = cluster.finish_panel(ticket).unwrap();
                assert_eq!(panel, a.matmul(&xs).unwrap(), "{row}, k = {k}");
                assert_eq!(panel, cluster.query_batch(&xs).unwrap(), "{row}, k = {k}");
                for j in 0..k {
                    let y = value(cluster.query(&xs.col(j)).unwrap());
                    assert_eq!(y, panel.col(j), "{row}, k = {k}, column {j}");
                    queries += 1;
                }
            }
            assert_eq!(cluster.stats().count, queries, "{row}");
            // Abandoned requests, vector and panel, leave no trace.
            let x = Vector::<Fp61>::random(L, rng);
            cluster.abandon_query(cluster.begin_query(&x).unwrap());
            let xs = Matrix::<Fp61>::random(L, 3, rng);
            cluster.abandon_panel(cluster.begin_panel(&xs).unwrap());
            assert_eq!(cluster.mailbox.open_requests(), [] as [u64; 0], "{row}");
            assert_eq!(
                value(cluster.query(&x).unwrap()),
                a.matvec(&x).unwrap(),
                "{row}"
            );
            cluster.shutdown();

            // Deterministic timeout: the omitting devices *never* respond,
            // and the auto-advance SimClock turns each empty 5 ms polling
            // slice into 5 ms of virtual time, so a 25 ms virtual deadline
            // expires after a bounded number of polls.
            let behaviors = vec![DeviceBehavior::Omit; omit];
            let mut silenced = launch_via(via, code.clone(), shares, &behaviors);
            silenced.set_timeout(Duration::from_millis(25));
            for timed_out in [
                silenced.query(&x).map(drop),
                silenced.query_batch(&xs).map(drop),
            ] {
                match timed_out {
                    Err(Error::Timeout {
                        received: got,
                        needed,
                        ..
                    }) => {
                        assert_eq!(needed, code.needed(shares.len()), "{row}");
                        assert_eq!(got, received, "{row}");
                    }
                    other => panic!("{row}: expected a timeout, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn scheme_parity_table() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Matrix::<Fp61>::random(M, L, &mut rng);

        let design = CodeDesign::new(M, 2).unwrap();
        let shares = Encoder::new(design.clone())
            .encode(&a, &mut rng)
            .unwrap()
            .into_shares();
        // Everyone except the omitting device responds.
        let short = (1, shares.len() - 1);
        parity_rows(&a, &design, &shares, short, |y| y, &mut rng);

        // Two of the four devices silent leaves six rows of the nine.
        let code = quorum_code(&mut rng);
        let store = code.encode(&a, &mut rng).unwrap();
        parity_rows(&a, &code, store.shares(), (2, 6), |r| r.value, &mut rng);

        let code = TPrivateCode::<Fp61>::new(M, 2, 2, &mut rng).unwrap();
        let shares = code.encode(&a, &mut rng).unwrap().into_shares();
        parity_rows(&a, &code, &shares, (1, shares.len() - 1), |y| y, &mut rng);
    }

    /// Checked when this compiles: sharing a cluster between threads
    /// must not depend on which channel implementation was linked.
    #[test]
    fn every_cluster_is_send_and_sync() {
        fn shared<T: Send + Sync>() {}
        shared::<LocalCluster<Fp61>>();
        shared::<StragglerCluster<Fp61>>();
        shared::<TPrivateCluster<Fp61>>();
        shared::<crate::SupervisedCluster<Fp61>>();
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

        let a = Matrix::<Fp61>::random(M, L, &mut rng);
        let code = TPrivateCode::<Fp61>::new(M, 2, 2, &mut rng).unwrap();
        let behaviors = vec![DeviceBehavior::Delayed(Duration::from_millis(20))];
        let cluster = TPrivateCluster::launch(code, &a, &mut rng, &behaviors).unwrap();
        let x = Vector::<Fp61>::random(L, &mut rng);
        assert_eq!(cluster.query(&x).unwrap(), a.matvec(&x).unwrap());
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
    fn slow_device_is_left_behind() {
        // Four devices of three rows; device 2 never responds, and the
        // other three cover the nine rows needed: vector and panel both
        // finish WITHOUT it. Omit + SimClock makes the outcome
        // deterministic; the wall-clock latency claim lives in
        // `straggler_beats_the_delay_wall_clock` below.
        let mut rng = StdRng::seed_from_u64(2);
        let code = quorum_code(&mut rng);
        assert_eq!(code.device_count(), 4);
        let a = Matrix::<Fp61>::random(M, L, &mut rng);
        let store = code.encode(&a, &mut rng).unwrap();
        let behaviors = vec![DeviceBehavior::Honest, DeviceBehavior::Omit];
        let cluster = launch_via(Via::Channel, code, store.shares(), &behaviors);
        assert_eq!(cluster.code().redundancy(), 3);
        let x = Vector::<Fp61>::random(L, &mut rng);
        let result = cluster.query(&x).unwrap();
        assert_eq!(result.value, a.matvec(&x).unwrap());
        assert!(!result.responders.contains(&2), "{:?}", result.responders);
        assert_eq!(result.stragglers_left_behind, 1);
        let xs = Matrix::<Fp61>::random(L, 4, &mut rng);
        assert_eq!(cluster.query_batch(&xs).unwrap(), a.matmul(&xs).unwrap());
    }

    #[test]
    #[ignore = "wall-clock"] // asserts real elapsed time; timing-sensitive under load
    fn straggler_beats_the_delay_wall_clock() {
        // The quorum completes well before the straggler's 600ms real
        // delay — a latency claim that only wall-clock time can witness.
        let mut rng = StdRng::seed_from_u64(2);
        let code = quorum_code(&mut rng);
        let a = Matrix::<Fp61>::random(M, L, &mut rng);
        let delays = vec![Duration::ZERO, Duration::from_millis(600)];
        let cluster = StragglerCluster::launch(code, &a, &mut rng, &delays).unwrap();
        let x = Vector::<Fp61>::random(L, &mut rng);
        let start = std::time::Instant::now();
        let result = cluster.query(&x).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(result.value, a.matvec(&x).unwrap());
        assert!(elapsed < Duration::from_millis(400), "took {elapsed:?}");
    }

    #[test]
    fn late_responses_are_dropped_not_parked() {
        // Device 2 answers every query 10 ms late; the other three make
        // the quorum at once, so each of its answers arrives after its
        // request finished and is popped by a later request's collect.
        let mut rng = StdRng::seed_from_u64(3);
        let code = quorum_code(&mut rng);
        let a = Matrix::<Fp61>::random(M, L, &mut rng);
        let delay = Duration::from_millis(10);
        let delays = vec![Duration::ZERO, delay];
        let cluster = StragglerCluster::launch(code, &a, &mut rng, &delays).unwrap();
        let served = 6;
        for _ in 0..served {
            let x = Vector::<Fp61>::random(L, &mut rng);
            assert_eq!(cluster.query(&x).unwrap().value, a.matvec(&x).unwrap());
        }
        // Every late answer is in the channel by now; one more query's
        // collect has to walk past them.
        std::thread::sleep(delay * (served + 4));
        let x = Vector::<Fp61>::random(L, &mut rng);
        assert_eq!(cluster.query(&x).unwrap().value, a.matvec(&x).unwrap());
        assert_eq!(cluster.mailbox.open_requests(), [] as [u64; 0]);
    }

    /// A transport that runs honest [`Device`]s inside `send` and lets a
    /// script decide what each genuine answer turns into on the response
    /// stream — nothing, itself, itself twice, itself under another id —
    /// as one batch.
    struct Scripted {
        devices: Vec<Mutex<Device<Fp61>>>,
        ids: Vec<usize>,
        responses: Sender<Vec<FromDevice<Fp61>>>,
        script: fn(FromDevice<Fp61>) -> Vec<FromDevice<Fp61>>,
    }

    impl Scripted {
        fn link<Sh>(
            device: fn(&Sh) -> usize,
            script: fn(FromDevice<Fp61>) -> Vec<FromDevice<Fp61>>,
        ) -> impl FnOnce(&[Sh]) -> Result<Link<Fp61>> {
            move |shares| {
                let (responses, rx) = channel();
                let ids: Vec<usize> = shares.iter().map(device).collect();
                let devices = ids
                    .iter()
                    .map(|&id| Mutex::new(Device::new(id, sim_clock(), None)))
                    .collect();
                let transport = Scripted {
                    devices,
                    ids,
                    responses,
                    script,
                };
                Ok((Box::new(transport) as Box<dyn Transport<Fp61>>, rx))
            }
        }
    }

    impl Transport<Fp61> for Scripted {
        fn device_count(&self) -> usize {
            self.ids.len()
        }

        fn device_id(&self, index: usize) -> usize {
            self.ids[index]
        }

        fn send(&self, index: usize, msg: ToDevice<Fp61>) -> Result<()> {
            if let Some(answer) = lock(&self.devices[index]).handle(msg) {
                self.responses.send((self.script)(answer)).unwrap();
            }
            Ok(())
        }

        fn shutdown(&mut self) {}
    }

    /// `resp`, signed as `device`.
    fn signed_as(mut resp: FromDevice<Fp61>, device: usize) -> FromDevice<Fp61> {
        match &mut resp {
            FromDevice::Partial { device: d, .. }
            | FromDevice::BatchPartial { device: d, .. }
            | FromDevice::TaggedBatch { device: d, .. }
            | FromDevice::TaggedPartial { device: d, .. }
            | FromDevice::Failure { device: d, .. } => *d = device,
        }
        resp
    }

    /// Device 1 — first on every roster, so first on the stream — says
    /// everything twice.
    fn repeats_itself(resp: FromDevice<Fp61>) -> Vec<FromDevice<Fp61>> {
        match resp.device() {
            1 => vec![resp.clone(), resp],
            _ => vec![resp],
        }
    }

    /// Device 1's answer is preceded by a copy signed by device 99, which
    /// is on no roster.
    fn speaks_for_a_stranger(resp: FromDevice<Fp61>) -> Vec<FromDevice<Fp61>> {
        match resp.device() {
            1 => vec![signed_as(resp.clone(), 99), resp],
            _ => vec![resp],
        }
    }

    /// Device 2 answers as device 1: device 1 is heard once, device 2
    /// never, and only the quorum rule can finish without it.
    fn speaks_for_a_neighbour(resp: FromDevice<Fp61>) -> Vec<FromDevice<Fp61>> {
        match resp.device() {
            2 => vec![signed_as(resp, 1)],
            _ => vec![resp],
        }
    }

    #[test]
    fn a_device_speaks_once_and_only_for_itself() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = Matrix::<Fp61>::random(M, L, &mut rng);
        let x = Vector::<Fp61>::random(L, &mut rng);
        let xs = Matrix::<Fp61>::random(L, 3, &mut rng);
        let (y, ys) = (a.matvec(&x).unwrap(), a.matmul(&xs).unwrap());
        let encoded = (Duration::ZERO, Duration::ZERO);

        let design = CodeDesign::new(M, 2).unwrap();
        let plain = Encoder::new(design.clone())
            .encode(&a, &mut rng)
            .unwrap()
            .into_shares();
        let code = quorum_code(&mut rng);
        let tagged = code.encode(&a, &mut rng).unwrap();

        for (name, script) in [
            ("repeat", repeats_itself as fn(_) -> _),
            ("stranger", speaks_for_a_stranger),
        ] {
            // All-responses rule: neither extra answer stands in for a
            // device that has not spoken.
            let link = Scripted::link(DeviceShare::device, script);
            let base = Cluster::launch_over(
                design.clone(),
                plain.clone(),
                |_| None,
                sim_clock(),
                encoded,
                link,
            )
            .unwrap();
            assert_eq!(base.query(&x).unwrap(), y, "base, {name}, vector");
            assert_eq!(base.query_batch(&xs).unwrap(), ys, "base, {name}, panel");

            // Quorum rule: the extra rows do not count toward `m + r`,
            // so the collect waits for rows that decode.
            let link = Scripted::link(scec_coding::StragglerShare::device, script);
            let shares = tagged.shares().to_vec();
            let quorum =
                Cluster::launch_over(code.clone(), shares, |_| None, sim_clock(), encoded, link)
                    .unwrap();
            let result = quorum.query(&x).unwrap();
            assert_eq!(result.value, y, "quorum, {name}, vector");
            assert_eq!(result.responders, [1, 2, 3], "quorum, {name}");
            assert_eq!(
                quorum.query_batch(&xs).unwrap(),
                ys,
                "quorum, {name}, panel"
            );
        }

        // An enrolled id in the wrong mouth is a repeat of that id: the
        // quorum finishes on the three devices that spoke for themselves,
        // the all-responses rule keeps waiting for the one that did not.
        let link = Scripted::link(scec_coding::StragglerShare::device, speaks_for_a_neighbour);
        let quorum = Cluster::launch_over(
            code,
            tagged.shares().to_vec(),
            |_| None,
            sim_clock(),
            encoded,
            link,
        )
        .unwrap();
        let result = quorum.query(&x).unwrap();
        assert_eq!((result.value, result.responders), (y, vec![1, 3, 4]));
        let link = Scripted::link(DeviceShare::device, speaks_for_a_neighbour);
        let base = Cluster::launch_over(design, plain, |_| None, sim_clock(), encoded, link)
            .unwrap()
            .with_deadline(Duration::from_millis(25));
        assert!(matches!(base.query(&x), Err(Error::Timeout { .. })));
    }

    /// What a [`Bookkeeper`] saw, kept where the test can read it after
    /// the transport is gone.
    #[derive(Default)]
    struct Books {
        /// Where the coded rows of each installed share live.
        installed: Mutex<Vec<usize>>,
        shutdowns: std::sync::atomic::AtomicUsize,
    }

    /// The address of the buffer under a share's coded rows: the same
    /// before and after a move, a new one after a copy.
    fn buffer(coded: &Matrix<Fp61>) -> usize {
        coded.as_flat().as_ptr() as usize
    }

    /// A transport that only keeps [`Books`]: installs past the first
    /// `reachable` fail the way a closed connection does.
    struct Bookkeeper {
        ids: Vec<usize>,
        reachable: usize,
        books: Arc<Books>,
    }

    impl Bookkeeper {
        fn link<Sh>(
            device: fn(&Sh) -> usize,
            reachable: usize,
            books: &Arc<Books>,
        ) -> impl FnOnce(&[Sh]) -> Result<Link<Fp61>> {
            let books = Arc::clone(books);
            move |shares| {
                let transport = Bookkeeper {
                    ids: shares.iter().map(device).collect(),
                    reachable,
                    books,
                };
                // Nothing ever answers; the sender is dropped at once.
                Ok((Box::new(transport) as Box<dyn Transport<Fp61>>, channel().1))
            }
        }
    }

    impl Transport<Fp61> for Bookkeeper {
        fn device_count(&self) -> usize {
            self.ids.len()
        }

        fn device_id(&self, index: usize) -> usize {
            self.ids[index]
        }

        fn send(&self, index: usize, msg: ToDevice<Fp61>) -> Result<()> {
            let coded = match &msg {
                ToDevice::Install(share) => share.coded(),
                ToDevice::InstallTagged(share) => share.coded(),
                _ => return Ok(()),
            };
            let mut installed = lock(&self.books.installed);
            if installed.len() == self.reachable {
                return Err(Error::ChannelClosed {
                    device: Some(self.ids[index]),
                });
            }
            installed.push(buffer(coded));
            Ok(())
        }

        fn shutdown(&mut self) {
            self.books.shutdowns.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn a_launch_that_fails_part_way_shuts_its_transport_down() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = Matrix::<Fp61>::random(M, L, &mut rng);
        let design = CodeDesign::new(M, 2).unwrap();
        let shares = Encoder::new(design.clone())
            .encode(&a, &mut rng)
            .unwrap()
            .into_shares();
        let books = Arc::new(Books::default());
        // Every device is reached; the second one's install is refused.
        let link = Bookkeeper::link(DeviceShare::device, 1, &books);
        let encoded = (Duration::ZERO, Duration::ZERO);
        let launched = Cluster::launch_over(design, shares, |_| None, sim_clock(), encoded, link);
        assert!(matches!(
            launched.map(drop),
            Err(Error::ChannelClosed { device: Some(2) })
        ));
        assert_eq!(lock(&books.installed).len(), 1);
        assert_eq!(books.shutdowns.load(Ordering::Relaxed), 1);
    }

    /// Launches `code` over the shares a store gave up, and checks that
    /// the buffers the encoder `made`, the ones `link` was shown and the
    /// ones the installs carried are the same allocations, in order.
    fn assert_installs_what_the_encoder_made<S: CodeScheme<Fp61>>(
        code: S,
        made: Vec<usize>,
        shares: Vec<S::Share>,
    ) {
        let books = Arc::new(Books::default());
        let mut shown = Vec::new();
        let bookkeeper = Bookkeeper::link(S::device, shares.len(), &books);
        let link = |shares: &[S::Share]| {
            shown.extend(shares.iter().map(|s| buffer(S::coded(s))));
            bookkeeper(shares)
        };
        let encoded = (Duration::ZERO, Duration::ZERO);
        let cluster = Cluster::launch_over(code, shares, |_| None, sim_clock(), encoded, link);
        cluster.unwrap().shutdown();
        assert_eq!(shown, made, "{}: link", S::LABEL);
        assert_eq!(*lock(&books.installed), made, "{}: installs", S::LABEL);
    }

    #[test]
    fn every_scheme_installs_the_buffers_its_encoder_made() {
        let (a, system, mut rng) = build(M, L, 6);
        let deployment = system.distribute(&mut rng).unwrap();
        let devices = deployment.devices().iter();
        let made = devices.map(|d| buffer(d.share().coded())).collect();
        let design = system.design().clone();
        assert_installs_what_the_encoder_made(design, made, deployment.into_shares());

        let code = quorum_code(&mut rng);
        let store = code.encode(&a, &mut rng).unwrap();
        let made = store.shares().iter().map(|s| buffer(s.coded())).collect();
        assert_installs_what_the_encoder_made(code, made, store.into_shares());

        let code = TPrivateCode::<Fp61>::new(M, 2, 2, &mut rng).unwrap();
        let store = code.encode(&a, &mut rng).unwrap();
        let made = store.shares().iter().map(|s| buffer(s.coded())).collect();
        assert_installs_what_the_encoder_made(code, made, store.into_shares());
    }

    #[test]
    fn byzantine_device_corrupts_detectably() {
        use scec_core::IntegrityKey;
        let mut rng = StdRng::seed_from_u64(2);
        let code = TPrivateCode::<Fp61>::new(M, 2, 2, &mut rng).unwrap();
        let a = Matrix::<Fp61>::random(M, L, &mut rng);
        let key = IntegrityKey::generate(&a, &mut rng).unwrap();
        let behaviors = vec![DeviceBehavior::Byzantine];
        let cluster = TPrivateCluster::launch(code, &a, &mut rng, &behaviors).unwrap();
        let x = Vector::<Fp61>::random(L, &mut rng);
        let y = cluster.query(&x).unwrap();
        // Device 1 holds noise rows: corrupting them shifts the decoded
        // result, and the Freivalds key catches it.
        assert_ne!(y, a.matvec(&x).unwrap());
        assert!(!key.verify(&x, &y).unwrap());
    }

    /// Every device-compute span must share the dispatch span's trace
    /// and parent directly onto it — the in-process causality oracle.
    fn assert_stitched(tel: &Telemetry) {
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

    /// One traced vector query and one traced panel on `cluster`: device
    /// spans stitch under dispatch, and the collect/decode spans join the
    /// same trace — whatever the scheme.
    fn assert_traces<S: CodeScheme<Fp61>>(cluster: Cluster<Fp61, S>) {
        let tel = Arc::new(Telemetry::new());
        let cluster = cluster
            .with_telemetry(Arc::clone(&tel))
            .with_trace_tenant(42);
        cluster.query(&Vector::<Fp61>::zeros(L)).unwrap();
        cluster.query_batch(&Matrix::<Fp61>::zeros(L, 2)).unwrap();
        assert_stitched(&tel);
        let events = tel.tracer.events();
        for name in ["span.collect", "span.decode"] {
            let spans: Vec<_> = events.iter().filter(|e| e.name == name).collect();
            assert_eq!(spans.len(), 2, "{} {name}", S::LABEL);
            for span in spans {
                assert!(span.ids.is_some(), "{} {name} carries trace ids", S::LABEL);
            }
        }
        cluster.shutdown();
    }

    #[test]
    fn traced_queries_stitch_device_spans_under_dispatch_on_every_scheme() {
        let (_a, sys, mut rng) = build(M, L, 11);
        assert_traces(LocalCluster::launch(&sys, &mut rng).unwrap());
        // The context reaches the actors through version-2 frames when a
        // codec sits on the path.
        let sim_linked =
            LocalCluster::launch_sim_linked(&sys, &mut rng, &[], sim_clock(), Duration::ZERO);
        assert_traces(sim_linked.unwrap());
        let a = Matrix::<Fp61>::random(M, L, &mut rng);
        let code = quorum_code(&mut rng);
        assert_traces(StragglerCluster::launch(code, &a, &mut rng, &[]).unwrap());
        let code = TPrivateCode::<Fp61>::new(M, 2, 2, &mut rng).unwrap();
        assert_traces(TPrivateCluster::launch(code, &a, &mut rng, &[]).unwrap());
    }

    #[test]
    fn untraced_clusters_record_no_span_ids() {
        let (a, sys, mut rng) = build(5, 3, 13);
        let tel = Arc::new(Telemetry::new());
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

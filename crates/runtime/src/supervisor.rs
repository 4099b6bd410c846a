//! Fault-tolerant supervised cluster: health tracking, retry with
//! backoff, Byzantine quarantine, and allocation-driven repair.
//!
//! [`SupervisedCluster`] wraps the straggler-tolerant protocol with a
//! supervision layer that keeps queries correct while devices crash,
//! drop responses, or actively corrupt their partials:
//!
//! * **Health tracking** — every physical device carries a
//!   [`DeviceState`], a consecutive-miss counter, and a response-latency
//!   EWMA. Devices that miss quorums are *suspected*, then declared
//!   *dead* after `evict_after` consecutive misses.
//! * **Graceful degradation** — a query completes as soon as any
//!   `m + r` *verified* tagged rows arrive, so omissions and crashes
//!   degrade the quorum instead of failing the query.
//! * **Retry with backoff** — an attempt that times out (or hits a dead
//!   channel) is retried up to `max_retries` times with exponential
//!   backoff and multiplicative jitter.
//! * **Byzantine quarantine** — each device's coded payload `C_j` gets
//!   its own Freivalds [`IntegrityKey`]; a tagged partial that fails
//!   `u_j^T C_j x == u_j^T w_j` is rejected and its device quarantined,
//!   which *localizes* the Byzantine device rather than merely detecting
//!   that the decoded result is wrong.
//! * **Repair** — once a device is dead or quarantined, the next query
//!   first re-runs the TA-1 optimal allocation over the surviving
//!   devices' unit costs, rebuilds the straggler code, re-encodes the
//!   data, and hot-installs fresh shares on a new set of actors.
//!
//! The supervisor serializes queries (the topology can be swapped by a
//! repair between any two queries); device actors still run fully
//! concurrently within a query.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rand::{rngs::StdRng, Rng, SeedableRng};

use scec_allocation::{ta, AdaptiveAllocator, AdaptiveConfig, DriftSample, EdgeFleet, Verdict};
use scec_coding::{CodeDesign, StragglerCode, TaggedResponse};
use scec_core::IntegrityKey;
use scec_linalg::{Matrix, Scalar, Vector};

use crate::clock::{default_clock, Clock};
use crate::cluster::QueryStats;
use crate::device::DeviceBehavior;
use crate::error::{Error, Result};
use crate::latency::LatencyLog;
use crate::mailbox::{lock, Mailbox};
use crate::message::{FromDevice, ToDevice};
use crate::telemetry::{message_bytes, predicted_per_query, predicted_per_window};
use crate::transport::{ChannelTransport, Transport};

/// Drift factors below the band are flattened to 1.0 before they reach
/// the adaptive allocator: factors are measured against the fastest
/// sampled device, so ordinary scheduler jitter on a uniform fleet
/// stays inside the band and a static fleet never re-allocates. Only a
/// device at least this many times slower than the fleet's best counts
/// as drift.
const ADAPTIVE_DEAD_BAND: f64 = 2.0;

/// Tuning knobs for the supervision layer. Construct with
/// [`SupervisorConfig::default`] and override builder-style.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupervisorConfig {
    /// Per-attempt response deadline.
    pub deadline: Duration,
    /// Retries after a failed attempt (total attempts = `max_retries + 1`).
    pub max_retries: u32,
    /// First-retry backoff; doubles per subsequent retry.
    pub backoff_base: Duration,
    /// Multiplicative jitter fraction in `[0, 1]`: each backoff is scaled
    /// by a uniform factor in `[1, 1 + jitter]`.
    pub backoff_jitter: f64,
    /// Consecutive misses before a healthy device is suspected.
    pub suspect_after: u32,
    /// Consecutive misses before a device is declared dead.
    pub evict_after: u32,
    /// Smoothing factor in `(0, 1]` for the per-device latency EWMA.
    pub ewma_alpha: f64,
    /// Standby devices to provision (each holds `r` extension rows), so
    /// the quorum survives losing any `standbys` devices outright.
    pub standbys: usize,
    /// After quorum, how long to keep crediting responses from the
    /// remaining devices before they are counted as misses. Keeps
    /// slow-but-honest devices (whose rows simply were not needed) from
    /// accruing misses and being evicted spuriously.
    pub quorum_grace: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            deadline: crate::DEFAULT_DEADLINE,
            max_retries: 3,
            backoff_base: Duration::from_millis(10),
            backoff_jitter: 0.5,
            suspect_after: 1,
            evict_after: 3,
            ewma_alpha: 0.3,
            standbys: 1,
            quorum_grace: Duration::from_millis(5),
        }
    }
}

impl SupervisorConfig {
    /// Sets the per-attempt deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = deadline;
        self
    }

    /// Sets the retry budget.
    #[must_use]
    pub fn with_max_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Sets the backoff base delay and jitter fraction.
    #[must_use]
    pub fn with_backoff(mut self, base: Duration, jitter: f64) -> Self {
        self.backoff_base = base;
        self.backoff_jitter = jitter;
        self
    }

    /// Sets the suspicion and eviction miss thresholds.
    #[must_use]
    pub fn with_thresholds(mut self, suspect_after: u32, evict_after: u32) -> Self {
        self.suspect_after = suspect_after;
        self.evict_after = evict_after;
        self
    }

    /// Sets the latency EWMA smoothing factor.
    #[must_use]
    pub fn with_ewma_alpha(mut self, alpha: f64) -> Self {
        self.ewma_alpha = alpha;
        self
    }

    /// Sets the number of standby devices to provision.
    #[must_use]
    pub fn with_standbys(mut self, standbys: usize) -> Self {
        self.standbys = standbys;
        self
    }

    /// Sets the post-quorum grace window.
    #[must_use]
    pub fn with_quorum_grace(mut self, grace: Duration) -> Self {
        self.quorum_grace = grace;
        self
    }

    fn validate(&self) -> Result<()> {
        if self.deadline.is_zero() {
            return Err(Error::InvalidConfig {
                what: "deadline must be positive",
            });
        }
        if !self.backoff_jitter.is_finite() || !(0.0..=1.0).contains(&self.backoff_jitter) {
            return Err(Error::InvalidConfig {
                what: "backoff jitter must be in [0, 1]",
            });
        }
        if !self.ewma_alpha.is_finite() || self.ewma_alpha <= 0.0 || self.ewma_alpha > 1.0 {
            return Err(Error::InvalidConfig {
                what: "ewma alpha must be in (0, 1]",
            });
        }
        if self.suspect_after == 0 || self.evict_after < self.suspect_after {
            return Err(Error::InvalidConfig {
                what: "thresholds must satisfy 1 <= suspect_after <= evict_after",
            });
        }
        if self.standbys == 0 {
            return Err(Error::InvalidConfig {
                what: "at least one standby device is required",
            });
        }
        Ok(())
    }
}

/// Lifecycle state of one physical device under supervision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceState {
    /// Responding normally.
    Healthy,
    /// Missed at least `suspect_after` consecutive quorums.
    Suspect,
    /// Failed a Freivalds integrity check — excluded as Byzantine.
    Quarantined,
    /// Crashed, or missed `evict_after` consecutive quorums.
    Dead,
}

/// A point-in-time health snapshot for one physical device.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceHealth {
    /// Physical device id (1-based, in launch order of `unit_costs`).
    pub device: usize,
    /// The device's per-row unit cost.
    pub unit_cost: f64,
    /// Current lifecycle state.
    pub state: DeviceState,
    /// Quorums missed in a row (reset on every response).
    pub consecutive_misses: u32,
    /// Tagged partials that failed the Freivalds check.
    pub integrity_failures: u32,
    /// Exponentially-weighted response latency, seconds.
    pub ewma_latency: Option<f64>,
    /// Whether the device holds a share in the current topology.
    pub enrolled: bool,
}

/// Observable supervision events, in occurrence order.
#[derive(Debug, Clone, PartialEq)]
pub enum SupervisorEvent {
    /// A device crossed the suspicion threshold.
    Suspected {
        /// Physical device id.
        device: usize,
        /// Its consecutive-miss count.
        misses: u32,
    },
    /// A device failed an integrity check and was quarantined.
    Quarantined {
        /// Physical device id.
        device: usize,
    },
    /// A device crashed or crossed the eviction threshold.
    Died {
        /// Physical device id.
        device: usize,
    },
    /// A failed attempt is being retried after a backoff.
    Retried {
        /// 1-based attempt number that failed.
        attempt: u32,
        /// The backoff slept before the next attempt.
        backoff: Duration,
    },
    /// A query decoded without hearing from every enrolled device.
    Degraded {
        /// Enrolled devices that never answered (physical ids).
        missing: Vec<usize>,
        /// Devices whose partials were rejected (physical ids).
        rejected: Vec<usize>,
    },
    /// The fleet was re-allocated and fresh shares were installed.
    Repaired {
        /// Devices enrolled in the new topology (physical ids, base
        /// devices first, then standbys).
        enrolled: Vec<usize>,
        /// Random blinding rows `r` chosen by the new allocation.
        random_rows: usize,
        /// Straggler redundancy rows `s` provisioned.
        redundancy: usize,
    },
    /// The adaptive allocator crossed its drift trigger and installed a
    /// re-run TA-1 plan over drift-scaled costs (see
    /// [`SupervisedCluster::with_adaptive`]).
    Reallocated {
        /// Devices enrolled in the new topology (physical ids, base
        /// devices first, then standbys).
        enrolled: Vec<usize>,
        /// The drift spread (max/min effective-cost factor over the old
        /// plan's members, thousandths) that triggered the install.
        spread_permille: u64,
    },
}

/// A decoded result plus supervision metadata.
#[derive(Clone, PartialEq)]
pub struct SupervisedResult<F> {
    /// The recovered `y = Ax`.
    pub value: Vector<F>,
    /// Physical devices whose verified rows were used (arrival order).
    pub responders: Vec<usize>,
    /// Attempts spent (1 = first try succeeded).
    pub attempts: u32,
    /// Whether the quorum was missing at least one enrolled device.
    pub degraded: bool,
}

impl<F: Scalar> std::fmt::Debug for SupervisedResult<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SupervisedResult")
            .field("value", &self.value)
            .field("responders", &self.responders)
            .field("attempts", &self.attempts)
            .field("degraded", &self.degraded)
            .finish()
    }
}

/// An in-flight supervised query begun with
/// [`SupervisedCluster::begin_query`].
///
/// Carries the query vector itself: if the fast path fails (a retryable
/// attempt error, or a repair swapped the topology generation while the
/// request was in flight), [`finish_query`](SupervisedCluster::finish_query)
/// transparently falls back to a fresh serialized
/// [`query`](SupervisedCluster::query) with the full retry/repair loop.
pub struct SupervisedTicket<F: Scalar> {
    x: Vector<F>,
    /// `None` when the optimistic broadcast already failed at begin time
    /// (finish goes straight to the serialized fallback).
    request: Option<u64>,
    generation: u64,
    /// Broadcast timestamp on the cluster clock.
    started: Duration,
}

impl<F: Scalar> std::fmt::Debug for SupervisedTicket<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SupervisedTicket")
            .field("request", &self.request)
            .field("generation", &self.generation)
            .finish_non_exhaustive()
    }
}

/// Supervisor-internal record for one physical device.
struct PhysicalDevice {
    unit_cost: f64,
    behavior: DeviceBehavior,
    state: DeviceState,
    consecutive_misses: u32,
    integrity_failures: u32,
    ewma_latency: Option<f64>,
}

/// Per-logical-device Freivalds check over its coded payload.
///
/// Key generation (`uᵀ·B_jT` via `Matrix::tr_matvec`) and the per-query
/// verification dots both ride the fused lazy-reduction kernels in
/// `scec-linalg`, so the check costs two amortized inner products.
struct DeviceCheck<F: Scalar> {
    key: IntegrityKey<F>,
    rows: Vec<usize>,
}

/// One installed generation of code + actors. Replaced wholesale by a
/// repair.
struct Topology<F: Scalar> {
    code: StragglerCode<F>,
    /// Transport to the generation's actors; index `j - 1` is logical
    /// device `j` of `code`. Owned by the topology (not the cluster) so
    /// a repair swaps the transport together with the code it serves.
    transport: Box<dyn Transport<F>>,
    /// Logical device `j` -> physical device id (`physical[j - 1]`).
    physical: Vec<usize>,
    checks: Vec<DeviceCheck<F>>,
    /// Bumped by every repair. A pipelined broadcast records the
    /// generation it was sent under; if a repair lands before the
    /// broadcast is collected, the responses can no longer be attributed
    /// (the actors were torn down) and the query falls back to a fresh
    /// serialized attempt.
    generation: u64,
}

/// Counters backing the fault fields of [`QueryStats`].
#[derive(Clone, Copy, Default)]
struct Counters {
    retries: usize,
    degraded: usize,
    repairs: usize,
    reallocations: usize,
}

enum AttemptError {
    /// The topology lost a device; repair, then retry.
    Repairable(Error),
    /// The deadline passed without structural damage; retry as-is.
    Timeout(Error),
    /// Not retryable.
    Fatal(Error),
}

struct AttemptOutcome<F> {
    value: Vector<F>,
    responders: Vec<usize>,
    degraded: bool,
}

/// Accumulated responses for one attempt.
struct AttemptState<F: Scalar> {
    /// Verified tagged rows collected so far.
    rows: Vec<TaggedResponse<F>>,
    /// Logical devices that passed verification, with arrival latency.
    responders: Vec<(usize, f64)>,
    /// Logical devices whose partial was rejected.
    rejected: Vec<usize>,
}

impl<F: Scalar> AttemptState<F> {
    fn new() -> Self {
        AttemptState {
            rows: Vec::new(),
            responders: Vec::new(),
            rejected: Vec::new(),
        }
    }

    /// Distinct devices heard from (verified or rejected).
    fn heard(&self) -> usize {
        self.responders.len() + self.rejected.len()
    }

    /// Absorbs one response; returns `(verified rows, devices heard)`.
    ///
    /// A device speaks once per attempt: a response from one already
    /// heard — verified or rejected — neither counts nor replaces
    /// anything, so a repeated partial cannot reach the quorum with rows
    /// the decoder would refuse as duplicates.
    fn absorb(
        &mut self,
        topo: &Topology<F>,
        x: &Vector<F>,
        clock: &dyn Clock,
        started: Duration,
        resp: FromDevice<F>,
    ) -> (usize, usize) {
        let device = resp.device();
        let heard =
            self.rejected.contains(&device) || self.responders.iter().any(|&(j, _)| j == device);
        match resp {
            _ if heard => {}
            FromDevice::TaggedPartial { responses, .. }
                if partial_verifies(topo, device, x, &responses) =>
            {
                self.rows.extend(responses);
                self.responders
                    .push((device, clock.now().saturating_sub(started).as_secs_f64()));
            }
            // Partials that do not verify, failures and protocol
            // violations are tolerated per-device: record and keep
            // collecting.
            _ => self.rejected.push(device),
        }
        (self.rows.len(), self.heard())
    }
}

/// Checks device `j`'s tagged partial against its Freivalds key: rows
/// must match the installed share exactly and the projected values must
/// satisfy `u^T C_j x == u^T w`.
fn partial_verifies<F: Scalar>(
    topo: &Topology<F>,
    j: usize,
    x: &Vector<F>,
    responses: &[TaggedResponse<F>],
) -> bool {
    let Some(check) = topo.checks.get(j.wrapping_sub(1)) else {
        return false;
    };
    let rows_match = responses.len() == check.rows.len()
        && responses
            .iter()
            .zip(&check.rows)
            .all(|(r, &row)| r.row == row);
    let values = responses.iter().map(|r| r.value);
    rows_match && matches!(check.key.verify_values(x, values), Ok(true))
}

/// The fault-tolerant supervised cluster. See the [module docs](self).
///
/// # Example
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use scec_linalg::{Fp61, Matrix, Vector};
/// use scec_runtime::{DeviceBehavior, SupervisedCluster, SupervisorConfig};
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let a = Matrix::<Fp61>::random(6, 4, &mut rng);
/// let costs = [1.0, 1.5, 2.0, 2.5, 3.0];
/// let behaviors = [DeviceBehavior::Honest; 5];
/// let cluster = SupervisedCluster::launch(
///     &a, &costs, &behaviors, SupervisorConfig::default(), &mut rng)?;
/// let x = Vector::<Fp61>::random(4, &mut rng);
/// assert_eq!(cluster.query(&x)?.value, a.matvec(&x)?);
/// cluster.shutdown();
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct SupervisedCluster<F: Scalar> {
    data: Matrix<F>,
    config: SupervisorConfig,
    topo: Mutex<Topology<F>>,
    mailbox: Mailbox<F>,
    /// Kept alive so `Mailbox::collect` never sees a disconnect, and
    /// cloned into every respawned actor.
    resp_tx: Sender<Vec<FromDevice<F>>>,
    next_request: AtomicU64,
    roster: Mutex<Vec<PhysicalDevice>>,
    events: Mutex<Vec<SupervisorEvent>>,
    latencies: Mutex<LatencyLog>,
    counters: Mutex<Counters>,
    rng: Mutex<StdRng>,
    clock: Arc<dyn Clock>,
    tel: crate::telemetry::Sink,
    encode_started: Duration,
    encode_dur: Duration,
    /// Telemetry-driven drift allocator; `None` runs the static plan.
    adaptive: Option<Mutex<AdaptiveAllocator>>,
    /// Tenant id under which queries mint distributed-tracing contexts;
    /// `None` keeps pre-tracing behavior byte-identical.
    trace_tenant: Option<u64>,
    /// `(request, generation)` of the most recent broadcast — the query
    /// tree that supervision events (retries, repairs, re-plans) are
    /// recorded as children of when tracing.
    last_trace: (AtomicU64, AtomicU64),
    /// Sibling qualifier for traced supervision events (deterministic
    /// under seeded replay: it advances only with emitted events).
    event_seq: AtomicU64,
}

impl<F: Scalar> SupervisedCluster<F> {
    /// Allocates (TA-1), encodes, and launches a supervised fleet.
    ///
    /// `unit_costs[j]` is physical device `j + 1`'s per-row cost;
    /// `behaviors` pads with [`DeviceBehavior::Honest`]. The allocation
    /// reserves at least [`SupervisorConfig::standbys`] devices as
    /// straggler standbys, so at least 3 devices are required.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidConfig`] for out-of-range config or costs;
    /// * [`Error::FleetExhausted`] with fewer than 3 devices;
    /// * allocation / coding failures, wrapped.
    pub fn launch<R: Rng + ?Sized>(
        data: &Matrix<F>,
        unit_costs: &[f64],
        behaviors: &[DeviceBehavior],
        config: SupervisorConfig,
        rng: &mut R,
    ) -> Result<Self> {
        Self::launch_clocked(data, unit_costs, behaviors, config, rng, default_clock())
    }

    /// Like [`launch`](Self::launch), on an explicit [`Clock`]. Under a
    /// [`SimClock`](crate::SimClock), attempt deadlines, retry backoffs,
    /// and device delays all advance on virtual time — backoff sleeps
    /// cost zero wall-clock time.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`launch`](Self::launch).
    pub fn launch_clocked<R: Rng + ?Sized>(
        data: &Matrix<F>,
        unit_costs: &[f64],
        behaviors: &[DeviceBehavior],
        config: SupervisorConfig,
        rng: &mut R,
        clock: Arc<dyn Clock>,
    ) -> Result<Self> {
        config.validate()?;
        if unit_costs.iter().any(|c| !c.is_finite() || *c <= 0.0) {
            return Err(Error::InvalidConfig {
                what: "unit costs must be positive and finite",
            });
        }
        let mut roster: Vec<PhysicalDevice> = unit_costs
            .iter()
            .enumerate()
            .map(|(idx, &unit_cost)| PhysicalDevice {
                unit_cost,
                behavior: behaviors.get(idx).copied().unwrap_or_default(),
                state: DeviceState::Healthy,
                consecutive_misses: 0,
                integrity_failures: 0,
                ewma_latency: None,
            })
            .collect();
        let (resp_tx, resp_rx) = channel();
        let mut srng = StdRng::seed_from_u64(rng.next_u64());
        let encode_started = clock.now();
        let (topo, _) = Self::build_topology(
            data,
            &mut roster,
            &config,
            &resp_tx,
            &mut srng,
            &clock,
            None,
        )?;
        let encode_dur = clock.now().saturating_sub(encode_started);
        Ok(SupervisedCluster {
            data: data.clone(),
            config,
            topo: Mutex::new(topo),
            mailbox: Mailbox::new(resp_rx),
            resp_tx,
            next_request: AtomicU64::new(1),
            roster: Mutex::new(roster),
            events: Mutex::new(Vec::new()),
            latencies: Mutex::new(LatencyLog::default()),
            counters: Mutex::new(Counters::default()),
            rng: Mutex::new(srng),
            clock,
            tel: crate::telemetry::Sink::none(),
            encode_started,
            encode_dur,
            adaptive: None,
            trace_tenant: None,
            last_trace: (AtomicU64::new(0), AtomicU64::new(0)),
            event_seq: AtomicU64::new(0),
        })
    }

    /// Enables distributed tracing for this cluster's queries under
    /// `tenant`: broadcasts derive a deterministic
    /// [`TraceContext`](scec_telemetry::TraceContext) from
    /// `(tenant, request, generation)` and stamp it on outgoing frames,
    /// Router-side spans carry matching ids, and retries, hot repairs,
    /// and adaptive re-plans are recorded as children of the query tree
    /// they interrupted. Composes with
    /// [`with_telemetry`](Self::with_telemetry) in either order.
    #[must_use]
    pub fn with_trace_tenant(mut self, tenant: u64) -> Self {
        self.trace_tenant = Some(tenant);
        self
    }

    /// Arms telemetry-driven adaptive allocation: after every completed
    /// query the supervisor folds its per-device latency EWMAs (and,
    /// when telemetry is attached, the cost accountant's
    /// observed-vs-predicted divergence) into per-device drift factors
    /// and feeds them to an [`AdaptiveAllocator`]. When the hysteresis
    /// trigger fires, TA-1 is re-run over the healthy fleet with
    /// drift-scaled unit costs and the winning plan is installed through
    /// the hot-repair re-encode path — in-flight pipelined queries
    /// detect the generation bump and fall back, exactly as for a fault
    /// repair.
    ///
    /// # Errors
    ///
    /// [`Error::Allocation`]-wrapped failures when the fleet or config
    /// is rejected by the allocator.
    pub fn with_adaptive(mut self, config: AdaptiveConfig) -> Result<Self> {
        let devices: Vec<(usize, f64)> = lock(&self.roster)
            .iter()
            .enumerate()
            .map(|(idx, d)| (idx + 1, d.unit_cost))
            .collect();
        let allocator = AdaptiveAllocator::new(self.data.nrows(), &devices, config)?;
        self.adaptive = Some(Mutex::new(allocator));
        Ok(self)
    }

    /// Attaches a telemetry handle: queries record spans, metrics, and
    /// observed costs, supervisor lifecycle events (suspicions,
    /// quarantines, deaths, retries, repairs) are mirrored into the
    /// trace, and the MCSCEC-predicted per-device cost of the active
    /// allocation is registered with the cost accountant — refreshed on
    /// every repair. The launch-time allocate+encode span is replayed
    /// into the tracer.
    #[must_use]
    pub fn with_telemetry(mut self, tel: Arc<scec_telemetry::Telemetry>) -> Self {
        tel.tracer.span(
            self.encode_started,
            self.encode_dur,
            scec_telemetry::Stage::Encode,
            None,
            None,
        );
        self.tel.attach(tel, "supervised");
        {
            let topo = lock(&self.topo);
            self.instrument_topology(&topo);
        }
        self
    }

    /// The clock this cluster runs on.
    pub(crate) fn clock_handle(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Sends the telemetry handle to every actor of `topo` (compute
    /// spans use *logical* device ids), registers the stored rows, and
    /// sets each enrolled physical device's predicted per-query cost
    /// from the active code and roster unit costs (paper Eq. 1 units:
    /// one coded row costs `(l+1)c_s + l·c_m + (l-1)c_a + c_d`; the
    /// accountant prices rows at the device's unit cost).
    fn instrument_topology(&self, topo: &Topology<F>) {
        self.tel.with(|s| {
            let roster = lock(&self.roster);
            let l = self.data.ncols() as u64;
            let esize = std::mem::size_of::<F>() as u64;
            for idx in 0..topo.transport.device_count() {
                let _ = topo
                    .transport
                    .send(idx, ToDevice::Instrument(Arc::clone(&s.tel)));
                let phys = topo.physical[idx];
                let rows = topo.checks[idx].rows.len() as u64;
                s.tel.costs.record_stored(phys, rows);
                // A tagged row ships the value plus its u64 tag.
                let per_query = predicted_per_query(rows, l, esize, 8);
                s.tel
                    .costs
                    .set_predicted(phys, roster[phys - 1].unit_cost, per_query);
                // Message framing is paid once per window (a plain query
                // is a width-1 window), not per query.
                let framing = predicted_per_window(scec_telemetry::MESSAGE_OVERHEAD_BYTES);
                s.tel.costs.set_predicted_window(phys, framing);
            }
        });
    }

    /// Mirrors supervisor events into the trace (as point events at the
    /// current clock time) and into a labelled event counter. When
    /// tracing, retries, repairs, and adaptive re-plans become children
    /// of the query tree whose broadcast they interrupted, so repair
    /// generations never orphan a causal chain.
    fn emit_events(&self, events: &[SupervisorEvent]) {
        self.tel.with(|s| {
            let at = self.clock.now();
            for ev in events {
                use scec_telemetry::context::kind;
                let (name, device, detail, span_kind) = match ev {
                    SupervisorEvent::Suspected { device, misses } => (
                        "supervisor.suspected",
                        Some(*device),
                        format!("misses={misses}"),
                        None,
                    ),
                    SupervisorEvent::Quarantined { device } => {
                        ("supervisor.quarantined", Some(*device), String::new(), None)
                    }
                    SupervisorEvent::Died { device } => {
                        ("supervisor.died", Some(*device), String::new(), None)
                    }
                    SupervisorEvent::Retried { attempt, backoff } => (
                        "supervisor.retried",
                        None,
                        format!("attempt={attempt} backoff={backoff:?}"),
                        Some(kind::RETRY),
                    ),
                    SupervisorEvent::Degraded { missing, rejected } => (
                        "supervisor.degraded",
                        None,
                        format!("missing={missing:?} rejected={rejected:?}"),
                        None,
                    ),
                    SupervisorEvent::Repaired {
                        enrolled,
                        random_rows,
                        redundancy,
                    } => (
                        "supervisor.repaired",
                        None,
                        format!(
                            "enrolled={enrolled:?} random_rows={random_rows} \
                             redundancy={redundancy}"
                        ),
                        Some(kind::REPAIR),
                    ),
                    SupervisorEvent::Reallocated {
                        enrolled,
                        spread_permille,
                    } => (
                        "supervisor.reallocated",
                        None,
                        format!("enrolled={enrolled:?} spread={spread_permille}"),
                        Some(kind::REPLAN),
                    ),
                };
                let last_request = self.last_trace.0.load(Ordering::Relaxed);
                let ids = span_kind.filter(|_| last_request != 0).and_then(|k| {
                    crate::telemetry::stage_ids(
                        self.trace_tenant,
                        last_request,
                        self.last_trace.1.load(Ordering::Relaxed),
                        k,
                        self.event_seq.fetch_add(1, Ordering::Relaxed),
                    )
                });
                match ids {
                    Some(ids) => s.tel.tracer.event_ctx(at, name, None, device, detail, ids),
                    None => s.tel.tracer.event(at, name, None, device, &detail),
                }
                s.tel
                    .registry
                    .counter("scec_supervisor_events_total", &[("event", name)])
                    .inc();
            }
        });
    }

    /// Allocates over the alive devices, encodes, spawns actors, installs
    /// shares, and generates per-device integrity keys. Returns the new
    /// topology and the enrolled physical ids (base first, then standby).
    fn build_topology(
        data: &Matrix<F>,
        roster: &mut [PhysicalDevice],
        config: &SupervisorConfig,
        resp_tx: &Sender<Vec<FromDevice<F>>>,
        rng: &mut StdRng,
        clock: &Arc<dyn Clock>,
        cost_scale: Option<&[f64]>,
    ) -> Result<(Topology<F>, Vec<usize>)> {
        let m = data.nrows();
        // Alive devices, cheapest first (ties broken by id for
        // determinism). An adaptive install scales each unit cost by the
        // device's observed drift factor, so TA-1 optimizes over
        // *effective* costs while the roster keeps the true ones.
        let mut alive: Vec<(usize, f64)> = roster
            .iter()
            .enumerate()
            .filter(|(_, d)| matches!(d.state, DeviceState::Healthy | DeviceState::Suspect))
            .map(|(idx, d)| {
                let scale = cost_scale.and_then(|s| s.get(idx)).copied().unwrap_or(1.0);
                (idx + 1, d.unit_cost * scale)
            })
            .collect();
        alive.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        let n = alive.len();
        if n < 3 {
            return Err(Error::FleetExhausted {
                alive: n,
                needed: 3,
            });
        }
        // TA-1 over the largest participant prefix that leaves at least
        // one alive device free to serve as a straggler standby. The
        // full-prefix optimum usually already does; if it enrolls every
        // device, shrinking the prefix by one forces a reserve.
        let mut chosen = None;
        for participants in (2..=n).rev() {
            let costs: Vec<f64> = alive[..participants].iter().map(|d| d.1).collect();
            let fleet = EdgeFleet::from_unit_costs(costs)?;
            let plan = ta::ta1(m, &fleet)?;
            if n - plan.device_count() >= 1 {
                chosen = Some((fleet, plan));
                break;
            }
        }
        let Some((fleet, plan)) = chosen else {
            return Err(Error::FleetExhausted {
                alive: n,
                needed: n + 1,
            });
        };
        let r = plan.random_rows();
        let base = CodeDesign::new(m, r)?;
        let i = base.device_count();
        let standbys = config.standbys.min(n - i);
        let code = StragglerCode::new(base, standbys * r, rng)?;
        // Map logical devices to physical ids: base device j sits at
        // sorted-fleet position j - 1; standbys are the cheapest alive
        // devices not already enrolled.
        let mut used = vec![false; n];
        let mut enrolled = Vec::with_capacity(code.device_count());
        for pos in 0..i {
            let alive_idx = fleet.device_id(pos);
            used[alive_idx] = true;
            enrolled.push(alive[alive_idx].0);
        }
        for (alive_idx, &(phys, _)) in alive.iter().enumerate() {
            if enrolled.len() == code.device_count() {
                break;
            }
            if !used[alive_idx] {
                used[alive_idx] = true;
                enrolled.push(phys);
            }
        }
        let shares = code.encode(data, rng)?.into_shares();
        let mut specs = Vec::with_capacity(code.device_count());
        let mut checks = Vec::with_capacity(code.device_count());
        for (idx, share) in shares.iter().enumerate() {
            specs.push((share.device(), roster[enrolled[idx] - 1].behavior));
            checks.push(DeviceCheck {
                key: IntegrityKey::generate(share.coded(), rng)?,
                rows: share.rows().to_vec(),
            });
        }
        let transport = ChannelTransport::spawn_onto(specs, clock, resp_tx);
        for (idx, share) in shares.into_iter().enumerate() {
            transport.send(idx, ToDevice::InstallTagged(Box::new(share)))?;
        }
        for &phys in &enrolled {
            roster[phys - 1].consecutive_misses = 0;
        }
        Ok((
            Topology {
                code,
                transport: Box::new(transport),
                physical: enrolled.clone(),
                checks,
                generation: 0,
            },
            enrolled,
        ))
    }

    /// Runs one supervised query: broadcast, collect *verified* rows
    /// until quorum, decode — retrying with backoff and repairing the
    /// fleet as needed.
    ///
    /// # Errors
    ///
    /// * [`Error::Timeout`] when the retry budget is exhausted;
    /// * [`Error::FleetExhausted`] when too few devices survive to
    ///   repair;
    /// * [`Error::Coding`] when decoding fails.
    pub fn query(&self, x: &Vector<F>) -> Result<SupervisedResult<F>> {
        let started = self.clock.now();
        let mut topo = lock(&self.topo);
        let mut attempts: u32 = 0;
        loop {
            attempts += 1;
            if self.needs_repair(&topo) {
                self.repair(&mut topo)?;
            }
            match self.attempt(&topo, x) {
                Ok(outcome) => {
                    let elapsed = self.clock.now().saturating_sub(started).as_secs_f64();
                    lock(&self.latencies).record(elapsed);
                    self.tel.with(|s| s.query_ok(elapsed));
                    if outcome.degraded {
                        lock(&self.counters).degraded += 1;
                    }
                    self.maybe_adapt(&mut topo);
                    return Ok(SupervisedResult {
                        value: outcome.value,
                        responders: outcome.responders,
                        attempts,
                        degraded: outcome.degraded,
                    });
                }
                Err(AttemptError::Fatal(e)) => {
                    self.tel.with(|s| s.query_err());
                    return Err(e);
                }
                Err(AttemptError::Repairable(e)) | Err(AttemptError::Timeout(e)) => {
                    if attempts > self.config.max_retries {
                        self.tel.with(|s| s.query_err());
                        return Err(e);
                    }
                    let backoff = self.backoff(attempts);
                    lock(&self.counters).retries += 1;
                    let ev = SupervisorEvent::Retried {
                        attempt: attempts,
                        backoff,
                    };
                    self.emit_events(std::slice::from_ref(&ev));
                    lock(&self.events).push(ev);
                    self.clock.sleep(backoff);
                }
            }
        }
    }

    /// Optimistically broadcasts `x` against the current topology
    /// (repairing first if a device already left the alive set) and
    /// returns a [`SupervisedTicket`] without waiting for responses.
    ///
    /// The broadcast is with the devices before this returns, so they
    /// start computing immediately, and
    /// [`finish_query`](Self::finish_query) later collects, verifies,
    /// and decodes. (The pipeline engines go through
    /// [`PipelinedQuery::begin`](crate::PipelinedQuery::begin) instead,
    /// which may leave it queued in the transport until the pipeline
    /// next waits, so a window of queries is one hand-off per device.)
    /// If the in-flight attempt cannot be completed — a retryable
    /// failure, or a repair replaced the topology generation under the
    /// request — finish falls back to a fresh serialized
    /// [`query`](Self::query), so pipelined submission never weakens the
    /// fault-tolerance guarantees.
    ///
    /// # Errors
    ///
    /// Repair failures at begin time (e.g. [`Error::FleetExhausted`]).
    pub fn begin_query(&self, x: &Vector<F>) -> Result<SupervisedTicket<F>> {
        self.begin(x, true)
    }

    /// [`begin_query`](Self::begin_query), with the broadcast flushed to
    /// the devices (`eager`) or left queued in the transport until the
    /// next collect, abandon, repair or shutdown.
    pub(crate) fn begin(&self, x: &Vector<F>, eager: bool) -> Result<SupervisedTicket<F>> {
        let started = self.clock.now();
        let mut topo = lock(&self.topo);
        if self.needs_repair(&topo) {
            self.repair(&mut topo)?;
        }
        // A broadcast failure is not fatal here: the ticket simply skips
        // the fast path and finish re-queries with retry + repair.
        let request = self.broadcast(&topo, x, eager).ok();
        Ok(SupervisedTicket {
            x: x.clone(),
            request,
            generation: topo.generation,
            started,
        })
    }

    /// Collects, verifies, and decodes an in-flight supervised query.
    ///
    /// The fast path completes the broadcast recorded in the ticket; if
    /// that attempt fails retryably or the topology was repaired since
    /// the broadcast (generation mismatch), the query is re-run through
    /// the serialized [`query`](Self::query) loop.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`query`](Self::query).
    pub fn finish_query(&self, ticket: SupervisedTicket<F>) -> Result<SupervisedResult<F>> {
        let mut spent_attempts = 0;
        if let Some(request) = ticket.request {
            let fast = {
                let topo = lock(&self.topo);
                if topo.generation == ticket.generation {
                    Some(self.complete(&topo, &ticket.x, request, ticket.started))
                } else {
                    // A repair tore down the actors this broadcast went
                    // to; its responses are unattributable.
                    self.mailbox.clear(request);
                    None
                }
            };
            match fast {
                Some(Ok(outcome)) => {
                    let elapsed = self
                        .clock
                        .now()
                        .saturating_sub(ticket.started)
                        .as_secs_f64();
                    lock(&self.latencies).record(elapsed);
                    self.tel.with(|s| s.query_ok(elapsed));
                    if outcome.degraded {
                        lock(&self.counters).degraded += 1;
                    }
                    return Ok(SupervisedResult {
                        value: outcome.value,
                        responders: outcome.responders,
                        attempts: 1,
                        degraded: outcome.degraded,
                    });
                }
                Some(Err(AttemptError::Fatal(e))) => {
                    self.tel.with(|s| s.query_err());
                    return Err(e);
                }
                Some(Err(AttemptError::Repairable(_) | AttemptError::Timeout(_))) => {
                    spent_attempts = 1;
                    lock(&self.counters).retries += 1;
                    let ev = SupervisorEvent::Retried {
                        attempt: 1,
                        backoff: Duration::ZERO,
                    };
                    self.emit_events(std::slice::from_ref(&ev));
                    lock(&self.events).push(ev);
                }
                None => {}
            }
        }
        self.query(&ticket.x).map(|mut r| {
            r.attempts += spent_attempts;
            r
        })
    }

    /// Drops an in-flight supervised query, discarding any responses
    /// already parked for it. Nothing stays queued past an abandon: a
    /// broadcast still sitting in the transport is sent all the same.
    pub fn abandon_query(&self, ticket: SupervisedTicket<F>) {
        let _ = lock(&self.topo).transport.flush();
        if let Some(request) = ticket.request {
            self.mailbox.clear(request);
        }
    }

    /// Serves an `l × k` query panel column by column through the full
    /// retry/repair machinery, returning the `m × k` result matrix with
    /// column `j` equal to `A x_j`.
    ///
    /// The supervised protocol deliberately does *not* batch a panel
    /// into one device round: per-column verification (each device's
    /// Freivalds key checks one `u_j^T C_j x` pair), health accounting,
    /// and retry against a possibly-repaired topology all operate on
    /// individual queries, and collapsing them into one round would
    /// weaken fault attribution to whole-panel granularity. Callers who
    /// want single-round panels should use the unsupervised clusters;
    /// this method exists so panel-oriented drivers can still run
    /// against a supervised fleet.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`query`](Self::query), surfaced from the
    /// first failing column.
    pub fn query_panel(&self, xs: &Matrix<F>) -> Result<Matrix<F>> {
        let mut out = Matrix::zeros(self.data.nrows(), xs.ncols());
        for j in 0..xs.ncols() {
            let y = self.query(&xs.col(j))?.value;
            for (i, &v) in y.as_slice().iter().enumerate() {
                out.set(i, j, v).map_err(scec_coding::Error::from)?;
            }
        }
        Ok(out)
    }

    /// One broadcast/collect/decode round against the current topology.
    fn attempt(
        &self,
        topo: &Topology<F>,
        x: &Vector<F>,
    ) -> std::result::Result<AttemptOutcome<F>, AttemptError> {
        let started = self.clock.now();
        // Queued: the collect flushes it before it parks.
        let request = self.broadcast(topo, x, false)?;
        self.complete(topo, x, request, started)
    }

    /// Books a transport failure against `topo`. A closed channel naming
    /// one of its actors means that thread is gone — a crash detected at
    /// the transport layer: the physical device is declared dead and the
    /// attempt is [`AttemptError::Repairable`]. Anything else is fatal.
    fn lost(&self, topo: &Topology<F>, e: Error) -> AttemptError {
        let closed = match e {
            Error::ChannelClosed { device: Some(j) } => topo.physical.get(j.wrapping_sub(1)),
            _ => None,
        };
        let Some(&device) = closed else {
            return AttemptError::Fatal(e);
        };
        let was = std::mem::replace(&mut lock(&self.roster)[device - 1].state, DeviceState::Dead);
        if was != DeviceState::Dead {
            let ev = SupervisorEvent::Died { device };
            self.emit_events(std::slice::from_ref(&ev));
            lock(&self.events).push(ev);
        }
        AttemptError::Repairable(Error::ChannelClosed {
            device: Some(device),
        })
    }

    /// Hands `x` (one `Arc`-shared copy across the fan-out) to the
    /// transport for every actor of `topo` and returns the request id.
    /// An `eager` broadcast is flushed to the actors before this
    /// returns; otherwise it may stay queued until the next collect.
    /// A hand-off that finds an actor gone is [`lost`](Self::lost).
    fn broadcast(
        &self,
        topo: &Topology<F>,
        x: &Vector<F>,
        eager: bool,
    ) -> std::result::Result<u64, AttemptError> {
        let request = self.next_request.fetch_add(1, Ordering::Relaxed);
        self.mailbox.open(request);
        let dispatch_started = self.tel.now(&self.clock);
        let trace = crate::telemetry::dispatch_trace(self.trace_tenant, request, topo.generation);
        let ctx = trace.map(|(_, ctx)| ctx);
        self.last_trace.0.store(request, Ordering::Relaxed);
        self.last_trace.1.store(topo.generation, Ordering::Relaxed);
        let shared = Arc::new(x.clone());
        let query = || ToDevice::Query {
            request,
            x: Arc::clone(&shared),
            ctx,
        };
        let mut handed = (0..topo.transport.device_count())
            .try_for_each(|idx| topo.transport.send(idx, query()));
        if eager {
            handed = handed.and_then(|()| topo.transport.flush());
        }
        if let Err(e) = handed {
            self.mailbox.clear(request);
            return Err(self.lost(topo, e));
        }
        self.tel.with(|s| {
            let bytes = message_bytes(
                topo.transport.counts_wire_bytes(),
                (shared.len() * std::mem::size_of::<F>()) as u64,
            );
            // Every broadcast is one priced attempt: the divergence
            // denominator scales with attempts, not completed queries,
            // so honest retries do not read as cost drift.
            s.tel.costs.record_attempt();
            s.tel
                .costs
                .record_broadcast(topo.physical.iter().copied(), bytes);
            s.span_ids(
                dispatch_started,
                self.clock.now(),
                scec_telemetry::Stage::Dispatch,
                request,
                trace.map(|(ids, _)| ids),
            );
        });
        Ok(request)
    }

    /// Collects, verifies, health-accounts, and decodes the responses to
    /// an already-broadcast `request` against the topology it was sent
    /// under.
    fn complete(
        &self,
        topo: &Topology<F>,
        x: &Vector<F>,
        request: u64,
        started: Duration,
    ) -> std::result::Result<AttemptOutcome<F>, AttemptError> {
        let mut events = Vec::new();
        let collect_started = self.tel.now(&self.clock);
        // Collect until `m + r` *verified* rows; unverifiable partials
        // are rejected without counting toward the quorum.
        let needed = topo.code.rows_needed();
        let mut state = AttemptState::new();
        let collect = self.mailbox.collect(
            &*topo.transport,
            &*self.clock,
            request,
            self.config.deadline,
            needed,
            |resp| Ok(state.absorb(topo, x, &*self.clock, started, resp).0),
        );
        if collect.is_ok() && state.heard() < topo.transport.device_count() {
            // Quorum is met; give the remaining enrolled devices a short
            // grace window (their responses are usually already queued)
            // so slow-but-honest devices are credited instead of
            // accruing misses. Extra verified rows also join the decode.
            let grace = self.mailbox.collect(
                &*topo.transport,
                &*self.clock,
                request,
                self.config.quorum_grace,
                topo.transport.device_count(),
                |resp| Ok(state.absorb(topo, x, &*self.clock, started, resp).1),
            );
            // Running out of grace is the ordinary way out. A flush that
            // found an actor gone was handing over *later* broadcasts:
            // this request has its quorum, so the death is booked and
            // the next begin repairs.
            if let Err(e @ Error::ChannelClosed { .. }) = grace {
                let _ = self.lost(topo, e);
            }
        }
        self.mailbox.clear(request);
        let timed_out = match collect {
            Ok(()) => None,
            Err(e @ Error::Timeout { .. }) => Some(e),
            // No verdict on any device's answer — the flush found an
            // actor gone, or the channel itself failed — so no health
            // accounting either.
            Err(e) => return Err(self.lost(topo, e)),
        };
        let AttemptState {
            rows,
            responders,
            rejected,
        } = state;

        // Observed traffic and compute for every *verified* responder (a
        // verified partial carries exactly the device's installed rows).
        self.tel.with(|s| {
            s.span_ids(
                collect_started,
                self.clock.now(),
                scec_telemetry::Stage::Collect,
                request,
                crate::telemetry::stage_ids(
                    self.trace_tenant,
                    request,
                    topo.generation,
                    scec_telemetry::context::kind::COLLECT,
                    0,
                ),
            );
            let l = self.data.ncols() as u64;
            let esize = std::mem::size_of::<F>() as u64;
            let wire = topo.transport.counts_wire_bytes();
            for &(j, _) in &responders {
                let phys = topo.physical[j - 1];
                let device_rows = topo.checks[j - 1].rows.len() as u64;
                s.tel.costs.record_served(
                    phys,
                    message_bytes(wire, device_rows * (esize + 8)),
                    device_rows,
                    device_rows * l,
                    device_rows * l.saturating_sub(1),
                );
            }
        });

        // Health accounting for this attempt.
        let mut newly_excluded = false;
        let rejected_phys: Vec<usize> = rejected.iter().map(|&j| topo.physical[j - 1]).collect();
        let mut missing_phys = Vec::new();
        {
            let mut roster = lock(&self.roster);
            for &phys in &rejected_phys {
                let h = &mut roster[phys - 1];
                h.integrity_failures += 1;
                if h.state != DeviceState::Quarantined {
                    h.state = DeviceState::Quarantined;
                    newly_excluded = true;
                    events.push(SupervisorEvent::Quarantined { device: phys });
                }
            }
            for &(j, secs) in &responders {
                let h = &mut roster[topo.physical[j - 1] - 1];
                h.consecutive_misses = 0;
                if h.state == DeviceState::Suspect {
                    h.state = DeviceState::Healthy;
                }
                h.ewma_latency = Some(match h.ewma_latency {
                    Some(prev) => {
                        (1.0 - self.config.ewma_alpha) * prev + self.config.ewma_alpha * secs
                    }
                    None => secs,
                });
            }
            let heard: HashSet<usize> = responders
                .iter()
                .map(|&(j, _)| j)
                .chain(rejected.iter().copied())
                .collect();
            for (idx, &phys) in topo.physical.iter().enumerate() {
                if heard.contains(&(idx + 1)) {
                    continue;
                }
                missing_phys.push(phys);
                let h = &mut roster[phys - 1];
                h.consecutive_misses += 1;
                if h.state == DeviceState::Healthy
                    && h.consecutive_misses >= self.config.suspect_after
                {
                    h.state = DeviceState::Suspect;
                    events.push(SupervisorEvent::Suspected {
                        device: phys,
                        misses: h.consecutive_misses,
                    });
                }
                if h.state == DeviceState::Suspect
                    && h.consecutive_misses >= self.config.evict_after
                {
                    h.state = DeviceState::Dead;
                    newly_excluded = true;
                    events.push(SupervisorEvent::Died { device: phys });
                }
            }
        }

        match timed_out {
            None => {
                let degraded = !missing_phys.is_empty() || !rejected_phys.is_empty();
                if degraded {
                    events.push(SupervisorEvent::Degraded {
                        missing: missing_phys,
                        rejected: rejected_phys,
                    });
                }
                self.emit_events(&events);
                lock(&self.events).extend(events);
                let decode_started = self.tel.now(&self.clock);
                let value = topo
                    .code
                    .decode(&rows)
                    .map_err(|e| AttemptError::Fatal(e.into()))?;
                self.tel.with(|s| {
                    s.span_ids(
                        decode_started,
                        self.clock.now(),
                        scec_telemetry::Stage::Decode,
                        request,
                        crate::telemetry::stage_ids(
                            self.trace_tenant,
                            request,
                            topo.generation,
                            scec_telemetry::context::kind::DECODE,
                            0,
                        ),
                    );
                });
                Ok(AttemptOutcome {
                    value,
                    responders: responders
                        .iter()
                        .map(|&(j, _)| topo.physical[j - 1])
                        .collect(),
                    degraded,
                })
            }
            Some(e) => {
                self.emit_events(&events);
                lock(&self.events).extend(events);
                if newly_excluded {
                    Err(AttemptError::Repairable(e))
                } else {
                    Err(AttemptError::Timeout(e))
                }
            }
        }
    }

    /// True when an enrolled device has left the alive set, so the next
    /// query must re-allocate first.
    fn needs_repair(&self, topo: &Topology<F>) -> bool {
        let roster = lock(&self.roster);
        topo.physical.iter().any(|&phys| {
            !matches!(
                roster[phys - 1].state,
                DeviceState::Healthy | DeviceState::Suspect
            )
        })
    }

    /// Tears down the current actors and rebuilds the topology over the
    /// surviving fleet: TA-1 re-allocation, fresh straggler code,
    /// re-encode, hot-install. The adaptive allocator (if armed) is told
    /// about the externally-imposed plan change so its hysteresis state
    /// restarts from the new plan instead of firing on stale factors.
    fn repair(&self, topo: &mut Topology<F>) -> Result<()> {
        self.repair_scaled(topo, None)?;
        if let Some(adaptive) = &self.adaptive {
            lock(adaptive).note_external_change();
        }
        Ok(())
    }

    /// [`repair`](Self::repair) with optional per-device effective-cost
    /// scaling — the shared hot-install path for fault repairs
    /// (`cost_scale = None`) and adaptive reallocations.
    fn repair_scaled(&self, topo: &mut Topology<F>, cost_scale: Option<&[f64]>) -> Result<()> {
        topo.transport.shutdown();
        // Old-generation responses can no longer be attributed.
        self.mailbox.clear_all();
        let encode_started = self.tel.now(&self.clock);
        let (mut new_topo, enrolled) = {
            let mut roster = lock(&self.roster);
            let mut rng = lock(&self.rng);
            Self::build_topology(
                &self.data,
                &mut roster,
                &self.config,
                &self.resp_tx,
                &mut rng,
                &self.clock,
                cost_scale,
            )?
        };
        new_topo.generation = topo.generation.wrapping_add(1);
        let random_rows = new_topo.code.rows_needed() - self.data.nrows();
        let redundancy = new_topo.code.redundancy();
        *topo = new_topo;
        self.tel.with(|s| {
            s.tel.tracer.span(
                encode_started,
                self.clock.now().saturating_sub(encode_started),
                scec_telemetry::Stage::Encode,
                None,
                None,
            );
        });
        // The repaired allocation changes each device's predicted cost
        // and the actors are fresh threads: re-instrument.
        self.instrument_topology(topo);
        // Adaptive installs are booked by the caller (as Reallocated,
        // with the triggering spread); only fault repairs count here.
        if cost_scale.is_none() {
            lock(&self.counters).repairs += 1;
            let ev = SupervisorEvent::Repaired {
                enrolled,
                random_rows,
                redundancy,
            };
            self.emit_events(std::slice::from_ref(&ev));
            lock(&self.events).push(ev);
        }
        Ok(())
    }

    /// One adaptive observation tick, run after every completed query:
    /// folds the supervisor's per-device latency EWMAs — and, when
    /// telemetry is attached, each device's observed-vs-predicted cost
    /// divergence — into drift factors, feeds them to the allocator, and
    /// on a `Reallocated` verdict re-runs TA-1 over drift-scaled costs
    /// and hot-installs the winner.
    ///
    /// Factors are *relative to the fastest sampled healthy device* (the
    /// allocator's spread is scale-free) and flattened to 1.0 inside the
    /// dead band, so scheduler jitter on a uniform fleet never crosses
    /// the trigger: a static fleet keeps its offline TA-1 plan verbatim.
    /// A failed install (e.g. the healthy fleet shrank below the code's
    /// needs mid-observation) leaves the old topology serving and defers
    /// to the fault-repair machinery rather than failing the query that
    /// just completed.
    fn maybe_adapt(&self, topo: &mut Topology<F>) {
        let Some(adaptive) = &self.adaptive else {
            return;
        };
        let (samples, factors) = {
            let roster = lock(&self.roster);
            let reference = roster
                .iter()
                .filter(|d| matches!(d.state, DeviceState::Healthy | DeviceState::Suspect))
                .filter_map(|d| d.ewma_latency)
                .fold(f64::INFINITY, f64::min);
            if !reference.is_finite() || reference <= 0.0 {
                return;
            }
            let mut factors = vec![1.0f64; roster.len()];
            let samples: Vec<DriftSample> = roster
                .iter()
                .enumerate()
                .map(|(idx, d)| {
                    let healthy = matches!(d.state, DeviceState::Healthy | DeviceState::Suspect);
                    let mut factor = match d.ewma_latency {
                        Some(e) => {
                            let f = e / reference;
                            if f < ADAPTIVE_DEAD_BAND {
                                1.0
                            } else {
                                f
                            }
                        }
                        // No sample carries no drift evidence: the
                        // allocator keeps the device's previous factor.
                        None => f64::NAN,
                    };
                    // A device consuming far more rows than the plan
                    // priced is drifting even at healthy latency.
                    self.tel.with(|s| {
                        let div = s.tel.costs.device_divergence_permille(idx + 1) as f64 / 1_000.0;
                        // NaN (no latency sample) is replaced too: the
                        // ledger is then the only drift evidence.
                        if div >= ADAPTIVE_DEAD_BAND && (factor.is_nan() || factor < div) {
                            factor = div;
                        }
                    });
                    if factor.is_finite() {
                        factors[idx] = factor;
                    }
                    DriftSample {
                        device: idx + 1,
                        factor,
                        healthy,
                    }
                })
                .collect();
            (samples, factors)
        };
        let verdict = lock(adaptive).observe(&samples);
        let spread_permille = match verdict {
            Ok(Verdict::Reallocated {
                spread_permille, ..
            }) => spread_permille,
            // An allocator error here means the healthy fleet cannot
            // staff any plan; the fault path owns exhaustion.
            Ok(Verdict::Hold { .. }) | Err(_) => return,
        };
        if self.repair_scaled(topo, Some(&factors)).is_err() {
            lock(adaptive).note_external_change();
            return;
        }
        lock(&self.counters).reallocations += 1;
        let ev = SupervisorEvent::Reallocated {
            enrolled: topo.physical.clone(),
            spread_permille,
        };
        self.emit_events(std::slice::from_ref(&ev));
        lock(&self.events).push(ev);
    }

    /// Per-retry backoff: `base * 2^(attempt-1)`, scaled by a uniform
    /// jitter factor in `[1, 1 + jitter]`.
    fn backoff(&self, attempt: u32) -> Duration {
        let doublings = attempt.saturating_sub(1).min(16);
        let exp = self.config.backoff_base.as_secs_f64() * f64::from(1u32 << doublings);
        let jitter = 1.0 + self.config.backoff_jitter * lock(&self.rng).gen_range(0.0..1.0);
        Duration::from_secs_f64(exp * jitter)
    }

    /// Devices enrolled in the current topology (physical ids, base
    /// devices first, then standbys).
    pub fn enrolled_devices(&self) -> Vec<usize> {
        lock(&self.topo).physical.clone()
    }

    /// Number of actors in the current topology (base + standby).
    pub fn device_count(&self) -> usize {
        lock(&self.topo).transport.device_count()
    }

    /// Health snapshot for every physical device.
    pub fn health(&self) -> Vec<DeviceHealth> {
        let topo = lock(&self.topo);
        let roster = lock(&self.roster);
        roster
            .iter()
            .enumerate()
            .map(|(idx, d)| DeviceHealth {
                device: idx + 1,
                unit_cost: d.unit_cost,
                state: d.state,
                consecutive_misses: d.consecutive_misses,
                integrity_failures: d.integrity_failures,
                ewma_latency: d.ewma_latency,
                enrolled: topo.physical.contains(&(idx + 1)),
            })
            .collect()
    }

    /// Supervision events so far, in occurrence order.
    pub fn events(&self) -> Vec<SupervisorEvent> {
        lock(&self.events).clone()
    }

    /// Latency statistics plus the fault counters (retries, degraded
    /// quorums, quarantined/dead devices, repairs).
    pub fn stats(&self) -> QueryStats {
        let counters = *lock(&self.counters);
        let quarantined = lock(&self.roster)
            .iter()
            .filter(|d| matches!(d.state, DeviceState::Quarantined | DeviceState::Dead))
            .count();
        let mut stats = QueryStats {
            retries: counters.retries,
            degraded: counters.degraded,
            repairs: counters.repairs,
            reallocations: counters.reallocations,
            quarantined,
            ..QueryStats::default()
        };
        lock(&self.latencies).fill_stats(&mut stats);
        stats
    }

    /// Shuts down every device thread and joins them.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        let topo = self.topo.get_mut().unwrap_or_else(|e| e.into_inner());
        topo.transport.shutdown();
    }
}

impl<F: Scalar> std::fmt::Debug for SupervisedCluster<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SupervisedCluster")
            .field("data_rows", &self.data.nrows())
            .field("config", &self.config)
            .field("devices", &lock(&self.roster).len())
            .finish_non_exhaustive()
    }
}

impl<F: Scalar> Drop for SupervisedCluster<F> {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scec_linalg::Fp61;

    const COSTS: [f64; 5] = [1.0, 1.2, 1.5, 2.0, 3.0];

    fn fast_config() -> SupervisorConfig {
        SupervisorConfig::default()
            .with_deadline(Duration::from_millis(500))
            .with_backoff(Duration::from_millis(2), 0.5)
    }

    fn launch(
        seed: u64,
        behaviors: &[DeviceBehavior],
        config: SupervisorConfig,
    ) -> (Matrix<Fp61>, SupervisedCluster<Fp61>, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::<Fp61>::random(6, 4, &mut rng);
        let cluster = SupervisedCluster::launch(&a, &COSTS, behaviors, config, &mut rng).unwrap();
        (a, cluster, rng)
    }

    #[test]
    fn healthy_fleet_serves_queries() {
        let (a, cluster, mut rng) = launch(1, &[], fast_config());
        for _ in 0..4 {
            let x = Vector::<Fp61>::random(4, &mut rng);
            let result = cluster.query(&x).unwrap();
            assert_eq!(result.value, a.matvec(&x).unwrap());
            assert_eq!(result.attempts, 1);
        }
        let stats = cluster.stats();
        assert_eq!(stats.count, 4);
        assert_eq!(stats.repairs, 0);
        assert_eq!(stats.quarantined, 0);
        assert!(cluster
            .health()
            .iter()
            .all(|h| h.state != DeviceState::Dead));
        cluster.shutdown();
    }

    #[test]
    fn crashed_device_is_detected_and_repaired() {
        // Physical device 1 (cheapest => base device) serves two queries
        // and then crashes its actor thread.
        let behaviors = [DeviceBehavior::Crash { after_queries: 2 }];
        let (a, cluster, mut rng) = launch(2, &behaviors, fast_config());
        for _ in 0..8 {
            let x = Vector::<Fp61>::random(4, &mut rng);
            assert_eq!(cluster.query(&x).unwrap().value, a.matvec(&x).unwrap());
        }
        let health = cluster.health();
        assert_eq!(health[0].state, DeviceState::Dead);
        assert!(!health[0].enrolled);
        let stats = cluster.stats();
        assert_eq!(stats.count, 8);
        assert!(stats.repairs >= 1, "expected a repair, {stats:?}");
        assert!(cluster
            .events()
            .iter()
            .any(|e| matches!(e, SupervisorEvent::Died { device: 1 })));
        assert!(cluster
            .events()
            .iter()
            .any(|e| matches!(e, SupervisorEvent::Repaired { .. })));
        // The repaired topology no longer includes device 1.
        assert!(!cluster.enrolled_devices().contains(&1));
    }

    #[test]
    fn omitting_device_degrades_then_is_evicted() {
        let behaviors = [DeviceBehavior::Omit];
        let config = fast_config().with_thresholds(1, 2);
        let (a, cluster, mut rng) = launch(3, &behaviors, config);
        // Query 1: device 1 omits, quorum degrades, miss #1 => Suspect.
        let x = Vector::<Fp61>::random(4, &mut rng);
        let result = cluster.query(&x).unwrap();
        assert_eq!(result.value, a.matvec(&x).unwrap());
        assert!(result.degraded);
        assert!(!result.responders.contains(&1));
        assert_eq!(cluster.health()[0].state, DeviceState::Suspect);
        // Query 2: miss #2 => Dead.
        let x = Vector::<Fp61>::random(4, &mut rng);
        assert_eq!(cluster.query(&x).unwrap().value, a.matvec(&x).unwrap());
        assert_eq!(cluster.health()[0].state, DeviceState::Dead);
        // Query 3 repairs first, then completes at full strength.
        let x = Vector::<Fp61>::random(4, &mut rng);
        let result = cluster.query(&x).unwrap();
        assert_eq!(result.value, a.matvec(&x).unwrap());
        assert!(!result.degraded);
        assert_eq!(cluster.stats().repairs, 1);
        assert!(cluster
            .events()
            .iter()
            .any(|e| matches!(e, SupervisorEvent::Suspected { device: 1, .. })));
    }

    #[test]
    fn byzantine_device_is_quarantined_and_result_stays_correct() {
        let behaviors = [DeviceBehavior::Byzantine];
        let (a, cluster, mut rng) = launch(4, &behaviors, fast_config());
        // The corrupted partial is rejected by the per-device Freivalds
        // check, so the decoded value is correct even on the first query.
        let x = Vector::<Fp61>::random(4, &mut rng);
        let result = cluster.query(&x).unwrap();
        assert_eq!(result.value, a.matvec(&x).unwrap());
        assert!(result.degraded);
        let health = cluster.health();
        assert_eq!(health[0].state, DeviceState::Quarantined);
        assert!(health[0].integrity_failures >= 1);
        assert!(cluster
            .events()
            .iter()
            .any(|e| matches!(e, SupervisorEvent::Quarantined { device: 1 })));
        // Next query repairs around the quarantined device.
        let x = Vector::<Fp61>::random(4, &mut rng);
        let result = cluster.query(&x).unwrap();
        assert_eq!(result.value, a.matvec(&x).unwrap());
        assert!(!result.degraded);
        assert!(!cluster.enrolled_devices().contains(&1));
        assert_eq!(cluster.stats().quarantined, 1);
    }

    #[test]
    fn a_device_already_heard_neither_counts_nor_replaces() {
        let (a, cluster, mut rng) = launch(11, &[], fast_config());
        let x = Vector::<Fp61>::random(4, &mut rng);
        let topo = lock(&cluster.topo);
        let (clock, patience) = (&*cluster.clock, cluster.config.deadline);
        // Every actor's genuine partial, by way of a real broadcast.
        let request = cluster.broadcast(&topo, &x, true).ok().expect("broadcast");
        let mut genuine = Vec::new();
        let everyone = topo.transport.device_count();
        let keep = |resp| {
            genuine.push(resp);
            Ok(genuine.len())
        };
        cluster
            .mailbox
            .collect(&*topo.transport, clock, request, patience, everyone, keep)
            .unwrap();
        genuine.sort_by_key(FromDevice::device);
        let first = genuine[0].clone();
        let first_rows = topo.checks[0].rows.len();

        // Straight into `absorb`: the second copy moves nothing.
        let mut state = AttemptState::new();
        let absorb = |state: &mut AttemptState<Fp61>, resp: &FromDevice<Fp61>| {
            state.absorb(&topo, &x, clock, Duration::ZERO, resp.clone())
        };
        assert_eq!(absorb(&mut state, &first), (first_rows, 1));
        assert_eq!(absorb(&mut state, &first), (first_rows, 1));
        // Nor does a rejected device get a second hearing, even for a
        // partial that would have verified.
        let mut forged = genuine[1].clone();
        crate::device::corrupt(&mut forged);
        assert_eq!(absorb(&mut state, &forged), (first_rows, 2));
        assert_eq!(absorb(&mut state, &forged), (first_rows, 2));
        assert_eq!(absorb(&mut state, &genuine[1]), (first_rows, 2));
        assert_eq!((state.responders.len(), state.rejected.len()), (1, 1));

        // Through the mailbox (the request is still open): twice inside
        // one batch, once more in a batch of its own, then the others.
        // The quorum waits for rows that decode.
        cluster
            .resp_tx
            .send(vec![first.clone(), first.clone()])
            .unwrap();
        cluster.resp_tx.send(vec![first]).unwrap();
        cluster.resp_tx.send(genuine[1..].to_vec()).unwrap();
        let mut state = AttemptState::new();
        let needed = topo.code.rows_needed();
        let rows = |resp: FromDevice<Fp61>| Ok(absorb(&mut state, &resp).0);
        cluster
            .mailbox
            .collect(&*topo.transport, clock, request, patience, needed, rows)
            .unwrap();
        cluster.mailbox.clear(request);
        let mut responders: Vec<usize> = state.responders.iter().map(|&(j, _)| j).collect();
        responders.dedup();
        assert_eq!(responders.len(), state.responders.len(), "{responders:?}");
        assert_eq!(
            topo.code.decode(&state.rows).unwrap(),
            a.matvec(&x).unwrap()
        );
    }

    #[test]
    fn a_byzantine_device_in_a_window_is_quarantined_on_its_first_answer() {
        // A grace this long costs nothing when every device answers, and
        // makes sure the forged partial is heard by the first finish.
        let config = fast_config().with_quorum_grace(Duration::from_secs(10));
        let (a, cluster, mut rng) = launch(12, &[DeviceBehavior::Byzantine], config);
        let queries: Vec<Vector<Fp61>> = (0..16).map(|_| Vector::random(4, &mut rng)).collect();
        let mut pipeline = crate::QueryPipeline::new(&cluster, queries.len()).unwrap();
        for x in &queries {
            assert!(pipeline.submit(x).unwrap().is_none());
        }
        // The window reached each device as one batch and every answer
        // device 1 gave to it is forged; the first finish meets the first.
        let first = pipeline.poll().unwrap().expect("the first result");
        assert_eq!(first.value, a.matvec(&queries[0]).unwrap());
        assert!(first.degraded);
        let health = &cluster.health()[0];
        assert_eq!(health.state, DeviceState::Quarantined);
        assert_eq!(health.integrity_failures, 1);
        let rest = pipeline.collect().unwrap();
        for (x, y) in queries[1..].iter().zip(&rest) {
            assert_eq!(y.value, a.matvec(x).unwrap());
        }
        assert_eq!(cluster.health()[0].integrity_failures, 16);
        let quarantines = cluster
            .events()
            .into_iter()
            .filter(|e| matches!(e, SupervisorEvent::Quarantined { device: 1 }));
        assert_eq!(quarantines.count(), 1);
    }

    #[test]
    fn a_crash_inside_a_window_is_found_by_the_next_hand_off() {
        // Device 1 serves five queries of the first window and exits.
        // Misses only ever make it suspect here, so it is the next
        // window's hand-off, inside a finish, that finds the thread gone.
        let behaviors = [DeviceBehavior::Crash { after_queries: 5 }];
        let config = fast_config().with_thresholds(1, 200);
        let (a, cluster, mut rng) = launch(13, &behaviors, config);
        let queries: Vec<Vector<Fp61>> = (0..40).map(|_| Vector::random(4, &mut rng)).collect();
        let results = crate::QueryPipeline::run(&cluster, 16, &queries).unwrap();
        for (x, y) in queries.iter().zip(&results) {
            assert_eq!(y.value, a.matvec(x).unwrap());
        }
        assert_eq!(cluster.health()[0].state, DeviceState::Dead);
        assert!(!cluster.enrolled_devices().contains(&1));
        let events = cluster.events();
        let died = SupervisorEvent::Died { device: 1 };
        assert_eq!(events.iter().filter(|e| **e == died).count(), 1);
        let stats = cluster.stats();
        assert_eq!((stats.count, stats.repairs), (40, 1), "{stats:?}");
    }

    #[test]
    fn an_eager_begin_and_an_abandon_hand_the_broadcast_to_the_devices() {
        // Every actor sleeps 1 ms of virtual time per query it is handed,
        // and nothing else moves this clock: its reading counts hand-offs.
        let mut rng = StdRng::seed_from_u64(14);
        let a = Matrix::<Fp61>::random(6, 4, &mut rng);
        let tick = Duration::from_millis(1);
        let behaviors = [DeviceBehavior::Delayed(tick); 5];
        let clock = Arc::new(crate::SimClock::manual());
        let cluster = SupervisedCluster::launch_clocked(
            &a,
            &COSTS,
            &behaviors,
            fast_config(),
            &mut rng,
            Arc::clone(&clock) as Arc<dyn Clock>,
        )
        .unwrap();
        let devices = cluster.device_count() as u32;
        let served = |queries: u32| {
            let patience = std::time::Instant::now() + Duration::from_secs(30);
            while clock.now() < tick * devices * queries {
                assert!(std::time::Instant::now() < patience, "never handed over");
                std::thread::yield_now();
            }
        };
        let x = Vector::<Fp61>::random(4, &mut rng);
        // Nothing else touches the cluster: only an eager begin gets the
        // query to the actors.
        let eager = cluster.begin_query(&x).unwrap();
        served(1);
        let queued: Vec<_> = (0..3).map(|_| cluster.begin(&x, false).unwrap()).collect();
        for ticket in queued {
            cluster.abandon_query(ticket);
        }
        served(4);
        cluster.abandon_query(eager);
        assert_eq!(clock.now(), tick * devices * 4);
    }

    #[test]
    fn flaky_device_never_corrupts_results() {
        let behaviors = [DeviceBehavior::flaky(0.6)];
        let (a, cluster, mut rng) = launch(5, &behaviors, fast_config().with_thresholds(2, 200));
        for _ in 0..10 {
            let x = Vector::<Fp61>::random(4, &mut rng);
            assert_eq!(cluster.query(&x).unwrap().value, a.matvec(&x).unwrap());
        }
        assert_eq!(cluster.stats().count, 10);
    }

    #[test]
    fn fleet_exhaustion_is_reported() {
        let mut rng = StdRng::seed_from_u64(6);
        let a = Matrix::<Fp61>::random(4, 3, &mut rng);
        let err =
            SupervisedCluster::launch(&a, &[1.0, 2.0], &[], SupervisorConfig::default(), &mut rng)
                .unwrap_err();
        assert!(matches!(
            err,
            Error::FleetExhausted {
                alive: 2,
                needed: 3
            }
        ));
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = Matrix::<Fp61>::random(4, 3, &mut rng);
        for bad in [
            SupervisorConfig::default().with_deadline(Duration::ZERO),
            SupervisorConfig::default().with_backoff(Duration::from_millis(1), 2.0),
            SupervisorConfig::default().with_ewma_alpha(0.0),
            SupervisorConfig::default().with_thresholds(3, 2),
            SupervisorConfig::default().with_standbys(0),
        ] {
            let err =
                SupervisedCluster::launch(&a, &[1.0, 2.0, 3.0], &[], bad, &mut rng).unwrap_err();
            assert!(matches!(err, Error::InvalidConfig { .. }), "{bad:?}");
        }
    }

    #[test]
    fn retry_budget_exhausts_on_virtual_time() {
        // Every device omits, so each attempt times out on the *virtual*
        // deadline (auto-advance SimClock) and the backoff sleeps advance
        // virtual time instantly — the whole retry ladder runs without a
        // single wall-clock sleep or wall-clock-dependent outcome.
        let mut rng = StdRng::seed_from_u64(9);
        let a = Matrix::<Fp61>::random(6, 4, &mut rng);
        let behaviors = [DeviceBehavior::Omit; 5];
        let clock = Arc::new(crate::SimClock::new());
        let config = SupervisorConfig::default()
            .with_deadline(Duration::from_millis(25))
            .with_backoff(Duration::from_millis(10), 0.5)
            .with_max_retries(2)
            .with_thresholds(1, 200); // suspect quickly, never evict
        let cluster = SupervisedCluster::launch_clocked(
            &a,
            &COSTS,
            &behaviors,
            config,
            &mut rng,
            Arc::clone(&clock) as Arc<dyn Clock>,
        )
        .unwrap();
        let t0 = clock.now();
        let x = Vector::<Fp61>::random(4, &mut rng);
        assert!(matches!(cluster.query(&x), Err(Error::Timeout { .. })));
        // 3 attempts x 25ms virtual deadline, plus two virtual backoffs.
        assert!(clock.now().saturating_sub(t0) >= Duration::from_millis(75));
        let stats = cluster.stats();
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.count, 0);
        assert_eq!(stats.repairs, 0);
    }

    #[test]
    fn ewma_latency_is_tracked_for_responders() {
        let (a, cluster, mut rng) = launch(8, &[], fast_config());
        let x = Vector::<Fp61>::random(4, &mut rng);
        cluster.query(&x).unwrap();
        assert_eq!(cluster.query(&x).unwrap().value, a.matvec(&x).unwrap());
        let health = cluster.health();
        assert!(health
            .iter()
            .filter(|h| h.enrolled)
            .all(|h| h.ewma_latency.is_some()));
    }

    #[test]
    fn adaptive_reallocates_around_a_drifting_straggler() {
        // Every device sleeps a small wall-clock base latency so the
        // EWMA reference sits well above scheduler noise; device 0 (the
        // cheapest, hence the most loaded under the static TA-1 plan)
        // then runs ~15x slower. Its drift factor lands far past the
        // hysteresis trigger, so the allocator must install a
        // drift-scaled plan — and queries must stay correct through the
        // swap. The grace window exceeds the straggler's delay so its
        // late rows are still credited (feeding its EWMA) instead of
        // being discarded as quorum misses. Wall clock on purpose: a
        // virtual clock only advances once every thread sleeps, which
        // timestamps fast arrivals at the straggler's wake time and
        // flattens the very spread this test needs to see.
        let mut behaviors = [DeviceBehavior::Delayed(Duration::from_millis(4)); 5];
        behaviors[0] = DeviceBehavior::Delayed(Duration::from_millis(60));
        let (a, cluster, mut rng) = launch(
            17,
            &behaviors,
            fast_config().with_quorum_grace(Duration::from_millis(250)),
        );
        let cluster = cluster.with_adaptive(AdaptiveConfig::default()).unwrap();
        for _ in 0..6 {
            let x = Vector::<Fp61>::random(4, &mut rng);
            assert_eq!(cluster.query(&x).unwrap().value, a.matvec(&x).unwrap());
        }
        let stats = cluster.stats();
        assert!(
            stats.reallocations >= 1,
            "straggler never triggered adaptation: {stats:?}"
        );
        assert!(cluster
            .events()
            .iter()
            .any(|e| matches!(e, SupervisorEvent::Reallocated { .. })));
    }

    #[test]
    fn adaptive_is_inert_on_a_steady_fleet() {
        // Uniform virtual latency: every drift factor is exactly 1.0,
        // inside the dead band, so an armed allocator must hold the
        // static plan for the whole run.
        let mut rng = StdRng::seed_from_u64(23);
        let a = Matrix::<Fp61>::random(6, 4, &mut rng);
        let behaviors = [DeviceBehavior::Delayed(Duration::from_millis(3)); 5];
        let clock = Arc::new(crate::SimClock::new());
        let cluster = SupervisedCluster::launch_clocked(
            &a,
            &COSTS,
            &behaviors,
            fast_config(),
            &mut rng,
            Arc::clone(&clock) as Arc<dyn Clock>,
        )
        .unwrap()
        .with_adaptive(AdaptiveConfig::default())
        .unwrap();
        for _ in 0..8 {
            let x = Vector::<Fp61>::random(4, &mut rng);
            assert_eq!(cluster.query(&x).unwrap().value, a.matvec(&x).unwrap());
        }
        let stats = cluster.stats();
        assert_eq!(stats.reallocations, 0, "steady fleet must never adapt");
        assert_eq!(stats.repairs, 0);
        assert!(!cluster
            .events()
            .iter()
            .any(|e| matches!(e, SupervisorEvent::Reallocated { .. })));
    }
}

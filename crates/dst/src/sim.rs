//! The deterministic cluster simulation: one virtual-time event loop,
//! every choice funneled through a [`Schedule`], every step checked
//! against the paper's theorems.
//!
//! The simulator models a supervised straggler-coded fleet — the same
//! protocol `scec_runtime::SupervisedCluster` runs on real threads — as a
//! single-threaded event-set simulation:
//!
//! * the fleet is organized in **cells**: independent replica groups of
//!   `device_count + spares` devices, each with its own roster, chaos
//!   plan, and repair lifecycle; queries are routed `query % cells`, so
//!   thousands of devices are thousands of devices, not a bigger code;
//! * device responses and query deadlines are *pending events* with
//!   virtual due times on a manual [`SimClock`], held in an **indexed
//!   event set** ([`EventSet`]) with O(1) insert, O(1) removal by
//!   eligibility index, and O(1) amortized invalidation per query — the
//!   loop is linear in events processed even at fleet scale;
//! * the [`Schedule`] picks which pending event is processed next, so
//!   delivery order, timeout/response races, drops, and repair timing are
//!   all under seed (or script) control;
//! * after each processed event the **conformance oracles** run: decode
//!   correctness (`decode(B·Tx) == A·x`), Theorem 3 availability and
//!   per-device security on every topology change, FIFO result emission,
//!   supervisor lifecycle monotonicity, and clock monotonicity — plus,
//!   when the config carries a [`SloPolicy`], end-of-run **SLO oracles**
//!   (`slo.progress`, `slo.p99`, `slo.cost`, `slo.stress`) and, when
//!   `coalition_size >= 2`, the **coalition** adversary-power probe.
//!
//! A run is fully described by `(config, seed, script)`: re-running with
//! the same triple reproduces the identical [`RunReport`], byte for byte.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use rand::{rngs::StdRng, SeedableRng};

use scec_allocation::{AdaptiveAllocator, DriftSample, Verdict};
use scec_coding::{CodeDesign, RatelessEncoder, StragglerCode, StragglerStore, TaggedResponse};
use scec_linalg::{Fp61, Matrix, Scalar, Vector};
use scec_runtime::{Clock, SimClock};
use scec_sim::adversary::{ChaosFault, ChaosPlan, PassiveAdversary};
use scec_telemetry::context::{self, SpanIds};
use scec_telemetry::{CostVector, LogHistogram, Stage, Telemetry, TraceContext};

use crate::scenarios::SloPolicy;
use crate::schedule::{Decision, Schedule};
use crate::DstConfig;

/// Per-cell chaos seeds decorrelate fault plans across cells while cell
/// 0 keeps the raw run seed (so single-cell worlds match the historical
/// `ChaosPlan::generate(pool, intensity, seed)` exactly).
const CELL_SEED_STRIDE: u64 = 0x9e37_79b9_7f4a_7c15;

/// Mean of the schedule's base service draw `latency_ms(1, 8)` — the
/// predicted per-response latency the adaptive drift factor is measured
/// against.
const PREDICTED_SERVICE_MS: f64 = 4.5;

/// EWMA smoothing for observed per-device response latency (matches the
/// threaded supervisor's default).
const EWMA_ALPHA: f64 = 0.3;

/// Drift factors below the band are flattened to 1.0 before they reach
/// the allocator: the 1..8 ms base latency draw makes every healthy
/// device's EWMA jitter around the predicted mean (factors in roughly
/// `[0.22, 1.78]`), and measurement noise must never look like drift —
/// a static fleet must produce *zero* reallocations on every seed. Only
/// slowness past the band counts; a fast device is a bonus, not drift
/// worth a reallocation.
const DRIFT_DEAD_BAND: f64 = 2.0;

/// Supervisor-visible device lifecycle, ordered by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Health {
    /// Responding normally.
    Healthy,
    /// Missed at least `suspect_after` deadlines.
    Suspect,
    /// Missed `evict_after` deadlines — evicted (absorbing).
    Dead,
    /// Returned a corrupted partial — quarantined (absorbing).
    Quarantined,
}

impl Health {
    fn is_absorbing(self) -> bool {
        matches!(self, Health::Dead | Health::Quarantined)
    }

    /// Whether a device may move `self → next` without violating the
    /// lifecycle oracle: severity never decreases and the absorbing
    /// states are never left.
    fn may_become(self, next: Health) -> bool {
        if self == next {
            return true;
        }
        !self.is_absorbing() && next > self
    }
}

/// Which oracle a run violated, where, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Oracle name: `decode`, `availability`, `security`, `coalition`,
    /// `fifo`, `lifecycle`, `clock`, `adaptive`, `rateless`,
    /// `trace.causality`, or one of the SLO oracles `slo.progress`,
    /// `slo.p99`, `slo.cost`, `slo.stress`, `slo.thrash`.
    pub oracle: &'static str,
    /// Simulation step (processed-event count) at which it fired.
    pub step: usize,
    /// Human-readable detail.
    pub detail: String,
}

/// How one simulated query ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryOutcome {
    /// Decoded (and the decode oracle checked the value).
    Decoded,
    /// Retry budget exhausted or the cluster ran out of devices.
    Failed,
}

/// The deterministic record of one simulated run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Seed the schedule (or its noise stream) was derived from.
    pub seed: u64,
    /// Processed-event count.
    pub steps: usize,
    /// Queries that decoded successfully.
    pub completed: usize,
    /// Queries that failed (timeout / cluster exhaustion).
    pub failed: usize,
    /// Topology repairs performed (across all cells).
    pub repairs: usize,
    /// Devices quarantined for corrupted partials.
    pub quarantined: usize,
    /// First oracle violation, if any.
    pub violation: Option<Violation>,
    /// Every decision the schedule handed out, in draw order.
    pub decisions: Vec<Decision>,
    /// Deterministic event trace (first `config.max_trace` lines).
    pub trace: Vec<String>,
    /// Trace lines dropped by the `max_trace` cap (deterministic).
    pub trace_dropped: usize,
    /// p99 completion latency over decoded queries, virtual ms.
    pub p99_ms: f64,
    /// Observed rows delivered per 1000 predicted (`attempted queries ×
    /// total coded rows`) — the cost-ledger reconciliation ratio.
    pub cost_permille: u64,
    /// Adaptive reallocations installed (across all cells).
    pub reallocations: usize,
    /// Coded rows minted by the rateless path (across all cells).
    pub minted_rows: usize,
    /// Virtual time at which the run drained, milliseconds — the
    /// completion metric adaptive-vs-static comparisons use.
    pub makespan_ms: f64,
}

impl RunReport {
    /// Whether the run finished with every oracle intact.
    pub fn is_clean(&self) -> bool {
        self.violation.is_none()
    }

    /// Renders the report as a deterministic string: two runs of the same
    /// `(config, seed, script)` render byte-identically, which is what
    /// the replay test asserts.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "seed={} steps={} completed={} failed={} repairs={} quarantined={}\n",
            self.seed, self.steps, self.completed, self.failed, self.repairs, self.quarantined
        ));
        out.push_str(&format!(
            "slo p99_ms={:.3} cost_permille={}\n",
            self.p99_ms, self.cost_permille
        ));
        out.push_str(&format!(
            "adaptive reallocations={} minted_rows={} makespan_ms={:.3}\n",
            self.reallocations, self.minted_rows, self.makespan_ms
        ));
        match &self.violation {
            Some(v) => out.push_str(&format!(
                "violation oracle={} step={} {}\n",
                v.oracle, v.step, v.detail
            )),
            None => out.push_str("violation none\n"),
        }
        out.push_str(&format!(
            "decisions {}\n",
            self.decisions
                .iter()
                .map(|d| format!("{}/{}", d.chosen, d.arity))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        for line in &self.trace {
            out.push_str(line);
            out.push('\n');
        }
        if self.trace_dropped > 0 {
            out.push_str(&format!("trace dropped={}\n", self.trace_dropped));
        }
        out
    }
}

/// A pending simulated event.
#[derive(Debug, Clone)]
enum Event {
    /// A device's partial result arriving at the user.
    Response {
        at: Duration,
        query: usize,
        attempt: u32,
        device: usize,
        rows: Vec<TaggedResponse<Fp61>>,
        corrupted: bool,
    },
    /// A query attempt's deadline expiring at the supervisor.
    Deadline {
        at: Duration,
        query: usize,
        attempt: u32,
    },
}

impl Event {
    fn at(&self) -> Duration {
        match self {
            Event::Response { at, .. } | Event::Deadline { at, .. } => *at,
        }
    }

    fn query(&self) -> usize {
        match self {
            Event::Response { query, .. } | Event::Deadline { query, .. } => *query,
        }
    }
}

/// The indexed event set that replaced `pending: Vec<Event>`.
///
/// Events live in slab `slots`; two eligibility lists (`responses`,
/// `deadlines`) hold slot ids, with a `wherein` back-pointer per slot so
/// removal is a swap-remove. The schedule's pick indexes directly into
/// the eligible lists, so a step is O(1) instead of the old O(pending)
/// re-scan + `Vec::remove` shift. `by_query` lets the supervisor
/// invalidate every event of a query (resolution, retry, repair) in
/// amortized O(events of that query) — the eager replacement for the old
/// per-step `prune_stale` full scan.
///
/// Eligibility order is insertion order with swap-remove holes — a pure
/// function of the decision history, never of timestamps — so seeded
/// replay, scripting, shrinking, and exploration see exactly the same
/// decision arities as the schedule that produced them.
#[derive(Default)]
struct EventSet {
    slots: Vec<Option<Event>>,
    free: Vec<usize>,
    responses: Vec<usize>,
    deadlines: Vec<usize>,
    /// `(is_response, position)` of each occupied slot in its list.
    wherein: Vec<(bool, usize)>,
    /// Slot ids ever assigned to each query; lazily cleaned on clear.
    by_query: Vec<Vec<usize>>,
}

impl EventSet {
    fn insert(&mut self, event: Event) {
        let is_response = matches!(event, Event::Response { .. });
        let q = event.query();
        let id = match self.free.pop() {
            Some(id) => {
                self.slots[id] = Some(event);
                id
            }
            None => {
                self.slots.push(Some(event));
                self.wherein.push((false, 0));
                self.slots.len() - 1
            }
        };
        let list = if is_response {
            &mut self.responses
        } else {
            &mut self.deadlines
        };
        list.push(id);
        self.wherein[id] = (is_response, list.len() - 1);
        if self.by_query.len() <= q {
            self.by_query.resize_with(q + 1, Vec::new);
        }
        self.by_query[q].push(id);
    }

    fn is_empty(&self) -> bool {
        self.responses.is_empty() && self.deadlines.is_empty()
    }

    fn len(&self) -> usize {
        self.responses.len() + self.deadlines.len()
    }

    /// Size of the schedule's choice space this step.
    fn arity(&self, deliveries_first: bool) -> usize {
        if deliveries_first && !self.responses.is_empty() {
            self.responses.len()
        } else {
            self.len()
        }
    }

    /// Removes and returns the event at eligibility index `idx` (the
    /// schedule's pick over [`arity`](Self::arity) choices).
    fn take(&mut self, idx: usize, deliveries_first: bool) -> Event {
        let id = if (deliveries_first && !self.responses.is_empty()) || idx < self.responses.len() {
            self.responses[idx]
        } else {
            self.deadlines[idx - self.responses.len()]
        };
        self.remove_slot(id)
    }

    fn remove_slot(&mut self, id: usize) -> Event {
        let (is_response, pos) = self.wherein[id];
        let list = if is_response {
            &mut self.responses
        } else {
            &mut self.deadlines
        };
        list.swap_remove(pos);
        if let Some(&moved) = list.get(pos) {
            self.wherein[moved].1 = pos;
        }
        self.free.push(id);
        self.slots[id].take().expect("occupied slot")
    }

    /// Drops every live event belonging to `q` — called when a query
    /// resolves, retries, or restarts on a repaired topology, so stale
    /// events never reach the schedule's choice space.
    fn clear_query(&mut self, q: usize) {
        let Some(ids) = self.by_query.get_mut(q) else {
            return;
        };
        for id in std::mem::take(ids) {
            // Slot ids are recycled: only remove if the slot still holds
            // a live event of this very query.
            let live = matches!(self.slots.get(id), Some(Some(e)) if e.query() == q);
            if live {
                self.remove_slot(id);
            }
        }
    }
}

struct QueryState {
    x: Vector<Fp61>,
    want: Vector<Fp61>,
    /// Cell this query is routed to (`query % cells`).
    cell: usize,
    started_at: Duration,
    /// When the current attempt's broadcast started (backoff included)
    /// — the reference point for the per-device latency EWMA.
    attempt_started: Duration,
    /// Generation fence: the code this attempt was broadcast under. An
    /// adaptive reallocation swaps the *cell's* code but never restarts
    /// in-flight attempts — they decode against this pinned copy.
    code: StragglerCode<Fp61>,
    attempt: u32,
    /// Devices broadcast to in the current attempt (global ids).
    targets: Vec<usize>,
    /// Wire trace context of the current attempt, parented on its
    /// dispatch span — what the supervisor would stamp on the outgoing
    /// frames. Pinned per broadcast (like the generation fence), so
    /// responses landing after a repair still stitch under the dispatch
    /// span they were actually sent from. `None` when tracing is off.
    ctx: Option<TraceContext>,
    /// Verified rows collected in the current attempt, by global device.
    collected: BTreeMap<usize, Vec<TaggedResponse<Fp61>>>,
    outcome: Option<QueryOutcome>,
    emitted: bool,
}

/// One replica group: its own code, store, roster, and repair state.
/// All cells share the data matrix `A` and the coding parameters, so
/// the paper's per-cell theorems are identical across the fleet.
struct Cell {
    code: StragglerCode<Fp61>,
    store: StragglerStore<Fp61>,
    /// Global device id (1-based) of each code position (0-based).
    roster: Vec<usize>,
    generation: u32,
    exhausted: bool,
    /// Telemetry-driven TA-1 wrapper, when `config.adaptive` is set.
    adaptive: Option<AdaptiveAllocator>,
    /// Live encoding state for mid-epoch row mints, when
    /// `config.rateless` is set. Replaced on every re-encode (repair or
    /// reallocation) — minted rows never outlive their generation.
    rateless: Option<RatelessEncoder<Fp61>>,
}

/// The simulator itself. Construct with [`Simulation::new`], drive with
/// [`Simulation::run`].
pub struct Simulation {
    config: DstConfig,
    schedule: Schedule,
    clock: SimClock,
    /// World-building randomness (data matrix, query vectors, code
    /// rebuilds, coalition probes) — seed-derived, separate from the
    /// decision stream.
    world: StdRng,
    a: Matrix<Fp61>,
    cells: Vec<Cell>,
    /// Devices per cell (coded positions + spares).
    pool: usize,
    /// Roster size of the *designed* code — rateless growth can enlarge
    /// a cell's live code, but repairs and reallocations re-install the
    /// designed shape.
    needed: usize,
    faults: Vec<ChaosFault>,
    health: Vec<Health>,
    misses: Vec<u32>,
    served: Vec<u32>,
    crashed: Vec<bool>,
    queries: Vec<QueryState>,
    started: usize,
    next_emit: usize,
    events: EventSet,
    steps: usize,
    repairs: usize,
    quarantined: usize,
    /// Adaptive reallocations installed across all cells.
    reallocations: usize,
    /// Coded rows minted by the rateless path across all cells.
    minted_rows: usize,
    /// Per-device observed-latency EWMA, `None` until first sampled.
    ewma_ms: Vec<Option<f64>>,
    violation: Option<Violation>,
    trace: Vec<String>,
    trace_dropped: usize,
    /// Completion latencies of decoded queries (seconds) — the internal
    /// SLO input, recorded whether or not telemetry is attached.
    latency_hist: LogHistogram,
    /// Total verified rows delivered — the observed side of the
    /// cost-ledger reconciliation oracle.
    observed_rows: u64,
    /// Step cap hit with events still pending (livelock suspicion).
    livelocked: bool,
    seed: u64,
    tel: Option<Arc<Telemetry>>,
    /// Tenant id under which spans carry deterministic distributed-trace
    /// ids (and the end-of-run causality oracle runs). `None` keeps the
    /// historical id-less spans.
    trace_tenant: Option<u64>,
    /// Monotone qualifier for lifecycle child events (repairs, re-plans)
    /// so each gets a distinct span id within its trace.
    trace_seq: u64,
    /// The query whose trace cell-level lifecycle moments (repair,
    /// re-plan, mint) attach to: the most recently broadcast traced
    /// query, mirroring the threaded supervisor's `last_trace`.
    last_traced: Option<usize>,
}

impl Simulation {
    /// Builds the simulated world for `(config, seed)` with a seeded
    /// schedule.
    ///
    /// # Errors
    ///
    /// Propagates coding failures from the initial code construction.
    pub fn new(config: DstConfig, seed: u64) -> Result<Self, scec_coding::Error> {
        Self::with_schedule(config, seed, Schedule::seeded(seed))
    }

    /// Builds the world with an explicit decision script (the replay /
    /// shrink / explore entry point).
    ///
    /// # Errors
    ///
    /// Propagates coding failures from the initial code construction.
    pub fn scripted(
        config: DstConfig,
        seed: u64,
        script: Vec<u32>,
    ) -> Result<Self, scec_coding::Error> {
        Self::with_schedule(config, seed, Schedule::scripted(seed, script))
    }

    fn with_schedule(
        config: DstConfig,
        seed: u64,
        schedule: Schedule,
    ) -> Result<Self, scec_coding::Error> {
        let mut world =
            StdRng::seed_from_u64(seed.wrapping_mul(0xa24b_aed4_963e_e407).wrapping_add(1));
        let a = Matrix::<Fp61>::random(config.data_rows, config.width, &mut world);
        let design = CodeDesign::new(config.data_rows, config.random_rows)?;
        let code = StragglerCode::<Fp61>::new(design, config.redundancy, &mut world)?;
        // The rateless encode draws its randomness identically to the
        // plain path, so the initial store is bit-identical either way.
        let (store, encoder) = if config.rateless {
            let (store, enc) = RatelessEncoder::encode(&code, &a, &mut world)?;
            (store, Some(enc))
        } else {
            (code.encode(&a, &mut world)?, None)
        };
        let needed = code.device_count();
        let pool = needed + config.spare_devices;
        let cell_count = config.cells.max(1);
        let mut cells = Vec::with_capacity(cell_count);
        let mut faults = Vec::with_capacity(pool * cell_count);
        for c in 0..cell_count {
            let cell_seed = seed.wrapping_add(CELL_SEED_STRIDE.wrapping_mul(c as u64));
            faults.extend(ChaosPlan::generate(pool, config.intensity, cell_seed).faults);
            let base = c * pool;
            let adaptive =
                match &config.adaptive {
                    Some(acfg) => {
                        // Pin r to the configured code shape: a reallocation
                        // re-rosters devices, it never resizes the code.
                        let mut acfg = acfg.clone();
                        acfg.pinned_random_rows.get_or_insert(config.random_rows);
                        // The simulated fleet is uniformly priced; drift
                        // factors carry all the cost signal.
                        let devices: Vec<(usize, f64)> =
                            (base + 1..=base + pool).map(|d| (d, 1.0)).collect();
                        let alloc = AdaptiveAllocator::new(config.data_rows, &devices, acfg)
                            .map_err(|_| scec_coding::Error::InvalidDesign {
                                m: config.data_rows,
                                r: config.random_rows,
                                reason: "adaptive allocator rejected the fleet or config",
                            })?;
                        Some(alloc)
                    }
                    None => None,
                };
            cells.push(Cell {
                // Identical coding state per cell; repairs resample.
                code: code.clone(),
                store: store.clone(),
                roster: (base + 1..=base + needed).collect(),
                generation: 0,
                exhausted: false,
                adaptive,
                rateless: encoder.clone(),
            });
        }
        let devices = pool * cell_count;
        let sim = Simulation {
            cells,
            pool,
            needed,
            health: vec![Health::Healthy; devices],
            misses: vec![0; devices],
            served: vec![0; devices],
            crashed: vec![false; devices],
            queries: Vec::new(),
            started: 0,
            next_emit: 0,
            events: EventSet::default(),
            steps: 0,
            repairs: 0,
            quarantined: 0,
            reallocations: 0,
            minted_rows: 0,
            ewma_ms: vec![None; devices],
            violation: None,
            trace: Vec::new(),
            trace_dropped: 0,
            latency_hist: LogHistogram::new(),
            observed_rows: 0,
            livelocked: false,
            clock: SimClock::manual(),
            config,
            schedule,
            world,
            a,
            faults,
            seed,
            tel: None,
            trace_tenant: None,
            trace_seq: 0,
            last_traced: None,
        };
        Ok(sim)
    }

    /// Attaches a telemetry handle: the simulation records spans, health
    /// events, and predicted-vs-observed costs against the **virtual**
    /// clock, so two runs of the same `(config, seed, script)` render
    /// byte-identical telemetry. Devices are priced at unit cost 1.0 —
    /// the simulated fleet carries no cost vector of its own.
    #[must_use]
    pub fn with_telemetry(mut self, tel: Arc<Telemetry>) -> Self {
        self.tel = Some(tel);
        if let Some(t) = &self.tel {
            // Encoding happened during construction, before time started.
            t.tracer
                .span(Duration::ZERO, Duration::ZERO, Stage::Encode, None, None);
        }
        for c in 0..self.cells.len() {
            self.instrument_cell(c);
        }
        self
    }

    /// Turns on distributed tracing: every span is minted the same
    /// deterministic ids the threaded runtime derives from
    /// `(tenant, query, generation)`, device spans parent onto their
    /// attempt's dispatch span, and the end-of-run **trace-causality
    /// oracle** checks the tree for orphans. Ids are pure functions of
    /// the run triple, so replays stay byte-identical.
    #[must_use]
    pub fn with_trace_tenant(mut self, tenant: u64) -> Self {
        self.trace_tenant = Some(tenant);
        self
    }

    /// Ids for a supervisor-side stage span or lifecycle child event of
    /// query `q`'s current attempt, parented on the query's root span
    /// (the same scheme as the threaded runtime's `stage_ids`). `None`
    /// when tracing is off or `q` has not been broadcast yet.
    fn query_stage_ids(&self, q: usize, kind: u64, qualifier: u64) -> Option<SpanIds> {
        let ctx = self.queries.get(q)?.ctx?;
        Some(SpanIds {
            trace: ctx.trace_id,
            span: context::span_id(ctx.trace_id, kind, qualifier),
            parent: context::span_id(ctx.trace_id, context::kind::ROOT, 0),
        })
    }

    /// Ids for a cell-level lifecycle child event (repair, re-plan,
    /// mint), attached to the last traced query's tree with a fresh
    /// monotone qualifier.
    fn lifecycle_ids(&mut self, kind: u64) -> Option<SpanIds> {
        let q = self.last_traced?;
        let seq = self.trace_seq;
        let ids = self.query_stage_ids(q, kind, seq)?;
        self.trace_seq += 1;
        Some(ids)
    }

    /// End-of-run **trace-causality oracle**: with tracing on, every
    /// recorded device-compute span must carry ids and parent onto a
    /// dispatch span that was actually recorded for the same trace —
    /// across retries, repairs, and reallocation generations, no
    /// orphans. Skipped when the tracer dropped events (a truncated
    /// buffer cannot be judged) — the drop count is its own signal.
    fn check_trace_causality(&mut self) {
        let Some(t) = self.tel.clone() else { return };
        if self.trace_tenant.is_none() || t.tracer.dropped() > 0 {
            return;
        }
        let events = t.tracer.events();
        let dispatches: std::collections::BTreeSet<(u64, u64)> = events
            .iter()
            .filter(|e| e.name == Stage::Dispatch.as_str())
            .filter_map(|e| e.ids.map(|ids| (ids.trace, ids.span)))
            .collect();
        for e in &events {
            if e.name != Stage::DeviceCompute.as_str() {
                continue;
            }
            let Some(ids) = e.ids else {
                self.violate(
                    "trace.causality",
                    format!(
                        "device span (q{:?} d{:?}) carries no trace ids under tracing",
                        e.request, e.device
                    ),
                );
                return;
            };
            if !dispatches.contains(&(ids.trace, ids.parent)) {
                self.violate(
                    "trace.causality",
                    format!(
                        "orphan device span q{:?} d{:?}: parent {:016x} matches no \
                         recorded dispatch span of trace {:016x}",
                        e.request, e.device, ids.parent, ids.trace
                    ),
                );
                return;
            }
        }
    }

    /// (Re-)installs predicted per-query costs and stored-row levels for
    /// a cell's current roster; called at attachment and after repairs.
    fn instrument_cell(&self, c: usize) {
        let Some(t) = &self.tel else { return };
        let l = self.config.width as u64;
        let esize = std::mem::size_of::<Fp61>() as u64;
        let cell = &self.cells[c];
        for (pos, share) in cell.store.shares().iter().enumerate() {
            let device = cell.roster[pos];
            let rows = share.rows().len() as u64;
            t.costs.record_stored(device, rows);
            t.costs.set_predicted(
                device,
                1.0,
                CostVector {
                    stored_rows: rows,
                    rows_served: rows,
                    bytes_sent: l * esize,
                    // Tagged responses: value + u64 row tag per row.
                    bytes_received: rows * (esize + 8),
                    field_mults: rows * l,
                    field_adds: rows * l.saturating_sub(1),
                },
            );
        }
    }

    /// Mirrors a supervisor lifecycle moment into the tracer and the
    /// labelled event counter (same names as the threaded supervisor).
    fn tev(&self, name: &'static str, device: Option<usize>, detail: String) {
        self.tev_ids(name, device, detail, None);
    }

    /// [`tev`](Self::tev) carrying optional trace ids, so retries,
    /// repairs, and re-plans land as child moments of their query tree.
    fn tev_ids(
        &self,
        name: &'static str,
        device: Option<usize>,
        detail: String,
        ids: Option<SpanIds>,
    ) {
        if let Some(t) = &self.tel {
            match ids {
                Some(ids) => t
                    .tracer
                    .event_ctx(self.clock.now(), name, None, device, detail, ids),
                None => t.tracer.event(self.clock.now(), name, None, device, detail),
            }
            t.registry
                .counter("scec_supervisor_events_total", &[("event", name)])
                .inc();
        }
    }

    /// Appends a trace line unless the deterministic cap is reached, in
    /// which case the line is counted instead of stored. Callers bind
    /// any values read from `self` *before* the closure.
    fn tr(&mut self, line: impl FnOnce() -> String) {
        if self.trace.len() < self.config.max_trace {
            self.trace.push(line());
        } else {
            self.trace_dropped += 1;
        }
    }

    /// Runs to completion and returns the deterministic report.
    pub fn run(mut self) -> RunReport {
        // Cells start as clones of one construction, so the topology
        // oracles (and the coalition probe) run once for cell 0 here and
        // per cell after each repair — the only coefficient changes.
        self.check_topology_oracles(0);
        while self.violation.is_none() && self.started < self.config.queries.min(self.config.window)
        {
            self.start_next_query();
        }
        while self.violation.is_none() && self.steps < self.config.max_steps {
            if self.events.is_empty() {
                break;
            }
            let event = self.pick_event();
            self.steps += 1;
            let before = self.clock.now();
            self.clock.advance_to(event.at());
            if self.clock.now() < before {
                self.violate(
                    "clock",
                    format!("virtual time moved backwards at step {}", self.steps),
                );
                break;
            }
            self.process(event);
        }
        self.livelocked = self.violation.is_none() && !self.events.is_empty();
        if self.violation.is_none() && self.next_emit < self.queries.len() {
            // Ran out of events or steps with queries unresolved — fail
            // them in FIFO order so the report accounts for every query.
            for q in self.next_emit..self.queries.len() {
                if self.queries[q].outcome.is_none() {
                    self.queries[q].outcome = Some(QueryOutcome::Failed);
                }
            }
            self.emit_ready();
        }
        let completed = self
            .queries
            .iter()
            .filter(|q| q.outcome == Some(QueryOutcome::Decoded))
            .count();
        // Queries the cluster never even admitted (exhaustion, violation,
        // step cap) count as failed: every configured query is accounted.
        let failed = self.config.queries.saturating_sub(completed);
        let p99_ms = self.latency_hist.p99() * 1_000.0;
        // Reconcile the ledger against *attempted* work: every admitted
        // query was predicted to ship one full coded payload. A
        // completed-only denominator is ill-conditioned — failed queries
        // still deliver rows, so the ratio diverges as completion drops.
        let total_rows = self.cells[0].code.total_rows() as u64;
        let predicted_rows = (completed + failed) as u64 * total_rows;
        let cost_permille = self
            .observed_rows
            .saturating_mul(1_000)
            .checked_div(predicted_rows)
            .unwrap_or(0);
        if self.violation.is_none() {
            if let Some(slo) = self.config.slo.clone() {
                self.check_slo_oracles(&slo, completed, p99_ms, cost_permille);
            }
        }
        if self.violation.is_none() {
            self.check_trace_causality();
        }
        RunReport {
            seed: self.seed,
            steps: self.steps,
            completed,
            failed,
            repairs: self.repairs,
            quarantined: self.quarantined,
            violation: self.violation,
            decisions: self.schedule.log().to_vec(),
            trace: self.trace,
            trace_dropped: self.trace_dropped,
            p99_ms,
            cost_permille,
            reallocations: self.reallocations,
            minted_rows: self.minted_rows,
            makespan_ms: self.clock.now().as_secs_f64() * 1_000.0,
        }
    }

    // ---- event machinery -------------------------------------------------

    /// Lets the schedule choose the next event from the indexed set. In
    /// deliveries-first mode deadlines are eligible only when no response
    /// is pending, which keeps the explorer's interleaving space finite
    /// and focused on delivery order. Stale events never appear here:
    /// they are removed eagerly when their query resolves, retries, or
    /// restarts, so no decision is ever burned on dead work.
    fn pick_event(&mut self) -> Event {
        let deliveries_first = self.config.deliveries_first;
        let arity = self.events.arity(deliveries_first);
        let pick = self.schedule.pick(arity);
        self.events.take(pick, deliveries_first)
    }

    fn process(&mut self, event: Event) {
        match event {
            Event::Response {
                at,
                query,
                attempt,
                device,
                rows,
                corrupted,
            } => {
                // Eager invalidation keeps only current-attempt events.
                debug_assert_eq!(attempt, self.queries[query].attempt);
                debug_assert!(self.queries[query].outcome.is_none());
                self.process_response(at, query, device, rows, corrupted);
            }
            Event::Deadline { query, attempt, .. } => {
                debug_assert_eq!(attempt, self.queries[query].attempt);
                debug_assert!(self.queries[query].outcome.is_none());
                self.process_deadline(query);
            }
        }
    }

    fn process_response(
        &mut self,
        arrived: Duration,
        query: usize,
        device: usize,
        rows: Vec<TaggedResponse<Fp61>>,
        corrupted: bool,
    ) {
        let t = self.ms();
        if corrupted {
            // The runtime's Freivalds verification catches corrupted
            // partials; the simulator has ground truth and the same
            // verdict: quarantine the device and discard the rows.
            self.tr(|| format!("t={t} quarantine d{device} (corrupt partial q{query})"));
            self.quarantined += 1;
            self.set_health(device, Health::Quarantined);
            let cell = self.queries[query].cell;
            self.maybe_repair(cell);
            return;
        }
        let n = rows.len();
        self.tr(|| format!("t={t} deliver q{query} d{device} rows={n}"));
        self.observed_rows += n as u64;
        // Supervisor-visible latency sample: the response's *scheduled
        // arrival* minus the attempt's broadcast start, smoothed per
        // device. The schedule may process events out of time order
        // (that is the adversarial-interleaving point), so the
        // processing clock would charge the device for scheduler
        // queueing delay and corrupt the drift signal; the event's own
        // timestamp is the ground-truth network latency. Seeding the
        // EWMA at the predicted mean keeps one extreme first draw from
        // looking like drift.
        let obs = arrived
            .saturating_sub(self.queries[query].attempt_started)
            .as_secs_f64()
            * 1_000.0;
        // Only roster members are sampled: once the allocator sheds a
        // device, responses still in flight must not keep feeding its
        // EWMA — a few lucky low draws would pull its factor back under
        // the dead band and the device would oscillate in and out of
        // the roster (shed, look cheap, return, drift, shed: thrash).
        // A shed device's factor stays frozen at its crossing value.
        if self.cells[self.queries[query].cell]
            .roster
            .contains(&device)
        {
            let prev = self.ewma_ms[device - 1].unwrap_or(PREDICTED_SERVICE_MS);
            self.ewma_ms[device - 1] = Some(prev + EWMA_ALPHA * (obs - prev));
        }
        if let Some(tel) = &self.tel {
            let now = self.clock.now();
            let l = self.config.width as u64;
            let n = n as u64;
            let esize = std::mem::size_of::<Fp61>() as u64;
            match self.queries[query].ctx {
                // Stitch under the attempt's dispatch span, minting the
                // same id the real DeviceServer derives from the wire
                // context — the sim and the TCP tier agree byte-for-byte.
                Some(ctx) if ctx.sampled => tel.tracer.span_ctx(
                    now,
                    Duration::ZERO,
                    Stage::DeviceCompute,
                    Some(query as u64),
                    Some(device),
                    SpanIds {
                        trace: ctx.trace_id,
                        span: context::span_id(
                            ctx.trace_id,
                            context::kind::DEVICE_COMPUTE,
                            device as u64,
                        ),
                        parent: ctx.parent_span_id,
                    },
                ),
                _ => tel.tracer.span(
                    now,
                    Duration::ZERO,
                    Stage::DeviceCompute,
                    Some(query as u64),
                    Some(device),
                ),
            }
            tel.costs.record_received(device, n * (esize + 8), n);
            tel.costs
                .record_compute(device, n * l, n * l.saturating_sub(1));
        }
        self.queries[query].collected.insert(device, rows);
        self.try_complete(query);
        let cell = self.queries[query].cell;
        self.maybe_adapt(cell);
    }

    fn process_deadline(&mut self, query: usize) {
        let t = self.ms();
        let attempt = self.queries[query].attempt;
        self.tr(|| format!("t={t} deadline q{query} attempt={attempt}"));
        // Count a miss against every broadcast target that neither
        // responded nor was already removed from play.
        let missing: Vec<usize> = self.queries[query]
            .targets
            .iter()
            .copied()
            .filter(|d| {
                !self.queries[query].collected.contains_key(d) && !self.health[d - 1].is_absorbing()
            })
            .collect();
        let any_missed = !missing.is_empty();
        for device in missing {
            self.misses[device - 1] += 1;
            let misses = self.misses[device - 1];
            if misses >= self.config.evict_after {
                self.set_health(device, Health::Dead);
            } else if misses >= self.config.suspect_after {
                self.set_health(device, Health::Suspect);
            }
        }
        let cell = self.queries[query].cell;
        self.maybe_repair(cell);
        if self.violation.is_some() || self.queries[query].outcome.is_some() {
            return;
        }
        if any_missed && self.queries[query].attempt < self.config.max_retries {
            // Rateless mode: a missed deadline means designed slack is
            // being eaten — mint a fresh chunk of coded rows to a spare
            // before the retry goes out, so the next attempt has more
            // rows to quorum from without a reallocation.
            self.maybe_mint(cell);
            if self.violation.is_some() {
                return;
            }
        }
        if self.queries[query].attempt < self.config.max_retries {
            self.events.clear_query(query);
            self.queries[query].attempt += 1;
            self.queries[query].collected.clear();
            let backoff = Duration::from_millis(self.config.backoff_ms);
            let t = self.ms();
            let attempt = self.queries[query].attempt;
            self.tr(|| format!("t={t} retry q{query} attempt={attempt}"));
            let ids = self.query_stage_ids(query, context::kind::RETRY, u64::from(attempt));
            self.tev_ids(
                "supervisor.retried",
                None,
                format!("q{query} attempt={attempt}"),
                ids,
            );
            self.broadcast(query, backoff);
        } else {
            self.resolve(query, QueryOutcome::Failed);
        }
    }

    fn start_next_query(&mut self) {
        let q = self.started;
        self.started += 1;
        let x = Vector::<Fp61>::random(self.config.width, &mut self.world);
        let want = self.a.matvec(&x).expect("widths agree");
        let cell = q % self.cells.len();
        self.queries.push(QueryState {
            x,
            want,
            cell,
            started_at: self.clock.now(),
            attempt_started: self.clock.now(),
            code: self.cells[cell].code.clone(),
            attempt: 0,
            targets: Vec::new(),
            ctx: None,
            collected: BTreeMap::new(),
            outcome: None,
            emitted: false,
        });
        let t = self.ms();
        self.tr(|| format!("t={t} start q{q}"));
        self.broadcast(q, Duration::ZERO);
    }

    /// Broadcasts query `q`'s current attempt to every live device of its
    /// cell and schedules the attempt's deadline. An exhausted cell's
    /// roster is entirely absorbing, so the broadcast degenerates to a
    /// lone deadline and the query drains its retry budget.
    fn broadcast(&mut self, q: usize, delay: Duration) {
        let c = self.queries[q].cell;
        let start = self.clock.now().saturating_add(delay);
        let start_ms = start.as_millis() as u64;
        // Every attempt re-pins the generation fence to the cell's
        // current code: the rows computed below come from the current
        // store, and decode must use the matching coefficients even if
        // the cell reallocates before they arrive.
        self.queries[q].code = self.cells[c].code.clone();
        self.queries[q].attempt_started = start;
        let attempt = self.queries[q].attempt;
        let x = self.queries[q].x.clone();
        let device_count = self.cells[c].code.device_count();
        let mut targets = Vec::new();
        for pos in 1..=device_count {
            let device = self.cells[c].roster[pos - 1];
            if self.health[device - 1].is_absorbing() {
                continue;
            }
            targets.push(device);
            // A partitioned device never receives the query: it stays a
            // target (misses accrue at the supervisor) but neither serves
            // nor advances its crash countdown.
            if self.config.dynamics.in_outage(device, self.pool, start_ms) {
                continue;
            }
            if self.crashed[device - 1] {
                continue;
            }
            if let ChaosFault::Crash { after_queries } = self.faults[device - 1] {
                if self.served[device - 1] >= after_queries {
                    self.crashed[device - 1] = true;
                    let t = self.ms();
                    self.tr(|| format!("t={t} crash d{device}"));
                    continue;
                }
            }
            self.served[device - 1] += 1;
            let mut latency = self.schedule.latency_ms(1, 8);
            let mut corrupted = false;
            match self.faults[device - 1] {
                ChaosFault::Omit => continue,
                ChaosFault::Slow { millis } => latency += millis,
                ChaosFault::Byzantine => corrupted = true,
                ChaosFault::Flaky { permille } => {
                    if self.schedule.coin(f64::from(permille) / 1000.0) {
                        let t = self.ms();
                        self.tr(|| format!("t={t} drop q{q} d{device}"));
                        continue;
                    }
                }
                ChaosFault::None | ChaosFault::Crash { .. } => {}
            }
            latency = self
                .config
                .dynamics
                .shape_latency(device, self.pool, start_ms, latency);
            let mut rows = self.cells[c].store.shares()[pos - 1]
                .compute(&x)
                .expect("widths agree");
            if corrupted {
                for r in &mut rows {
                    r.value = r.value.add(Fp61::one());
                }
            }
            self.events.insert(Event::Response {
                at: start.saturating_add(Duration::from_millis(latency)),
                query: q,
                attempt,
                device,
                rows,
                corrupted,
            });
        }
        // Dispatch-time trace derivation: the trace id is pinned to the
        // cell generation this attempt broadcasts under, exactly like
        // the threaded supervisor's `dispatch_trace`.
        let trace = self.trace_tenant.map(|tenant| {
            let generation = u64::from(self.cells[c].generation);
            let root = TraceContext::derive(tenant, q as u64, generation);
            let ids = SpanIds {
                trace: root.trace_id,
                span: context::span_id(root.trace_id, context::kind::DISPATCH, generation),
                parent: root.parent_span_id,
            };
            (ids, root.child_of(ids.span))
        });
        if let Some(t) = &self.tel {
            match trace {
                Some((ids, _)) => t.tracer.span_ctx(
                    start,
                    Duration::ZERO,
                    Stage::Dispatch,
                    Some(q as u64),
                    None,
                    ids,
                ),
                None => t
                    .tracer
                    .span(start, Duration::ZERO, Stage::Dispatch, Some(q as u64), None),
            }
            let bytes = (self.config.width * std::mem::size_of::<Fp61>()) as u64;
            for &device in &targets {
                t.costs.record_sent(device, bytes);
            }
        }
        self.queries[q].ctx = trace.map(|(_, ctx)| ctx);
        if self.queries[q].ctx.is_some() {
            self.last_traced = Some(q);
        }
        self.queries[q].targets = targets;
        self.events.insert(Event::Deadline {
            at: start.saturating_add(Duration::from_millis(self.config.deadline_ms)),
            query: q,
            attempt,
        });
    }

    fn try_complete(&mut self, q: usize) {
        let state = &self.queries[q];
        let responses: Vec<TaggedResponse<Fp61>> = state
            .collected
            .values()
            .flat_map(|rows| rows.iter().copied())
            .collect();
        let distinct: std::collections::BTreeSet<usize> = responses.iter().map(|r| r.row).collect();
        // Generation fence: decode against the code this attempt was
        // broadcast under — the cell's live code may already be newer.
        if distinct.len() < self.queries[q].code.rows_needed() {
            return;
        }
        let mut y = match self.queries[q].code.decode(&responses) {
            Ok(y) => y,
            Err(e) => {
                self.violate(
                    "decode",
                    format!("q{q}: decode failed on a full quorum: {e}"),
                );
                return;
            }
        };
        if self.config.break_decode_oracle {
            // Intentional fault injection for the replay test: corrupt the
            // decoded result so the decode oracle fires deterministically.
            let mut vals = y.into_vec();
            vals[0] = vals[0].add(Fp61::one());
            y = Vector::from_vec(vals);
        }
        if y != self.queries[q].want {
            self.violate("decode", format!("q{q}: decode(B·Tx) != A·x"));
            return;
        }
        if let Some(t) = &self.tel {
            match self.query_stage_ids(q, context::kind::DECODE, 0) {
                Some(ids) => t.tracer.span_ctx(
                    self.clock.now(),
                    Duration::ZERO,
                    Stage::Decode,
                    Some(q as u64),
                    None,
                    ids,
                ),
                None => t.tracer.span(
                    self.clock.now(),
                    Duration::ZERO,
                    Stage::Decode,
                    Some(q as u64),
                    None,
                ),
            }
        }
        self.resolve(q, QueryOutcome::Decoded);
    }

    fn resolve(&mut self, q: usize, outcome: QueryOutcome) {
        self.queries[q].outcome = Some(outcome);
        self.events.clear_query(q);
        if outcome == QueryOutcome::Decoded {
            let latency = self.clock.now().saturating_sub(self.queries[q].started_at);
            self.latency_hist.record(latency.as_secs_f64());
        }
        if let Some(t) = &self.tel {
            let labels = [("cluster", "dst")];
            match outcome {
                QueryOutcome::Decoded => {
                    t.registry.counter("scec_queries_total", &labels).inc();
                    let latency = self.clock.now().saturating_sub(self.queries[q].started_at);
                    t.registry
                        .histogram("scec_query_latency_seconds", &labels)
                        .record(latency.as_secs_f64());
                    t.costs.record_query();
                }
                QueryOutcome::Failed => {
                    t.registry
                        .counter("scec_query_failures_total", &labels)
                        .inc();
                }
            }
        }
        let t = self.ms();
        self.tr(|| format!("t={t} resolve q{q} {outcome:?}"));
        self.emit_ready();
    }

    /// Emits resolved results in FIFO order and admits new queries into
    /// the freed window slots. The FIFO oracle lives here: a result may
    /// only be emitted if every earlier query has already been emitted.
    fn emit_ready(&mut self) {
        while self.next_emit < self.queries.len() {
            if self.queries[self.next_emit].outcome.is_none() {
                break;
            }
            if self.queries[..self.next_emit].iter().any(|p| !p.emitted) {
                self.violate(
                    "fifo",
                    format!("q{} emitted before a predecessor", self.next_emit),
                );
                return;
            }
            self.queries[self.next_emit].emitted = true;
            let t = self.ms();
            let q = self.next_emit;
            self.tr(|| format!("t={t} emit q{q}"));
            self.next_emit += 1;
            if self.violation.is_none() && self.started < self.config.queries {
                self.start_next_query();
            }
        }
    }

    // ---- supervisor: health, repair, oracles -----------------------------

    fn set_health(&mut self, device: usize, next: Health) {
        let current = self.health[device - 1];
        if current == next {
            return;
        }
        if !current.may_become(next) {
            self.violate(
                "lifecycle",
                format!("d{device}: illegal transition {current:?} -> {next:?}"),
            );
            return;
        }
        let t = self.ms();
        self.tr(|| format!("t={t} d{device} {current:?} -> {next:?}"));
        self.health[device - 1] = next;
        let name = match next {
            Health::Suspect => "supervisor.suspected",
            Health::Dead => "supervisor.died",
            Health::Quarantined => "supervisor.quarantined",
            Health::Healthy => return,
        };
        self.tev(name, Some(device), format!("{current:?} -> {next:?}"));
    }

    /// Re-allocates cell `c` around Dead/Quarantined roster members:
    /// survivors are re-enrolled cheapest-first (global id order — the
    /// fleet is sorted by unit cost, so the prefix is exactly the TA-1
    /// choice), the cell's code and store are rebuilt, and its generation
    /// fence advances; in-flight events of the cell's unresolved queries
    /// are invalidated eagerly.
    fn maybe_repair(&mut self, c: usize) {
        if self.violation.is_some() || self.cells[c].exhausted {
            return;
        }
        if !self.cells[c]
            .roster
            .iter()
            .any(|&d| self.health[d - 1].is_absorbing())
        {
            return;
        }
        // Repairs re-install the *designed* code shape, even if rateless
        // mints had grown the previous generation's code.
        let needed = self.needed;
        let base = c * self.pool;
        let survivors: Vec<usize> = (base + 1..=base + self.pool)
            .filter(|&d| !self.health[d - 1].is_absorbing())
            .collect();
        if survivors.len() < needed {
            let t = self.ms();
            let n = survivors.len();
            self.tr(|| format!("t={t} cell{c} exhausted: {n} survivors < {needed} needed"));
            self.cells[c].exhausted = true;
            for q in 0..self.queries.len() {
                if self.queries[q].cell == c && self.queries[q].outcome.is_none() {
                    self.queries[q].outcome = Some(QueryOutcome::Failed);
                    self.events.clear_query(q);
                }
            }
            self.emit_ready();
            return;
        }
        let roster = survivors[..needed].to_vec();
        let (code, store, encoder) = self.resample_coding();
        self.cells[c].roster = roster;
        self.cells[c].code = code;
        self.cells[c].store = store;
        self.cells[c].rateless = encoder;
        self.cells[c].generation += 1;
        self.repairs += 1;
        if let Some(alloc) = self.cells[c].adaptive.as_mut() {
            // The fault path re-encoded on its own: disarm the adaptive
            // trigger so adaptation never piles onto a repair.
            alloc.note_external_change();
        }
        let t = self.ms();
        let generation = self.cells[c].generation;
        let roster = self.cells[c].roster.clone();
        self.tr(|| format!("t={t} repair cell{c} gen={generation} roster={roster:?}"));
        let ids = self.lifecycle_ids(context::kind::REPAIR);
        self.tev_ids(
            "supervisor.repaired",
            None,
            format!("cell{c} gen={generation} roster={roster:?}"),
            ids,
        );
        if let Some(t) = &self.tel {
            // The rebuilt code re-encodes the data; instantaneous in
            // virtual time, but the span marks it on the trace.
            t.tracer
                .span(self.clock.now(), Duration::ZERO, Stage::Encode, None, None);
        }
        self.instrument_cell(c);
        self.check_topology_oracles(c);
        if self.violation.is_some() {
            return;
        }
        // Every unresolved query of this cell restarts on the new
        // topology; other cells' in-flight work is untouched.
        for q in 0..self.queries.len() {
            if self.queries[q].cell == c && self.queries[q].outcome.is_none() {
                self.events.clear_query(q);
                self.queries[q].collected.clear();
                self.broadcast(q, Duration::ZERO);
            }
        }
    }

    /// Draws a fresh designed code and store from the world RNG — the
    /// hot-repair re-encode path, shared by fault repairs and adaptive
    /// reallocations. In rateless mode the returned encoder replaces
    /// the cell's old one: minted rows never outlive their generation.
    fn resample_coding(
        &mut self,
    ) -> (
        StragglerCode<Fp61>,
        StragglerStore<Fp61>,
        Option<RatelessEncoder<Fp61>>,
    ) {
        let design = CodeDesign::new(self.config.data_rows, self.config.random_rows)
            .expect("validated at construction");
        let code = StragglerCode::<Fp61>::new(design, self.config.redundancy, &mut self.world)
            .expect("resampling always finds a secure extension over Fp61");
        if self.config.rateless {
            let (store, enc) = RatelessEncoder::encode(&code, &self.a, &mut self.world)
                .expect("shapes validated at construction");
            (code, store, Some(enc))
        } else {
            let store = code
                .encode(&self.a, &mut self.world)
                .expect("shapes validated at construction");
            (code, store, None)
        }
    }

    /// One adaptive observation tick for cell `c`: feeds the per-device
    /// latency EWMAs (as drift factors over the predicted mean) to the
    /// cell's allocator and, on a `Reallocated` verdict, installs the
    /// new roster through the hot-repair re-encode path — generation
    /// bumped, **in-flight attempts untouched** (they decode under the
    /// code pinned at their broadcast; that is the generation fence).
    fn maybe_adapt(&mut self, c: usize) {
        if self.violation.is_some() || self.cells[c].exhausted || self.cells[c].adaptive.is_none() {
            return;
        }
        let base = c * self.pool;
        let samples: Vec<DriftSample> = (base + 1..=base + self.pool)
            .map(|d| {
                let factor = match self.ewma_ms[d - 1] {
                    Some(e) => {
                        let f = e / PREDICTED_SERVICE_MS;
                        if f < DRIFT_DEAD_BAND {
                            1.0
                        } else {
                            f
                        }
                    }
                    // NaN keeps the allocator's previous factor: an
                    // unsampled device carries no drift evidence.
                    None => f64::NAN,
                };
                DriftSample {
                    device: d,
                    factor,
                    healthy: !self.health[d - 1].is_absorbing(),
                }
            })
            .collect();
        let verdict = self.cells[c]
            .adaptive
            .as_mut()
            .expect("checked above")
            .observe(&samples);
        let (spread_permille, plan_generation) = match verdict {
            Ok(Verdict::Reallocated {
                spread_permille,
                generation,
            }) => (spread_permille, generation),
            Ok(Verdict::Hold { .. }) => return,
            Err(e) => {
                self.violate("adaptive", format!("cell{c}: allocator error: {e}"));
                return;
            }
        };
        let ranking = self.cells[c]
            .adaptive
            .as_ref()
            .expect("checked above")
            .ranking()
            .to_vec();
        if ranking.len() < self.needed {
            // Not enough healthy devices to staff the designed code; the
            // fault path owns exhaustion.
            return;
        }
        let roster = ranking[..self.needed].to_vec();
        let (code, store, encoder) = self.resample_coding();
        self.cells[c].roster = roster;
        self.cells[c].code = code;
        self.cells[c].store = store;
        self.cells[c].rateless = encoder;
        self.cells[c].generation += 1;
        self.reallocations += 1;
        let t = self.ms();
        let generation = self.cells[c].generation;
        let roster = self.cells[c].roster.clone();
        self.tr(|| {
            format!(
                "t={t} reallocate cell{c} gen={generation} plan={plan_generation} \
                 spread={spread_permille} roster={roster:?}"
            )
        });
        let ids = self.lifecycle_ids(context::kind::REPLAN);
        self.tev_ids(
            "supervisor.reallocated",
            None,
            format!("cell{c} gen={generation} spread={spread_permille} roster={roster:?}"),
            ids,
        );
        if let Some(t) = &self.tel {
            t.tracer
                .span(self.clock.now(), Duration::ZERO, Stage::Encode, None, None);
        }
        self.instrument_cell(c);
        self.check_topology_oracles(c);
        // Unlike maybe_repair, no query restarts: in-flight attempts
        // complete under their pinned code, retries pick up the new one.
    }

    /// Rateless mint: streams one chunk of freshly coded rows to the
    /// encoder's frontier device, enrolling a spare when the frontier
    /// opens a new code position. Appending rows never disturbs existing
    /// indices, so there is no generation bump and in-flight attempts
    /// stay valid.
    fn maybe_mint(&mut self, c: usize) {
        if self.violation.is_some() || !self.config.rateless || self.cells[c].exhausted {
            return;
        }
        let Some(enc) = self.cells[c].rateless.as_ref() else {
            return;
        };
        let device = enc.frontier_device();
        let count = enc.capacity(device).min(self.config.random_rows);
        if count == 0 {
            return;
        }
        // A frontier past the current roster needs a spare to enroll.
        let extend = device > self.cells[c].roster.len();
        let spare = if extend {
            let base = c * self.pool;
            let found = (base + 1..=base + self.pool).find(|&d| {
                !self.cells[c].roster.contains(&d) && !self.health[d - 1].is_absorbing()
            });
            match found {
                Some(d) => Some(d),
                None => return, // bench exhausted: nothing to mint onto
            }
        } else {
            None
        };
        let batch = match self.cells[c]
            .rateless
            .as_mut()
            .expect("checked above")
            .mint(device, count, &mut self.world)
        {
            Ok(b) => b,
            Err(e) => {
                self.violate("rateless", format!("cell{c}: mint failed: {e}"));
                return;
            }
        };
        let code = self.cells[c]
            .rateless
            .as_ref()
            .expect("checked above")
            .code()
            .clone();
        if let Err(e) = self.cells[c].store.install_rows(code.clone(), &batch) {
            self.violate("rateless", format!("cell{c}: install failed: {e}"));
            return;
        }
        self.cells[c].code = code;
        if let Some(d) = spare {
            self.cells[c].roster.push(d);
        }
        self.minted_rows += count;
        let t = self.ms();
        let target = spare.unwrap_or_else(|| self.cells[c].roster[device - 1]);
        self.tr(|| format!("t={t} mint cell{c} d{target} rows={count}"));
        let ids = self.lifecycle_ids(context::kind::REPAIR);
        self.tev_ids(
            "supervisor.minted",
            Some(target),
            format!("cell{c} rows={count}"),
            ids,
        );
        self.instrument_cell(c);
        // Frontier mints keep the arithmetic chunk layout truthful, so
        // the standard Theorem-3 oracles apply to the grown code;
        // misaligned growth falls back to the true-map oracles.
        if self.cells[c]
            .rateless
            .as_ref()
            .expect("checked above")
            .is_aligned()
        {
            self.check_topology_oracles(c);
        } else {
            let enc = self.cells[c].rateless.as_ref().expect("checked above");
            match (enc.security_holds(), enc.all_true_quorums_available()) {
                (Ok(true), Ok(true)) => {}
                (sec, avail) => self.violate(
                    "rateless",
                    format!("cell{c}: true-map oracles failed: security={sec:?} avail={avail:?}"),
                ),
            }
        }
    }

    /// Theorem 3, both halves, on cell `c`'s current code: every quorum
    /// with at least `m + r` rows decodes, and no device's block
    /// intersects the pure-data span. When `coalition_size >= 2`, also
    /// probes the topology with a colluding coalition — the structured
    /// design is only 1-private, so the probe must leak; a silent
    /// adversary is a regression in adversary power and fires the
    /// `coalition` oracle. Runs at construction and after every repair —
    /// the only points where coefficient matrices change.
    fn check_topology_oracles(&mut self, c: usize) {
        let generation = self.cells[c].generation;
        match self.cells[c].code.all_quorums_available() {
            Ok(true) => {}
            Ok(false) => {
                self.violate(
                    "availability",
                    format!(
                        "cell{c} gen {generation}: a quorum with >= m+r rows is rank-deficient"
                    ),
                );
                return;
            }
            Err(e) => {
                self.violate("availability", format!("oracle error: {e}"));
                return;
            }
        }
        match self.cells[c].code.per_device_security_holds() {
            Ok(true) => {}
            Ok(false) => {
                self.violate(
                    "security",
                    format!("cell{c} gen {generation}: a device block intersects the data span"),
                );
                return;
            }
            Err(e) => {
                self.violate("security", format!("oracle error: {e}"));
                return;
            }
        }
        if self.config.coalition_size >= 2 {
            self.probe_coalition(c);
        }
    }

    /// Pools the observations of the first `coalition_size` coded
    /// positions and runs the passive adversary on the combined view.
    fn probe_coalition(&mut self, c: usize) {
        let cell = &self.cells[c];
        let k = self.config.coalition_size.min(cell.code.device_count());
        let adversary = PassiveAdversary::for_dimensions(
            cell.code.base().data_rows(),
            cell.code.base().random_rows(),
        )
        .with_candidates(2);
        let blocks: Result<Vec<Matrix<Fp61>>, _> =
            (1..=k).map(|j| cell.code.device_block(j)).collect();
        let verdict = match blocks {
            Ok(blocks) => {
                let members: Vec<(usize, &Matrix<Fp61>, &Matrix<Fp61>)> = (1..=k)
                    .map(|j| (j, &blocks[j - 1], cell.store.shares()[j - 1].coded()))
                    .collect();
                adversary
                    .attack_coalition(&members, &mut self.world)
                    .map_err(|e| e.to_string())
            }
            Err(e) => Err(e.to_string()),
        };
        let generation = cell.generation;
        match verdict {
            Ok(v) if v.is_information_theoretic_secure() => self.violate(
                "coalition",
                format!(
                    "cell{c} gen {generation}: coalition of {k} leaked nothing from the \
                     1-private design — adversary lost power"
                ),
            ),
            Ok(_) => {}
            Err(e) => self.violate("coalition", format!("probe error: {e}")),
        }
    }

    /// The telemetry-backed SLO oracles, checked once the event loop has
    /// drained. Ordered livelock → completion floor → stress floor →
    /// p99 → cost so the most fundamental failure wins the report.
    fn check_slo_oracles(
        &mut self,
        slo: &SloPolicy,
        completed: usize,
        p99_ms: f64,
        cost_permille: u64,
    ) {
        if self.livelocked {
            let pending = self.events.len();
            self.violate(
                "slo.progress",
                format!(
                    "step cap {} hit with {pending} events still pending",
                    self.config.max_steps
                ),
            );
            return;
        }
        let permille = completed as u64 * 1_000 / self.config.queries.max(1) as u64;
        if permille < slo.min_completed_permille {
            self.violate(
                "slo.progress",
                format!(
                    "completed {permille}/1000 queries < {}/1000 floor",
                    slo.min_completed_permille
                ),
            );
            return;
        }
        if self.repairs < slo.min_repairs {
            self.violate(
                "slo.stress",
                format!(
                    "{} repairs < {} floor — the scenario failed to stress the repair path",
                    self.repairs, slo.min_repairs
                ),
            );
            return;
        }
        if let Some(max) = slo.max_reallocations {
            if self.reallocations > max {
                self.violate(
                    "slo.thrash",
                    format!(
                        "{} adaptive reallocations > {max} budget — the allocator is thrashing",
                        self.reallocations
                    ),
                );
                return;
            }
        }
        if completed > 0 && p99_ms > slo.p99_ms {
            self.violate(
                "slo.p99",
                format!(
                    "p99 completion {p99_ms:.3} ms > {:.3} ms budget",
                    slo.p99_ms
                ),
            );
            return;
        }
        let (lo, hi) = slo.cost_band_permille;
        if completed > 0 && (cost_permille < lo || cost_permille > hi) {
            self.violate(
                "slo.cost",
                format!(
                    "observed/predicted rows = {cost_permille}/1000 outside [{lo}, {hi}] — \
                     cost ledger failed to reconcile"
                ),
            );
        }
    }

    fn violate(&mut self, oracle: &'static str, detail: String) {
        if self.violation.is_none() {
            let t = self.ms();
            // A violation line always lands in the trace, cap or not —
            // it is the one line shrinking and replay care about.
            self.trace
                .push(format!("t={t} VIOLATION {oracle} {detail}"));
            self.violation = Some(Violation {
                oracle,
                step: self.steps,
                detail,
            });
        }
    }

    fn ms(&self) -> u128 {
        self.clock.now().as_millis()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_small_run_is_clean_and_deterministic() {
        let config = DstConfig::small();
        let a = Simulation::new(config.clone(), 11).unwrap().run();
        let b = Simulation::new(config, 11).unwrap().run();
        assert!(a.is_clean(), "{}", a.render());
        assert_eq!(a.completed, 2);
        assert_eq!(a.failed, 0);
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn chaos_runs_are_clean_across_seeds() {
        let config = DstConfig::chaos();
        for seed in 0..20 {
            let report = Simulation::new(config.clone(), seed).unwrap().run();
            assert!(report.is_clean(), "seed {seed}:\n{}", report.render());
            assert_eq!(
                report.completed + report.failed,
                config.queries,
                "seed {seed} lost queries:\n{}",
                report.render()
            );
        }
    }

    #[test]
    fn multi_cell_runs_are_clean_and_route_round_robin() {
        let mut config = DstConfig::chaos();
        config.cells = 3;
        config.queries = 12;
        config.window = 6;
        for seed in 0..10 {
            let report = Simulation::new(config.clone(), seed).unwrap().run();
            assert!(report.is_clean(), "seed {seed}:\n{}", report.render());
            assert_eq!(
                report.completed + report.failed,
                config.queries,
                "seed {seed} lost queries:\n{}",
                report.render()
            );
        }
    }

    #[test]
    fn broken_decode_oracle_fires_on_every_seed() {
        let mut config = DstConfig::small();
        config.break_decode_oracle = true;
        for seed in 0..5 {
            let report = Simulation::new(config.clone(), seed).unwrap().run();
            let v = report.violation.expect("broken oracle must fire");
            assert_eq!(v.oracle, "decode");
        }
    }

    #[test]
    fn scripted_replay_of_a_seeded_run_matches_byte_for_byte() {
        let config = DstConfig::chaos();
        let seeded = Simulation::new(config.clone(), 3).unwrap().run();
        let script: Vec<u32> = seeded.decisions.iter().map(|d| d.chosen).collect();
        let replay = Simulation::scripted(config, 3, script).unwrap().run();
        assert_eq!(seeded.render(), replay.render());
    }

    #[test]
    fn byzantine_device_is_quarantined_and_repaired_around() {
        // Every chaos seed whose plan includes a Byzantine device must
        // satisfy every oracle, and some of them must quarantine it and
        // repair around it. Which seeds those are depends on the linked
        // `rand`'s stream, so none is singled out.
        let config = DstConfig::chaos();
        let pool = 5 + config.spare_devices;
        let byzantine = (0..200u64).filter(|&s| {
            ChaosPlan::generate(pool, config.intensity, s)
                .faults
                .iter()
                .any(|f| matches!(f, ChaosFault::Byzantine))
        });
        let (mut drew, mut clean, mut repaired) = (0, 0, 0);
        for seed in byzantine {
            let report = Simulation::new(config.clone(), seed).unwrap().run();
            drew += 1;
            if report.is_clean() {
                clean += 1;
            } else {
                println!("seed {seed}: {}", report.render());
            }
            repaired += usize::from(report.quarantined >= 1 && report.repairs >= 1);
        }
        println!(
            "byzantine sweep: {drew} seeds draw one, {clean} clean, {repaired} quarantine and repair"
        );
        assert_eq!(clean, drew, "a run with a Byzantine device broke an oracle");
        assert!(repaired >= 1, "no run quarantined and repaired");
    }

    #[test]
    fn trace_cap_counts_dropped_lines_deterministically() {
        let mut config = DstConfig::chaos();
        config.max_trace = 5;
        let a = Simulation::new(config.clone(), 4).unwrap().run();
        let b = Simulation::new(config, 4).unwrap().run();
        assert_eq!(a.trace.len(), 5);
        assert!(a.trace_dropped > 0);
        assert_eq!(a.trace_dropped, b.trace_dropped);
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn coalition_probe_confirms_the_design_leaks_to_a_pair() {
        // The structured design is 1-private: a colluding pair MUST leak,
        // so a clean run here proves the adversary still has teeth.
        let mut config = DstConfig::chaos();
        config.coalition_size = 2;
        let report = Simulation::new(config, 0).unwrap().run();
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn slo_floor_violation_fires_and_names_the_oracle() {
        // An impossible completion floor turns an otherwise clean run
        // into an slo.progress violation.
        let mut config = DstConfig::chaos();
        config.slo = Some(SloPolicy {
            min_completed_permille: 1_001,
            p99_ms: 1e9,
            cost_band_permille: (0, u64::MAX),
            min_repairs: 0,
            max_reallocations: None,
        });
        let report = Simulation::new(config, 0).unwrap().run();
        let v = report.violation.expect("floor cannot be met");
        assert_eq!(v.oracle, "slo.progress");
    }

    #[test]
    fn adaptive_on_a_static_fleet_is_inert_and_bit_identical() {
        // Satellite property: a fleet whose observed costs match the
        // schedule (no dynamics, no chaos) must never re-allocate, and
        // the run must be byte-identical to the plain static world —
        // observing drift samples draws no schedule or world randomness
        // unless a plan is actually installed. Partial synchrony: with
        // adversarial deadline/delivery races the scheduler itself can
        // evict devices, and that is not a static-cost schedule.
        let mut plain = DstConfig::chaos();
        plain.intensity = 0.0;
        plain.deliveries_first = true;
        let mut adaptive = plain.clone();
        adaptive.adaptive = Some(scec_allocation::AdaptiveConfig::default());
        for seed in 0..8 {
            let a = Simulation::new(plain.clone(), seed).unwrap().run();
            let b = Simulation::new(adaptive.clone(), seed).unwrap().run();
            assert_eq!(b.reallocations, 0, "static fleet re-allocated");
            assert_eq!(a.render(), b.render(), "seed {seed} diverged");
        }
    }

    #[test]
    fn speed_drift_reallocates_and_replays_byte_identically() {
        let config = crate::scenarios::find("speed-drift")
            .expect("catalogued")
            .config(Some(7), Some(16));
        let report = Simulation::new(config.clone(), 3).unwrap().run();
        assert!(report.is_clean(), "{}", report.render());
        assert!(
            report.reallocations >= 1,
            "4x drift on two base devices must cross the hysteresis trigger:\n{}",
            report.render()
        );
        assert!(report.trace.iter().any(|l| l.contains("reallocate")));
        let again = Simulation::new(config, 3).unwrap().run();
        assert_eq!(report.render(), again.render());
    }

    #[test]
    fn thrash_oracle_fires_when_reallocation_budget_is_zero() {
        let mut config = crate::scenarios::find("speed-drift")
            .expect("catalogued")
            .config(Some(7), Some(16));
        config
            .slo
            .as_mut()
            .expect("scenario ships an SLO")
            .max_reallocations = Some(0);
        let fired = (0..10).find_map(|seed| {
            let report = Simulation::new(config.clone(), seed).unwrap().run();
            report.violation.filter(|v| v.oracle == "slo.thrash")
        });
        let v = fired.expect("a zero budget must flag any reallocation as thrashing");
        assert!(v.detail.contains("thrashing"), "{}", v.detail);
    }

    #[test]
    fn flash_crowd_mints_rateless_rows_and_stays_clean() {
        let scenario = crate::scenarios::find("flash-crowd").expect("catalogued");
        let mut minted_total = 0;
        for seed in 0..6 {
            let report = Simulation::new(scenario.config(Some(7), Some(24)), seed)
                .unwrap()
                .run();
            assert!(report.is_clean(), "seed {seed}: {}", report.render());
            minted_total += report.minted_rows;
        }
        assert!(
            minted_total > 0,
            "a 6x surge past the deadline must trigger at least one mint in 6 seeds"
        );
    }

    #[test]
    fn telemetry_renders_byte_identically_across_identical_runs() {
        let config = DstConfig::chaos();
        let render = |seed: u64| {
            let tel = Arc::new(Telemetry::new());
            let report = Simulation::new(config.clone(), seed)
                .unwrap()
                .with_telemetry(Arc::clone(&tel))
                .run();
            assert!(report.is_clean(), "{}", report.render());
            (report.completed, tel.render_json())
        };
        // Pick the first seed that actually decodes under chaos(), so the
        // trace-content assertions don't depend on one RNG stream.
        let seed = (0..32)
            .find(|&s| {
                let report = Simulation::new(config.clone(), s).unwrap().run();
                report.violation.is_none() && report.completed > 0
            })
            .expect("some seed in 0..32 decodes under chaos()");
        let (completed, snapshot) = render(seed);
        assert!(completed > 0);
        assert_eq!(snapshot, render(seed).1);
        // The virtual-clock trace actually carries the query stages.
        assert!(snapshot.contains("span.dispatch"));
        assert!(snapshot.contains("span.device_compute"));
        assert!(snapshot.contains("span.decode"));
        assert!(snapshot.contains("scec_queries_total"));
        assert!(snapshot.contains("cluster=\\\"dst\\\""));
    }

    #[test]
    fn lifecycle_rules_reject_resurrection() {
        assert!(Health::Healthy.may_become(Health::Suspect));
        assert!(Health::Healthy.may_become(Health::Quarantined));
        assert!(Health::Suspect.may_become(Health::Dead));
        assert!(!Health::Dead.may_become(Health::Healthy));
        assert!(!Health::Dead.may_become(Health::Quarantined));
        assert!(!Health::Quarantined.may_become(Health::Suspect));
        assert!(Health::Dead.may_become(Health::Dead));
    }

    #[test]
    fn event_set_insert_take_clear_round_trip() {
        let mut set = EventSet::default();
        let deadline = |q: usize| Event::Deadline {
            at: Duration::from_millis(q as u64),
            query: q,
            attempt: 0,
        };
        for q in 0..4 {
            set.insert(deadline(q));
        }
        assert_eq!(set.len(), 4);
        // Clearing a query removes exactly its events, even with slot
        // reuse in between.
        set.clear_query(1);
        assert_eq!(set.len(), 3);
        set.insert(deadline(1)); // reuses the freed slot
        set.clear_query(1);
        assert_eq!(set.len(), 3);
        // Draining by eligibility index yields each event exactly once.
        let mut seen = std::collections::BTreeSet::new();
        while !set.is_empty() {
            let e = set.take(0, false);
            assert!(seen.insert(e.query()), "duplicate {:?}", e.query());
        }
        assert_eq!(seen, [0usize, 2, 3].into_iter().collect());
    }
}

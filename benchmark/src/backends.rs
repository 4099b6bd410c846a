//! The calls into the scec crates: building a system, launching it over
//! each transport, and the closed-loop drivers that push the seeded
//! stream through the program's own `query`, `QueryPipeline` and
//! `PanelPipeline` while checking every answer against its truth.

use std::cell::Cell;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;

use scec_allocation::EdgeFleet;
use scec_coding::{CodeDesign, StragglerCode};
use scec_core::{AllocationStrategy, ScecSystem};
use scec_linalg::{Fp61, Matrix, Vector};
use scec_runtime::{
    Clock, LocalCluster, PanelPipeline, PanelQuery, PipelinedQuery, QueryPipeline, QuorumResult,
    RealClock, StragglerCluster, SupervisedCluster, SupervisedResult, SupervisorConfig,
};
use scec_serve::{DeviceServer, ServerConfig, TcpTransport, WireMeter};

use crate::harness::{Inputs, Recorder, FLEET_UNIT_COSTS};

/// The base-protocol cluster; only its transport differs between the
/// in-process, simulated-link and TCP rungs.
pub type Cluster = LocalCluster<Fp61>;

/// How a [`Cluster`]'s devices are reached.
#[derive(Clone, Copy)]
pub enum Link {
    /// `ChannelTransport`: in-process actors, no codec.
    Channel,
    /// `SimLinkTransport` at zero delay: the codec on the path, no socket.
    Simulated,
    /// `TcpTransport` to a `DeviceServer` on loopback.
    Tcp(SocketAddr),
}

/// The standard five-device fleet.
pub fn fleet() -> EdgeFleet {
    EdgeFleet::from_unit_costs(FLEET_UNIT_COSTS.to_vec()).expect("standard fleet is valid")
}

/// TA-1 allocation plus code design for `a` over the standard fleet.
pub fn build_system(a: &Matrix<Fp61>, rng: &mut StdRng) -> ScecSystem<Fp61> {
    ScecSystem::build(a.clone(), fleet(), AllocationStrategy::Mcscec, rng)
        .expect("system builds for a non-empty matrix")
}

fn real_clock() -> Arc<dyn Clock> {
    Arc::new(RealClock::default())
}

/// A loopback device server on an ephemeral port.
pub fn bind_server() -> DeviceServer {
    DeviceServer::bind::<Fp61>("127.0.0.1:0", ServerConfig::default())
        .expect("loopback bind succeeds")
}

/// A launched base-protocol cluster and what the launch observed.
pub struct Launched {
    /// The running cluster, shares installed.
    pub cluster: Cluster,
    /// The byte meter of its connections (TCP only).
    pub meter: Option<WireMeter>,
    /// Time inside `TcpTransport::connect` (HELLO round trips included)
    /// and the instant it returned (TCP only).
    pub connected: Option<(Duration, Instant)>,
}

/// Encodes, reaches the devices over `link` and installs the shares.
pub fn launch(system: &ScecSystem<Fp61>, rng: &mut StdRng, link: Link) -> Launched {
    let mut meter = None;
    let mut connected = None;
    let cluster = match link {
        Link::Channel => Cluster::launch(system, rng).expect("in-process launch"),
        Link::Simulated => {
            Cluster::launch_sim_linked(system, rng, &[], real_clock(), Duration::ZERO)
                .expect("sim-linked launch")
        }
        Link::Tcp(addr) => Cluster::launch_with_transport(system, rng, real_clock(), |shares| {
            let ids: Vec<usize> = shares.iter().map(|s| s.device()).collect();
            let t = Instant::now();
            let (transport, rx, m) = TcpTransport::connect(addr, 0, &ids)
                .map_err(|_| scec_runtime::Error::ChannelClosed { device: None })?;
            connected = Some((t.elapsed(), Instant::now()));
            meter = Some(m);
            Ok((Box::new(transport) as _, rx))
        })
        .expect("tcp launch against the loopback server"),
    };
    Launched {
        cluster,
        meter,
        connected,
    }
}

/// The supervised fleet on honest devices with the default supervisor,
/// except that misses never evict. A device thread the host keeps off the
/// CPU for 15 ms (three 5 ms grace windows; a stolen vCPU does it) would
/// otherwise be declared dead: the repair changes the plan mid-run, and a
/// second one exhausts the five-device fleet and fails every later query.
/// Such a miss still reads as a degraded query, and nothing on the
/// per-query path depends on the threshold.
pub fn launch_supervised(a: &Matrix<Fp61>, rng: &mut StdRng) -> SupervisedCluster<Fp61> {
    let config = SupervisorConfig::default();
    let config = config.with_thresholds(config.suspect_after, u32::MAX);
    SupervisedCluster::launch(a, &FLEET_UNIT_COSTS, &[], config, rng)
        .expect("supervised launch on five honest devices")
}

/// The plain quorum cluster with the code the supervisor would pick
/// (TA-1 base design plus one standby of `r` rows), so the difference
/// between the two on one stream is the supervision layer alone.
pub fn launch_straggler_twin(a: &Matrix<Fp61>, rng: &mut StdRng) -> StragglerCluster<Fp61> {
    let plan = scec_allocation::ta::ta1(a.nrows(), &fleet()).expect("ta1 on the standard fleet");
    let r = plan.random_rows();
    let base = CodeDesign::new(a.nrows(), r).expect("design from a feasible plan");
    let code = StragglerCode::new(base, r, rng).expect("one standby of r rows");
    StragglerCluster::launch(code, a, rng, &[]).expect("straggler launch")
}

/// The decoded vector inside each cluster flavour's result type.
pub trait Answer {
    /// The recovered `y = A·x`.
    fn value(&self) -> &Vector<Fp61>;
}

impl Answer for Vector<Fp61> {
    fn value(&self) -> &Vector<Fp61> {
        self
    }
}

impl Answer for QuorumResult<Fp61> {
    fn value(&self) -> &Vector<Fp61> {
        &self.value
    }
}

impl Answer for SupervisedResult<Fp61> {
    fn value(&self) -> &Vector<Fp61> {
        &self.value
    }
}

/// Operations attempted and failed (error, refusal or wrong answer).
#[derive(Clone, Copy, Default)]
pub struct Tally {
    /// Operations issued.
    pub attempted: u64,
    /// Operations that errored or whose answer differed from the truth.
    pub failed: u64,
}

impl Tally {
    /// Adds another tally into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Runs `f` under a span when a recorder is present (the traced run),
/// bare otherwise.
pub fn spanned<T>(
    rec: Option<&Recorder>,
    name: &'static str,
    query: u64,
    f: impl FnOnce() -> T,
) -> T {
    match rec {
        Some(r) => r.span(name, query, f),
        None => f(),
    }
}

/// The latency phase: `n` sequential queries (window 1), each timed by the
/// driver from call to verified answer. Failed queries keep their sample.
pub fn latency_phase<O: Answer, E>(
    inputs: &Inputs,
    start: usize,
    n: usize,
    rec: Option<&Recorder>,
    mut query: impl FnMut(&Vector<Fp61>) -> Result<O, E>,
) -> (Vec<f64>, Tally) {
    let mut samples_us = Vec::with_capacity(n);
    let mut tally = Tally::default();
    for i in start..start + n {
        let t = Instant::now();
        let out = spanned(rec, "runtime.query", i as u64, || query(inputs.x(i)));
        let ok = matches!(&out, Ok(y) if y.value() == inputs.truth(i));
        samples_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        tally.attempted += 1;
        tally.failed += u64::from(!ok);
    }
    (samples_us, tally)
}

/// What one throughput round measured.
#[derive(Clone, Copy, Default)]
pub struct Round {
    /// Wall time of the round, first submit to last verified answer.
    pub elapsed: Duration,
    /// Operations and failures.
    pub tally: Tally,
    /// Sum over submits of the in-flight depth right after the submit.
    pub occupancy_sum: u64,
    /// Submits that broadcast (queries for a stream, panels for panels).
    pub broadcasts: u64,
    /// Panels the traced run saw broadcast, and the columns they carried.
    pub panels: u64,
    /// See `panels`.
    pub panel_cols: u64,
}

impl Round {
    /// Verified queries per second.
    pub fn qps(&self) -> f64 {
        (self.tally.attempted - self.tally.failed) as f64 / self.elapsed.as_secs_f64()
    }
}

/// The two pipeline engines of `scec-runtime` behind one face, so one
/// driver loop serves both: results are handed to `done` in FIFO order.
trait Engine {
    /// What the engine hands back per query.
    type Out: Answer;
    /// Submits one query; completed results go to `done`.
    fn submit(
        &mut self,
        x: &Vector<Fp61>,
        done: &mut dyn FnMut(&Self::Out),
    ) -> scec_runtime::Result<()>;
    /// Drains everything in flight into `done`.
    fn collect(&mut self, done: &mut dyn FnMut(&Self::Out)) -> scec_runtime::Result<()>;
    /// The in-flight depth when the last submit broadcast, else `None`.
    fn broadcast_depth(&self) -> Option<usize>;
}

impl<C> Engine for QueryPipeline<'_, C>
where
    C: PipelinedQuery<Input = Vector<Fp61>>,
    C::Output: Answer,
{
    type Out = C::Output;

    fn submit(
        &mut self,
        x: &Vector<Fp61>,
        done: &mut dyn FnMut(&C::Output),
    ) -> scec_runtime::Result<()> {
        QueryPipeline::submit(self, x).map(|out| out.iter().for_each(done))
    }

    fn collect(&mut self, done: &mut dyn FnMut(&C::Output)) -> scec_runtime::Result<()> {
        QueryPipeline::collect(self).map(|outs| outs.iter().for_each(done))
    }

    fn broadcast_depth(&self) -> Option<usize> {
        Some(self.in_flight())
    }
}

impl<C: PanelQuery<Elem = Fp61>> Engine for PanelPipeline<'_, C> {
    type Out = Vector<Fp61>;

    fn submit(
        &mut self,
        x: &Vector<Fp61>,
        done: &mut dyn FnMut(&Vector<Fp61>),
    ) -> scec_runtime::Result<()> {
        PanelPipeline::submit(self, x).map(|ys| ys.iter().for_each(done))
    }

    fn collect(&mut self, done: &mut dyn FnMut(&Vector<Fp61>)) -> scec_runtime::Result<()> {
        PanelPipeline::collect(self).map(|ys| ys.iter().for_each(done))
    }

    fn broadcast_depth(&self) -> Option<usize> {
        // An empty buffer right after a submit means the panel just went out.
        (self.buffered() == 0).then(|| self.in_flight())
    }
}

/// Pushes `n` queries of the stream through `engine`, checking answers in
/// FIFO order as they come back. An error ends the round; every query not
/// verified by then counts as failed.
fn drive<E: Engine>(
    mut engine: E,
    inputs: &Inputs,
    start: usize,
    n: usize,
    rec: Option<&Recorder>,
) -> Round {
    let mut round = Round::default();
    let mut next_truth = start;
    let mut verified = 0u64;
    let mut check = |out: &E::Out| {
        verified += u64::from(out.value() == inputs.truth(next_truth));
        next_truth += 1;
    };
    let t = Instant::now();
    let _ = (|| {
        for i in start..start + n {
            spanned(rec, "runtime.submit", i as u64, || {
                engine.submit(inputs.x(i), &mut check)
            })?;
            if let Some(depth) = engine.broadcast_depth() {
                round.occupancy_sum += depth as u64;
                round.broadcasts += 1;
            }
        }
        spanned(rec, "runtime.collect", u64::MAX, || {
            engine.collect(&mut check)
        })
    })();
    drop(engine);
    round.elapsed = t.elapsed();
    round.tally = Tally {
        attempted: n as u64,
        failed: n as u64 - verified,
    };
    round
}

/// One round of `n` queries through the program's `QueryPipeline` at
/// `window`. On a traced run the cluster is seen through [`Timed`].
pub fn stream_round<C>(
    cluster: &C,
    window: usize,
    inputs: &Inputs,
    start: usize,
    n: usize,
    rec: Option<&Recorder>,
) -> Round
where
    C: PipelinedQuery<Input = Vector<Fp61>>,
    C::Output: Answer,
{
    match rec {
        Some(r) => {
            let timed = Timed::new(cluster, r, start as u64);
            let pipeline = QueryPipeline::new(&timed, window).expect("window is positive");
            drive(pipeline, inputs, start, n, rec)
        }
        None => {
            let pipeline = QueryPipeline::new(cluster, window).expect("window is positive");
            drive(pipeline, inputs, start, n, None)
        }
    }
}

/// One round of `n` queries through the program's `PanelPipeline`
/// (`k`-column panels, `window` panels in flight).
pub fn panel_round<C>(
    cluster: &C,
    k: usize,
    window: usize,
    inputs: &Inputs,
    start: usize,
    n: usize,
    rec: Option<&Recorder>,
) -> Round
where
    C: PanelQuery<Elem = Fp61>,
{
    match rec {
        Some(r) => {
            let timed = Timed::new(cluster, r, start as u64);
            let pipeline = PanelPipeline::new(&timed, k, window).expect("panel config is positive");
            let mut round = drive(pipeline, inputs, start, n, rec);
            round.panels = timed.panels.get();
            round.panel_cols = timed.panel_cols.get();
            round
        }
        None => {
            let pipeline =
                PanelPipeline::new(cluster, k, window).expect("panel config is positive");
            drive(pipeline, inputs, start, n, None)
        }
    }
}

/// A cluster seen through the benchmark's spans: every `begin`/`finish`
/// the program's pipelines issue is timed from outside, and panel widths
/// are counted where the panels are formed.
pub struct Timed<'a, C> {
    inner: &'a C,
    rec: &'a Recorder,
    begun: Cell<u64>,
    finished: Cell<u64>,
    /// Panels broadcast through this wrapper.
    pub panels: Cell<u64>,
    /// Query columns those panels carried.
    pub panel_cols: Cell<u64>,
}

impl<'a, C> Timed<'a, C> {
    /// Wraps `inner`; `first_query` is the stream index of the next query.
    pub fn new(inner: &'a C, rec: &'a Recorder, first_query: u64) -> Self {
        Timed {
            inner,
            rec,
            begun: Cell::new(first_query),
            finished: Cell::new(first_query),
            panels: Cell::new(0),
            panel_cols: Cell::new(0),
        }
    }

    fn advance(cell: &Cell<u64>, by: u64) -> u64 {
        let at = cell.get();
        cell.set(at + by);
        at
    }
}

impl<C: PipelinedQuery> PipelinedQuery for Timed<'_, C> {
    type Input = C::Input;
    type Output = C::Output;
    type Ticket = C::Ticket;

    fn begin(&self, input: &C::Input) -> scec_runtime::Result<C::Ticket> {
        let q = Self::advance(&self.begun, 1);
        self.rec
            .span("runtime.begin", q, || self.inner.begin(input))
    }

    fn finish(&self, ticket: C::Ticket) -> scec_runtime::Result<C::Output> {
        let q = Self::advance(&self.finished, 1);
        self.rec
            .span("runtime.finish", q, || self.inner.finish(ticket))
    }

    fn abandon(&self, ticket: C::Ticket) {
        self.inner.abandon(ticket);
    }

    fn clock_now(&self) -> Duration {
        PipelinedQuery::clock_now(self.inner)
    }
}

impl<C: PanelQuery> PanelQuery for Timed<'_, C> {
    type Elem = C::Elem;
    /// The panel width rides along so `finish` can advance the query id.
    type PanelTicket = (C::PanelTicket, u64);

    fn begin_panel(&self, xs: &Matrix<C::Elem>) -> scec_runtime::Result<Self::PanelTicket> {
        let cols = xs.ncols() as u64;
        self.panels.set(self.panels.get() + 1);
        self.panel_cols.set(self.panel_cols.get() + cols);
        let q = Self::advance(&self.begun, cols);
        self.rec
            .span("runtime.begin", q, || self.inner.begin_panel(xs))
            .map(|t| (t, cols))
    }

    fn finish_panel(&self, ticket: Self::PanelTicket) -> scec_runtime::Result<Matrix<C::Elem>> {
        let q = Self::advance(&self.finished, ticket.1);
        self.rec
            .span("runtime.finish", q, || self.inner.finish_panel(ticket.0))
    }

    fn abandon_panel(&self, ticket: Self::PanelTicket) {
        self.inner.abandon_panel(ticket.0);
    }

    fn clock_now(&self) -> Duration {
        PanelQuery::clock_now(self.inner)
    }
}

/// A backend that answers instantly from the truth table: driving it
/// prices the generator itself (stream indexing, pipeline bookkeeping,
/// the equality check) with no cluster behind it.
pub struct NoOp<'a> {
    inputs: &'a Inputs,
    next: Cell<usize>,
}

impl<'a> NoOp<'a> {
    /// A no-op backend whose first query is stream index `start`.
    pub fn new(inputs: &'a Inputs, start: usize) -> Self {
        NoOp {
            inputs,
            next: Cell::new(start),
        }
    }
}

impl PipelinedQuery for NoOp<'_> {
    type Input = Vector<Fp61>;
    type Output = Vector<Fp61>;
    type Ticket = usize;

    fn begin(&self, _input: &Vector<Fp61>) -> scec_runtime::Result<usize> {
        let i = self.next.get();
        self.next.set(i + 1);
        Ok(i)
    }

    fn finish(&self, ticket: usize) -> scec_runtime::Result<Vector<Fp61>> {
        Ok(self.inputs.truth(ticket).clone())
    }

    fn abandon(&self, _ticket: usize) {}

    fn clock_now(&self) -> Duration {
        Duration::ZERO
    }
}

impl PanelQuery for NoOp<'_> {
    type Elem = Fp61;
    type PanelTicket = (usize, usize);

    fn begin_panel(&self, xs: &Matrix<Fp61>) -> scec_runtime::Result<(usize, usize)> {
        let i = self.next.get();
        self.next.set(i + xs.ncols());
        Ok((i, xs.ncols()))
    }

    fn finish_panel(&self, (first, cols): (usize, usize)) -> scec_runtime::Result<Matrix<Fp61>> {
        let m = self.inputs.truth(first).len();
        let mut flat = Vec::with_capacity(m * cols);
        for row in 0..m {
            for j in 0..cols {
                flat.push(self.inputs.truth(first + j).as_slice()[row]);
            }
        }
        Ok(Matrix::from_flat(m, cols, flat).expect("m × cols values"))
    }

    fn abandon_panel(&self, _ticket: (usize, usize)) {}

    fn clock_now(&self) -> Duration {
        Duration::ZERO
    }
}

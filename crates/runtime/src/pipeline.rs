//! Pipelined multi-query execution: keep a window of requests in flight
//! per cluster.
//!
//! Every cluster's `query()` is a broadcast followed by a collect — the
//! user sits idle for a full device round-trip per query. Since the
//! cluster's mailbox correlates responses by request id and parks
//! out-of-order arrivals, nothing forces those round-trips to serialize: broadcast query `i + 1` (and `i + 2`, …) while the devices
//! are still computing query `i`, then collect the results in submission
//! order.
//!
//! [`QueryPipeline`] implements exactly that over any cluster that
//! splits its query into `begin` / `finish` halves (the
//! [`PipelinedQuery`] trait): a bounded ring of in-flight tickets with
//! backpressure. `submit` broadcasts immediately; once the window is
//! full, each further `submit` first finishes the oldest in-flight
//! request, so device inboxes and the response mailbox hold at most
//! `window` requests from this pipeline at any moment.
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! use scec_core::{AllocationStrategy, ScecSystem};
//! use scec_allocation::EdgeFleet;
//! use scec_linalg::{Fp61, Matrix, Vector};
//! use scec_runtime::{LocalCluster, QueryPipeline};
//!
//! let mut rng = StdRng::seed_from_u64(9);
//! let a = Matrix::<Fp61>::random(6, 3, &mut rng);
//! let fleet = EdgeFleet::from_unit_costs(vec![1.0, 1.5, 2.0, 2.5])?;
//! let sys = ScecSystem::build(a.clone(), fleet, AllocationStrategy::Mcscec, &mut rng)?;
//! let cluster = LocalCluster::launch(&sys, &mut rng)?;
//!
//! let queries: Vec<Vector<Fp61>> = (0..8).map(|_| Vector::random(3, &mut rng)).collect();
//! let results = QueryPipeline::run(&cluster, 4, &queries)?;
//! for (x, y) in queries.iter().zip(&results) {
//!     assert_eq!(*y, a.matvec(x)?);
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use scec_linalg::{Matrix, Scalar, Vector};

use crate::clock::Clock;
use crate::error::{Error, Result};
use crate::supervisor::{SupervisedCluster, SupervisedResult, SupervisedTicket};

/// Claim on an in-flight request on a [`Cluster`](crate::Cluster) (any
/// scheme): the request id to collect on and the
/// broadcast timestamp (on the cluster's [`Clock`]) for latency
/// accounting.
#[derive(Debug)]
pub struct Ticket {
    request: u64,
    started: Duration,
    clock: Arc<dyn Clock>,
}

impl Ticket {
    pub(crate) fn new(request: u64, clock: &Arc<dyn Clock>) -> Self {
        Ticket {
            request,
            started: clock.now(),
            clock: Arc::clone(clock),
        }
    }

    /// The correlation id of the in-flight request.
    pub fn request(&self) -> u64 {
        self.request
    }

    /// The broadcast timestamp on the cluster clock.
    pub(crate) fn started(&self) -> Duration {
        self.started
    }

    /// Seconds elapsed on the cluster clock since the broadcast.
    pub fn elapsed_secs(&self) -> f64 {
        self.clock.now().saturating_sub(self.started).as_secs_f64()
    }
}

/// Claim on an in-flight query *panel*: the underlying request
/// [`Ticket`] plus the panel width (number of query columns), which
/// telemetry accounting needs at finish time.
#[derive(Debug)]
pub struct PanelTicket {
    ticket: Ticket,
    width: usize,
}

impl PanelTicket {
    pub(crate) fn new(ticket: Ticket, width: usize) -> Self {
        PanelTicket { ticket, width }
    }

    /// The correlation id of the in-flight panel request.
    pub fn request(&self) -> u64 {
        self.ticket.request()
    }

    /// Number of query columns in the panel.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Seconds elapsed on the cluster clock since the broadcast.
    pub fn elapsed_secs(&self) -> f64 {
        self.ticket.elapsed_secs()
    }
}

/// A cluster whose query splits into a non-blocking broadcast (`begin`)
/// and a blocking collect/decode (`finish`), allowing several requests
/// in flight at once.
///
/// Implementations must tolerate tickets being finished in any order —
/// the runtime's mailbox parks responses for requests not currently
/// being collected — and `abandon` must release whatever the cluster
/// parked for a ticket that will never be finished.
pub trait PipelinedQuery {
    /// Query payload (a vector for every current cluster).
    type Input;
    /// Decoded result type.
    type Output;
    /// Claim on one in-flight request.
    type Ticket;

    /// Broadcasts `input` and returns without waiting for responses.
    ///
    /// An implementation may leave the broadcast queued in its
    /// transport, provided it goes out no later than the next `finish`
    /// that has to wait, the next `abandon`, or shutdown — so a window
    /// of `begin`s can share one hand-off (a channel message, a socket
    /// write) per device.
    ///
    /// # Errors
    ///
    /// Transport failures surfaced at send time.
    fn begin(&self, input: &Self::Input) -> Result<Self::Ticket>;

    /// Blocks until the ticket's request completes and decodes it.
    ///
    /// # Errors
    ///
    /// The same failure modes as the cluster's plain `query`.
    fn finish(&self, ticket: Self::Ticket) -> Result<Self::Output>;

    /// Releases an in-flight request that will never be finished.
    fn abandon(&self, ticket: Self::Ticket);

    /// The current time on the cluster's [`Clock`] — drives pipeline
    /// latency accounting (virtual time under a
    /// [`SimClock`](crate::SimClock)).
    fn clock_now(&self) -> Duration;
}

/// As for [`Cluster`](crate::Cluster): `begin` leaves the broadcast
/// queued in the transport (the inherent
/// [`SupervisedCluster::begin_query`] flushes it), so a window of
/// requests is one hand-off per device.
impl<F: Scalar> PipelinedQuery for SupervisedCluster<F> {
    type Input = Vector<F>;
    type Output = SupervisedResult<F>;
    type Ticket = SupervisedTicket<F>;

    fn begin(&self, input: &Vector<F>) -> Result<SupervisedTicket<F>> {
        SupervisedCluster::begin(self, input, false)
    }

    fn finish(&self, ticket: SupervisedTicket<F>) -> Result<SupervisedResult<F>> {
        self.finish_query(ticket)
    }

    fn abandon(&self, ticket: SupervisedTicket<F>) {
        self.abandon_query(ticket);
    }

    fn clock_now(&self) -> Duration {
        self.clock_handle().now()
    }
}

/// A cluster that can serve a whole `l × k` panel of query columns in
/// one broadcast/collect round, split into a non-blocking `begin` and a
/// blocking `finish` so several panels can be in flight at once.
///
/// Implementations must tolerate panels being finished in any order and
/// `abandon_panel` must release whatever the cluster parked for a panel
/// that will never be finished.
pub trait PanelQuery {
    /// Scalar element type of queries and results.
    type Elem: Scalar;
    /// Claim on one in-flight panel.
    type PanelTicket;

    /// Broadcasts the `l × k` panel `xs` and returns without waiting
    /// for responses; it may stay queued under the same rule as
    /// [`PipelinedQuery::begin`].
    ///
    /// # Errors
    ///
    /// Transport failures surfaced at send time.
    fn begin_panel(&self, xs: &Matrix<Self::Elem>) -> Result<Self::PanelTicket>;

    /// [`begin_panel`](Self::begin_panel) for a caller that is done with
    /// the panel — [`PanelPipeline`] builds one per broadcast. A cluster
    /// that keeps the panel overrides this to take it without a copy; a
    /// wrapper that implements only `begin_panel` (the repo benchmark's
    /// `Timed`, which every traced run goes through) gets this default
    /// and its inner cluster still clones the panel.
    ///
    /// # Errors
    ///
    /// As [`begin_panel`](Self::begin_panel).
    fn begin_panel_owned(&self, xs: Matrix<Self::Elem>) -> Result<Self::PanelTicket> {
        self.begin_panel(&xs)
    }

    /// Blocks until the panel completes and decodes every column,
    /// returning the `m × k` result matrix.
    ///
    /// # Errors
    ///
    /// The same failure modes as the cluster's plain query.
    fn finish_panel(&self, ticket: Self::PanelTicket) -> Result<Matrix<Self::Elem>>;

    /// Releases an in-flight panel that will never be finished.
    fn abandon_panel(&self, ticket: Self::PanelTicket);

    /// The current time on the cluster's [`Clock`].
    fn clock_now(&self) -> Duration;
}

/// The supervised cluster serves panels column by column (see
/// [`SupervisedCluster::query_panel`]); `begin_panel` just captures the
/// panel, and all the work happens at `finish_panel` time. Panels gain
/// no overlap here — the supervisor serializes queries — but
/// panel-oriented drivers still run unmodified against a supervised
/// fleet.
impl<F: Scalar> PanelQuery for SupervisedCluster<F> {
    type Elem = F;
    type PanelTicket = Matrix<F>;

    fn begin_panel(&self, xs: &Matrix<F>) -> Result<Matrix<F>> {
        Ok(xs.clone())
    }

    fn begin_panel_owned(&self, xs: Matrix<F>) -> Result<Matrix<F>> {
        Ok(xs)
    }

    fn finish_panel(&self, ticket: Matrix<F>) -> Result<Matrix<F>> {
        self.query_panel(&ticket)
    }

    fn abandon_panel(&self, _ticket: Matrix<F>) {}

    fn clock_now(&self) -> Duration {
        self.clock_handle().now()
    }
}

/// A bounded window of in-flight queries over one cluster.
///
/// Results come back in **submission order** (FIFO), regardless of the
/// order device responses arrive in. Dropping the pipeline abandons any
/// still-in-flight requests.
pub struct QueryPipeline<'c, C: PipelinedQuery> {
    cluster: &'c C,
    window: usize,
    in_flight: VecDeque<C::Ticket>,
    /// Submission timestamps parallel to `in_flight` (FIFO latency).
    submitted: VecDeque<Duration>,
    tel: crate::telemetry::PipelineSink,
}

impl<'c, C: PipelinedQuery> QueryPipeline<'c, C> {
    /// A pipeline keeping at most `window` requests in flight on
    /// `cluster`. `window == 1` degenerates to sequential queries.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when `window` is zero.
    pub fn new(cluster: &'c C, window: usize) -> Result<Self> {
        if window == 0 {
            return Err(Error::InvalidConfig {
                what: "pipeline window must be at least 1",
            });
        }
        Ok(QueryPipeline {
            cluster,
            window,
            in_flight: VecDeque::with_capacity(window),
            submitted: VecDeque::with_capacity(window),
            tel: crate::telemetry::PipelineSink::none(),
        })
    }

    /// Attaches a telemetry handle: the pipeline records its in-flight
    /// gauge, window-occupancy histogram, and submit-to-finish (FIFO)
    /// latency against it.
    #[must_use]
    pub fn with_telemetry(mut self, tel: &scec_telemetry::Telemetry) -> Self {
        self.tel.attach(tel);
        self
    }

    /// The configured window depth.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Requests currently in flight (≤ `window`).
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Submits one query. The broadcast happens immediately; if the
    /// window is already full, the **oldest** in-flight request is
    /// finished first (backpressure) and its result returned.
    ///
    /// # Errors
    ///
    /// Failures from finishing the displaced oldest request, or from the
    /// new broadcast. On a broadcast error the displaced result (if any)
    /// is lost — callers treating errors as fatal lose nothing, and
    /// callers that want every result should drain with
    /// [`poll`](Self::poll) before retrying.
    pub fn submit(&mut self, input: &C::Input) -> Result<Option<C::Output>> {
        let completed = if self.in_flight.len() == self.window {
            self.poll()?
        } else {
            None
        };
        let ticket = self.cluster.begin(input)?;
        self.in_flight.push_back(ticket);
        self.submitted.push_back(self.cluster.clock_now());
        self.tel.with(|m| {
            m.in_flight.set(self.in_flight.len() as i64);
            m.occupancy.record(self.in_flight.len() as f64);
        });
        Ok(completed)
    }

    /// Finishes the oldest in-flight request, or returns `Ok(None)` when
    /// nothing is in flight.
    ///
    /// # Errors
    ///
    /// The cluster's query failure modes.
    pub fn poll(&mut self) -> Result<Option<C::Output>> {
        let Some(ticket) = self.in_flight.pop_front() else {
            return Ok(None);
        };
        let started = self.submitted.pop_front();
        let result = self.cluster.finish(ticket);
        self.tel.with(|m| {
            m.in_flight.set(self.in_flight.len() as i64);
            if result.is_ok() {
                if let Some(t0) = started {
                    let waited = self.cluster.clock_now().saturating_sub(t0);
                    m.fifo_latency.record(waited.as_secs_f64());
                }
            }
        });
        Ok(Some(result?))
    }

    /// Finishes every in-flight request, in submission order.
    ///
    /// # Errors
    ///
    /// On the first finish failure; remaining in-flight requests stay
    /// queued (and are abandoned if the pipeline is dropped).
    pub fn collect(&mut self) -> Result<Vec<C::Output>> {
        let mut out = Vec::with_capacity(self.in_flight.len());
        while let Some(result) = self.poll()? {
            out.push(result);
        }
        Ok(out)
    }

    /// Pipelines `queries` through `cluster` at `window` depth and
    /// returns the results in input order.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] for a zero window, else the first query
    /// failure.
    pub fn run(cluster: &'c C, window: usize, queries: &[C::Input]) -> Result<Vec<C::Output>> {
        let mut pipeline = QueryPipeline::new(cluster, window)?;
        let mut out = Vec::with_capacity(queries.len());
        for x in queries {
            if let Some(result) = pipeline.submit(x)? {
                out.push(result);
            }
        }
        out.extend(pipeline.collect()?);
        Ok(out)
    }
}

impl<C: PipelinedQuery> Drop for QueryPipeline<'_, C> {
    fn drop(&mut self) {
        for ticket in self.in_flight.drain(..) {
            self.cluster.abandon(ticket);
        }
        self.submitted.clear();
        self.tel.with(|m| m.in_flight.set(0));
    }
}

/// A panel-batching pipeline: buffers submitted query vectors into
/// `panel_width`-column panels, keeps up to `window` panels in flight,
/// and hands decoded columns back in **submission order** (FIFO).
///
/// Where [`QueryPipeline`] overlaps the *round-trips* of independent
/// per-query requests, `PanelPipeline` also collapses their *messages*:
/// `panel_width` queries share one broadcast, one `B_j T · X` matmul
/// per device, and one multi-RHS decode. The tail of a query stream
/// that does not fill a whole panel is flushed as a narrower (ragged)
/// panel by [`collect`](Self::collect) — or eagerly via
/// [`flush`](Self::flush) when latency matters more than batching.
///
/// Dropping the pipeline abandons any in-flight panels and discards
/// buffered queries.
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use scec_core::{AllocationStrategy, ScecSystem};
/// use scec_allocation::EdgeFleet;
/// use scec_linalg::{Fp61, Matrix, Vector};
/// use scec_runtime::{LocalCluster, PanelPipeline};
///
/// let mut rng = StdRng::seed_from_u64(9);
/// let a = Matrix::<Fp61>::random(6, 3, &mut rng);
/// let fleet = EdgeFleet::from_unit_costs(vec![1.0, 1.5, 2.0, 2.5])?;
/// let sys = ScecSystem::build(a.clone(), fleet, AllocationStrategy::Mcscec, &mut rng)?;
/// let cluster = LocalCluster::launch(&sys, &mut rng)?;
///
/// let queries: Vec<Vector<Fp61>> = (0..10).map(|_| Vector::random(3, &mut rng)).collect();
/// // Panels of up to 4 columns, at most 2 panels in flight.
/// let results = PanelPipeline::run(&cluster, 4, 2, &queries)?;
/// for (x, y) in queries.iter().zip(&results) {
///     assert_eq!(*y, a.matvec(x)?);
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct PanelPipeline<'c, C: PanelQuery> {
    cluster: &'c C,
    panel_width: usize,
    window: usize,
    /// Queries buffered toward the next panel (column order).
    pending: Vec<Vector<C::Elem>>,
    /// Broadcast panels awaiting finish, oldest first.
    in_flight: VecDeque<C::PanelTicket>,
    /// Broadcast timestamps parallel to `in_flight` (FIFO latency).
    submitted: VecDeque<Duration>,
    /// Decoded columns not yet handed back, oldest first.
    ready: VecDeque<Vector<C::Elem>>,
    tel: crate::telemetry::PipelineSink,
}

impl<'c, C: PanelQuery> PanelPipeline<'c, C> {
    /// A pipeline batching queries into panels of up to `panel_width`
    /// columns with at most `window` panels in flight on `cluster`.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when `panel_width` or `window` is zero.
    pub fn new(cluster: &'c C, panel_width: usize, window: usize) -> Result<Self> {
        if panel_width == 0 {
            return Err(Error::InvalidConfig {
                what: "panel width must be at least 1",
            });
        }
        if window == 0 {
            return Err(Error::InvalidConfig {
                what: "pipeline window must be at least 1",
            });
        }
        Ok(PanelPipeline {
            cluster,
            panel_width,
            window,
            pending: Vec::with_capacity(panel_width),
            in_flight: VecDeque::with_capacity(window),
            submitted: VecDeque::with_capacity(window),
            ready: VecDeque::new(),
            tel: crate::telemetry::PipelineSink::none(),
        })
    }

    /// Attaches a telemetry handle: the pipeline records its in-flight
    /// panel gauge, window-occupancy histogram, and broadcast-to-finish
    /// (FIFO) latency per panel against it.
    #[must_use]
    pub fn with_telemetry(mut self, tel: &scec_telemetry::Telemetry) -> Self {
        self.tel.attach(tel);
        self
    }

    /// The configured panel width.
    pub fn panel_width(&self) -> usize {
        self.panel_width
    }

    /// The configured window depth (in panels).
    pub fn window(&self) -> usize {
        self.window
    }

    /// Panels currently in flight (≤ `window`).
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Queries buffered toward the next panel (< `panel_width`).
    pub fn buffered(&self) -> usize {
        self.pending.len()
    }

    /// Submits one query column. Once `panel_width` queries are
    /// buffered they are broadcast as one panel; if the window is
    /// already full, the **oldest** in-flight panel is finished first
    /// (backpressure) and its decoded columns returned, in submission
    /// order.
    ///
    /// # Errors
    ///
    /// Failures from finishing the displaced oldest panel, or from the
    /// new broadcast.
    pub fn submit(&mut self, x: &Vector<C::Elem>) -> Result<Vec<Vector<C::Elem>>> {
        if let Some(first) = self.pending.first() {
            if x.len() != first.len() {
                return Err(Error::InvalidConfig {
                    what: "panel queries must all have the same length",
                });
            }
        }
        self.pending.push(x.clone());
        if self.pending.len() < self.panel_width {
            return Ok(Vec::new());
        }
        let mut completed = Vec::new();
        self.broadcast_pending(&mut completed)?;
        Ok(completed)
    }

    /// Broadcasts any buffered queries immediately as a (possibly
    /// ragged, i.e. narrower than `panel_width`) panel instead of
    /// waiting for the buffer to fill. Returns columns completed by
    /// backpressure, if any.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`submit`](Self::submit).
    pub fn flush(&mut self) -> Result<Vec<Vector<C::Elem>>> {
        let mut completed = Vec::new();
        if !self.pending.is_empty() {
            self.broadcast_pending(&mut completed)?;
        }
        Ok(completed)
    }

    /// Finishes the oldest in-flight panel (if its columns are not
    /// already decoded) and returns the next decoded column in
    /// submission order, or `Ok(None)` when nothing is in flight or
    /// ready. Buffered queries are *not* flushed — call
    /// [`flush`](Self::flush) or [`collect`](Self::collect) for the
    /// ragged tail.
    ///
    /// # Errors
    ///
    /// The cluster's query failure modes.
    pub fn poll(&mut self) -> Result<Option<Vector<C::Elem>>> {
        if let Some(col) = self.ready.pop_front() {
            return Ok(Some(col));
        }
        if self.in_flight.is_empty() {
            return Ok(None);
        }
        self.finish_oldest()?;
        Ok(self.ready.pop_front())
    }

    /// Finishes the oldest in-flight panel, appending its decoded
    /// columns to `ready`. Must only be called with a non-empty
    /// `in_flight`.
    fn finish_oldest(&mut self) -> Result<()> {
        let ticket = self.in_flight.pop_front().expect("panel in flight");
        let started = self.submitted.pop_front();
        let result = self.cluster.finish_panel(ticket);
        self.tel.with(|m| {
            m.in_flight.set(self.in_flight.len() as i64);
            if result.is_ok() {
                if let Some(t0) = started {
                    let waited = self.cluster.clock_now().saturating_sub(t0);
                    m.fifo_latency.record(waited.as_secs_f64());
                }
            }
        });
        let panel = result?;
        for j in 0..panel.ncols() {
            self.ready.push_back(panel.col(j));
        }
        Ok(())
    }

    /// Flushes the ragged tail and finishes everything in flight,
    /// returning all remaining results in submission order.
    ///
    /// # Errors
    ///
    /// On the first failure; remaining in-flight panels stay queued
    /// (and are abandoned if the pipeline is dropped).
    pub fn collect(&mut self) -> Result<Vec<Vector<C::Elem>>> {
        let mut out = self.flush()?;
        while let Some(col) = self.poll()? {
            out.push(col);
        }
        Ok(out)
    }

    /// Pipelines `queries` through `cluster` in `panel_width`-column
    /// panels at `window` depth and returns the results in input order.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] for a zero panel width or window, else
    /// the first query failure.
    pub fn run(
        cluster: &'c C,
        panel_width: usize,
        window: usize,
        queries: &[Vector<C::Elem>],
    ) -> Result<Vec<Vector<C::Elem>>> {
        let mut pipeline = PanelPipeline::new(cluster, panel_width, window)?;
        let mut out = Vec::with_capacity(queries.len());
        for x in queries {
            out.extend(pipeline.submit(x)?);
        }
        out.extend(pipeline.collect()?);
        Ok(out)
    }

    /// Assembles the buffered columns into one `l × k` panel matrix,
    /// applies window backpressure, and broadcasts.
    fn broadcast_pending(&mut self, completed: &mut Vec<Vector<C::Elem>>) -> Result<()> {
        let k = self.pending.len();
        let l = self.pending.first().map_or(0, Vector::len);
        let mut flat = Vec::with_capacity(l * k);
        for i in 0..l {
            for q in &self.pending {
                flat.push(q.as_slice()[i]);
            }
        }
        let xs = Matrix::from_flat(l, k, flat).map_err(|_| Error::InvalidConfig {
            what: "panel queries must all have the same length",
        })?;
        if self.in_flight.len() == self.window {
            // Backpressure: finish the oldest panel and hand back every
            // column decoded so far (FIFO: `ready` leftovers first).
            self.finish_oldest()?;
            while let Some(col) = self.ready.pop_front() {
                completed.push(col);
            }
        }
        let ticket = self.cluster.begin_panel_owned(xs)?;
        self.pending.clear();
        self.in_flight.push_back(ticket);
        self.submitted.push_back(self.cluster.clock_now());
        self.tel.with(|m| {
            m.in_flight.set(self.in_flight.len() as i64);
            m.occupancy.record(self.in_flight.len() as f64);
        });
        Ok(())
    }
}

impl<C: PanelQuery> Drop for PanelPipeline<'_, C> {
    fn drop(&mut self) {
        for ticket in self.in_flight.drain(..) {
            self.cluster.abandon_panel(ticket);
        }
        self.pending.clear();
        self.submitted.clear();
        self.ready.clear();
        self.tel.with(|m| m.in_flight.set(0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LocalCluster, StragglerCluster};
    use rand::{rngs::StdRng, SeedableRng};
    use scec_allocation::EdgeFleet;
    use scec_core::{AllocationStrategy, ScecSystem};
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
    fn zero_window_is_rejected() {
        let (_a, sys, mut rng) = build(4, 3, 1);
        let cluster = LocalCluster::launch(&sys, &mut rng).unwrap();
        assert!(matches!(
            QueryPipeline::new(&cluster, 0),
            Err(Error::InvalidConfig { .. })
        ));
    }

    #[test]
    fn submit_applies_backpressure_at_window_depth() {
        let (a, sys, mut rng) = build(6, 3, 2);
        let cluster = LocalCluster::launch(&sys, &mut rng).unwrap();
        let mut pipeline = QueryPipeline::new(&cluster, 2).unwrap();
        let queries: Vec<Vector<Fp61>> = (0..5).map(|_| Vector::random(3, &mut rng)).collect();
        let mut results = Vec::new();
        for (i, x) in queries.iter().enumerate() {
            let completed = pipeline.submit(x).unwrap();
            // The first `window` submissions complete nothing; every
            // later one displaces exactly the oldest request.
            assert_eq!(completed.is_some(), i >= 2);
            assert!(pipeline.in_flight() <= pipeline.window());
            results.extend(completed);
        }
        results.extend(pipeline.collect().unwrap());
        assert_eq!(pipeline.in_flight(), 0);
        for (x, y) in queries.iter().zip(&results) {
            assert_eq!(*y, a.matvec(x).unwrap());
        }
    }

    #[test]
    fn run_preserves_submission_order() {
        let (a, sys, mut rng) = build(6, 4, 3);
        let cluster = LocalCluster::launch(&sys, &mut rng).unwrap();
        let queries: Vec<Vector<Fp61>> = (0..10).map(|_| Vector::random(4, &mut rng)).collect();
        for window in [1, 3, 16] {
            let results = QueryPipeline::run(&cluster, window, &queries).unwrap();
            assert_eq!(results.len(), queries.len());
            for (x, y) in queries.iter().zip(&results) {
                assert_eq!(*y, a.matvec(x).unwrap());
            }
        }
    }

    #[test]
    fn poll_on_empty_pipeline_is_none() {
        let (_a, sys, mut rng) = build(4, 2, 4);
        let cluster = LocalCluster::launch(&sys, &mut rng).unwrap();
        let mut pipeline = QueryPipeline::new(&cluster, 4).unwrap();
        assert!(pipeline.poll().unwrap().is_none());
    }

    #[test]
    fn panel_pipeline_preserves_order_across_widths_and_windows() {
        let (a, sys, mut rng) = build(6, 4, 6);
        let cluster = LocalCluster::launch(&sys, &mut rng).unwrap();
        let queries: Vec<Vector<Fp61>> = (0..11).map(|_| Vector::random(4, &mut rng)).collect();
        // 11 queries: exercises full panels, ragged tails (11 % 4 == 3,
        // 11 % 3 == 2), and the width-1 degenerate case.
        for (panel_width, window) in [(1, 1), (3, 2), (4, 2), (16, 1)] {
            let results = PanelPipeline::run(&cluster, panel_width, window, &queries).unwrap();
            assert_eq!(results.len(), queries.len());
            for (x, y) in queries.iter().zip(&results) {
                assert_eq!(*y, a.matvec(x).unwrap());
            }
        }
    }

    #[test]
    fn panel_pipeline_bounds_in_flight_panels() {
        let (a, sys, mut rng) = build(6, 3, 7);
        let cluster = LocalCluster::launch(&sys, &mut rng).unwrap();
        let mut pipeline = PanelPipeline::new(&cluster, 2, 2).unwrap();
        let queries: Vec<Vector<Fp61>> = (0..9).map(|_| Vector::random(3, &mut rng)).collect();
        let mut results = Vec::new();
        for x in &queries {
            results.extend(pipeline.submit(x).unwrap());
            assert!(pipeline.in_flight() <= pipeline.window());
            assert!(pipeline.buffered() < pipeline.panel_width());
        }
        results.extend(pipeline.collect().unwrap());
        assert_eq!(pipeline.in_flight(), 0);
        assert_eq!(pipeline.buffered(), 0);
        for (x, y) in queries.iter().zip(&results) {
            assert_eq!(*y, a.matvec(x).unwrap());
        }
    }

    #[test]
    fn panel_pipeline_rejects_zero_configs_and_mixed_lengths() {
        let (_a, sys, mut rng) = build(4, 3, 8);
        let cluster = LocalCluster::launch(&sys, &mut rng).unwrap();
        assert!(matches!(
            PanelPipeline::new(&cluster, 0, 1),
            Err(Error::InvalidConfig { .. })
        ));
        assert!(matches!(
            PanelPipeline::new(&cluster, 4, 0),
            Err(Error::InvalidConfig { .. })
        ));
        let mut pipeline = PanelPipeline::new(&cluster, 4, 1).unwrap();
        pipeline.submit(&Vector::<Fp61>::zeros(3)).unwrap();
        assert!(matches!(
            pipeline.submit(&Vector::<Fp61>::zeros(5)),
            Err(Error::InvalidConfig { .. })
        ));
    }

    #[test]
    fn panel_pipeline_drop_abandons_in_flight_panels() {
        let (a, sys, mut rng) = build(5, 3, 9);
        let cluster = LocalCluster::launch(&sys, &mut rng).unwrap();
        let queries: Vec<Vector<Fp61>> = (0..4).map(|_| Vector::random(3, &mut rng)).collect();
        {
            let mut pipeline = PanelPipeline::new(&cluster, 2, 4).unwrap();
            for x in &queries {
                pipeline.submit(x).unwrap();
            }
            assert_eq!(pipeline.in_flight(), 2);
        } // dropped with panels still in flight
        let x = Vector::<Fp61>::random(3, &mut rng);
        assert_eq!(cluster.query(&x).unwrap(), a.matvec(&x).unwrap());
    }

    #[test]
    fn panel_pipeline_runs_on_straggler_and_supervised_clusters() {
        use crate::supervisor::SupervisorConfig;
        use scec_coding::{CodeDesign, StragglerCode};
        let mut rng = StdRng::seed_from_u64(10);
        let a = Matrix::<Fp61>::random(6, 3, &mut rng);
        let queries: Vec<Vector<Fp61>> = (0..5).map(|_| Vector::random(3, &mut rng)).collect();

        let base = CodeDesign::new(6, 2).unwrap();
        let code = StragglerCode::<Fp61>::new(base, 2, &mut rng).unwrap();
        let cluster = StragglerCluster::launch(code, &a, &mut rng, &[]).unwrap();
        let results = PanelPipeline::run(&cluster, 2, 2, &queries).unwrap();
        for (x, y) in queries.iter().zip(&results) {
            assert_eq!(*y, a.matvec(x).unwrap());
        }

        let supervised = SupervisedCluster::launch(
            &a,
            &[1.0, 1.5, 2.0, 2.5],
            &[],
            SupervisorConfig::default(),
            &mut rng,
        )
        .unwrap();
        let results = PanelPipeline::run(&supervised, 2, 2, &queries).unwrap();
        for (x, y) in queries.iter().zip(&results) {
            assert_eq!(*y, a.matvec(x).unwrap());
        }
    }

    #[test]
    fn drop_abandons_in_flight_requests() {
        let (a, sys, mut rng) = build(5, 3, 5);
        let cluster = LocalCluster::launch(&sys, &mut rng).unwrap();
        let queries: Vec<Vector<Fp61>> = (0..3).map(|_| Vector::random(3, &mut rng)).collect();
        {
            let mut pipeline = QueryPipeline::new(&cluster, 4).unwrap();
            for x in &queries {
                pipeline.submit(x).unwrap();
            }
            assert_eq!(pipeline.in_flight(), 3);
        } // dropped with requests still in flight
          // The cluster stays fully usable afterwards.
        let x = Vector::<Fp61>::random(3, &mut rng);
        assert_eq!(cluster.query(&x).unwrap(), a.matvec(&x).unwrap());
    }
}

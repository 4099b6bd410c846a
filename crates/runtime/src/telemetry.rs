//! Telemetry attachment points for clusters and pipelines.
//!
//! Every cluster (and [`QueryPipeline`](crate::QueryPipeline)) accepts an
//! [`Arc<Telemetry>`](scec_telemetry::Telemetry) via a `with_telemetry`
//! builder. Attachment is optional and feature-gated: with the crate's
//! `telemetry` feature disabled, every recording call compiles to a
//! no-op (the types remain available so call sites need no `cfg`).
//!
//! Timestamps are always drawn from the cluster's [`Clock`], so a
//! [`SimClock`](crate::SimClock)-driven run produces byte-deterministic
//! traces.

use std::sync::Arc;
use std::time::Duration;

use scec_telemetry::context::{self, SpanIds};
use scec_telemetry::{CostVector, Counter, Gauge, Histogram, Stage, Telemetry, TraceContext};

use crate::clock::Clock;

/// Analytic message cost for one protocol message of `payload` bytes —
/// zero when the transport meters actual wire bytes (the observed
/// ledger then reports measured traffic, not the model's estimate).
pub(crate) fn message_bytes(counts_wire: bool, payload: u64) -> u64 {
    if counts_wire {
        0
    } else {
        payload + scec_telemetry::MESSAGE_OVERHEAD_BYTES
    }
}

/// The Eq.-(1) usage one query costs a device that holds `rows` coded
/// rows of width `l`: the query in, `rows` values (each `esize` bytes,
/// plus `tag_bytes` when answers carry row tags) out, `rows` inner
/// products.
pub(crate) fn predicted_per_query(rows: u64, l: u64, esize: u64, tag_bytes: u64) -> CostVector {
    CostVector {
        stored_rows: rows,
        rows_served: rows,
        bytes_sent: l * esize,
        bytes_received: rows * (esize + tag_bytes),
        field_mults: rows * l,
        field_adds: rows * l.saturating_sub(1),
    }
}

/// What one window — one broadcast and one reply, however many queries
/// ride in it — costs a device: `bytes` of message framing each way.
pub(crate) fn predicted_per_window(bytes: u64) -> CostVector {
    CostVector {
        stored_rows: 0,
        rows_served: 0,
        bytes_sent: bytes,
        bytes_received: bytes,
        field_mults: 0,
        field_adds: 0,
    }
}

/// Dispatch-span ids plus the wire context the resulting device spans
/// stitch under, for a cluster tracing `tenant`. `None` when tracing is
/// off — sends then carry no context and frames stay version 1.
pub(crate) fn dispatch_trace(
    tenant: Option<u64>,
    request: u64,
    generation: u64,
) -> Option<(SpanIds, TraceContext)> {
    let tenant = tenant?;
    let root = TraceContext::derive(tenant, request, generation);
    let ids = SpanIds {
        trace: root.trace_id,
        span: context::span_id(root.trace_id, context::kind::DISPATCH, generation),
        parent: root.parent_span_id,
    };
    Some((ids, root.child_of(ids.span)))
}

/// Ids for a Router-side stage span (collect, decode, retry, …) of the
/// query tree rooted at `(tenant, request, generation)`.
pub(crate) fn stage_ids(
    tenant: Option<u64>,
    request: u64,
    generation: u64,
    kind: u64,
    qualifier: u64,
) -> Option<SpanIds> {
    let tenant = tenant?;
    let root = TraceContext::derive(tenant, request, generation);
    Some(SpanIds {
        trace: root.trace_id,
        span: context::span_id(root.trace_id, kind, qualifier),
        parent: root.parent_span_id,
    })
}

/// Pre-resolved metric handles for one cluster, so the per-query hot
/// path touches no registry locks.
#[cfg_attr(not(feature = "telemetry"), allow(dead_code))]
pub(crate) struct ClusterSink {
    pub(crate) tel: Arc<Telemetry>,
    cluster: &'static str,
    queries: Counter,
    failures: Counter,
    latency: Histogram,
    panel_width: Histogram,
}

#[cfg_attr(not(feature = "telemetry"), allow(dead_code))]
impl ClusterSink {
    fn new(tel: Arc<Telemetry>, cluster: &'static str) -> Self {
        let labels = [("cluster", cluster)];
        ClusterSink {
            queries: tel.registry.counter("scec_queries_total", &labels),
            failures: tel.registry.counter("scec_query_failures_total", &labels),
            latency: tel
                .registry
                .histogram("scec_query_latency_seconds", &labels),
            panel_width: tel.registry.histogram("scec_panel_width", &labels),
            cluster,
            tel,
        }
    }

    /// Records one successfully completed query (count, latency, cost
    /// accountant query tally). A plain query is a width-1 window for
    /// the accountant's per-window (message framing) predictions.
    pub(crate) fn query_ok(&self, secs: f64) {
        self.queries.inc();
        self.latency.record(secs);
        self.tel.costs.record_query();
        self.tel.costs.record_window();
    }

    /// Records one successfully completed `width`-column panel: `width`
    /// queries, one window, one panel-round latency sample, and the
    /// panel width distribution.
    pub(crate) fn panel_ok(&self, secs: f64, width: usize) {
        self.queries.add(width as u64);
        self.latency.record(secs);
        self.panel_width.record(width as f64);
        self.tel.costs.record_queries(width as u64);
        self.tel.costs.record_window();
    }

    /// Records one failed query.
    pub(crate) fn query_err(&self) {
        self.failures.inc();
    }

    /// Records a span from `start` to `end` on this cluster's trace,
    /// carrying trace/span ids so the span joins a cross-process query
    /// tree — or id-less when `ids` is `None`, so call sites stay
    /// branch-free.
    pub(crate) fn span_ids(
        &self,
        start: Duration,
        end: Duration,
        stage: Stage,
        request: u64,
        ids: Option<SpanIds>,
    ) {
        let (tracer, dur) = (&self.tel.tracer, end.saturating_sub(start));
        match ids {
            Some(ids) => tracer.span_ctx(start, dur, stage, Some(request), None, ids),
            None => tracer.span(start, dur, stage, Some(request), None),
        }
    }

    /// A counter labelled with this cluster's name, resolved on demand
    /// (for rare events, not the per-query path).
    pub(crate) fn counter(&self, name: &str) -> Counter {
        self.tel
            .registry
            .counter(name, &[("cluster", self.cluster)])
    }
}

/// A cluster's optional telemetry attachment. `with` runs its closure
/// only when telemetry is attached *and* the `telemetry` feature is on;
/// otherwise it compiles to nothing.
pub(crate) struct Sink(Option<ClusterSink>);

impl Sink {
    /// No telemetry attached.
    pub(crate) fn none() -> Self {
        Sink(None)
    }

    /// Attaches `tel`, pre-resolving the per-query metric handles under
    /// a `cluster` label.
    pub(crate) fn attach(&mut self, tel: Arc<Telemetry>, cluster: &'static str) {
        self.0 = Some(ClusterSink::new(tel, cluster));
    }

    /// Runs `f` against the attached sink (no-op when detached or when
    /// the `telemetry` feature is off).
    #[inline]
    pub(crate) fn with(&self, f: impl FnOnce(&ClusterSink)) {
        #[cfg(feature = "telemetry")]
        if let Some(s) = &self.0 {
            f(s);
        }
        #[cfg(not(feature = "telemetry"))]
        let _ = f;
    }

    /// The current time on `clock` when a span will actually be
    /// recorded, else `Duration::ZERO` without touching the clock.
    #[inline]
    pub(crate) fn now(&self, clock: &Arc<dyn Clock>) -> Duration {
        #[cfg(feature = "telemetry")]
        if self.0.is_some() {
            return clock.now();
        }
        let _ = clock;
        Duration::ZERO
    }
}

/// Pre-resolved handles for [`QueryPipeline`](crate::QueryPipeline)
/// window instrumentation.
#[cfg_attr(not(feature = "telemetry"), allow(dead_code))]
pub(crate) struct PipelineMetrics {
    /// Requests currently in flight.
    pub(crate) in_flight: Gauge,
    /// Window occupancy observed at each submit.
    pub(crate) occupancy: Histogram,
    /// Submit-to-finish (FIFO) latency, seconds.
    pub(crate) fifo_latency: Histogram,
}

/// A pipeline's optional telemetry attachment (same contract as
/// [`Sink`]).
#[cfg_attr(not(feature = "telemetry"), allow(dead_code))]
pub(crate) struct PipelineSink(Option<PipelineMetrics>);

impl PipelineSink {
    pub(crate) fn none() -> Self {
        PipelineSink(None)
    }

    pub(crate) fn attach(&mut self, tel: &Telemetry) {
        self.0 = Some(PipelineMetrics {
            in_flight: tel.registry.gauge("scec_pipeline_in_flight", &[]),
            occupancy: tel
                .registry
                .histogram("scec_pipeline_window_occupancy", &[]),
            fifo_latency: tel
                .registry
                .histogram("scec_pipeline_fifo_latency_seconds", &[]),
        });
    }

    #[inline]
    pub(crate) fn with(&self, f: impl FnOnce(&PipelineMetrics)) {
        #[cfg(feature = "telemetry")]
        if let Some(m) = &self.0 {
            f(m);
        }
        #[cfg(not(feature = "telemetry"))]
        let _ = f;
    }
}

/// Device-actor side: timestamp for a compute span, `Duration::ZERO`
/// when nothing will be recorded.
#[inline]
pub(crate) fn actor_now(tel: &Option<Arc<Telemetry>>, clock: &Arc<dyn Clock>) -> Duration {
    #[cfg(feature = "telemetry")]
    if tel.is_some() {
        return clock.now();
    }
    let _ = (tel, clock);
    Duration::ZERO
}

/// Device-actor side: records the per-device compute span for one
/// served query. With a wire-propagated `ctx`, the span is minted a
/// deterministic id and parented onto the sender's dispatch span, so
/// device-side and Router-side traces stitch into one tree.
#[inline]
pub(crate) fn actor_span(
    tel: &Option<Arc<Telemetry>>,
    clock: &Arc<dyn Clock>,
    start: Duration,
    request: u64,
    device: usize,
    ctx: Option<TraceContext>,
) {
    #[cfg(feature = "telemetry")]
    if let Some(t) = tel {
        let end = clock.now();
        let dur = end.saturating_sub(start);
        match ctx {
            Some(ctx) if ctx.sampled => t.tracer.span_ctx(
                start,
                dur,
                Stage::DeviceCompute,
                Some(request),
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
            _ => t.tracer.span(
                start,
                dur,
                Stage::DeviceCompute,
                Some(request),
                Some(device),
            ),
        }
    }
    let _ = (tel, clock, start, request, device, ctx);
}

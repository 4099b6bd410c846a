//! The frozen workload definitions and the metric names `BENCHMARK.json`
//! lists. Op counts are fixed (not time-boxed) so counts repeat exactly:
//! they were sized once on the reference box, pinned to one of its CPUs, so
//! that a run measures for about `REFERENCE_SECONDS`, and scale linearly
//! with `--seconds`.

/// `--seconds` value the op counts below were sized for (`run_seconds` in
/// `BENCHMARK.json`): on the reference box the five untraced runs take 12
/// to 15 s each.
pub const REFERENCE_SECONDS: f64 = 15.0;

/// Rounds per run. A round is: the timed set-ups, one latency block, one
/// throughput round, in that order, with the host-speed gauge read between
/// them. The shared host changes speed for seconds at a time, so one long
/// phase per metric would put a whole run at one speed; many short
/// interleaved rounds, each divided by the speed read beside it, sample all
/// of them, and every end-to-end timing is a median over the rounds.
pub const ROUNDS: usize = 40;

/// Timed set-ups per round (`setup_s` is the median over all of a run's).
/// The first of a round runs on caches the throughput round left cold and
/// takes up to twice as long as the rest; with four, three quarters of the
/// samples are of the warm kind and the median sits among them, where with
/// two it fell between the two kinds.
pub const SETUPS_PER_ROUND: usize = 4;

/// One workload: a shape, a path through the system, and op counts.
pub struct Spec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists: which layers it loads and which it bypasses.
    pub why: &'static str,
    /// Data rows `m`.
    pub m: usize,
    /// Data columns / query length `l`.
    pub l: usize,
    /// Distinct queries in the seeded pool.
    pub pool: usize,
    /// Sequential queries of one round's latency block.
    pub latency_ops: usize,
    /// Queries of one throughput round (per tenant for the Router; a churn
    /// cycle's counts are fixed by the cycle itself).
    pub round_ops: usize,
    /// Queries in flight (stream) or panels in flight (panels).
    pub window: usize,
    /// Panel width `k`; 0 for the per-query `QueryPipeline`.
    pub panel: usize,
}

/// Sequential and pipelined queries of one `tcp_churn_install` cycle.
pub const CHURN_SEQUENTIAL: usize = 16;
/// Pipelined (window 16) queries of one `tcp_churn_install` cycle.
pub const CHURN_PIPELINED: usize = 48;
/// Churn cycles per run at the reference scale.
pub const CHURN_CYCLES: usize = 450;
/// Blocks a churn run is cut into for its per-block statistics, each with
/// the host-speed gauge read before and after it.
pub const CHURN_BLOCKS: usize = 25;
/// Cycles served by one `DeviceServer` before it is replaced: the server
/// keeps a duplicated descriptor per finished connection until shutdown,
/// so a bounded rotation keeps a run clear of descriptor limits.
pub const CHURN_CYCLES_PER_SERVER: usize = 64;
/// Queries per ladder round for `tcp_churn_install`, whose own rounds are
/// whole arrivals: the ladder replays only its pipelined query mix.
pub const CHURN_LADDER_OPS: usize = 640;
/// Tenants of the `router_small_panels` throughput rounds.
pub const ROUTER_TENANTS: usize = 2;

/// The five workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "tcp_small_stream",
        why: "m=8 l=16 over loopback TCP, QueryPipeline w16: per-message cost (codec, syscalls, thread hand-offs) is nearly all of a query, the kernel under 2%; wire/serve/runtime changes show, linalg must not",
        m: 8,
        l: 16,
        pool: 4096,
        latency_ops: 2_400,
        round_ops: 18_000,
        window: 16,
        panel: 0,
    },
    Spec {
        name: "router_small_panels",
        why: "same shape through Router::run (2 tenants, panel 16, window 4): admission gate, tenant threads and panel batching on top of the TCP path, which tcp_small_stream bypasses",
        m: 8,
        l: 16,
        pool: 4096,
        latency_ops: 2_240,
        round_ops: 64_000,
        window: 4,
        panel: 16,
    },
    Spec {
        name: "inproc_large_panels",
        why: "m=256 l=1024 in-process, PanelPipeline k32 w2 plus single-query latency: about 0.4M field mults per query, so linalg owns the time and wire/serve are absent; serving-tier work predicts no change",
        m: 256,
        l: 1024,
        pool: 512,
        latency_ops: 160,
        round_ops: 1_152,
        window: 2,
        panel: 32,
    },
    Spec {
        name: "tcp_churn_install",
        why: "m=256 l=1024 over TCP, repeated build-encode-connect-install-64 queries-shutdown: the write side (tenant arrival, re-plan); allocation, encode, bulk frames, accept and thread spawn dominate",
        m: 256,
        l: 1024,
        pool: 512,
        latency_ops: 0,
        round_ops: 0,
        window: 16,
        panel: 0,
    },
    Spec {
        name: "inproc_supervised_quorum",
        why: "m=48 l=96 SupervisedCluster on honest devices, QueryPipeline w16: tagged quorum collect, per-partial Freivalds and the straggler decode instead of the m-subtraction fast path",
        m: 48,
        l: 96,
        pool: 4096,
        latency_ops: 3_000,
        round_ops: 26_000,
        window: 16,
        panel: 0,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

/// `count` scaled by `scale`, rounded to a multiple of `unit`, at least
/// one unit.
pub fn scaled(count: usize, scale: f64, unit: usize) -> usize {
    let units = (count as f64 * scale / unit as f64).round() as usize;
    units.max(1) * unit
}

/// Unit, direction and regression bound of one end-to-end metric.
pub struct EndToEndMetric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Whether larger values are better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The six end-to-end metrics every workload reports with `--trace 0`.
/// The three timings are at the reference host speed (see
/// `harness::host_slowness`); the wall-clock figures are printed beside them.
///
/// Bounds: ten seeds per workload spread (IQR over median) by at most 4.3 %
/// on throughput (12 % once, on `router_small_panels`), 4.9 % on the median
/// latency, 4.1 % on peak RSS and 12 % on the set-up time, and two such sets
/// agree to 6 %, 5 %, 2 % and 10 %.
///
/// `latency_p99_us` is not among them: two same-code sets of ten runs
/// differed by 26 % (`tcp_small_stream`) and 36 % (`router_small_panels`)
/// on it before the runs were pinned and speed-normalised, and ten seeds
/// still spread by 15 % on `inproc_large_panels` after, so by the issue's
/// own rule it is the per-layer metric `runtime.latency_p99_us`.
pub const END_TO_END: [EndToEndMetric; 6] = [
    EndToEndMetric {
        name: "throughput_qps",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.20,
    },
    EndToEndMetric {
        name: "latency_p50_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.15,
    },
    EndToEndMetric {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEndMetric {
        name: "verified_ops_share",
        unit: "share",
        higher_is_better: true,
        bound: 0.001,
    },
    EndToEndMetric {
        name: "cost_per_query",
        unit: "cost",
        higher_is_better: false,
        bound: 0.001,
    },
    EndToEndMetric {
        name: "peak_rss_mib",
        unit: "MiB",
        higher_is_better: false,
        bound: 0.15,
    },
];

/// Name, unit and whether higher is better, for every per-layer metric a
/// `--trace 1` run reports (prefix = crate). A metric that does not apply
/// to a workload (no codec on an in-process path, no Router under
/// `tcp_small_stream`) reads 0 there.
pub const PER_LAYER: [(&str, &str, bool); 76] = [
    ("harness.calibration_ns", "ns", false),
    ("harness.calibration_drift_share", "share", false),
    ("harness.round_spread_share", "share", false),
    ("harness.generator_ns_per_query", "ns", false),
    ("harness.trace_overhead_share", "share", false),
    ("harness.failed_ops_share", "share", false),
    ("allocation.ta1_ns", "ns", false),
    ("allocation.plan_cost", "cost", false),
    ("allocation.plan_cost_over_lower_bound", "ratio", false),
    ("allocation.devices_used", "count", false),
    ("allocation.random_rows", "count", false),
    ("coding.encode_ns", "ns", false),
    ("coding.encode_ns_per_elem", "ns", false),
    ("coding.stack_ns_per_query", "ns", false),
    ("coding.decode_ns_per_query", "ns", false),
    ("coding.plan_build_ns", "ns", false),
    ("core.build_ns", "ns", false),
    ("core.inline_query_ns_per_query", "ns", false),
    ("core.keygen_ns", "ns", false),
    ("core.freivalds_ns_per_query", "ns", false),
    ("linalg.compute_busy_ns_per_query", "ns", false),
    ("linalg.compute_critical_ns_per_query", "ns", false),
    ("linalg.field_mults_per_query", "count", false),
    ("linalg.field_adds_per_query", "count", false),
    ("linalg.ns_per_mult", "ns", false),
    ("linalg.computed_bytes_per_query", "B", false),
    ("linalg.simd_active", "bool", true),
    ("runtime.channel_ns_per_query", "ns", false),
    ("runtime.self_ns_per_query", "ns", false),
    ("runtime.begin_busy_ns_per_query", "ns", false),
    ("runtime.finish_wait_ns_per_query", "ns", false),
    ("runtime.pipeline_self_ns_per_query", "ns", false),
    ("runtime.latency_p99_us", "us", false),
    ("runtime.window_occupancy_mean", "count", true),
    ("runtime.panel_fill_mean", "share", true),
    ("runtime.launch_ns", "ns", false),
    ("runtime.shutdown_ns", "ns", false),
    ("runtime.supervisor_self_ns_per_query", "ns", false),
    ("runtime.retries_total", "count", false),
    ("runtime.repairs_total", "count", false),
    ("wire.simlink_ns_per_query", "ns", false),
    ("wire.self_ns_per_query", "ns", false),
    ("wire.encode_query_ns", "ns", false),
    ("wire.decode_query_ns", "ns", false),
    ("wire.encode_response_ns", "ns", false),
    ("wire.decode_response_ns", "ns", false),
    ("wire.bytes_sent_per_query", "B", false),
    ("wire.bytes_received_per_query", "B", false),
    ("wire.frames_per_query", "count", false),
    ("wire.install_bytes", "B", false),
    ("wire.header_share", "share", false),
    ("serve.tcp_ns_per_query", "ns", false),
    ("serve.socket_self_ns_per_query", "ns", false),
    ("serve.router_ns_per_query", "ns", false),
    ("serve.router_self_ns_per_query", "ns", false),
    ("serve.bind_ns", "ns", false),
    ("serve.connect_ns", "ns", false),
    ("serve.install_ns", "ns", false),
    ("serve.admission_peak_in_flight", "count", true),
    ("serve.admission_cap", "count", true),
    ("serve.server_accepted", "count", false),
    ("serve.server_rejected", "count", false),
    ("serve.server_queries_served", "count", false),
    ("serve.server_clean_closes", "count", false),
    ("serve.router_p99_bucket_us", "us", false),
    ("telemetry.stage_ns.encode", "ns", false),
    ("telemetry.stage_ns.dispatch", "ns", false),
    ("telemetry.stage_ns.device_compute", "ns", false),
    ("telemetry.stage_ns.collect", "ns", false),
    ("telemetry.stage_ns.decode", "ns", false),
    ("telemetry.spans_recorded", "count", true),
    ("telemetry.spans_dropped", "count", false),
    ("telemetry.attach_overhead_share", "share", false),
    ("telemetry.cost_observed_over_predicted", "ratio", false),
    ("waterfall.top_rung_ns_per_query", "ns", false),
    ("waterfall.closure_share", "share", false),
];

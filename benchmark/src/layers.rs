//! The traced run (`--trace 1`): the workload at a quarter of the ops,
//! once bare and once under the benchmark's spans with the program's
//! `Telemetry` attached; per-layer probes on the workload's own shapes and
//! messages; and the waterfall, the same seeded stream replayed up the
//! ladder R0 kernel → R1 `core` inline → R2 `ChannelTransport` → R3
//! `SimLinkTransport` → R4 TCP loopback → R5 `Router`, stopping at the
//! rung that is the workload's own configuration. No end-to-end timing
//! comes from here.

use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;

use scec_allocation::{bound, ta};
use scec_coding::{decode, DecodePlan, Encoder, TaggedResponse};
use scec_core::{Deployment, IntegrityKey, ScecSystem};
use scec_linalg::{simd, Fp61, Matrix, Vector};
use scec_runtime::message::{FromDevice, ToDevice};
use scec_runtime::transport::frames;
use scec_runtime::{Stage, SupervisedCluster, Telemetry};
use scec_serve::{DeviceServer, LoadConfig, Router};

use crate::backends::{
    bind_server, build_system, fleet, launch, launch_straggler_twin, launch_supervised,
    panel_round, stream_round, Cluster, Link, NoOp, Round, Tally,
};
use crate::harness::{calibration_ns, median, median_ns, rng_for, Inputs, Recorder};
use crate::spec::{scaled, Spec, CHURN_LADDER_OPS, PER_LAYER, ROUTER_TENANTS};
use crate::workloads::{self, Outcome, Params, Probe};

/// Share of the untraced op counts the traced run replays.
const TRACED_SHARE: f64 = 0.25;
/// Measured rounds per ladder rung (after one warm-up round).
const RUNG_ROUNDS: usize = 11;
/// Wall-time target of one per-call probe; the call count is whatever
/// fits, between 30 and 1000.
const PROBE_SECONDS: f64 = 0.25;

/// What a traced run reports.
pub struct LayerReport {
    /// Every per-layer metric, in `PER_LAYER` order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Operations attempted and failed across both passes and the ladder.
    pub tally: Tally,
    /// Correctness-gate breaches.
    pub violations: Vec<String>,
    /// Warnings worth a line of output (noisy box, ledger not reconciled).
    pub warnings: Vec<String>,
    /// The traced pass's spans as a Chrome trace.
    pub chrome_trace: String,
}

struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    fn new() -> Self {
        Metrics(PER_LAYER.iter().map(|&(name, _, _)| (name, 0.0)).collect())
    }

    fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .iter_mut()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        slot.1 = value;
    }

    fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
            .1
    }
}

/// Median nanoseconds per call of `f`, with as many calls as fit
/// `PROBE_SECONDS` (30 to 1000).
fn probe_ns(mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let once = t.elapsed().as_secs_f64().max(1e-9);
    let reps = ((PROBE_SECONDS / once) as usize).clamp(30, 1000);
    median_ns(reps, f)
}

/// The `l × k` panels the panel workloads' per-call probes cycle through.
fn panels(inputs: &Inputs, k: usize) -> Vec<Matrix<Fp61>> {
    let l = inputs.x(0).len();
    (0..8)
        .map(|p| {
            let mut flat = Vec::with_capacity(l * k);
            for row in 0..l {
                for col in 0..k {
                    flat.push(inputs.x(p * k + col).as_slice()[row]);
                }
            }
            Matrix::from_flat(l, k, flat).expect("l × k values")
        })
        .collect()
}

/// Runs the traced flavour of `p.spec`.
pub fn run(p: &Params) -> LayerReport {
    let spec = p.spec;
    let supervised = spec.name == "inproc_supervised_quorum";
    let mut m = Metrics::new();
    let mut warnings = Vec::new();
    let cal_before = calibration_ns();

    let quarter = Params {
        spec,
        seed: p.seed,
        scale: p.scale * TRACED_SHARE,
    };
    let probe = Probe {
        rec: Recorder::new(),
        tel: Arc::new(Telemetry::new()),
    };
    let traced = workloads::run(&quarter, Some(&probe), &mut |_, _| {});
    let inputs = Inputs::generate(p.seed, spec.m, spec.l, spec.pool);
    if supervised {
        supervised_probes(&mut m, spec, &inputs, p.seed);
    } else {
        base_probes(&mut m, spec, &inputs, p.seed);
    }
    // The bare pass, with the top rung paired into it: beside each of its
    // throughput rounds (before it and after it in turn) the same stream
    // slice runs once more on a second instance of the workload's own
    // configuration. The closure check divides the two medians; taken
    // round by round from the same stretches of time, they share whatever
    // the box was doing.
    let mut top = TopRung::launch(spec, &inputs, p.seed);
    let mut top_ns = Vec::new();
    let mut tally = Tally::default();
    let bare = workloads::run(&quarter, None, &mut |start, n| {
        let round = top.round(spec, &inputs, start, n);
        tally.absorb(round.tally);
        top_ns.push(round.elapsed.as_nanos() as f64 / round.tally.attempted as f64);
    });
    top.shutdown();
    from_traced_pass(&mut m, spec, &bare, &traced, &probe, &mut warnings);
    tally.absorb(bare.tally);
    tally.absorb(traced.tally);
    let mut violations = bare.violations.clone();
    violations.extend(traced.violations.iter().cloned());

    let round_ops = if spec.round_ops == 0 {
        CHURN_LADDER_OPS
    } else {
        spec.round_ops
    };
    let n = scaled(round_ops, quarter.scale, spec.panel.max(1));
    let ladder_tally = if supervised {
        supervised_ladder(&mut m, spec, &inputs, p.seed, n)
    } else {
        base_ladder(&mut m, spec, &inputs, p.seed, n)
    };
    tally.absorb(ladder_tally);

    // Framing share of a query's traffic: measured bytes against the
    // payload the shapes dictate (8-byte elements; every device receives
    // the query, the partials together are the m + r coded rows).
    let wire_per_query =
        m.get("wire.bytes_sent_per_query") + m.get("wire.bytes_received_per_query");
    if wire_per_query > 0.0 {
        let rows = spec.m as f64 + m.get("allocation.random_rows");
        let payload = 8.0 * (m.get("allocation.devices_used") * spec.l as f64 + rows);
        m.set("wire.header_share", 1.0 - payload / wire_per_query);
    }

    // Closure: the paired top rung's time per query over the bare pass's.
    // The churn workload has no single rung (its unit of work is a whole
    // arrival), so there the spans themselves must add back up: the time
    // under root spans over the traced pass's wall.
    let closure = if top_ns.is_empty() {
        m.set(
            "waterfall.top_rung_ns_per_query",
            m.get("serve.tcp_ns_per_query"),
        );
        probe.rec.root_ns() as f64 / traced.wall.as_nanos() as f64
    } else {
        // Round by round: each pair shares its stretch of time, so the
        // ratio holds even when the box flips between placements mid-run.
        let mut ratios: Vec<f64> = top_ns
            .iter()
            .zip(&bare.rounds)
            .map(|(top, round)| top * round.qps() / 1e9)
            .collect();
        m.set("waterfall.top_rung_ns_per_query", median(&mut top_ns));
        median(&mut ratios)
    };
    m.set("waterfall.closure_share", closure);

    let cal_after = calibration_ns();
    m.set("harness.calibration_ns", cal_before.min(cal_after));
    let drift = (cal_after - cal_before).abs() / cal_before.min(cal_after);
    m.set("harness.calibration_drift_share", drift);
    if drift > 0.10 {
        warnings.push(format!(
            "noisy: the calibration spin read {cal_before:.0} ns before and {cal_after:.0} ns after the run"
        ));
    }
    m.set(
        "harness.failed_ops_share",
        tally.failed as f64 / tally.attempted.max(1) as f64,
    );
    LayerReport {
        metrics: m.0,
        tally,
        violations,
        warnings,
        chrome_trace: probe.rec.render_chrome_trace(spec.name),
    }
}

/// Everything read off the two workload passes: exact counts at the
/// layer boundaries, the spans' busy/wait split, the program's own stage
/// spans and cost ledger.
fn from_traced_pass(
    m: &mut Metrics,
    spec: &Spec,
    bare: &Outcome,
    traced: &Outcome,
    probe: &Probe,
    warnings: &mut Vec<String>,
) {
    let c = &traced.counts;
    let q = c.queries.max(1) as f64;
    m.set("harness.round_spread_share", bare.round_spread_share());
    // Over the throughput rounds only: the bare pass's wall also holds the
    // paired top-rung rounds.
    let rounds_secs =
        |o: &Outcome| -> f64 { o.rounds.iter().map(|r| r.elapsed.as_secs_f64()).sum() };
    m.set(
        "harness.trace_overhead_share",
        rounds_secs(traced) / rounds_secs(bare) - 1.0,
    );
    m.set("linalg.field_mults_per_query", c.field_mults as f64 / q);
    m.set("linalg.field_adds_per_query", c.field_adds as f64 / q);
    m.set("linalg.simd_active", f64::from(u8::from(simd::active())));

    let span_mean = |name: &str| {
        let t = probe.rec.total(name);
        t.total_ns as f64 / t.count.max(1) as f64
    };
    let round_queries: u64 = traced.rounds.iter().map(|r| r.tally.attempted).sum();
    // Under the Router the benchmark cannot reach the tenants' clusters;
    // begin/finish are then seen on the latency blocks' pipeline instead.
    let wrapped_queries = if spec.name == "router_small_panels" {
        traced.latency_samples() as u64
    } else {
        round_queries
    };
    m.set(
        "runtime.begin_busy_ns_per_query",
        probe.rec.total("runtime.begin").total_ns as f64 / wrapped_queries.max(1) as f64,
    );
    m.set(
        "runtime.finish_wait_ns_per_query",
        probe.rec.total("runtime.finish").total_ns as f64 / wrapped_queries.max(1) as f64,
    );
    // What the program's pipeline engine spends itself: its `submit` and
    // `collect` spans minus the `begin`/`finish` spans nested in them.
    m.set(
        "runtime.pipeline_self_ns_per_query",
        (probe.rec.total("runtime.submit").self_ns + probe.rec.total("runtime.collect").self_ns)
            as f64
            / wrapped_queries.max(1) as f64,
    );
    m.set("runtime.latency_p99_us", bare.latency_pooled_us(0.99));
    let broadcasts: u64 = traced.rounds.iter().map(|r| r.broadcasts).sum();
    let occupancy: u64 = traced.rounds.iter().map(|r| r.occupancy_sum).sum();
    m.set(
        "runtime.window_occupancy_mean",
        occupancy as f64 / broadcasts.max(1) as f64,
    );
    let panels: u64 = traced.rounds.iter().map(|r| r.panels).sum();
    let panel_cols: u64 = traced.rounds.iter().map(|r| r.panel_cols).sum();
    if panels > 0 {
        m.set(
            "runtime.panel_fill_mean",
            panel_cols as f64 / (panels * spec.panel as u64) as f64,
        );
    }
    m.set("runtime.launch_ns", span_mean("runtime.launch"));
    m.set("runtime.shutdown_ns", span_mean("runtime.shutdown"));
    m.set("runtime.retries_total", c.retries as f64);
    m.set("runtime.repairs_total", c.repairs as f64);

    m.set("wire.bytes_sent_per_query", c.wire_sent as f64 / q);
    m.set("wire.bytes_received_per_query", c.wire_received as f64 / q);
    m.set("wire.frames_per_query", 2.0 * c.served as f64 / q);
    m.set("wire.install_bytes", c.install_bytes as f64);

    m.set("serve.bind_ns", span_mean("serve.bind"));
    if !traced.connect_ns.is_empty() {
        m.set("serve.connect_ns", median(&mut traced.connect_ns.clone()));
        m.set("serve.install_ns", median(&mut traced.install_ns.clone()));
    }
    m.set("serve.admission_peak_in_flight", c.admission_peak as f64);
    m.set("serve.admission_cap", c.admission_cap as f64);
    m.set("serve.server_accepted", c.server_accepted as f64);
    m.set("serve.server_rejected", c.server_rejected as f64);
    m.set(
        "serve.server_queries_served",
        c.server_queries_served as f64,
    );
    m.set("serve.server_clean_closes", c.server_clean_closes as f64);
    m.set("serve.router_p99_bucket_us", c.router_p99_s * 1e6);

    let events = probe.tel.tracer.events();
    for (stage, name) in [
        (Stage::Encode, "telemetry.stage_ns.encode"),
        (Stage::Dispatch, "telemetry.stage_ns.dispatch"),
        (Stage::DeviceCompute, "telemetry.stage_ns.device_compute"),
        (Stage::Collect, "telemetry.stage_ns.collect"),
        (Stage::Decode, "telemetry.stage_ns.decode"),
    ] {
        let (sum, count) = events
            .iter()
            .filter(|e| e.name == stage.as_str())
            .filter_map(|e| e.dur)
            .fold((0.0, 0u64), |(s, c), d| (s + d.as_nanos() as f64, c + 1));
        m.set(name, sum / count.max(1) as f64);
    }
    m.set("telemetry.spans_recorded", probe.tel.tracer.len() as f64);
    m.set("telemetry.spans_dropped", probe.tel.tracer.dropped() as f64);
    let ledger = probe.tel.costs.report();
    if ledger.predicted_cost > 0.0 {
        let ratio = ledger.observed_cost / ledger.predicted_cost;
        m.set("telemetry.cost_observed_over_predicted", ratio);
        if ratio != 1.0 {
            warnings.push(format!(
                "cost ledger does not reconcile: observed {} vs predicted {}",
                ledger.observed_cost, ledger.predicted_cost
            ));
        }
    }
}

/// Per-call probes of the base protocol's layers on the workload's shape:
/// TA-1, system build, encode, key generation, and — per query or per
/// panel of the workload's width — device compute, stack, decode,
/// Freivalds and the inline query; plus the wire codec's four frames on
/// the TCP workloads.
fn base_probes(m: &mut Metrics, spec: &Spec, inputs: &Inputs, seed: u64) {
    let mut rng = rng_for(seed, 1000);
    let fleet = fleet();
    let k = spec.panel.max(1);
    m.set(
        "allocation.ta1_ns",
        probe_ns(|| {
            black_box(ta::ta1(spec.m, &fleet).expect("ta1"));
        }),
    );
    let system = build_system(&inputs.a, &mut rng);
    plan_metrics(m, &system);
    m.set(
        "core.build_ns",
        probe_ns(|| {
            black_box(build_system(&inputs.a, &mut rng));
        }),
    );
    let design = system.design().clone();
    let encoder = Encoder::new(design.clone());
    let encode_ns = probe_ns(|| {
        black_box(encoder.encode(&inputs.a, &mut rng).expect("encode"));
    });
    m.set("coding.encode_ns", encode_ns);
    m.set(
        "coding.encode_ns_per_elem",
        encode_ns / (design.total_rows() * spec.l) as f64,
    );
    m.set(
        "coding.plan_build_ns",
        probe_ns(|| {
            black_box(DecodePlan::<Fp61>::structured(&design).expect("plan"));
        }),
    );
    m.set(
        "core.keygen_ns",
        probe_ns(|| {
            black_box(IntegrityKey::generate(&inputs.a, &mut rng).expect("key"));
        }),
    );
    let key = IntegrityKey::generate(&inputs.a, &mut rng).expect("key");
    let deployment = system.distribute(&mut rng).expect("distribute");
    let rows = design.total_rows();
    let mut i = 0;
    let mut next = |len: usize| {
        i = (i + 1) % len;
        i
    };

    let (busy, critical);
    if spec.panel == 0 {
        let per_device: Vec<f64> = deployment
            .devices()
            .iter()
            .map(|d| {
                probe_ns(|| {
                    black_box(d.compute(inputs.x(next(spec.pool))).expect("compute"));
                })
            })
            .collect();
        busy = per_device.iter().sum::<f64>();
        critical = per_device.iter().copied().fold(0.0, f64::max);
        let partials = deployment.partials(inputs.x(0)).expect("partials");
        m.set(
            "coding.stack_ns_per_query",
            probe_ns(|| {
                black_box(decode::stack_partials(&partials));
            }),
        );
        let btx = decode::stack_partials(&partials);
        m.set(
            "coding.decode_ns_per_query",
            probe_ns(|| {
                black_box(decode::decode_fast(&design, &btx).expect("decode"));
            }),
        );
        m.set(
            "core.freivalds_ns_per_query",
            probe_ns(|| {
                let j = next(spec.pool);
                black_box(key.verify(inputs.x(j), inputs.truth(j)).expect("verify"));
            }),
        );
        m.set(
            "core.inline_query_ns_per_query",
            probe_ns(|| {
                black_box(deployment.query(inputs.x(next(spec.pool))).expect("query"));
            }),
        );
    } else {
        let xs = panels(inputs, k);
        let per_device: Vec<f64> = deployment
            .devices()
            .iter()
            .map(|d| {
                probe_ns(|| {
                    black_box(
                        d.share()
                            .coded()
                            .matmul(&xs[next(xs.len())])
                            .expect("matmul"),
                    );
                }) / k as f64
            })
            .collect();
        busy = per_device.iter().sum::<f64>();
        critical = per_device.iter().copied().fold(0.0, f64::max);
        let partials: Vec<Matrix<Fp61>> = deployment
            .devices()
            .iter()
            .map(|d| d.share().coded().matmul(&xs[0]).expect("matmul"))
            .collect();
        m.set(
            "coding.stack_ns_per_query",
            probe_ns(|| {
                black_box(decode::stack_partial_matrices(&partials).expect("stack"));
            }) / k as f64,
        );
        let btx = decode::stack_partial_matrices(&partials).expect("stack");
        m.set(
            "coding.decode_ns_per_query",
            probe_ns(|| {
                black_box(decode::decode_fast_batch(&design, &btx).expect("decode"));
            }) / k as f64,
        );
        let ys = inputs.a.matmul(&xs[0]).expect("truth panel");
        m.set(
            "core.freivalds_ns_per_query",
            probe_ns(|| {
                black_box(key.verify_panel(&xs[0], &ys).expect("verify"));
            }) / k as f64,
        );
        m.set(
            "core.inline_query_ns_per_query",
            probe_ns(|| {
                black_box(deployment.query_batch(&xs[next(xs.len())]).expect("query"));
            }) / k as f64,
        );
    }
    kernel_metrics(m, busy, critical, rows, spec.l, k);
    if spec.name != "inproc_large_panels" {
        codec_probes(m, spec, inputs, &deployment);
    }
}

fn plan_metrics(m: &mut Metrics, system: &ScecSystem<Fp61>) {
    let plan = system.plan();
    let lower = bound::lower_bound(plan.data_rows(), &fleet()).expect("lower bound");
    m.set("allocation.plan_cost", plan.total_cost());
    m.set(
        "allocation.plan_cost_over_lower_bound",
        plan.total_cost() / lower,
    );
    m.set("allocation.devices_used", plan.device_count() as f64);
    m.set("allocation.random_rows", plan.random_rows() as f64);
}

/// Rung R0 and what follows from the shapes alone: `rows × l` multiplies
/// per query; bytes touched are the share (once per panel), the query and
/// the partial, 8 bytes an element — computed, not measured.
fn kernel_metrics(m: &mut Metrics, busy: f64, critical: f64, rows: usize, l: usize, k: usize) {
    m.set("linalg.compute_busy_ns_per_query", busy);
    m.set("linalg.compute_critical_ns_per_query", critical);
    m.set("linalg.ns_per_mult", busy / (rows * l) as f64);
    m.set(
        "linalg.computed_bytes_per_query",
        8.0 * ((rows * l) as f64 / k as f64 + (3 * l + rows) as f64),
    );
}

/// The four frames of one query on the wire, through the codec functions
/// both transports and the device server share.
fn codec_probes(m: &mut Metrics, spec: &Spec, inputs: &Inputs, deployment: &Deployment<Fp61>) {
    let device = &deployment.devices()[0];
    let (query, response): (ToDevice<Fp61>, FromDevice<Fp61>) = if spec.panel == 0 {
        (
            ToDevice::Query {
                request: 7,
                x: Arc::new(inputs.x(0).clone()),
                ctx: None,
            },
            FromDevice::Partial {
                request: 7,
                device: device.device(),
                values: device.compute(inputs.x(0)).expect("compute"),
            },
        )
    } else {
        let xs = panels(inputs, spec.panel).swap_remove(0);
        let values = device.share().coded().matmul(&xs).expect("matmul");
        (
            ToDevice::QueryBatch {
                request: 7,
                xs: Arc::new(xs),
                ctx: None,
            },
            FromDevice::BatchPartial {
                request: 7,
                device: device.device(),
                values,
            },
        )
    };
    let mut buf = Vec::new();
    m.set(
        "wire.encode_query_ns",
        probe_ns(|| {
            black_box(frames::encode_to_device(&query, &mut buf));
        }),
    );
    let query_frame = buf.clone();
    m.set(
        "wire.decode_query_ns",
        probe_ns(|| {
            black_box(frames::decode_to_device::<Fp61>(&query_frame).expect("decode"));
        }),
    );
    m.set(
        "wire.encode_response_ns",
        probe_ns(|| {
            frames::encode_response(&response, &mut buf);
            black_box(&buf);
        }),
    );
    let response_frame = buf.clone();
    m.set(
        "wire.decode_response_ns",
        probe_ns(|| {
            black_box(frames::decode_response::<Fp61>(&response_frame).expect("decode"));
        }),
    );
}

/// The supervised workload's layers: the straggler code's encode, tagged
/// per-device compute, per-partial Freivalds and the quorum decode.
fn supervised_probes(m: &mut Metrics, spec: &Spec, inputs: &Inputs, seed: u64) {
    let mut rng = rng_for(seed, 1000);
    let fleet = fleet();
    m.set(
        "allocation.ta1_ns",
        probe_ns(|| {
            black_box(ta::ta1(spec.m, &fleet).expect("ta1"));
        }),
    );
    plan_metrics(m, &build_system(&inputs.a, &mut rng));
    let twin = launch_straggler_twin(&inputs.a, &mut rng);
    let code = twin.code().clone();
    twin.shutdown();
    let encode_ns = probe_ns(|| {
        black_box(code.encode(&inputs.a, &mut rng).expect("encode"));
    });
    m.set("coding.encode_ns", encode_ns);
    m.set(
        "coding.encode_ns_per_elem",
        encode_ns / (code.total_rows() * spec.l) as f64,
    );
    m.set(
        "coding.plan_build_ns",
        probe_ns(|| {
            black_box(DecodePlan::<Fp61>::structured(code.base()).expect("plan"));
        }),
    );
    let store = code.encode(&inputs.a, &mut rng).expect("encode");
    m.set(
        "core.keygen_ns",
        probe_ns(|| {
            for share in store.shares() {
                black_box(IntegrityKey::generate(share.coded(), &mut rng).expect("key"));
            }
        }),
    );
    let mut i = 0;
    let mut next = || {
        i = (i + 1) % spec.pool;
        i
    };
    let per_device: Vec<f64> = store
        .shares()
        .iter()
        .map(|s| {
            probe_ns(|| {
                black_box(s.compute(inputs.x(next())).expect("compute"));
            })
        })
        .collect();
    kernel_metrics(
        m,
        per_device.iter().sum(),
        per_device.iter().copied().fold(0.0, f64::max),
        code.total_rows(),
        spec.l,
        1,
    );
    let responses: Vec<TaggedResponse<Fp61>> = store
        .shares()
        .iter()
        .flat_map(|s| s.compute(inputs.x(0)).expect("compute"))
        .collect();
    m.set(
        "coding.decode_ns_per_query",
        probe_ns(|| {
            black_box(code.decode(&responses).expect("decode"));
        }),
    );
    let keyed: Vec<(IntegrityKey<Fp61>, Vector<Fp61>)> = store
        .shares()
        .iter()
        .map(|s| {
            let values = s.compute(inputs.x(0)).expect("compute");
            (
                IntegrityKey::generate(s.coded(), &mut rng).expect("key"),
                Vector::from_vec(values.iter().map(|r| r.value).collect()),
            )
        })
        .collect();
    m.set(
        "core.freivalds_ns_per_query",
        probe_ns(|| {
            for (key, partial) in &keyed {
                black_box(key.verify(inputs.x(0), partial).expect("verify"));
            }
        }),
    );
    m.set(
        "core.inline_query_ns_per_query",
        probe_ns(|| {
            let x = inputs.x(next());
            let responses: Vec<TaggedResponse<Fp61>> = store
                .shares()
                .iter()
                .flat_map(|s| s.compute(x).expect("compute"))
                .collect();
            black_box(code.decode(&responses).expect("decode"));
        }),
    );
}

/// A second instance of the workload's own configuration — the ladder's
/// top rung — for the rounds paired into the bare pass.
enum TopRung {
    /// The base-protocol cluster over the workload's link (and its server).
    Base(Box<Cluster>, Option<DeviceServer>),
    /// `Router::run` with the workload's two tenants against this server.
    Router(DeviceServer, u64),
    /// The supervised quorum cluster.
    Supervised(Box<SupervisedCluster<Fp61>>),
    /// `tcp_churn_install`: whole arrivals, no rung to pair.
    None,
}

impl TopRung {
    fn launch(spec: &Spec, inputs: &Inputs, seed: u64) -> Self {
        let mut rng = rng_for(seed, 3000);
        match spec.name {
            "tcp_churn_install" => TopRung::None,
            "inproc_supervised_quorum" => {
                TopRung::Supervised(Box::new(launch_supervised(&inputs.a, &mut rng)))
            }
            "router_small_panels" => TopRung::Router(bind_server(), seed),
            _ => {
                let system = build_system(&inputs.a, &mut rng);
                let server = (spec.name == "tcp_small_stream").then(bind_server);
                let link = server
                    .as_ref()
                    .map_or(Link::Channel, |s| Link::Tcp(s.local_addr()));
                TopRung::Base(Box::new(launch(&system, &mut rng, link).cluster), server)
            }
        }
    }

    fn round(&mut self, spec: &Spec, inputs: &Inputs, start: usize, n: usize) -> Round {
        match self {
            TopRung::Base(cluster, _) => base_round(cluster, spec, inputs, start, n),
            TopRung::Router(server, seed) => router_round(
                spec,
                server.local_addr(),
                ROUTER_TENANTS,
                n,
                seed.wrapping_add(1000 + start as u64),
            ),
            TopRung::Supervised(cluster) => {
                stream_round(&**cluster, spec.window, inputs, start, n, None)
            }
            TopRung::None => unreachable!("churn has no rounds to pair with"),
        }
    }

    fn shutdown(self) {
        match self {
            TopRung::Base(cluster, server) => {
                cluster.shutdown();
                if let Some(server) = server {
                    server.shutdown();
                }
            }
            TopRung::Router(server, _) => server.shutdown(),
            TopRung::Supervised(cluster) => cluster.shutdown(),
            TopRung::None => {}
        }
    }
}

/// One rung of the ladder: a metric name and a closure that drives one
/// round of `n` queries starting at the given stream index.
struct Rung<'a> {
    name: &'static str,
    round: Box<dyn FnMut(usize) -> Round + 'a>,
}

impl<'a> Rung<'a> {
    fn new(name: &'static str, round: impl FnMut(usize) -> Round + 'a) -> Self {
        Rung {
            name,
            round: Box::new(round),
        }
    }
}

/// Runs the rungs round-robin — one warm-up round each, then
/// `RUNG_ROUNDS` measured rounds each — and stores every rung's median
/// nanoseconds per query under its name. Interleaving puts every rung
/// through the same stretches of a drifting box, so the differences
/// between rungs (the layers' self times) hold even when the levels move.
fn climb(m: &mut Metrics, rungs: &mut [Rung], n: usize, tally: &mut Tally) {
    let mut ns = vec![Vec::with_capacity(RUNG_ROUNDS); rungs.len()];
    for r in 0..=RUNG_ROUNDS {
        for (rung, samples) in rungs.iter_mut().zip(&mut ns) {
            let done = (rung.round)(1 + r * n);
            if r > 0 {
                tally.absorb(done.tally);
                samples.push(done.elapsed.as_nanos() as f64 / done.tally.attempted as f64);
            }
        }
    }
    for (rung, samples) in rungs.iter().zip(&mut ns) {
        m.set(rung.name, median(samples));
    }
}

/// One round of the workload's own pipeline configuration on `cluster`.
fn base_round(cluster: &Cluster, spec: &Spec, inputs: &Inputs, start: usize, n: usize) -> Round {
    if spec.panel == 0 {
        stream_round(cluster, spec.window, inputs, start, n, None)
    } else {
        panel_round(cluster, spec.panel, spec.window, inputs, start, n, None)
    }
}

/// One `Router::run` of `tenants` × `n` queries, timed from outside.
fn router_round(spec: &Spec, addr: SocketAddr, tenants: usize, n: usize, seed: u64) -> Round {
    let router = Router::new(LoadConfig {
        tenants,
        queries_per_tenant: n,
        panel_width: spec.panel,
        window: spec.window,
        rows: spec.m,
        cols: spec.l,
        seed,
        max_in_flight: 0,
        adaptive: false,
        trace: false,
    })
    .expect("router config is valid");
    let attempted = (tenants * n) as u64;
    let t = Instant::now();
    let report = router.run(addr);
    let elapsed = t.elapsed();
    let verified = report.map_or(0, |r| {
        if r.failures.is_empty() {
            r.tenants.iter().map(|t| t.queries - t.mismatches).sum()
        } else {
            0
        }
    });
    Round {
        elapsed,
        tally: Tally {
            attempted,
            failed: attempted - verified.min(attempted),
        },
        ..Round::default()
    }
}

/// Rungs R2…R5 for the base protocol, the generator's own cost, and the
/// top rung once more with the program's telemetry attached.
fn base_ladder(m: &mut Metrics, spec: &Spec, inputs: &Inputs, seed: u64, n: usize) -> Tally {
    let mut tally = Tally::default();
    let mut rng = rng_for(seed, 2000);
    let system = build_system(&inputs.a, &mut rng);
    let tcp = spec.name != "inproc_large_panels";
    let router = spec.name == "router_small_panels";
    let server = tcp.then(bind_server);
    let addr = server.as_ref().map(|s| s.local_addr());
    let top_link = addr.map_or(Link::Channel, Link::Tcp);
    let top = if tcp {
        "serve.tcp_ns_per_query"
    } else {
        "runtime.channel_ns_per_query"
    };

    let channel = launch(&system, &mut rng, Link::Channel).cluster;
    let simlink = tcp.then(|| launch(&system, &mut rng, Link::Simulated).cluster);
    let socket = addr.map(|a| launch(&system, &mut rng, Link::Tcp(a)).cluster);
    let attached = launch(&system, &mut rng, top_link)
        .cluster
        .with_telemetry(Arc::new(Telemetry::new()));
    {
        let mut rungs = vec![
            Rung::new("harness.generator_ns_per_query", |start| {
                let noop = NoOp::new(inputs, start);
                if spec.panel == 0 {
                    stream_round(&noop, spec.window, inputs, start, n, None)
                } else {
                    panel_round(&noop, spec.panel, spec.window, inputs, start, n, None)
                }
            }),
            Rung::new("runtime.channel_ns_per_query", |start| {
                base_round(&channel, spec, inputs, start, n)
            }),
            // Read back below as the attached rung over the bare top rung.
            Rung::new("telemetry.attach_overhead_share", |start| {
                base_round(&attached, spec, inputs, start, n)
            }),
        ];
        if let (Some(simlink), Some(socket)) = (&simlink, &socket) {
            rungs.push(Rung::new("wire.simlink_ns_per_query", |start| {
                base_round(simlink, spec, inputs, start, n)
            }));
            rungs.push(Rung::new("serve.tcp_ns_per_query", |start| {
                base_round(socket, spec, inputs, start, n)
            }));
        }
        if let (true, Some(addr)) = (router, addr) {
            rungs.push(Rung::new("serve.router_ns_per_query", move |start| {
                router_round(spec, addr, 1, n, seed.wrapping_add(start as u64))
            }));
        }
        climb(m, &mut rungs, n, &mut tally);
    }
    for cluster in [Some(channel), simlink, socket, Some(attached)]
        .into_iter()
        .flatten()
    {
        cluster.shutdown();
    }
    if let Some(server) = server {
        server.shutdown();
    }

    m.set(
        "telemetry.attach_overhead_share",
        m.get("telemetry.attach_overhead_share") / m.get(top) - 1.0,
    );
    m.set(
        "runtime.self_ns_per_query",
        m.get("runtime.channel_ns_per_query") - m.get("core.inline_query_ns_per_query"),
    );
    if tcp {
        m.set(
            "wire.self_ns_per_query",
            m.get("wire.simlink_ns_per_query") - m.get("runtime.channel_ns_per_query"),
        );
        m.set(
            "serve.socket_self_ns_per_query",
            m.get("serve.tcp_ns_per_query") - m.get("wire.simlink_ns_per_query"),
        );
    }
    if router {
        m.set(
            "serve.router_self_ns_per_query",
            m.get("serve.router_ns_per_query") - m.get("serve.tcp_ns_per_query"),
        );
    }
    tally
}

/// The supervised workload's ladder: the plain quorum cluster on the same
/// stream is rung R2, the supervised cluster itself the top.
fn supervised_ladder(m: &mut Metrics, spec: &Spec, inputs: &Inputs, seed: u64, n: usize) -> Tally {
    let mut tally = Tally::default();
    let mut rng: StdRng = rng_for(seed, 2000);
    let twin = launch_straggler_twin(&inputs.a, &mut rng);
    let supervised = launch_supervised(&inputs.a, &mut rng);
    let attached =
        launch_supervised(&inputs.a, &mut rng).with_telemetry(Arc::new(Telemetry::new()));
    let mut rungs = [
        Rung::new("harness.generator_ns_per_query", |start| {
            stream_round(
                &NoOp::new(inputs, start),
                spec.window,
                inputs,
                start,
                n,
                None,
            )
        }),
        Rung::new("runtime.channel_ns_per_query", |start| {
            stream_round(&twin, spec.window, inputs, start, n, None)
        }),
        Rung::new("waterfall.top_rung_ns_per_query", |start| {
            stream_round(&supervised, spec.window, inputs, start, n, None)
        }),
        Rung::new("telemetry.attach_overhead_share", |start| {
            stream_round(&attached, spec.window, inputs, start, n, None)
        }),
    ];
    climb(m, &mut rungs, n, &mut tally);
    drop(rungs);
    twin.shutdown();
    supervised.shutdown();
    attached.shutdown();

    let (plain, top) = (
        m.get("runtime.channel_ns_per_query"),
        m.get("waterfall.top_rung_ns_per_query"),
    );
    m.set(
        "telemetry.attach_overhead_share",
        m.get("telemetry.attach_overhead_share") / top - 1.0,
    );
    m.set(
        "runtime.self_ns_per_query",
        plain - m.get("core.inline_query_ns_per_query"),
    );
    m.set("runtime.supervisor_self_ns_per_query", top - plain);
    tally
}

//! Networked serving tier for the SCEC protocol.
//!
//! The runtime crate proves the protocol over in-process channels; this
//! crate puts it on real sockets without changing a line of cluster
//! logic. Three pieces:
//!
//! * [`DeviceServer`] — a TCP listener hosting the device side: each
//!   accepted connection is one device enrollment by one tenant
//!   (HELLO handshake, admission control, then install/query frames).
//!   Blocking I/O, one thread per connection, no async runtime.
//! * [`TcpTransport`] — the user side: a
//!   [`Transport`](scec_runtime::Transport) implementation over one
//!   socket per device, pluggable into
//!   [`LocalCluster::launch_with_transport`](scec_runtime::LocalCluster::launch_with_transport).
//!   Meters actual wire bytes per device via a shared [`WireMeter`].
//! * [`Router`] — the multi-tenant front end: shards `N` independent
//!   tenants (each its own `A`, code design, and TA-1 plan) across one
//!   shared server, drives panel pipelines under a global admission
//!   gate, and reconciles measured wire bytes against MCSCEC-predicted
//!   bytes in per-tenant cost ledgers.
//!
//! Frames are the `scec-wire` codecs shared with the runtime's
//! simulated link ([`scec_runtime::transport::frames`]), length-prefixed
//! per [`scec_wire::stream`]. Both ends coalesce socket I/O: a buffered
//! [`FrameReader`](scec_wire::stream::FrameReader) takes everything the
//! socket holds per `read`, query frames queue in a per-peer out-buffer
//! until the sender is about to wait, and the server answers a window
//! of requests with one `write` — with the max-frame-size guard on every
//! read.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Bytes either end lets pile up in an out-buffer before writing them
/// regardless of what else is queued behind.
const MAX_PENDING_BYTES: usize = 64 << 10;

pub mod error;
pub mod obs;
pub mod router;
pub mod server;
pub mod transport;

pub use error::{Error, Result};
pub use obs::{ObsPlane, ScrapeServer};
pub use router::{LoadConfig, LoadReport, Router, TenantReport};
pub use server::{DeviceServer, ServerConfig, ServerStats};
pub use transport::{TcpTransport, WireMeter};

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use rand::{rngs::StdRng, SeedableRng};

    use scec_allocation::EdgeFleet;
    use scec_core::{AllocationStrategy, ScecSystem};
    use scec_linalg::{Fp61, Matrix, Vector};
    use scec_runtime::{Clock, LocalCluster, RealClock};

    use super::*;

    fn serve_one_tenant(
        seed: u64,
        server_cfg: ServerConfig,
        tenant: u64,
    ) -> Result<(Matrix<Fp61>, LocalCluster<Fp61>, WireMeter, DeviceServer)> {
        let server = DeviceServer::bind::<Fp61>("127.0.0.1:0", server_cfg)?;
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::<Fp61>::random(6, 5, &mut rng);
        let fleet = EdgeFleet::from_unit_costs(vec![1.0, 1.5, 2.0])?;
        let system = ScecSystem::build(a.clone(), fleet, AllocationStrategy::Mcscec, &mut rng)?;
        let addr = server.local_addr();
        let mut meter_slot = None;
        let mut connect_err = None;
        let cluster = LocalCluster::launch_with_transport(
            &system,
            &mut rng,
            Arc::new(RealClock::default()) as Arc<dyn Clock>,
            |shares| {
                let ids: Vec<usize> = shares.iter().map(|s| s.device()).collect();
                match TcpTransport::connect(addr, tenant, &ids) {
                    Ok((t, rx, meter)) => {
                        meter_slot = Some(meter);
                        Ok((Box::new(t), rx))
                    }
                    Err(e) => {
                        connect_err = Some(e);
                        Err(scec_runtime::Error::ChannelClosed { device: None })
                    }
                }
            },
        )
        .map_err(|e| connect_err.take().unwrap_or(Error::Runtime(e)))?;
        Ok((a, cluster, meter_slot.expect("connected"), server))
    }

    #[test]
    fn queries_over_loopback_match_the_plain_matvec() {
        let (a, cluster, meter, server) =
            serve_one_tenant(11, ServerConfig::default(), 0).expect("serve");
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..4 {
            let x = Vector::<Fp61>::random(5, &mut rng);
            let y = cluster.query(&x).expect("query");
            assert_eq!(y, a.matvec(&x).expect("matvec"));
        }
        let xs = Matrix::<Fp61>::random(5, 3, &mut rng);
        let ys = cluster.query_batch(&xs).expect("panel");
        assert_eq!(ys, a.matmul(&xs).expect("matmul"));
        let (sent, received) = meter.totals();
        assert!(sent > 0 && received > 0, "wire bytes metered");
        assert_eq!(cluster.wire_bytes(), Some(meter.totals()));
        cluster.shutdown();
        server.wait_idle();
        let stats = server.stats();
        assert!(stats.accepted.load(std::sync::atomic::Ordering::Acquire) >= 2);
        assert!(
            stats
                .clean_closes
                .load(std::sync::atomic::Ordering::Acquire)
                >= 2
        );
        server.shutdown();
    }

    #[test]
    fn admission_control_refuses_tenants_past_the_cap() {
        let cfg = ServerConfig {
            max_tenants: 2,
            ..ServerConfig::default()
        };
        match serve_one_tenant(13, cfg, 7) {
            Err(Error::Admission { tenant, reason }) => {
                assert_eq!(tenant, 7);
                assert!(reason.contains("at most 2"), "reason: {reason}");
            }
            Err(other) => panic!("expected admission refusal, got {other}"),
            Ok(_) => panic!("expected admission refusal, got a running cluster"),
        }
    }

    #[test]
    fn router_shards_tenants_and_reconciles_wire_bytes() {
        let server =
            DeviceServer::bind::<Fp61>("127.0.0.1:0", ServerConfig::default()).expect("bind");
        let config = LoadConfig {
            tenants: 4,
            queries_per_tenant: 24,
            panel_width: 4,
            window: 3,
            rows: 6,
            cols: 8,
            seed: 19,
            max_in_flight: 0,
            adaptive: false,
            trace: false,
        };
        let report = Router::new(config)
            .expect("config")
            .run(server.local_addr())
            .expect("load");
        assert!(
            report.failures.is_empty(),
            "failures: {:?}",
            report.failures
        );
        assert_eq!(report.tenants.len(), 4);
        assert_eq!(report.total_queries, 4 * 24);
        for t in &report.tenants {
            assert_eq!(t.mismatches, 0, "tenant {} results verified", t.tenant);
            assert!(t.wire_sent > 0 && t.wire_received > 0);
            assert!(t.predicted_sent > 0 && t.predicted_received > 0);
        }
        assert!(report.peak_in_flight > 0);
        let json = report.render_json();
        assert!(json.contains("\"peak_in_flight\""));
        assert!(report.render().contains("serving tier: 4 tenants"));
        server.shutdown();
    }

    #[test]
    fn adaptive_router_is_inert_on_a_healthy_tier() {
        // Honest TCP devices serve exactly their MCSCEC-planned rows,
        // so every ledger divergence sits inside the dead band: the
        // drift checkpoint must hold the original plan for every
        // tenant, and the verified results must match the plain run's
        // totals exactly.
        let server =
            DeviceServer::bind::<Fp61>("127.0.0.1:0", ServerConfig::default()).expect("bind");
        let config = LoadConfig {
            tenants: 2,
            queries_per_tenant: 16,
            panel_width: 4,
            window: 2,
            rows: 6,
            cols: 8,
            seed: 23,
            max_in_flight: 0,
            adaptive: true,
            trace: false,
        };
        let adaptive = Router::new(config.clone())
            .expect("config")
            .run(server.local_addr())
            .expect("load");
        let plain = Router::new(LoadConfig {
            adaptive: false,
            ..config
        })
        .expect("config")
        .run(server.local_addr())
        .expect("load");
        assert!(adaptive.failures.is_empty(), "{:?}", adaptive.failures);
        assert_eq!(adaptive.reallocations, 0, "healthy tier must never re-plan");
        assert_eq!(adaptive.total_queries, plain.total_queries);
        for (a, p) in adaptive.tenants.iter().zip(&plain.tenants) {
            assert_eq!(a.mismatches, 0);
            assert_eq!(a.queries, p.queries);
            assert_eq!(a.reallocations, 0);
        }
        assert!(adaptive.render_json().contains("\"reallocations\": 0"));
        server.shutdown();
    }

    #[test]
    fn tracing_prices_exactly_one_context_block_per_frame_each_way() {
        // Same seed both runs → identical plan, payloads, and framing;
        // the only wire difference tracing makes is the 17-byte context
        // block on every query frame and its echo on every response.
        let queries = 6u64;
        let run = |traced: bool| -> (u64, u64, usize) {
            let (a, cluster, meter, server) =
                serve_one_tenant(41, ServerConfig::default(), 0).expect("serve");
            let cluster = if traced {
                cluster.with_trace_tenant(9)
            } else {
                cluster
            };
            let mut rng = StdRng::seed_from_u64(5);
            for _ in 0..queries {
                let x = Vector::<Fp61>::random(5, &mut rng);
                assert_eq!(
                    cluster.query(&x).expect("query"),
                    a.matvec(&x).expect("matvec")
                );
            }
            let devices = cluster.device_count();
            let totals = meter.totals();
            cluster.shutdown();
            server.shutdown();
            (totals.0, totals.1, devices)
        };
        let (plain_sent, plain_received, devices) = run(false);
        let (traced_sent, traced_received, devices2) = run(true);
        assert_eq!(devices, devices2);
        let block = scec_telemetry::TRACE_CONTEXT_WIRE_BYTES * queries * devices as u64;
        assert_eq!(traced_sent - plain_sent, block);
        assert_eq!(traced_received - plain_received, block);
    }

    #[test]
    fn observed_router_stitches_device_spans_over_tcp() {
        let server_tel = Arc::new(scec_telemetry::Telemetry::new());
        let server = DeviceServer::bind_instrumented::<Fp61>(
            "127.0.0.1:0",
            ServerConfig::default(),
            Some(Arc::clone(&server_tel)),
        )
        .expect("bind");
        let plane = Arc::new(ObsPlane::new(scec_telemetry::SloConfig::default()));
        plane.register("device-server", Arc::clone(&server_tel));
        let config = LoadConfig {
            tenants: 2,
            queries_per_tenant: 8,
            panel_width: 4,
            window: 2,
            rows: 6,
            cols: 8,
            seed: 29,
            max_in_flight: 0,
            adaptive: false,
            trace: true,
        };
        let report = Router::new(config)
            .expect("config")
            .run_observed(server.local_addr(), &plane)
            .expect("load");
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        for t in &report.tenants {
            assert_eq!(t.mismatches, 0);
            // Predicted-vs-measured reconciliation survives tracing.
            assert!(t.predicted_sent > 0 && t.wire_sent > 0);
        }
        // The merged trace must contain a server-side compute span whose
        // wire-propagated parent is a Router-side dispatch span.
        let doc = plane.render_trace();
        let hex_after = |line: &str, key: &str| -> Option<String> {
            let pat = format!("\"{key}\":\"");
            let at = line.find(&pat)? + pat.len();
            Some(line[at..at + 16].to_string())
        };
        let parent = doc
            .lines()
            .find(|l| l.contains("\"span.device_compute\"") && l.contains("\"parent_span_id\""))
            .and_then(|l| hex_after(l, "parent_span_id"))
            .expect("device span carrying a wire-propagated parent");
        let stitched = doc.lines().any(|l| {
            l.contains("\"span.dispatch\"") && l.contains(&format!("\"span_id\":\"{parent}\""))
        });
        assert!(stitched, "no dispatch span owns parent {parent}");
        // The SLO scrape covers every tenant lane plus the server.
        let slo = plane.render_slo();
        assert!(slo.contains("\"source\": \"tenant-0\""));
        assert!(slo.contains("\"source\": \"device-server\""));
        server.shutdown();
    }

    #[test]
    fn router_rejects_degenerate_configs() {
        let bad = LoadConfig {
            tenants: 0,
            ..LoadConfig::default()
        };
        assert!(Router::new(bad).is_err());
        let starved = LoadConfig {
            tenants: 8,
            panel_width: 4,
            max_in_flight: 8,
            ..LoadConfig::default()
        };
        assert!(Router::new(starved).is_err());
    }
}

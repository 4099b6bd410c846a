//! Straggler-tolerant cluster: decode from the first `m + r` tagged rows
//! to arrive, leaving slow devices behind.

use std::sync::Arc;
use std::time::Duration;

use rand::Rng;

use scec_coding::{StragglerCode, TaggedResponse};
use scec_linalg::{Matrix, Scalar, Vector};

use crate::clock::{default_clock, Clock};
use crate::cluster::DeviceBehavior;
use crate::core::{message_bytes, ClusterCore};
use crate::error::{Error, Result};
use crate::message::{FromDevice, ToDevice};
use crate::pipeline::{PanelTicket, Ticket};
use crate::transport::{ChannelTransport, DeviceSpec, SimLinkTransport, Transport};

/// A running straggler-tolerant cluster.
///
/// Unlike [`LocalCluster`](crate::LocalCluster), a query completes as
/// soon as the collected tagged rows reach `m + r` — whichever devices
/// answered first. Per-query statistics report how many devices were
/// actually waited for.
pub struct StragglerCluster<F: Scalar> {
    code: StragglerCode<F>,
    transport: Box<dyn Transport<F>>,
    core: ClusterCore<F>,
    encode_started: Duration,
    encode_dur: Duration,
    /// `(device id, tagged rows held)` per enrolled device.
    loads: Vec<(usize, usize)>,
}

/// A decoded result plus completion statistics.
#[derive(Clone, PartialEq)]
pub struct QuorumResult<F> {
    /// The recovered `y = Ax`.
    pub value: Vector<F>,
    /// Devices whose responses were used (arrival order).
    pub responders: Vec<usize>,
    /// Devices still outstanding when decoding succeeded.
    pub stragglers_left_behind: usize,
}

impl<F: Scalar> std::fmt::Debug for QuorumResult<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuorumResult")
            .field("value", &self.value)
            .field("responders", &self.responders)
            .field("stragglers_left_behind", &self.stragglers_left_behind)
            .finish()
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
        Self::launch_clocked(code, a, rng, &behaviors, default_clock())
    }

    /// Like [`launch`](Self::launch), with an explicit behavior per
    /// device (padded with [`DeviceBehavior::Honest`]) on an explicit
    /// [`Clock`] — the fault-injection and deterministic-simulation
    /// entry point.
    ///
    /// # Errors
    ///
    /// Propagates encoding failures.
    pub fn launch_clocked<R: Rng + ?Sized>(
        code: StragglerCode<F>,
        a: &Matrix<F>,
        rng: &mut R,
        behaviors: &[DeviceBehavior],
        clock: Arc<dyn Clock>,
    ) -> Result<Self> {
        let encode_started = clock.now();
        let store = code.encode(a, rng)?;
        let encode_dur = clock.now().saturating_sub(encode_started);
        let loads: Vec<(usize, usize)> = store
            .shares()
            .iter()
            .map(|s| (s.device(), s.rows().len()))
            .collect();
        let specs: Vec<DeviceSpec<F>> = store
            .shares()
            .iter()
            .enumerate()
            .map(|(idx, share)| DeviceSpec {
                device: share.device(),
                thread_name: format!("scec-straggler-device-{}", share.device()),
                behavior: behaviors.get(idx).copied().unwrap_or_default(),
                install: Some(ToDevice::InstallTagged(Box::new(share.clone()))),
            })
            .collect();
        let (transport, resp_rx) = ChannelTransport::spawn(specs, &clock)?;
        Ok(StragglerCluster {
            code,
            transport: Box::new(transport),
            core: ClusterCore::new(resp_rx, clock, a.ncols()),
            encode_started,
            encode_dur,
            loads,
        })
    }

    /// Like [`launch_clocked`](Self::launch_clocked), but every message
    /// crosses a [`SimLinkTransport`]: encoded to `scec-wire` bytes and
    /// decoded back (both directions) before delivery, with `delay`
    /// slept per message on `clock`. Used by DST parity suites to prove
    /// the quorum protocol behaves identically once a codec sits on the
    /// path.
    ///
    /// # Errors
    ///
    /// Propagates encoding failures.
    pub fn launch_sim_linked<R: Rng + ?Sized>(
        code: StragglerCode<F>,
        a: &Matrix<F>,
        rng: &mut R,
        behaviors: &[DeviceBehavior],
        clock: Arc<dyn Clock>,
        delay: Duration,
    ) -> Result<Self>
    where
        F: scec_wire::WireEncode + scec_wire::WireDecode,
    {
        let encode_started = clock.now();
        let store = code.encode(a, rng)?;
        let encode_dur = clock.now().saturating_sub(encode_started);
        let loads: Vec<(usize, usize)> = store
            .shares()
            .iter()
            .map(|s| (s.device(), s.rows().len()))
            .collect();
        // Spawn bare actors; tagged shares are installed *through* the
        // link so the install frames round-trip the codec too.
        let specs: Vec<DeviceSpec<F>> = store
            .shares()
            .iter()
            .enumerate()
            .map(|(idx, share)| DeviceSpec {
                device: share.device(),
                thread_name: format!("scec-straggler-device-{}", share.device()),
                behavior: behaviors.get(idx).copied().unwrap_or_default(),
                install: None,
            })
            .collect();
        let (inner, inner_rx) = ChannelTransport::spawn(specs, &clock)?;
        let (transport, resp_rx) =
            SimLinkTransport::wrap(inner, inner_rx, Arc::clone(&clock), delay);
        for (idx, share) in store.shares().iter().enumerate() {
            transport.send(idx, ToDevice::InstallTagged(Box::new(share.clone())))?;
        }
        Ok(StragglerCluster {
            code,
            transport: Box::new(transport),
            core: ClusterCore::new(resp_rx, clock, a.ncols()),
            encode_started,
            encode_dur,
            loads,
        })
    }

    /// Attaches a telemetry handle: queries record spans, metrics, and
    /// observed costs against it, and each device actor starts tracing
    /// its compute spans. The encode span is replayed into the tracer
    /// and the stored tagged rows per device are registered with the
    /// cost accountant.
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
        for &(device, rows) in &self.loads {
            tel.costs.record_stored(device, rows as u64);
        }
        self.core.tel.attach(tel, "straggler");
        self
    }

    /// The clock this cluster runs on.
    pub(crate) fn clock_handle(&self) -> &Arc<dyn Clock> {
        &self.core.clock
    }

    /// Sets the per-query deadline
    /// (default [`DEFAULT_DEADLINE`](crate::DEFAULT_DEADLINE)).
    pub fn set_timeout(&mut self, timeout: Duration) {
        self.core.timeout = timeout;
    }

    /// Builder-style per-query deadline, usable at launch.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.core.timeout = deadline;
        self
    }

    /// Number of enrolled devices (base + standby).
    pub fn device_count(&self) -> usize {
        self.transport.device_count()
    }

    /// Cumulative `(bytes sent, bytes received)` on the wire, when the
    /// transport meters actual bytes (`None` for in-memory backends).
    pub fn wire_bytes(&self) -> Option<(u64, u64)> {
        self.transport.wire_bytes()
    }

    /// The straggler code in force.
    pub fn code(&self) -> &StragglerCode<F> {
        &self.code
    }

    /// Runs one query, decoding from the first `m + r` rows to arrive.
    ///
    /// # Errors
    ///
    /// * [`Error::ChannelClosed`] / [`Error::Timeout`] on transport
    ///   problems;
    /// * [`Error::DeviceFailure`] when a device reports an error;
    /// * [`Error::Coding`] when decoding fails.
    pub fn query(&self, x: &Vector<F>) -> Result<QuorumResult<F>> {
        let ticket = self.begin_query(x)?;
        self.finish_query(ticket)
    }

    /// Broadcasts `x` (one `Arc`-shared copy across the fan-out) and
    /// returns a [`Ticket`] for the in-flight request; redeem it with
    /// [`finish_query`](Self::finish_query). Tickets may be redeemed out
    /// of order — the mailbox parks responses for requests not currently
    /// being waited on.
    ///
    /// # Errors
    ///
    /// [`Error::ChannelClosed`] when a device thread died.
    pub fn begin_query(&self, x: &Vector<F>) -> Result<Ticket> {
        self.core.begin_query(&*self.transport, x)
    }

    /// Awaits the first `m + r` tagged rows for an in-flight request and
    /// decodes, leaving stragglers behind.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`query`](Self::query).
    pub fn finish_query(&self, ticket: Ticket) -> Result<QuorumResult<F>> {
        let request = ticket.request();
        let needed = self.code.rows_needed();
        let wire = self.transport.counts_wire_bytes();
        let collect_started = self.core.tel.now(&self.core.clock);
        let mut collected: Vec<TaggedResponse<F>> = Vec::new();
        let mut responders = Vec::new();
        let result = self.core.mailbox.collect(
            &*self.transport,
            &*self.core.clock,
            request,
            self.core.timeout,
            needed,
            |resp| {
                let before = collected.len();
                Self::absorb(resp, &mut collected, &mut responders)?;
                self.core.tel.with(|s| {
                    // `absorb` only grows `collected` for the device it
                    // just pushed onto `responders`.
                    if let Some(&device) = responders.last() {
                        let rows = (collected.len() - before) as u64;
                        let esize = std::mem::size_of::<F>() as u64;
                        let l = self.core.input_len as u64;
                        // A tagged row ships the value plus its u64 tag.
                        s.tel.costs.record_served(
                            device,
                            message_bytes(wire, rows * (esize + 8)),
                            rows,
                            rows * l,
                            rows * l.saturating_sub(1),
                        );
                    }
                });
                Ok(collected.len())
            },
        );
        // Late responses to this (now finished) request will be re-parked
        // by other threads; clear what exists now to bound the stash.
        self.core.mailbox.clear(request);
        if result.is_err() {
            self.core.tel.with(|s| s.query_err());
        }
        result?;
        let decode_started = self.core.tel.now(&self.core.clock);
        let value = match self.code.decode(&collected) {
            Ok(v) => v,
            Err(e) => {
                self.core.tel.with(|s| s.query_err());
                return Err(e.into());
            }
        };
        let left_behind = self.transport.device_count() - responders.len();
        self.core.tel.with(|s| {
            s.span(
                collect_started,
                decode_started,
                scec_telemetry::Stage::Collect,
                request,
            );
            s.span(
                decode_started,
                self.core.clock.now(),
                scec_telemetry::Stage::Decode,
                request,
            );
            s.query_ok(ticket.elapsed_secs());
            s.counter("scec_stragglers_left_behind_total")
                .add(left_behind as u64);
        });
        Ok(QuorumResult {
            value,
            stragglers_left_behind: left_behind,
            responders,
        })
    }

    /// Drops an in-flight request without waiting for a quorum,
    /// discarding any responses already parked for it.
    pub fn abandon_query(&self, ticket: Ticket) {
        self.core.mailbox.clear(ticket.request());
    }

    /// Runs one `l × k` panel query, decoding every column from the
    /// first `m + r` tagged rows to arrive (whole-device granularity:
    /// each response carries the device's full row block for the whole
    /// panel).
    ///
    /// Equivalent to [`begin_panel`](Self::begin_panel) followed by
    /// [`finish_panel`](Self::finish_panel).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`query`](Self::query).
    pub fn query_panel(&self, xs: &Matrix<F>) -> Result<Matrix<F>> {
        let ticket = self.begin_panel(xs)?;
        self.finish_panel(ticket)
    }

    /// Broadcasts a whole query panel (one `Arc`-shared copy across the
    /// fan-out) and returns a [`PanelTicket`] for the in-flight request.
    ///
    /// # Errors
    ///
    /// [`Error::ChannelClosed`] when a device thread died.
    pub fn begin_panel(&self, xs: &Matrix<F>) -> Result<PanelTicket> {
        self.core.begin_panel(&*self.transport, xs)
    }

    /// Awaits the first `m + r` tagged panel rows for an in-flight
    /// panel and decodes all columns at once, leaving stragglers behind.
    ///
    /// The decoded `m × k` matrix has column `j` equal to `A x_j`; the
    /// responder set is recorded in telemetry (the
    /// `scec_stragglers_left_behind_total` counter) rather than
    /// returned, so the panel output type matches the other clusters'.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`query`](Self::query).
    pub fn finish_panel(&self, ticket: PanelTicket) -> Result<Matrix<F>> {
        let request = ticket.request();
        let width = ticket.width();
        let needed = self.code.rows_needed();
        let wire = self.transport.counts_wire_bytes();
        let collect_started = self.core.tel.now(&self.core.clock);
        let mut rows: Vec<usize> = Vec::new();
        let mut flat: Vec<F> = Vec::new();
        let mut responders = Vec::new();
        let result = self.core.mailbox.collect(
            &*self.transport,
            &*self.core.clock,
            request,
            self.core.timeout,
            needed,
            |resp| {
                let before = rows.len();
                Self::absorb_panel(resp, width, &mut rows, &mut flat, &mut responders)?;
                self.core.tel.with(|s| {
                    if let Some(&device) = responders.last() {
                        let served = (rows.len() - before) as u64;
                        let esize = std::mem::size_of::<F>() as u64;
                        let l = self.core.input_len as u64;
                        let k = width as u64;
                        // A tagged panel row ships `k` values plus its
                        // u64 tag.
                        s.tel.costs.record_served(
                            device,
                            message_bytes(wire, served * (k * esize + 8)),
                            served * k,
                            served * k * l,
                            served * k * l.saturating_sub(1),
                        );
                    }
                });
                Ok(rows.len())
            },
        );
        self.core.mailbox.clear(request);
        if result.is_err() {
            self.core.tel.with(|s| s.query_err());
        }
        result?;
        let decode_started = self.core.tel.now(&self.core.clock);
        let values =
            Matrix::from_flat(rows.len(), width, flat).map_err(scec_coding::Error::from)?;
        let decoded = match self.code.decode_panel(&rows, &values) {
            Ok(v) => v,
            Err(e) => {
                self.core.tel.with(|s| s.query_err());
                return Err(e.into());
            }
        };
        let left_behind = self.transport.device_count() - responders.len();
        self.core.tel.with(|s| {
            s.span(
                collect_started,
                decode_started,
                scec_telemetry::Stage::Collect,
                request,
            );
            s.span(
                decode_started,
                self.core.clock.now(),
                scec_telemetry::Stage::Decode,
                request,
            );
            s.panel_ok(ticket.elapsed_secs(), width);
            s.counter("scec_stragglers_left_behind_total")
                .add(left_behind as u64);
        });
        Ok(decoded)
    }

    /// Drops an in-flight panel without waiting for a quorum,
    /// discarding any responses already parked for it.
    pub fn abandon_panel(&self, ticket: PanelTicket) {
        self.core.mailbox.clear(ticket.request());
    }

    fn absorb_panel(
        resp: FromDevice<F>,
        width: usize,
        rows: &mut Vec<usize>,
        flat: &mut Vec<F>,
        responders: &mut Vec<usize>,
    ) -> Result<()> {
        match resp {
            FromDevice::TaggedBatch {
                device,
                rows: device_rows,
                values,
                ..
            } => {
                if values.nrows() != device_rows.len() || values.ncols() != width {
                    return Err(Error::ProtocolViolation {
                        device,
                        what: "tagged panel partial shape does not match the request",
                    });
                }
                for (i, &row) in device_rows.iter().enumerate() {
                    rows.push(row);
                    flat.extend_from_slice(values.row(i));
                }
                responders.push(device);
                Ok(())
            }
            FromDevice::Failure { device, reason, .. } => {
                Err(Error::DeviceFailure { device, reason })
            }
            other => Err(Error::ProtocolViolation {
                device: other.device(),
                what: "untagged partial on the straggler panel protocol",
            }),
        }
    }

    fn absorb(
        resp: FromDevice<F>,
        collected: &mut Vec<TaggedResponse<F>>,
        responders: &mut Vec<usize>,
    ) -> Result<()> {
        match resp {
            FromDevice::TaggedPartial {
                device, responses, ..
            } => {
                collected.extend(responses);
                responders.push(device);
                Ok(())
            }
            FromDevice::Failure { device, reason, .. } => {
                Err(Error::DeviceFailure { device, reason })
            }
            other => Err(Error::ProtocolViolation {
                device: other.device(),
                what: "untagged partial on the straggler protocol",
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

impl<F: Scalar> Drop for StragglerCluster<F> {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use scec_coding::CodeDesign;
    use scec_linalg::Fp61;

    fn build(
        m: usize,
        r: usize,
        s: usize,
        l: usize,
        seed: u64,
    ) -> (StragglerCode<Fp61>, Matrix<Fp61>, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = CodeDesign::new(m, r).unwrap();
        let code = StragglerCode::<Fp61>::new(base, s, &mut rng).unwrap();
        let a = Matrix::<Fp61>::random(m, l, &mut rng);
        (code, a, rng)
    }

    #[test]
    fn quorum_query_recovers_exactly() {
        let (code, a, mut rng) = build(6, 2, 3, 4, 1);
        let cluster = StragglerCluster::launch(code, &a, &mut rng, &[]).unwrap();
        let x = Vector::<Fp61>::random(4, &mut rng);
        let result = cluster.query(&x).unwrap();
        assert_eq!(result.value, a.matvec(&x).unwrap());
        cluster.shutdown();
    }

    #[test]
    fn slow_device_is_left_behind() {
        // Base design (6, 3): 3 base devices + 1 standby (s = 3 <= r).
        // Device 2 never responds (3 rows <= redundancy 3): the query
        // must finish WITHOUT it. Omit + SimClock makes the outcome
        // deterministic; the wall-clock latency claim lives in
        // `straggler_beats_the_delay_wall_clock` below.
        let (code, a, mut rng) = build(6, 3, 3, 3, 2);
        assert_eq!(code.device_count(), 4);
        let behaviors = vec![DeviceBehavior::Honest, DeviceBehavior::Omit];
        let clock: Arc<dyn Clock> = Arc::new(crate::SimClock::new());
        let cluster =
            StragglerCluster::launch_clocked(code, &a, &mut rng, &behaviors, clock).unwrap();
        let x = Vector::<Fp61>::random(3, &mut rng);
        let result = cluster.query(&x).unwrap();
        assert_eq!(result.value, a.matvec(&x).unwrap());
        assert!(!result.responders.contains(&2), "{:?}", result.responders);
        assert_eq!(result.stragglers_left_behind, 1);
    }

    #[test]
    #[ignore = "wall-clock"] // asserts real elapsed time; timing-sensitive under load
    fn straggler_beats_the_delay_wall_clock() {
        // The quorum completes well before the straggler's 600ms real
        // delay — a latency claim that only wall-clock time can witness.
        let (code, a, mut rng) = build(6, 3, 3, 3, 2);
        let delays = vec![Duration::ZERO, Duration::from_millis(600)];
        let cluster = StragglerCluster::launch(code, &a, &mut rng, &delays).unwrap();
        let x = Vector::<Fp61>::random(3, &mut rng);
        let start = std::time::Instant::now();
        let result = cluster.query(&x).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(result.value, a.matvec(&x).unwrap());
        assert!(elapsed < Duration::from_millis(400), "took {elapsed:?}");
    }

    #[test]
    fn timeout_when_too_many_stragglers() {
        // TWO devices omit (6 rows > redundancy 3): quorum is
        // unreachable, and the auto-advance SimClock expires the virtual
        // deadline deterministically.
        let (code, a, mut rng) = build(6, 3, 3, 3, 3);
        let behaviors = vec![DeviceBehavior::Omit, DeviceBehavior::Omit];
        let clock: Arc<dyn Clock> = Arc::new(crate::SimClock::new());
        let mut cluster =
            StragglerCluster::launch_clocked(code, &a, &mut rng, &behaviors, clock).unwrap();
        cluster.set_timeout(Duration::from_millis(25));
        let x = Vector::<Fp61>::random(3, &mut rng);
        assert!(matches!(cluster.query(&x), Err(Error::Timeout { .. })));
    }

    #[test]
    fn panel_query_recovers_every_column() {
        let (code, a, mut rng) = build(6, 2, 3, 4, 7);
        let cluster = StragglerCluster::launch(code, &a, &mut rng, &[]).unwrap();
        for k in [1usize, 5] {
            let xs = Matrix::<Fp61>::random(4, k, &mut rng);
            let got = cluster.query_panel(&xs).unwrap();
            assert_eq!(got, a.matmul(&xs).unwrap());
        }
        cluster.shutdown();
    }

    #[test]
    fn panel_leaves_slow_device_behind() {
        // Same setup as `slow_device_is_left_behind`: device 2 omits and
        // its 3 rows fit inside the redundancy budget, so the panel must
        // decode without it.
        let (code, a, mut rng) = build(6, 3, 3, 3, 2);
        let behaviors = vec![DeviceBehavior::Honest, DeviceBehavior::Omit];
        let clock: Arc<dyn Clock> = Arc::new(crate::SimClock::new());
        let cluster =
            StragglerCluster::launch_clocked(code, &a, &mut rng, &behaviors, clock).unwrap();
        let xs = Matrix::<Fp61>::random(3, 4, &mut rng);
        let got = cluster.query_panel(&xs).unwrap();
        assert_eq!(got, a.matmul(&xs).unwrap());
    }

    #[test]
    fn sequential_queries_reuse_threads() {
        let (code, a, mut rng) = build(5, 2, 2, 3, 4);
        let cluster = StragglerCluster::launch(code, &a, &mut rng, &[]).unwrap();
        for _ in 0..5 {
            let x = Vector::<Fp61>::random(3, &mut rng);
            let r = cluster.query(&x).unwrap();
            assert_eq!(r.value, a.matvec(&x).unwrap());
        }
        assert!(cluster.device_count() >= 4);
        assert_eq!(cluster.code().redundancy(), 2);
    }
}

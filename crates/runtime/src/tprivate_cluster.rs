//! Collusion-resistant cluster: the `t`-private code served by device
//! actors.
//!
//! Device actors are code-agnostic — they multiply whatever share they
//! hold by the query — so the `t`-private variant reuses the plain share
//! container ([`DeviceShare`]) and differs only in the user-side decoder:
//! an LU-amortized mixer solve plus `m` blinding corrections instead of
//! `m` subtractions.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use rand::Rng;

use scec_coding::{DeviceShare, TPrivateCode};
use scec_linalg::{Matrix, Scalar, Vector};

use crate::clock::{default_clock, Clock};
use crate::cluster::DeviceBehavior;
use crate::core::{message_bytes, ClusterCore};
use crate::error::{Error, Result};
use crate::message::{FromDevice, ToDevice};
use crate::pipeline::{PanelTicket, Ticket};
use crate::transport::{ChannelTransport, DeviceSpec, Transport};

/// A running cluster executing the `t`-private protocol on real threads.
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
pub struct TPrivateCluster<F: Scalar> {
    code: TPrivateCode<F>,
    transport: Box<dyn Transport<F>>,
    core: ClusterCore<F>,
    encode_started: Duration,
    encode_dur: Duration,
    /// `(device id, coded rows held)` per enrolled device.
    loads: Vec<(usize, usize)>,
}

impl<F: Scalar> TPrivateCluster<F> {
    /// Encodes `a` under `code` and spawns one actor per device.
    ///
    /// `behaviors` pads with [`DeviceBehavior::Honest`] — fault injection
    /// works exactly as on [`LocalCluster`](crate::LocalCluster).
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
        Self::launch_clocked(code, a, rng, behaviors, default_clock())
    }

    /// Like [`launch`](Self::launch), on an explicit [`Clock`] — pass a
    /// [`SimClock`](crate::SimClock) for deterministic virtual-time
    /// timeouts and delays.
    ///
    /// # Errors
    ///
    /// Propagates encoding failures.
    pub fn launch_clocked<R: Rng + ?Sized>(
        code: TPrivateCode<F>,
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
            .map(|s| (s.device(), s.coded().nrows()))
            .collect();
        let specs: Vec<DeviceSpec<F>> = store
            .shares()
            .iter()
            .enumerate()
            .map(|(idx, share)| {
                // Actors are code-agnostic: ship the payload in the plain
                // share container.
                let plain = DeviceShare::from_parts(
                    share.device(),
                    share.first_row(),
                    share.coded().clone(),
                );
                DeviceSpec {
                    device: share.device(),
                    thread_name: format!("scec-tprivate-device-{}", share.device()),
                    behavior: behaviors.get(idx).copied().unwrap_or_default(),
                    install: Some(ToDevice::Install(Box::new(plain))),
                }
            })
            .collect();
        let (transport, resp_rx) = ChannelTransport::spawn(specs, &clock)?;
        Ok(TPrivateCluster {
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
    /// and the stored coded rows per device are registered with the
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
        self.core.tel.attach(tel, "tprivate");
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

    /// Number of enrolled devices.
    pub fn device_count(&self) -> usize {
        self.transport.device_count()
    }

    /// The `t`-private code in force.
    pub fn code(&self) -> &TPrivateCode<F> {
        &self.code
    }

    /// Runs one secure query: broadcast, await all partials, decode with
    /// the mixer solve.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`LocalCluster::query`](crate::LocalCluster::query).
    pub fn query(&self, x: &Vector<F>) -> Result<Vector<F>> {
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

    /// Awaits all partials for an in-flight request and decodes with the
    /// mixer solve.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`query`](Self::query). On error, any
    /// responses already parked for the request are discarded.
    pub fn finish_query(&self, ticket: Ticket) -> Result<Vector<F>> {
        let result = self.finish_inner(ticket.request());
        match &result {
            Ok(_) => self.core.tel.with(|s| s.query_ok(ticket.elapsed_secs())),
            Err(_) => {
                self.core.mailbox.clear(ticket.request());
                self.core.tel.with(|s| s.query_err());
            }
        }
        result
    }

    /// Drops an in-flight request without waiting for its result,
    /// discarding any responses already parked for it.
    pub fn abandon_query(&self, ticket: Ticket) {
        self.core.mailbox.clear(ticket.request());
    }

    /// Runs one `l × k` panel query: one broadcast, one `B_j T · X`
    /// matmul per device, one multi-RHS mixer solve for all columns.
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

    /// Awaits all batch partials for an in-flight panel and decodes
    /// every column with one multi-RHS mixer solve.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`query`](Self::query). On error, any
    /// responses already parked for the request are discarded.
    pub fn finish_panel(&self, ticket: PanelTicket) -> Result<Matrix<F>> {
        let result = self.finish_panel_inner(ticket.request(), ticket.width());
        match &result {
            Ok(_) => {
                self.core
                    .tel
                    .with(|s| s.panel_ok(ticket.elapsed_secs(), ticket.width()));
            }
            Err(_) => {
                self.core.mailbox.clear(ticket.request());
                self.core.tel.with(|s| s.query_err());
            }
        }
        result
    }

    /// Drops an in-flight panel without waiting for its result,
    /// discarding any responses already parked for it.
    pub fn abandon_panel(&self, ticket: PanelTicket) {
        self.core.mailbox.clear(ticket.request());
    }

    fn finish_panel_inner(&self, request: u64, width: usize) -> Result<Matrix<F>> {
        let device_count = self.transport.device_count();
        let collect_started = self.core.tel.now(&self.core.clock);
        let mut partials: HashMap<usize, Matrix<F>> = HashMap::new();
        self.core.mailbox.collect(
            &*self.transport,
            &*self.core.clock,
            request,
            self.core.timeout,
            device_count,
            |resp| {
                Self::absorb_panel(resp, &mut partials)?;
                Ok(partials.len())
            },
        )?;
        let decode_started = self.core.tel.now(&self.core.clock);
        self.core.tel.with(|s| {
            s.span(
                collect_started,
                decode_started,
                scec_telemetry::Stage::Collect,
                request,
            );
            let wire = self.transport.counts_wire_bytes();
            let esize = std::mem::size_of::<F>() as u64;
            let l = self.core.input_len as u64;
            let k = width as u64;
            for (&device, values) in &partials {
                let rows = values.nrows() as u64;
                s.tel.costs.record_served(
                    device,
                    message_bytes(wire, rows * k * esize),
                    rows * k,
                    rows * k * l,
                    rows * k * l.saturating_sub(1),
                );
            }
        });
        let mut ordered: Vec<Matrix<F>> = Vec::with_capacity(device_count);
        for j in 1..=device_count {
            ordered.push(partials.remove(&j).ok_or(Error::ProtocolViolation {
                device: j,
                what: "complete quorum is missing an enrolled device's batch partial",
            })?);
        }
        let btx = scec_coding::decode::stack_partial_matrices(&ordered)?;
        let ys = self.code.decode_panel(&btx)?;
        self.core.tel.with(|s| {
            s.span(
                decode_started,
                self.core.clock.now(),
                scec_telemetry::Stage::Decode,
                request,
            );
        });
        Ok(ys)
    }

    fn absorb_panel(resp: FromDevice<F>, partials: &mut HashMap<usize, Matrix<F>>) -> Result<()> {
        match resp {
            FromDevice::BatchPartial { device, values, .. } => {
                partials.insert(device, values);
                Ok(())
            }
            FromDevice::Failure { device, reason, .. } => {
                Err(Error::DeviceFailure { device, reason })
            }
            other => Err(Error::ProtocolViolation {
                device: other.device(),
                what: "non-batch partial on a t-private panel request",
            }),
        }
    }

    fn finish_inner(&self, request: u64) -> Result<Vector<F>> {
        let device_count = self.transport.device_count();
        let collect_started = self.core.tel.now(&self.core.clock);
        let mut partials: HashMap<usize, Vector<F>> = HashMap::new();
        self.core.mailbox.collect(
            &*self.transport,
            &*self.core.clock,
            request,
            self.core.timeout,
            device_count,
            |resp| {
                Self::absorb(resp, &mut partials)?;
                Ok(partials.len())
            },
        )?;
        let decode_started = self.core.tel.now(&self.core.clock);
        self.core.tel.with(|s| {
            s.span(
                collect_started,
                decode_started,
                scec_telemetry::Stage::Collect,
                request,
            );
            let wire = self.transport.counts_wire_bytes();
            let esize = std::mem::size_of::<F>() as u64;
            let l = self.core.input_len as u64;
            for (&device, values) in &partials {
                let rows = values.len() as u64;
                s.tel.costs.record_served(
                    device,
                    message_bytes(wire, rows * esize),
                    rows,
                    rows * l,
                    rows * l.saturating_sub(1),
                );
            }
        });
        let mut btx = Vec::with_capacity(self.code.total_rows());
        for j in 1..=device_count {
            btx.extend(
                partials
                    .remove(&j)
                    .ok_or(Error::ProtocolViolation {
                        device: j,
                        what: "complete quorum is missing an enrolled device's partial",
                    })?
                    .into_vec(),
            );
        }
        let y = self.code.decode(&Vector::from_vec(btx))?;
        self.core.tel.with(|s| {
            s.span(
                decode_started,
                self.core.clock.now(),
                scec_telemetry::Stage::Decode,
                request,
            );
        });
        Ok(y)
    }

    fn absorb(resp: FromDevice<F>, partials: &mut HashMap<usize, Vector<F>>) -> Result<()> {
        match resp {
            FromDevice::Partial { device, values, .. } => {
                partials.insert(device, values);
                Ok(())
            }
            FromDevice::Failure { device, reason, .. } => {
                Err(Error::DeviceFailure { device, reason })
            }
            other => Err(Error::ProtocolViolation {
                device: other.device(),
                what: "non-vector partial on the t-private protocol",
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

impl<F: Scalar> Drop for TPrivateCluster<F> {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use scec_linalg::Fp61;

    fn build(seed: u64) -> (TPrivateCode<Fp61>, Matrix<Fp61>, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let code = TPrivateCode::<Fp61>::new(6, 2, 2, &mut rng).unwrap();
        let a = Matrix::<Fp61>::random(6, 4, &mut rng);
        (code, a, rng)
    }

    #[test]
    fn threaded_t_private_query_is_exact() {
        let (code, a, mut rng) = build(1);
        let cluster = TPrivateCluster::launch(code, &a, &mut rng, &[]).unwrap();
        assert_eq!(cluster.device_count(), cluster.code().device_count());
        for _ in 0..4 {
            let x = Vector::<Fp61>::random(4, &mut rng);
            assert_eq!(cluster.query(&x).unwrap(), a.matvec(&x).unwrap());
        }
        cluster.shutdown();
    }

    #[test]
    fn byzantine_device_corrupts_detectably() {
        use scec_core::IntegrityKey;
        let (code, a, mut rng) = build(2);
        let key = IntegrityKey::generate(&a, &mut rng).unwrap();
        let behaviors = vec![DeviceBehavior::Byzantine];
        let cluster = TPrivateCluster::launch(code, &a, &mut rng, &behaviors).unwrap();
        let x = Vector::<Fp61>::random(4, &mut rng);
        let y = cluster.query(&x).unwrap();
        // Device 1 holds noise rows: corrupting them shifts the decoded
        // result, and the Freivalds key catches it.
        assert_ne!(y, a.matvec(&x).unwrap());
        assert!(!key.verify(&x, &y).unwrap());
    }

    #[test]
    fn panel_query_matches_per_query_columns() {
        let (code, a, mut rng) = build(4);
        let cluster = TPrivateCluster::launch(code, &a, &mut rng, &[]).unwrap();
        for k in [1usize, 6] {
            let xs = Matrix::<Fp61>::random(4, k, &mut rng);
            let got = cluster.query_panel(&xs).unwrap();
            assert_eq!(got, a.matmul(&xs).unwrap());
            for j in 0..k {
                assert_eq!(got.col(j), cluster.query(&xs.col(j)).unwrap());
            }
        }
        cluster.shutdown();
    }

    #[test]
    fn delayed_device_still_completes() {
        let (code, a, mut rng) = build(3);
        let behaviors = vec![DeviceBehavior::Delayed(Duration::from_millis(20))];
        let cluster = TPrivateCluster::launch(code, &a, &mut rng, &behaviors).unwrap();
        let x = Vector::<Fp61>::random(4, &mut rng);
        assert_eq!(cluster.query(&x).unwrap(), a.matvec(&x).unwrap());
    }
}

//! The device side of the protocol: what a device holds, how it answers
//! a query, and the in-process actor thread (with fault injection) that
//! runs it.
//!
//! [`Device`] is the one place "share × query → response" is written.
//! The actor thread here calls it for vector and panel queries alike,
//! and `scec_serve`'s connection handler calls it for every frame it
//! decodes, so the in-process and the networked device cannot drift.

use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{Receiver, Sender};
use rand::{rngs::StdRng, Rng, SeedableRng};

use scec_coding::{DeviceShare, StragglerShare};
use scec_linalg::Scalar;
use scec_telemetry::Telemetry;

use crate::clock::Clock;
use crate::message::{FromDevice, ToDevice};

/// How a spawned device actor (mis)behaves — fault injection for tests,
/// demos, and integrity-check validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeviceBehavior {
    /// Follows the protocol.
    #[default]
    Honest,
    /// Follows the protocol after sleeping per query (a straggler).
    Delayed(Duration),
    /// Returns a *corrupted* partial: the first computed value is
    /// perturbed. The decoded result will be wrong — detectably so under
    /// [`scec_core::integrity`]'s Freivalds check.
    Byzantine,
    /// Serves `after_queries` queries faithfully, then the actor thread
    /// exits without responding — a hard crash. Subsequent sends to the
    /// device fail, which is how the supervisor detects the death.
    Crash {
        /// Queries served before the crash.
        after_queries: u32,
    },
    /// Silently drops each query with probability `permille / 1000` (an
    /// intermittent omission fault); prefer [`DeviceBehavior::flaky`].
    FlakyDrop {
        /// Drop probability in thousandths, clamped to `0..=1000`.
        permille: u16,
    },
    /// Receives every query but never responds — a silent omission fault
    /// (the device looks alive at the transport layer but contributes
    /// nothing).
    Omit,
}

impl DeviceBehavior {
    /// An intermittent-omission behavior dropping each query with
    /// probability `p` (clamped to `[0, 1]`).
    pub fn flaky(p: f64) -> Self {
        let permille = (p.clamp(0.0, 1.0) * 1000.0).round() as u16;
        DeviceBehavior::FlakyDrop { permille }
    }

    /// [`Honest`](Self::Honest) for a zero delay, else
    /// [`Delayed`](Self::Delayed) — one behavior per entry of a
    /// constructor's `delays` slice.
    pub(crate) fn from_delays(delays: &[Duration]) -> Vec<Self> {
        let behavior = |&d: &Duration| match d.is_zero() {
            true => DeviceBehavior::Honest,
            false => DeviceBehavior::Delayed(d),
        };
        delays.iter().map(behavior).collect()
    }

    /// Maps a simulator-drawn [`scec_sim::ChaosFault`] onto the concrete
    /// actor behavior that realizes it on a live cluster. This is the
    /// single fault-model conversion layer: every driver (CLI chaos runs,
    /// DST scenario replays against real actors) goes through it, so the
    /// two enums cannot drift apart silently.
    pub fn from_fault(fault: scec_sim::ChaosFault) -> Self {
        use scec_sim::ChaosFault;
        match fault {
            ChaosFault::None => DeviceBehavior::Honest,
            ChaosFault::Slow { millis } => DeviceBehavior::Delayed(Duration::from_millis(millis)),
            ChaosFault::Crash { after_queries } => DeviceBehavior::Crash { after_queries },
            ChaosFault::Flaky { permille } => DeviceBehavior::FlakyDrop { permille },
            ChaosFault::Omit => DeviceBehavior::Omit,
            ChaosFault::Byzantine => DeviceBehavior::Byzantine,
        }
    }
}

impl From<scec_sim::ChaosFault> for DeviceBehavior {
    fn from(fault: scec_sim::ChaosFault) -> Self {
        DeviceBehavior::from_fault(fault)
    }
}

/// One edge device: its id, the share(s) installed on it, and where its
/// compute spans go.
///
/// A device is code-agnostic — it multiplies whatever share it holds by
/// the query. A tagged ([`StragglerShare`]) install takes precedence
/// over a plain one, and its answers carry the share's global row tags.
pub struct Device<F> {
    id: usize,
    plain: Option<DeviceShare<F>>,
    tagged: Option<StragglerShare<F>>,
    tel: Option<Arc<Telemetry>>,
    clock: Arc<dyn Clock>,
}

impl<F: Scalar> Device<F> {
    /// A device with nothing installed, answering as (1-based) `id`.
    /// Compute spans are stamped on `clock` and recorded against `tel`
    /// (also attachable later by [`ToDevice::Instrument`]).
    pub fn new(id: usize, clock: Arc<dyn Clock>, tel: Option<Arc<Telemetry>>) -> Self {
        Device {
            id,
            plain: None,
            tagged: None,
            tel,
            clock,
        }
    }

    /// Applies one protocol message. An install replaces the held share
    /// and an instrument message attaches telemetry; neither is
    /// answered. A query is answered from the installed share — a
    /// shape mismatch or a missing share as a [`FromDevice::Failure`] —
    /// and its compute span recorded (under the query's trace context,
    /// when it carries one).
    pub fn handle(&mut self, msg: ToDevice<F>) -> Option<FromDevice<F>> {
        let device = self.id;
        let started = crate::telemetry::actor_now(&self.tel, &self.clock);
        let (request, ctx, answer) = match msg {
            ToDevice::Install(share) => {
                self.plain = Some(*share);
                return None;
            }
            ToDevice::InstallTagged(share) => {
                self.tagged = Some(*share);
                return None;
            }
            ToDevice::Instrument(tel) => {
                self.tel = Some(tel);
                return None;
            }
            ToDevice::Shutdown => return None,
            ToDevice::Query { request, x, ctx } => {
                let answer = match (&self.tagged, &self.plain) {
                    (Some(s), _) => s
                        .compute(&x)
                        .map(|responses| FromDevice::TaggedPartial {
                            request,
                            device,
                            responses,
                        })
                        .map_err(|e| e.to_string()),
                    (None, Some(s)) => s
                        .compute(&x)
                        .map(|values| FromDevice::Partial {
                            request,
                            device,
                            values,
                        })
                        .map_err(|e| e.to_string()),
                    (None, None) => Err(NO_SHARE.to_string()),
                };
                (request, ctx, answer)
            }
            ToDevice::QueryBatch { request, xs, ctx } => {
                let answer = match (&self.tagged, &self.plain) {
                    (Some(s), _) => s
                        .compute_panel(&xs)
                        .map(|values| FromDevice::TaggedBatch {
                            request,
                            device,
                            rows: s.rows().to_vec(),
                            values,
                        })
                        .map_err(|e| e.to_string()),
                    (None, Some(s)) => s
                        .coded()
                        .matmul(&xs)
                        .map(|values| FromDevice::BatchPartial {
                            request,
                            device,
                            values,
                        })
                        .map_err(|e| e.to_string()),
                    (None, None) => Err(NO_SHARE.to_string()),
                };
                (request, ctx, answer)
            }
        };
        crate::telemetry::actor_span(&self.tel, &self.clock, started, request, device, ctx);
        Some(answer.unwrap_or_else(|reason| FromDevice::Failure {
            request,
            device,
            reason,
        }))
    }
}

/// The failure reason a query meets on a device nothing was installed on.
const NO_SHARE: &str = "no share installed";

/// The Byzantine fault: perturbs the first value of an answer.
fn corrupt<F: Scalar>(response: &mut FromDevice<F>) {
    match response {
        FromDevice::Partial { values, .. } => {
            if let Some(first) = values.as_mut_slice().first_mut() {
                *first = first.add(F::one());
            }
        }
        FromDevice::TaggedPartial { responses, .. } => {
            if let Some(first) = responses.first_mut() {
                first.value = first.value.add(F::one());
            }
        }
        FromDevice::BatchPartial { values, .. } | FromDevice::TaggedBatch { values, .. } => {
            if !values.is_empty() {
                let first = &mut values.row_mut(0)[0];
                *first = first.add(F::one());
            }
        }
        FromDevice::Failure { .. } => {}
    }
}

/// One device actor's thread body: serves its inbox until shutdown,
/// applying `behavior` around an honest [`Device`].
pub(crate) fn device_main<F: Scalar>(
    device: usize,
    inbox: Receiver<ToDevice<F>>,
    outbox: Sender<FromDevice<F>>,
    behavior: DeviceBehavior,
    clock: Arc<dyn Clock>,
) {
    let mut honest = Device::new(device, Arc::clone(&clock), None);
    // Queries received so far (crash countdown) and a deterministic
    // per-device stream for FlakyDrop draws.
    let mut served: u64 = 0;
    let mut fault_rng = StdRng::seed_from_u64(0xFA01_7000 ^ ((device as u64) << 32));
    while let Ok(msg) = inbox.recv() {
        if matches!(msg, ToDevice::Shutdown) {
            return;
        }
        if msg.as_query().is_some() {
            served += 1;
            match behavior {
                DeviceBehavior::Crash { after_queries } if served > u64::from(after_queries) => {
                    return; // crash: the thread is gone, later sends fail
                }
                DeviceBehavior::Omit => continue,
                DeviceBehavior::FlakyDrop { permille }
                    if fault_rng.gen_range(0u32..1000) < u32::from(permille.min(1000)) =>
                {
                    continue;
                }
                DeviceBehavior::Delayed(d) => clock.sleep(d),
                _ => {}
            }
        }
        if let Some(mut response) = honest.handle(msg) {
            if behavior == DeviceBehavior::Byzantine {
                corrupt(&mut response);
            }
            if outbox.send(response).is_err() {
                return; // cluster gone
            }
        }
    }
}

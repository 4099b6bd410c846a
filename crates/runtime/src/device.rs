//! The device side of the protocol: what a device holds, how it answers
//! a query, and the in-process actor thread (with fault injection) that
//! runs it.
//!
//! [`Device`] is the one place "share × query → response" is written.
//! The actor thread here calls it for vector and panel queries alike —
//! once per message of the batch its inbox hands it — and `scec_serve`'s
//! connection handler calls it for every frame it decodes, so the
//! in-process and the networked device cannot drift.

use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::Duration;

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
pub(crate) fn corrupt<F: Scalar>(response: &mut FromDevice<F>) {
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

/// Hands the cluster `answers` as one channel message, if there are any;
/// `false` once the cluster is gone.
fn hand_over<F>(outbox: &Sender<Vec<FromDevice<F>>>, answers: &mut Vec<FromDevice<F>>) -> bool {
    answers.is_empty() || outbox.send(std::mem::take(answers)).is_ok()
}

/// One device actor's thread body: serves its inbox until shutdown,
/// applying `behavior` around an honest [`Device`].
///
/// The inbox delivers batches and a batch is answered with one batch —
/// one wake-up of the collecting thread per window — but `behavior`
/// keeps its meaning per *query*: a crash countdown, an omission, a
/// drop draw, a delay and a corruption each apply to single queries, in
/// arrival order, and the answers computed so far leave before the
/// actor sleeps or exits.
pub(crate) fn device_main<F: Scalar>(
    device: usize,
    inbox: Receiver<Vec<ToDevice<F>>>,
    outbox: Sender<Vec<FromDevice<F>>>,
    behavior: DeviceBehavior,
    clock: Arc<dyn Clock>,
) {
    let mut honest = Device::new(device, Arc::clone(&clock), None);
    // Queries received so far (crash countdown) and a deterministic
    // per-device stream for FlakyDrop draws.
    let mut served: u64 = 0;
    let mut fault_rng = StdRng::seed_from_u64(0xFA01_7000 ^ ((device as u64) << 32));
    while let Ok(batch) = inbox.recv() {
        let mut answers = Vec::with_capacity(batch.len());
        for msg in batch {
            if matches!(msg, ToDevice::Shutdown) {
                hand_over(&outbox, &mut answers);
                return;
            }
            if msg.as_query().is_some() {
                served += 1;
                match behavior {
                    DeviceBehavior::Crash { after_queries }
                        if served > u64::from(after_queries) =>
                    {
                        // Crash: the thread is gone, later sends fail.
                        hand_over(&outbox, &mut answers);
                        return;
                    }
                    DeviceBehavior::Omit => continue,
                    DeviceBehavior::FlakyDrop { permille }
                        if fault_rng.gen_range(0u32..1000) < u32::from(permille.min(1000)) =>
                    {
                        continue;
                    }
                    DeviceBehavior::Delayed(d) => {
                        if !hand_over(&outbox, &mut answers) {
                            return; // cluster gone
                        }
                        clock.sleep(d);
                    }
                    _ => {}
                }
            }
            if let Some(mut response) = honest.handle(msg) {
                if behavior == DeviceBehavior::Byzantine {
                    corrupt(&mut response);
                }
                answers.push(response);
            }
        }
        if !hand_over(&outbox, &mut answers) {
            return; // cluster gone
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;
    use crate::transport::{ChannelTransport, Transport};
    use crate::SimClock;
    use scec_coding::{CodeDesign, Encoder};
    use scec_linalg::{Fp61, Matrix, Vector};

    /// The window every test here queues.
    const WINDOW: u64 = 16;
    /// The actor under test.
    const DEVICE: usize = 3;

    /// One actor with `behavior` holding a share, handed requests
    /// `1..=WINDOW` as one batch (`batched`) or one hand-off each, then
    /// shut down and joined. Returns the transport, the clock and every
    /// message the actor sent, in order.
    fn serve_window(
        behavior: DeviceBehavior,
        batched: bool,
    ) -> (
        ChannelTransport<Fp61>,
        Arc<SimClock>,
        Vec<Vec<FromDevice<Fp61>>>,
    ) {
        let mut rng = StdRng::seed_from_u64(7);
        let a = Matrix::<Fp61>::random(6, 4, &mut rng);
        let encoder = Encoder::new(CodeDesign::new(6, 2).unwrap());
        let share = encoder
            .encode(&a, &mut rng)
            .unwrap()
            .into_shares()
            .remove(0);
        let sim = Arc::new(SimClock::manual());
        let clock: Arc<dyn Clock> = sim.clone();
        let (mut transport, answers) = ChannelTransport::spawn(vec![(DEVICE, behavior)], &clock);
        transport
            .send(0, ToDevice::Install(Box::new(share)))
            .unwrap();
        for request in 1..=WINDOW {
            let x = Arc::new(Vector::random(4, &mut rng));
            let query = ToDevice::Query {
                request,
                x,
                ctx: None,
            };
            transport.send(0, query).unwrap();
            if !batched {
                // A crashed actor refuses the hand-off; that is the test's
                // business, not this helper's.
                let _ = transport.flush();
            }
        }
        let _ = transport.flush();
        transport.shutdown();
        (transport, sim, answers.try_iter().collect())
    }

    fn requests(messages: &[Vec<FromDevice<Fp61>>]) -> Vec<u64> {
        messages.iter().flatten().map(FromDevice::request).collect()
    }

    #[test]
    fn hand_off_count_an_honest_actor_answers_a_window_with_one_message() {
        let (_, _, messages) = serve_window(DeviceBehavior::Honest, true);
        assert_eq!(messages.len(), 1);
        assert_eq!(requests(&messages), (1..=WINDOW).collect::<Vec<_>>());
        println!("hand-off count: device actor, {WINDOW} answers -> 1 message");
    }

    #[test]
    fn a_crash_serves_exactly_its_quota_of_a_window_then_refuses_hand_offs() {
        let behavior = DeviceBehavior::Crash { after_queries: 5 };
        let (transport, _, messages) = serve_window(behavior, true);
        assert_eq!(requests(&messages), [1, 2, 3, 4, 5]);
        // The thread is gone: queuing still succeeds, the hand-off names
        // the device.
        let x = Arc::new(Vector::zeros(4));
        let query = ToDevice::Query {
            request: 99,
            x,
            ctx: None,
        };
        transport.send(0, query).expect("queued");
        match transport.flush() {
            Err(Error::ChannelClosed { device }) => assert_eq!(device, Some(DEVICE)),
            other => panic!("expected ChannelClosed, got {other:?}"),
        }
    }

    #[test]
    fn a_delay_does_not_hold_back_the_answers_before_it() {
        let delay = Duration::from_millis(2);
        let (_, clock, messages) = serve_window(DeviceBehavior::Delayed(delay), true);
        // Each answer left before the next query's sleep began, so the
        // window comes back one answer at a time, in order …
        assert_eq!(messages.len(), WINDOW as usize);
        assert!(messages.iter().all(|m| m.len() == 1));
        assert_eq!(requests(&messages), (1..=WINDOW).collect::<Vec<_>>());
        // … and every query of the batch slept.
        assert_eq!(clock.now(), delay * WINDOW as u32);
    }

    #[test]
    fn flaky_drops_are_drawn_per_query_in_arrival_order() {
        // One draw per query from the device's own stream: the window as
        // one batch drops exactly what it drops handed over one query at
        // a time, which is what the same seed dropped before batches.
        let behavior = DeviceBehavior::flaky(0.5);
        let (_, _, batched) = serve_window(behavior, true);
        let (_, _, one_by_one) = serve_window(behavior, false);
        assert_eq!(requests(&batched), requests(&one_by_one));
        let answered = requests(&batched).len();
        assert!(0 < answered && answered < WINDOW as usize, "{answered}");
        assert_eq!(batched.len(), 1, "the survivors share one message");
        // Omit is the same rule at probability one.
        assert!(serve_window(DeviceBehavior::Omit, true).2.is_empty());
    }

    #[test]
    fn a_byzantine_actor_corrupts_every_answer_of_a_batch() {
        let first_value = |resp: &FromDevice<Fp61>| match resp {
            FromDevice::Partial { values, .. } => values.at(0),
            other => panic!("not a partial: {other:?}"),
        };
        let (_, _, honest) = serve_window(DeviceBehavior::Honest, true);
        let (_, _, byzantine) = serve_window(DeviceBehavior::Byzantine, true);
        assert_eq!(requests(&byzantine), requests(&honest));
        for (forged, genuine) in byzantine.iter().flatten().zip(honest.iter().flatten()) {
            assert_eq!(first_value(forged), first_value(genuine) + Fp61::new(1));
        }
    }
}

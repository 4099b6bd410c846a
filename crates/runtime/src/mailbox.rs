//! Shared response mailbox for all cluster flavors.
//!
//! Every cluster funnels device responses through one `std::sync::mpsc`
//! channel, a batch per message: what a device answered to one window,
//! or what one socket read produced. Concurrent queries therefore share
//! the receiver, taking turns at it behind a lock (a `std` receiver has
//! one consumer at a time): whichever query thread pops a batch keeps the
//! responses its own request still needs and parks the others in their
//! requests' stashes, and every thread re-checks its stash each polling
//! round so nothing is lost. A stash exists from the request's
//! [`open`](Mailbox::open) to its [`clear`](Mailbox::clear); a response
//! to a request that is not open — finished, abandoned, or never begun —
//! has no reader and is dropped on arrival, so a straggler answering
//! late costs nothing.

use std::collections::BTreeMap;
use std::sync::mpsc::{RecvTimeoutError, TryRecvError};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use scec_linalg::Scalar;

use crate::clock::Clock;
use crate::error::{Error, Result};
use crate::message::FromDevice;
use crate::transport::{Responses, Transport};

/// Bounded polling interval: how long a query thread blocks on the
/// shared channel before re-checking the deadline and the parked stash.
const POLL: Duration = Duration::from_millis(5);

/// Locks a mutex, recovering the guard if a previous holder panicked.
///
/// All runtime state behind mutexes (parked responses, latency samples,
/// supervisor health) stays structurally valid even when a panicking
/// thread abandons the lock mid-update, so poisoning is recoverable:
/// losing one in-flight sample beats poisoning every later query.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The shared response channel plus the parked-response stash.
pub(crate) struct Mailbox<F> {
    /// Locked for one `try_recv` or one [`POLL`] slice at a time, never
    /// across `absorb` or a flush; the lock is what keeps clusters `Sync`.
    responses: Mutex<Responses<F>>,
    /// One stash per open request: the responses popped on its behalf
    /// by threads collecting other requests, and its own beyond what a
    /// collect needed. Every begin, finish and
    /// response looks a request up here, and the open ids are few and
    /// sequential — an ordered map finds them without hashing.
    parked: Mutex<BTreeMap<u64, Vec<FromDevice<F>>>>,
}

impl<F: Scalar> Mailbox<F> {
    pub(crate) fn new(responses: Responses<F>) -> Self {
        Mailbox {
            responses: Mutex::new(responses),
            parked: Mutex::new(BTreeMap::new()),
        }
    }

    /// Opens `request`: from now until [`clear`](Self::clear), responses
    /// to it that another thread pops are parked for it. Call before the
    /// request is broadcast.
    pub(crate) fn open(&self, request: u64) {
        lock(&self.parked).insert(request, Vec::new());
    }

    /// Collects responses for `request` until `absorb` reports progress of
    /// at least `needed`, the deadline passes, or `absorb` fails.
    ///
    /// `absorb` is called once per response addressed to `request`,
    /// until `needed`, and returns the updated progress count — number
    /// of devices heard for all-response protocols, number of tagged
    /// rows for quorum protocols. The rest of each batch is parked under
    /// one lock hold: responses for other open requests for their owning
    /// threads, and this request's beyond `needed` for its next collect;
    /// the stash is re-checked every polling round.
    ///
    /// Batches that have already arrived are drained without blocking;
    /// only when the channel is empty — the caller is about to park — is
    /// `transport` flushed, so whatever a pipeline left queued goes out
    /// as one hand-off per device, and never later than the wait that
    /// depends on it.
    ///
    /// The deadline lives on `clock`'s timeline: real time for
    /// [`RealClock`](crate::RealClock), virtual time for
    /// [`SimClock`](crate::SimClock). The channel itself is still polled
    /// in bounded *real* slices; each expired slice is reported to the
    /// clock via [`Clock::poll_expired`], which is how an auto-advance
    /// sim clock makes virtual deadlines expire deterministically.
    ///
    /// # Errors
    ///
    /// * [`Error::Timeout`] when `needed` is not reached in `timeout`;
    /// * [`Error::ChannelClosed`] when every device sender is gone, or
    ///   naming the device whose queued messages the flush could not
    ///   deliver;
    /// * whatever `absorb` returns, verbatim.
    pub(crate) fn collect(
        &self,
        transport: &dyn Transport<F>,
        clock: &dyn Clock,
        request: u64,
        timeout: Duration,
        needed: usize,
        mut absorb: impl FnMut(FromDevice<F>) -> Result<usize>,
    ) -> Result<()> {
        let deadline = clock.now().saturating_add(timeout);
        let mut progress = 0;
        // What a batch holds beyond this collect's needs, on its way to
        // the stashes.
        let mut rest = Vec::new();
        while progress < needed {
            let stash = lock(&self.parked)
                .get_mut(&request)
                .map(std::mem::take)
                .unwrap_or_default();
            let batch = if !stash.is_empty() {
                stash
            } else {
                let remaining = deadline.saturating_sub(clock.now());
                if remaining.is_zero() {
                    return Err(Error::Timeout {
                        request,
                        received: progress,
                        needed,
                    });
                }
                // Each result is bound before it is matched on: a guard
                // in the scrutinee would live through the arms, and the
                // `Empty` arm locks again.
                let ready = lock(&self.responses).try_recv();
                match ready {
                    Ok(batch) => batch,
                    Err(TryRecvError::Disconnected) => {
                        return Err(Error::ChannelClosed { device: None });
                    }
                    Err(TryRecvError::Empty) => {
                        transport.flush()?;
                        let slice = remaining.min(POLL);
                        let waited = lock(&self.responses).recv_timeout(slice);
                        match waited {
                            Ok(batch) => batch,
                            Err(RecvTimeoutError::Timeout) => {
                                // A real polling slice expired with no
                                // response; tell the clock (advances
                                // virtual time under an auto-advance
                                // SimClock), then loop to re-check the
                                // deadline and the parked stash.
                                clock.poll_expired(slice);
                                continue;
                            }
                            Err(RecvTimeoutError::Disconnected) => {
                                return Err(Error::ChannelClosed { device: None });
                            }
                        }
                    }
                }
            };
            // A failing `absorb` ends the collect, but not before the
            // other requests' share of the batch is parked.
            let mut absorbed = Ok(());
            for resp in batch {
                if resp.request() == request && progress < needed && absorbed.is_ok() {
                    match absorb(resp) {
                        Ok(now) => progress = now,
                        Err(e) => absorbed = Err(e),
                    }
                } else {
                    rest.push(resp);
                }
            }
            if !rest.is_empty() {
                let mut parked = lock(&self.parked);
                for resp in rest.drain(..) {
                    if let Some(stash) = parked.get_mut(&resp.request()) {
                        stash.push(resp);
                    }
                }
            }
            absorbed?;
        }
        Ok(())
    }

    /// Closes `request` and drops what was parked for it; responses to
    /// it that arrive later are dropped too.
    pub(crate) fn clear(&self, request: u64) {
        lock(&self.parked).remove(&request);
    }

    /// Closes every open request — used when a repair replaces the
    /// entire device fleet and old responses can no longer be attributed.
    pub(crate) fn clear_all(&self) {
        lock(&self.parked).clear();
    }
}

#[cfg(test)]
impl<F> Mailbox<F> {
    /// Requests that currently have a stash.
    pub(crate) fn open_requests(&self) -> Vec<u64> {
        lock(&self.parked).keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::ChannelTransport;
    use crate::{RealClock, SimClock};
    use scec_linalg::{Fp61, Vector};
    use std::sync::mpsc::channel;

    fn response(request: u64, device: usize) -> FromDevice<Fp61> {
        FromDevice::Partial {
            request,
            device,
            values: Vector::zeros(1),
        }
    }

    /// Collects `needed` responses for `request` and returns the devices
    /// that answered, in the order absorbed. The auto-advance clock
    /// turns "nothing there" into a deterministic timeout.
    fn devices_heard(mailbox: &Mailbox<Fp61>, request: u64, needed: usize) -> Result<Vec<usize>> {
        let patience = Duration::from_millis(25);
        heard_within(mailbox, &SimClock::new(), patience, request, needed)
    }

    fn heard_within(
        mailbox: &Mailbox<Fp61>,
        clock: &dyn Clock,
        patience: Duration,
        request: u64,
        needed: usize,
    ) -> Result<Vec<usize>> {
        let (transport, _) = ChannelTransport::unthreaded(&[]);
        let mut heard = Vec::new();
        let absorb = |resp: FromDevice<Fp61>| {
            heard.push(resp.device());
            Ok(heard.len())
        };
        mailbox.collect(&transport, clock, request, patience, needed, absorb)?;
        Ok(heard)
    }

    #[test]
    fn a_batch_is_absorbed_parked_and_dropped_by_request() {
        let (tx, rx) = channel();
        let mailbox = Mailbox::new(rx);
        // Requests 1–3 are open; 4 was never begun (or is finished).
        (1..=3).for_each(|request| mailbox.open(request));
        let batch = [
            (1, 1),
            (2, 1),
            (4, 1),
            (1, 2),
            (3, 1),
            (1, 3),
            (2, 2),
            (4, 2),
        ];
        tx.send(
            batch
                .map(|(request, device)| response(request, device))
                .to_vec(),
        )
        .unwrap();

        // The collected request takes what it needs, in arrival order …
        assert_eq!(devices_heard(&mailbox, 1, 2).unwrap(), [1, 2]);
        // … what it did not need is parked for its next collect, not lost …
        assert_eq!(devices_heard(&mailbox, 1, 1).unwrap(), [3]);
        // … the other open requests find theirs without the channel …
        assert_eq!(devices_heard(&mailbox, 2, 2).unwrap(), [1, 2]);
        assert_eq!(devices_heard(&mailbox, 3, 1).unwrap(), [1]);
        // … and the closed request's were dropped: it has no stash, and
        // every stash is empty again.
        assert_eq!(mailbox.open_requests(), [1, 2, 3]);
        for request in 1..=4 {
            assert!(matches!(
                devices_heard(&mailbox, request, 1),
                Err(Error::Timeout { received: 0, .. })
            ));
        }
    }

    #[test]
    fn a_failing_absorb_still_parks_the_rest_of_the_batch() {
        let (tx, rx) = channel();
        let mailbox = Mailbox::new(rx);
        mailbox.open(1);
        mailbox.open(2);
        tx.send(vec![response(1, 1), response(2, 1), response(2, 2)])
            .unwrap();
        let (transport, _) = ChannelTransport::unthreaded(&[]);
        let refuse = |resp: FromDevice<Fp61>| {
            Err(Error::DeviceFailure {
                device: resp.device(),
                reason: "refused".into(),
            })
        };
        let patience = Duration::from_millis(25);
        let refused = mailbox.collect(&transport, &SimClock::new(), 1, patience, 1, refuse);
        assert!(matches!(
            refused,
            Err(Error::DeviceFailure { device: 1, .. })
        ));
        assert_eq!(devices_heard(&mailbox, 2, 2).unwrap(), [1, 2]);
    }

    #[test]
    fn collectors_sharing_the_receiver_each_get_exactly_their_own_answers() {
        const ANSWERS: usize = 64;
        // A liveness check, not a latency one: the only question is
        // whether both collectors get there.
        let generous = Duration::from_secs(60);
        let (tx, rx) = channel();
        let mailbox = Mailbox::new(rx);
        (1..=3).for_each(|request| mailbox.open(request));
        let clock = RealClock::default();
        // A device id that says whose answer it is.
        let device = |request: u64, answer: usize| 1000 * request as usize + answer;
        std::thread::scope(|scope| {
            let collectors = [1, 2].map(|request| {
                let (mailbox, clock) = (&mailbox, &clock);
                scope.spawn(move || heard_within(mailbox, clock, generous, request, ANSWERS))
            });
            // Nothing ever answers request 3, and the collect that gives
            // up on it must leave the receiver to the other two …
            let gave_up = heard_within(&mailbox, &clock, Duration::from_millis(20), 3, 1);
            assert!(matches!(gave_up, Err(Error::Timeout { received: 0, .. })));
            // … which are fed only now, every batch answering both, so
            // whichever of them pops it holds something of the other's.
            for answer in 1..=ANSWERS {
                let batch = [1, 2].map(|request| response(request, device(request, answer)));
                tx.send(batch.to_vec()).unwrap();
            }
            for (request, collector) in (1..).zip(collectors) {
                let mut heard = collector.join().unwrap().expect("inside the deadline");
                heard.sort_unstable();
                let own: Vec<usize> = (1..=ANSWERS).map(|n| device(request, n)).collect();
                assert_eq!(heard, own, "request {request}");
            }
        });
    }
}

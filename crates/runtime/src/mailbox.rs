//! Shared response mailbox for all cluster flavors.
//!
//! Every cluster funnels device responses through one crossbeam channel.
//! Concurrent queries therefore share the receiver: whichever query
//! thread pops a response belonging to a *different* request parks it in
//! that request's stash, and every thread re-checks its stash each
//! polling round so nothing is lost. A stash exists from the request's
//! [`open`](Mailbox::open) to its [`clear`](Mailbox::clear); a response
//! to a request that is not open — finished, abandoned, or never begun —
//! has no reader and is dropped on arrival, so a straggler answering
//! late costs nothing.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use crossbeam::channel::{Receiver, RecvTimeoutError, TryRecvError};
use scec_linalg::Scalar;

use crate::clock::Clock;
use crate::error::{Error, Result};
use crate::message::FromDevice;
use crate::transport::Transport;

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
    responses: Receiver<FromDevice<F>>,
    /// One stash per open request: the responses popped on its behalf
    /// by threads collecting other requests. Every begin, finish and
    /// response looks a request up here, and the open ids are few and
    /// sequential — an ordered map finds them without hashing.
    parked: Mutex<BTreeMap<u64, Vec<FromDevice<F>>>>,
}

impl<F: Scalar> Mailbox<F> {
    pub(crate) fn new(responses: Receiver<FromDevice<F>>) -> Self {
        Mailbox {
            responses,
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
    /// `absorb` is called once per response addressed to `request` and
    /// returns the updated progress count — number of devices heard for
    /// all-response protocols, number of tagged rows for quorum
    /// protocols. Responses for other open requests are parked for their
    /// owning threads; the stash is re-checked every polling round.
    ///
    /// Responses that have already arrived are drained without
    /// blocking; only when the channel is empty — the caller is about to
    /// park — is `transport` flushed, so whatever a pipeline left queued
    /// goes out as one write per device, and never later than the wait
    /// that depends on it.
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
        while progress < needed {
            let stash = lock(&self.parked)
                .get_mut(&request)
                .map(std::mem::take)
                .unwrap_or_default();
            if !stash.is_empty() {
                for resp in stash {
                    progress = absorb(resp)?;
                }
                continue;
            }
            let remaining = deadline.saturating_sub(clock.now());
            if remaining.is_zero() {
                return Err(Error::Timeout {
                    request,
                    received: progress,
                    needed,
                });
            }
            let resp = match self.responses.try_recv() {
                Ok(resp) => resp,
                Err(TryRecvError::Disconnected) => {
                    return Err(Error::ChannelClosed { device: None });
                }
                Err(TryRecvError::Empty) => {
                    transport.flush()?;
                    let slice = remaining.min(POLL);
                    match self.responses.recv_timeout(slice) {
                        Ok(resp) => resp,
                        Err(RecvTimeoutError::Timeout) => {
                            // A real polling slice expired with no
                            // response; tell the clock (advances virtual
                            // time under an auto-advance SimClock), then
                            // loop to re-check the deadline and the
                            // parked stash.
                            clock.poll_expired(slice);
                            continue;
                        }
                        Err(RecvTimeoutError::Disconnected) => {
                            return Err(Error::ChannelClosed { device: None });
                        }
                    }
                }
            };
            if resp.request() == request {
                progress = absorb(resp)?;
            } else if let Some(stash) = lock(&self.parked).get_mut(&resp.request()) {
                stash.push(resp);
            }
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

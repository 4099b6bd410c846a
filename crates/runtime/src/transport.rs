//! Pluggable message paths between the user/cloud and the device fleet.
//!
//! Every cluster flavor speaks the same typed [`message`](crate::message)
//! protocol; what differs in a deployment is the *medium* carrying it.
//! The [`Transport`] trait abstracts the send side of that medium so the
//! cluster core is generic over it:
//!
//! * [`ChannelTransport`] — the in-process backend: one OS thread per
//!   device actor, `std::sync::mpsc` channels, zero serialization. This
//!   is the original runtime fabric, bit-identical to the pre-trait
//!   clusters.
//! * [`SimLinkTransport`] — a deterministic simulated link: every
//!   message round-trips through the `scec-wire` codec (and optionally
//!   sleeps a fixed per-message latency on the cluster clock) before
//!   reaching the same in-process actors. It proves the protocol is
//!   codec-transparent — what DST asserts about the channel backend must
//!   hold verbatim once bytes are involved.
//! * A TCP backend lives in the `scec-serve` crate: same trait, real
//!   sockets, length-prefixed `scec-wire` frames built with the shared
//!   [`frames`] codecs.
//!
//! The receive side stays a `std` [`Receiver`] of response batches
//! feeding the cluster mailbox, whatever the backend: remote transports
//! pump their sockets into the channel from reader threads.
//!
//! # Batches
//!
//! Every thread hand-off on the query path carries a *batch*, and a
//! lone message is a batch of one: the channels move `Vec<ToDevice<F>>`
//! toward a device and `Vec<FromDevice<F>>` back. Queries accepted by
//! [`Transport::send`] wait for [`Transport::flush`], so a pipelined
//! window costs one wake-up per device, not one per query; the device
//! answers a batch with a batch (see [`device`](crate::device)), and a
//! socket reader forwards whatever one read produced.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use scec_linalg::Scalar;
use scec_wire::{WireDecode, WireEncode};

use crate::clock::Clock;
use crate::device::{device_main, DeviceBehavior};
use crate::error::{Error, Result};
use crate::mailbox::lock;
use crate::message::{FromDevice, ToDevice};

/// The receive side of a device fleet, whatever the backend: the stream
/// its responses arrive on, a batch per message.
pub type Responses<F> = Receiver<Vec<FromDevice<F>>>;

/// The send side of a device fleet: a fixed roster of enrolled devices
/// reachable by protocol messages.
///
/// Implementations must map a failed send onto
/// [`Error::ChannelClosed`] naming the device, so cluster-level crash
/// detection behaves identically across backends. Responses flow back,
/// in batches, through the `std` channel the transport was built
/// with — the cluster's mailbox does not know which backend produced
/// them.
pub trait Transport<F: Scalar>: Send + Sync {
    /// Number of enrolled devices.
    fn device_count(&self) -> usize;

    /// The (1-based) protocol device id at roster `index`.
    fn device_id(&self, index: usize) -> usize;

    /// Sends one protocol message to the device at roster `index`.
    ///
    /// A query may stay queued until [`flush`](Self::flush). Anything
    /// else — an install, an instrument, a shutdown — is delivered at
    /// once, behind whatever is queued for that device, so a device
    /// sees its messages in the order they were sent.
    ///
    /// # Errors
    ///
    /// [`Error::ChannelClosed`] when the device is unreachable.
    fn send(&self, index: usize, msg: ToDevice<F>) -> Result<()>;

    /// Puts every message accepted by [`send`](Self::send) on its way.
    ///
    /// All three backends queue queries — the in-process ones so that a
    /// window of them is one channel message and one wake-up per
    /// device, the TCP one so that it is one write — and the cluster
    /// calls this before it blocks on responses, so nothing queued
    /// outlives the next wait. The default is for a transport whose
    /// `send` has already delivered.
    ///
    /// # Errors
    ///
    /// [`Error::ChannelClosed`] naming the device whose queued messages
    /// could not be delivered.
    fn flush(&self) -> Result<()> {
        Ok(())
    }

    /// Whether this backend meters *actual* wire bytes. When true, the
    /// cluster core skips its analytic byte accounting so the cost
    /// ledger reports observed traffic instead of the model's estimate;
    /// drain the meter with [`wire_bytes`](Self::wire_bytes).
    fn counts_wire_bytes(&self) -> bool {
        false
    }

    /// Cumulative `(bytes sent, bytes received)` on the wire, when this
    /// backend meters them.
    fn wire_bytes(&self) -> Option<(u64, u64)> {
        None
    }

    /// Tears down device-side resources and joins any worker threads.
    fn shutdown(&mut self);
}

/// Handle to one spawned device actor.
struct DeviceHandle<F> {
    device: usize,
    tx: Sender<Vec<ToDevice<F>>>,
    /// Queries accepted by `send` and not yet handed to the actor: only
    /// what the caller has begun and not yet waited on, which a pipeline
    /// window bounds.
    queued: Mutex<Vec<ToDevice<F>>>,
    join: Option<JoinHandle<()>>,
}

impl<F> DeviceHandle<F> {
    fn new(device: usize, tx: Sender<Vec<ToDevice<F>>>, join: Option<JoinHandle<()>>) -> Self {
        DeviceHandle {
            device,
            tx,
            queued: Mutex::new(Vec::new()),
            join,
        }
    }

    /// Hands the actor everything in `queued` as one channel message —
    /// one wake-up, however many queries. What a dead actor cannot take
    /// is dropped with it.
    fn hand_over(&self, queued: &mut Vec<ToDevice<F>>) -> Result<()> {
        if queued.is_empty() {
            return Ok(());
        }
        // The next window is likely as wide as this one.
        let batch = std::mem::replace(queued, Vec::with_capacity(queued.len()));
        self.tx.send(batch).map_err(|_| Error::ChannelClosed {
            device: Some(self.device),
        })
    }
}

/// The in-process backend: one spawned actor thread per device, plain
/// `std` channels carrying batches, no serialization.
pub struct ChannelTransport<F> {
    devices: Vec<DeviceHandle<F>>,
}

impl<F: Scalar> ChannelTransport<F> {
    /// Spawns one bare actor per `(protocol device id, behavior)` — the
    /// caller installs shares through the transport — onto an existing
    /// response channel: the supervisor repair path, which keeps one
    /// mailbox across topology generations.
    pub(crate) fn spawn_onto(
        specs: Vec<(usize, DeviceBehavior)>,
        clock: &Arc<dyn Clock>,
        resp_tx: &Sender<Vec<FromDevice<F>>>,
    ) -> Self {
        let mut devices = Vec::with_capacity(specs.len());
        for (device, behavior) in specs {
            let (tx, rx) = channel();
            let outbox = resp_tx.clone();
            let device_clock = Arc::clone(clock);
            let join = std::thread::Builder::new()
                .name(format!("scec-device-{device}"))
                .spawn(move || device_main::<F>(device, rx, outbox, behavior, device_clock))
                .expect("spawn device thread");
            devices.push(DeviceHandle::new(device, tx, Some(join)));
        }
        ChannelTransport { devices }
    }

    /// Spawns the actors with a fresh response channel and returns the
    /// receive side for the cluster mailbox.
    pub(crate) fn spawn(
        specs: Vec<(usize, DeviceBehavior)>,
        clock: &Arc<dyn Clock>,
    ) -> (Self, Responses<F>) {
        let (resp_tx, resp_rx) = channel();
        (Self::spawn_onto(specs, clock, &resp_tx), resp_rx)
    }
}

impl<F: Scalar> Transport<F> for ChannelTransport<F> {
    fn device_count(&self) -> usize {
        self.devices.len()
    }

    fn device_id(&self, index: usize) -> usize {
        self.devices[index].device
    }

    fn send(&self, index: usize, msg: ToDevice<F>) -> Result<()> {
        let dev = &self.devices[index];
        let mut queued = lock(&dev.queued);
        let waits = msg.as_query().is_some();
        queued.push(msg);
        if waits {
            return Ok(());
        }
        dev.hand_over(&mut queued)
    }

    fn flush(&self) -> Result<()> {
        // Every device is tried, so nothing stays queued behind a dead
        // one; the first failure is the one reported.
        let mut flushed = Ok(());
        for dev in &self.devices {
            flushed = flushed.and(dev.hand_over(&mut lock(&dev.queued)));
        }
        flushed
    }

    fn shutdown(&mut self) {
        for index in 0..self.devices.len() {
            // Behind whatever is queued. A send failure just means the
            // thread is already gone.
            let _ = self.send(index, ToDevice::Shutdown);
        }
        for dev in &mut self.devices {
            if let Some(join) = dev.join.take() {
                let _ = join.join();
            }
        }
    }
}

/// A deterministic simulated link over the in-process actors: every
/// data-plane message is encoded to `scec-wire` bytes and decoded back
/// before delivery (both directions), with an optional fixed per-message
/// latency slept on the cluster clock. Batches cross it whole: queries
/// queue in the inner transport until [`Transport::flush`], and the
/// relay forwards a device's batch of answers as one batch.
///
/// Control-plane messages ([`ToDevice::Instrument`],
/// [`ToDevice::Shutdown`]) pass through unserialized — they carry
/// process-local handles a real deployment would configure out of band.
pub struct SimLinkTransport<F: Scalar> {
    inner: ChannelTransport<F>,
    delay: Duration,
    clock: Arc<dyn Clock>,
    relay: Option<JoinHandle<()>>,
}

impl<F> SimLinkTransport<F>
where
    F: Scalar + WireEncode + WireDecode,
{
    /// Wraps spawned actors behind the simulated link. Returns the
    /// transport plus the codec-roundtripped response stream for the
    /// cluster mailbox. `delay` is slept (on `clock`) before relaying
    /// each response — zero keeps the link timing-transparent.
    pub(crate) fn wrap(
        inner: ChannelTransport<F>,
        inner_rx: Responses<F>,
        clock: Arc<dyn Clock>,
        delay: Duration,
    ) -> (Self, Responses<F>) {
        let (out_tx, out_rx) = channel();
        let relay_clock = Arc::clone(&clock);
        let relay = std::thread::Builder::new()
            .name("scec-simlink-relay".into())
            .spawn(move || {
                // One reused encode buffer for the whole connection —
                // the same pooled-buffer discipline the TCP hot path
                // uses.
                let mut buf = Vec::new();
                while let Ok(mut batch) = inner_rx.recv() {
                    for resp in &mut batch {
                        if !delay.is_zero() {
                            relay_clock.sleep(delay);
                        }
                        frames::encode_response(resp, &mut buf);
                        *resp = match frames::decode_response::<F>(&buf) {
                            Ok(r) => r,
                            // A codec failure on the simulated link
                            // models a corrupt frame: surface it as a
                            // device failure rather than silently
                            // dropping the response.
                            Err(e) => FromDevice::Failure {
                                request: resp.request(),
                                device: resp.device(),
                                reason: format!("simulated link codec error: {e}"),
                            },
                        };
                    }
                    if out_tx.send(batch).is_err() {
                        return;
                    }
                }
            })
            .expect("spawn simlink relay thread");
        (
            SimLinkTransport {
                inner,
                delay,
                clock,
                relay: Some(relay),
            },
            out_rx,
        )
    }
}

impl<F> Transport<F> for SimLinkTransport<F>
where
    F: Scalar + WireEncode + WireDecode,
{
    fn device_count(&self) -> usize {
        self.inner.device_count()
    }

    fn device_id(&self, index: usize) -> usize {
        self.inner.device_id(index)
    }

    fn send(&self, index: usize, msg: ToDevice<F>) -> Result<()> {
        let device = self.inner.device_id(index);
        if !self.delay.is_zero() {
            self.clock.sleep(self.delay);
        }
        let msg = roundtrip_to_device(msg, device)?;
        self.inner.send(index, msg)
    }

    fn flush(&self) -> Result<()> {
        self.inner.flush()
    }

    fn shutdown(&mut self) {
        self.inner.shutdown();
        // The actors are gone, so the inner response channel closes and
        // the relay drains out.
        if let Some(join) = self.relay.take() {
            let _ = join.join();
        }
    }
}

/// Round-trips one user→device message through the wire codec,
/// exercising the exact frames the TCP backend ships.
fn roundtrip_to_device<F>(msg: ToDevice<F>, device: usize) -> Result<ToDevice<F>>
where
    F: Scalar + WireEncode + WireDecode,
{
    let mut buf = Vec::new();
    if !frames::encode_to_device(&msg, &mut buf) {
        // Control plane: process-local handles, never serialized.
        return Ok(msg);
    }
    frames::decode_to_device(&buf).map_err(|e| Error::ProtocolViolation {
        device,
        what: frames::codec_failure_name(&e),
    })
}

/// The `scec-wire` frame codecs for the runtime's typed protocol —
/// shared by every byte-carrying backend ([`SimLinkTransport`] here, the
/// TCP transport and device server in `scec-serve`).
///
/// The `encode_*` functions write into a caller-provided buffer
/// (cleared, capacity kept); the `append_*` functions add the same
/// frame after whatever the buffer already holds, which is how the
/// socket backends queue several frames for one write. Either way a
/// reused `Vec<u8>` amortizes allocation to zero per message once warm.
pub mod frames {
    use std::sync::Arc;

    use scec_coding::{
        DeviceShare, PanelPartialMsg, PanelQueryMsg, PartialMsg, QueryMsg, StragglerShare,
        TaggedResponse,
    };
    use scec_linalg::Scalar;
    use scec_telemetry::TraceContext;
    use scec_wire::{
        decode_framed, decode_framed_ctx, parse_header, peek_tag, tag, Reader, WireDecode,
        WireEncode,
    };

    use crate::message::{FromDevice, ToDevice};

    /// Encodes one user→device message into a framed wire message,
    /// reusing `buf`. Returns `false` — leaving `buf` untouched — for
    /// control-plane messages ([`ToDevice::Instrument`],
    /// [`ToDevice::Shutdown`]) that carry process-local handles and are
    /// configured out of band by real deployments.
    ///
    /// Query payloads are framed field-by-field straight from the
    /// `Arc`-shared vectors — no intermediate message struct, no clone
    /// of the payload on the send hot path.
    pub fn encode_to_device<F>(msg: &ToDevice<F>, buf: &mut Vec<u8>) -> bool
    where
        F: Scalar + WireEncode,
    {
        buf.clear();
        append_to_device(msg, buf)
    }

    /// [`encode_to_device`] without the clear: the frame is appended to
    /// `buf` (nothing is, for a control-plane message).
    pub fn append_to_device<F>(msg: &ToDevice<F>, buf: &mut Vec<u8>) -> bool
    where
        F: Scalar + WireEncode,
    {
        match msg {
            ToDevice::Install(share) => {
                frame_prelude(tag::DEVICE_SHARE, buf);
                share.encode(buf);
            }
            ToDevice::InstallTagged(share) => {
                frame_prelude(tag::STRAGGLER_SHARE, buf);
                share.encode(buf);
            }
            ToDevice::Query { request, x, ctx } => {
                // Field-for-field the `QueryMsg` frame layout; a carried
                // trace context upgrades the frame to version 2.
                frame_prelude_ctx(tag::QUERY, ctx.as_ref(), buf);
                request.encode(buf);
                x.encode(buf);
            }
            ToDevice::QueryBatch { request, xs, ctx } => {
                // Field-for-field the `PanelQueryMsg` frame layout.
                frame_prelude_ctx(tag::QUERY_PANEL, ctx.as_ref(), buf);
                request.encode(buf);
                xs.encode(buf);
            }
            ToDevice::Instrument(_) | ToDevice::Shutdown => return false,
        }
        true
    }

    /// Decodes one framed user→device message back into the in-memory
    /// protocol type, dispatching on the frame tag.
    ///
    /// # Errors
    ///
    /// Any codec error, or [`scec_wire::Error::WrongTag`] for a frame
    /// that is not a device-bound message.
    pub fn decode_to_device<F>(buf: &[u8]) -> scec_wire::Result<ToDevice<F>>
    where
        F: Scalar + WireDecode,
    {
        match peek_tag(buf)? {
            tag::DEVICE_SHARE => {
                let share: DeviceShare<F> = decode_framed(buf, tag::DEVICE_SHARE)?;
                Ok(ToDevice::Install(Box::new(share)))
            }
            tag::STRAGGLER_SHARE => {
                let share: StragglerShare<F> = decode_framed(buf, tag::STRAGGLER_SHARE)?;
                Ok(ToDevice::InstallTagged(Box::new(share)))
            }
            tag::QUERY => {
                let (msg, ctx): (QueryMsg<F>, _) = decode_framed_ctx(buf, tag::QUERY)?;
                Ok(ToDevice::Query {
                    request: msg.request,
                    x: Arc::new(msg.query),
                    ctx,
                })
            }
            tag::QUERY_PANEL => {
                let (msg, ctx): (PanelQueryMsg<F>, _) = decode_framed_ctx(buf, tag::QUERY_PANEL)?;
                Ok(ToDevice::QueryBatch {
                    request: msg.request,
                    xs: Arc::new(msg.panel),
                    ctx,
                })
            }
            got => Err(scec_wire::Error::WrongTag {
                expected: tag::QUERY,
                got,
            }),
        }
    }

    /// Encodes one device→user response into a framed wire message,
    /// reusing `buf`.
    ///
    /// [`FromDevice::Partial`] / [`FromDevice::BatchPartial`] /
    /// [`FromDevice::TaggedBatch`] use the serving-tier codecs
    /// ([`PartialMsg`], [`PanelPartialMsg`]); the straggler single-query
    /// response and failures get their own frames
    /// ([`tag::TAGGED_PARTIAL`], [`tag::FAILURE`] with an appended
    /// reason string).
    pub fn encode_response<F>(resp: &FromDevice<F>, buf: &mut Vec<u8>)
    where
        F: Scalar + WireEncode,
    {
        encode_response_ctx(resp, None, buf);
    }

    /// [`encode_response`] with an echoed trace context: a device server
    /// answering a traced (version-2) query stamps the same context on
    /// its response frame, so both directions of a traced window carry
    /// the 17-byte block and wire-byte accounting stays symmetric.
    pub fn encode_response_ctx<F>(
        resp: &FromDevice<F>,
        ctx: Option<&TraceContext>,
        buf: &mut Vec<u8>,
    ) where
        F: Scalar + WireEncode,
    {
        buf.clear();
        append_response_ctx(resp, ctx, buf);
    }

    /// [`encode_response_ctx`] without the clear: the frame is appended
    /// to `buf`.
    pub fn append_response_ctx<F>(
        resp: &FromDevice<F>,
        ctx: Option<&TraceContext>,
        buf: &mut Vec<u8>,
    ) where
        F: Scalar + WireEncode,
    {
        match resp {
            FromDevice::Partial {
                request,
                device,
                values,
            } => {
                // Field-for-field the `PartialMsg` frame layout, written
                // without constructing (and cloning into) the struct.
                frame_prelude_ctx(tag::PARTIAL, ctx, buf);
                request.encode(buf);
                device.encode(buf);
                values.encode(buf);
            }
            FromDevice::BatchPartial {
                request,
                device,
                values,
            } => {
                // `PanelPartialMsg` with no row tags.
                frame_prelude_ctx(tag::PANEL_PARTIAL, ctx, buf);
                request.encode(buf);
                device.encode(buf);
                0usize.encode(buf);
                values.encode(buf);
            }
            FromDevice::TaggedBatch {
                request,
                device,
                rows,
                values,
            } => {
                frame_prelude_ctx(tag::PANEL_PARTIAL, ctx, buf);
                request.encode(buf);
                device.encode(buf);
                rows.encode(buf);
                values.encode(buf);
            }
            FromDevice::TaggedPartial {
                request,
                device,
                responses,
            } => {
                response_header(tag::TAGGED_PARTIAL, *request, *device, ctx, buf);
                responses.encode(buf);
            }
            FromDevice::Failure {
                request,
                device,
                reason,
            } => {
                response_header(tag::FAILURE, *request, *device, ctx, buf);
                reason.len().encode(buf);
                buf.extend_from_slice(reason.as_bytes());
            }
        }
    }

    /// Decodes one framed response back into the in-memory protocol
    /// type.
    ///
    /// # Errors
    ///
    /// Any codec error, or [`scec_wire::Error::WrongTag`] for a frame
    /// that is not a response.
    pub fn decode_response<F>(buf: &[u8]) -> scec_wire::Result<FromDevice<F>>
    where
        F: Scalar + WireDecode,
    {
        match peek_tag(buf)? {
            tag::PARTIAL => {
                let msg: PartialMsg<F> = decode_framed(buf, tag::PARTIAL)?;
                Ok(FromDevice::Partial {
                    request: msg.request,
                    device: msg.device,
                    values: msg.value,
                })
            }
            tag::PANEL_PARTIAL => {
                let msg: PanelPartialMsg<F> = decode_framed(buf, tag::PANEL_PARTIAL)?;
                // An empty tag vector is exactly the untagged block shape;
                // tagged shares always hold at least one row.
                if msg.rows.is_empty() {
                    Ok(FromDevice::BatchPartial {
                        request: msg.request,
                        device: msg.device,
                        values: msg.values,
                    })
                } else {
                    Ok(FromDevice::TaggedBatch {
                        request: msg.request,
                        device: msg.device,
                        rows: msg.rows,
                        values: msg.values,
                    })
                }
            }
            tag::TAGGED_PARTIAL => {
                let header = parse_header(buf)?;
                let mut r = Reader::new(&buf[header.payload_start..]);
                let request = u64::decode(&mut r)?;
                let device = usize::decode(&mut r)?;
                let responses = Vec::<TaggedResponse<F>>::decode(&mut r)?;
                r.finish()?;
                Ok(FromDevice::TaggedPartial {
                    request,
                    device,
                    responses,
                })
            }
            tag::FAILURE => {
                let header = parse_header(buf)?;
                let mut r = Reader::new(&buf[header.payload_start..]);
                let request = u64::decode(&mut r)?;
                let device = usize::decode(&mut r)?;
                let len = r.length(1)?;
                let reason = String::from_utf8(r.take(len)?.to_vec())
                    .map_err(|_| scec_wire::Error::Malformed("failure reason is not utf-8"))?;
                r.finish()?;
                Ok(FromDevice::Failure {
                    request,
                    device,
                    reason,
                })
            }
            got => Err(scec_wire::Error::WrongTag {
                expected: tag::PARTIAL,
                got,
            }),
        }
    }

    /// Stable `&'static str` names for codec failures (the
    /// [`Error::ProtocolViolation`](crate::Error::ProtocolViolation)
    /// payload is a static string).
    pub fn codec_failure_name(e: &scec_wire::Error) -> &'static str {
        match e {
            scec_wire::Error::UnexpectedEof { .. } => "wire codec: truncated frame",
            scec_wire::Error::BadMagic => "wire codec: bad magic",
            scec_wire::Error::UnsupportedVersion { .. } => "wire codec: unsupported version",
            scec_wire::Error::WrongTag { .. } => "wire codec: wrong tag",
            scec_wire::Error::LengthOverflow { .. } => "wire codec: length overflow",
            scec_wire::Error::InvalidFieldElement { .. } => "wire codec: invalid field element",
            scec_wire::Error::TrailingBytes { .. } => "wire codec: trailing bytes",
            _ => "wire codec: malformed frame",
        }
    }

    /// Appends the `MAGIC | VERSION | tag` frame prelude — identical to
    /// what [`scec_wire::encode_framed_into`] emits before the payload.
    fn frame_prelude(msg_tag: u16, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&scec_wire::MAGIC);
        buf.extend_from_slice(&scec_wire::VERSION.to_le_bytes());
        buf.extend_from_slice(&msg_tag.to_le_bytes());
    }

    /// [`frame_prelude`] that upgrades to a version-2 frame — with the
    /// 17-byte trace block between tag and payload — when a context is
    /// carried. `None` stays byte-identical to the version-1 prelude.
    fn frame_prelude_ctx(msg_tag: u16, ctx: Option<&TraceContext>, buf: &mut Vec<u8>) {
        match ctx {
            Some(ctx) => {
                buf.extend_from_slice(&scec_wire::MAGIC);
                buf.extend_from_slice(&scec_wire::TRACED_VERSION.to_le_bytes());
                buf.extend_from_slice(&msg_tag.to_le_bytes());
                ctx.encode_into(buf);
            }
            None => frame_prelude(msg_tag, buf),
        }
    }

    /// Frame prelude + the `request`/`device` pair every response
    /// carries.
    fn response_header(
        msg_tag: u16,
        request: u64,
        device: usize,
        ctx: Option<&TraceContext>,
        buf: &mut Vec<u8>,
    ) {
        frame_prelude_ctx(msg_tag, ctx, buf);
        request.encode(buf);
        device.encode(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::frames::{decode_response, decode_to_device, encode_response, encode_to_device};
    use super::*;
    use crate::cluster::{Cluster, Link};
    use crate::{LocalCluster, PanelQuery, PipelinedQuery, SimClock};
    use rand::{rngs::StdRng, SeedableRng};
    use scec_coding::{CodeDesign, Encoder, TaggedResponse};
    use scec_linalg::{Fp61, Matrix, Vector};
    use std::sync::mpsc::TryRecvError;

    impl<F> ChannelTransport<F> {
        /// A transport with no actor threads behind it: the test holds the
        /// inboxes, one per id, and plays the devices.
        pub(crate) fn unthreaded(ids: &[usize]) -> (Self, Vec<Receiver<Vec<ToDevice<F>>>>) {
            let (devices, inboxes) = ids
                .iter()
                .map(|&device| {
                    let (tx, inbox) = channel();
                    (DeviceHandle::new(device, tx, None), inbox)
                })
                .unzip();
            (ChannelTransport { devices }, inboxes)
        }
    }

    /// The window the hand-off tests queue.
    const WINDOW: u64 = 16;

    /// The devices' ends of an unthreaded transport, in roster order.
    type Inboxes = Vec<Receiver<Vec<ToDevice<Fp61>>>>;

    fn query(request: u64) -> ToDevice<Fp61> {
        ToDevice::Query {
            request,
            x: Arc::new(Vector::zeros(4)),
            ctx: None,
        }
    }

    fn answer(request: u64) -> FromDevice<Fp61> {
        FromDevice::Partial {
            request,
            device: 1,
            values: Vector::zeros(2),
        }
    }

    /// Queues [`WINDOW`] queries per device — nothing may reach an inbox
    /// yet — then flushes: each inbox holds exactly one message, the
    /// whole window in order.
    fn assert_one_message_per_device_per_window(
        transport: &dyn Transport<Fp61>,
        inboxes: &Inboxes,
    ) {
        for request in 1..=WINDOW {
            for index in 0..transport.device_count() {
                transport.send(index, query(request)).unwrap();
            }
        }
        for inbox in inboxes {
            assert_eq!(inbox.try_recv().err(), Some(TryRecvError::Empty));
        }
        transport.flush().unwrap();
        for inbox in inboxes {
            let requests: Vec<u64> = (inbox.try_recv().expect("the window"))
                .iter()
                .map(|msg| match msg {
                    ToDevice::Query { request, .. } => *request,
                    other => panic!("not a query: {other:?}"),
                })
                .collect();
            assert_eq!(requests, (1..=WINDOW).collect::<Vec<_>>());
            assert_eq!(inbox.try_recv().err(), Some(TryRecvError::Empty));
        }
        // A second flush has nothing to hand over.
        transport.flush().unwrap();
        for inbox in inboxes {
            assert_eq!(inbox.try_recv().err(), Some(TryRecvError::Empty));
        }
    }

    #[test]
    fn hand_off_count_a_window_is_one_message_per_device_over_channels() {
        let (transport, inboxes) = ChannelTransport::<Fp61>::unthreaded(&[1, 2, 3]);
        assert_one_message_per_device_per_window(&transport, &inboxes);
        println!("hand-off count: channel, {WINDOW} queries -> 1 message per device");
    }

    #[test]
    fn hand_off_count_a_window_is_one_message_each_way_over_the_sim_link() {
        let (inner, inboxes) = ChannelTransport::<Fp61>::unthreaded(&[1, 2, 3]);
        let (device_side, inner_rx) = channel();
        let clock: Arc<dyn Clock> = Arc::new(SimClock::new());
        let (mut transport, responses) =
            SimLinkTransport::wrap(inner, inner_rx, clock, Duration::ZERO);
        assert_one_message_per_device_per_window(&transport, &inboxes);
        // And back: a device's batch of answers crosses the relay whole.
        device_side
            .send((1..=WINDOW).map(answer).collect())
            .unwrap();
        let relayed = responses.recv().expect("the relayed batch");
        let requests: Vec<u64> = relayed.iter().map(FromDevice::request).collect();
        assert_eq!(requests, (1..=WINDOW).collect::<Vec<_>>());
        drop(device_side);
        transport.shutdown();
        assert!(responses.try_recv().is_err(), "one batch in, one batch out");
        println!("hand-off count: sim-link, {WINDOW} queries -> 1 message per device, {WINDOW} answers -> 1 message");
    }

    fn shares(seed: u64) -> (CodeDesign, Vec<scec_coding::DeviceShare<Fp61>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::<Fp61>::random(6, 4, &mut rng);
        let design = CodeDesign::new(6, 2).unwrap();
        let shares = Encoder::new(design.clone()).encode(&a, &mut rng).unwrap();
        (design, shares.into_shares())
    }

    /// What kind of message each entry of a batch is.
    fn kinds(batch: &[ToDevice<Fp61>]) -> Vec<&'static str> {
        let kind = |msg: &ToDevice<Fp61>| match msg {
            ToDevice::Install(_) | ToDevice::InstallTagged(_) => "install",
            ToDevice::Query { .. } => "query",
            ToDevice::QueryBatch { .. } => "panel",
            ToDevice::Instrument(_) => "instrument",
            ToDevice::Shutdown => "shutdown",
        };
        batch.iter().map(kind).collect()
    }

    #[test]
    fn an_install_goes_at_once_behind_the_queued_queries() {
        let (transport, inboxes) = ChannelTransport::<Fp61>::unthreaded(&[1]);
        let (_, mut shares) = shares(1);
        transport.send(0, query(1)).unwrap();
        transport.send(0, query(2)).unwrap();
        assert!(inboxes[0].try_recv().is_err(), "queries wait for a flush");
        let install = ToDevice::Install(Box::new(shares.remove(0)));
        transport.send(0, install).unwrap();
        let batch = inboxes[0].try_recv().expect("delivered by the install");
        assert_eq!(kinds(&batch), ["query", "query", "install"]);
        assert!(matches!(batch[0], ToDevice::Query { request: 1, .. }));
        assert!(matches!(batch[1], ToDevice::Query { request: 2, .. }));
        transport.flush().unwrap();
        assert!(inboxes[0].try_recv().is_err(), "nothing was left behind");
    }

    /// A base-protocol cluster over an unthreaded transport: the test
    /// holds the inboxes (already drained of the installs) and the send
    /// side of the response stream.
    fn unthreaded_cluster() -> (LocalCluster<Fp61>, Inboxes, Sender<Vec<FromDevice<Fp61>>>) {
        let (design, shares) = shares(2);
        let ids: Vec<usize> = shares.iter().map(|s| s.device()).collect();
        let (transport, inboxes) = ChannelTransport::unthreaded(&ids);
        let (resp_tx, resp_rx) = channel();
        let clock: Arc<dyn Clock> = Arc::new(SimClock::new());
        let encoded = (Duration::ZERO, Duration::ZERO);
        let link = |_: &[_]| -> Result<Link<Fp61>> { Ok((Box::new(transport), resp_rx)) };
        let cluster = Cluster::launch_over(design, shares, |_| None, clock, encoded, link).unwrap();
        for inbox in &inboxes {
            assert_eq!(kinds(&inbox.try_recv().expect("the install")), ["install"]);
        }
        (cluster, inboxes, resp_tx)
    }

    #[test]
    fn abandon_shutdown_and_drop_leave_nothing_queued() {
        let (cluster, inboxes, _resp_tx) = unthreaded_cluster();
        let x = Vector::<Fp61>::zeros(4);
        let xs = Matrix::<Fp61>::zeros(4, 3);
        let delivered = |what: &str, want: &[&str]| {
            for inbox in &inboxes {
                assert_eq!(kinds(&inbox.try_recv().expect(what)), want, "{what}");
                assert!(inbox.try_recv().is_err(), "{what}: one message");
            }
        };

        let first = PipelinedQuery::begin(&cluster, &x).unwrap();
        let second = PipelinedQuery::begin(&cluster, &x).unwrap();
        for inbox in &inboxes {
            assert!(inbox.try_recv().is_err(), "a pipelined begin stays queued");
        }
        cluster.abandon_query(first);
        delivered("abandon_query", &["query", "query"]);
        cluster.abandon_query(second);

        let panel = PanelQuery::begin_panel(&cluster, &xs).unwrap();
        let _still_open = PipelinedQuery::begin(&cluster, &x).unwrap();
        cluster.abandon_panel(panel);
        delivered("abandon_panel", &["panel", "query"]);

        // The inherent begins are eager.
        cluster.abandon_query(cluster.begin_query(&x).unwrap());
        delivered("begin_query", &["query"]);
        cluster.abandon_panel(cluster.begin_panel(&xs).unwrap());
        delivered("begin_panel", &["panel"]);

        let _queued = PipelinedQuery::begin(&cluster, &x).unwrap();
        drop(cluster);
        delivered("drop", &["query", "shutdown"]);

        let (cluster, inboxes, _resp_tx) = unthreaded_cluster();
        let _queued = PipelinedQuery::begin(&cluster, &x).unwrap();
        cluster.shutdown();
        for inbox in &inboxes {
            let last = inbox.try_recv().expect("shutdown");
            assert_eq!(kinds(&last), ["query", "shutdown"]);
        }
    }

    #[test]
    fn a_flush_that_finds_a_device_gone_fails_the_finish_that_triggered_it() {
        let (cluster, mut inboxes, _resp_tx) = unthreaded_cluster();
        // Shares are enrolled in device order, 1-based.
        let gone = 2;
        drop(inboxes.remove(gone - 1));
        let x = Vector::<Fp61>::zeros(4);
        // Queuing cannot fail; the hand-off does, inside the wait.
        let ticket = PipelinedQuery::begin(&cluster, &x).expect("queued");
        match cluster.finish_query(ticket) {
            Err(Error::ChannelClosed { device }) => assert_eq!(device, Some(gone)),
            other => panic!("expected ChannelClosed naming device {gone}, got {other:?}"),
        }
        // The devices that are there were served all the same.
        for inbox in &inboxes {
            assert_eq!(kinds(&inbox.try_recv().expect("the query")), ["query"]);
        }
        // Eagerly, the begin itself reports it.
        assert!(matches!(
            cluster.begin_query(&x),
            Err(Error::ChannelClosed { device }) if device == Some(gone)
        ));
    }

    #[test]
    fn responses_roundtrip_losslessly() {
        let mut buf = Vec::new();
        let cases: Vec<FromDevice<Fp61>> = vec![
            FromDevice::Partial {
                request: 3,
                device: 2,
                values: Vector::from_vec(vec![Fp61::new(1), Fp61::new(9)]),
            },
            FromDevice::BatchPartial {
                request: 4,
                device: 1,
                values: Matrix::identity(3),
            },
            FromDevice::TaggedBatch {
                request: 5,
                device: 3,
                rows: vec![0, 4],
                values: Matrix::zeros(2, 3),
            },
            FromDevice::TaggedPartial {
                request: 6,
                device: 4,
                responses: vec![TaggedResponse {
                    row: 7,
                    value: Fp61::new(11),
                }],
            },
            FromDevice::Failure {
                request: 7,
                device: 5,
                reason: "no share installed".into(),
            },
        ];
        for case in cases {
            encode_response(&case, &mut buf);
            let back = decode_response::<Fp61>(&buf).unwrap();
            // FromDevice has no PartialEq; compare the debug views.
            assert_eq!(format!("{back:?}"), format!("{case:?}"));
        }
    }

    #[test]
    fn device_bound_messages_roundtrip_losslessly() {
        let mut buf = Vec::new();
        let ctx = scec_telemetry::TraceContext::derive(7, 8, 0);
        let cases: Vec<ToDevice<Fp61>> = vec![
            ToDevice::Query {
                request: 8,
                x: Arc::new(Vector::from_vec(vec![Fp61::new(2), Fp61::new(3)])),
                ctx: None,
            },
            ToDevice::QueryBatch {
                request: 9,
                xs: Arc::new(Matrix::identity(2)),
                ctx: None,
            },
            // Traced (version-2) frames round-trip the context too.
            ToDevice::Query {
                request: 10,
                x: Arc::new(Vector::from_vec(vec![Fp61::new(5)])),
                ctx: Some(ctx),
            },
            ToDevice::QueryBatch {
                request: 11,
                xs: Arc::new(Matrix::identity(3)),
                ctx: Some(ctx.child_of(99)),
            },
        ];
        for case in cases {
            assert!(encode_to_device(&case, &mut buf));
            let back = decode_to_device::<Fp61>(&buf).unwrap();
            assert_eq!(format!("{back:?}"), format!("{case:?}"));
        }
        // Control-plane messages refuse to serialize.
        assert!(!encode_to_device::<Fp61>(&ToDevice::Shutdown, &mut buf));
    }

    #[test]
    fn traced_responses_echo_the_context_and_grow_by_the_block() {
        use super::frames::encode_response_ctx;
        let ctx = scec_telemetry::TraceContext::derive(3, 14, 1);
        let cases: Vec<FromDevice<Fp61>> = vec![
            FromDevice::Partial {
                request: 14,
                device: 2,
                values: Vector::from_vec(vec![Fp61::new(4)]),
            },
            FromDevice::TaggedPartial {
                request: 14,
                device: 2,
                responses: vec![TaggedResponse {
                    row: 1,
                    value: Fp61::new(6),
                }],
            },
            FromDevice::Failure {
                request: 14,
                device: 2,
                reason: "boom".into(),
            },
        ];
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        for case in cases {
            encode_response(&case, &mut plain);
            encode_response_ctx(&case, Some(&ctx), &mut traced);
            assert_eq!(
                traced.len(),
                plain.len() + scec_telemetry::TRACE_CONTEXT_WIRE_BYTES as usize
            );
            assert_eq!(scec_wire::parse_header(&traced).unwrap().trace, Some(ctx));
            // The decoded response is identical either way.
            let a = decode_response::<Fp61>(&plain).unwrap();
            let b = decode_response::<Fp61>(&traced).unwrap();
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }

    #[test]
    fn garbage_response_frames_yield_typed_errors() {
        assert!(decode_response::<Fp61>(&[]).is_err());
        assert!(decode_response::<Fp61>(b"XXXXXXXXXXXX").is_err());
        assert!(decode_to_device::<Fp61>(b"XXXXXXXXXXXX").is_err());
        let mut buf = Vec::new();
        // A response frame is not a device-bound frame.
        encode_response::<Fp61>(
            &FromDevice::Failure {
                request: 1,
                device: 2,
                reason: "x".into(),
            },
            &mut buf,
        );
        assert!(matches!(
            decode_to_device::<Fp61>(&buf),
            Err(scec_wire::Error::WrongTag { .. })
        ));
        // Truncated failure reason.
        buf.truncate(8);
        9usize.encode(&mut buf);
        buf.extend_from_slice(b"abc");
        assert!(decode_response::<Fp61>(&buf).is_err());
    }
}

//! Pluggable message paths between the user/cloud and the device fleet.
//!
//! Every cluster flavor speaks the same typed [`message`](crate::message)
//! protocol; what differs in a deployment is the *medium* carrying it.
//! The [`Transport`] trait abstracts the send side of that medium so the
//! cluster core is generic over it:
//!
//! * [`ChannelTransport`] — the in-process backend: one OS thread per
//!   device actor, crossbeam channels, zero serialization. This is the
//!   original runtime fabric, bit-identical to the pre-trait clusters.
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
//! The receive side stays a crossbeam [`Receiver`] feeding the cluster
//! mailbox, whatever the backend: remote transports pump their sockets
//! into the channel from reader threads.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, Sender};

use scec_linalg::Scalar;
use scec_wire::{WireDecode, WireEncode};

use crate::clock::Clock;
use crate::device::{device_main, DeviceBehavior};
use crate::error::{Error, Result};
use crate::message::{FromDevice, ToDevice};

/// The send side of a device fleet: a fixed roster of enrolled devices
/// reachable by protocol messages.
///
/// Implementations must map a failed send onto
/// [`Error::ChannelClosed`] naming the device, so cluster-level crash
/// detection behaves identically across backends. Responses flow back
/// through the crossbeam channel the transport was built with — the
/// cluster's mailbox does not know which backend produced them.
pub trait Transport<F: Scalar>: Send + Sync {
    /// Number of enrolled devices.
    fn device_count(&self) -> usize;

    /// The (1-based) protocol device id at roster `index`.
    fn device_id(&self, index: usize) -> usize;

    /// Sends one protocol message to the device at roster `index`.
    ///
    /// # Errors
    ///
    /// [`Error::ChannelClosed`] when the device is unreachable.
    fn send(&self, index: usize, msg: ToDevice<F>) -> Result<()>;

    /// Puts every message accepted by [`send`](Self::send) on its way.
    ///
    /// A backend may leave query messages queued so that a window of
    /// them shares one write; the cluster calls this before it blocks
    /// on responses, so nothing queued outlives the next wait. Backends
    /// that deliver inside `send` keep the default no-op.
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
    tx: Sender<ToDevice<F>>,
    join: Option<JoinHandle<()>>,
}

/// The in-process backend: one spawned actor thread per device, plain
/// crossbeam channels, no serialization.
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
        resp_tx: &Sender<FromDevice<F>>,
    ) -> Self {
        let mut devices = Vec::with_capacity(specs.len());
        for (device, behavior) in specs {
            let (tx, rx) = unbounded();
            let outbox = resp_tx.clone();
            let device_clock = Arc::clone(clock);
            let join = std::thread::Builder::new()
                .name(format!("scec-device-{device}"))
                .spawn(move || device_main::<F>(device, rx, outbox, behavior, device_clock))
                .expect("spawn device thread");
            devices.push(DeviceHandle {
                device,
                tx,
                join: Some(join),
            });
        }
        ChannelTransport { devices }
    }

    /// Spawns the actors with a fresh response channel and returns the
    /// receive side for the cluster mailbox.
    pub(crate) fn spawn(
        specs: Vec<(usize, DeviceBehavior)>,
        clock: &Arc<dyn Clock>,
    ) -> (Self, Receiver<FromDevice<F>>) {
        let (resp_tx, resp_rx) = unbounded();
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
        dev.tx.send(msg).map_err(|_| Error::ChannelClosed {
            device: Some(dev.device),
        })
    }

    fn shutdown(&mut self) {
        for dev in &self.devices {
            // A send failure just means the thread is already gone.
            let _ = dev.tx.send(ToDevice::Shutdown);
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
/// latency slept on the cluster clock.
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
        inner_rx: Receiver<FromDevice<F>>,
        clock: Arc<dyn Clock>,
        delay: Duration,
    ) -> (Self, Receiver<FromDevice<F>>) {
        let (out_tx, out_rx) = unbounded();
        let relay_clock = Arc::clone(&clock);
        let relay = std::thread::Builder::new()
            .name("scec-simlink-relay".into())
            .spawn(move || {
                // One reused encode buffer for the whole connection —
                // the same pooled-buffer discipline the TCP hot path
                // uses.
                let mut buf = Vec::new();
                while let Ok(resp) = inner_rx.recv() {
                    if !delay.is_zero() {
                        relay_clock.sleep(delay);
                    }
                    frames::encode_response(&resp, &mut buf);
                    let roundtripped = match frames::decode_response::<F>(&buf) {
                        Ok(r) => r,
                        // A codec failure on the simulated link models a
                        // corrupt frame: surface it as a device failure
                        // rather than silently dropping the response.
                        Err(e) => FromDevice::Failure {
                            request: resp.request(),
                            device: resp.device(),
                            reason: format!("simulated link codec error: {e}"),
                        },
                    };
                    if out_tx.send(roundtripped).is_err() {
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
    use scec_coding::TaggedResponse;
    use scec_linalg::{Fp61, Matrix, Vector};

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

//! The TCP [`Transport`] backend: a cluster's device fleet reached over
//! real sockets.
//!
//! One connection per enrolled device, blocking I/O throughout. Sends
//! encode straight into a per-device out-buffer (length prefix patched
//! in place). Query frames stay there until [`Transport::flush`] — which
//! the cluster calls before it waits for responses — or until
//! `MAX_PENDING_BYTES` are queued, so a pipelined window leaves in one
//! `write` per device; share installs and the closing BYE are written at
//! once, behind whatever was queued. A reader thread per device pulls
//! response frames through a buffered [`FrameReader`] and decodes them
//! into the cluster's mailbox channel, everything one socket read
//! produced as one batch — the same channel of batches the in-memory
//! backend feeds, so the cluster core cannot tell the difference.
//!
//! Every frame is metered by a [`WireMeter`] shared with the caller:
//! the transport reports `counts_wire_bytes() == true`, which switches
//! the cluster core's analytic byte accounting off, and the router
//! reconciles the *measured* per-device byte counters into the cost
//! ledger instead — predicted-vs-observed in actual wire bytes.

use std::io::Write as _;
use std::marker::PhantomData;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use scec_coding::HelloMsg;
use scec_linalg::Scalar;
use scec_runtime::message::{FromDevice, ToDevice};
use scec_runtime::transport::{frames, Responses};
use scec_runtime::Transport;
use scec_wire::stream::{
    begin_frame, end_frame, read_frame, write_frame, FrameReader, DEFAULT_MAX_FRAME,
    LEN_PREFIX_BYTES,
};
use scec_wire::{encode_framed_into, peek_tag, tag, WireDecode, WireEncode};

use crate::error::{Error, Result};
use crate::MAX_PENDING_BYTES;

/// Shared per-device wire-byte counters, one pair per enrolled device.
/// Clone it out of [`TcpTransport::connect`] before handing the
/// transport to a cluster; reads stay valid for the life of all clones.
#[derive(Clone)]
pub struct WireMeter {
    inner: Arc<MeterInner>,
}

struct MeterInner {
    devices: Vec<usize>,
    sent: Vec<AtomicU64>,
    received: Vec<AtomicU64>,
}

impl WireMeter {
    fn new(devices: Vec<usize>) -> Self {
        let n = devices.len();
        WireMeter {
            inner: Arc::new(MeterInner {
                devices,
                sent: (0..n).map(|_| AtomicU64::new(0)).collect(),
                received: (0..n).map(|_| AtomicU64::new(0)).collect(),
            }),
        }
    }

    /// Protocol device ids, in roster order (parallel to the counters).
    pub fn devices(&self) -> &[usize] {
        &self.inner.devices
    }

    /// Bytes sent to the device at roster `index`, framing included.
    pub fn sent(&self, index: usize) -> u64 {
        self.inner.sent[index].load(Ordering::Relaxed)
    }

    /// Bytes received from the device at roster `index`.
    pub fn received(&self, index: usize) -> u64 {
        self.inner.received[index].load(Ordering::Relaxed)
    }

    /// Fleet totals `(sent, received)`.
    pub fn totals(&self) -> (u64, u64) {
        let sum = |v: &[AtomicU64]| v.iter().map(|a| a.load(Ordering::Relaxed)).sum();
        (sum(&self.inner.sent), sum(&self.inner.received))
    }

    fn add_sent(&self, index: usize, bytes: u64) {
        self.inner.sent[index].fetch_add(bytes, Ordering::Relaxed);
    }

    fn add_received(&self, index: usize, bytes: u64) {
        self.inner.received[index].fetch_add(bytes, Ordering::Relaxed);
    }
}

/// One device's send side: the socket plus the frames queued for it,
/// under one lock so concurrent broadcasts interleave whole frames.
struct Peer {
    device: usize,
    send: Mutex<(TcpStream, Vec<u8>)>,
}

impl Peer {
    fn closed(&self) -> scec_runtime::Error {
        scec_runtime::Error::ChannelClosed {
            device: Some(self.device),
        }
    }
}

/// Writes everything queued in `out` with one `write_all` and meters it
/// as sent. Frames that could not be written are dropped: the
/// connection is dead, and the caller reports it.
fn write_queued(
    stream: &mut TcpStream,
    out: &mut Vec<u8>,
    meter: &WireMeter,
    index: usize,
) -> std::io::Result<()> {
    if out.is_empty() {
        return Ok(());
    }
    let written = stream.write_all(out);
    if written.is_ok() {
        meter.add_sent(index, out.len() as u64);
    }
    out.clear();
    written
}

/// A [`Transport`] whose devices live across TCP connections.
pub struct TcpTransport<F> {
    peers: Vec<Peer>,
    meter: WireMeter,
    readers: Vec<JoinHandle<()>>,
    _field: PhantomData<fn() -> F>,
}

impl<F> TcpTransport<F>
where
    F: Scalar + WireEncode + WireDecode + 'static,
{
    /// Opens one connection per device id, runs the tenant handshake on
    /// each, and spawns the reader threads. Returns the transport, the
    /// response stream for the cluster mailbox, and the byte meter.
    ///
    /// # Errors
    ///
    /// Connect/handshake I/O failures, or [`Error::Admission`] when the
    /// server refuses the tenant.
    pub fn connect(
        addr: SocketAddr,
        tenant: u64,
        device_ids: &[usize],
    ) -> Result<(Self, Responses<F>, WireMeter)> {
        let meter = WireMeter::new(device_ids.to_vec());
        let (resp_tx, resp_rx) = channel();
        let mut peers = Vec::with_capacity(device_ids.len());
        let mut readers = Vec::with_capacity(device_ids.len());
        let mut buf = Vec::new();
        for (index, &device) in device_ids.iter().enumerate() {
            let mut stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            handshake(&mut stream, tenant, device, &mut buf, &meter, index)?;
            readers.push(spawn_reader(
                stream.try_clone()?,
                device,
                index,
                meter.clone(),
                resp_tx.clone(),
            )?);
            peers.push(Peer {
                device,
                send: Mutex::new((stream, Vec::new())),
            });
        }
        Ok((
            TcpTransport {
                peers,
                meter: meter.clone(),
                readers,
                _field: PhantomData,
            },
            resp_rx,
            meter,
        ))
    }
}

/// HELLO → ack round trip; a FAILURE reply is an admission refusal.
fn handshake(
    stream: &mut TcpStream,
    tenant: u64,
    device: usize,
    buf: &mut Vec<u8>,
    meter: &WireMeter,
    index: usize,
) -> Result<()> {
    encode_framed_into(&HelloMsg { tenant, device }, tag::HELLO, buf);
    write_frame(stream, buf)?;
    meter.add_sent(index, (LEN_PREFIX_BYTES + buf.len()) as u64);
    stream.flush()?;
    read_frame(stream, buf, DEFAULT_MAX_FRAME)?;
    meter.add_received(index, (LEN_PREFIX_BYTES + buf.len()) as u64);
    match peek_tag(buf)? {
        tag::HELLO => Ok(()),
        tag::FAILURE => {
            let reason = match frames::decode_response::<scec_linalg::Fp61>(buf) {
                Ok(FromDevice::Failure { reason, .. }) => reason,
                _ => "admission refused".into(),
            };
            Err(Error::Admission { tenant, reason })
        }
        got => Err(Error::Protocol(format!(
            "unexpected handshake reply tag {got}"
        ))),
    }
}

fn spawn_reader<F>(
    mut stream: TcpStream,
    device: usize,
    index: usize,
    meter: WireMeter,
    resp_tx: Sender<Vec<FromDevice<F>>>,
) -> Result<JoinHandle<()>>
where
    F: Scalar + WireDecode + 'static,
{
    Ok(std::thread::Builder::new()
        .name(format!("scec-tcp-reader-{device}"))
        .spawn(move || {
            let mut reader = FrameReader::new(DEFAULT_MAX_FRAME);
            let mut batch = Vec::new();
            // Ends on EOF (the server closed) or a broken stream alike.
            while let Ok(frame) = reader.next_frame(&mut stream) {
                meter.add_received(index, (LEN_PREFIX_BYTES + frame.len()) as u64);
                let resp = match frames::decode_response::<F>(frame) {
                    Ok(resp) if resp.device() == device => resp,
                    // The connection is the identity: a frame naming
                    // another device is this device's failure, not that
                    // device's answer.
                    Ok(resp) => FromDevice::Failure {
                        request: resp.request(),
                        device,
                        reason: format!("response signed as device {}", resp.device()),
                    },
                    // Corrupt response frame: surface as a device
                    // failure so the cluster's quorum logic sees it.
                    Err(e) => FromDevice::Failure {
                        request: 0,
                        device,
                        reason: format!("response codec error: {e}"),
                    },
                };
                batch.push(resp);
                if reader.has_frame() {
                    continue;
                }
                // Everything one socket read produced is one hand-off to
                // the mailbox; the next read likely brings as much.
                let next = Vec::with_capacity(batch.len());
                if resp_tx.send(std::mem::replace(&mut batch, next)).is_err() {
                    return;
                }
            }
        })?)
}

impl<F> Transport<F> for TcpTransport<F>
where
    F: Scalar + WireEncode + WireDecode + 'static,
{
    fn device_count(&self) -> usize {
        self.peers.len()
    }

    fn device_id(&self, index: usize) -> usize {
        self.peers[index].device
    }

    fn send(&self, index: usize, msg: ToDevice<F>) -> scec_runtime::Result<()> {
        let peer = &self.peers[index];
        let mut guard = peer.send.lock().unwrap_or_else(|p| p.into_inner());
        let (stream, out) = &mut *guard;
        let start = begin_frame(out);
        if !frames::append_to_device(&msg, out) {
            // Control plane (Instrument): telemetry handles are
            // process-local; the server side has nothing to attach.
            out.truncate(start);
            return Ok(());
        }
        end_frame(out, start).map_err(|_| peer.closed())?;
        // Queries wait for `flush` so a window of them shares one write;
        // an install is written now, behind whatever was queued.
        let queued = matches!(msg, ToDevice::Query { .. } | ToDevice::QueryBatch { .. });
        if queued && out.len() < MAX_PENDING_BYTES {
            return Ok(());
        }
        let written = write_queued(stream, out, &self.meter, index);
        if !queued {
            // A share is the one large thing a connection sends: the
            // buffer it grew goes back rather than idling, a megabyte
            // wide, under query windows.
            *out = Vec::new();
        }
        written.map_err(|_| peer.closed())
    }

    fn flush(&self) -> scec_runtime::Result<()> {
        for (index, peer) in self.peers.iter().enumerate() {
            let mut guard = peer.send.lock().unwrap_or_else(|p| p.into_inner());
            let (stream, out) = &mut *guard;
            write_queued(stream, out, &self.meter, index).map_err(|_| peer.closed())?;
        }
        Ok(())
    }

    fn counts_wire_bytes(&self) -> bool {
        true
    }

    fn wire_bytes(&self) -> Option<(u64, u64)> {
        Some(self.meter.totals())
    }

    fn shutdown(&mut self) {
        for (index, peer) in self.peers.iter().enumerate() {
            let mut guard = peer.send.lock().unwrap_or_else(|p| p.into_inner());
            let (stream, out) = &mut *guard;
            // Queued queries first, the BYE behind them, in one write.
            // The BYE is not metered (it never was): the ledger prices
            // protocol messages, not connection teardown.
            let queued = out.len() as u64;
            let start = begin_frame(out);
            bye_frame(out);
            if end_frame(out, start).is_ok() && stream.write_all(out).is_ok() {
                self.meter.add_sent(index, queued);
            }
            out.clear();
            let _ = stream.shutdown(Shutdown::Both);
        }
        for join in self.readers.drain(..) {
            let _ = join.join();
        }
    }
}

/// Appends a BYE, which is header-only: magic, version, tag — no
/// payload.
fn bye_frame(buf: &mut Vec<u8>) {
    buf.extend_from_slice(&scec_wire::MAGIC);
    buf.extend_from_slice(&scec_wire::VERSION.to_le_bytes());
    buf.extend_from_slice(&tag::BYE.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use std::net::TcpListener;
    use std::sync::Arc;
    use std::time::Duration;

    use scec_coding::DeviceShare;
    use scec_linalg::{Fp61, Matrix, Vector};

    use super::*;

    /// Checked when this compiles: a cluster over TCP is shared between
    /// threads like any other.
    #[test]
    fn the_tcp_transport_is_send_and_sync() {
        fn shared<T: Send + Sync>() {}
        shared::<TcpTransport<Fp61>>();
    }

    #[test]
    fn an_install_leaves_no_share_sized_buffer_behind() {
        const WINDOW: usize = 16;
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("bound address");
        // Device 1's peer: admits the HELLO, then counts the frames that
        // reach it until the client says BYE.
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut frame = Vec::new();
            read_frame(&mut stream, &mut frame, DEFAULT_MAX_FRAME).expect("hello");
            write_frame(&mut stream, &frame).expect("ack");
            let mut tags = Vec::new();
            while read_frame(&mut stream, &mut frame, DEFAULT_MAX_FRAME).is_ok() {
                tags.push(peek_tag(&frame).expect("tag"));
            }
            tags
        });
        let (mut transport, _responses, meter) =
            TcpTransport::<Fp61>::connect(addr, 0, &[1]).expect("connect");
        let out_buffer = |t: &TcpTransport<Fp61>| {
            let guard = t.peers[0].send.lock().expect("send lock");
            (guard.1.len(), guard.1.capacity())
        };
        // A share of 2 MiB: written at once, and its buffer given back.
        let coded = Matrix::<Fp61>::zeros(256, 1024);
        let share = DeviceShare::from_parts(1, 0, coded);
        transport
            .send(0, ToDevice::Install(Box::new(share)))
            .expect("install");
        let installed = meter.sent(0);
        assert!(installed > 2 << 20, "{installed} bytes on the wire");
        let (queued, capacity) = out_buffer(&transport);
        assert_eq!(queued, 0);
        assert!(capacity <= MAX_PENDING_BYTES, "{capacity} bytes kept");
        // The window that follows still queues whole and leaves in one
        // write: nothing is metered until the flush, then all of it is.
        for request in 0..WINDOW as u64 {
            let query = ToDevice::Query {
                request,
                x: Arc::new(Vector::zeros(128)),
                ctx: None,
            };
            transport.send(0, query).expect("send");
        }
        let (queued, _) = out_buffer(&transport);
        assert!(queued > WINDOW * 128 * 8 && queued < MAX_PENDING_BYTES);
        assert_eq!(meter.sent(0), installed);
        transport.flush().expect("flush");
        assert_eq!(meter.sent(0), installed + queued as u64);
        assert_eq!(out_buffer(&transport).0, 0);
        transport.shutdown();
        let mut expected = vec![tag::DEVICE_SHARE];
        expected.extend([tag::QUERY; WINDOW]);
        expected.push(tag::BYE);
        assert_eq!(peer.join().expect("peer"), expected);
    }

    #[test]
    fn a_response_naming_another_device_is_the_connections_own_failure() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("bound address");
        // Device 1's peer: admits the HELLO, then answers the query with
        // a well-formed partial signed as device 2.
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut frame = Vec::new();
            read_frame(&mut stream, &mut frame, DEFAULT_MAX_FRAME).expect("hello");
            write_frame(&mut stream, &frame).expect("ack");
            read_frame(&mut stream, &mut frame, DEFAULT_MAX_FRAME).expect("query");
            let forged = FromDevice::Partial {
                request: 7,
                device: 2,
                values: Vector::<Fp61>::zeros(1),
            };
            frames::encode_response(&forged, &mut frame);
            write_frame(&mut stream, &frame).expect("response");
            // Hold the connection open until the client says BYE.
            let _ = read_frame(&mut stream, &mut frame, DEFAULT_MAX_FRAME);
        });
        let (mut transport, responses, _meter) =
            TcpTransport::<Fp61>::connect(addr, 0, &[1]).expect("connect");
        let query = ToDevice::Query {
            request: 7,
            x: Arc::new(Vector::zeros(1)),
            ctx: None,
        };
        transport.send(0, query).expect("send");
        transport.flush().expect("flush");
        let batch = responses.recv_timeout(Duration::from_secs(30));
        match batch.as_deref() {
            Ok(
                [FromDevice::Failure {
                    request: 7,
                    device: 1,
                    reason,
                }],
            ) => assert!(reason.contains("device 2"), "{reason}"),
            other => panic!("expected device 1's failure, got {other:?}"),
        }
        transport.shutdown();
        peer.join().expect("peer");
    }
}

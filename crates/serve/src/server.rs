//! The device-side server: a fleet of SCEC devices behind one TCP
//! listener.
//!
//! Each accepted connection is one *device enrollment* by one tenant:
//! the peer opens with a [`HelloMsg`] naming its tenant and device id,
//! then installs a coded share and streams queries. Connections are
//! fully sharded — a connection's share lives on its handler thread's
//! stack, so tenants (and devices within a tenant) never contend on
//! shared state; the only cross-connection touches are a few atomic
//! stats counters.
//!
//! Threading is plain blocking I/O: one OS thread per connection, no
//! async runtime. The hot loop coalesces both directions: one `read`
//! pulls every request the socket holds, and the responses to them leave
//! in one `write` once no further complete request is buffered — so a
//! client that pipelines a window of queries pays two syscalls here per
//! window, not three per query.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use scec_coding::HelloMsg;
use scec_linalg::Scalar;
use scec_runtime::device::Device;
use scec_runtime::message::FromDevice;
use scec_runtime::transport::frames;
use scec_runtime::{Clock, RealClock};
use scec_telemetry::{Telemetry, TraceContext};
use scec_wire::stream::{
    begin_frame, end_frame, read_frame, write_frame, FrameReader, DEFAULT_MAX_FRAME,
};
use scec_wire::{decode_framed, encode_framed_into, peek_tag, tag, WireDecode, WireEncode};

use crate::error::{Error, Result};
use crate::MAX_PENDING_BYTES;

/// Knobs for a [`DeviceServer`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Tenants with id `>= max_tenants` are refused at handshake time —
    /// the admission-control gate.
    pub max_tenants: u64,
    /// Cap on an incoming frame's payload, enforced before allocation.
    pub max_frame: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_tenants: u64::MAX,
            max_frame: DEFAULT_MAX_FRAME,
        }
    }
}

/// Cross-connection counters, all monotone except `active`.
#[derive(Default)]
pub struct ServerStats {
    /// Connections admitted past the handshake.
    pub accepted: AtomicU64,
    /// Connections refused by admission control.
    pub rejected: AtomicU64,
    /// Queries (single or panel) served across all connections.
    pub queries_served: AtomicU64,
    /// Connections that ended with a clean [`tag::BYE`].
    pub clean_closes: AtomicU64,
    /// Currently-open admitted connections.
    pub active: AtomicUsize,
}

/// An open connection's watch stream plus its handler thread, held for
/// forced shutdown. The accept loop reaps the entries whose handler has
/// finished, so the table (and the duplicated descriptors in it) tracks
/// the open connections, not every connection ever accepted.
type ConnSlots = Arc<Mutex<Vec<(TcpStream, JoinHandle<()>)>>>;

/// A running device fleet server. Dropping it (or calling
/// [`shutdown`](Self::shutdown)) closes the listener, severs every open
/// connection, and joins all handler threads.
pub struct DeviceServer {
    addr: SocketAddr,
    stats: Arc<ServerStats>,
    stop: Arc<AtomicBool>,
    conns: ConnSlots,
    accept: Option<JoinHandle<()>>,
}

impl DeviceServer {
    /// Binds `addr` (use port 0 for an ephemeral port — read it back
    /// with [`local_addr`](Self::local_addr)) and starts accepting
    /// device enrollments for field `F`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind<F>(addr: &str, config: ServerConfig) -> Result<Self>
    where
        F: Scalar + WireEncode + WireDecode + 'static,
    {
        Self::bind_instrumented::<F>(addr, config, None)
    }

    /// Like [`bind`](Self::bind), attaching a telemetry handle: every
    /// served query records a per-tenant counter and a device-compute
    /// span. Queries arriving with a wire-propagated
    /// [`TraceContext`] mint deterministic span ids parented onto the
    /// sender's dispatch span, so the server's spans stitch into the
    /// Router's query trees when both sides feed one observability
    /// plane.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure, or the failure to spawn the accept
    /// thread.
    pub fn bind_instrumented<F>(
        addr: &str,
        config: ServerConfig,
        tel: Option<Arc<Telemetry>>,
    ) -> Result<Self>
    where
        F: Scalar + WireEncode + WireDecode + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stats = Arc::new(ServerStats::default());
        let stop = Arc::new(AtomicBool::new(false));
        let conns: ConnSlots = Arc::new(Mutex::new(Vec::new()));
        let clock: Arc<dyn Clock> = Arc::new(RealClock::default());
        let accept = {
            let stats = Arc::clone(&stats);
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("scec-serve-accept".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        let _ = stream.set_nodelay(true);
                        let Ok(watch) = stream.try_clone() else {
                            continue;
                        };
                        let config = config.clone();
                        let tel = tel.clone();
                        let clock = Arc::clone(&clock);
                        let conn_stats = Arc::clone(&stats);
                        let spawned = std::thread::Builder::new()
                            .name("scec-serve-conn".into())
                            .spawn(move || {
                                handle_connection::<F>(stream, &config, &conn_stats, &tel, &clock)
                            });
                        let mut table = lock(&conns);
                        for (_, done) in table.extract_if(.., |(_, h)| h.is_finished()) {
                            let _ = done.join();
                        }
                        match spawned {
                            Ok(handler) => table.push((watch, handler)),
                            // Out of threads (EAGAIN): the failed spawn
                            // dropped the stream, which refuses this
                            // connection; later ones may still fit.
                            Err(_) => {
                                stats.rejected.fetch_add(1, Ordering::AcqRel);
                            }
                        }
                    }
                })?
        };
        Ok(DeviceServer {
            addr,
            stats,
            stop,
            conns,
            accept: Some(accept),
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Blocks until at least one connection was admitted and all of
    /// them have since closed — the `scec serve --once` exit condition
    /// for smoke tests and CI.
    pub fn wait_idle(&self) {
        loop {
            let accepted = self.stats.accepted.load(Ordering::Acquire);
            let active = self.stats.active.load(Ordering::Acquire);
            if accepted > 0 && active == 0 {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Stops accepting, severs open connections, and joins every
    /// thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(join) = self.accept.take() {
            let _ = join.join();
        }
        let conns = std::mem::take(&mut *lock(&self.conns));
        for (stream, _) in &conns {
            let _ = stream.shutdown(Shutdown::Both);
        }
        for (_, join) in conns {
            let _ = join.join();
        }
    }
}

impl Drop for DeviceServer {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.stop_and_join();
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Runs one enrolled device: handshake, then a read→compute→write loop
/// until BYE, EOF, or an I/O error. All state is connection-local.
fn handle_connection<F>(
    mut stream: TcpStream,
    config: &ServerConfig,
    stats: &ServerStats,
    tel: &Option<Arc<Telemetry>>,
    clock: &Arc<dyn Clock>,
) where
    F: Scalar + WireEncode + WireDecode,
{
    // One buffer for the handshake: the HELLO is read into it and the
    // reply — ack or refusal — is built in it.
    let mut frame = Vec::new();
    let Ok(hello) = read_hello(&mut stream, config.max_frame, &mut frame) else {
        return;
    };
    if hello.tenant >= config.max_tenants {
        stats.rejected.fetch_add(1, Ordering::AcqRel);
        frames::encode_response::<F>(
            &FromDevice::Failure {
                request: 0,
                device: hello.device,
                reason: format!(
                    "tenant {} refused: serving at most {} tenants",
                    hello.tenant, config.max_tenants
                ),
            },
            &mut frame,
        );
        let _ = write_frame(&mut stream, &frame);
        let _ = stream.flush();
        return;
    }
    // Counted before the ack leaves: a client holding its ack can be done
    // with the whole connection before this thread runs again, and
    // `wait_idle` must not take a fleet for finished while one of its
    // admitted connections has yet to show in `active`.
    stats.accepted.fetch_add(1, Ordering::AcqRel);
    stats.active.fetch_add(1, Ordering::AcqRel);
    // Admission ack: echo the hello.
    encode_framed_into(&hello, tag::HELLO, &mut frame);
    if write_frame(&mut stream, &frame).is_ok() {
        serve_device::<F, _>(&mut stream, config, stats, &hello, tel, clock);
    }
    stats.active.fetch_sub(1, Ordering::AcqRel);
}

/// Reads exactly the HELLO frame into `frame`, leaving every later byte
/// in the socket for the serve loop's buffered reader.
fn read_hello(stream: &mut TcpStream, max_frame: usize, frame: &mut Vec<u8>) -> Result<HelloMsg> {
    read_frame(stream, frame, max_frame)?;
    if peek_tag(frame)? != tag::HELLO {
        return Err(Error::Protocol("expected HELLO as the first frame".into()));
    }
    Ok(decode_framed::<HelloMsg>(frame, tag::HELLO)?)
}

/// The post-handshake serve loop. The [`Device`] holding the share
/// installed on this connection lives here, on the handler's stack — the
/// sharding unit is the connection itself.
///
/// Responses accumulate in one out-buffer and leave in a single write
/// when no further complete request is buffered, or once
/// [`MAX_PENDING_BYTES`] are pending: a lone query is answered at once,
/// a pipelined window in one piece.
fn serve_device<F, S>(
    stream: &mut S,
    config: &ServerConfig,
    stats: &ServerStats,
    hello: &HelloMsg,
    tel: &Option<Arc<Telemetry>>,
    clock: &Arc<dyn Clock>,
) where
    F: Scalar + WireEncode + WireDecode,
    S: Read + Write,
{
    let HelloMsg { tenant, device } = *hello;
    let mut reader = FrameReader::new(config.max_frame);
    let mut out = Vec::new();
    // Cleared by a failed write: nobody reads the answers any more, so
    // the requests still buffered are skipped — all but a BYE, which
    // still makes the close a clean one.
    let mut peer_reads = true;
    // The same device the in-process actors run: share × query →
    // response, compute span under the query's trace context.
    let mut served = Device::<F>::new(device, Arc::clone(clock), tel.clone());
    // Per-tenant served-query counter, resolved once per connection so
    // the serve loop never touches the registry lock.
    let queries_counter = tel.as_ref().map(|t| {
        let tenant_label = tenant.to_string();
        t.registry
            .counter("scec_server_queries_total", &[("tenant", &tenant_label)])
    });
    loop {
        if !out.is_empty() && (out.len() >= MAX_PENDING_BYTES || !reader.has_frame()) {
            peer_reads &= stream.write_all(&out).is_ok();
            out.clear();
        }
        // EOF without BYE (the peer vanished) or a broken stream: either
        // way nothing is pending, `out` was written when the buffer ran dry.
        let Ok(frame) = reader.next_frame(stream) else {
            return;
        };
        if peek_tag(frame).map(|t| t == tag::BYE).unwrap_or(false) {
            stats.clean_closes.fetch_add(1, Ordering::AcqRel);
            let _ = stream.write_all(&out);
            return;
        }
        if !peer_reads {
            continue;
        }
        // The query's wire-propagated trace context, echoed back on the
        // response frame so both directions price identically.
        let mut qctx: Option<TraceContext> = None;
        let response = match frames::decode_to_device::<F>(frame) {
            Ok(msg) => {
                if let Some((width, ctx)) = msg.as_query() {
                    stats
                        .queries_served
                        .fetch_add(width as u64, Ordering::AcqRel);
                    if let Some(c) = &queries_counter {
                        c.add(width as u64);
                    }
                    qctx = ctx;
                }
                // An install is not answered, and its frame is the one
                // large thing a connection reads: the device holds the
                // share now, so the reader gives the room back.
                let Some(response) = served.handle(msg) else {
                    reader.release();
                    continue;
                };
                response
            }
            Err(e) => {
                // A malformed frame gets a typed refusal; the request id
                // is unknown, so 0 marks it connection-level.
                FromDevice::Failure {
                    request: 0,
                    device,
                    reason: format!("malformed frame: {e}"),
                }
            }
        };
        let start = begin_frame(&mut out);
        frames::append_response_ctx(&response, qctx.as_ref(), &mut out);
        if end_frame(&mut out, start).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::io;

    use rand::{rngs::StdRng, SeedableRng};

    use scec_allocation::EdgeFleet;
    use scec_coding::DeviceShare;
    use scec_core::{AllocationStrategy, ScecSystem};
    use scec_linalg::{Fp61, Matrix, Vector};
    use scec_runtime::message::ToDevice;

    use super::*;
    use crate::TcpTransport;

    /// An in-memory socket: each `read` hands over the next scripted
    /// chunk (everything "the socket holds"), then EOF; every call is
    /// counted, and each write remembers how many reads preceded it.
    struct Scripted {
        chunks: std::collections::VecDeque<Vec<u8>>,
        reads: usize,
        writes: Vec<(usize, Vec<u8>)>,
    }

    impl Scripted {
        fn new(chunks: Vec<Vec<u8>>) -> Self {
            Scripted {
                chunks: chunks.into(),
                reads: 0,
                writes: Vec::new(),
            }
        }
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            let Some(chunk) = self.chunks.front_mut() else {
                return Ok(0);
            };
            let n = chunk.len().min(buf.len());
            buf[..n].copy_from_slice(&chunk[..n]);
            chunk.drain(..n);
            if chunk.is_empty() {
                self.chunks.pop_front();
            }
            Ok(n)
        }
    }

    impl Write for Scripted {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push((self.reads, buf.to_vec()));
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Device 1's share of a small system, and the stream bytes of its
    /// install frame followed by `queries` query frames.
    fn install_then_queries(queries: usize) -> (DeviceShare<Fp61>, Vec<Vector<Fp61>>, Vec<u8>) {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Matrix::<Fp61>::random(6, 5, &mut rng);
        let fleet = EdgeFleet::from_unit_costs(vec![1.0, 1.5, 2.0]).expect("fleet");
        let system =
            ScecSystem::build(a, fleet, AllocationStrategy::Mcscec, &mut rng).expect("system");
        let share = system.distribute(&mut rng).expect("shares").devices()[0]
            .share()
            .clone();
        let xs: Vec<Vector<Fp61>> = (0..queries).map(|_| Vector::random(5, &mut rng)).collect();
        let mut wire = Vec::new();
        let mut frame = Vec::new();
        frames::encode_to_device(&ToDevice::Install(Box::new(share.clone())), &mut frame);
        write_frame(&mut wire, &frame).expect("vec write");
        for (i, x) in xs.iter().enumerate() {
            let query = ToDevice::Query {
                request: i as u64 + 1,
                x: Arc::new(x.clone()),
                ctx: None,
            };
            frames::encode_to_device(&query, &mut frame);
            write_frame(&mut wire, &frame).expect("vec write");
        }
        (share, xs, wire)
    }

    fn serve_scripted(stream: &mut Scripted) -> ServerStats {
        let stats = ServerStats::default();
        let clock: Arc<dyn Clock> = Arc::new(RealClock::default());
        let hello = HelloMsg {
            tenant: 0,
            device: 1,
        };
        serve_device::<Fp61, _>(
            stream,
            &ServerConfig::default(),
            &stats,
            &hello,
            &None,
            &clock,
        );
        stats
    }

    /// Splits one written buffer back into the responses it carries.
    fn responses(written: &[u8]) -> Vec<FromDevice<Fp61>> {
        let mut reader = FrameReader::new(DEFAULT_MAX_FRAME);
        let mut src = written;
        let mut out = Vec::new();
        while let Ok(frame) = reader.next_frame(&mut src) {
            out.push(frames::decode_response::<Fp61>(frame).expect("response frame"));
        }
        out
    }

    #[test]
    fn a_window_of_queued_queries_is_answered_with_one_write() {
        let (share, xs, wire) = install_then_queries(16);
        let mut stream = Scripted::new(vec![wire]);
        let stats = serve_scripted(&mut stream);
        assert_eq!(stats.queries_served.load(Ordering::Acquire), 16);
        // One read took the install and all 16 queries; the second saw EOF.
        assert!(stream.reads <= 2, "{} reads", stream.reads);
        assert_eq!(stream.writes.len(), 1, "one write for the whole window");
        let answers = responses(&stream.writes[0].1);
        assert_eq!(answers.len(), 16);
        for (i, (x, answer)) in xs.iter().zip(&answers).enumerate() {
            match answer {
                FromDevice::Partial {
                    request,
                    device: 1,
                    values,
                } => {
                    assert_eq!(*request, i as u64 + 1);
                    assert_eq!(*values, share.compute(x).expect("compute"));
                }
                other => panic!("query {i}: unexpected response {other:?}"),
            }
        }
    }

    #[test]
    fn a_lone_query_is_answered_at_once() {
        let (_, _, wire) = install_then_queries(1);
        let mut stream = Scripted::new(vec![wire]);
        serve_scripted(&mut stream);
        assert_eq!(stream.writes.len(), 1);
        // Written after the one read that carried the query, before the
        // server went back to the socket.
        assert_eq!(stream.writes[0].0, 1);
        assert_eq!(responses(&stream.writes[0].1).len(), 1);
    }

    #[test]
    fn queries_arriving_apart_are_answered_apart() {
        let (_, _, wire) = install_then_queries(2);
        // The second query's frame arrives in a later read, split mid-frame.
        let cut = wire.len() - 40;
        let mut stream = Scripted::new(vec![
            wire[..cut].to_vec(),
            wire[cut..cut + 7].to_vec(),
            wire[cut + 7..].to_vec(),
        ]);
        serve_scripted(&mut stream);
        let per_write: Vec<usize> = stream
            .writes
            .iter()
            .map(|(_, bytes)| responses(bytes).len())
            .collect();
        assert_eq!(per_write, [1, 1]);
    }

    #[test]
    fn finished_connections_are_reaped_from_the_table() {
        let server =
            DeviceServer::bind::<Fp61>("127.0.0.1:0", ServerConfig::default()).expect("bind");
        let cycles = 300;
        for _ in 0..cycles {
            let (mut transport, _rx, _meter) =
                TcpTransport::<Fp61>::connect(server.local_addr(), 0, &[1]).expect("connect");
            scec_runtime::Transport::shutdown(&mut transport);
        }
        // Each accept reaped the handlers that had finished by then, so
        // what is left are the last few still on their way out.
        let open = lock(&server.conns).len();
        assert!(
            open < 32,
            "{open} table entries after {cycles} closed connections"
        );
        server.shutdown();
    }
}

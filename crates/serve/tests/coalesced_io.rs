//! The coalesced socket path over real loopback: queued query frames,
//! batched responses and flush-before-park must change how many
//! syscalls a window costs and nothing else.

use std::io::Read;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::{rngs::StdRng, SeedableRng};

use scec_allocation::EdgeFleet;
use scec_coding::HelloMsg;
use scec_core::{AllocationStrategy, ScecSystem};
use scec_linalg::{Fp61, Matrix, Vector};
use scec_runtime::message::{FromDevice, ToDevice};
use scec_runtime::transport::frames;
use scec_runtime::{
    Clock, Error, LocalCluster, PanelPipeline, PipelinedQuery, QueryPipeline, RealClock, Transport,
};
use scec_serve::{DeviceServer, ServerConfig, TcpTransport};
use scec_wire::stream::{read_frame, write_frame, DEFAULT_MAX_FRAME};
use scec_wire::{encode_framed, tag};

const ROWS: usize = 6;
const COLS: usize = 5;

fn bind() -> DeviceServer {
    DeviceServer::bind::<Fp61>("127.0.0.1:0", ServerConfig::default()).expect("bind")
}

/// A TCP transport that never installs the share of the device at
/// roster index `skip`, so that device answers every query with a
/// `Failure` ("no share installed").
struct SkipInstall {
    inner: TcpTransport<Fp61>,
    skip: Option<usize>,
}

impl Transport<Fp61> for SkipInstall {
    fn device_count(&self) -> usize {
        self.inner.device_count()
    }

    fn device_id(&self, index: usize) -> usize {
        self.inner.device_id(index)
    }

    fn send(&self, index: usize, msg: ToDevice<Fp61>) -> scec_runtime::Result<()> {
        if self.skip == Some(index) && matches!(msg, ToDevice::Install(_)) {
            return Ok(());
        }
        self.inner.send(index, msg)
    }

    fn flush(&self) -> scec_runtime::Result<()> {
        self.inner.flush()
    }

    fn shutdown(&mut self) {
        self.inner.shutdown();
    }
}

/// A three-device base-protocol cluster launched over TCP to `addr`, if
/// the launch gets that far, and its `A`.
fn try_launch(
    addr: SocketAddr,
    seed: u64,
    skip: Option<usize>,
) -> (Matrix<Fp61>, scec_runtime::Result<LocalCluster<Fp61>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = Matrix::<Fp61>::random(ROWS, COLS, &mut rng);
    let fleet = EdgeFleet::from_unit_costs(vec![1.0, 1.5, 2.0]).expect("fleet");
    let system =
        ScecSystem::build(a.clone(), fleet, AllocationStrategy::Mcscec, &mut rng).expect("system");
    let clock: Arc<dyn Clock> = Arc::new(RealClock::default());
    let cluster = LocalCluster::launch_with_transport(&system, &mut rng, clock, |shares| {
        let ids: Vec<usize> = shares.iter().map(|s| s.device()).collect();
        let (inner, rx, _meter) = TcpTransport::connect(addr, 0, &ids)
            .map_err(|_| Error::ChannelClosed { device: None })?;
        Ok((Box::new(SkipInstall { inner, skip }) as _, rx))
    });
    (a, cluster)
}

/// That cluster on a loopback server.
fn launch(
    server: &DeviceServer,
    seed: u64,
    skip: Option<usize>,
) -> (Matrix<Fp61>, LocalCluster<Fp61>) {
    let (a, cluster) = try_launch(server.local_addr(), seed, skip);
    (a, cluster.expect("launch over loopback"))
}

fn queries(seed: u64, n: usize) -> Vec<Vector<Fp61>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| Vector::random(COLS, &mut rng)).collect()
}

fn assert_closed_cleanly(server: DeviceServer) {
    server.wait_idle();
    let stats = server.stats();
    assert_eq!(
        stats.accepted.load(Ordering::Acquire),
        stats.clean_closes.load(Ordering::Acquire),
        "every admitted connection ended with a BYE"
    );
    server.shutdown();
}

#[test]
fn both_pipeline_engines_match_sequential_queries_bit_for_bit() {
    let server = bind();
    let (a, cluster) = launch(&server, 21, None);
    let xs = queries(22, 50);
    let sequential: Vec<Vector<Fp61>> = xs
        .iter()
        .map(|x| cluster.query(x).expect("sequential query"))
        .collect();
    for (x, y) in xs.iter().zip(&sequential) {
        assert_eq!(*y, a.matvec(x).expect("matvec"));
    }
    for window in [1, 16] {
        let streamed = QueryPipeline::run(&cluster, window, &xs).expect("pipelined stream");
        assert_eq!(streamed, sequential, "QueryPipeline w{window}");
    }
    for (width, window) in [(1, 1), (4, 2), (16, 4)] {
        let panelled = PanelPipeline::run(&cluster, width, window, &xs).expect("panel stream");
        assert_eq!(panelled, sequential, "PanelPipeline k{width} w{window}");
    }
    cluster.shutdown();
    assert_closed_cleanly(server);
}

#[test]
fn a_failing_device_reads_the_same_through_every_engine() {
    let server = bind();
    let (_a, cluster) = launch(&server, 23, Some(1));
    let xs = queries(24, 20);
    let sequential = format!(
        "{:?}",
        cluster.query(&xs[0]).expect_err("device 2 has no share")
    );
    assert!(
        sequential.contains("DeviceFailure") && sequential.contains("no share installed"),
        "{sequential}"
    );
    let streamed = QueryPipeline::run(&cluster, 16, &xs).expect_err("same failure, pipelined");
    assert_eq!(format!("{streamed:?}"), sequential);
    let panelled = PanelPipeline::run(&cluster, 4, 2, &xs).expect_err("same failure, panelled");
    assert_eq!(format!("{panelled:?}"), sequential);
    cluster.shutdown();
    assert_closed_cleanly(server);
}

#[test]
fn a_bare_begin_query_reaches_every_device_without_a_later_call() {
    let server = bind();
    let (_a, cluster) = launch(&server, 25, None);
    let devices = cluster.device_count() as u64;
    let ticket = cluster.begin_query(&queries(26, 1)[0]).expect("begin");
    // Nothing else touches the cluster: only an eager begin gets the
    // frames to the devices.
    let patience = Instant::now() + Duration::from_secs(10);
    while server.stats().queries_served.load(Ordering::Acquire) < devices {
        assert!(
            Instant::now() < patience,
            "the broadcast never left the client"
        );
        std::thread::yield_now();
    }
    cluster.abandon_query(ticket);
    cluster.shutdown();
    assert_closed_cleanly(server);
}

#[test]
fn shutdown_with_frames_still_queued_sends_them_and_closes_cleanly() {
    for round in 0..20 {
        let server = bind();
        let (_a, cluster) = launch(&server, 27 + round, None);
        let devices = cluster.device_count() as u64;
        let xs = queries(28, 16);
        // The pipeline half of `begin`: the frames may still sit in the
        // transport when the cluster goes away.
        let tickets: Vec<_> = xs
            .iter()
            .map(|x| PipelinedQuery::begin(&cluster, x).expect("begin"))
            .collect();
        drop(tickets);
        cluster.shutdown();
        server.wait_idle();
        assert_eq!(
            server.stats().queries_served.load(Ordering::Acquire),
            16 * devices,
            "queued queries went out ahead of the BYE"
        );
        assert_closed_cleanly(server);
    }
}

#[test]
fn a_dead_server_surfaces_as_channel_closed_well_inside_the_deadline() {
    let server = bind();
    let (_a, cluster) = launch(&server, 29, None);
    let cluster = cluster.with_deadline(Duration::from_secs(60));
    let xs = queries(30, 32);
    let mut pipeline = QueryPipeline::new(&cluster, 16).expect("window");
    for x in &xs[..8] {
        pipeline.submit(x).expect("queued");
    }
    // The tier goes away with a half-filled window still unsent.
    server.shutdown();
    let started = Instant::now();
    let outcome = xs[8..]
        .iter()
        .try_for_each(|x| pipeline.submit(x).map(drop))
        .and_then(|()| pipeline.collect().map(drop));
    let waited = started.elapsed();
    assert!(
        matches!(outcome, Err(Error::ChannelClosed { .. })),
        "expected ChannelClosed, got {outcome:?}"
    );
    assert!(waited < Duration::from_secs(5), "took {waited:?}");
}

#[test]
fn a_launch_that_fails_part_way_closes_the_connections_it_opened() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("bound address");
    // A fleet that admits all three devices and loses the second before
    // any share arrives. Device 2's HELLO is acknowledged unread, so that
    // closing its connection resets it and the install written to it
    // fails at once; the connection goes while device 3's HELLO waits for
    // its ack, which is before the launch can have sent anything.
    let peer = std::thread::spawn(move || {
        let mut frame = Vec::new();
        let (mut first, _) = listener.accept().expect("accept 1");
        read_frame(&mut first, &mut frame, DEFAULT_MAX_FRAME).expect("hello 1");
        write_frame(&mut first, &frame).expect("ack 1");
        let (mut second, _) = listener.accept().expect("accept 2");
        let hello = HelloMsg {
            tenant: 0,
            device: 2,
        };
        write_frame(&mut second, &encode_framed(&hello, tag::HELLO)).expect("ack 2");
        let (mut third, _) = listener.accept().expect("accept 3");
        read_frame(&mut third, &mut frame, DEFAULT_MAX_FRAME).expect("hello 3");
        drop(second);
        write_frame(&mut third, &frame).expect("ack 3");
        // Whatever the launch still sends on the two connections that
        // are held open, it must then close them.
        [first, third].map(|mut held| {
            let patience = Some(Duration::from_secs(5));
            held.set_read_timeout(patience).expect("read timeout");
            let mut sink = [0; 4096];
            loop {
                match held.read(&mut sink) {
                    Ok(0) => return true,
                    Ok(_) => {}
                    Err(_) => return false,
                }
            }
        })
    });
    let launched = try_launch(addr, 31, None).1.map(drop);
    assert!(
        matches!(launched, Err(Error::ChannelClosed { device: Some(2) })),
        "expected device 2's closed channel, got {launched:?}"
    );
    let saw_eof = peer.join().expect("peer");
    assert_eq!(saw_eof, [true, true], "connections 1 and 3 read EOF");
}

#[test]
fn hand_off_count_frames_that_arrive_in_one_chunk_are_one_mailbox_delivery() {
    const WINDOW: u64 = 16;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("bound address");
    // Device 1's peer: admits the HELLO, waits for the query, then
    // answers a whole window with a single write.
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut frame = Vec::new();
        read_frame(&mut stream, &mut frame, DEFAULT_MAX_FRAME).expect("hello");
        write_frame(&mut stream, &frame).expect("ack");
        read_frame(&mut stream, &mut frame, DEFAULT_MAX_FRAME).expect("query");
        let mut chunk = Vec::new();
        for request in 1..=WINDOW {
            let answer = FromDevice::Partial {
                request,
                device: 1,
                values: Vector::<Fp61>::zeros(2),
            };
            frames::encode_response(&answer, &mut frame);
            write_frame(&mut chunk, &frame).expect("frame into the chunk");
        }
        std::io::Write::write_all(&mut stream, &chunk).expect("one write");
        // Hold the connection open until the client says BYE.
        let _ = read_frame(&mut stream, &mut frame, DEFAULT_MAX_FRAME);
    });
    let (mut transport, responses, _meter) =
        TcpTransport::<Fp61>::connect(addr, 0, &[1]).expect("connect");
    let query = ToDevice::Query {
        request: 1,
        x: Arc::new(Vector::zeros(COLS)),
        ctx: None,
    };
    transport.send(0, query).expect("send");
    transport.flush().expect("flush");
    let delivery = responses
        .recv_timeout(Duration::from_secs(30))
        .expect("a delivery");
    let requests: Vec<u64> = delivery.iter().map(FromDevice::request).collect();
    assert_eq!(requests, (1..=WINDOW).collect::<Vec<_>>());
    transport.shutdown();
    peer.join().expect("peer");
    assert!(responses.try_recv().is_err(), "and nothing after it");
    println!("hand-off count: tcp reader, {WINDOW} frames in one chunk -> 1 mailbox delivery");
}

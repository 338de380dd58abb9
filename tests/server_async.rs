//! Integration suite for the readiness-driven connection layer: framing
//! under multiplexing, ordered pipelining, and the new backpressure
//! tiers.
//!
//! Everything here runs against a real server on an ephemeral port,
//! exactly like `tests/server.rs`, but exercises the paths the blocking
//! single-call suite cannot reach:
//!
//! * newline framing surviving arbitrary TCP segmentation (a request
//!   dribbled in byte by byte; two requests in one segment);
//! * depth-8 pipelining on one connection with replies in request order
//!   and per-request profiles still exact;
//! * the per-connection in-flight cap degrading to ordered structured
//!   `overloaded` replies;
//! * a reader too slow to drain its replies tripping the bounded write
//!   queue (typed `timeout`, `server.conn_timeouts` counted, clean
//!   close);
//! * the global connection limit (`ServerCaps.max_conns`) rejecting the
//!   excess connection with a typed `overloaded` and a clean close,
//!   then admitting a new connection once one frees up.

use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::net::TcpStream;
use std::time::Duration;
use vqd::server::{
    self, netpoll, Client, ErrorKind, Limits, Outcome, Request, ServerCaps, ServerConfig,
};

fn spawn_with(workers: usize, queue_depth: usize, caps: ServerCaps) -> server::ServerHandle {
    server::spawn(ServerConfig { addr: "127.0.0.1:0".to_owned(), workers, queue_depth, caps })
        .expect("spawn server")
}

/// A request that holds a worker for its whole (short) deadline: the
/// view is the query, so the 2^25-instance scan never short-circuits,
/// and it retains only two images.
fn slow_scan(deadline_ms: u64) -> (Limits, Request) {
    (
        Limits { deadline_ms: Some(deadline_ms), ..Limits::none() },
        Request::Semantic {
            schema: "E/2".to_owned(),
            views: "B() :- E(x,y).".to_owned(),
            query: "Q() :- E(x,y).".to_owned(),
            domain: 5,
            space_limit: 1 << 25,
        },
    )
}

fn certain_inline() -> Request {
    Request::Certain {
        schema: "E/2".to_owned(),
        views: "V(x,y) :- E(x,z), E(z,y).".to_owned(),
        query: "Q(x,y) :- E(x,z), E(z,y).".to_owned(),
        extent: "V(A,B). V(B,C). V(C,D).".to_owned(),
    }
}

#[test]
fn a_request_written_byte_at_a_time_is_framed_and_answered() {
    let handle = spawn_with(1, 16, ServerCaps::default());
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let line = "{\"v\":1,\"id\":\"dribble\",\"request\":{\"op\":\"ping\"}}\n";
    for byte in line.as_bytes() {
        stream.write_all(std::slice::from_ref(byte)).expect("write one byte");
        stream.flush().expect("flush");
    }
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read reply");
    let response = server::Response::from_line(reply.trim()).expect("parse reply");
    assert_eq!(response.id, "dribble");
    assert_eq!(response.outcome, Outcome::Pong);
    handle.shutdown();
}

#[test]
fn two_requests_in_one_segment_get_two_ordered_replies() {
    let handle = spawn_with(2, 16, ServerCaps::default());
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    // One write call, two complete request lines: the framing layer
    // must split them, and the replies must come back in write order.
    let batch = "{\"v\":1,\"id\":\"first\",\"request\":{\"op\":\"ping\"}}\n\
                 {\"v\":1,\"id\":\"second\",\"request\":{\"op\":\"ping\"}}\n";
    stream.write_all(batch.as_bytes()).expect("write both");
    stream.flush().expect("flush");
    let mut reader = BufReader::new(stream);
    for expected in ["first", "second"] {
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read reply");
        let response = server::Response::from_line(reply.trim()).expect("parse reply");
        assert_eq!(response.id, expected);
        assert_eq!(response.outcome, Outcome::Pong);
    }
    handle.shutdown();
}

#[test]
fn pipelined_depth_8_replies_arrive_in_order_with_exact_profiles() {
    // One worker: all eight requests of the batch queue up, so the
    // pipeline depth demonstrably exceeds one, and jobs run strictly
    // sequentially — any cross-request counter leak would show up as
    // unequal profiles for the identical requests at positions 0 and 7.
    let handle = spawn_with(1, 16, ServerCaps::default());
    let mut client = Client::connect(handle.addr()).expect("connect");
    client.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    let mut batch: Vec<(Limits, Request)> = Vec::new();
    batch.push((Limits::none(), certain_inline()));
    for _ in 0..6 {
        batch.push((Limits::none(), Request::Ping));
    }
    batch.push((Limits::none(), certain_inline()));
    // call_many itself asserts replies arrive in request order (it
    // fails with InvalidData on any id mismatch).
    let replies = client.call_many_profiled(batch).expect("pipelined batch");
    assert_eq!(replies.len(), 8);
    for reply in &replies[1..7] {
        assert_eq!(reply.outcome, Outcome::Pong);
    }
    let (first, last) = (&replies[0], &replies[7]);
    assert!(matches!(first.outcome, Outcome::CertainAnswers { .. }), "got {:?}", first.outcome);
    assert_eq!(first.outcome, last.outcome);
    assert_eq!(first.work.index_builds, last.work.index_builds);
    assert_eq!(first.work.index_tuples, last.work.index_tuples);
    let p1 = first.profile.expect("profile requested");
    let p2 = last.profile.expect("profile requested");
    assert!(!p1.is_zero(), "chase work must appear in the profile");
    assert_eq!(p1, p2, "pipelining leaked engine counters across requests");
    let registry = handle.registry().snapshot();
    assert!(
        registry.gauge("server.pipelined_depth") >= 2,
        "the batch must actually have pipelined: depth {}",
        registry.gauge("server.pipelined_depth")
    );
    handle.shutdown();
}

#[test]
fn the_per_connection_inflight_cap_rejects_in_order_with_overloaded() {
    // Cap of 2 with one worker: the two slow scans occupy the
    // connection's in-flight budget for their whole 600ms deadline, so
    // the six pings behind them must be turned away — and the rejection
    // replies must still come back at their pipelined positions.
    let caps = ServerCaps { max_inflight_per_conn: 2, ..ServerCaps::default() };
    let handle = spawn_with(1, 16, caps);
    let mut client = Client::connect(handle.addr()).expect("connect");
    client.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    let mut batch: Vec<(Limits, Request)> = Vec::new();
    batch.push(slow_scan(600));
    batch.push(slow_scan(600));
    for _ in 0..6 {
        batch.push((Limits::none(), Request::Ping));
    }
    let replies = client.call_many(batch).expect("pipelined batch");
    assert_eq!(replies.len(), 8);
    for (i, reply) in replies[..2].iter().enumerate() {
        assert!(
            matches!(reply.outcome, Outcome::Exhausted { .. }),
            "position {i}: admitted scans should run out their deadline, got {:?}",
            reply.outcome
        );
    }
    for (i, reply) in replies[2..].iter().enumerate() {
        match &reply.outcome {
            Outcome::Overloaded { queue_capacity, .. } => {
                assert_eq!(*queue_capacity, 2, "capacity must name the in-flight cap");
            }
            other => panic!("position {}: expected overloaded, got {other:?}", i + 2),
        }
    }
    assert_eq!(handle.registry().counter("server.inflight_rejects").get(), 6);
    let m = handle.shutdown();
    assert_eq!(m.rejected, 6);
}

#[test]
fn a_slow_reader_trips_the_bounded_write_queue_and_gets_a_typed_timeout() {
    // Bound every buffer in the reply path: a small kernel send buffer
    // server-side, a small receive buffer client-side, and a 64KB
    // application write queue. 300 pipelined fat replies (a 512-tuple
    // chain extent) then deterministically overflow the write queue
    // while the client refuses to read.
    let caps = ServerCaps {
        max_writeq_bytes: 64 * 1024,
        max_inflight_per_conn: 512,
        sock_sndbuf: Some(16 * 1024),
        conn_read_timeout: Duration::from_secs(5),
        ..ServerCaps::default()
    };
    let handle = spawn_with(2, 512, caps);
    let mut setup = Client::connect(handle.addr()).expect("connect setup");
    let extent: String = (0..512).map(|i| format!("V(N{i},N{}). ", i + 1)).collect();
    let (cache_handle, _) = setup.put_instance("V/2", &*extent).expect("put extent");

    let mut slow = TcpStream::connect(handle.addr()).expect("connect slow");
    netpoll::set_recv_buffer(&slow, 4 * 1024).expect("shrink client rcvbuf");
    slow.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    let request_line = server::Envelope::new(
        "fat",
        Limits::none(),
        Request::CertainHandle {
            schema: "E/2".to_owned(),
            views: "V(x,y) :- E(x,y).".to_owned(),
            query: "Q(x,z) :- E(x,y), E(y,z).".to_owned(),
            handle: cache_handle.clone(),
        },
    )
    .to_json()
    .to_string();
    let batch: String = format!("{request_line}\n").repeat(300);
    slow.write_all(batch.as_bytes()).expect("write pipelined batch");
    slow.flush().expect("flush");
    // Only now start reading: everything queued so far has had to sit
    // in the (bounded) server-side buffers.
    let mut reply = String::new();
    slow.read_to_string(&mut reply).expect("read until server closes");
    assert!(
        reply.contains("reader too slow"),
        "the tail of the stream must carry the typed timeout: got {} bytes ending {:?}",
        reply.len(),
        &reply[reply.len().saturating_sub(200)..]
    );
    assert_eq!(handle.registry().counter("server.conn_timeouts").get(), 1);
    // The well-behaved connection is unaffected.
    assert!(setup.ping().expect("ping after slow reader dropped"));
    handle.shutdown();
}

#[test]
fn connections_past_the_global_limit_get_overloaded_and_a_clean_close() {
    let caps = ServerCaps { max_conns: 4, ..ServerCaps::default() };
    let handle = spawn_with(1, 16, caps);
    // Fill the limit, round-tripping each connection so it is fully
    // registered before the next connect.
    let mut held: Vec<Client> = (0..4)
        .map(|_| {
            let mut c = Client::connect(handle.addr()).expect("connect");
            assert!(c.ping().expect("ping"));
            c
        })
        .collect();
    assert_eq!(handle.registry().snapshot().gauge("server.conns_open"), 4);

    // The fifth connection gets one structured reply, then EOF.
    let mut extra = TcpStream::connect(handle.addr()).expect("connect extra");
    extra.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let mut text = String::new();
    extra.read_to_string(&mut text).expect("read rejection until close");
    let line = text.lines().next().expect("one reply line");
    let response = server::Response::from_line(line).expect("parse rejection");
    match &response.outcome {
        Outcome::Overloaded { queue_capacity, .. } => assert_eq!(*queue_capacity, 4),
        other => panic!("expected overloaded, got {other:?}"),
    }
    assert_eq!(handle.registry().counter("server.conns_rejected").get(), 1);
    // A rejected connection must not consume a slot or reject again.
    let m = handle.metrics();
    assert_eq!(m.connections_open, 4);

    // Freeing a slot admits a new connection (the close is observed by
    // the event loop asynchronously, so retry briefly).
    drop(held.pop());
    let mut admitted = None;
    for _ in 0..100 {
        let mut c = Client::connect(handle.addr()).expect("connect retry");
        c.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        match c.ping() {
            Ok(true) => {
                admitted = Some(c);
                break;
            }
            _ => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    assert!(admitted.is_some(), "a freed slot must admit a new connection");
    drop(admitted);
    drop(held);
    handle.shutdown();
}

#[test]
fn an_unterminated_final_line_is_still_answered_at_eof() {
    // The blocking server answered a request whose final newline never
    // arrived before EOF; the event loop must preserve that.
    let handle = spawn_with(1, 16, ServerCaps::default());
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    stream
        .write_all(b"{\"v\":1,\"id\":\"tail\",\"request\":{\"op\":\"ping\"}}")
        .expect("write without newline");
    stream.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("read reply until close");
    let response = server::Response::from_line(reply.lines().next().expect("reply line"))
        .expect("parse reply");
    assert_eq!(response.id, "tail");
    assert_eq!(response.outcome, Outcome::Pong);
    handle.shutdown();
}

#[test]
fn the_slowloris_guard_survives_the_event_loop_with_its_exact_shape() {
    // Same contract as the frozen v1 test, but alongside pipelined
    // traffic on a sibling connection: a half-written line times out
    // with the typed error while the busy connection is untouched.
    let caps =
        ServerCaps { conn_read_timeout: Duration::from_millis(200), ..ServerCaps::default() };
    let handle = spawn_with(2, 16, caps);
    let mut busy = Client::connect(handle.addr()).expect("connect busy");
    busy.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");

    let mut stalled = TcpStream::connect(handle.addr()).expect("connect stalled");
    stalled.write_all(b"{\"v\":1,\"id\":\"stall\"").expect("partial write");
    stalled.flush().expect("flush");
    stalled.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");

    // Pipelined work keeps flowing while the stalled peer waits out its
    // deadline.
    let replies = busy
        .call_many(vec![
            (Limits::none(), Request::Ping),
            (Limits::none(), certain_inline()),
            (Limits::none(), Request::Ping),
        ])
        .expect("pipelined batch");
    assert_eq!(replies.len(), 3);
    assert_eq!(replies[0].outcome, Outcome::Pong);

    let mut reply = String::new();
    stalled.read_to_string(&mut reply).expect("read until server closes");
    let response = server::Response::from_line(reply.lines().next().expect("one line"))
        .expect("parse timeout reply");
    assert!(
        matches!(&response.outcome, Outcome::Error { kind: ErrorKind::Timeout, .. }),
        "{response:?}"
    );
    assert_eq!(handle.registry().counter("server.conn_timeouts").get(), 1);
    assert!(busy.ping().expect("busy connection survives"));
    handle.shutdown();
}

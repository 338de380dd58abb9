//! Integration suite for the `vqd-server` serving layer.
//!
//! Every test spawns a real server on an ephemeral port and talks to it
//! over TCP through the blocking [`Client`], asserting the service
//! contract end to end:
//!
//! * concurrent clients get correct, independently-budgeted verdicts;
//! * malformed input degrades to structured protocol errors on a
//!   connection that stays usable;
//! * an over-budget request degrades to `exhausted` with work-done
//!   stats rather than a hang or a dropped connection;
//! * a full bounded queue rejects with `overloaded` instead of
//!   buffering;
//! * graceful shutdown cancels in-flight work cleanly, and the same
//!   request on a fresh server reproduces the baseline verdict.

use std::time::Duration;
use vqd::server::{self, Client, ErrorKind, Limits, Outcome, Request, ServerCaps, ServerConfig};

fn server(workers: usize, queue_depth: usize) -> server::ServerHandle {
    server::spawn(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers,
        queue_depth,
        caps: ServerCaps::default(),
    })
    .expect("spawn server")
}

/// `k`-path views determine the `m`-path query iff `k` divides `m`.
fn decide_paths(k: usize, m: usize) -> Request {
    let path = |n: usize, head: &str| {
        let body: Vec<String> = (0..n).map(|i| format!("E(x{i},x{})", i + 1)).collect();
        format!("{head}(x0,x{n}) :- {}.", body.join(", "))
    };
    Request::Decide { schema: "E/2".to_owned(), views: path(k, "V"), query: path(m, "Q") }
}

/// A scan that must exhaust its whole space (the view is the query, so
/// no counterexample ever short-circuits it, and only two images are
/// ever retained, so memory stays flat). `domain` 3 finishes in
/// milliseconds; `domain` 5 (2^25 instances) runs for about twenty
/// seconds in debug builds and seconds in release — the reliable "slow
/// request" for budget/cancellation tests.
fn exhaustive_scan(domain: u64, space_limit: u64) -> Request {
    Request::Semantic {
        schema: "E/2".to_owned(),
        views: "B() :- E(x,y).".to_owned(),
        query: "Q() :- E(x,y).".to_owned(),
        domain,
        space_limit,
    }
}

/// A five-relation exhaustive scan: 2^21 instances at domain 3, which
/// takes on the order of seconds in debug builds — long enough that a
/// shutdown issued 150ms in reliably lands mid-request — yet completes
/// with a definite `no-counterexample` verdict when left alone. No view
/// reads `S` or `T`, so only 2^15 distinct images are ever retained.
fn medium_scan() -> Request {
    Request::Semantic {
        schema: "E/2,P/1,R/1,S/1,T/1".to_owned(),
        views: "V(x,y) :- E(x,y). W(x) :- P(x). U(x) :- R(x).".to_owned(),
        query: "Q(x,z) :- E(x,y), E(y,z), P(x), R(z).".to_owned(),
        domain: 3,
        space_limit: 1 << 22,
    }
}

#[test]
fn concurrent_clients_get_correct_verdicts() {
    let handle = server(4, 64);
    let addr = handle.addr();
    let threads: Vec<_> = (0..8)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for round in 0..3 {
                    // Alternate a determined pair (2 | 4) and an
                    // undetermined one (2 ∤ 3) across threads/rounds.
                    let determined = (i + round) % 2 == 0;
                    let request = if determined { decide_paths(2, 4) } else { decide_paths(2, 3) };
                    let limits = Limits { deadline_ms: Some(5_000), ..Limits::none() };
                    let reply = client.call(limits, request).expect("call");
                    match reply.outcome {
                        Outcome::Decided { determined: got, rewriting } => {
                            assert_eq!(got, determined, "thread {i} round {round}");
                            assert_eq!(rewriting.is_some(), determined);
                        }
                        other => panic!("unexpected outcome: {other:?}"),
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }
    let m = handle.shutdown();
    assert_eq!(m.completed_ok, 24);
    assert_eq!(m.errors, 0);
}

#[test]
fn malformed_json_gets_a_structured_error_and_the_connection_survives() {
    let handle = server(2, 16);
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Not JSON at all.
    let reply = client.call_raw("{this is not json").expect("raw call");
    assert!(matches!(&reply.outcome, Outcome::Error { kind: ErrorKind::Protocol, .. }));

    // Valid JSON, wrong version.
    let reply = client.call_raw(r#"{"v":99,"id":"x","request":{"op":"ping"}}"#).expect("raw call");
    assert!(matches!(&reply.outcome, Outcome::Error { kind: ErrorKind::Version, .. }));
    assert_eq!(reply.id, "x", "recoverable ids are echoed even on errors");

    // Unknown operation.
    let reply =
        client.call_raw(r#"{"v":1,"id":"y","request":{"op":"frobnicate"}}"#).expect("raw call");
    assert!(matches!(&reply.outcome, Outcome::Error { kind: ErrorKind::Unsupported, .. }));

    // Unparseable query payload.
    let reply = client
        .call(
            Limits::none(),
            Request::Decide {
                schema: "E/2".to_owned(),
                views: "V(x,y) :- E(x,y).".to_owned(),
                query: "Q(x :- oops".to_owned(),
            },
        )
        .expect("call");
    assert!(matches!(&reply.outcome, Outcome::Error { kind: ErrorKind::Parse, .. }));

    // The same connection still serves real work.
    assert!(client.ping().expect("ping"));
    let m = handle.shutdown();
    assert!(m.errors >= 4);
}

#[test]
fn over_budget_requests_degrade_to_exhausted_with_stats() {
    let handle = server(2, 16);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let reply = client
        .call(Limits { deadline_ms: Some(60), ..Limits::none() }, exhaustive_scan(5, 1 << 25))
        .expect("call");
    match &reply.outcome {
        Outcome::Exhausted { reason, partial } => {
            assert!(!reason.is_empty());
            assert!(!partial.is_empty(), "partial progress must be described");
        }
        other => panic!("expected exhausted, got {other:?}"),
    }
    assert!(reply.work.steps > 0, "work-done stats must be reported");
    // A step limit trips the same way.
    let reply = client
        .call(Limits { step_limit: Some(10), ..Limits::none() }, exhaustive_scan(3, 1 << 20))
        .expect("call");
    assert!(matches!(&reply.outcome, Outcome::Exhausted { .. }));
    let m = handle.shutdown();
    assert_eq!(m.exhausted, 2);
}

#[test]
fn a_full_queue_rejects_with_overloaded() {
    // One worker, queue depth one: with eight concurrent slow requests
    // at most two can be in the system, so admission control must turn
    // the rest away instantly.
    let handle = server(1, 1);
    let addr = handle.addr();
    let threads: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let reply = client
                    .call(
                        Limits { deadline_ms: Some(400), ..Limits::none() },
                        exhaustive_scan(5, 1 << 25),
                    )
                    .expect("call");
                match reply.outcome {
                    Outcome::Overloaded { queue_capacity, .. } => {
                        assert_eq!(queue_capacity, 1);
                        (1u32, 0u32)
                    }
                    // Admitted requests run out of their 400ms deadline.
                    Outcome::Exhausted { .. } => (0, 1),
                    other => panic!("unexpected outcome: {other:?}"),
                }
            })
        })
        .collect();
    let (mut overloaded, mut exhausted) = (0, 0);
    for t in threads {
        let (o, e) = t.join().expect("client thread");
        overloaded += o;
        exhausted += e;
    }
    assert!(overloaded > 0, "some requests must be rejected");
    assert!(exhausted > 0, "admitted requests must still run");
    let m = handle.shutdown();
    assert_eq!(u64::from(overloaded), m.rejected);
    // The depth metric may transiently count a job a worker has popped
    // but not yet marked dequeued; real boundedness is the channel's
    // capacity. It must still stay far below the offered load of 8.
    assert!(m.max_queue_depth <= 3, "queue grew past its bound: {}", m.max_queue_depth);
}

#[test]
fn shutdown_cancels_in_flight_work_and_a_retry_reproduces_the_verdict() {
    let slow = medium_scan();
    let handle = server(2, 16);
    let addr = handle.addr();
    let in_flight = {
        let slow = slow.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            client.call(Limits::none(), slow).expect("call")
        })
    };
    std::thread::sleep(Duration::from_millis(150));
    let metrics = handle.shutdown();
    let reply = in_flight.join().expect("client thread");
    match &reply.outcome {
        Outcome::Exhausted { reason, .. } => {
            assert!(reason.contains("cancel"), "reason was `{reason}`");
        }
        other => panic!("expected canceled-exhausted, got {other:?}"),
    }
    assert!(reply.work.steps > 0, "partial progress must be reported");
    assert_eq!(metrics.exhausted, 1);

    // The identical request on a fresh server (with a roomier deadline
    // cap for slow CI machines) completes and reproduces the baseline
    // verdict: identity views determine everything, so the exhaustive
    // scan finds no counterexample.
    let handle = server::spawn(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_depth: 16,
        caps: ServerCaps { max_deadline: Duration::from_secs(120), ..ServerCaps::default() },
    })
    .expect("spawn server");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let reply = client.call(Limits::none(), slow).expect("retry");
    match &reply.outcome {
        Outcome::SemanticOutcome { verdict, bound, .. } => {
            assert_eq!(verdict, "no-counterexample");
            assert_eq!(*bound, Some(3));
        }
        other => panic!("expected a semantic verdict, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn certain_answers_and_stats_over_the_wire() {
    let handle = server(2, 16);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let reply = client
        .call(
            Limits::none(),
            Request::Certain {
                schema: "E/2".to_owned(),
                views: "V(x,y) :- E(x,y).".to_owned(),
                query: "Q(x,z) :- E(x,y), E(y,z).".to_owned(),
                extent: "V(A,B). V(B,C).".to_owned(),
            },
        )
        .expect("call");
    match &reply.outcome {
        Outcome::CertainAnswers { count, answers } => {
            assert_eq!(*count, 1);
            assert!(answers.contains('A') && answers.contains('C'), "{answers}");
        }
        other => panic!("unexpected outcome: {other:?}"),
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.workers, 2);
    assert!(stats.accepted >= 1);
    handle.shutdown();
}

/// Regression guard for per-request stat attribution: two identical
/// requests issued *sequentially on one connection* (so they land on
/// the same worker thread, whose thread-local counters keep growing)
/// must report identical per-request work and profiles. A diffing bug
/// that leaked the first request's counters into the second would make
/// the second strictly larger.
#[test]
fn sequential_requests_on_one_connection_get_independent_stats() {
    let handle = server(1, 16);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let request = || Request::Certain {
        schema: "E/2".to_owned(),
        views: "V(x,y) :- E(x,z), E(z,y).".to_owned(),
        query: "Q(x,y) :- E(x,z), E(z,y).".to_owned(),
        extent: "V(A,B). V(B,C). V(C,D).".to_owned(),
    };
    let first = client.call_profiled(Limits::none(), request()).expect("first call");
    let second = client.call_profiled(Limits::none(), request()).expect("second call");
    assert!(matches!(first.outcome, Outcome::CertainAnswers { .. }), "got {:?}", first.outcome);
    assert_eq!(first.outcome, second.outcome);
    assert!(first.work.index_builds > 0, "the chase must build an index");
    assert_eq!(
        first.work.index_builds, second.work.index_builds,
        "index work leaked across requests"
    );
    assert_eq!(
        first.work.index_tuples, second.work.index_tuples,
        "index tuple counts leaked across requests"
    );
    let p1 = first.profile.expect("profile requested");
    let p2 = second.profile.expect("profile requested");
    assert!(!p1.is_zero(), "chase work must appear in the profile");
    assert_eq!(p1, p2, "engine counter deltas leaked across requests");
    handle.shutdown();
}

#[test]
fn slow_clients_get_a_typed_timeout_and_are_disconnected() {
    use std::io::{Read as _, Write as _};
    let handle = server::spawn(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        queue_depth: 16,
        caps: ServerCaps { conn_read_timeout: Duration::from_millis(200), ..ServerCaps::default() },
    })
    .expect("spawn server");

    // A well-behaved client on the same server is unaffected.
    let mut ok_client = Client::connect(handle.addr()).expect("connect");
    assert!(ok_client.ping().expect("ping"));

    // The slow client sends half a request line and then stalls.
    let mut slow = std::net::TcpStream::connect(handle.addr()).expect("connect slow");
    slow.write_all(b"{\"v\":1,\"id\":\"stall\"").expect("partial write");
    slow.flush().expect("flush");
    slow.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let mut reply = String::new();
    slow.read_to_string(&mut reply).expect("read reply until server closes");
    let line = reply.lines().next().expect("one reply line before the drop");
    let response = server::Response::from_line(line).expect("parseable reply");
    assert!(
        matches!(&response.outcome, Outcome::Error { kind: ErrorKind::Timeout, .. }),
        "{response:?}"
    );
    // read_to_string returning means the server closed the connection.
    assert_eq!(handle.registry().counter("server.conn_timeouts").get(), 1);

    // The healthy connection still works afterwards.
    assert!(ok_client.ping().expect("ping after slow client dropped"));
    handle.shutdown();
}

#[test]
fn worker_panic_is_contained_to_a_typed_internal_error() {
    let handle = server::spawn(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        queue_depth: 16,
        caps: ServerCaps { enable_debug_ops: true, ..ServerCaps::default() },
    })
    .expect("spawn server");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let reply = client.call(Limits::none(), Request::DebugPanic).expect("debug_panic");
    assert!(
        matches!(&reply.outcome, Outcome::Error { kind: ErrorKind::Internal, .. }),
        "{reply:?}"
    );
    assert_eq!(handle.registry().counter("server.worker_panics").get(), 1);
    // Containment: the same connection — and therefore the same single
    // worker that just panicked — keeps serving real work.
    assert!(client.ping().expect("ping after panic"));
    let verdict = client.call(Limits::none(), decide_paths(2, 4)).expect("decide");
    assert!(matches!(verdict.outcome, Outcome::Decided { determined: true, .. }), "{verdict:?}");
    handle.shutdown();
}

#[test]
fn debug_panic_is_refused_unless_explicitly_enabled() {
    let handle = server(1, 16);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let reply = client.call(Limits::none(), Request::DebugPanic).expect("debug_panic");
    assert!(
        matches!(&reply.outcome, Outcome::Error { kind: ErrorKind::Unsupported, .. }),
        "{reply:?}"
    );
    assert_eq!(handle.registry().counter("server.worker_panics").get(), 0);
    handle.shutdown();
}

#[test]
fn wire_shutdown_request_drains_the_server() {
    let handle = server(2, 16);
    let mut client = Client::connect(handle.addr()).expect("connect");
    assert!(client.ping().expect("ping"));
    assert!(client.shutdown_server().expect("shutdown request"));
    // `wait` observes the tripped token and drains without hanging.
    let m = handle.wait();
    assert!(m.completed_ok >= 2);
}

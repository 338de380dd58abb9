//! Integration suite for the request-lifecycle observability layer:
//! per-request phase timelines, the phase/e2e histograms, the flight
//! recorder, and the Prometheus exposition endpoint.
//!
//! Everything runs against a real server on an ephemeral port, like
//! `tests/server.rs` / `tests/server_async.rs`:
//!
//! * profiled replies carry an additive `timeline` whose `exec_us`
//!   agrees exactly with the work envelope's own clock, per request,
//!   even at pipelining depth 8;
//! * the phase sum approximates the client-measured round trip at
//!   loopback (within 10% or 2ms, whichever is looser);
//! * unprofiled replies carry no timeline on the wire, yet every
//!   worker-served request still feeds the
//!   `server.phase.{frame,queue,exec,reorder,write}_ms` and
//!   `server.e2e_ms` histograms;
//! * an injected worker panic dumps the flight recorder, and the
//!   `flight` wire op returns a digest for the offending request;
//! * `metrics_prom` renders valid Prometheus text exposition with the
//!   five phase histograms in full cumulative form;
//! * a handle request's digest says whether the cache lookup found the
//!   chased extent, whatever the request built or failed on;
//! * the flight digest, the reply's `work`/`timeline` and the registry
//!   agree exactly per request: they read one record.

use std::time::{Duration, Instant};
use vqd::obs::{FlightDigest, RegistrySnapshot};
use vqd::server::{self, Client, Limits, Outcome, Request, Response, ServerCaps, ServerConfig};

fn spawn_with(workers: usize, caps: ServerCaps) -> server::ServerHandle {
    server::spawn(ServerConfig { addr: "127.0.0.1:0".to_owned(), workers, queue_depth: 32, caps })
        .expect("spawn server")
}

fn connect(handle: &server::ServerHandle) -> Client {
    let client = Client::connect(handle.addr()).expect("connect");
    client.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    client
}

/// One request under a pinned id. The flight ring is process-global and
/// other tests in this binary write to it too, so ids must be unique.
fn call_as(client: &mut Client, id: &str, request: Request, profile: bool) -> Response {
    let envelope = server::Envelope::new(id, Limits::none(), request).with_profile(profile);
    client.call_raw(&envelope.to_json().to_string()).expect("call")
}

/// The flight digest of request `id` in a `flight` JSONL dump.
fn digest(jsonl: &str, id: &str) -> FlightDigest {
    jsonl
        .lines()
        .filter_map(|l| FlightDigest::from_json(&serde::json::parse(l).ok()?))
        .find(|d| d.id == id)
        .unwrap_or_else(|| panic!("no flight digest for {id}:\n{jsonl}"))
}

/// Real (chase + certain-answer) work over an `n`-fact chain extent, so
/// `exec` dominates timer noise.
fn certain_inline(n: usize) -> Request {
    Request::Certain {
        schema: "E/2".to_owned(),
        views: "V(x,y) :- E(x,z), E(z,y).".to_owned(),
        query: "Q(x,y) :- E(x,z), E(z,y).".to_owned(),
        extent: (0..n).map(|i| format!("V(N{i},N{}). ", i + 1)).collect(),
    }
}

#[test]
fn pipelined_depth_8_timelines_are_per_request_exact_and_bounded() {
    // One worker: the batch demonstrably queues, so `queue_us` is real
    // and per-request attribution has every chance to smear — it must
    // not.
    let handle = spawn_with(1, ServerCaps::default());
    let mut client = connect(&handle);
    // Occupy the worker first, so all eight batch requests are queued
    // before the head can start: otherwise a descheduled event loop can
    // enqueue the tail after the head began, shortening its wait.
    let mut blocker_client = connect(&handle);
    let blocker = std::thread::spawn(move || {
        let limits = Limits { deadline_ms: Some(200), ..Limits::none() };
        // The view is the query, so the 2^25-instance domain-5 scan
        // never short-circuits and holds the worker until its deadline.
        let scan = Request::Semantic {
            schema: "E/2".to_owned(),
            views: "B() :- E(x,y).".to_owned(),
            query: "Q() :- E(x,y).".to_owned(),
            domain: 5,
            space_limit: 1 << 25,
        };
        blocker_client.call(limits, scan).expect("blocking scan")
    });
    // Admitted and no longer queued: the worker has picked it up.
    loop {
        let m = handle.metrics();
        if m.accepted > 0 && m.queue_depth == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut batch: Vec<(Limits, Request)> = Vec::new();
    batch.push((Limits::none(), certain_inline(64)));
    for _ in 0..6 {
        batch.push((Limits::none(), Request::Ping));
    }
    batch.push((Limits::none(), certain_inline(64)));
    let started = Instant::now();
    let replies = client.call_many_profiled(batch).expect("pipelined batch");
    let batch_us = started.elapsed().as_micros() as u64;
    assert_eq!(replies.len(), 8);
    for (i, reply) in replies.iter().enumerate() {
        let tl = reply
            .timeline
            .as_ref()
            .unwrap_or_else(|| panic!("profiled reply {i} must carry a timeline: {reply:?}"));
        // Cross-clock witness, per request: the budget's own elapsed
        // clock starts at admission and stops when the worker reports,
        // so it must agree with this request's queue+exec phases — even
        // in the middle of a pipelined batch, where smeared attribution
        // would double-count a neighbour's execution. Tolerances cover
        // millisecond truncation of `elapsed_ms` plus scheduling slack.
        let stamped_us = tl.queue_us + tl.exec_us;
        let budget_us = reply.work.elapsed_ms * 1000;
        assert!(
            budget_us <= stamped_us + 5_000 && stamped_us <= budget_us + 6_000,
            "reply {i}: queue+exec {stamped_us}us disagrees with the budget \
             clock {budget_us}us: {tl:?} vs {:?}",
            reply.work
        );
        // The write phase closes after the reply is serialized, so it
        // reads 0 on the wire by construction.
        assert_eq!(tl.write_us, 0, "reply {i}");
        // No phase of one request can exceed the whole batch's span.
        assert!(
            tl.total_us() <= batch_us,
            "reply {i}: phase sum {}us exceeds batch round trip {batch_us}us",
            tl.total_us()
        );
    }
    // One worker serializes all execution: the per-request exec phases
    // must sum to no more than the whole batch's wall clock.
    let exec_sum: u64 = replies.iter().map(|r| r.timeline.as_ref().unwrap().exec_us).sum();
    assert!(
        exec_sum <= batch_us,
        "summed exec {exec_sum}us exceeds the batch round trip {batch_us}us"
    );
    // With one worker, later requests wait for earlier ones: the tail
    // request's queue wait must reflect the serialized executions ahead
    // of it (at least the first heavy request's execution time).
    let first_exec = replies[0].timeline.as_ref().unwrap().exec_us;
    let tail_queue = replies[7].timeline.as_ref().unwrap().queue_us;
    assert!(
        tail_queue >= first_exec,
        "tail queue wait {tail_queue}us < head execution {first_exec}us: \
         queue attribution is not seeing the pipeline"
    );
    blocker.join().expect("blocker thread");
    handle.shutdown();
}

#[test]
fn single_call_phase_sum_approximates_client_rtt() {
    let handle = spawn_with(2, ServerCaps::default());
    let mut client = connect(&handle);
    // Warm up the connection (registration, first-touch allocations).
    for _ in 0..3 {
        client.call(Limits::none(), Request::Ping).expect("warmup");
    }
    // The phase sum excludes client/network time and the write drain,
    // so it is bounded by the RTT and — at loopback — close to it.
    // Scheduling hiccups happen; retry a few times before declaring the
    // accounting broken.
    let mut last = String::new();
    for attempt in 0..10 {
        let started = Instant::now();
        let reply = client.call_profiled(Limits::none(), certain_inline(8)).expect("profiled call");
        let rtt_us = started.elapsed().as_micros() as u64;
        let tl = reply.timeline.expect("profiled reply must carry a timeline");
        assert!(
            tl.total_us() <= rtt_us,
            "phase sum {}us exceeds the client-measured RTT {rtt_us}us",
            tl.total_us()
        );
        let tolerance = (rtt_us / 10).max(2_000);
        if rtt_us - tl.total_us() <= tolerance {
            handle.shutdown();
            return;
        }
        last = format!(
            "attempt {attempt}: rtt {rtt_us}us vs phase sum {}us (tolerance {tolerance}us)",
            tl.total_us()
        );
    }
    panic!("phase sum never came within tolerance of the RTT: {last}");
}

#[test]
fn unprofiled_replies_have_no_timeline_but_histograms_see_everything() {
    let handle = spawn_with(2, ServerCaps::default());
    let mut client = connect(&handle);
    let n = 5u64;
    for _ in 0..n {
        let reply = client.call(Limits::none(), Request::Ping).expect("ping");
        assert_eq!(reply.outcome, Outcome::Pong);
        assert!(
            reply.timeline.is_none(),
            "unprofiled replies must not carry a timeline on the wire"
        );
    }
    let (_, registry) = client.stats_full().expect("stats");
    for name in [
        "server.phase.frame_ms",
        "server.phase.queue_ms",
        "server.phase.exec_ms",
        "server.phase.reorder_ms",
    ] {
        let h =
            registry.histogram(name).unwrap_or_else(|| panic!("{name} missing from the registry"));
        assert!(
            h.count >= n,
            "{name} saw {} requests, expected at least {n}: \
             unprofiled traffic must still be observed",
            h.count
        );
    }
    // Write/e2e close at kernel drain, after the reply is on the wire:
    // by the time the stats reply arrives, at least the earlier pings
    // must have fully drained.
    for name in ["server.phase.write_ms", "server.e2e_ms"] {
        let h =
            registry.histogram(name).unwrap_or_else(|| panic!("{name} missing from the registry"));
        assert!(h.count >= 1, "{name} never observed a drained reply");
    }
    // Satellite: span-ring health is always visible — the dropped
    // counter exists (zero here) and each worker publishes occupancy.
    assert_eq!(registry.counter("trace.spans_dropped"), 0);
    assert!(
        registry.gauges.iter().any(|(name, _)| name.starts_with("trace.ring_occupancy.")),
        "no per-thread span-ring occupancy gauge in the registry"
    );
    handle.shutdown();
}

#[test]
fn worker_panic_dumps_a_flight_digest_for_the_offending_request() {
    let handle = spawn_with(1, ServerCaps { enable_debug_ops: true, ..ServerCaps::default() });
    let mut client = connect(&handle);
    // A healthy request first, so the ring provably holds *context*,
    // not just the crash. Unique ids: the flight ring is process-global
    // and other tests in this binary write to it too.
    let before = server::Envelope::new("lifecycle-before-panic", Limits::none(), Request::Ping);
    let reply = client.call_raw(&before.to_json().to_string()).expect("ping");
    assert_eq!(reply.outcome, Outcome::Pong);
    let boom = server::Envelope::new("lifecycle-boom", Limits::none(), Request::DebugPanic);
    let reply = client.call_raw(&boom.to_json().to_string()).expect("debug_panic");
    assert!(
        matches!(reply.outcome, Outcome::Error { .. }),
        "injected panic must surface as a typed error: {reply:?}"
    );
    let jsonl = client.flight().expect("flight op");
    let boom_line = jsonl
        .lines()
        .find(|l| l.contains("\"lifecycle-boom\""))
        .unwrap_or_else(|| panic!("no flight digest for the panicking request:\n{jsonl}"));
    assert!(boom_line.contains("\"outcome\":\"panic\""), "{boom_line}");
    assert!(boom_line.contains("\"op\":\"debug_panic\""), "{boom_line}");
    assert!(
        jsonl.lines().any(|l| l.contains("\"lifecycle-before-panic\"")),
        "the healthy request preceding the panic is missing from the ring:\n{jsonl}"
    );
    handle.shutdown();
}

#[test]
fn metrics_prom_renders_the_phase_histograms_in_exposition_format() {
    let handle = spawn_with(2, ServerCaps::default());
    let mut client = connect(&handle);
    for _ in 0..3 {
        client.call(Limits::none(), Request::Ping).expect("ping");
    }
    let text = client.metrics_prom().expect("metrics_prom");
    for flat in [
        "server_phase_frame_ms",
        "server_phase_queue_ms",
        "server_phase_exec_ms",
        "server_phase_reorder_ms",
        "server_phase_write_ms",
        "server_e2e_ms",
    ] {
        assert!(
            text.contains(&format!("# TYPE {flat} histogram")),
            "{flat} missing from the exposition:\n{text}"
        );
        for suffix in ["_bucket{le=\"+Inf\"}", "_sum ", "_count "] {
            assert!(
                text.contains(&format!("{flat}{suffix}")),
                "{flat}{suffix} missing from the exposition"
            );
        }
    }
    // Format sanity: comments are HELP/TYPE only, HELP lines are
    // unique, samples are `name[{labels}] value` with numeric values.
    let mut helps: Vec<&str> = text.lines().filter(|l| l.starts_with("# HELP ")).collect();
    let total = helps.len();
    helps.sort_unstable();
    helps.dedup();
    assert_eq!(helps.len(), total, "duplicate HELP lines corrupt the exposition");
    for line in text.lines() {
        if line.starts_with('#') {
            assert!(
                line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                "stray comment: {line}"
            );
            continue;
        }
        let (name, value) = line.rsplit_once(' ').expect("sample shape");
        assert!(value.parse::<u64>().is_ok(), "non-numeric sample: {line}");
        let bare = name.split('{').next().unwrap();
        assert!(
            bare.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "invalid metric name: {bare}"
        );
    }
    handle.shutdown();
}

#[test]
fn handle_digests_record_the_cache_lookup_not_the_index_count() {
    let handle = spawn_with(1, ServerCaps::default());
    let mut client = connect(&handle);
    let (put, _) = client.put_instance("V/2", "V(A,B). V(B,C).").expect("put");
    let by_handle = |query: &str, handle: &str| Request::CertainHandle {
        schema: "E/2".to_owned(),
        views: "V(x,y) :- E(x,y).".to_owned(),
        query: query.to_owned(),
        handle: handle.to_owned(),
    };
    let query = "Q(x,z) :- E(x,y), E(y,z).";
    // Neither failure builds an index, and neither was served by the
    // cache; only the repeat of a chased request is a hit.
    let cases = [
        ("lifecycle-cache-unknown", by_handle(query, "h-never-put"), "error", Some(false)),
        ("lifecycle-cache-malformed", by_handle("Q(x :- garbage", &put), "error", Some(false)),
        ("lifecycle-cache-miss", by_handle(query, &put), "ok", Some(false)),
        ("lifecycle-cache-hit", by_handle(query, &put), "ok", Some(true)),
        ("lifecycle-cache-inline", certain_inline(2), "ok", None),
    ];
    let mut builds = Vec::new();
    for (id, request, status, _) in &cases {
        let reply = call_as(&mut client, id, request.clone(), false);
        assert_eq!(reply.outcome.status(), *status, "{id}: {reply:?}");
        builds.push(reply.work.index_builds);
    }
    assert_eq!(&builds[..2], &[0, 0], "the failures build nothing");
    assert!(builds[2] > 0 && builds[3] == 0, "miss chases, hit reuses: {builds:?}");
    let jsonl = client.flight().expect("flight op");
    for (id, _, _, cache_hit) in cases {
        assert_eq!(digest(&jsonl, id).cache_hit, cache_hit, "{id}");
    }
    handle.shutdown();
}

#[test]
fn flight_digests_replies_and_histograms_read_one_record() {
    let handle = spawn_with(2, ServerCaps::default());
    let mut client = connect(&handle);
    let decide = Request::Decide {
        schema: "E/2".to_owned(),
        views: "V(x,y) :- E(x,y).".to_owned(),
        query: "Q(x,z) :- E(x,y), E(y,z).".to_owned(),
    };
    let n = 12;
    let (_, before) = client.stats_full().expect("stats");
    let replies: Vec<(String, Response)> = (0..n)
        .map(|i| {
            let request = match i % 3 {
                0 => Request::Ping,
                1 => decide.clone(),
                _ => certain_inline(8),
            };
            let id = format!("lifecycle-agree-{i}");
            let reply = call_as(&mut client, &id, request, true);
            (id, reply)
        })
        .collect();
    let (_, after) = client.stats_full().expect("stats");
    let jsonl = client.flight().expect("flight op");
    for (id, reply) in &replies {
        let tl = reply.timeline.unwrap_or_else(|| panic!("{id}: profiled reply without timeline"));
        let d = digest(&jsonl, id);
        assert_eq!(
            (d.frame_us, d.queue_us, d.exec_us),
            (tl.frame_us, tl.queue_us, tl.exec_us),
            "{id}: digest and reply timeline disagree"
        );
        assert_eq!(
            (d.steps, d.tuples, d.index_builds),
            (reply.work.steps, reply.work.tuples, reply.work.index_builds),
            "{id}: digest and reply work disagree"
        );
    }
    // Served between the two snapshots: the n requests and the first
    // `stats` call (counted and released before its reply left).
    let exec = |s: &RegistrySnapshot| s.histogram("server.phase.exec_ms").map_or(0, |h| h.count);
    assert_eq!(exec(&after) - exec(&before), n + 1, "server.phase.exec_ms");
    for (op, served) in
        [("ping", 4), ("decide_unrestricted", 4), ("certain_sound", 4), ("stats", 1)]
    {
        let name = format!("op.{op}.requests");
        assert_eq!(after.counter(&name) - before.counter(&name), served, "{name}");
    }
    handle.shutdown();
}

//! Golden corpus for the wire protocol's encoders and decoders.
//!
//! Clients, the benchmark's load generator and old peers depend on the
//! exact bytes the server writes and on the exact error replies a
//! malformed line earns. This table pins:
//!
//! * the encoded line of every [`Request`] variant, alone and with the
//!   envelope's limits/profile/trace/parallelism combinations;
//! * the encoded line of every [`Outcome`] variant, with and without
//!   the reply's `profile`/`trace`/`fragment`/`timeline` sections and a
//!   nonzero `threads_used` (each encoded line must also decode back to
//!   the value it came from);
//! * the decode result of request lines: the `Debug` of the decoded
//!   envelope, or the `(kind, message, id)` error triple, for absent
//!   optional fields, each missing required field, wrong-typed request
//!   fields, unknown ops, bad versions, missing `request`/`op`, and
//!   non-JSON input;
//! * the decode result of reply lines with absent fields.
//!
//! The table lives in `tests/golden/wire.txt`. Regenerate it only for a
//! deliberate, documented wire change:
//!
//! ```text
//! VQD_GOLDEN_RECORD=1 cargo test --test golden_wire
//! ```

use std::fmt::Write as _;
use vqd::obs::{Metric, MetricsSnapshot, Registry, LATENCY_BOUNDS_MS};
use vqd::server::{
    Envelope, ErrorKind, Limits, Outcome, Request, Response, Timeline, WireCounterexample,
    WireMetrics, WireStats,
};

const TABLE: &str = "tests/golden/wire.txt";

const SCHEMA: &str = "E/2";
const VIEWS: &str = "V(x,y) :- E(x,y).";
const QUERY: &str = "Q(x,z) :- E(x,y), E(y,z).";

fn s(v: &str) -> String {
    v.to_owned()
}

/// One instance of every request variant.
fn requests() -> Vec<(&'static str, Request)> {
    vec![
        ("ping", Request::Ping),
        ("decide", Request::Decide { schema: s(SCHEMA), views: s(VIEWS), query: s(QUERY) }),
        ("rewrite", Request::Rewrite { schema: s(SCHEMA), views: s(VIEWS), query: s(QUERY) }),
        (
            "certain",
            Request::Certain {
                schema: s(SCHEMA),
                views: s(VIEWS),
                query: s(QUERY),
                extent: s("V(A,B). V(B,C)."),
            },
        ),
        (
            "certain-handle",
            Request::CertainHandle {
                schema: s(SCHEMA),
                views: s(VIEWS),
                query: s(QUERY),
                handle: s("h7"),
            },
        ),
        ("put", Request::PutInstance { schema: s("V/2"), extent: s("V(A,B).") }),
        ("evict", Request::EvictInstance { handle: s("h7") }),
        ("cache-stats", Request::CacheStats),
        ("classify", Request::Classify { schema: s(SCHEMA), views: s(VIEWS), query: s(QUERY) }),
        (
            "containment",
            Request::Containment {
                schema: s("E/2,P/1"),
                q1: s("Q(x) :- P(x)."),
                q2: s("Q(x) :- P(x), E(x,x)."),
                max_domain: 2,
                space_limit: 1 << 16,
            },
        ),
        (
            "finite",
            Request::Finite {
                schema: s(SCHEMA),
                views: s("V(x,y) :- E(x,z), E(z,y)."),
                query: s("Q(x,y) :- E(x,y)."),
                max_domain: 3,
                space_limit: 4096,
            },
        ),
        (
            "semantic",
            Request::Semantic {
                schema: s(SCHEMA),
                views: s(VIEWS),
                query: s(QUERY),
                domain: 2,
                space_limit: 1 << 22,
            },
        ),
        ("stats", Request::Stats),
        ("flight", Request::Flight),
        ("metrics-prom", Request::MetricsProm),
        ("shutdown", Request::Shutdown),
        ("debug-panic", Request::DebugPanic),
        // Text that needs JSON escapes.
        (
            "escapes",
            Request::Decide {
                schema: s("E/2"),
                views: s("V(x,y) :- E(x,y).\n% \"quoted\" \\ tab\t\u{e9}"),
                query: s("Q(x) :- E(x,x)."),
            },
        ),
    ]
}

/// Envelope-level combinations, applied to a ping and a decide.
fn envelopes() -> Vec<(String, Envelope)> {
    let limit_sets = [
        ("none", Limits::none()),
        ("deadline", Limits { deadline_ms: Some(250), ..Limits::none() }),
        ("steps", Limits { step_limit: Some(10_000), ..Limits::none() }),
        ("tuples", Limits { tuple_limit: Some(0), ..Limits::none() }),
        ("all-limits", Limits { deadline_ms: Some(5), step_limit: Some(9), tuple_limit: Some(2) }),
    ];
    let mut out = Vec::new();
    for (rname, request) in requests() {
        out.push((
            rname.to_string(),
            Envelope::new(format!("id-{rname}"), Limits::none(), request),
        ));
    }
    let decide = Request::Decide { schema: s(SCHEMA), views: s(VIEWS), query: s(QUERY) };
    for base in [("ping", Request::Ping), ("decide", decide)] {
        for (lname, limits) in &limit_sets {
            for flags in 0..8u8 {
                let mut e = Envelope::new("x", limits.clone(), base.1.clone())
                    .with_profile(flags & 1 != 0)
                    .with_trace(flags & 2 != 0);
                if flags & 4 != 0 {
                    e = e.with_parallelism(4);
                }
                out.push((format!("{}/{lname}/flags{flags}", base.0), e));
            }
        }
    }
    out.push((
        s("parallelism-0"),
        Envelope::new("p0", Limits::none(), Request::Ping).with_parallelism(0),
    ));
    out.push((s("empty-id"), Envelope::new("", Limits::none(), Request::Ping)));
    out
}

fn counterexample() -> WireCounterexample {
    WireCounterexample {
        d1: s("E(A,B)."),
        d2: s("E(A,A)."),
        image: s("{}"),
        q1: s("{}"),
        q2: s("{(A)}"),
    }
}

/// One or more instances of every outcome variant.
fn outcomes() -> Vec<(&'static str, Outcome)> {
    let registry = {
        let reg = Registry::new();
        reg.counter("op.ping.requests").add(3);
        reg.gauge("server.uptime_ms").set(1234);
        reg.histogram("op.ping.latency_ms", &LATENCY_BOUNDS_MS).observe(7);
        reg.snapshot()
    };
    vec![
        ("pong", Outcome::Pong),
        (
            "decided-yes",
            Outcome::Decided { determined: true, rewriting: Some(s("R(x,z) :- V(x,y), V(y,z).")) },
        ),
        ("decided-no", Outcome::Decided { determined: false, rewriting: None }),
        ("rewritten-yes", Outcome::Rewritten { exists: true, rewriting: Some(s("R(x) :- V(x).")) }),
        ("rewritten-no", Outcome::Rewritten { exists: false, rewriting: None }),
        ("certain", Outcome::CertainAnswers { answers: s("{(A,C)}"), count: 1 }),
        ("certain-empty", Outcome::CertainAnswers { answers: s("{}"), count: 0 }),
        ("put", Outcome::InstancePut { handle: s("h3"), fingerprint: s("ab12"), tuples: 7 }),
        ("evicted-yes", Outcome::Evicted { handle: s("h3"), existed: true }),
        ("evicted-no", Outcome::Evicted { handle: s("h9"), existed: false }),
        (
            "cache-stats",
            Outcome::CacheStatsSnapshot {
                entries: 2,
                bytes: 4096,
                hits: 5,
                misses: 1,
                evictions: 0,
                puts: 2,
                max_entries: 128,
                max_bytes: 64 << 20,
                disk_hits: 3,
                disk_misses: 2,
                disk_spills: 4,
                disk_promotions: 3,
                disk_corrupt_dropped: 1,
                disk_io_errors: 1,
                disk_bytes: 8192,
            },
        ),
        (
            "classified",
            Outcome::Classified {
                fragment: s("project-select"),
                decidable: true,
                route: s("direct polynomial decision procedure"),
            },
        ),
        (
            "contained-bound",
            Outcome::Contained { verdict: s("no-counterexample"), bound: Some(3), witness: None },
        ),
        (
            "contained-refuted",
            Outcome::Contained { verdict: s("refuted"), bound: None, witness: Some(s("P(A).")) },
        ),
        (
            "contained-bare",
            Outcome::Contained { verdict: s("too-large"), bound: None, witness: None },
        ),
        (
            "finite-determined",
            Outcome::FiniteOutcome {
                verdict: s("determined"),
                rewriting: Some(s("R(x,y) :- V(x,y).")),
                searched_up_to: None,
                counterexample: None,
            },
        ),
        (
            "finite-open",
            Outcome::FiniteOutcome {
                verdict: s("open"),
                rewriting: None,
                searched_up_to: Some(3),
                counterexample: None,
            },
        ),
        (
            "finite-not",
            Outcome::FiniteOutcome {
                verdict: s("not-determined"),
                rewriting: None,
                searched_up_to: None,
                counterexample: Some(counterexample()),
            },
        ),
        (
            "semantic-bound",
            Outcome::SemanticOutcome {
                verdict: s("no-counterexample"),
                bound: Some(2),
                counterexample: None,
            },
        ),
        (
            "semantic-not",
            Outcome::SemanticOutcome {
                verdict: s("not-determined"),
                bound: None,
                counterexample: Some(counterexample()),
            },
        ),
        (
            "stats",
            Outcome::StatsSnapshot {
                metrics: WireMetrics {
                    accepted: 10,
                    completed_ok: 8,
                    exhausted: 1,
                    rejected: 1,
                    errors: 0,
                    queue_depth: 0,
                    max_queue_depth: 4,
                    connections_open: 2,
                    connections_total: 5,
                    workers: 4,
                },
                registry,
            },
        ),
        (
            "stats-empty",
            Outcome::StatsSnapshot {
                metrics: WireMetrics::default(),
                registry: Default::default(),
            },
        ),
        ("flight", Outcome::FlightSnapshot { jsonl: s("{\"seq\":1,\"op\":\"ping\"}\n") }),
        ("flight-empty", Outcome::FlightSnapshot { jsonl: String::new() }),
        ("metrics-text", Outcome::MetricsText { text: s("# TYPE server_e2e_ms histogram\n") }),
        ("shutting-down", Outcome::ShuttingDown),
        (
            "exhausted",
            Outcome::Exhausted { reason: s("deadline exceeded"), partial: s("scanned 10") },
        ),
        ("overloaded", Outcome::Overloaded { queue_depth: 64, queue_capacity: 64 }),
        (
            "error-protocol",
            Outcome::Error { kind: ErrorKind::Protocol, message: s("missing `request`") },
        ),
        ("error-version", Outcome::Error { kind: ErrorKind::Version, message: s("v") }),
        ("error-parse", Outcome::Error { kind: ErrorKind::Parse, message: s("bad query") }),
        ("error-invalid", Outcome::Error { kind: ErrorKind::InvalidInput, message: s("arity") }),
        ("error-schema", Outcome::Error { kind: ErrorKind::SchemaMismatch, message: s("schemas") }),
        ("error-unsupported", Outcome::Error { kind: ErrorKind::Unsupported, message: s("op") }),
        ("error-handle", Outcome::Error { kind: ErrorKind::UnknownHandle, message: s("h1") }),
        ("error-timeout", Outcome::Error { kind: ErrorKind::Timeout, message: s("idle") }),
        ("error-internal", Outcome::Error { kind: ErrorKind::Internal, message: s("panic") }),
    ]
}

/// Every outcome bare, then a few under every combination of the
/// optional reply sections and work shapes.
fn responses() -> Vec<(String, Response)> {
    let work = WireStats {
        steps: 12,
        tuples: 3,
        elapsed_ms: 40,
        index_builds: 2,
        index_tuples: 17,
        threads_used: 0,
    };
    let par = WireStats { threads_used: 4, ..work };
    let mut profile = MetricsSnapshot::default();
    profile.set(Metric::ChaseRounds, 4);
    profile.set(Metric::HomCandidatesTried, 19);
    let mut timeline = Timeline::default();
    (timeline.frame_us, timeline.queue_us, timeline.exec_us, timeline.reorder_us) =
        (10, 250, 4000, 30);
    let mut write_only = Timeline::default();
    write_only.write_us = 5;
    let mut out = Vec::new();
    for (name, outcome) in outcomes() {
        out.push((
            name.to_string(),
            Response::new(format!("r-{name}"), outcome, WireStats::default()),
        ));
    }
    let pick = ["pong", "decided-yes", "certain", "error-parse"];
    for (name, outcome) in outcomes().into_iter().filter(|(n, _)| pick.contains(n)) {
        for (wname, w) in [("work", work), ("par", par)] {
            for flags in 0..16u8 {
                let mut r = Response::new("x", outcome.clone(), w);
                if flags & 1 != 0 {
                    r = r.with_profile(profile);
                }
                if flags & 2 != 0 {
                    r = r.with_trace("{\"name\":\"chase.round\"}");
                }
                if flags & 4 != 0 {
                    r = r.with_fragment("project-select");
                }
                if flags & 8 != 0 {
                    r = r.with_timeline(timeline);
                }
                out.push((format!("{name}/{wname}/flags{flags}"), r));
            }
        }
    }
    out.push((
        s("empty-trace"),
        Response::new("t", Outcome::Pong, WireStats::default()).with_trace(""),
    ));
    out.push((
        s("empty-profile"),
        Response::new("t", Outcome::Pong, WireStats::default())
            .with_profile(MetricsSnapshot::default()),
    ));
    out.push((
        s("timeline-write"),
        Response::new("t", Outcome::Pong, WireStats::default()).with_timeline(write_only),
    ));
    out
}

/// Request lines that decode to envelopes or earn error replies.
const REQUEST_LINES: &[&str] = &[
    // Absent optional fields take their defaults.
    r#"{"v":1,"id":"x","request":{"op":"ping"}}"#,
    r#"{"v":1,"request":{"op":"ping"}}"#,
    r#"{"v":1,"id":"c","request":{"op":"containment","schema":"E/2","q1":"Q(x) :- E(x,x).","q2":"Q(x) :- E(x,y)."}}"#,
    r#"{"v":1,"id":"f","request":{"op":"decide_finite","schema":"E/2","views":"V(x,y) :- E(x,y).","query":"Q(x) :- E(x,x)."}}"#,
    r#"{"v":1,"id":"s","request":{"op":"check_exhaustive","schema":"E/2","views":"V(x,y) :- E(x,y).","query":"Q(x) :- E(x,x)."}}"#,
    r#"{"v":1,"id":"s","request":{"op":"check_exhaustive","schema":"E/2","views":"V(x,y) :- E(x,y).","query":"Q(x) :- E(x,x).","domain":4,"space_limit":0}}"#,
    // Present envelope fields of the right type.
    r#"{"v":1,"id":"l","deadline_ms":50,"step_limit":0,"tuple_limit":7,"profile":true,"trace":false,"parallelism":2,"request":{"op":"ping"}}"#,
    r#"{"v":1,"id":"l","profile":false,"trace":true,"request":{"op":"stats"}}"#,
    // Unknown keys are ignored; the last duplicate wins.
    r#"{"v":1,"id":"u","extra":[1,2],"request":{"op":"ping","schema":5}}"#,
    r#"{"v":1,"id":"first","id":"last","request":{"op":"ping"}}"#,
    r#"{"request":{"op":"ping"},"id":"late","v":1}"#,
    // The two `certain_sound` extent forms.
    r#"{"v":1,"id":"a","request":{"op":"certain_sound","schema":"E/2","views":"V(x,y) :- E(x,y).","query":"Q(x) :- E(x,y).","extent":"V(A,B)."}}"#,
    r#"{"v":1,"id":"b","request":{"op":"certain_sound","schema":"E/2","views":"V(x,y) :- E(x,y).","query":"Q(x) :- E(x,y).","extent":{"handle":"h7"}}}"#,
    r#"{"v":1,"id":"b","request":{"op":"certain_sound","schema":"E/2","views":"V(x,y) :- E(x,y).","query":"Q(x) :- E(x,y).","extent":{"handle":7}}}"#,
    r#"{"v":1,"id":"b","request":{"op":"certain_sound","schema":"E/2","views":"V(x,y) :- E(x,y).","query":"Q(x) :- E(x,y).","extent":{}}}"#,
    r#"{"v":1,"id":"b","request":{"op":"certain_sound","views":"V(x,y) :- E(x,y).","query":"Q(x) :- E(x,y).","extent":{"handle":"h7"}}}"#,
    // Each required field missing.
    r#"{"v":1,"id":"m","request":{"op":"decide_unrestricted","views":"V(x) :- P(x).","query":"Q(x) :- P(x)."}}"#,
    r#"{"v":1,"id":"m","request":{"op":"decide_unrestricted","schema":"P/1","query":"Q(x) :- P(x)."}}"#,
    r#"{"v":1,"id":"m","request":{"op":"decide_unrestricted","schema":"P/1","views":"V(x) :- P(x)."}}"#,
    r#"{"v":1,"id":"m","request":{"op":"rewrite","views":"V(x) :- P(x).","query":"Q(x) :- P(x)."}}"#,
    r#"{"v":1,"id":"m","request":{"op":"rewrite","schema":"P/1","query":"Q(x) :- P(x)."}}"#,
    r#"{"v":1,"id":"m","request":{"op":"rewrite","schema":"P/1","views":"V(x) :- P(x)."}}"#,
    r#"{"v":1,"id":"m","request":{"op":"classify","views":"V(x) :- P(x).","query":"Q(x) :- P(x)."}}"#,
    r#"{"v":1,"id":"m","request":{"op":"classify","schema":"P/1","query":"Q(x) :- P(x)."}}"#,
    r#"{"v":1,"id":"m","request":{"op":"classify","schema":"P/1","views":"V(x) :- P(x)."}}"#,
    r#"{"v":1,"id":"m","request":{"op":"certain_sound","views":"V(x) :- P(x).","query":"Q(x) :- P(x).","extent":"V(A)."}}"#,
    r#"{"v":1,"id":"m","request":{"op":"certain_sound","schema":"P/1","query":"Q(x) :- P(x).","extent":"V(A)."}}"#,
    r#"{"v":1,"id":"m","request":{"op":"certain_sound","schema":"P/1","views":"V(x) :- P(x).","extent":"V(A)."}}"#,
    r#"{"v":1,"id":"m","request":{"op":"certain_sound","schema":"P/1","views":"V(x) :- P(x).","query":"Q(x) :- P(x)."}}"#,
    r#"{"v":1,"id":"m","request":{"op":"put_instance","extent":"V(A)."}}"#,
    r#"{"v":1,"id":"m","request":{"op":"put_instance","schema":"V/1"}}"#,
    r#"{"v":1,"id":"m","request":{"op":"evict_instance"}}"#,
    r#"{"v":1,"id":"m","request":{"op":"containment","q1":"Q(x) :- P(x).","q2":"Q(x) :- P(x)."}}"#,
    r#"{"v":1,"id":"m","request":{"op":"containment","schema":"P/1","q2":"Q(x) :- P(x)."}}"#,
    r#"{"v":1,"id":"m","request":{"op":"containment","schema":"P/1","q1":"Q(x) :- P(x)."}}"#,
    r#"{"v":1,"id":"m","request":{"op":"decide_finite","views":"V(x) :- P(x).","query":"Q(x) :- P(x)."}}"#,
    r#"{"v":1,"id":"m","request":{"op":"decide_finite","schema":"P/1","query":"Q(x) :- P(x)."}}"#,
    r#"{"v":1,"id":"m","request":{"op":"decide_finite","schema":"P/1","views":"V(x) :- P(x)."}}"#,
    r#"{"v":1,"id":"m","request":{"op":"check_exhaustive","views":"V(x) :- P(x).","query":"Q(x) :- P(x)."}}"#,
    r#"{"v":1,"id":"m","request":{"op":"check_exhaustive","schema":"P/1","query":"Q(x) :- P(x)."}}"#,
    r#"{"v":1,"id":"m","request":{"op":"check_exhaustive","schema":"P/1","views":"V(x) :- P(x)."}}"#,
    // Wrong-typed request fields.
    r#"{"v":1,"id":"w","request":{"op":"decide_unrestricted","schema":2,"views":"V(x) :- P(x).","query":"Q(x) :- P(x)."}}"#,
    r#"{"v":1,"id":"w","request":{"op":"rewrite","schema":"P/1","views":["V(x) :- P(x)."],"query":"Q(x) :- P(x)."}}"#,
    r#"{"v":1,"id":"w","request":{"op":"classify","schema":"P/1","views":"V(x) :- P(x).","query":null}}"#,
    r#"{"v":1,"id":"w","request":{"op":"certain_sound","schema":"P/1","views":"V(x) :- P(x).","query":"Q(x) :- P(x).","extent":true}}"#,
    r#"{"v":1,"id":"w","request":{"op":"put_instance","schema":"V/1","extent":3}}"#,
    r#"{"v":1,"id":"w","request":{"op":"evict_instance","handle":{"handle":"h1"}}}"#,
    r#"{"v":1,"id":"w","request":{"op":"containment","schema":"P/1","q1":"Q(x) :- P(x).","q2":"Q(x) :- P(x).","max_domain":"3"}}"#,
    r#"{"v":1,"id":"w","request":{"op":"containment","schema":"P/1","q1":"Q(x) :- P(x).","q2":"Q(x) :- P(x).","space_limit":-1}}"#,
    r#"{"v":1,"id":"w","request":{"op":"decide_finite","schema":"P/1","views":"V(x) :- P(x).","query":"Q(x) :- P(x).","max_domain":1.5}}"#,
    r#"{"v":1,"id":"w","request":{"op":"decide_finite","schema":"P/1","views":"V(x) :- P(x).","query":"Q(x) :- P(x).","space_limit":null}}"#,
    r#"{"v":1,"id":"w","request":{"op":"check_exhaustive","schema":"P/1","views":"V(x) :- P(x).","query":"Q(x) :- P(x).","domain":"3"}}"#,
    r#"{"v":1,"id":"w","request":{"op":"check_exhaustive","schema":"P/1","views":"V(x) :- P(x).","query":"Q(x) :- P(x).","space_limit":true}}"#,
    r#"{"v":1,"id":"w","request":{"op":"check_exhaustive","schema":"P/1","views":"V(x) :- P(x).","query":"Q(x) :- P(x).","domain":1e300}}"#,
    // Unknown ops.
    r#"{"v":1,"id":"req-7","request":{"op":"frobnicate"}}"#,
    r#"{"v":1,"id":"req-8","request":{"op":"PING"}}"#,
    r#"{"v":1,"id":"req-9","request":{"op":""}}"#,
    // Bad versions.
    r#"{"v":99,"id":"x","request":{"op":"ping"}}"#,
    r#"{"v":0,"id":"x","request":{"op":"ping"}}"#,
    r#"{"v":"1","id":"x","request":{"op":"ping"}}"#,
    r#"{"v":1.5,"id":"x","request":{"op":"ping"}}"#,
    r#"{"id":"x","request":{"op":"ping"}}"#,
    // Missing `request` / `op`.
    r#"{"v":1,"id":"x"}"#,
    r#"{"v":1,"id":"x","request":{}}"#,
    r#"{"v":1,"id":"x","request":{"op":7}}"#,
    r#"{"v":1,"id":"x","request":"ping"}"#,
    r#"{"v":1,"id":"x","request":null}"#,
    // Not JSON, or not an object.
    "",
    "{not json",
    r#"{"v":1,"id":"x","request":{"op":"ping"}"#,
    r#"{"v":1,"id":"x","request":{"op":"ping"}} trailing"#,
    "[]",
    "null",
    "42",
    "\"ping\"",
];

/// Reply lines with absent fields (old or minimal peers).
const RESPONSE_LINES: &[&str] = &[
    r#"{"v":1,"id":"x","status":"ok","result":{"kind":"pong"}}"#,
    r#"{"v":1,"id":"x","status":"ok","work":{},"result":{"kind":"pong"}}"#,
    r#"{"v":1,"id":"x","status":"ok","work":{"steps":5,"tuples":0,"elapsed_ms":1,"index_builds":0,"index_tuples":0},"result":{"kind":"pong"}}"#,
    r#"{"v":1,"id":"x","status":"ok","work":{"steps":5},"timeline":{"frame_us":1,"queue_us":2,"exec_us":3},"result":{"kind":"pong"}}"#,
    r#"{"id":"x","result":{"kind":"pong"}}"#,
    r#"{"v":1,"result":{"kind":"pong"}}"#,
    r#"{"v":1,"id":"x"}"#,
    r#"{"v":1,"id":"x","result":{}}"#,
    r#"{"v":1,"id":"x","result":{"kind":"nope"}}"#,
    r#"{"v":1,"id":"x","result":{"kind":"decided"}}"#,
    r#"{"v":1,"id":"x","result":{"kind":"decided","determined":false}}"#,
    r#"{"v":1,"id":"x","result":{"kind":"rewritten"}}"#,
    r#"{"v":1,"id":"x","result":{"kind":"rewritten","exists":true}}"#,
    r#"{"v":1,"id":"x","result":{"kind":"certain"}}"#,
    r#"{"v":1,"id":"x","result":{"kind":"certain","answers":"{}"}}"#,
    r#"{"v":1,"id":"x","result":{"kind":"put","fingerprint":"f"}}"#,
    r#"{"v":1,"id":"x","result":{"kind":"put","handle":"h1"}}"#,
    r#"{"v":1,"id":"x","result":{"kind":"put","handle":"h1","fingerprint":"f"}}"#,
    r#"{"v":1,"id":"x","result":{"kind":"evicted"}}"#,
    r#"{"v":1,"id":"x","result":{"kind":"evicted","handle":"h1"}}"#,
    r#"{"v":1,"id":"x","result":{"kind":"cache-stats"}}"#,
    r#"{"v":1,"id":"x","result":{"kind":"cache-stats","entries":1,"bytes":2,"hits":3,"misses":4,"evictions":5,"puts":6,"max_entries":7,"max_bytes":8}}"#,
    r#"{"v":1,"id":"x","result":{"kind":"classified","route":"r"}}"#,
    r#"{"v":1,"id":"x","result":{"kind":"classified","fragment":"path"}}"#,
    r#"{"v":1,"id":"x","result":{"kind":"classified","fragment":"path","route":"r"}}"#,
    r#"{"v":1,"id":"x","result":{"kind":"containment"}}"#,
    r#"{"v":1,"id":"x","result":{"kind":"containment","verdict":"refuted"}}"#,
    r#"{"v":1,"id":"x","result":{"kind":"finite"}}"#,
    r#"{"v":1,"id":"x","result":{"kind":"finite","verdict":"open"}}"#,
    r#"{"v":1,"id":"x","result":{"kind":"semantic"}}"#,
    r#"{"v":1,"id":"x","result":{"kind":"semantic","verdict":"too-large"}}"#,
    r#"{"v":1,"id":"x","result":{"kind":"stats"}}"#,
    r#"{"v":1,"id":"x","result":{"kind":"stats","accepted":3,"workers":2}}"#,
    r#"{"v":1,"id":"x","result":{"kind":"flight"}}"#,
    r#"{"v":1,"id":"x","result":{"kind":"metrics-text"}}"#,
    r#"{"v":1,"id":"x","result":{"kind":"shutting-down"}}"#,
    r#"{"v":1,"id":"x","result":{"kind":"exhausted","partial":"p"}}"#,
    r#"{"v":1,"id":"x","result":{"kind":"exhausted","reason":"r"}}"#,
    r#"{"v":1,"id":"x","result":{"kind":"overloaded"}}"#,
    r#"{"v":1,"id":"x","result":{"kind":"error"}}"#,
    r#"{"v":1,"id":"x","result":{"kind":"error","message":"m"}}"#,
    r#"{"v":1,"id":"x","result":{"kind":"error","error_kind":"nope","message":"m"}}"#,
    "{not json",
];

fn corpus() -> String {
    let mut out = String::new();
    for (name, e) in envelopes() {
        let line = e.to_json().to_string();
        let back = Envelope::from_line(&line);
        assert_eq!(back.as_ref(), Ok(&e), "envelope `{name}` must round-trip");
        let _ = writeln!(out, "request {name} => {line}");
    }
    for (name, r) in responses() {
        let line = r.to_json().to_string();
        let back = Response::from_line(&line);
        assert_eq!(back.as_ref(), Ok(&r), "response `{name}` must round-trip");
        let _ = writeln!(out, "reply {name} => {line}");
    }
    for line in REQUEST_LINES {
        let _ = writeln!(out, "decode-request {line} => {:?}", Envelope::from_line(line));
    }
    for line in RESPONSE_LINES {
        let _ = writeln!(out, "decode-reply {line} => {:?}", Response::from_line(line));
    }
    out
}

#[test]
fn wire_matches_the_golden_corpus() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(TABLE);
    let actual = corpus();
    if std::env::var_os("VQD_GOLDEN_RECORD").is_some() {
        std::fs::create_dir_all(path.parent().expect("table dir")).expect("create golden dir");
        std::fs::write(&path, &actual).expect("write golden table");
        return;
    }
    let expected = std::fs::read_to_string(&path).expect("golden table is checked in");
    for (line, (want, got)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(got, want, "wire corpus diverges at line {}", line + 1);
    }
    assert_eq!(actual.lines().count(), expected.lines().count(), "corpus length differs");
}

#[test]
fn corpus_covers_every_variant() {
    let ops: std::collections::BTreeSet<&str> = requests().iter().map(|(_, r)| r.op()).collect();
    assert_eq!(ops.len(), 16, "every wire op has a sample: {ops:?}");
    let kinds: std::collections::BTreeSet<String> = outcomes()
        .iter()
        .map(|(_, o)| {
            let v = Response::new("", o.clone(), WireStats::default()).to_json();
            v.get("result").and_then(|r| r.get("kind")).and_then(|k| k.as_str()).unwrap().to_owned()
        })
        .collect();
    assert_eq!(kinds.len(), 18, "every result kind has a sample: {kinds:?}");
}

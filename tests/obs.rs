//! End-to-end observability smoke tests: per-request execution profiles
//! and the server-wide metrics registry, exercised over real TCP.
//!
//! These pin the service-level observability contract:
//!
//! * a profiled chase-heavy request comes back with non-zero chase-round
//!   and hom-search counters in its `profile` section;
//! * an unprofiled request carries no `profile` section on the wire
//!   (the extension is strictly additive);
//! * the `stats` op returns a registry snapshot whose per-op latency
//!   histograms cover the requests served so far, alongside per-op
//!   request counters, lifetime engine counters, and the uptime gauge;
//! * both extensions have the documented JSON shapes;
//! * `vqd-cli stats` prints the registry's lifetime counters, so the
//!   certain-answer route split can be read from a running server.

use serde::json::Value;
use vqd::obs::Metric;
use vqd::server::{self, Client, Limits, Outcome, Request, ServerCaps, ServerConfig};

fn server(workers: usize) -> server::ServerHandle {
    server::spawn(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers,
        queue_depth: 16,
        caps: ServerCaps::default(),
    })
    .expect("spawn server")
}

/// 2-path views determine the 4-path query: deciding this chases the
/// canonical instance *and* runs the homomorphism search, so both
/// counter families must move.
fn chase_heavy() -> Request {
    Request::Decide {
        schema: "E/2".to_owned(),
        views: "V(x0,x2) :- E(x0,x1), E(x1,x2).".to_owned(),
        query: "Q(x0,x4) :- E(x0,x1), E(x1,x2), E(x2,x3), E(x3,x4).".to_owned(),
    }
}

#[test]
fn profiled_request_reports_chase_and_hom_work() {
    let handle = server(1);
    let mut client = Client::connect(handle.addr()).expect("connect");

    let response = client.call_profiled(Limits::none(), chase_heavy()).expect("call");
    match &response.outcome {
        Outcome::Decided { determined, .. } => assert!(*determined, "2-paths determine 4-paths"),
        other => panic!("expected a verdict, got {other:?}"),
    }
    let profile = response.profile.as_ref().expect("profile was requested");
    assert!(profile.get(Metric::ChaseRounds) > 0, "deciding determinacy must chase: {profile:?}");
    assert!(
        profile.get(Metric::HomCandidatesTried) > 0,
        "deciding determinacy must run the hom search: {profile:?}"
    );

    // Wire shape: the reply serializes with a `profile` object mapping
    // counter names to counts, and it round-trips.
    let json = response.to_json();
    let wire_profile = json.get("profile").expect("profile key on the wire");
    assert!(
        wire_profile.get(Metric::ChaseRounds.name()).is_some(),
        "profile JSON must key counters by metric name: {wire_profile}"
    );
    let reparsed = server::Response::from_json(&json).expect("reply JSON round-trips");
    assert_eq!(reparsed.profile.as_ref(), Some(profile));

    // A request that does not opt in gets no profile section at all.
    let plain = client.call(Limits::none(), Request::Ping).expect("ping");
    assert!(plain.profile.is_none());
    assert!(plain.to_json().get("profile").is_none(), "profile must stay opt-in");

    handle.shutdown();
}

#[test]
fn stats_op_returns_registry_covering_served_requests() {
    let handle = server(2);
    let mut client = Client::connect(handle.addr()).expect("connect");

    let reqs = 3u64;
    for _ in 0..reqs {
        let response = client.call(Limits::none(), chase_heavy()).expect("call");
        assert!(matches!(response.outcome, Outcome::Decided { .. }));
    }

    let (metrics, registry) = client.stats_full().expect("stats");
    assert_eq!(metrics.workers, 2);
    assert!(metrics.accepted >= reqs);

    // Per-op request counters and a latency histogram covering every
    // request served on this op.
    assert_eq!(registry.counter("op.decide_unrestricted.requests"), reqs);
    assert_eq!(registry.counter("op.decide_unrestricted.errors"), 0);
    let latency = registry
        .histogram("op.decide_unrestricted.latency_ms")
        .expect("latency histogram for the served op");
    assert_eq!(latency.count, reqs, "every request must be observed: {latency:?}");
    assert!(latency.quantile(0.5) > 0, "p50 reports a bucket bound");

    // Lifetime engine counters fold the per-request profiles.
    assert!(registry.counter("engine.chase_rounds") > 0);
    assert!(registry.counter("engine.hom_candidates_tried") > 0);

    // The stats handler stamps server gauges at snapshot time. (A gauge
    // may legitimately read 0, so assert on key presence, not value.)
    let has_gauge = |name: &str| registry.gauges.iter().any(|(k, _)| k == name);
    assert!(has_gauge("server.uptime_ms"), "uptime gauge must be set");
    assert!(has_gauge("server.connections_open"));
    assert!(has_gauge("server.queue_depth_hwm"));

    // Wire shape of the stats reply: flat v1 metrics stay where v1
    // clients expect them, and the registry rides alongside with its
    // three sections.
    let json = server::Response::new(
        "shape".to_owned(),
        Outcome::StatsSnapshot { metrics, registry: registry.clone() },
        Default::default(),
    )
    .to_json();
    let result = json.get("result").expect("result object");
    assert!(result.get("workers").and_then(Value::as_u64).is_some());
    let wire_registry = result.get("registry").expect("registry object");
    for section in ["counters", "gauges", "histograms"] {
        assert!(wire_registry.get(section).is_some(), "missing `{section}`: {wire_registry}");
    }

    handle.shutdown();
}

#[test]
fn cli_stats_prints_the_registry_counters() {
    let handle = server(1);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let certain = Request::Certain {
        schema: "E/2".to_owned(),
        views: "V(x,z) :- E(x,y), E(y,z).".to_owned(),
        query: "Q(x,z) :- E(x,y), E(y,z).".to_owned(),
        extent: "V(A,B). V(B,C).".to_owned(),
    };
    let reply = client.call(Limits::none(), certain).expect("certain");
    assert!(matches!(reply.outcome, Outcome::CertainAnswers { .. }), "{reply:?}");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_vqd-cli"))
        .args(["stats", "--addr", &handle.addr().to_string()])
        .output()
        .expect("run vqd-cli stats");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let registry = stdout
        .split("--- registry counters (server lifetime) ---")
        .nth(1)
        .unwrap_or_else(|| panic!("no registry heading in:\n{stdout}"));
    let line = |name: &str| {
        registry.lines().find_map(|l| {
            let (n, v) = l.split_once(char::is_whitespace)?;
            (n == name).then(|| v.trim().to_owned())
        })
    };
    assert_eq!(line("certain.route.plan").as_deref(), Some("1"), "{stdout}");
    assert_eq!(line("certain.plan.compiles").as_deref(), Some("1"), "{stdout}");
    assert_eq!(line("op.certain_sound.requests"), None, "per-op counters stay out");
    assert!(stdout.contains("--- engine counters (server lifetime) ---"), "{stdout}");
    handle.shutdown();
}

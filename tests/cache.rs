//! Integration suite for the cross-request instance cache and the
//! session-oriented wire API (`put_instance` / handle extents /
//! `evict_instance` / `cache_stats`), plus span traces over the wire.
//!
//! The load-bearing claims, asserted end to end over TCP:
//!
//! * a handle request answers **byte-identically** to the same request
//!   with the extent inline (modulo the `work` envelope) — on the cache
//!   miss *and* on the hit;
//! * a repeat handle request reports `index_builds: 0`: the chased
//!   canonical database is reused, not rebuilt;
//! * handles are cache references, not leases: eviction (explicit or
//!   LRU) degrades to a typed `unknown-handle` error, never a wrong
//!   answer;
//! * the cache is shared across the worker pool, and per-request
//!   profiles stay per-request deltas on cached paths.

use serde::json::Value;
use std::time::Duration;
use vqd::server::{
    self, client, CacheConfig, Client, DiskConfig, ErrorKind, Limits, Outcome, Request, ServerCaps,
    ServerConfig,
};

fn server_with_caps(workers: usize, caps: ServerCaps) -> server::ServerHandle {
    server::spawn(ServerConfig { addr: "127.0.0.1:0".to_owned(), workers, queue_depth: 64, caps })
        .expect("spawn server")
}

fn server(workers: usize) -> server::ServerHandle {
    server_with_caps(workers, ServerCaps::default())
}

fn client(handle: &server::ServerHandle) -> Client {
    let c = Client::connect(handle.addr()).expect("connect");
    c.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    c
}

const SCHEMA: &str = "E/2";
const VIEWS: &str = "V(x,y) :- E(x,y).";
const QUERY: &str = "Q(x,z) :- E(x,y), E(y,z).";
const EXTENT: &str = "V(A,B). V(B,C). V(C,D).";

fn certain_inline() -> Request {
    Request::Certain {
        schema: SCHEMA.into(),
        views: VIEWS.into(),
        query: QUERY.into(),
        extent: EXTENT.into(),
    }
}

fn certain_by_handle(handle: &str) -> Request {
    Request::CertainHandle {
        schema: SCHEMA.into(),
        views: VIEWS.into(),
        query: QUERY.into(),
        handle: handle.into(),
    }
}

/// Serializes a response with the named top-level fields removed, for
/// "byte-identical modulo work" comparisons.
fn rendered_without(response: &server::Response, drop: &[&str]) -> String {
    match response.to_json() {
        Value::Obj(fields) => {
            Value::Obj(fields.into_iter().filter(|(k, _)| !drop.contains(&k.as_str())).collect())
                .to_string()
        }
        other => other.to_string(),
    }
}

#[test]
fn put_request_stats_evict_round_trip() {
    let srv = server(2);
    let mut c = client(&srv);
    let (handle, fingerprint) = c.put_instance("V/2", EXTENT).expect("put");
    assert!(handle.starts_with('h'), "handle {handle}");
    assert!(!fingerprint.is_empty());
    let reply = c.call(Limits::none(), certain_by_handle(&handle)).expect("request");
    match &reply.outcome {
        Outcome::CertainAnswers { count, answers } => {
            assert_eq!(*count, 2, "{answers}");
            assert!(answers.contains('A') && answers.contains('C'), "{answers}");
        }
        other => panic!("unexpected outcome {other:?}"),
    }
    match c.cache_stats().expect("cache_stats") {
        Outcome::CacheStatsSnapshot { puts, misses, entries, bytes, .. } => {
            assert_eq!(puts, 1);
            assert_eq!(misses, 1, "first handle request chases");
            assert!(entries >= 2, "handle + derived entry, got {entries}");
            assert!(bytes > 0);
        }
        other => panic!("unexpected cache stats {other:?}"),
    }
    assert!(c.evict_instance(&handle).expect("evict"), "handle existed");
    assert!(!c.evict_instance(&handle).expect("evict"), "second evict finds nothing");
    let reply = c.call(Limits::none(), certain_by_handle(&handle)).expect("request");
    assert!(client::is_error_kind(&reply, ErrorKind::UnknownHandle), "{reply:?}");
    srv.shutdown();
}

#[test]
fn repeat_handle_request_reports_zero_index_builds() {
    let srv = server(1);
    let mut c = client(&srv);
    let (handle, _) = c.put_instance("V/2", EXTENT).expect("put");
    let miss = c.call(Limits::none(), certain_by_handle(&handle)).expect("miss");
    assert!(miss.work.index_builds > 0, "the first request pays the chase's builds");
    let hit = c.call(Limits::none(), certain_by_handle(&handle)).expect("hit");
    assert_eq!(hit.work.index_builds, 0, "the repeat request must reuse the cached index");
    assert_eq!(miss.outcome, hit.outcome);
    srv.shutdown();
}

#[test]
fn handle_replies_are_byte_identical_to_inline_modulo_work() {
    let srv = server(1);
    let mut c = client(&srv);
    let (handle, _) = c.put_instance("V/2", EXTENT).expect("put");
    // Pin the correlation id so the whole reply line is comparable.
    let envelope = |request: &Request| {
        server::Envelope::new("pinned", Limits::none(), request.clone()).to_json().to_string()
    };
    let inline = c.call_raw(&envelope(&certain_inline())).expect("inline");
    let miss = c.call_raw(&envelope(&certain_by_handle(&handle))).expect("miss");
    let hit = c.call_raw(&envelope(&certain_by_handle(&handle))).expect("hit");
    let stripped = |r: &server::Response| rendered_without(r, &["work"]);
    assert_eq!(
        stripped(&inline),
        stripped(&miss),
        "handle (miss) reply must be byte-identical to inline modulo work"
    );
    assert_eq!(
        stripped(&miss),
        stripped(&hit),
        "cache hit reply must be byte-identical to the miss modulo work"
    );
    srv.shutdown();
}

#[test]
fn inline_extents_never_touch_the_cache() {
    let srv = server(1);
    let mut c = client(&srv);
    for _ in 0..3 {
        let reply = c.call(Limits::none(), certain_inline()).expect("inline");
        assert!(matches!(reply.outcome, Outcome::CertainAnswers { .. }));
    }
    match c.cache_stats().expect("cache_stats") {
        Outcome::CacheStatsSnapshot { hits, misses, puts, entries, .. } => {
            assert_eq!(
                (hits, misses, puts, entries),
                (0, 0, 0, 0),
                "inline requests must keep their per-request profile contract"
            );
        }
        other => panic!("unexpected cache stats {other:?}"),
    }
    srv.shutdown();
}

#[test]
fn lru_pressure_evicts_old_handles_into_typed_errors() {
    let caps = ServerCaps {
        cache: CacheConfig { shards: 1, max_entries: 2, max_bytes: u64::MAX, disk: None },
        ..ServerCaps::default()
    };
    let srv = server_with_caps(1, caps);
    let mut c = client(&srv);
    let (h1, _) = c.put_instance("V/2", "V(A,B).").expect("put 1");
    let (h2, _) = c.put_instance("V/2", "V(B,C).").expect("put 2");
    let (h3, _) = c.put_instance("V/2", "V(C,D).").expect("put 3");
    // Capacity 2: the oldest handle is gone, the newer two survive. A
    // request on the evicted handle is a typed error, not a wrong
    // answer, and does not disturb the cache (it fails before chasing).
    let reply = c.call(Limits::none(), certain_by_handle(&h1)).expect("evicted handle");
    assert!(client::is_error_kind(&reply, ErrorKind::UnknownHandle), "{reply:?}");
    // Probe survival via evict (a handle request would insert a derived
    // entry and shove the other handle out of the 2-slot cache).
    assert!(c.evict_instance(&h2).expect("probe h2"), "h2 must have survived");
    assert!(c.evict_instance(&h3).expect("probe h3"), "h3 must have survived");
    match c.cache_stats().expect("cache_stats") {
        Outcome::CacheStatsSnapshot { evictions, max_entries, .. } => {
            assert!(evictions >= 1, "got {evictions}");
            assert_eq!(max_entries, 2);
        }
        other => panic!("unexpected cache stats {other:?}"),
    }
    srv.shutdown();
}

#[test]
fn handles_are_shared_across_the_worker_pool() {
    let srv = server(4);
    let mut c = client(&srv);
    let (handle, _) = c.put_instance("V/2", EXTENT).expect("put");
    let baseline = c.call(Limits::none(), certain_by_handle(&handle)).expect("first");
    // Sequential requests land on whichever worker is free; every one
    // must resolve the handle and agree on the answer.
    for _ in 0..12 {
        let reply = c.call(Limits::none(), certain_by_handle(&handle)).expect("repeat");
        assert_eq!(reply.outcome, baseline.outcome);
    }
    match c.cache_stats().expect("cache_stats") {
        Outcome::CacheStatsSnapshot { hits, misses, .. } => {
            assert_eq!(misses, 1, "only the first request chases");
            assert_eq!(hits, 12);
        }
        other => panic!("unexpected cache stats {other:?}"),
    }
    srv.shutdown();
}

#[test]
fn cached_requests_keep_per_request_profile_deltas() {
    let srv = server(1);
    let mut c = client(&srv);
    let (handle, _) = c.put_instance("V/2", EXTENT).expect("put");
    // Warm the derived entry, then profile two identical hits: were the
    // worker leaking cumulative totals, the second would report more.
    let _ = c.call(Limits::none(), certain_by_handle(&handle)).expect("warm");
    let first = c.call_profiled(Limits::none(), certain_by_handle(&handle)).expect("hit 1");
    let second = c.call_profiled(Limits::none(), certain_by_handle(&handle)).expect("hit 2");
    assert_eq!(first.outcome, second.outcome);
    let p1 = first.profile.expect("profile requested");
    let p2 = second.profile.expect("profile requested");
    assert_eq!(p1, p2, "identical cached requests must report identical profiles");
    assert_eq!(p1.get(vqd::obs::Metric::IndexBuilds), 0);
    srv.shutdown();
}

#[test]
fn poisoned_shards_recover_under_concurrent_put_evict_spill_churn() {
    // Persistent tier on, so the churn exercises put + evict + spill
    // concurrently while we poison shard locks mid-run.
    let dir = std::env::temp_dir().join(format!("vqd-cache-poison-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let caps = ServerCaps {
        cache: CacheConfig {
            shards: 2,
            max_entries: 16,
            max_bytes: u64::MAX,
            disk: Some(DiskConfig::at(dir.clone())),
        },
        ..ServerCaps::default()
    };
    let srv = server_with_caps(2, caps);
    let addr = srv.addr();
    let workers: Vec<_> = (0..4)
        .map(|t| {
            std::thread::spawn(move || -> Result<(), String> {
                let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
                c.set_read_timeout(Some(Duration::from_secs(30)))
                    .map_err(|e| format!("timeout: {e}"))?;
                for i in 0..8 {
                    let extent = format!("V(A{t}x{i},B). V(B,C{t}x{i}).");
                    let (h, _) =
                        c.put_instance("V/2", &*extent).map_err(|e| format!("put: {e}"))?;
                    let reply = c
                        .call(Limits::none(), certain_by_handle(&h))
                        .map_err(|e| format!("request: {e}"))?;
                    // Under LRU churn the handle may already be evicted;
                    // that degrades to a typed error, never a transport
                    // failure or a wrong answer.
                    match &reply.outcome {
                        Outcome::CertainAnswers { .. } => {}
                        Outcome::Error { kind: ErrorKind::UnknownHandle, .. } => {}
                        other => return Err(format!("unexpected outcome {other:?}")),
                    }
                    let _ = c.evict_instance(&h);
                }
                Ok(())
            })
        })
        .collect();
    // Poison every shard (distinct keys land on both of the two shards)
    // while the churn is in flight: subsequent operations must recover
    // the locks instead of wedging or erroring.
    std::thread::sleep(Duration::from_millis(20));
    for key in ["a", "b", "c", "d"] {
        srv.cache().poison_shard_for_tests(key);
    }
    for w in workers {
        w.join().expect("churn thread must not panic").expect("churn op failed");
    }
    let mut c = client(&srv);
    let (h, _) = c.put_instance("V/2", EXTENT).expect("post-poison put");
    let reply = c.call(Limits::none(), certain_by_handle(&h)).expect("post-poison request");
    match &reply.outcome {
        Outcome::CertainAnswers { count, .. } => assert_eq!(*count, 2),
        other => panic!("unexpected outcome {other:?}"),
    }
    match c.cache_stats().expect("cache_stats") {
        Outcome::CacheStatsSnapshot { puts, disk_spills, .. } => {
            assert!(puts >= 33, "all churn puts must be counted, got {puts}");
            assert!(disk_spills >= 1, "derived entries must have spilled");
        }
        other => panic!("unexpected cache stats {other:?}"),
    }
    srv.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn traced_requests_return_span_jsonl_untraced_do_not() {
    let srv = server(2);
    let mut c = client(&srv);
    let plain = c.call(Limits::none(), certain_inline()).expect("untraced");
    assert!(plain.trace.is_none(), "traces are strictly opt-in");
    assert!(plain.to_json().get("trace").is_none(), "no trace key on the wire");
    let traced = c.call_traced(Limits::none(), certain_inline()).expect("traced");
    assert_eq!(plain.outcome, traced.outcome, "tracing must not change the verdict");
    let jsonl = traced.trace.expect("trace requested");
    let mut saw_plan = false;
    for line in jsonl.lines() {
        let v = serde::json::parse(line).expect("each trace line is a JSON span event");
        let name = v.get("name").and_then(Value::as_str).unwrap_or_default();
        saw_plan |= name == "certain.plan.eval";
    }
    assert!(saw_plan, "an inline certain_sound request with a plan shows its route's span");
    // The next untraced request on the same (possibly same-worker)
    // connection must not inherit the trace flag or stale spans.
    let after = c.call(Limits::none(), certain_inline()).expect("untraced again");
    assert!(after.trace.is_none());
    srv.shutdown();
}

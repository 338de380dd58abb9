//! Integration suite for the crash-safe persistent cache tier.
//!
//! The load-bearing claims, asserted end to end over TCP against real
//! segment files on disk:
//!
//! * a killed-and-restarted server answers its first handle request
//!   **byte-identically** (modulo the `work` envelope) with
//!   `index_builds: 0` — the chased canonical database came back from
//!   disk, not from a re-chase;
//! * the handle table and the handle counter survive restarts: old
//!   handles keep answering and new handles never collide — including
//!   handles acknowledged to many clients putting concurrently;
//! * a RAM-budget-starved restart leaves entries disk-only and the
//!   first request **promotes** them (an honestly-charged cheaper miss);
//! * every injected fault class — short write, read error, torn tail,
//!   bit flip, plus byte-level corruption of the segment itself —
//!   degrades to a *counted clean miss*: answers stay correct, nothing
//!   panics, a counter moves;
//! * the `cache_stats` wire reply carries the disk counters additively:
//!   replies without the `disk_*` keys still decode (as zeros).

use serde::json::Value;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;
use vqd::server::{
    self, CacheConfig, Client, DiskConfig, DiskFault, Limits, Outcome, Request, Response,
    ServerCaps, ServerConfig,
};

const SCHEMA: &str = "E/2";
const VIEWS: &str = "V(x,y) :- E(x,y).";
const QUERY: &str = "Q(x,z) :- E(x,y), E(y,z).";
const EXTENT: &str = "V(A,B). V(B,C). V(C,D).";
const EXTENT_2: &str = "V(P,Q). V(Q,R).";

/// A fresh per-test scratch directory; removed on drop so reruns start
/// clean even after a failed assertion.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new() -> TempDir {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "vqd-persist-test-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn persistent_caps(dir: &std::path::Path) -> ServerCaps {
    ServerCaps {
        cache: CacheConfig {
            disk: Some(DiskConfig::at(dir.to_path_buf())),
            ..CacheConfig::default()
        },
        ..ServerCaps::default()
    }
}

fn spawn_with(caps: ServerCaps) -> server::ServerHandle {
    server::spawn(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_depth: 64,
        caps,
    })
    .expect("spawn server")
}

fn client(handle: &server::ServerHandle) -> Client {
    let c = Client::connect(handle.addr()).expect("connect");
    c.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    c
}

fn certain_by_handle(handle: &str) -> Request {
    Request::CertainHandle {
        schema: SCHEMA.into(),
        views: VIEWS.into(),
        query: QUERY.into(),
        handle: handle.into(),
    }
}

/// A wire line with a pinned correlation id, so whole replies compare.
fn pinned(request: &Request) -> String {
    server::Envelope::new("pinned", Limits::none(), request.clone()).to_json().to_string()
}

/// Serializes a response with the named top-level fields removed, for
/// "byte-identical modulo work" comparisons.
fn rendered_without(response: &Response, drop: &[&str]) -> String {
    match response.to_json() {
        Value::Obj(fields) => {
            Value::Obj(fields.into_iter().filter(|(k, _)| !drop.contains(&k.as_str())).collect())
                .to_string()
        }
        other => other.to_string(),
    }
}

fn disk_counters(srv: &server::ServerHandle) -> vqd::server::DiskCounters {
    srv.cache().disk().expect("tier configured").counters()
}

#[test]
fn restart_answers_byte_identically_with_zero_index_builds() {
    let dir = TempDir::new();

    // First life: register the extent and pay the chase.
    let srv = spawn_with(persistent_caps(dir.path()));
    let mut c = client(&srv);
    let (handle, fingerprint) = c.put_instance("V/2", EXTENT).expect("put");
    let miss = c.call_raw(&pinned(&certain_by_handle(&handle))).expect("miss");
    assert!(matches!(miss.outcome, Outcome::CertainAnswers { .. }), "{miss:?}");
    assert!(miss.work.index_builds > 0, "the first request pays the chase's builds");
    let baseline = rendered_without(&miss, &["work"]);
    assert!(disk_counters(&srv).spills >= 1, "the derived entry spilled at insert");
    srv.shutdown();

    // Second life, same directory: the very first request must be a
    // warm hit — byte-identical answer, zero index builds.
    let srv = spawn_with(persistent_caps(dir.path()));
    let mut c = client(&srv);
    let first = c.call_raw(&pinned(&certain_by_handle(&handle))).expect("warm request");
    assert_eq!(
        first.work.index_builds, 0,
        "a restarted server must answer its first handle request from disk"
    );
    assert_eq!(
        rendered_without(&first, &["work"]),
        baseline,
        "the post-restart reply must be byte-identical modulo work"
    );
    // The fingerprint survives too: re-putting the same extent
    // deduplicates to the same fingerprint.
    let (_, fp2) = c.put_instance("V/2", EXTENT).expect("re-put");
    assert_eq!(fp2, fingerprint);
    srv.shutdown();
}

#[test]
fn handle_table_and_counter_survive_restart_without_collisions() {
    let dir = TempDir::new();

    let srv = spawn_with(persistent_caps(dir.path()));
    let mut c = client(&srv);
    let (h1, _) = c.put_instance("V/2", EXTENT).expect("put 1");
    let (h2, _) = c.put_instance("V/2", EXTENT_2).expect("put 2");
    assert_ne!(h1, h2);
    srv.shutdown();

    let srv = spawn_with(persistent_caps(dir.path()));
    let mut c = client(&srv);
    // Old handles answer; a new put mints a fresh, non-colliding handle.
    let r1 = c.call(Limits::none(), certain_by_handle(&h1)).expect("h1");
    assert!(matches!(r1.outcome, Outcome::CertainAnswers { count: 2, .. }), "{r1:?}");
    let r2 = c.call(Limits::none(), certain_by_handle(&h2)).expect("h2");
    assert!(matches!(r2.outcome, Outcome::CertainAnswers { count: 1, .. }), "{r2:?}");
    let (h3, _) = c.put_instance("V/2", "V(X,Y).").expect("put 3");
    assert_ne!(h3, h1, "restored next_handle must not recycle live names");
    assert_ne!(h3, h2);
    srv.shutdown();
}

#[test]
fn starved_restart_promotes_disk_only_entries_on_demand() {
    let dir = TempDir::new();

    let srv = spawn_with(persistent_caps(dir.path()));
    let mut c = client(&srv);
    let (h1, _) = c.put_instance("V/2", EXTENT).expect("put 1");
    let (h2, _) = c.put_instance("V/2", EXTENT_2).expect("put 2");
    for h in [&h1, &h2] {
        let r = c.call(Limits::none(), certain_by_handle(h)).expect("chase");
        assert!(matches!(r.outcome, Outcome::CertainAnswers { .. }), "{r:?}");
    }
    srv.shutdown();

    // Restart with only room for the two handles: both derived indexes
    // stay disk-only, so the first request on each must promote.
    let caps = ServerCaps {
        cache: CacheConfig {
            shards: 1,
            max_entries: 2,
            max_bytes: u64::MAX,
            disk: Some(DiskConfig::at(dir.path().to_path_buf())),
        },
        ..ServerCaps::default()
    };
    let srv = spawn_with(caps);
    let mut c = client(&srv);
    let before = disk_counters(&srv);
    let r = c.call(Limits::none(), certain_by_handle(&h1)).expect("promote");
    assert!(matches!(r.outcome, Outcome::CertainAnswers { count: 2, .. }), "{r:?}");
    let after = disk_counters(&srv);
    assert!(after.promotions > before.promotions, "the hit must be served from disk");
    assert!(
        r.work.index_builds > 0,
        "a promotion rebuilds the in-RAM index and must charge the requester"
    );
    // Now it is in RAM: the repeat is a plain hit with no index builds.
    let again = c.call(Limits::none(), certain_by_handle(&h1)).expect("hit");
    assert_eq!(again.work.index_builds, 0);
    assert_eq!(r.outcome, again.outcome);
    srv.shutdown();
}

#[test]
fn short_write_fault_degrades_the_spill_never_the_answer() {
    let dir = TempDir::new();
    let srv = spawn_with(persistent_caps(dir.path()));
    let mut c = client(&srv);
    let tier = srv.cache().disk().expect("tier").clone();

    tier.arm_fault(DiskFault::ShortWrite, 1);
    let (h, _) = c.put_instance("V/2", EXTENT).expect("put");
    let r = c.call(Limits::none(), certain_by_handle(&h)).expect("request");
    assert!(matches!(r.outcome, Outcome::CertainAnswers { count: 2, .. }), "{r:?}");
    assert!(tier.counters().io_errors >= 1, "the failed spill must be counted");
    // The RAM copy is untouched; repeats still answer and still report
    // a cache hit.
    let again = c.call(Limits::none(), certain_by_handle(&h)).expect("repeat");
    assert_eq!(again.outcome, r.outcome);
    assert_eq!(again.work.index_builds, 0);
    srv.shutdown();
}

#[test]
fn read_error_and_bit_flip_are_counted_clean_misses() {
    let dir = TempDir::new();
    let srv = spawn_with(persistent_caps(dir.path()));
    let mut c = client(&srv);
    let tier = srv.cache().disk().expect("tier").clone();

    for (h, extent) in [("a", EXTENT), ("b", EXTENT_2)] {
        let (h, _) = c.put_instance("V/2", extent).unwrap_or_else(|e| panic!("put {h}: {e}"));
        let r = c.call(Limits::none(), certain_by_handle(&h)).expect("chase");
        assert!(matches!(r.outcome, Outcome::CertainAnswers { .. }), "{r:?}");
    }
    let keys = tier.keys_newest_first();
    assert_eq!(keys.len(), 2, "both derived entries spilled: {keys:?}");

    let before = tier.counters();
    tier.arm_fault(DiskFault::ReadError, 1);
    assert!(tier.load(&keys[0]).is_none(), "a failing read must be a miss, not data");
    let mid = tier.counters();
    assert_eq!(mid.io_errors, before.io_errors + 1);
    assert_eq!(mid.misses, before.misses + 1);

    tier.arm_fault(DiskFault::BitFlip, 1);
    assert!(tier.load(&keys[1]).is_none(), "a flipped bit must fail the checksum");
    let after = tier.counters();
    assert_eq!(after.corrupt_dropped, mid.corrupt_dropped + 1);
    assert_eq!(after.misses, mid.misses + 1);

    // The server never saw any of this as an error: wire requests on
    // the (still RAM-resident) handles keep answering.
    let ping = c.ping().expect("ping");
    assert!(ping);
    srv.shutdown();
}

#[test]
fn torn_tail_after_crash_is_dropped_and_rechased() {
    let dir = TempDir::new();

    let srv = spawn_with(persistent_caps(dir.path()));
    let mut c = client(&srv);
    let (h, _) = c.put_instance("V/2", EXTENT).expect("put");
    let baseline = c.call_raw(&pinned(&certain_by_handle(&h))).expect("chase");
    let segment = srv.cache().disk().expect("tier").segment_path();
    srv.shutdown();

    // Simulate a crash mid-append: chop bytes off the segment so the
    // last record's frame runs past end-of-file.
    let len = std::fs::metadata(&segment).expect("segment exists").len();
    assert!(len > 8, "segment should hold a record, got {len} bytes");
    std::fs::OpenOptions::new()
        .write(true)
        .open(&segment)
        .and_then(|f| f.set_len(len - 5))
        .expect("truncate segment");

    let srv = spawn_with(persistent_caps(dir.path()));
    let mut c = client(&srv);
    let r = c.call_raw(&pinned(&certain_by_handle(&h))).expect("re-chase");
    assert!(r.work.index_builds > 0, "the torn record must be dropped, forcing a fresh chase");
    assert_eq!(
        rendered_without(&r, &["work"]),
        rendered_without(&baseline, &["work"]),
        "a re-chase after corruption must still answer byte-identically"
    );
    srv.shutdown();
}

#[test]
fn corrupt_segment_byte_starts_clean_and_rechases() {
    let dir = TempDir::new();

    let srv = spawn_with(persistent_caps(dir.path()));
    let mut c = client(&srv);
    let (h, _) = c.put_instance("V/2", EXTENT).expect("put");
    let baseline = c.call_raw(&pinned(&certain_by_handle(&h))).expect("chase");
    let segment = srv.cache().disk().expect("tier").segment_path();
    srv.shutdown();

    // Flip one payload byte in place (offset 20 is inside the first
    // record's body; the frame header is 16 bytes).
    let mut bytes = std::fs::read(&segment).expect("read segment");
    assert!(bytes.len() > 21, "segment too small: {} bytes", bytes.len());
    bytes[20] ^= 0x40;
    std::fs::write(&segment, &bytes).expect("write corrupted segment");

    let srv = spawn_with(persistent_caps(dir.path()));
    let mut c = client(&srv);
    assert!(
        disk_counters(&srv).corrupt_dropped >= 1,
        "the startup scan must count the corrupt record"
    );
    let r = c.call_raw(&pinned(&certain_by_handle(&h))).expect("re-chase");
    assert!(r.work.index_builds > 0, "the corrupt record must not be served");
    assert_eq!(
        rendered_without(&r, &["work"]),
        rendered_without(&baseline, &["work"]),
        "corruption degrades to a clean miss, never a wrong answer"
    );
    srv.shutdown();
}

#[test]
fn corrupt_handle_snapshot_degrades_to_a_cold_start() {
    let dir = TempDir::new();

    let srv = spawn_with(persistent_caps(dir.path()));
    let mut c = client(&srv);
    let (h, _) = c.put_instance("V/2", EXTENT).expect("put");
    let snapshot = srv.cache().disk().expect("tier").handles_path();
    srv.shutdown();

    let mut bytes = std::fs::read(&snapshot).expect("read snapshot");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&snapshot, &bytes).expect("write corrupted snapshot");

    // The server must come up (cold), and the stale handle must fail
    // with a typed error — never a crash, never a wrong answer.
    let srv = spawn_with(persistent_caps(dir.path()));
    let mut c = client(&srv);
    let r = c.call(Limits::none(), certain_by_handle(&h)).expect("stale handle");
    assert!(vqd::server::client::is_error_kind(&r, vqd::server::ErrorKind::UnknownHandle), "{r:?}");
    let (h2, _) = c.put_instance("V/2", EXTENT).expect("fresh put");
    let r2 = c.call(Limits::none(), certain_by_handle(&h2)).expect("fresh request");
    assert!(matches!(r2.outcome, Outcome::CertainAnswers { count: 2, .. }), "{r2:?}");
    srv.shutdown();
}

/// Recursively strips every `disk_*` key, simulating a reply from a
/// server built before the disk tier existed.
fn strip_disk_keys(value: Value) -> Value {
    match value {
        Value::Obj(fields) => Value::Obj(
            fields
                .into_iter()
                .filter(|(k, _)| !k.starts_with("disk_"))
                .map(|(k, v)| (k, strip_disk_keys(v)))
                .collect(),
        ),
        Value::Arr(items) => Value::Arr(items.into_iter().map(strip_disk_keys).collect()),
        other => other,
    }
}

#[test]
fn cache_stats_disk_fields_are_additive_on_the_wire() {
    let dir = TempDir::new();
    let srv = spawn_with(persistent_caps(dir.path()));
    let mut c = client(&srv);
    let (h, _) = c.put_instance("V/2", EXTENT).expect("put");
    let _ = c.call(Limits::none(), certain_by_handle(&h)).expect("chase");

    let reply = c.call_raw(&pinned(&Request::CacheStats)).expect("cache_stats");
    let Outcome::CacheStatsSnapshot { disk_spills, disk_bytes, .. } = reply.outcome else {
        panic!("unexpected outcome {:?}", reply.outcome)
    };
    assert!(disk_spills >= 1, "the spill must show up over the wire");
    assert!(disk_bytes > 0);

    // An old server's reply — same line minus every disk_* key — must
    // still decode, with the disk counters reading zero.
    let stripped = strip_disk_keys(reply.to_json()).to_string();
    let old = Response::from_line(&stripped).expect("absent disk keys must decode");
    match old.outcome {
        Outcome::CacheStatsSnapshot {
            disk_hits,
            disk_misses,
            disk_spills,
            disk_promotions,
            disk_corrupt_dropped,
            disk_io_errors,
            disk_bytes,
            entries,
            ..
        } => {
            assert_eq!(
                (
                    disk_hits,
                    disk_misses,
                    disk_spills,
                    disk_promotions,
                    disk_corrupt_dropped,
                    disk_io_errors,
                    disk_bytes
                ),
                (0, 0, 0, 0, 0, 0, 0),
                "absent keys decode as zero"
            );
            assert!(entries >= 1, "non-disk fields must survive the strip");
        }
        other => panic!("unexpected outcome {other:?}"),
    }
    srv.shutdown();
}

#[test]
fn concurrent_puts_keep_every_acknowledged_handle_across_restart() {
    const THREADS: usize = 8;
    const PUTS: usize = 16;
    let dir = TempDir::new();
    // Room for every handle, so LRU pressure never drops one.
    let caps = || {
        let mut caps = persistent_caps(dir.path());
        caps.cache.max_entries = 4 * THREADS * PUTS;
        caps
    };

    let srv = spawn_with(caps());
    let acknowledged: Vec<(String, String)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let srv = &srv;
                scope.spawn(move || {
                    let mut c = client(srv);
                    (0..PUTS)
                        .map(|i| {
                            // Distinct extents, so every handle has its
                            // own answer to compare after the restart.
                            let extent = format!("V(A{t},B{i}). V(B{i},C{t}). V(C{t},D{i}).");
                            let (handle, _) = c.put_instance("V/2", &extent).expect("put");
                            let reply =
                                c.call_raw(&pinned(&certain_by_handle(&handle))).expect("answer");
                            assert!(
                                matches!(reply.outcome, Outcome::CertainAnswers { .. }),
                                "{reply:?}"
                            );
                            (handle, rendered_without(&reply, &["work"]))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("put thread")).collect()
    });
    assert_eq!(acknowledged.len(), THREADS * PUTS);
    assert_eq!(
        disk_counters(&srv).io_errors,
        0,
        "concurrent handle snapshots must never race each other"
    );
    srv.shutdown();

    // Every acknowledged handle resolves after the restart and answers
    // byte-identically (modulo work).
    let srv = spawn_with(caps());
    let mut c = client(&srv);
    for (handle, before) in &acknowledged {
        let reply = c.call_raw(&pinned(&certain_by_handle(handle))).expect("post-restart");
        assert_eq!(&rendered_without(&reply, &["work"]), before, "handle {handle}");
    }
    assert_eq!(disk_counters(&srv).io_errors, 0);
    srv.shutdown();
}

//! Concurrent mixed load against one server with a persistent cache
//! tier: the serving layer's end-to-end health gates.
//!
//! Six client threads each send a seeded mix of determinacy decisions,
//! rewritings, inline and handle-based certain answers, bounded
//! containment, semantic scans and pings, generated with
//! `vqd_bench::genq`. Every client `put`s one shared extent and routes
//! part of its certain-answer traffic through the returned handle. The
//! cache holds fewer entries than there are clients, so handles are
//! evicted and re-put, and each eviction rewrites the on-disk handle
//! snapshot while the derived index spills to the segment.
//!
//! The run asserts:
//!
//! * every client thread joins, with no panic and no transport error;
//! * every reply is `ok`, `exhausted` or `overloaded` — never `error` —
//!   and at least one is `ok`;
//! * every pinned fragment probe (project-select, path, and a general
//!   pair) carries exactly the `fragment` attribution predicted for it;
//! * the disk tier counted no I/O error and spilled at least once, and
//!   no worker panicked.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;
use vqd::instance::Schema;
use vqd::server::{
    self, client::is_error_kind, CacheConfig, Client, DiskConfig, ErrorKind, Limits, Outcome,
    Request, ServerCaps, ServerConfig,
};
use vqd_bench::genq::{path_query, path_views, random_cq, CqGen};

const CLIENTS: usize = 6;
const REQUESTS: usize = 12;
const SEED: u64 = 7;
const DEADLINE_MS: u64 = 500;
/// Re-puts a client attempts for one handle request before an
/// `unknown-handle` reply counts as an error. A handle is a cache
/// reference, not a lease: under this test's tiny cache another
/// client's put can evict a fresh handle before the retry reaches it.
const MAX_REPUTS: usize = 8;

/// A fresh temporary directory for the disk tier, removed on drop.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new() -> TempDir {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "vqd-serve-load-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The extent every client registers: one fingerprint across the run,
/// so all handles share a single derived index.
fn shared_extent() -> String {
    (0..512).map(|i| format!("V(N{i},N{}). ", i + 1)).collect()
}

fn certain_by_handle(handle: &str) -> Request {
    Request::CertainHandle {
        schema: "E/2".to_owned(),
        views: "V(x,y) :- E(x,y).".to_owned(),
        query: "Q(x,z) :- E(x,y), E(y,z).".to_owned(),
        handle: handle.to_owned(),
    }
}

/// One seeded request over `E/2`, plus the router fragment the server
/// must attribute to it (`None` for requests that are not probes).
fn sample_request(
    rng: &mut StdRng,
    schema: &Schema,
    handle: &str,
) -> (Request, Option<&'static str>) {
    let schema_text = "E/2".to_owned();
    match rng.gen_range(0..15u32) {
        // Chain views and a chain query, determined (m = 2k) or not:
        // the router tags these `path` and keeps them on the chase.
        0..=2 => {
            let k = rng.gen_range(2..=3usize);
            let m = if rng.gen_range(0..2u32) == 0 { 2 * k } else { k + 1 };
            let req = Request::Decide {
                schema: schema_text,
                views: path_views(schema, k).as_view_set().to_string(),
                query: path_query(schema, m).render("Q"),
            };
            (req, Some("path"))
        }
        // Random small CQs: the fragment varies with the draw.
        3..=4 => {
            let p = CqGen { atoms: rng.gen_range(1..=3), vars: rng.gen_range(2..=4), max_head: 2 };
            let views = format!(
                "{}\n{}",
                random_cq(schema, p, rng).render("V0"),
                random_cq(schema, p, rng).render("V1"),
            );
            let req = Request::Rewrite {
                schema: schema_text,
                views,
                query: random_cq(schema, p, rng).render("Q"),
            };
            (req, None)
        }
        5 => {
            let req = Request::Certain {
                schema: schema_text,
                views: "V(x,y) :- E(x,y).".to_owned(),
                query: path_query(schema, 2).render("Q"),
                extent: "V(A,B). V(B,C). V(C,D).".to_owned(),
            };
            (req, None)
        }
        6..=8 => (certain_by_handle(handle), None),
        9 => {
            let k = rng.gen_range(2..=3usize);
            let req = Request::Containment {
                schema: schema_text,
                q1: path_query(schema, k + 1).render("Q"),
                q2: path_query(schema, k).render("Q"),
                max_domain: 2,
                space_limit: 1 << 12,
            };
            (req, None)
        }
        10 => {
            let req = Request::Semantic {
                schema: schema_text,
                views: path_views(schema, 2).as_view_set().to_string(),
                query: path_query(schema, 3).render("Q"),
                domain: 2,
                space_limit: 1 << 12,
            };
            (req, None)
        }
        // Single-atom views and query: the router's direct fast path.
        11..=12 => {
            let (views, query) = if rng.gen_range(0..2u32) == 0 {
                ("V(x,y) :- E(x,y).", "Q(y,x) :- E(x,y).")
            } else {
                ("W(x) :- E(x,x).", "Q(x,y) :- E(x,y).")
            };
            let req = Request::Decide {
                schema: schema_text,
                views: views.to_owned(),
                query: query.to_owned(),
            };
            (req, Some("project-select"))
        }
        // A two-atom cyclic view is neither single-atom nor a chain:
        // only the budgeted semi-decision applies.
        13 => {
            let req = Request::Decide {
                schema: schema_text,
                views: "V(x,y) :- E(x,y), E(y,x).".to_owned(),
                query: path_query(schema, 2).render("Q"),
            };
            (req, Some("undecidable-in-general"))
        }
        _ => (Request::Ping, None),
    }
}

#[derive(Default)]
struct Tally {
    ok: u64,
    exhausted: u64,
    overloaded: u64,
    errors: Vec<String>,
    mismatches: Vec<String>,
}

fn drive(addr: std::net::SocketAddr, seed: u64) -> Result<Tally, String> {
    let schema = Schema::parse("E/2").map_err(|e| e.to_string())?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    client.set_read_timeout(Some(Duration::from_secs(30))).map_err(|e| format!("timeout: {e}"))?;
    let extent = shared_extent();
    let (mut handle, _) = client.put_instance("V/2", &*extent).map_err(|e| format!("put: {e}"))?;
    let limits = Limits { deadline_ms: Some(DEADLINE_MS), ..Limits::none() };
    let mut tally = Tally::default();
    for _ in 0..REQUESTS {
        let (request, expected) = sample_request(&mut rng, &schema, &handle);
        let by_handle = matches!(request, Request::CertainHandle { .. });
        let label = format!("{request:?}");
        let mut response =
            client.call(limits.clone(), request).map_err(|e| format!("call: {e}"))?;
        let mut reputs = 0;
        while by_handle && reputs < MAX_REPUTS && is_error_kind(&response, ErrorKind::UnknownHandle)
        {
            (handle, _) =
                client.put_instance("V/2", &*extent).map_err(|e| format!("re-put: {e}"))?;
            reputs += 1;
            response = client
                .call(limits.clone(), certain_by_handle(&handle))
                .map_err(|e| format!("retry: {e}"))?;
        }
        if let Some(expected) = expected {
            if response.fragment.as_deref() != Some(expected) {
                tally.mismatches.push(format!(
                    "expected {expected}, reply says {:?}: {label}",
                    response.fragment
                ));
            }
        }
        match response.outcome {
            Outcome::Error { kind, message } => {
                tally.errors.push(format!("[{kind:?}] {message}: {label}"));
            }
            Outcome::Exhausted { .. } => tally.exhausted += 1,
            Outcome::Overloaded { .. } => tally.overloaded += 1,
            _ => tally.ok += 1,
        }
    }
    Ok(tally)
}

#[test]
fn concurrent_mixed_load_with_a_disk_tier_stays_healthy() {
    let dir = TempDir::new();
    let handle = server::spawn(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 4,
        queue_depth: 64,
        caps: ServerCaps {
            max_deadline: Duration::from_secs(5),
            io_threads: 2,
            // Fewer entries than clients, so handles are evicted.
            cache: CacheConfig {
                shards: 1,
                max_entries: 4,
                disk: Some(DiskConfig::at(dir.0.clone())),
                ..CacheConfig::default()
            },
            ..ServerCaps::default()
        },
    })
    .expect("spawn server");
    let addr = handle.addr();

    let threads: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let seed = SEED.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(i as u64);
            std::thread::spawn(move || drive(addr, seed))
        })
        .collect();
    let mut all = Tally::default();
    for (i, t) in threads.into_iter().enumerate() {
        let tally = t
            .join()
            .unwrap_or_else(|_| panic!("client {i} panicked"))
            .unwrap_or_else(|e| panic!("client {i} transport failure: {e}"));
        all.ok += tally.ok;
        all.exhausted += tally.exhausted;
        all.overloaded += tally.overloaded;
        all.errors.extend(tally.errors);
        all.mismatches.extend(tally.mismatches);
    }

    assert!(all.errors.is_empty(), "error replies under load: {:#?}", all.errors);
    assert!(all.mismatches.is_empty(), "fragment mismatches: {:#?}", all.mismatches);
    assert_eq!(
        all.ok + all.exhausted + all.overloaded,
        (CLIENTS * REQUESTS) as u64,
        "every request must be answered"
    );
    assert!(all.ok >= 1, "no request completed ok");

    let stats = Client::connect(addr).and_then(|mut c| c.cache_stats()).expect("cache_stats");
    let Outcome::CacheStatsSnapshot { disk_io_errors, disk_spills, evictions, .. } = stats else {
        panic!("unexpected cache_stats reply: {stats:?}")
    };
    assert_eq!(disk_io_errors, 0, "disk I/O errors without injected faults");
    assert!(disk_spills >= 1, "the run never spilled, so the disk gate proves nothing");
    assert!(evictions >= 1, "the cache never evicted under a 4-entry cap");
    assert_eq!(handle.registry().snapshot().counter("server.worker_panics"), 0);
    handle.shutdown();
}

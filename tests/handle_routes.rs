//! Every route a `certain_sound` request can take renders the same
//! `result`.
//!
//! A request by handle either misses the derived cache (parse the
//! extent, chase, cache the chase with the request's name table), hits
//! an entry with a table (render from the table, no extent parse), or
//! hits an entry without one (an older disk record: parse the extent,
//! skip the chase, attach the table). Each route must answer
//! byte-identically to the inline request, modulo the `work` envelope:
//!
//! * inline, handle miss, handle hit;
//! * a hit after a restart whose RAM budget leaves the entry on disk,
//!   so the first request promotes it (table included);
//! * a hit on a table-less record written with
//!   `disk::encode_derived_payload`, restored at startup.
//!
//! The cases include a query constant that also occurs in the extent
//! (`Q(x) :- E(N5,x).`): the query interns it before the extent does,
//! so the request's interning order differs from the extent-only order
//! the fingerprint is computed under.

use serde::json::Value;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;
use vqd::budget::Budget;
use vqd::chase::CqViews;
use vqd::core::certain::canonical_database_budgeted;
use vqd::instance::{DomainNames, Schema};
use vqd::query::{parse_instance, parse_program, parse_query, ViewSet};
use vqd::server::cache::derived_key;
use vqd::server::disk::fingerprint_digest;
use vqd::server::{
    self, CacheConfig, Client, DiskConfig, DiskTier, Limits, Outcome, Request, Response,
    ServerCaps, ServerConfig,
};

const SCHEMA: &str = "E/2";

/// `(views, query, extent)`. In the first case the extent lists `N5`
/// after other constants, so the query's `N5` gets a different id than
/// the extent-only interning gives it; the last has a head of arity 5
/// with a constant and two view relations.
const CASES: [(&str, &str, &str); 3] = [
    ("V(x,y) :- E(x,y).", "Q(x) :- E(N5,x).", "V(A,B). V(N5,C). V(B,N5). V(N5,A)."),
    ("V(x,y) :- E(x,z), E(z,y).", "Q(x,y) :- E(x,z), E(z,y).", "V(B,A). V(A,C). V(C,B)."),
    ("V(x) :- E(x,y).\nW(y) :- E(x,y).", "Q(x,y,x,N5,y) :- E(x,y), E(y,x).", "V(N5). V(A). W(A)."),
];

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new() -> TempDir {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "vqd-handle-routes-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn spawn(dir: &TempDir, max_entries: usize) -> server::ServerHandle {
    server::spawn(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_depth: 64,
        caps: ServerCaps {
            cache: CacheConfig {
                shards: 1,
                max_entries,
                max_bytes: u64::MAX,
                disk: Some(DiskConfig::at(dir.0.clone())),
            },
            ..ServerCaps::default()
        },
    })
    .expect("spawn server")
}

fn client(handle: &server::ServerHandle) -> Client {
    let c = Client::connect(handle.addr()).expect("connect");
    c.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    c
}

fn inline((views, query, extent): (&str, &str, &str)) -> Request {
    Request::Certain {
        schema: SCHEMA.into(),
        views: views.into(),
        query: query.into(),
        extent: extent.into(),
    }
}

fn by_handle((views, query, _): (&str, &str, &str), handle: &str) -> Request {
    Request::CertainHandle {
        schema: SCHEMA.into(),
        views: views.into(),
        query: query.into(),
        handle: handle.into(),
    }
}

/// Sends `request` under a pinned correlation id so whole replies compare.
fn send(c: &mut Client, request: &Request) -> Response {
    let line = server::Envelope::new("pinned", Limits::none(), request.clone()).to_json();
    let reply = c.call_raw(&line.to_string()).expect("reply");
    assert!(matches!(reply.outcome, Outcome::CertainAnswers { .. }), "{reply:?}");
    reply
}

/// The reply without its `work` envelope.
fn result(reply: &Response) -> String {
    match reply.to_json() {
        Value::Obj(fields) => {
            Value::Obj(fields.into_iter().filter(|(k, _)| k != "work").collect()).to_string()
        }
        other => other.to_string(),
    }
}

fn hits_and_misses(c: &mut Client) -> (u64, u64) {
    match c.cache_stats().expect("cache_stats") {
        Outcome::CacheStatsSnapshot { hits, misses, .. } => (hits, misses),
        other => panic!("unexpected {other:?}"),
    }
}

/// The extent's output schema is the views' one, so put it under that.
fn put_schema(views: &str) -> String {
    let mut names = DomainNames::new();
    let prog = parse_program(&Schema::parse(SCHEMA).unwrap(), &mut names, views).unwrap();
    let vs = ViewSet::new(&Schema::parse(SCHEMA).unwrap(), prog.defs);
    vs.output_schema()
        .iter()
        .map(|(_, d)| format!("{}/{}", d.name, d.arity))
        .collect::<Vec<_>>()
        .join(",")
}

#[test]
fn miss_hit_and_promotion_render_like_inline() {
    for case in CASES {
        let dir = TempDir::new();
        let srv = spawn(&dir, 128);
        let mut c = client(&srv);
        let want = result(&send(&mut c, &inline(case)));
        let (handle, fingerprint) = c.put_instance(put_schema(case.0), case.2).expect("put");

        let miss = send(&mut c, &by_handle(case, &handle));
        assert_eq!(result(&miss), want, "miss: {case:?}");
        assert!(miss.work.index_builds > 0, "a miss chases");
        assert_eq!(hits_and_misses(&mut c), (0, 1));

        let hit = send(&mut c, &by_handle(case, &handle));
        assert_eq!(result(&hit), want, "hit: {case:?}");
        assert_eq!(hit.work.index_builds, 0, "a hit reuses the chase");
        assert_eq!(hits_and_misses(&mut c), (1, 1));
        srv.shutdown();

        // Room for the handle only: the derived entry stays on disk and
        // the first request promotes it, name table included.
        let srv = spawn(&dir, 1);
        let mut c = client(&srv);
        let promoted = send(&mut c, &by_handle(case, &handle));
        assert_eq!(result(&promoted), want, "promoted: {case:?}");
        assert_eq!(hits_and_misses(&mut c), (0, 1), "a promotion is a RAM miss");
        let disk = srv.cache().disk().expect("tier").counters();
        assert_eq!((disk.promotions, disk.io_errors), (1, 0));
        let key = derived_key(SCHEMA, case.0, case.1, &fingerprint);
        let entry = srv.cache().get_derived(&key).expect("promoted entry");
        assert!(entry.names.is_some(), "the table came back from disk");
        srv.shutdown();
    }
}

#[test]
fn a_record_without_a_name_table_still_answers_and_gains_one() {
    for case in CASES {
        let (views, query, extent) = case;
        let dir = TempDir::new();
        let srv = spawn(&dir, 128);
        let mut c = client(&srv);
        let want = result(&send(&mut c, &inline(case)));
        let (handle, fingerprint) = c.put_instance(put_schema(views), extent).expect("put");
        srv.shutdown();

        // Chase the extent the way a request does and persist it in the
        // record format that predates name tables.
        let schema = Schema::parse(SCHEMA).unwrap();
        let mut names = DomainNames::new();
        let prog = parse_program(&schema, &mut names, views).unwrap();
        let cq_views = CqViews::try_new(ViewSet::new(&schema, prog.defs)).unwrap();
        parse_query(&schema, &mut names, query).unwrap();
        let parsed =
            parse_instance(cq_views.as_view_set().output_schema(), &mut names, extent).unwrap();
        let chased = canonical_database_budgeted(&cq_views, &parsed, &Budget::unlimited()).unwrap();
        let key = derived_key(SCHEMA, views, query, &fingerprint);
        {
            let tier = DiskTier::open(DiskConfig::at(dir.0.clone()), Default::default());
            tier.spill_with_digest(&key, &chased, fingerprint_digest(&chased));
        }

        let srv = spawn(&dir, 128);
        assert!(srv.cache().disk().unwrap().counters().hits >= 1, "warm restore loads the record");
        let mut c = client(&srv);
        let first = send(&mut c, &by_handle(case, &handle));
        assert_eq!(result(&first), want, "table-less hit: {case:?}");
        assert_eq!(first.work.index_builds, 0, "a table-less hit skips the chase");
        assert_eq!(hits_and_misses(&mut c), (1, 0));
        let second = send(&mut c, &by_handle(case, &handle));
        assert_eq!(result(&second), want, "hit after the table attached: {case:?}");
        assert_eq!(second.work.index_builds, 0);
        assert_eq!(hits_and_misses(&mut c), (2, 0));
        let entry = srv.cache().get_derived(&key).expect("entry");
        assert!(entry.names.is_some(), "the first hit attached the table");
        assert_eq!(srv.cache().stats().disk_io_errors, 0);
        srv.shutdown();
    }
}

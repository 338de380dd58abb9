//! The server's levels agree with each other after concurrent churn.
//!
//! Connections open and close from several threads while other clients
//! put, query and evict cache handles. Once the traffic stops, one
//! `stats` reply must report the same open-connection count in the
//! `server.conns_open` gauge, its `server.connections_open` copy and the
//! flat `connections_open` field, equal to the connections still open;
//! the write-queue gauge must be back at zero; and the cache gauges must
//! equal what `cache_stats` reports.

use std::time::{Duration, Instant};
use vqd::server::{self, CacheConfig, Client, Limits, Outcome, Request, ServerCaps, ServerConfig};

const SCHEMA: &str = "E/2";
const VIEWS: &str = "V(x,y) :- E(x,z), E(z,y).";
const QUERY: &str = "Q(x,y) :- E(x,z), E(z,y).";

fn connect(handle: &server::ServerHandle) -> Client {
    let c = Client::connect(handle.addr()).expect("connect");
    c.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    c
}

/// Puts an extent, queries it by handle, and evicts every other one,
/// on a cache small enough that puts also evict by LRU pressure.
fn cache_churn(handle: &server::ServerHandle, seed: usize) {
    let mut c = connect(handle);
    for i in 0..12 {
        let extent = format!("V(A{seed},B{i}). V(B{i},C{i}).");
        let (h, _) = c.put_instance("V/2", extent).expect("put");
        let query = Request::CertainHandle {
            schema: SCHEMA.to_owned(),
            views: VIEWS.to_owned(),
            query: QUERY.to_owned(),
            handle: h.clone(),
        };
        let reply = c.call(Limits::none(), query).expect("certain by handle");
        assert!(!matches!(reply.outcome, Outcome::Error { .. }), "{reply:?}");
        if i % 2 == 0 {
            c.evict_instance(h).expect("evict");
        }
    }
}

#[test]
fn gauges_agree_after_concurrent_connection_and_cache_churn() {
    let caps = ServerCaps {
        io_threads: 2,
        cache: CacheConfig { shards: 2, max_entries: 8, ..CacheConfig::default() },
        ..ServerCaps::default()
    };
    let handle = server::spawn(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_depth: 64,
        caps,
    })
    .expect("spawn server");

    std::thread::scope(|scope| {
        // 4 × 16 = 64 connections opened and closed; every other one
        // round-trips a ping first, the rest close without a request.
        for _ in 0..4 {
            scope.spawn(|| {
                for i in 0..16 {
                    let mut c = connect(&handle);
                    if i % 2 == 0 {
                        assert!(c.ping().expect("ping"));
                    }
                }
            });
        }
        for seed in 0..2 {
            let handle = &handle;
            scope.spawn(move || cache_churn(handle, seed));
        }
    });

    // Three held connections plus the one asking for stats.
    let mut held: Vec<Client> = (0..3).map(|_| connect(&handle)).collect();
    for c in &mut held {
        assert!(c.ping().expect("ping"));
    }
    let mut client = connect(&handle);
    let open = held.len() as u64 + 1;
    // Closes are observed by the event loops asynchronously; wait for
    // the gauge to settle before comparing the three readings.
    let deadline = Instant::now() + Duration::from_secs(10);
    let (metrics, registry) = loop {
        let (metrics, registry) = client.stats_full().expect("stats");
        if registry.gauge("server.conns_open") == open || Instant::now() >= deadline {
            break (metrics, registry);
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(
        (
            registry.gauge("server.conns_open"),
            registry.gauge("server.connections_open"),
            metrics.connections_open,
        ),
        (open, open, open),
        "conns_open, connections_open, flat connections_open",
    );
    // The 64 churned, the two cache clients', and the open ones.
    assert_eq!(metrics.connections_total, 64 + 2 + open);
    assert_eq!(registry.gauge("server.writeq_bytes"), 0);

    match client.cache_stats().expect("cache_stats") {
        Outcome::CacheStatsSnapshot { entries, bytes, evictions, .. } => {
            assert_eq!(registry.gauge("cache.entries"), entries);
            assert_eq!(registry.gauge("cache.bytes"), bytes);
            assert!(evictions > 0, "the churn must evict");
        }
        other => panic!("expected cache stats, got {other:?}"),
    }
    drop(held);
    handle.shutdown();
}

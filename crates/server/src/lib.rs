//! `vqd-server`: a budget-governed determinacy/rewriting service.
//!
//! This crate turns the workspace's effective procedures — unrestricted
//! CQ determinacy via the chase test (Theorem 3.7), canonical rewriting
//! extraction, certain-answer evaluation under sound views, bounded
//! containment, and the finite/semantic searches — into a long-running
//! TCP service with production-shaped resource governance:
//!
//! * **wire protocol** ([`proto`]): newline-delimited JSON envelopes
//!   with a version tag, correlation ids, client-requested limits, and
//!   a structured error taxonomy;
//! * **readiness-driven I/O** ([`netpoll`], [`server`]): a small fixed
//!   set of event-loop threads multiplexes every connection over
//!   non-blocking sockets via level-triggered `poll(2)` — idle
//!   connections consume zero CPU, and pipelined requests on one
//!   connection are answered strictly in request order;
//! * **admission control** (the worker pool): a bounded request queue;
//!   a full queue rejects instantly with `overloaded` instead of buffering;
//!   two more backpressure tiers (per-connection in-flight caps and a
//!   global connection limit) degrade the same way;
//! * **budget clamping** ([`server`]): every request runs under
//!   `min(client limits, server caps)` via [`vqd_budget::Budget::min_of`],
//!   degrading to structured `exhausted` replies with partial progress;
//! * **graceful shutdown**: a shared [`vqd_budget::CancelToken`] drains
//!   in-flight work (canceled budgets report what was done) and joins
//!   every thread;
//! * **cross-request cache** ([`cache`]): `put_instance` registers a
//!   view extent and returns a handle; later `certain_sound` requests
//!   pass `{"handle": ...}` as the extent and reuse the cached chased
//!   index across requests — repeat requests report zero index builds
//!   with byte-identical answers;
//! * **crash-only disk tier** ([`disk`]): with `--cache-dir`, derived
//!   entries spill to a checksummed append-only segment and the handle
//!   table snapshots atomically, so a restarted server warm-starts and
//!   answers pre-restart handles with zero index builds; torn writes,
//!   truncation, bit flips, and I/O errors (all injectable via
//!   [`disk::DiskFault`]) degrade to counted clean misses, never wrong
//!   answers;
//! * **client library** ([`client`]): a blocking [`Client`] with
//!   per-call I/O timeouts, for tests and the CLI;
//! * **observability**: every server total and level (requests
//!   accepted, queue depth, open connections, cache and disk-tier
//!   counts) lives once, as a series in the server's
//!   [`vqd_obs::Registry`]; the `stats` reply's flat fields
//!   ([`WireMetrics`]) are a read of those series.
//!
//! Everything is `std`-only: `std::net` sockets, `std::thread` workers,
//! `std::sync::mpsc` queues, and the workspace's [`serde::json`] shim
//! for the wire format.
//!
//! ```no_run
//! use vqd_server::{Client, Limits, Request, ServerConfig};
//!
//! let handle = vqd_server::spawn(ServerConfig::default()).unwrap();
//! let mut client = Client::connect(handle.addr()).unwrap();
//! let reply = client
//!     .call(
//!         Limits { deadline_ms: Some(1000), ..Limits::none() },
//!         Request::Decide {
//!             schema: "E/2".into(),
//!             views: "V(x,y) :- E(x,y).".into(),
//!             query: "Q(x,z) :- E(x,y), E(y,z).".into(),
//!         },
//!     )
//!     .unwrap();
//! println!("{}", reply.outcome);
//! handle.shutdown();
//! ```

pub mod cache;
pub mod client;
pub mod disk;
pub mod engine;
mod metrics;
pub mod netpoll;
mod pool;
pub mod proto;
mod record;
pub mod server;

pub use cache::{
    CacheConfig, CacheCounters, Derived, DerivedKind, HandleEntry, InstanceCache, PairVerdict,
};
pub use client::Client;
pub use disk::{DiskConfig, DiskCounters, DiskFault, DiskTier};
pub use proto::{
    Envelope, ErrorKind, Limits, Outcome, Request, Response, Timeline, WireCounterexample,
    WireMetrics, WireStats, PROTOCOL_VERSION,
};
pub use server::{spawn, ServerCaps, ServerConfig, ServerHandle};

//! # vqd-obs — the observability spine
//!
//! Structured visibility into *why* a determinacy/rewriting request cost
//! what it did. Three layers, all std-only:
//!
//! * [`metric`] — a closed set of always-on engine counters
//!   ([`Metric`]) in per-thread cells; per-request execution profiles
//!   are [`MetricsSnapshot`] diffs taken on the serving thread;
//! * [`registry`] — a process-wide named [`Registry`] of counters,
//!   gauges and fixed-bucket [`Histogram`]s with lock-free handles and
//!   `Eq`-comparable, JSON-round-trippable [`RegistrySnapshot`]s (the
//!   `stats` wire op payload);
//! * [`trace`] — hierarchical [`Span`] guards recording wall-clock and
//!   budget-step deltas into bounded per-thread rings with JSONL export,
//!   behind one `AtomicBool` with a strict no-op path when disabled
//!   (witnessed by [`Metric::SpanEventsRecorded`] staying zero);
//! * [`flight`] — the always-on flight recorder: a bounded per-process
//!   ring of the last [`FLIGHT_CAPACITY`] request digests, dumped to
//!   stderr on worker panics / disk faults / exhaustion and queryable
//!   over the wire;
//! * [`prom`] — a Prometheus text-exposition renderer over
//!   [`RegistrySnapshot`] (counters, gauges, cumulative `_bucket` /
//!   `_sum` / `_count` histogram lines) for scrape-style consumers.
//!
//! The crate deliberately depends on nothing but the serde shim: engines
//! hand in budget-step samples as plain `u64`s, so `vqd-budget` and
//! every engine crate can layer on top without cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flight;
pub mod metric;
pub mod prom;
pub mod registry;
pub mod trace;

pub use flight::{
    flight_dump, flight_dump_throttled, flight_dump_to, flight_jsonl, flight_record,
    flight_snapshot, flight_total, FlightDigest, FLIGHT_CAPACITY,
};
pub use metric::{
    absorb, count, local_snapshot, metric_value, uncharged, Metric, MetricsSnapshot, METRIC_COUNT,
};
pub use prom::{prometheus_name, render_prometheus};
pub use registry::{
    Counter, Gauge, Histogram, HistogramSnapshot, Registry, RegistrySnapshot, LATENCY_BOUNDS_MS,
};
pub use trace::{
    current_depth, drain_spans, dropped_spans, ring_occupancy, set_thread_tracing, set_tracing,
    span, span_at, spans_to_jsonl, tracing_enabled, Span, SpanEvent, RING_CAPACITY,
};

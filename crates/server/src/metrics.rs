//! Handles onto the registry series behind the flat `stats` fields.
//!
//! Each total and level lives once, in the server's [`Registry`]; this
//! struct only holds the handles, registered once when the engine
//! context is built, so the acceptor, the event loops and the workers
//! update them without a name lookup. `stats` reads them back through a
//! registry snapshot ([`WireMetrics::from_registry`]).
//!
//! [`WireMetrics::from_registry`]: crate::proto::WireMetrics::from_registry

use std::sync::Arc;
use vqd_obs::{Counter, Gauge, Registry};

/// The server's flat totals and levels; see
/// [`WireMetrics`](crate::proto::WireMetrics) for field meanings.
pub(crate) struct ServerSeries {
    pub accepted: Arc<Counter>,
    pub completed_ok: Arc<Counter>,
    pub exhausted: Arc<Counter>,
    pub rejected: Arc<Counter>,
    pub errors: Arc<Counter>,
    pub connections_total: Arc<Counter>,
    pub queue_depth: Arc<Gauge>,
    pub queue_depth_hwm: Arc<Gauge>,
    pub conns_open: Arc<Gauge>,
    pub workers: Arc<Gauge>,
}

impl ServerSeries {
    /// Registers the ten series, so `stats` shows them before traffic.
    pub fn new(registry: &Registry) -> ServerSeries {
        let counter = |name: &str| registry.counter(name);
        let gauge = |name: &str| registry.gauge(name);
        ServerSeries {
            accepted: counter("server.accepted"),
            completed_ok: counter("server.completed_ok"),
            exhausted: counter("server.exhausted"),
            rejected: counter("server.rejected"),
            errors: counter("server.errors"),
            connections_total: counter("server.connections_total"),
            queue_depth: gauge("server.queue_depth"),
            queue_depth_hwm: gauge("server.queue_depth_hwm"),
            conns_open: gauge("server.conns_open"),
            workers: gauge("server.workers"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::WireMetrics;

    #[test]
    fn wire_metrics_read_every_series() {
        let registry = Registry::new();
        let s = ServerSeries::new(&registry);
        let handles = [
            &s.accepted,
            &s.completed_ok,
            &s.exhausted,
            &s.rejected,
            &s.errors,
            &s.connections_total,
        ];
        for (i, c) in handles.into_iter().enumerate() {
            c.add(i as u64 + 1);
        }
        s.queue_depth.set(7);
        s.queue_depth_hwm.set(8);
        s.conns_open.set(9);
        s.workers.set(10);
        let m = WireMetrics::from_registry(&registry.snapshot());
        assert_eq!(
            m,
            WireMetrics {
                accepted: 1,
                completed_ok: 2,
                exhausted: 3,
                rejected: 4,
                errors: 5,
                connections_total: 6,
                queue_depth: 7,
                max_queue_depth: 8,
                connections_open: 9,
                workers: 10,
            }
        );
        for name in WireMetrics::COUNTERS {
            assert!(registry.snapshot().counter(name) > 0, "{name} is not a flat total");
        }
    }
}

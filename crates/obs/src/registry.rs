//! Named metrics registry: counters, gauges, fixed-bucket histograms.
//!
//! Registration takes a short write lock on a name → handle map; the
//! returned [`Arc`] handles update lock-free relaxed atomics afterwards,
//! so steady-state recording never contends on the registry. Callers that
//! record on a hot path should register once and keep the handle.
//!
//! A [`RegistrySnapshot`] is a plain `Eq`-comparable value (sorted
//! name/value vectors, all `u64`) so it can ride inside wire envelopes
//! that derive `Eq`, with lossless JSON encode/decode for the `stats`
//! wire op. Snapshots are not atomic across series: each atomic is read
//! once, racing concurrent updates — totals are monotone, so a snapshot
//! is a consistent-enough lower bound for dashboards and benches.

use serde::json::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Monotone counter handle.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Gauge handle: a level moved in place, a last value, or a high-water mark.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Overwrites the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` and returns the new value.
    pub fn add(&self, n: u64) -> u64 {
        self.0.fetch_add(n, Ordering::Relaxed) + n
    }

    /// Subtracts `n`, undoing part of an earlier [`add`](Self::add).
    pub fn sub(&self, n: u64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Raises the value to `v` if larger (high-water mark).
    pub fn raise_to(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Fixed-bucket histogram handle.
///
/// `bounds` are inclusive upper bounds; one extra overflow bucket catches
/// everything above the last bound. Recording is two relaxed adds plus a
/// linear bound scan (bounds lists are short by design).
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

/// Default latency bucket bounds, in milliseconds.
pub const LATENCY_BOUNDS_MS: [u64; 12] = [1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000];

impl Histogram {
    fn new(bounds: &[u64]) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn observe(&self, v: u64) {
        let i = self.bounds.iter().position(|&b| v <= b).unwrap_or(self.bounds.len());
        self.buckets[i].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Point-in-time copy.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value copy of a [`Histogram`].
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds of the finite buckets.
    pub bounds: Vec<u64>,
    /// Per-bucket counts; one longer than `bounds` (overflow bucket last).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Upper bound of the bucket containing the `q`-quantile observation
    /// (`u64::MAX` if it landed in the overflow bucket, 0 on empty data).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return self.bounds.get(i).copied().unwrap_or(u64::MAX);
            }
        }
        u64::MAX
    }

    fn to_json(&self) -> Value {
        Value::object([
            ("bounds", Value::Arr(self.bounds.iter().map(|&b| Value::from(b)).collect())),
            ("buckets", Value::Arr(self.buckets.iter().map(|&b| Value::from(b)).collect())),
            ("count", Value::from(self.count)),
            ("sum", Value::from(self.sum)),
        ])
    }

    fn from_json(v: &Value) -> Option<HistogramSnapshot> {
        let nums = |key: &str| -> Option<Vec<u64>> {
            let Some(Value::Arr(items)) = v.get(key) else { return None };
            items.iter().map(Value::as_u64).collect()
        };
        Some(HistogramSnapshot {
            bounds: nums("bounds")?,
            buckets: nums("buckets")?,
            count: v.get("count").and_then(Value::as_u64)?,
            sum: v.get("sum").and_then(Value::as_u64)?,
        })
    }
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

/// The process/server-wide named metrics registry.
#[derive(Default)]
pub struct Registry {
    inner: RwLock<Inner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Registers (or fetches) a counter by name.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self.inner.read().unwrap().counters.get(name) {
            return Arc::clone(c);
        }
        let mut inner = self.inner.write().unwrap();
        Arc::clone(inner.counters.entry(name.to_owned()).or_default())
    }

    /// Registers (or fetches) a gauge by name.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(g) = self.inner.read().unwrap().gauges.get(name) {
            return Arc::clone(g);
        }
        let mut inner = self.inner.write().unwrap();
        Arc::clone(inner.gauges.entry(name.to_owned()).or_default())
    }

    /// Registers (or fetches) a histogram by name. The first registration
    /// fixes the bucket bounds; later calls reuse them.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Arc<Histogram> {
        if let Some(h) = self.inner.read().unwrap().histograms.get(name) {
            return Arc::clone(h);
        }
        let mut inner = self.inner.write().unwrap();
        Arc::clone(
            inner
                .histograms
                .entry(name.to_owned())
                .or_insert_with(|| Arc::new(Histogram::new(bounds))),
        )
    }

    /// Point-in-time copy of every registered series, sorted by name.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let inner = self.inner.read().unwrap();
        RegistrySnapshot {
            counters: inner.counters.iter().map(|(k, c)| (k.clone(), c.get())).collect(),
            gauges: inner.gauges.iter().map(|(k, g)| (k.clone(), g.get())).collect(),
            histograms: inner.histograms.iter().map(|(k, h)| (k.clone(), h.snapshot())).collect(),
        }
    }
}

/// Plain-value copy of a [`Registry`]: sorted `(name, value)` vectors.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct RegistrySnapshot {
    /// Counter totals by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values by name.
    pub gauges: Vec<(String, u64)>,
    /// Histogram snapshots by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl RegistrySnapshot {
    /// Counter value by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(k, _)| k == name).map_or(0, |&(_, v)| v)
    }

    /// Gauge value by name (0 when absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.iter().find(|(k, _)| k == name).map_or(0, |&(_, v)| v)
    }

    /// Histogram snapshot by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(k, _)| k == name).map(|(_, h)| h)
    }

    /// Lossless JSON encoding (`{"counters":{…},"gauges":{…},"histograms":{…}}`).
    pub fn to_json(&self) -> Value {
        let kv = |pairs: &[(String, u64)]| {
            Value::Obj(pairs.iter().map(|(k, v)| (k.clone(), Value::from(*v))).collect())
        };
        Value::object([
            ("counters", kv(&self.counters)),
            ("gauges", kv(&self.gauges)),
            (
                "histograms",
                Value::Obj(self.histograms.iter().map(|(k, h)| (k.clone(), h.to_json())).collect()),
            ),
        ])
    }

    /// Decodes [`to_json`](Self::to_json); `None` on shape mismatch.
    pub fn from_json(v: &Value) -> Option<RegistrySnapshot> {
        let kv = |key: &str| -> Option<Vec<(String, u64)>> {
            let Some(Value::Obj(fields)) = v.get(key) else { return None };
            fields.iter().map(|(k, val)| val.as_u64().map(|n| (k.clone(), n))).collect()
        };
        let Some(Value::Obj(hists)) = v.get("histograms") else { return None };
        Some(RegistrySnapshot {
            counters: kv("counters")?,
            gauges: kv("gauges")?,
            histograms: hists
                .iter()
                .map(|(k, hv)| HistogramSnapshot::from_json(hv).map(|h| (k.clone(), h)))
                .collect::<Option<Vec<_>>>()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_survive_reregistration() {
        let reg = Registry::new();
        let c1 = reg.counter("requests");
        let c2 = reg.counter("requests");
        c1.add(2);
        c2.inc();
        assert_eq!(reg.snapshot().counter("requests"), 3);
    }

    #[test]
    fn gauge_high_water_mark() {
        let reg = Registry::new();
        let g = reg.gauge("queue.depth_hwm");
        g.raise_to(3);
        g.raise_to(1);
        assert_eq!(g.get(), 3);
        g.set(0);
        assert_eq!(reg.snapshot().gauge("queue.depth_hwm"), 0);
    }

    #[test]
    fn gauge_level_moves_in_place() {
        let reg = Registry::new();
        let g = reg.gauge("conns.open");
        assert_eq!(g.add(2), 2);
        assert_eq!(reg.gauge("conns.open").add(1), 3);
        g.sub(3);
        assert_eq!(reg.snapshot().gauge("conns.open"), 0);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let reg = Registry::new();
        let h = reg.histogram("latency_ms", &[1, 10, 100]);
        for v in [0, 1, 5, 5, 50, 500] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 6);
        assert_eq!(snap.sum, 561);
        assert_eq!(snap.buckets, vec![2, 2, 1, 1]);
        assert_eq!(snap.quantile(0.5), 10);
        assert_eq!(snap.quantile(1.0), u64::MAX);
        assert_eq!(HistogramSnapshot::default().quantile(0.99), 0);
    }

    #[test]
    fn snapshot_json_round_trips() {
        let reg = Registry::new();
        reg.counter("a").add(7);
        reg.gauge("b").set(9);
        reg.histogram("c", &LATENCY_BOUNDS_MS).observe(42);
        let snap = reg.snapshot();
        let back = RegistrySnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
        assert_eq!(RegistrySnapshot::from_json(&Value::Null), None);
    }
}

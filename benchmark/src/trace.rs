//! In-memory spans recorded from the benchmark's own code, around calls
//! into each layer's public functions (no span is recorded inside the
//! program). Spans carry the engine counter delta of their interval and
//! are written out as JSONL when the run ends.

use serde::json::Value;
use std::collections::HashMap;
use std::time::Instant;
use vqd_obs::{local_snapshot, Metric, MetricsSnapshot};

/// One timed interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Where it was recorded: `"wire"`, `"replay"` or `"batch"`.
    pub source: &'static str,
    /// Request id; spans of one request share it.
    pub req: u64,
    /// Layer-qualified name, e.g. `"parse.extent"`.
    pub name: &'static str,
    /// Index in the tracer.
    pub id: usize,
    /// The span that caused this one (`None` for a request root).
    pub parent: Option<usize>,
    /// Start and end, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Engine counters charged on this thread during the span.
    pub counters: MetricsSnapshot,
    /// Extra numbers (server timeline, outcome flags).
    pub attrs: Vec<(&'static str, u64)>,
}

fn ns_since(epoch: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(epoch).as_nanos() as u64
}

impl Span {
    /// A span timed by the load generator; ids are assigned when the
    /// tracer adopts it.
    pub fn wire(
        req: u64,
        name: &'static str,
        epoch: Instant,
        start: Instant,
        end: Instant,
    ) -> Span {
        Span {
            source: "wire",
            req,
            name,
            id: 0,
            parent: None,
            start_ns: ns_since(epoch, start),
            end_ns: ns_since(epoch, end),
            counters: MetricsSnapshot::default(),
            attrs: Vec::new(),
        }
    }

    /// Adds one attribute.
    pub fn with_attr(mut self, key: &'static str, value: u64) -> Span {
        self.attrs.push((key, value));
        self
    }

    /// Duration, µs.
    pub fn dur_us(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

/// Collects spans for one run.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    source: &'static str,
    req: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            source: "replay",
            req: 0,
        }
    }

    /// The instant span times are relative to.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Makes later [`span`](Self::span)s belong to request `req` of `source`.
    pub fn begin(&mut self, source: &'static str, req: u64) {
        self.source = source;
        self.req = req;
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            source: self.source,
            req: self.req,
            name,
            id,
            parent: self.stack.last().copied(),
            start_ns: 0,
            end_ns: 0,
            counters: MetricsSnapshot::default(),
            attrs: Vec::new(),
        });
        self.stack.push(id);
        let before = local_snapshot();
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        let counters = local_snapshot().diff(&before);
        self.stack.pop();
        let epoch = self.epoch;
        let span = &mut self.spans[id];
        span.start_ns = ns_since(epoch, start);
        span.end_ns = ns_since(epoch, end);
        span.counters = counters;
        out
    }

    /// Adopts load-generator spans: each root starts a request, and each
    /// child is parented to the root of its request. A child whose
    /// request has no root is dropped.
    pub fn add_wire(&mut self, roots: Vec<Span>, children: Vec<Span>) {
        let mut root_of = HashMap::new();
        for mut s in roots {
            s.id = self.spans.len();
            s.parent = None;
            root_of.insert(s.req, s.id);
            self.spans.push(s);
        }
        for mut s in children {
            if let Some(&root) = root_of.get(&s.req) {
                s.id = self.spans.len();
                s.parent = Some(root);
                self.spans.push(s);
            }
        }
    }

    /// Per request of `source`, the summed duration of its `name` spans,
    /// µs; requests without such a span are left out.
    pub fn per_request_us(&self, source: &str, name: &str) -> Vec<f64> {
        let mut sums: HashMap<u64, f64> = HashMap::new();
        for s in self
            .spans
            .iter()
            .filter(|s| s.source == source && s.name == name)
        {
            *sums.entry(s.req).or_default() += s.dur_us();
        }
        let mut out: Vec<f64> = sums.into_values().collect();
        out.sort_by(f64::total_cmp);
        out
    }

    /// Request roots of `source`, and the sum of their counter deltas.
    pub fn totals(&self, source: &str) -> (usize, MetricsSnapshot) {
        let mut total = MetricsSnapshot::default();
        let mut roots = 0;
        for s in self
            .spans
            .iter()
            .filter(|s| s.source == source && s.parent.is_none())
        {
            roots += 1;
            total.add(&s.counters);
        }
        (roots, total)
    }

    /// Self time of every span: its duration minus the part of it that
    /// its children cover, ns.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns.saturating_sub(s.start_ns)).saturating_sub(covered)
            })
            .collect()
    }

    /// One JSON object per span.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let counters: Vec<(String, Value)> = Metric::ALL
                .iter()
                .filter(|&&m| s.counters.get(m) != 0)
                .map(|&m| (m.name().to_owned(), Value::from(s.counters.get(m))))
                .collect();
            let attrs: Vec<(String, Value)> = s
                .attrs
                .iter()
                .map(|&(k, v)| (k.to_owned(), Value::from(v)))
                .collect();
            let rec = Value::object([
                ("req", Value::from(format!("{}-{}", s.source, s.req))),
                ("id", Value::from(s.id)),
                ("parent", s.parent.map_or(Value::Null, Value::from)),
                ("name", Value::from(s.name)),
                ("start_us", Value::from(s.start_ns as f64 / 1e3)),
                ("dur_us", Value::from(s.dur_us())),
                ("self_us", Value::from(self_ns as f64 / 1e3)),
                ("counters", Value::Obj(counters)),
                ("attrs", Value::Obj(attrs)),
            ]);
            out.push_str(&rec.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_get_parents_and_self_time() {
        let mut t = Tracer::new();
        t.begin("replay", 1);
        t.span("request", |t| {
            t.span("parse.query", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("hom.eval", |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!((spans[1].parent, spans[2].parent), (Some(0), Some(0)));
        let selfs = t.self_ns();
        let root = spans[0].end_ns - spans[0].start_ns;
        let kids = (spans[1].end_ns - spans[1].start_ns) + (spans[2].end_ns - spans[2].start_ns);
        assert_eq!(selfs[0], root - kids);
        assert_eq!(t.per_request_us("replay", "parse.query").len(), 1);
        assert_eq!(t.totals("replay").0, 1);
        for line in t.jsonl().lines() {
            serde::json::parse(line).expect("each line is JSON");
        }
    }

    #[test]
    fn wire_children_attach_to_their_request_root() {
        let mut t = Tracer::new();
        let e = t.epoch();
        let now = Instant::now();
        t.add_wire(
            vec![Span::wire(4, "request", e, now, now)],
            vec![
                Span::wire(4, "client.send", e, now, now),
                Span::wire(9, "client.decode", e, now, now),
            ],
        );
        assert_eq!(t.spans().len(), 2, "the orphan is dropped");
        assert_eq!(t.spans()[1].parent, Some(0));
    }
}

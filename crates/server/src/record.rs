//! The request record: what happened to one worker-served request,
//! written once. The reply's `work` and profiled `timeline`, the flight
//! digest, the `op.*`/`engine.*` series, the `server.*` outcome totals,
//! the `server.phase.*` histograms and the slow-request log are all
//! projections of it, and each phase interval is computed by exactly
//! one method below (DESIGN.md §16).

use crate::engine::Attribution;
use crate::metrics::ServerSeries;
use crate::proto::{Timeline, WireStats};
use std::sync::Arc;
use std::time::Instant;
use vqd_budget::WorkStats;
use vqd_obs::{FlightDigest, Histogram, Metric, MetricsSnapshot, Registry, LATENCY_BOUNDS_MS};

/// The two instants the owning event loop takes before a job reaches a
/// worker.
#[derive(Clone, Copy, Debug)]
pub struct PhaseStamps {
    /// The request's full line was framed out of the read buffer.
    pub framed: Instant,
    /// The bounded queue accepted the job.
    pub enqueued: Instant,
}

/// One worker-served request, from frame-complete to write-drained.
/// `run_job` fills everything but `released` (stamped in `deliver`) and
/// `drained` (stamped in `flush_writes`).
pub struct RequestRecord {
    pub id: String,
    pub op: &'static str,
    /// Whether the envelope asked for a profile (and so a timeline).
    pub profile: bool,
    /// `"ok"`, `"exhausted"`, `"error"`, or `"panic"` for a contained
    /// engine panic (whose reply is an `internal` error).
    pub status: &'static str,
    pub attribution: Attribution,
    /// The budget's steps, tuples and admission-started clock.
    pub work: WorkStats,
    /// This request's engine counter delta.
    pub counters: MetricsSnapshot,
    pub stamps: PhaseStamps,
    /// Worker start and finish (engine returned or panic contained).
    pub started: Instant,
    pub finished: Instant,
    /// The loop serialized the reply; the kernel took its last byte.
    pub released: Option<Instant>,
    pub drained: Option<Instant>,
}

fn micros(from: Instant, to: Instant) -> u64 {
    to.duration_since(from).as_micros() as u64
}

impl RequestRecord {
    /// Decode + admission, µs.
    pub fn frame_us(&self) -> u64 {
        micros(self.stamps.framed, self.stamps.enqueued)
    }

    /// Bounded-queue wait, µs.
    pub fn queue_us(&self) -> u64 {
        micros(self.stamps.enqueued, self.started)
    }

    /// Engine execution, µs.
    pub fn exec_us(&self) -> u64 {
        micros(self.started, self.finished)
    }

    /// Reorder-buffer wait, µs (0 until released).
    pub fn reorder_us(&self) -> u64 {
        self.released.map_or(0, |r| micros(self.finished, r))
    }

    /// Release to kernel drain, µs (0 until both are stamped).
    pub fn write_us(&self) -> u64 {
        self.released.zip(self.drained).map_or(0, |(r, d)| micros(r, d))
    }

    /// Frame-complete to write-drained, ms (0 until drained).
    pub fn e2e_ms(&self) -> u64 {
        self.drained.map_or(0, |d| d.duration_since(self.stamps.framed).as_millis() as u64)
    }

    /// The reply's `work` section.
    pub fn work(&self) -> WireStats {
        WireStats {
            index_builds: self.counters.get(Metric::IndexBuilds),
            index_tuples: self.counters.get(Metric::IndexDeltaTuples),
            ..WireStats::from(self.work)
        }
    }

    /// The reply's `timeline` section. `write_us` is 0: a reply is
    /// serialized at release, before its own drain.
    pub fn timeline(&self) -> Timeline {
        Timeline {
            frame_us: self.frame_us(),
            queue_us: self.queue_us(),
            exec_us: self.exec_us(),
            reorder_us: self.reorder_us(),
            write_us: 0,
        }
    }

    /// The flight recorder's digest (`seq` is assigned by the ring).
    pub fn digest(&self) -> FlightDigest {
        FlightDigest {
            seq: 0,
            id: self.id.clone(),
            op: self.op.to_owned(),
            outcome: self.status.to_owned(),
            fragment: self.attribution.fragment.map(str::to_owned),
            cache_hit: self.attribution.cache_hit,
            frame_us: self.frame_us(),
            queue_us: self.queue_us(),
            exec_us: self.exec_us(),
            steps: self.work.steps,
            tuples: self.work.tuples,
            index_builds: self.counters.get(Metric::IndexBuilds),
        }
    }

    /// Folds the finished request into the registry: the server's
    /// outcome totals, per-op request/error/exhausted counters, the
    /// per-op execution-time histogram, and the engine counter deltas.
    pub fn count(&self, series: &ServerSeries, reg: &Registry) {
        let op = self.op;
        reg.counter(&format!("op.{op}.requests")).inc();
        match self.status {
            "error" | "panic" => {
                reg.counter(&format!("op.{op}.errors")).inc();
                series.errors.inc();
            }
            "exhausted" => {
                reg.counter(&format!("op.{op}.exhausted")).inc();
                series.exhausted.inc();
            }
            _ => series.completed_ok.inc(),
        }
        reg.histogram(&format!("op.{op}.latency_ms"), &LATENCY_BOUNDS_MS)
            .observe(self.exec_us() / 1000);
        for m in Metric::ALL {
            let d = self.counters.get(m);
            if d != 0 {
                reg.counter(&format!("engine.{}", m.name())).add(d);
            }
        }
    }

    /// Stamps reorder-release and observes the four worker-side phases.
    pub fn release(&mut self, at: Instant, h: &PhaseHistograms) {
        self.released = Some(at);
        h.frame.observe(self.frame_us() / 1000);
        h.queue.observe(self.queue_us() / 1000);
        h.exec.observe(self.exec_us() / 1000);
        h.reorder.observe(self.reorder_us() / 1000);
    }

    /// Stamps write-drained, observes the write phase and end-to-end
    /// latency, and logs the request past the slow threshold.
    pub fn drain(&mut self, at: Instant, h: &PhaseHistograms, slow_ms: Option<u64>) {
        self.drained = Some(at);
        let e2e_ms = self.e2e_ms();
        h.write.observe(self.write_us() / 1000);
        h.e2e.observe(e2e_ms);
        if slow_ms.is_some_and(|t| e2e_ms >= t) {
            eprintln!(
                "slow-request id={:?} e2e_ms={} frame_us={} queue_us={} exec_us={} \
                 reorder_us={} write_us={}",
                self.id,
                e2e_ms,
                self.frame_us(),
                self.queue_us(),
                self.exec_us(),
                self.reorder_us(),
                self.write_us(),
            );
        }
    }
}

/// The `server.phase.*_ms` and `server.e2e_ms` histograms, observed for
/// every worker-served request, profiled or not.
pub struct PhaseHistograms {
    frame: Arc<Histogram>,
    queue: Arc<Histogram>,
    exec: Arc<Histogram>,
    reorder: Arc<Histogram>,
    write: Arc<Histogram>,
    e2e: Arc<Histogram>,
}

impl PhaseHistograms {
    /// Registers the six series (so `stats` shows them before traffic).
    pub fn new(registry: &Registry) -> PhaseHistograms {
        let h = |name: &str| registry.histogram(name, &LATENCY_BOUNDS_MS);
        PhaseHistograms {
            frame: h("server.phase.frame_ms"),
            queue: h("server.phase.queue_ms"),
            exec: h("server.phase.exec_ms"),
            reorder: h("server.phase.reorder_ms"),
            write: h("server.phase.write_ms"),
            e2e: h("server.e2e_ms"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn record(at: Instant) -> RequestRecord {
        let ms = |n| at + Duration::from_millis(n);
        RequestRecord {
            id: "r".to_owned(),
            op: "ping",
            profile: true,
            status: "ok",
            attribution: Attribution::default(),
            work: WorkStats { steps: 3, tuples: 4, elapsed: Duration::from_millis(7) },
            counters: MetricsSnapshot::default(),
            stamps: PhaseStamps { framed: at, enqueued: ms(1) },
            started: ms(3),
            finished: ms(6),
            released: None,
            drained: None,
        }
    }

    #[test]
    fn every_interval_reads_its_two_stamps() {
        let at = Instant::now();
        let registry = Registry::new();
        let h = PhaseHistograms::new(&registry);
        let mut r = record(at);
        assert_eq!((r.reorder_us(), r.write_us(), r.e2e_ms()), (0, 0, 0));
        r.release(at + Duration::from_millis(10), &h);
        r.drain(at + Duration::from_millis(15), &h, None);
        let tl = r.timeline();
        assert_eq!(
            (tl.frame_us, tl.queue_us, tl.exec_us, tl.reorder_us, tl.write_us),
            (1000, 2000, 3000, 4000, 0)
        );
        assert_eq!((r.write_us(), r.e2e_ms()), (5000, 15));
        let d = r.digest();
        assert_eq!((d.frame_us, d.queue_us, d.exec_us), (tl.frame_us, tl.queue_us, tl.exec_us));
        assert_eq!((d.steps, d.tuples, d.cache_hit), (3, 4, None));
        assert_eq!(r.work().elapsed_ms, 7, "elapsed_ms stays the budget clock");
        let snap = registry.snapshot();
        for (name, ms) in [("server.phase.reorder_ms", 4), ("server.e2e_ms", 15)] {
            let h = snap.histogram(name).expect("registered");
            assert_eq!((h.count, h.sum), (1, ms), "{name}");
        }
    }
}

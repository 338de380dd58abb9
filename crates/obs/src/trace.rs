//! Hierarchical span tracing with a no-op fast path.
//!
//! A [`Span`] is an RAII guard: [`span`]/[`span_at`] enter, `Drop` exits
//! and records a [`SpanEvent`] (wall-clock start/duration in µs, nesting
//! depth, optional budget-step delta) into a bounded per-thread ring
//! buffer. Recording through `Drop` is what makes spans close cleanly
//! when a budget trips mid-engine: the `?` unwinds the scope and the
//! guard still files its exit event with depth restored.
//!
//! Tracing is gated on one process-wide `AtomicBool`. When disabled (the
//! default) the guard is inert — no clock read, no ring write, and the
//! [`Metric::SpanEventsRecorded`] counter stays zero, which is exactly
//! the overhead witness the fixpoint bench asserts on its disabled path.
//!
//! The ring holds the most recent [`RING_CAPACITY`] events per thread;
//! older events are overwritten and tallied in [`dropped_spans`].
//! [`drain_spans`] empties the current thread's ring in chronological
//! order; [`spans_to_jsonl`] renders events one JSON object per line.

use crate::metric::{count, Metric};
use serde::json::Value;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static TRACING: AtomicBool = AtomicBool::new(false);

thread_local! {
    static THREAD_TRACING: Cell<bool> = const { Cell::new(false) };
}

/// Turns span recording on or off process-wide.
pub fn set_tracing(enabled: bool) {
    TRACING.store(enabled, Ordering::Relaxed);
}

/// Turns span recording on or off for the current thread only.
///
/// The effective state is `process-wide OR thread-local`, so a server
/// worker can trace one job without other workers' spans bleeding into
/// its ring (each worker thread runs one job at a time). Callers must
/// clear the override when the scope ends; ring contents are per-thread
/// either way.
pub fn set_thread_tracing(enabled: bool) {
    THREAD_TRACING.with(|t| t.set(enabled));
}

/// Whether span recording is currently enabled on this thread.
pub fn tracing_enabled() -> bool {
    TRACING.load(Ordering::Relaxed) || THREAD_TRACING.with(Cell::get)
}

/// Maximum retained span events per thread.
pub const RING_CAPACITY: usize = 4096;

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// One completed span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Static span name (e.g. `"chase.view"`).
    pub name: &'static str,
    /// Nesting depth at entry (0 = top level on this thread).
    pub depth: u32,
    /// Entry time, µs since the process trace epoch.
    pub start_us: u64,
    /// Wall-clock duration, µs.
    pub duration_us: u64,
    /// Budget steps spent inside the span, when the caller sampled them
    /// ([`span_at`] + [`Span::finish_steps`]); 0 otherwise.
    pub steps: u64,
}

impl SpanEvent {
    /// One-line JSON object for JSONL export.
    pub fn to_json(&self) -> Value {
        Value::object([
            ("name", Value::from(self.name)),
            ("depth", Value::from(u64::from(self.depth))),
            ("start_us", Value::from(self.start_us)),
            ("duration_us", Value::from(self.duration_us)),
            ("steps", Value::from(self.steps)),
        ])
    }
}

struct Ring {
    events: Vec<SpanEvent>,
    next: usize,
    dropped: u64,
}

thread_local! {
    static RING: RefCell<Ring> = const {
        RefCell::new(Ring { events: Vec::new(), next: 0, dropped: 0 })
    };
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// RAII span guard; records a [`SpanEvent`] on drop when tracing is on.
#[must_use = "a span measures the scope it is bound to"]
pub struct Span {
    name: &'static str,
    depth: u32,
    start: Option<Instant>,
    steps_start: u64,
    steps_end: u64,
}

/// Enters a span with no budget-step sampling.
pub fn span(name: &'static str) -> Span {
    span_at(name, 0)
}

/// Enters a span, sampling the caller's budget-step count at entry.
/// Pair with [`Span::finish_steps`] to report the step delta; on an early
/// exit (budget trip) the delta honestly reads 0 rather than guessing.
pub fn span_at(name: &'static str, steps_now: u64) -> Span {
    if !tracing_enabled() {
        return Span { name, depth: 0, start: None, steps_start: 0, steps_end: 0 };
    }
    epoch(); // pin the epoch before the first start time
    let depth = DEPTH.with(|d| {
        let v = d.get();
        d.set(v + 1);
        v
    });
    Span { name, depth, start: Some(Instant::now()), steps_start: steps_now, steps_end: steps_now }
}

impl Span {
    /// Samples the budget-step count at (normal) exit.
    pub fn finish_steps(&mut self, steps_now: u64) {
        self.steps_end = steps_now.max(self.steps_start);
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let event = SpanEvent {
            name: self.name,
            depth: self.depth,
            start_us: start.checked_duration_since(epoch()).map_or(0, |d| d.as_micros() as u64),
            duration_us: start.elapsed().as_micros() as u64,
            steps: self.steps_end - self.steps_start,
        };
        count(Metric::SpanEventsRecorded, 1);
        RING.with(|r| {
            let mut ring = r.borrow_mut();
            if ring.events.len() < RING_CAPACITY {
                ring.events.push(event);
            } else {
                let at = ring.next;
                ring.events[at] = event;
                ring.dropped += 1;
            }
            ring.next = (ring.next + 1) % RING_CAPACITY;
        });
    }
}

/// Current span nesting depth on this thread (0 when all spans closed —
/// the "spans close cleanly" witness used by the governance tests).
pub fn current_depth() -> u32 {
    DEPTH.with(Cell::get)
}

/// Empties this thread's ring, returning events oldest-first.
pub fn drain_spans() -> Vec<SpanEvent> {
    RING.with(|r| {
        let mut ring = r.borrow_mut();
        let next = ring.next;
        let mut events = std::mem::take(&mut ring.events);
        ring.next = 0;
        if events.len() == RING_CAPACITY {
            events.rotate_left(next);
        }
        events
    })
}

/// Span events currently held (un-drained) in this thread's ring.
/// Together with the `trace.spans_dropped` registry counter the server
/// folds out of [`dropped_spans`], this lets clients tell a truncated
/// trace from a genuinely short one.
pub fn ring_occupancy() -> usize {
    RING.with(|r| r.borrow().events.len())
}

/// Events overwritten (ring full) on this thread since the last drain.
pub fn dropped_spans() -> u64 {
    RING.with(|r| {
        let mut ring = r.borrow_mut();
        std::mem::take(&mut ring.dropped)
    })
}

/// Renders events as JSONL: one compact JSON object per line.
pub fn spans_to_jsonl(events: &[SpanEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&e.to_json().to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::{local_snapshot, Metric};

    // Tracing state is process-global; tests in this module serialize on
    // a lock so cargo's parallel runner cannot interleave enable/disable.
    fn tracing_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = tracing_lock();
        set_tracing(false);
        let before = local_snapshot();
        {
            let mut sp = span_at("outer", 10);
            let _inner = span("inner");
            sp.finish_steps(25);
        }
        let delta = local_snapshot().diff(&before);
        assert_eq!(delta.get(Metric::SpanEventsRecorded), 0);
        assert!(drain_spans().is_empty());
        assert_eq!(current_depth(), 0);
    }

    #[test]
    fn enabled_spans_nest_and_export() {
        let _guard = tracing_lock();
        set_tracing(true);
        drain_spans();
        {
            let mut outer = span_at("outer", 100);
            {
                let _inner = span("inner");
            }
            outer.finish_steps(140);
        }
        set_tracing(false);
        let events = drain_spans();
        assert_eq!(events.len(), 2);
        // Inner drops first, outer second; depths reflect nesting.
        assert_eq!(events[0].name, "inner");
        assert_eq!(events[0].depth, 1);
        assert_eq!(events[1].name, "outer");
        assert_eq!(events[1].depth, 0);
        assert_eq!(events[1].steps, 40);
        assert_eq!(current_depth(), 0);
        let jsonl = spans_to_jsonl(&events);
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.lines().all(|l| l.contains("\"duration_us\":")));
    }

    #[test]
    fn early_drop_closes_span_with_zero_steps() {
        let _guard = tracing_lock();
        set_tracing(true);
        drain_spans();
        let run = || -> Result<(), ()> {
            let _sp = span_at("tripped", 7);
            Err(())? // simulated budget trip: guard drops on unwind path
        };
        assert!(run().is_err());
        set_tracing(false);
        let events = drain_spans();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "tripped");
        assert_eq!(events[0].steps, 0);
        assert_eq!(current_depth(), 0);
    }

    #[test]
    fn thread_local_override_traces_without_global_flag() {
        let _guard = tracing_lock();
        set_tracing(false);
        drain_spans();
        set_thread_tracing(true);
        {
            let _sp = span("scoped");
        }
        set_thread_tracing(false);
        let events = drain_spans();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "scoped");
        // Other threads are unaffected by this thread's override.
        let elsewhere = std::thread::spawn(|| {
            let _sp = span("other");
            drain_spans().len()
        })
        .join()
        .expect("join");
        assert_eq!(elsewhere, 0, "override must not leak across threads");
        // Cleared override means spans are inert again on this thread.
        {
            let _sp = span("after");
        }
        assert!(drain_spans().is_empty());
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let _guard = tracing_lock();
        set_tracing(true);
        drain_spans();
        dropped_spans();
        for _ in 0..RING_CAPACITY + 3 {
            let _sp = span("tick");
        }
        set_tracing(false);
        let events = drain_spans();
        assert_eq!(events.len(), RING_CAPACITY);
        assert_eq!(dropped_spans(), 3);
        // Chronological order survives the wrap.
        assert!(events.windows(2).all(|w| w[0].start_us <= w[1].start_us));
    }
}

//! The flight recorder: an always-on, bounded, per-process ring of the
//! last [`FLIGHT_CAPACITY`] request digests.
//!
//! Every served request leaves one [`FlightDigest`] — op, outcome,
//! fragment attribution, cache-hit note, phase timings, budget work —
//! behind a single short mutex push, whether or not the client asked
//! for a profile. When something trips (a worker panic, a disk-fault
//! degradation, an exhausted budget) the server dumps the whole ring to
//! stderr as JSONL via [`flight_dump`], so the black-box record of
//! *what the server was doing just before* survives even if no client
//! was watching. The same ring is queryable live over the wire (the
//! `flight` op / `vqd-cli flight`) through [`flight_jsonl`].
//!
//! The ring is process-global on purpose: it must be reachable from the
//! panic-containment path in the worker pool and from the disk tier
//! without threading a handle through every context struct, and a
//! process has exactly one black box. Recording is a bounded O(1)
//! overwrite — the mutex guards a fixed-capacity ring, never an
//! allocation-per-request queue.

use serde::json::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Digests retained per process (oldest overwritten first).
pub const FLIGHT_CAPACITY: usize = 256;

/// Minimum spacing between throttled dumps, in milliseconds.
const DUMP_THROTTLE_MS: u64 = 1000;

/// One request's black-box record.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct FlightDigest {
    /// Process-wide monotone record number (assigned by the recorder).
    pub seq: u64,
    /// Correlation id echoed from the request envelope.
    pub id: String,
    /// Wire op name (`"certain_sound"`, `"decide_unrestricted"`, …).
    pub op: String,
    /// Terminal status: `"ok"`, `"exhausted"`, `"error"`, `"panic"`.
    pub outcome: String,
    /// Fragment attribution for determinacy-family ops, when routed.
    pub fragment: Option<String>,
    /// Whether the request was served from the cache entry it looked
    /// up: a handle request's derived entry, a decide/rewrite request's
    /// pair entry (`None` for ops that consult no cache entry).
    pub cache_hit: Option<bool>,
    /// frame-complete → admission-enqueue, µs.
    pub frame_us: u64,
    /// admission-enqueue → worker-start (queue wait), µs.
    pub queue_us: u64,
    /// worker-start → worker-end (execution), µs.
    pub exec_us: u64,
    /// Budget checkpoints passed.
    pub steps: u64,
    /// Budget tuples charged.
    pub tuples: u64,
    /// Full index (re)builds while serving the request.
    pub index_builds: u64,
}

impl FlightDigest {
    /// One-line JSON object for JSONL export.
    pub fn to_json(&self) -> Value {
        let mut obj: Vec<(String, Value)> = vec![
            ("seq".to_owned(), Value::from(self.seq)),
            ("id".to_owned(), Value::from(self.id.clone())),
            ("op".to_owned(), Value::from(self.op.clone())),
            ("outcome".to_owned(), Value::from(self.outcome.clone())),
        ];
        if let Some(f) = &self.fragment {
            obj.push(("fragment".to_owned(), Value::from(f.clone())));
        }
        if let Some(h) = self.cache_hit {
            obj.push(("cache_hit".to_owned(), Value::from(h)));
        }
        for (k, v) in [
            ("frame_us", self.frame_us),
            ("queue_us", self.queue_us),
            ("exec_us", self.exec_us),
            ("steps", self.steps),
            ("tuples", self.tuples),
            ("index_builds", self.index_builds),
        ] {
            obj.push((k.to_owned(), Value::from(v)));
        }
        Value::Obj(obj)
    }

    /// Decodes [`to_json`](Self::to_json); `None` on shape mismatch.
    pub fn from_json(v: &Value) -> Option<FlightDigest> {
        let num = |k: &str| v.get(k).and_then(Value::as_u64);
        let text = |k: &str| v.get(k).and_then(Value::as_str).map(str::to_owned);
        Some(FlightDigest {
            seq: num("seq")?,
            id: text("id")?,
            op: text("op")?,
            outcome: text("outcome")?,
            fragment: text("fragment"),
            cache_hit: v.get("cache_hit").and_then(Value::as_bool),
            frame_us: num("frame_us").unwrap_or(0),
            queue_us: num("queue_us").unwrap_or(0),
            exec_us: num("exec_us").unwrap_or(0),
            steps: num("steps").unwrap_or(0),
            tuples: num("tuples").unwrap_or(0),
            index_builds: num("index_builds").unwrap_or(0),
        })
    }
}

struct Ring {
    buf: Vec<FlightDigest>,
    /// Overwrite position once the ring is full.
    next: usize,
    /// Digests ever recorded (`seq` source).
    total: u64,
}

static RING: Mutex<Ring> = Mutex::new(Ring { buf: Vec::new(), next: 0, total: 0 });

fn lock() -> std::sync::MutexGuard<'static, Ring> {
    // Digest pushes cannot panic mid-mutation; recover rather than wedge
    // the recorder (it must stay usable from panic-containment paths).
    match RING.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Records one digest, assigning and returning its `seq`.
pub fn flight_record(mut digest: FlightDigest) -> u64 {
    let mut ring = lock();
    let seq = ring.total;
    ring.total += 1;
    digest.seq = seq;
    if ring.buf.len() < FLIGHT_CAPACITY {
        ring.buf.push(digest);
    } else {
        let at = ring.next;
        ring.buf[at] = digest;
        ring.next = (ring.next + 1) % FLIGHT_CAPACITY;
    }
    seq
}

/// Point-in-time copy of the ring, oldest first.
pub fn flight_snapshot() -> Vec<FlightDigest> {
    let ring = lock();
    let mut out = ring.buf.clone();
    if out.len() == FLIGHT_CAPACITY {
        out.rotate_left(ring.next);
    }
    out
}

/// Digests ever recorded in this process (not just the retained window).
pub fn flight_total() -> u64 {
    lock().total
}

/// The ring as JSONL, one digest per line, oldest first.
pub fn flight_jsonl() -> String {
    let mut out = String::new();
    for d in flight_snapshot() {
        out.push_str(&d.to_json().to_string());
        out.push('\n');
    }
    out
}

/// Writes a framed dump of the ring to `w`: a header line naming the
/// trigger, the JSONL body, and a footer. Used by [`flight_dump`]; public
/// so tests can capture the exact bytes.
pub fn flight_dump_to(w: &mut dyn std::io::Write, reason: &str) -> std::io::Result<()> {
    let snapshot = flight_snapshot();
    writeln!(
        w,
        "--- flight-recorder dump (reason: {reason}, {} of {} recorded) ---",
        snapshot.len(),
        flight_total(),
    )?;
    for d in snapshot {
        writeln!(w, "{}", d.to_json())?;
    }
    writeln!(w, "--- end flight-recorder dump ---")
}

/// Dumps the ring to stderr (best-effort: a broken stderr is ignored —
/// the dump path runs during failures and must never introduce one).
pub fn flight_dump(reason: &str) {
    let stderr = std::io::stderr();
    let mut lock = stderr.lock();
    let _ = flight_dump_to(&mut lock, reason);
}

/// Like [`flight_dump`], but rate-limited to one dump per second
/// process-wide. Returns whether a dump was emitted. High-frequency
/// triggers (budget exhaustion under a hostile load) use this so the
/// black box stays a black box, not a firehose.
pub fn flight_dump_throttled(reason: &str) -> bool {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    static LAST_MS: AtomicU64 = AtomicU64::new(0);
    let now_ms = EPOCH.get_or_init(Instant::now).elapsed().as_millis() as u64;
    let last = LAST_MS.load(Ordering::Relaxed);
    // `now_ms == 0` only within the first millisecond of the first call;
    // `last == 0` doubles as "never dumped", so allow that case through.
    if last != 0 && now_ms.saturating_sub(last) < DUMP_THROTTLE_MS {
        return false;
    }
    if LAST_MS.compare_exchange(last, now_ms.max(1), Ordering::Relaxed, Ordering::Relaxed).is_err()
    {
        return false; // a racing dumper won; its dump covers this trigger
    }
    flight_dump(reason);
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(id: &str, op: &str) -> FlightDigest {
        FlightDigest {
            id: id.to_owned(),
            op: op.to_owned(),
            outcome: "ok".to_owned(),
            frame_us: 10,
            queue_us: 20,
            exec_us: 30,
            ..FlightDigest::default()
        }
    }

    #[test]
    fn digest_json_round_trips() {
        let d = FlightDigest {
            seq: 7,
            id: "req-1".into(),
            op: "certain_sound".into(),
            outcome: "exhausted".into(),
            fragment: Some("general".into()),
            cache_hit: Some(true),
            frame_us: 1,
            queue_us: 2,
            exec_us: 3,
            steps: 4,
            tuples: 5,
            index_builds: 6,
        };
        assert_eq!(FlightDigest::from_json(&d.to_json()), Some(d));
        assert_eq!(FlightDigest::from_json(&Value::Null), None);
    }

    #[test]
    fn absent_optional_fields_decode_as_none() {
        let d = digest("a", "ping");
        let back = FlightDigest::from_json(&d.to_json()).expect("decodes");
        assert_eq!(back.fragment, None);
        assert_eq!(back.cache_hit, None);
    }

    // The ring is process-global, so ring-shape assertions must tolerate
    // digests recorded by concurrently running tests: assert on *our*
    // records being present/ordered, never on the ring being empty.
    #[test]
    fn ring_retains_newest_in_order_and_dump_frames_them() {
        let marker = "flight-test-ring";
        for i in 0..FLIGHT_CAPACITY + 5 {
            flight_record(digest(&format!("{marker}-{i}"), "ping"));
        }
        let snap = flight_snapshot();
        assert_eq!(snap.len(), FLIGHT_CAPACITY);
        // seq strictly increasing ⇒ chronological order survives wrap.
        assert!(snap.windows(2).all(|w| w[0].seq < w[1].seq));
        let last = format!("{marker}-{}", FLIGHT_CAPACITY + 4);
        assert!(snap.iter().any(|d| d.id == last), "newest record retained");
        let mut out = Vec::new();
        flight_dump_to(&mut out, "unit-test").expect("dump");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.starts_with("--- flight-recorder dump (reason: unit-test"));
        assert!(text.trim_end().ends_with("--- end flight-recorder dump ---"));
        assert!(text.contains(&last));
        let jsonl = flight_jsonl();
        assert!(jsonl.lines().count() <= FLIGHT_CAPACITY);
        assert!(jsonl.contains(&last));
    }

    #[test]
    fn throttled_dump_suppresses_immediate_repeat() {
        flight_record(digest("throttle-probe", "ping"));
        // Whatever state other tests left, two back-to-back calls cannot
        // both dump: the second lands well inside the 1s window.
        let first = flight_dump_throttled("throttle-test");
        let second = flight_dump_throttled("throttle-test");
        assert!(!(first && second), "back-to-back dumps must be throttled");
    }
}

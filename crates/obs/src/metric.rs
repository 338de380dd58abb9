//! Fixed, always-on engine counters.
//!
//! Every engine hot loop charges one of a closed set of [`Metric`]s into a
//! per-thread array of [`Cell<u64>`]s — an increment is one thread-local
//! load/add/store, cheap enough to leave on unconditionally. Profiles are
//! *differences* of [`MetricsSnapshot`]s taken on the same thread, so a
//! worker serving consecutive requests never leaks one request's counts
//! into the next (see the server's `run_job`).
//!
//! The set is closed on purpose: a fixed enum keeps the increment branch-free
//! and the snapshot `Copy + Eq` (it can ride inside wire envelopes that
//! derive `Eq`). Open-ended, nameable series belong in the
//! [`Registry`](crate::registry::Registry) instead.

use serde::json::Value;
use std::cell::Cell;

/// The closed set of engine counters.
///
/// Discriminants index the thread-local counter array; keep `ALL` and
/// `name` in sync when adding a variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Metric {
    /// Chase passes over one view relation of the extent (`v_inverse`).
    ChaseRounds = 0,
    /// Chase triggers fired (one per tuple chased into the preimage).
    ChaseTriggersFired,
    /// Labelled nulls invented by the chase.
    ChaseNullsCreated,
    /// Candidate tuples tried by the homomorphism search.
    HomCandidatesTried,
    /// Dead ends in the homomorphism search (failed match or exhausted atom).
    HomBacktracks,
    /// Atom extensions answered from a column posting list instead of a scan.
    HomPruneHits,
    /// Datalog fixpoint rounds (naive iterations or semi-naive delta rounds).
    FixpointRounds,
    /// Tuples in semi-naive deltas applied across all fixpoint rounds.
    FixpointDeltaTuples,
    /// Candidate instances checked by the bounded containment search.
    ContainmentInstancesChecked,
    /// Candidate instances scanned by the bounded semantic determinacy
    /// check, on the bitmask kernel and on the per-instance evaluator.
    SemanticInstancesScanned,
    /// Tuples examined by the certain-answer null filter.
    CertainTuplesChecked,
    /// Null-free tuples kept as certain answers.
    CertainAnswersKept,
    /// Full index (re)builds (`IndexedInstance`).
    IndexBuilds,
    /// Tuples threaded through index delta maintenance.
    IndexDeltaTuples,
    /// Index arena tuples stored inline (arity ≤ inline cap).
    TupleInline,
    /// Index arena tuples spilled to the heap (arity > inline cap).
    TupleSpilled,
    /// Span events recorded by tracing. Stays **zero** while tracing is
    /// disabled — the disabled-path overhead witness asserted by the
    /// fixpoint bench and the `obs-smoke` CI job.
    SpanEventsRecorded,
}

/// Number of [`Metric`] variants (length of the counter array).
pub const METRIC_COUNT: usize = 17;

impl Metric {
    /// Every variant, in discriminant order.
    pub const ALL: [Metric; METRIC_COUNT] = [
        Metric::ChaseRounds,
        Metric::ChaseTriggersFired,
        Metric::ChaseNullsCreated,
        Metric::HomCandidatesTried,
        Metric::HomBacktracks,
        Metric::HomPruneHits,
        Metric::FixpointRounds,
        Metric::FixpointDeltaTuples,
        Metric::ContainmentInstancesChecked,
        Metric::SemanticInstancesScanned,
        Metric::CertainTuplesChecked,
        Metric::CertainAnswersKept,
        Metric::IndexBuilds,
        Metric::IndexDeltaTuples,
        Metric::TupleInline,
        Metric::TupleSpilled,
        Metric::SpanEventsRecorded,
    ];

    /// Stable wire/JSON name of the counter.
    pub fn name(self) -> &'static str {
        match self {
            Metric::ChaseRounds => "chase_rounds",
            Metric::ChaseTriggersFired => "chase_triggers_fired",
            Metric::ChaseNullsCreated => "chase_nulls_created",
            Metric::HomCandidatesTried => "hom_candidates_tried",
            Metric::HomBacktracks => "hom_backtracks",
            Metric::HomPruneHits => "hom_prune_hits",
            Metric::FixpointRounds => "fixpoint_rounds",
            Metric::FixpointDeltaTuples => "fixpoint_delta_tuples",
            Metric::ContainmentInstancesChecked => "containment_instances_checked",
            Metric::SemanticInstancesScanned => "semantic_instances_scanned",
            Metric::CertainTuplesChecked => "certain_tuples_checked",
            Metric::CertainAnswersKept => "certain_answers_kept",
            Metric::IndexBuilds => "index_builds",
            Metric::IndexDeltaTuples => "index_delta_tuples",
            Metric::TupleInline => "tuple_inline",
            Metric::TupleSpilled => "tuple_spilled",
            Metric::SpanEventsRecorded => "span_events_recorded",
        }
    }

    /// Inverse of [`Metric::name`], for decoding wire profiles.
    pub fn from_name(name: &str) -> Option<Metric> {
        Metric::ALL.iter().copied().find(|m| m.name() == name)
    }
}

thread_local! {
    static COUNTERS: [Cell<u64>; METRIC_COUNT] = const {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: Cell<u64> = Cell::new(0);
        [ZERO; METRIC_COUNT]
    };
}

/// Charges `n` to a counter on the current thread.
#[inline]
pub fn count(metric: Metric, n: u64) {
    COUNTERS.with(|c| {
        let cell = &c[metric as usize];
        cell.set(cell.get().wrapping_add(n));
    });
}

/// Current thread-local value of one counter.
#[inline]
pub fn metric_value(metric: Metric) -> u64 {
    COUNTERS.with(|c| c[metric as usize].get())
}

/// A point-in-time copy of this thread's counters.
///
/// `Copy + Eq` so it can travel inside wire types that derive `Eq`.
/// Totals are monotone per thread; profiles are [`diff`](Self::diff)s of
/// two snapshots taken on the same thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub struct MetricsSnapshot {
    counts: [u64; METRIC_COUNT],
}

impl MetricsSnapshot {
    /// Snapshots the current thread's counters.
    pub fn capture() -> MetricsSnapshot {
        let counts = COUNTERS.with(|c| {
            let mut out = [0u64; METRIC_COUNT];
            for (slot, cell) in out.iter_mut().zip(c.iter()) {
                *slot = cell.get();
            }
            out
        });
        MetricsSnapshot { counts }
    }

    /// Value of one counter in this snapshot.
    pub fn get(&self, metric: Metric) -> u64 {
        self.counts[metric as usize]
    }

    /// Sets one counter (decoding and test construction).
    pub fn set(&mut self, metric: Metric, value: u64) {
        self.counts[metric as usize] = value;
    }

    /// Per-counter `self - earlier` (wrapping), the per-request profile.
    pub fn diff(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut counts = [0u64; METRIC_COUNT];
        for (i, slot) in counts.iter_mut().enumerate() {
            *slot = self.counts[i].wrapping_sub(earlier.counts[i]);
        }
        MetricsSnapshot { counts }
    }

    /// Per-counter accumulation (folding per-request profiles into totals).
    pub fn add(&mut self, other: &MetricsSnapshot) {
        for (slot, v) in self.counts.iter_mut().zip(other.counts.iter()) {
            *slot = slot.wrapping_add(*v);
        }
    }

    /// True when every counter is zero.
    pub fn is_zero(&self) -> bool {
        self.counts.iter().all(|&v| v == 0)
    }

    /// JSON object of the **non-zero** counters, keyed by [`Metric::name`].
    pub fn to_json(&self) -> Value {
        let fields: Vec<(String, Value)> = Metric::ALL
            .iter()
            .filter(|&&m| self.get(m) != 0)
            .map(|&m| (m.name().to_owned(), Value::from(self.get(m))))
            .collect();
        Value::Obj(fields)
    }

    /// Decodes a [`to_json`](Self::to_json) object; unknown keys are
    /// ignored, absent counters read zero.
    pub fn from_json(v: &Value) -> Option<MetricsSnapshot> {
        let Value::Obj(fields) = v else { return None };
        let mut snap = MetricsSnapshot::default();
        for (k, val) in fields {
            if let (Some(m), Some(n)) = (Metric::from_name(k), val.as_u64()) {
                snap.set(m, n);
            }
        }
        Some(snap)
    }
}

/// Snapshot of the current thread's counters ([`MetricsSnapshot::capture`]).
pub fn local_snapshot() -> MetricsSnapshot {
    MetricsSnapshot::capture()
}

/// Charges a whole snapshot delta onto the current thread's counters.
///
/// This is how work done on *other* threads stays visible to profile
/// diffs taken on this one: an executor captures each foreign shard's
/// delta ([`MetricsSnapshot::diff`] around the shard) and absorbs the
/// sum here after joining, so `capture().diff(&before)` on the serving
/// thread still accounts for every engine counter exactly.
pub fn absorb(delta: &MetricsSnapshot) {
    for m in Metric::ALL {
        let n = delta.get(m);
        if n != 0 {
            count(m, n);
        }
    }
}

/// Runs `f` and takes the engine counts it charged back off this
/// thread's counters, so a profile diff around the call sees none of
/// them.
///
/// For one-off work whose result outlives the request that happened to
/// trigger it (a compiled plan shared by every later request): charging
/// it to that one request would make two identical requests report
/// different profiles.
pub fn uncharged<R>(f: impl FnOnce() -> R) -> R {
    let before = local_snapshot();
    let out = f();
    let charged = local_snapshot().diff(&before);
    COUNTERS.with(|c| {
        for (cell, n) in c.iter().zip(charged.counts) {
            cell.set(cell.get().wrapping_sub(n));
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncharged_work_leaves_no_counts() {
        let before = local_snapshot();
        count(Metric::ChaseRounds, 1);
        let out = uncharged(|| {
            count(Metric::HomBacktracks, 7);
            count(Metric::ChaseRounds, 2);
            42
        });
        assert_eq!(out, 42);
        let delta = local_snapshot().diff(&before);
        assert_eq!(delta.get(Metric::ChaseRounds), 1);
        assert_eq!(delta.get(Metric::HomBacktracks), 0);
    }

    #[test]
    fn count_is_visible_in_snapshots_and_diffs() {
        let before = local_snapshot();
        count(Metric::ChaseRounds, 3);
        count(Metric::HomBacktracks, 1);
        count(Metric::ChaseRounds, 2);
        let delta = local_snapshot().diff(&before);
        assert_eq!(delta.get(Metric::ChaseRounds), 5);
        assert_eq!(delta.get(Metric::HomBacktracks), 1);
        assert_eq!(delta.get(Metric::FixpointRounds), 0);
    }

    #[test]
    fn names_round_trip() {
        for m in Metric::ALL {
            assert_eq!(Metric::from_name(m.name()), Some(m));
        }
        assert_eq!(Metric::from_name("no_such_counter"), None);
    }

    #[test]
    fn json_round_trips_nonzero_counts() {
        let mut snap = MetricsSnapshot::default();
        snap.set(Metric::ChaseTriggersFired, 40);
        snap.set(Metric::IndexBuilds, 2);
        let back = MetricsSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
        assert_eq!(MetricsSnapshot::from_json(&Value::Null), None);
    }

    #[test]
    fn diff_is_inverse_of_add() {
        let mut a = MetricsSnapshot::default();
        a.set(Metric::FixpointRounds, 7);
        let mut b = a;
        let mut extra = MetricsSnapshot::default();
        extra.set(Metric::FixpointRounds, 5);
        extra.set(Metric::TupleInline, 9);
        b.add(&extra);
        assert_eq!(b.diff(&a), extra);
    }
}

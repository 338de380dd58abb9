//! # vqd-budget — resource-governed execution
//!
//! CQ determinacy is undecidable in general (Gogacz–Marcinkowski), and
//! even the decidable fragments sit next to exponential walls: the
//! exhaustive semantic checker scans `2^(n^k)` instance spaces, the
//! Theorem 3.3 tower and Datalog fixpoints can grow without useful bound.
//! A production service cannot afford "the answer is worth any wait":
//! every entry point must terminate with a *structured verdict* — never a
//! hang, never a panic.
//!
//! This crate is the contract every potentially-divergent engine in the
//! workspace honours:
//!
//! * [`Budget`] — a wall-clock deadline plus step/tuple counters, shared
//!   (via cheap clones) between the caller and any worker threads;
//! * [`CancelToken`] — a cooperative cancellation flag; workers poll it
//!   at iteration boundaries;
//! * [`Exhausted`] — the structured "ran out" outcome, carrying the
//!   [`WorkStats`] actually performed and a human-readable description of
//!   partial progress ("refuted up to index i", "chase reached k tuples");
//! * [`Budget::trip_after`] — a fault-injection hook that forces
//!   exhaustion at the Nth checkpoint, letting the test suite prove that
//!   every pipeline degrades gracefully at *every* checkpoint;
//! * [`VqdError`] — the workspace-level error enum that budgeted entry
//!   points return instead of panicking.
//!
//! ## Checkpoint discipline
//!
//! Engines call [`Budget::checkpoint`] once per unit of work at loop
//! boundaries (one enumerated instance, one chased tuple, one fixpoint
//! round, one evaluated subformula) and [`Budget::charge_tuples`] when
//! they materialize data. Checkpoints are cheap: one relaxed atomic
//! increment, limit comparisons, and an [`Instant::now`] only every 64th
//! step (deadlines are amortized; fault injection and step limits are
//! exact).

#![deny(clippy::unwrap_used)]
#![deny(clippy::expect_used)]
#![warn(missing_docs)]

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cooperative cancellation flag, shareable across threads.
///
/// Cancellation is *cooperative*: setting the flag never interrupts
/// anything by force; budgeted loops observe it at their next checkpoint
/// and return [`Exhausted`] with [`ExhaustReason::Canceled`].
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-canceled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_canceled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Why a budgeted computation stopped early.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExhaustReason {
    /// The wall-clock deadline passed.
    Deadline,
    /// The step counter reached its limit.
    StepLimit,
    /// The tuple counter reached its limit.
    TupleLimit,
    /// The [`CancelToken`] was tripped by another party.
    Canceled,
    /// A [`Budget::trip_after`] fault-injection point fired.
    FaultInjected,
}

impl fmt::Display for ExhaustReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ExhaustReason::Deadline => "deadline exceeded",
            ExhaustReason::StepLimit => "step limit reached",
            ExhaustReason::TupleLimit => "tuple limit reached",
            ExhaustReason::Canceled => "canceled",
            ExhaustReason::FaultInjected => "fault injected",
        })
    }
}

/// Work actually performed when a budgeted computation stopped.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkStats {
    /// Checkpoints passed (loop iterations across all engines involved).
    pub steps: u64,
    /// Tuples charged (materialized facts / rows).
    pub tuples: u64,
    /// Wall time since the budget was created.
    pub elapsed: Duration,
}

/// The structured "ran out of budget" outcome.
///
/// Not a bug and not a crash: the engine stopped at a checkpoint, its
/// state is consistent, and re-running with a larger budget (see
/// `retry_escalating` in `vqd-bench`) makes strictly more progress.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Exhausted {
    /// What limit tripped.
    pub reason: ExhaustReason,
    /// Work done up to the stop point.
    pub work_done: WorkStats,
    /// Human-readable partial progress, e.g. `"scanned 512 of 33554432
    /// instances, no counterexample"` or `"chase reached 17 tuples"`.
    pub partial: String,
}

impl fmt::Display for Exhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "exhausted ({}) after {} steps / {} tuples / {:?}: {}",
            self.reason, self.work_done.steps, self.work_done.tuples, self.work_done.elapsed,
            self.partial
        )
    }
}

impl std::error::Error for Exhausted {}

/// Shared mutable core of a [`Budget`]: counters and the cancel flag.
#[derive(Debug, Default)]
struct Counters {
    steps: AtomicU64,
    tuples: AtomicU64,
}

/// A resource budget threaded through every potentially-divergent engine.
///
/// Cloning is cheap and *shares* the counters and cancel token — clone a
/// budget into worker threads and they draw down the same allowance.
/// Limits themselves are plain fields fixed at construction time.
///
/// ```
/// use vqd_budget::{Budget, ExhaustReason};
/// let budget = Budget::unlimited().with_step_limit(2);
/// assert!(budget.checkpoint().is_ok());
/// assert!(budget.checkpoint().is_ok());
/// let exhausted = budget.checkpoint().expect_err("budget must trip");
/// assert_eq!(exhausted.reason, ExhaustReason::StepLimit);
/// assert_eq!(exhausted.work_done.steps, 2);
/// ```
#[derive(Clone, Debug)]
pub struct Budget {
    counters: Arc<Counters>,
    cancel: CancelToken,
    started: Instant,
    deadline: Option<Instant>,
    step_limit: Option<u64>,
    tuple_limit: Option<u64>,
    /// Fault injection: force exhaustion at this checkpoint count.
    trip_at: Option<u64>,
}

/// How often (in steps) the amortized deadline check runs.
const DEADLINE_STRIDE: u64 = 64;

impl Budget {
    /// A budget with no limits: checkpoints always succeed (unless the
    /// cancel token trips).
    pub fn unlimited() -> Budget {
        Budget {
            counters: Arc::new(Counters::default()),
            cancel: CancelToken::new(),
            started: Instant::now(),
            deadline: None,
            step_limit: None,
            tuple_limit: None,
            trip_at: None,
        }
    }

    /// Caps wall-clock time, measured from *now*.
    #[must_use]
    pub fn with_deadline(mut self, limit: Duration) -> Budget {
        self.deadline = Some(Instant::now() + limit);
        self
    }

    /// Caps the number of checkpoints.
    #[must_use]
    pub fn with_step_limit(mut self, steps: u64) -> Budget {
        self.step_limit = Some(steps);
        self
    }

    /// Caps the number of charged tuples.
    #[must_use]
    pub fn with_tuple_limit(mut self, tuples: u64) -> Budget {
        self.tuple_limit = Some(tuples);
        self
    }

    /// Fault-injection test hook: the `n`th checkpoint from now fails
    /// with [`ExhaustReason::FaultInjected`]. `n = 1` trips the very next
    /// checkpoint.
    #[must_use]
    pub fn trip_after(mut self, n: u64) -> Budget {
        // `n = 0` trips the next checkpoint like `n = 1`; clamping keeps
        // `trip_at - 1` equal to the checkpoints completed before it.
        self.trip_at = Some(self.steps().saturating_add(n.max(1)));
        self
    }

    /// The budget's cancel token (clone to hand to other parties).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Checkpoints passed so far.
    pub fn steps(&self) -> u64 {
        self.counters.steps.load(Ordering::Relaxed)
    }

    /// Tuples charged so far.
    pub fn tuples(&self) -> u64 {
        self.counters.tuples.load(Ordering::Relaxed)
    }

    /// Wall-clock time left before the deadline (saturating at zero);
    /// `None` when no deadline is set.
    pub fn remaining_time(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Checkpoints left before the step limit trips (saturating at
    /// zero); `None` when no step limit is set.
    pub fn remaining_steps(&self) -> Option<u64> {
        self.step_limit.map(|l| l.saturating_sub(self.steps()))
    }

    /// Tuple charges left before the tuple limit trips (saturating at
    /// zero); `None` when no tuple limit is set.
    pub fn remaining_tuples(&self) -> Option<u64> {
        self.tuple_limit.map(|l| l.saturating_sub(self.tuples()))
    }

    /// A fresh budget at least as strict as both arguments: its deadline
    /// is the earlier of the two, and each counter limit is the smaller
    /// *remaining* allowance (a half-spent budget contributes only what
    /// it has left). Counters start at zero; cancellation authority comes
    /// from `a` — the combined budget observes `a`'s [`CancelToken`], so
    /// pass the governing (e.g. server-side) budget first and the
    /// advisory (e.g. client-requested) one second.
    ///
    /// This is how a service clamps a client-requested deadline against
    /// its own caps without reaching into either budget's fields.
    #[must_use]
    pub fn min_of(a: &Budget, b: &Budget) -> Budget {
        fn opt_min<T: Ord>(x: Option<T>, y: Option<T>) -> Option<T> {
            match (x, y) {
                (Some(x), Some(y)) => Some(x.min(y)),
                (x, None) => x,
                (None, y) => y,
            }
        }
        let remaining_trip =
            |budget: &Budget| budget.trip_at.map(|at| at.saturating_sub(budget.steps()));
        Budget {
            counters: Arc::new(Counters::default()),
            cancel: a.cancel.clone(),
            started: Instant::now(),
            deadline: opt_min(a.deadline, b.deadline),
            step_limit: opt_min(a.remaining_steps(), b.remaining_steps()),
            tuple_limit: opt_min(a.remaining_tuples(), b.remaining_tuples()),
            trip_at: opt_min(remaining_trip(a), remaining_trip(b)),
        }
    }

    /// Whether this budget can ever trip (false for a plain
    /// [`Budget::unlimited`] with no cancel requested).
    pub fn is_limited(&self) -> bool {
        self.deadline.is_some()
            || self.step_limit.is_some()
            || self.tuple_limit.is_some()
            || self.trip_at.is_some()
    }

    /// Snapshot of work done so far.
    pub fn work_done(&self) -> WorkStats {
        WorkStats {
            steps: self.steps(),
            tuples: self.tuples(),
            elapsed: self.started.elapsed(),
        }
    }

    /// Builds the structured outcome for a trip observed now.
    fn exhausted(&self, reason: ExhaustReason, partial: &dyn fmt::Display) -> Exhausted {
        Exhausted {
            reason,
            work_done: self.work_done(),
            partial: partial.to_string(),
        }
    }

    /// Records one unit of work and enforces every limit. Call at loop
    /// boundaries with a description of progress so far; the description
    /// is only rendered when the budget actually trips.
    pub fn checkpoint_with(
        &self,
        partial: &dyn fmt::Display,
    ) -> Result<(), Exhausted> {
        let steps = self.counters.steps.fetch_add(1, Ordering::Relaxed) + 1;
        // A tripped checkpoint is not completed work: report `steps - 1`,
        // or the last checkpoint the limit allows when that is lower.
        // Clones share the counter, so a sibling thread may have tripped
        // first and pushed `steps` past the limit; every checkpoint past
        // it failed, so the completed work is the limit for all of them.
        let trip = |reason, allowed: u64| {
            let mut e = self.exhausted(reason, partial);
            e.work_done.steps = (steps - 1).min(allowed);
            e
        };
        if let Some(at) = self.trip_at {
            if steps >= at {
                return Err(trip(ExhaustReason::FaultInjected, at.saturating_sub(1)));
            }
        }
        if let Some(limit) = self.step_limit {
            if steps > limit {
                return Err(trip(ExhaustReason::StepLimit, limit));
            }
        }
        if self.cancel.is_canceled() {
            return Err(trip(ExhaustReason::Canceled, u64::MAX));
        }
        if let Some(deadline) = self.deadline {
            if steps.is_multiple_of(DEADLINE_STRIDE) && Instant::now() >= deadline {
                return Err(trip(ExhaustReason::Deadline, u64::MAX));
            }
        }
        Ok(())
    }

    /// [`Budget::checkpoint_with`] without a progress description.
    pub fn checkpoint(&self) -> Result<(), Exhausted> {
        self.checkpoint_with(&"")
    }

    /// Charges `n` materialized tuples against the tuple limit.
    pub fn charge_tuples(
        &self,
        n: u64,
        partial: &dyn fmt::Display,
    ) -> Result<(), Exhausted> {
        let tuples = self.counters.tuples.fetch_add(n, Ordering::Relaxed) + n;
        if let Some(limit) = self.tuple_limit {
            if tuples > limit {
                return Err(self.exhausted(ExhaustReason::TupleLimit, partial));
            }
        }
        Ok(())
    }
}

impl Default for Budget {
    fn default() -> Self {
        Budget::unlimited()
    }
}

/// Workspace-level error type: what budgeted public entry points return
/// instead of panicking.
#[derive(Clone, Debug)]
pub enum VqdError {
    /// A resource budget tripped; partial progress is inside.
    Exhausted(Box<Exhausted>),
    /// Source text failed to parse.
    Parse(String),
    /// Two artifacts that must share a schema do not.
    SchemaMismatch {
        /// Entry point that rejected the input.
        context: &'static str,
        /// What the entry point required.
        expected: String,
        /// What it was given.
        found: String,
    },
    /// Structurally invalid input (unsafe query, non-CQ view, arity
    /// clash, …).
    InvalidInput {
        /// Entry point that rejected the input.
        context: &'static str,
        /// Why.
        message: String,
    },
    /// A Datalog program recursed through negation.
    NotStratifiable(String),
}

impl fmt::Display for VqdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VqdError::Exhausted(e) => write!(f, "{e}"),
            VqdError::Parse(msg) => write!(f, "parse error: {msg}"),
            VqdError::SchemaMismatch { context, expected, found } => {
                write!(f, "{context}: schema mismatch (expected {expected}, found {found})")
            }
            VqdError::InvalidInput { context, message } => {
                write!(f, "{context}: invalid input: {message}")
            }
            VqdError::NotStratifiable(msg) => write!(f, "not stratifiable: {msg}"),
        }
    }
}

impl std::error::Error for VqdError {}

impl From<Exhausted> for VqdError {
    fn from(e: Exhausted) -> Self {
        VqdError::Exhausted(Box::new(e))
    }
}

impl VqdError {
    /// The [`Exhausted`] payload, if this is an exhaustion.
    pub fn as_exhausted(&self) -> Option<&Exhausted> {
        match self {
            VqdError::Exhausted(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
#[allow(clippy::expect_used)] // tests may assert on trips directly
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let b = Budget::unlimited();
        for _ in 0..10_000 {
            assert!(b.checkpoint().is_ok());
        }
        assert!(!b.is_limited());
        assert_eq!(b.work_done().steps, 10_000);
    }

    #[test]
    fn step_limit_trips_exactly() {
        let b = Budget::unlimited().with_step_limit(5);
        for _ in 0..5 {
            assert!(b.checkpoint().is_ok());
        }
        let e = b.checkpoint_with(&"halfway").expect_err("budget must trip");
        assert_eq!(e.reason, ExhaustReason::StepLimit);
        assert_eq!(e.work_done.steps, 5);
        assert_eq!(e.partial, "halfway");
    }

    #[test]
    fn trip_after_is_relative_to_now() {
        let b = Budget::unlimited();
        for _ in 0..3 {
            b.checkpoint().map_err(|e| panic!("{e}")).ok();
        }
        let b = b.trip_after(2);
        assert!(b.checkpoint().is_ok());
        let e = b.checkpoint().expect_err("budget must trip");
        assert_eq!(e.reason, ExhaustReason::FaultInjected);
    }

    #[test]
    fn concurrent_trips_report_the_same_completed_work() {
        // Two clones race through one shared counter: whichever thread
        // trips, and however far the other pushed the count, every trip
        // reports exactly the checkpoints the limit allowed.
        for (budget, completed) in [
            (Budget::unlimited().trip_after(40), 39),
            (Budget::unlimited().with_step_limit(40), 40),
        ] {
            let reports: Vec<u64> = std::thread::scope(|s| {
                let workers: Vec<_> = (0..2)
                    .map(|_| {
                        let b = budget.clone();
                        s.spawn(move || {
                            (0..1000)
                                .filter_map(|_| b.checkpoint().err())
                                .map(|e| e.work_done.steps)
                                .collect::<Vec<u64>>()
                        })
                    })
                    .collect();
                workers.into_iter().flat_map(|w| w.join().expect("worker")).collect()
            });
            assert!(!reports.is_empty());
            assert!(reports.iter().all(|&r| r == completed), "{reports:?}");
        }
    }

    #[test]
    fn tuple_limit_counts_charges() {
        let b = Budget::unlimited().with_tuple_limit(10);
        assert!(b.charge_tuples(6, &"").is_ok());
        assert!(b.charge_tuples(4, &"").is_ok());
        let e = b.charge_tuples(1, &"11 tuples").expect_err("budget must trip");
        assert_eq!(e.reason, ExhaustReason::TupleLimit);
        assert_eq!(e.work_done.tuples, 11);
    }

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let b = Budget::unlimited();
        let clone = b.clone();
        b.cancel_token().cancel();
        let e = clone.checkpoint().expect_err("budget must trip");
        assert_eq!(e.reason, ExhaustReason::Canceled);
    }

    #[test]
    fn clones_share_counters() {
        let b = Budget::unlimited().with_step_limit(4);
        let w1 = b.clone();
        let w2 = b.clone();
        assert!(w1.checkpoint().is_ok());
        assert!(w2.checkpoint().is_ok());
        assert!(w1.checkpoint().is_ok());
        assert!(w2.checkpoint().is_ok());
        assert!(w1.checkpoint().is_err() || w2.checkpoint().is_err());
    }

    #[test]
    fn deadline_trips_on_stride() {
        let b = Budget::unlimited().with_deadline(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(2));
        let mut tripped = None;
        for _ in 0..=super::DEADLINE_STRIDE {
            if let Err(e) = b.checkpoint() {
                tripped = Some(e);
                break;
            }
        }
        let e = tripped.unwrap_or_else(|| panic!("deadline never observed"));
        assert_eq!(e.reason, ExhaustReason::Deadline);
    }

    #[test]
    fn remaining_accessors_saturate() {
        let b = Budget::unlimited();
        assert_eq!(b.remaining_steps(), None);
        assert_eq!(b.remaining_time(), None);
        assert_eq!(b.remaining_tuples(), None);
        let b = Budget::unlimited().with_step_limit(3).with_tuple_limit(2);
        assert_eq!(b.remaining_steps(), Some(3));
        b.checkpoint().expect("within budget");
        assert_eq!(b.remaining_steps(), Some(2));
        b.charge_tuples(2, &"").expect("within budget");
        assert_eq!(b.remaining_tuples(), Some(0));
        for _ in 0..2 {
            b.checkpoint().expect("within budget");
        }
        assert!(b.checkpoint().is_err());
        assert_eq!(b.remaining_steps(), Some(0));
        let b = Budget::unlimited().with_deadline(Duration::from_secs(60));
        let left = b.remaining_time().expect("deadline set");
        assert!(left <= Duration::from_secs(60) && left > Duration::from_secs(50));
    }

    #[test]
    fn min_of_takes_stricter_limits() {
        let a = Budget::unlimited()
            .with_deadline(Duration::from_secs(3600))
            .with_step_limit(10);
        for _ in 0..4 {
            a.checkpoint().expect("within budget");
        }
        let b = Budget::unlimited()
            .with_deadline(Duration::from_secs(1))
            .with_step_limit(100)
            .with_tuple_limit(7);
        let c = Budget::min_of(&a, &b);
        // Deadline from b (earlier), steps from a's *remaining* 6,
        // tuples from b (a has none), counters fresh.
        assert!(c.remaining_time().expect("deadline") <= Duration::from_secs(1));
        assert_eq!(c.remaining_steps(), Some(6));
        assert_eq!(c.remaining_tuples(), Some(7));
        assert_eq!(c.steps(), 0);
        for _ in 0..6 {
            c.checkpoint().expect("within combined budget");
        }
        let e = c.checkpoint().expect_err("combined limit must trip");
        assert_eq!(e.reason, ExhaustReason::StepLimit);
        // a's counters were not drawn down by c.
        assert_eq!(a.steps(), 4);
    }

    #[test]
    fn min_of_cancel_authority_is_first_argument() {
        let a = Budget::unlimited();
        let b = Budget::unlimited();
        let c = Budget::min_of(&a, &b);
        b.cancel_token().cancel();
        assert!(c.checkpoint().is_ok(), "b has no cancel authority");
        a.cancel_token().cancel();
        let e = c.checkpoint().expect_err("a's cancellation must be observed");
        assert_eq!(e.reason, ExhaustReason::Canceled);
    }

    #[test]
    fn min_of_combines_trip_points() {
        let a = Budget::unlimited().trip_after(5);
        let b = Budget::unlimited().trip_after(2);
        let c = Budget::min_of(&a, &b);
        assert!(c.checkpoint().is_ok());
        let e = c.checkpoint().expect_err("earlier trip point wins");
        assert_eq!(e.reason, ExhaustReason::FaultInjected);
    }

    #[test]
    fn error_displays_are_informative() {
        let b = Budget::unlimited().with_step_limit(0);
        let e = b.checkpoint_with(&"scanned 0 of 9").expect_err("budget must trip");
        let msg = VqdError::from(e).to_string();
        assert!(msg.contains("step limit"));
        assert!(msg.contains("scanned 0 of 9"));
        let sm = VqdError::SchemaMismatch {
            context: "check_exhaustive",
            expected: "{E/2}".into(),
            found: "{P/1}".into(),
        };
        assert!(sm.to_string().contains("check_exhaustive"));
    }
}

//! # vqd-exec — intra-request parallel execution
//!
//! A small std-only executor that fans one library call's shards out
//! across scoped threads, under the governance contract the rest of the
//! workspace already obeys. Only CQ evaluation (`eval_cq_rows`) fans
//! out; the server never does (DESIGN.md §17).
//!
//! * **Bounded, call-scoped threads.** [`ExecCtx::run_shards`] spawns
//!   at most [`ExecPool::threads`] helpers with [`std::thread::scope`];
//!   they and the caller claim shards from one atomic cursor, and every
//!   helper is joined before the call returns. No thread outlives a
//!   call, and nested fan-out cannot deadlock.
//! * **One budget.** Every shard draws down the *same* shared
//!   [`Budget`] (its counters are `Arc`-shared atomics), so a step or
//!   tuple limit trips exactly once process-wide, the tripping shard's
//!   [`Exhausted`] carries the exact total work, and siblings are
//!   stopped through the budget's own [`CancelToken`](vqd_budget::CancelToken).
//! * **Deterministic merge.** [`ExecCtx::run_shards`] returns shard
//!   results in shard-index order regardless of completion order, so a
//!   parallel run is byte-identical to the sequential one whenever the
//!   per-shard work is (the hom search shards along a canonical
//!   boundary: its root candidates).
//! * **Exact observability.** Engine counters are per-thread cells
//!   ([`MetricsSnapshot`]); work done on a helper thread would be
//!   invisible to the serving thread's profile diff. Each helper hands
//!   its counters back when it is joined and the executor *absorbs* the
//!   sum into the calling thread, so a profiled parallel request
//!   reports the same engine counters as its sequential twin (modulo
//!   the per-shard root-level bookkeeping documented in DESIGN.md §17).
//!
//! The entry point for engines is [`ExecCtx`], carried through the
//! engine APIs via the [`ExecInput`] trait: existing call sites that
//! pass `&Budget` keep compiling (and stay sequential); callers that
//! want fan-out pass an [`ExecCtx`] instead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::iter;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::thread;

use vqd_budget::{Budget, ExhaustReason, Exhausted};
use vqd_obs::MetricsSnapshot;

/// Acquires a mutex, ignoring poisoning: the trip slot stays readable
/// even if a sibling shard panicked (the panic is re-raised after the
/// join, and the guarded value is valid at every instruction).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The width of intra-call fan-out: how many helper threads one
/// [`ExecCtx::run_shards`] call may spawn next to its caller.
///
/// It starts no thread itself. Helpers are scoped to the call that
/// spawns them, so a pool holds no state but its width.
#[derive(Debug)]
pub struct ExecPool {
    threads: usize,
}

impl ExecPool {
    /// A pool of `threads` helpers per call (clamped to ≥ 1).
    pub fn new(threads: usize) -> ExecPool {
        ExecPool { threads: threads.max(1) }
    }

    /// Most helper threads one call spawns.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The process-wide default pool, sized to the machine's available
    /// parallelism.
    pub fn global() -> &'static Arc<ExecPool> {
        static GLOBAL: OnceLock<Arc<ExecPool>> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let n = thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
            Arc::new(ExecPool::new(n))
        })
    }
}

/// The execution context threaded through the core engines: one shared
/// [`Budget`] plus an optional degree of intra-request parallelism.
///
/// Cloning is cheap (`Arc` bumps) and shares the budget counters, the
/// pool, and the `threads_used` attribution cell.
#[derive(Clone, Debug)]
pub struct ExecCtx {
    budget: Budget,
    parallelism: usize,
    pool: Option<Arc<ExecPool>>,
    threads_used: Arc<AtomicU64>,
}

impl ExecCtx {
    /// A sequential context: engines behave exactly as if handed the
    /// bare budget.
    pub fn sequential(budget: Budget) -> ExecCtx {
        ExecCtx { budget, parallelism: 1, pool: None, threads_used: Arc::new(AtomicU64::new(0)) }
    }

    /// A context that fans out across up to `parallelism` shards on the
    /// process-wide [`ExecPool::global`] pool. `parallelism <= 1` is
    /// sequential.
    pub fn with_parallelism(budget: Budget, parallelism: usize) -> ExecCtx {
        if parallelism <= 1 {
            return ExecCtx::sequential(budget);
        }
        ExecCtx::on_pool(budget, parallelism, Arc::clone(ExecPool::global()))
    }

    /// A context that fans out on a specific pool.
    pub fn on_pool(budget: Budget, parallelism: usize, pool: Arc<ExecPool>) -> ExecCtx {
        if parallelism <= 1 {
            return ExecCtx::sequential(budget);
        }
        ExecCtx { budget, parallelism, pool: Some(pool), threads_used: Arc::new(AtomicU64::new(0)) }
    }

    /// The budget every shard draws down.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// The requested degree of parallelism (1 = sequential).
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Whether [`run_shards`](Self::run_shards) can actually fan out.
    pub fn is_parallel(&self) -> bool {
        self.parallelism > 1 && self.pool.is_some()
    }

    /// Widest fan-out any `run_shards` call on this context performed
    /// (0 when everything ran sequentially) — the wire `threads_used`.
    pub fn threads_used(&self) -> u64 {
        self.threads_used.load(Ordering::Relaxed)
    }

    /// Runs `run(0..shards)` and returns the results **in shard-index
    /// order** (the deterministic-merge guarantee).
    ///
    /// Sequential contexts (or `shards <= 1`) run the shards inline, in
    /// order, short-circuiting on the first `Err` — exactly the code a
    /// hand-written loop would be. Parallel contexts spawn up to
    /// `min(width - 1, pool.threads())` scoped helpers, and the helpers
    /// and the calling thread claim shards from one cursor; every
    /// helper is joined before this returns. On the first shard error
    /// the budget's [`CancelToken`](vqd_budget::CancelToken) is
    /// cancelled so sibling shards stop at their next checkpoint, and
    /// the winning error is the first *non-cancellation* trip (a
    /// sibling's induced `Canceled` never masks the root cause). Helper
    /// threads' engine counters are absorbed into the calling thread
    /// before returning, keeping profiles exact. A shard panic is
    /// resumed on the caller, with its payload, after the join.
    pub fn run_shards<R: Send>(
        &self,
        shards: usize,
        run: impl Fn(usize) -> Result<R, Exhausted> + Sync,
    ) -> Result<Vec<R>, Exhausted> {
        let width = self.parallelism.min(shards);
        let pool = match &self.pool {
            Some(pool) if width > 1 => pool,
            _ => return (0..shards).map(run).collect(),
        };
        self.threads_used.fetch_max(width as u64, Ordering::Relaxed);
        let next = AtomicUsize::new(0);
        let tripped: Mutex<Option<Exhausted>> = Mutex::new(None);
        let cancel = self.budget.cancel_token();
        // Claims shards until the cursor runs out, keeping each success
        // with its index.
        let claim = || {
            let mut done = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= shards {
                    return done;
                }
                match run(i) {
                    Ok(r) => done.push((i, r)),
                    Err(e) => {
                        let mut winner = lock(&tripped);
                        let replace = match &*winner {
                            None => true,
                            Some(prev) => {
                                prev.reason == ExhaustReason::Canceled
                                    && e.reason != ExhaustReason::Canceled
                            }
                        };
                        if replace {
                            *winner = Some(e);
                        }
                        drop(winner);
                        cancel.cancel();
                    }
                }
            }
        };
        let mut slots: Vec<Option<R>> = (0..shards).map(|_| None).collect();
        let mut foreign = MetricsSnapshot::default();
        thread::scope(|s| {
            // A spawn that fails leaves its shards to the others.
            let helpers: Vec<_> = (0..(width - 1).min(pool.threads()))
                .filter_map(|_| {
                    thread::Builder::new()
                        .name("vqd-exec".into())
                        // A fresh thread's counters start at zero, so
                        // its final snapshot is its whole delta.
                        .spawn_scoped(s, || (claim(), MetricsSnapshot::capture()))
                        .ok()
                })
                .collect();
            // The caller's own counters are already on this thread.
            let mine =
                panic::catch_unwind(AssertUnwindSafe(|| (claim(), MetricsSnapshot::default())));
            // Join explicitly: `scope` would replace a helper's panic
            // payload with its own.
            for outcome in iter::once(mine).chain(helpers.into_iter().map(|h| h.join())) {
                let (done, counters) = outcome.unwrap_or_else(|p| panic::resume_unwind(p));
                foreign.add(&counters);
                for (i, r) in done {
                    slots[i] = Some(r);
                }
            }
        });
        if !foreign.is_zero() {
            vqd_obs::absorb(&foreign);
        }
        if let Some(e) = lock(&tripped).take() {
            return Err(e);
        }
        Ok(slots
            .into_iter()
            .map(|slot| slot.expect("every shard ran to completion without a trip"))
            .collect())
    }
}

/// The context parameter accepted by the core engines.
///
/// Implemented for [`Budget`] (sequential — every pre-existing call
/// site keeps compiling and behaving identically) and for [`ExecCtx`]
/// (parallelism opt-in). The same playbook as `vqd-eval`'s `EvalInput`:
/// generalize the parameter type instead of forking the API.
pub trait ExecInput {
    /// The budget governing the computation.
    fn budget(&self) -> &Budget;

    /// The execution context, when the caller supplied one; `None`
    /// means sequential evaluation.
    fn exec(&self) -> Option<&ExecCtx> {
        None
    }
}

impl ExecInput for Budget {
    fn budget(&self) -> &Budget {
        self
    }
}

impl ExecInput for ExecCtx {
    fn budget(&self) -> &Budget {
        &self.budget
    }

    fn exec(&self) -> Option<&ExecCtx> {
        Some(self)
    }
}

impl<T: ExecInput + ?Sized> ExecInput for &T {
    fn budget(&self) -> &Budget {
        (**self).budget()
    }

    fn exec(&self) -> Option<&ExecCtx> {
        (**self).exec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use vqd_obs::Metric;

    #[test]
    fn sequential_context_runs_in_order_inline() {
        let cx = ExecCtx::sequential(Budget::unlimited());
        assert!(!cx.is_parallel());
        let order = Mutex::new(Vec::new());
        let out = cx
            .run_shards(5, |i| {
                lock(&order).push(i);
                Ok(i * 10)
            })
            .unwrap();
        assert_eq!(out, vec![0, 10, 20, 30, 40]);
        assert_eq!(*lock(&order), vec![0, 1, 2, 3, 4]);
        assert_eq!(cx.threads_used(), 0);
    }

    #[test]
    fn parallel_results_arrive_in_shard_order() {
        let pool = Arc::new(ExecPool::new(4));
        let cx = ExecCtx::on_pool(Budget::unlimited(), 4, pool);
        for _ in 0..16 {
            let out = cx.run_shards(8, Ok).unwrap();
            assert_eq!(out, (0..8).collect::<Vec<_>>());
        }
        assert_eq!(cx.threads_used(), 4);
    }

    #[test]
    fn shard_trip_surfaces_one_exhausted_with_exact_steps() {
        let pool = Arc::new(ExecPool::new(4));
        let budget = Budget::unlimited().with_step_limit(10);
        let cx = ExecCtx::on_pool(budget.clone(), 4, pool);
        let err = cx
            .run_shards(4, |i| -> Result<(), Exhausted> {
                loop {
                    cx.budget().checkpoint_with(&format_args!("shard {i}"))?;
                }
            })
            .unwrap_err();
        assert_eq!(err.reason, ExhaustReason::StepLimit);
        // Exactly one shard observed the tripping checkpoint; its
        // work_done reports the shared total at that moment.
        assert_eq!(err.work_done.steps, 10);
    }

    #[test]
    fn sibling_cancel_never_masks_the_root_cause() {
        let pool = Arc::new(ExecPool::new(4));
        for _ in 0..8 {
            let budget = Budget::unlimited().with_step_limit(50);
            let cx = ExecCtx::on_pool(budget, 4, Arc::clone(&pool));
            let err = cx
                .run_shards(4, |i| -> Result<(), Exhausted> {
                    loop {
                        cx.budget().checkpoint_with(&format_args!("shard {i}"))?;
                        std::thread::yield_now();
                    }
                })
                .unwrap_err();
            assert_eq!(err.reason, ExhaustReason::StepLimit);
        }
    }

    #[test]
    fn external_cancel_stops_all_shards() {
        let pool = Arc::new(ExecPool::new(2));
        let budget = Budget::unlimited();
        budget.cancel_token().cancel();
        let cx = ExecCtx::on_pool(budget, 2, pool);
        let err = cx
            .run_shards(2, |_| -> Result<(), Exhausted> {
                loop {
                    cx.budget().checkpoint()?;
                }
            })
            .unwrap_err();
        assert_eq!(err.reason, ExhaustReason::Canceled);
    }

    #[test]
    fn foreign_shard_metrics_are_absorbed_into_the_caller() {
        let pool = Arc::new(ExecPool::new(4));
        let cx = ExecCtx::on_pool(Budget::unlimited(), 4, pool);
        let before = MetricsSnapshot::capture();
        cx.run_shards(8, |_| {
            vqd_obs::count(Metric::HomCandidatesTried, 3);
            Ok(())
        })
        .unwrap();
        let delta = MetricsSnapshot::capture().diff(&before);
        assert_eq!(delta.get(Metric::HomCandidatesTried), 24);
    }

    #[test]
    fn shard_panic_resumes_on_the_caller_after_the_join() {
        let pool = Arc::new(ExecPool::new(2));
        let cx = ExecCtx::on_pool(Budget::unlimited(), 2, Arc::clone(&pool));
        let ran = AtomicUsize::new(0);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            let _ = cx.run_shards(4, |i| {
                ran.fetch_add(1, Ordering::Relaxed);
                if i == 1 {
                    panic!("shard bug");
                }
                Ok(())
            });
        }));
        assert!(caught.is_err());
        // Panics don't tear the pool down: it keeps serving batches.
        assert_eq!(ran.load(Ordering::Relaxed), 4);
        let out = cx.run_shards(4, Ok).unwrap();
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn budget_exec_input_is_sequential_and_ctx_is_itself() {
        let budget = Budget::unlimited();
        assert!(budget.exec().is_none());
        assert_eq!(budget.budget().steps(), 0);
        let cx = ExecCtx::with_parallelism(Budget::unlimited(), 2);
        assert!(cx.exec().is_some());
        let seq = ExecCtx::with_parallelism(Budget::unlimited(), 1);
        assert!(!seq.is_parallel());
    }

    #[test]
    fn nested_fan_out_makes_progress_even_on_a_tiny_pool() {
        let pool = Arc::new(ExecPool::new(1));
        let outer = ExecCtx::on_pool(Budget::unlimited(), 2, Arc::clone(&pool));
        let total: usize = outer
            .run_shards(2, |i| {
                let inner = ExecCtx::on_pool(Budget::unlimited(), 2, Arc::clone(&pool));
                let inner_sum: usize =
                    inner.run_shards(3, |j| Ok(i * 3 + j)).unwrap().into_iter().sum();
                Ok(inner_sum)
            })
            .unwrap()
            .into_iter()
            .sum();
        assert_eq!(total, (0..6).sum());
    }

    #[test]
    fn empty_and_single_shard_batches_are_trivial() {
        let cx = ExecCtx::with_parallelism(Budget::unlimited(), 4);
        let none: Vec<u8> = cx.run_shards(0, |_| Ok(0)).unwrap();
        assert!(none.is_empty());
        let one = cx.run_shards(1, |i| Ok(i + 7)).unwrap();
        assert_eq!(one, vec![7]);
        // A single shard never counts as fan-out.
        assert_eq!(one.len(), 1);
    }

    #[test]
    fn fan_out_runs_on_the_caller_and_at_most_pool_threads_helpers() {
        // (pool threads, parallelism, shards): a wide request on a small
        // pool, then engine-batch's `Certain(2)` shape.
        for (threads, parallelism, shards) in [(2, 8, 8), (1, 2, 6)] {
            let pool = Arc::new(ExecPool::new(threads));
            let cx = ExecCtx::on_pool(Budget::unlimited(), parallelism, pool);
            let seen = Mutex::new(std::collections::HashSet::new());
            let out = cx
                .run_shards(shards, |i| {
                    lock(&seen).insert(thread::current().id());
                    // Long enough that every spawned helper claims a shard.
                    thread::sleep(std::time::Duration::from_millis(5));
                    Ok(i)
                })
                .unwrap();
            assert_eq!(out, (0..shards).collect::<Vec<_>>());
            let used = lock(&seen).len();
            assert!(used <= threads + 1, "{used} threads ran shards on a {threads}-thread pool");
            assert_eq!(cx.threads_used(), parallelism as u64);
        }
    }
}

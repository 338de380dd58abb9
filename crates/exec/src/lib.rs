//! # vqd-exec — intra-request parallel execution
//!
//! A small std-only work-sharing executor that fans one library call's
//! work out across a fixed thread pool, under the governance contract
//! the rest of the workspace already obeys. Only CQ evaluation
//! (`eval_cq_rows`) fans out; the server never does (DESIGN.md §17).
//!
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
//!   ([`MetricsSnapshot`]); work done on pool threads would be invisible
//!   to the serving thread's profile diff. The executor snapshots each
//!   foreign shard's counter delta and *absorbs* the sum back into the
//!   calling thread after the join, so a profiled parallel request
//!   reports the same engine counters as its sequential twin (modulo
//!   the per-shard root-level bookkeeping documented in DESIGN.md §17).
//!
//! The entry point for engines is [`ExecCtx`], carried through the
//! engine APIs via the [`ExecInput`] trait: existing call sites that
//! pass `&Budget` keep compiling (and stay sequential); callers that
//! want fan-out pass an [`ExecCtx`] instead.

#![warn(missing_docs)]

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread;

use vqd_budget::{Budget, ExhaustReason, Exhausted};
use vqd_obs::MetricsSnapshot;

/// Acquires a mutex, ignoring poisoning: shard state stays readable
/// even if a sibling panicked (the panic is re-raised after the join,
/// and every guarded value here is valid at every instruction).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

type Task = Box<dyn FnOnce() + Send>;

/// A task borrowing the submitting scope (see [`ExecPool::run_scoped`]).
pub type ScopedTask<'a> = Box<dyn FnOnce() + Send + 'a>;

/// One submitted group of tasks: a claim cursor (work-sharing), a
/// completion latch, and a first-panic slot.
struct Batch {
    tasks: Mutex<Vec<Option<Task>>>,
    next: AtomicUsize,
    len: usize,
    pending: Mutex<usize>,
    done: Condvar,
    panicked: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Batch {
    fn new(tasks: Vec<Task>) -> Batch {
        let len = tasks.len();
        Batch {
            tasks: Mutex::new(tasks.into_iter().map(Some).collect()),
            next: AtomicUsize::new(0),
            len,
            pending: Mutex::new(len),
            done: Condvar::new(),
            panicked: Mutex::new(None),
        }
    }

    /// Claims the next unclaimed task, if any. The cursor hands every
    /// index to exactly one claimant.
    fn claim(&self) -> Option<Task> {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.len {
                // Park the cursor so repeated polling cannot overflow.
                self.next.store(self.len, Ordering::Relaxed);
                return None;
            }
            if let Some(task) = lock(&self.tasks)[i].take() {
                return Some(task);
            }
        }
    }

    fn has_unclaimed(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.len
    }

    /// Runs one claimed task, containing panics, and releases the latch.
    fn run_one(&self, task: Task) {
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(task)) {
            let mut slot = lock(&self.panicked);
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        let mut pending = lock(&self.pending);
        *pending -= 1;
        if *pending == 0 {
            self.done.notify_all();
        }
    }

    /// Blocks until every task in the batch has finished running.
    fn wait(&self) {
        let mut pending = lock(&self.pending);
        while *pending > 0 {
            pending = self.done.wait(pending).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

/// Shared state between an [`ExecPool`]'s handle and its worker threads.
struct PoolInner {
    queue: Mutex<VecDeque<Arc<Batch>>>,
    ready: Condvar,
    shutdown: AtomicBool,
}

impl PoolInner {
    fn worker(self: &Arc<PoolInner>) {
        loop {
            let batch = {
                let mut queue = lock(&self.queue);
                loop {
                    if self.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    if let Some(batch) = queue.pop_front() {
                        break batch;
                    }
                    queue =
                        self.ready.wait(queue).unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            };
            if let Some(task) = batch.claim() {
                // Leave the rest of the batch visible to siblings while
                // this thread runs its claim.
                if batch.has_unclaimed() {
                    lock(&self.queue).push_back(Arc::clone(&batch));
                    self.ready.notify_one();
                }
                batch.run_one(task);
            }
        }
    }
}

/// A fixed pool of engine threads for intra-call fan-out.
///
/// Its threads run *shards of one call* and are shared by every caller
/// of the pool. Submission is batch-scoped —
/// [`run_scoped`](ExecPool::run_scoped) blocks until every closure in
/// the batch has run, with the calling thread participating, so borrows
/// of the caller's stack are sound and the pool can never deadlock on
/// its own submissions (even when nested: the caller always makes
/// progress on its own batch).
pub struct ExecPool {
    inner: Arc<PoolInner>,
    threads: usize,
    handles: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for ExecPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecPool").field("threads", &self.threads).finish()
    }
}

impl ExecPool {
    /// Spawns a pool with `threads` engine threads (clamped to ≥ 1).
    pub fn new(threads: usize) -> ExecPool {
        let threads = threads.max(1);
        let inner = Arc::new(PoolInner {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..threads)
            .map(|i| {
                let inner = Arc::clone(&inner);
                thread::Builder::new()
                    .name(format!("vqd-exec-{i}"))
                    .spawn(move || inner.worker())
                    .expect("spawn engine thread")
            })
            .collect();
        ExecPool { inner, threads, handles: Mutex::new(handles) }
    }

    /// Number of engine threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The process-wide default pool, sized to the machine's available
    /// parallelism, created on first use.
    pub fn global() -> &'static Arc<ExecPool> {
        static GLOBAL: OnceLock<Arc<ExecPool>> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let n = thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
            Arc::new(ExecPool::new(n))
        })
    }

    /// Runs every closure to completion, sharing them between the pool's
    /// threads and the calling thread, and blocks until all have run.
    /// If any closure panicked, the first panic is resumed on the caller
    /// after the join (so shard panics surface exactly like sequential
    /// ones).
    pub fn run_scoped<'a>(&self, tasks: Vec<ScopedTask<'a>>) {
        if tasks.is_empty() {
            return;
        }
        // SAFETY: the boxed closures only borrow data that outlives this
        // call. Every task is run to completion before `run_scoped`
        // returns: the caller claims from its own batch until the
        // cursor is exhausted and then waits on the batch latch, which
        // is released only after the last task finished running (the
        // latch decrement is unconditional, panics included). Erasing
        // the lifetime to `'static` is therefore sound — no task (or
        // borrow inside it) survives the borrowed scope.
        let tasks: Vec<Task> =
            unsafe { std::mem::transmute::<Vec<ScopedTask<'a>>, Vec<Task>>(tasks) };
        let batch = Arc::new(Batch::new(tasks));
        {
            let mut queue = lock(&self.inner.queue);
            queue.push_back(Arc::clone(&batch));
        }
        self.inner.ready.notify_all();
        // The caller participates on its own batch only — never on the
        // shared queue, where a foreign long-running shard could block
        // this request indefinitely.
        while let Some(task) = batch.claim() {
            batch.run_one(task);
        }
        batch.wait();
        let payload = lock(&batch.panicked).take();
        if let Some(payload) = payload {
            panic::resume_unwind(payload);
        }
    }
}

impl Drop for ExecPool {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.ready.notify_all();
        for handle in lock(&self.handles).drain(..) {
            let _ = handle.join();
        }
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
    /// hand-written loop would be. Parallel contexts share the shards
    /// between the calling thread and the pool; on the first shard
    /// error the budget's [`CancelToken`](vqd_budget::CancelToken) is cancelled so sibling
    /// shards stop at their next checkpoint, and the winning error is
    /// the first *non-cancellation* trip (a sibling's induced
    /// `Canceled` never masks the root cause). Foreign-thread engine
    /// counter deltas are absorbed into the calling thread before
    /// returning, keeping profiles exact.
    pub fn run_shards<R: Send>(
        &self,
        shards: usize,
        run: impl Fn(usize) -> Result<R, Exhausted> + Sync,
    ) -> Result<Vec<R>, Exhausted> {
        if shards == 0 {
            return Ok(Vec::new());
        }
        let width = self.parallelism.min(shards);
        let pool = match &self.pool {
            Some(pool) if width > 1 => pool,
            _ => {
                let mut out = Vec::with_capacity(shards);
                for i in 0..shards {
                    out.push(run(i)?);
                }
                return Ok(out);
            }
        };
        self.threads_used.fetch_max(width as u64, Ordering::Relaxed);
        let caller = thread::current().id();
        let slots: Vec<Mutex<Option<R>>> = (0..shards).map(|_| Mutex::new(None)).collect();
        let tripped: Mutex<Option<Exhausted>> = Mutex::new(None);
        let foreign = Mutex::new(MetricsSnapshot::default());
        let cancel = self.budget.cancel_token();
        let run = &run;
        let slots_ref = &slots;
        let tripped_ref = &tripped;
        let foreign_ref = &foreign;
        let cancel_ref = &cancel;
        let tasks: Vec<ScopedTask<'_>> = (0..shards)
            .map(|i| {
                Box::new(move || {
                    let on_caller = thread::current().id() == caller;
                    let before = (!on_caller).then(MetricsSnapshot::capture);
                    let result = run(i);
                    if let Some(before) = before {
                        let delta = MetricsSnapshot::capture().diff(&before);
                        if !delta.is_zero() {
                            lock(foreign_ref).add(&delta);
                        }
                    }
                    match result {
                        Ok(r) => *lock(&slots_ref[i]) = Some(r),
                        Err(e) => {
                            let mut winner = lock(tripped_ref);
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
                            cancel_ref.cancel();
                        }
                    }
                }) as ScopedTask<'_>
            })
            .collect();
        pool.run_scoped(tasks);
        let delta = *lock(&foreign);
        if !delta.is_zero() {
            vqd_obs::absorb(&delta);
        }
        if let Some(e) = lock(&tripped).take() {
            return Err(e);
        }
        Ok(slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .expect("every shard ran to completion without a trip")
            })
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
}

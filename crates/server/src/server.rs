//! The TCP service: a readiness-driven connection layer over the
//! bounded worker pool.
//!
//! Threading model (all `std`; readiness comes from the [`netpoll`]
//! shim over `poll(2)`):
//!
//! * a small fixed set of **I/O event loops** (`caps.io_threads`)
//!   multiplexes *all* connections over non-blocking sockets — loop 0
//!   also owns the listener and distributes accepted connections
//!   round-robin; an idle connection costs a poll-set entry, not a
//!   thread, and consumes zero CPU between readiness events;
//! * `workers` **worker** threads execute requests under clamped
//!   budgets and hand each reply, with the request's record, back to
//!   the owning loop through a callback + waker.
//!
//! **Pipelining, in order.** A client may write any number of request
//! lines before reading replies. Each parsed line gets a per-connection
//! sequence number; completions may arrive out of order (jobs run on
//! whichever worker frees up first) and are reordered in a per-
//! connection [`BTreeMap`] so replies always leave in request order.
//! Per-request `profile`/`trace` attribution is untouched by
//! pipelining: workers still serve one job at a time, so the
//! thread-local counter diff in the pool stays exact.
//!
//! **Backpressure, two tiers, both structured.** More than
//! `caps.max_inflight_per_conn` outstanding requests on one connection,
//! or a full worker queue, degrade to `overloaded` replies; more than
//! `caps.max_conns` open connections degrade to an `overloaded` reply
//! on the excess connection followed by a clean close. A reader too
//! slow to drain its replies trips the bounded per-connection write
//! queue (`caps.max_writeq_bytes`): queued output is dropped, a typed
//! `timeout` error is sent, and the connection closes —
//! `server.conn_timeouts` counts it, exactly like the slowloris
//! partial-line guard (`caps.conn_read_timeout`), which also survives
//! unchanged.
//!
//! Per-request budgets are `min(client-requested limits, server caps)`
//! via [`Budget::min_of`], and every budget observes the server's
//! shutdown [`CancelToken`]: [`ServerHandle::shutdown`] (or a wire
//! [`Request::Shutdown`](crate::proto::Request::Shutdown)) trips the
//! token; loops stop accepting and reading, keep delivering in-flight
//! replies — which degrade to structured `exhausted (canceled)` with
//! partial progress — flush, then exit before the pool drains.

use crate::cache::{CacheConfig, InstanceCache};
use crate::engine::EngineCtx;
use crate::metrics::ServerSeries;
use crate::netpoll::{self, PollFd, WakeRx, Waker, POLLCLOSED, POLLIN, POLLOUT};
use crate::pool::{Job, Pool, QueueHandle, SubmitError};
use crate::proto::{Envelope, ErrorKind, Limits, Outcome, Response, WireMetrics, WireStats};
use crate::record::{PhaseHistograms, PhaseStamps, RequestRecord};
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vqd_budget::{Budget, CancelToken};

/// How long a draining loop waits for in-flight replies before closing
/// connections anyway. Canceled budgets trip at their next checkpoint,
/// so a drain normally completes in milliseconds; this is the backstop.
const DRAIN_GRACE: Duration = Duration::from_secs(30);

/// Read granularity of the event loop (per `read(2)` call).
const READ_CHUNK: usize = 16 * 1024;

/// Server-side resource caps applied to *every* request, whatever the
/// client asked for.
#[derive(Clone, Debug)]
pub struct ServerCaps {
    /// Hard wall-clock cap per request.
    pub max_deadline: Duration,
    /// Hard step cap per request (`None` = deadline-only).
    pub max_steps: Option<u64>,
    /// Hard tuple cap per request (`None` = deadline-only).
    pub max_tuples: Option<u64>,
    /// Cross-request instance cache sizing. Lives here (not in
    /// [`ServerConfig`]) so existing `ServerConfig` literals written
    /// against v1 keep compiling via `ServerCaps::default()`.
    pub cache: CacheConfig,
    /// Slow-client guard: how long a connection may sit on a *partial*
    /// request line before it is answered with a typed `timeout` error
    /// and dropped. Idle connections (no partial line) are unaffected.
    /// Doubles as the flush grace for a closing connection.
    pub conn_read_timeout: Duration,
    /// Enables the `debug_panic` op (worker-panic containment tests
    /// only). Off by default: production servers reply `unsupported`.
    pub enable_debug_ops: bool,
    /// I/O event-loop threads multiplexing all connections (minimum 1).
    pub io_threads: usize,
    /// Global open-connection limit: connections past it get a typed
    /// `overloaded` reply and a clean close at accept time.
    pub max_conns: usize,
    /// Pipelining cap: outstanding requests beyond this on a single
    /// connection get immediate `overloaded` replies (still delivered
    /// in request order).
    pub max_inflight_per_conn: usize,
    /// Bounded per-connection write queue: a reader that lets more than
    /// this many reply bytes pile up server-side gets a typed `timeout`
    /// and a close (`server.conn_timeouts` counts it).
    pub max_writeq_bytes: usize,
    /// Optional kernel send-buffer cap applied to accepted sockets.
    /// Bounding it makes slow-reader backpressure deterministic (tests);
    /// `None` leaves kernel autotuning alone.
    pub sock_sndbuf: Option<usize>,
    /// Slow-request log threshold: a request whose end-to-end latency
    /// (frame-complete to write-drained) reaches this many milliseconds
    /// is logged to stderr with its full phase breakdown. `None` (the
    /// default) disables the log.
    pub slow_log_ms: Option<u64>,
    /// Ignored, and kept only so existing configurations still build
    /// (`vqd-cli serve --engine-threads` is accepted and ignored too).
    /// Every request runs on the worker thread that dequeued it, so the
    /// server starts no engine threads.
    pub engine_threads: usize,
}

impl Default for ServerCaps {
    fn default() -> ServerCaps {
        ServerCaps {
            max_deadline: Duration::from_secs(10),
            max_steps: None,
            max_tuples: None,
            cache: CacheConfig::default(),
            conn_read_timeout: Duration::from_secs(10),
            enable_debug_ops: false,
            io_threads: 2,
            max_conns: 4096,
            max_inflight_per_conn: 64,
            max_writeq_bytes: 1 << 20,
            sock_sndbuf: None,
            slow_log_ms: None,
            engine_threads: 1,
        }
    }
}

/// Service configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Worker threads executing requests.
    pub workers: usize,
    /// Bounded queue depth; submissions beyond it are rejected with
    /// `overloaded`.
    pub queue_depth: usize,
    /// Per-request resource caps.
    pub caps: ServerCaps,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            queue_depth: 64,
            caps: ServerCaps::default(),
        }
    }
}

/// State shared by the event loops and workers.
struct Shared {
    /// Master budget: its cancel token *is* the shutdown signal; its
    /// counters are never advanced (per-request budgets are fresh).
    master: Budget,
    caps: ServerCaps,
    series: Arc<ServerSeries>,
    registry: Arc<vqd_obs::Registry>,
    /// The instance cache, shared with the worker pool's [`EngineCtx`]
    /// so tests can reach the disk tier (fault arming, segment paths)
    /// on a live server.
    cache: Arc<InstanceCache>,
    /// One waker per event loop; shutdown pokes them all so a loop
    /// parked in an indefinite `poll` observes the canceled token.
    wakers: Vec<Waker>,
    /// Total reply bytes queued (application-side) across every
    /// connection.
    writeq_bytes: Arc<vqd_obs::Gauge>,
    pipelined_depth: Arc<vqd_obs::Gauge>,
    /// Phase histograms, observed for every worker-served request.
    phases: PhaseHistograms,
}

impl Shared {
    fn new(caps: ServerCaps, ctx: &EngineCtx, wakers: Vec<Waker>) -> Shared {
        let registry = Arc::clone(&ctx.registry);
        Shared {
            master: Budget::unlimited(),
            caps,
            series: Arc::clone(&ctx.series),
            cache: Arc::clone(&ctx.cache),
            wakers,
            writeq_bytes: registry.gauge("server.writeq_bytes"),
            pipelined_depth: registry.gauge("server.pipelined_depth"),
            phases: PhaseHistograms::new(&registry),
            registry,
        }
    }

    /// `min(client limits, server caps)` with the shutdown token wired
    /// in as cancellation authority.
    fn clamp(&self, limits: &Limits) -> Budget {
        let mut cap = self.master.clone().with_deadline(self.caps.max_deadline);
        if let Some(s) = self.caps.max_steps {
            cap = cap.with_step_limit(s);
        }
        if let Some(t) = self.caps.max_tuples {
            cap = cap.with_tuple_limit(t);
        }
        Budget::min_of(&cap, &limits.to_budget())
    }

    fn shutdown_token(&self) -> CancelToken {
        self.master.cancel_token()
    }

    /// Folds a connection's write-queue length change into the global
    /// total.
    fn writeq_delta(&self, before: usize, after: usize) {
        match after.cmp(&before) {
            std::cmp::Ordering::Greater => {
                self.writeq_bytes.add((after - before) as u64);
            }
            std::cmp::Ordering::Less => self.writeq_bytes.sub((before - after) as u64),
            std::cmp::Ordering::Equal => {}
        }
    }
}

/// A running server. Dropping the handle trips the shutdown token but
/// does not block; call [`ServerHandle::shutdown`] for an orderly drain.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    loops: Vec<JoinHandle<()>>,
    pool: Option<Pool>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Point-in-time metrics.
    pub fn metrics(&self) -> WireMetrics {
        WireMetrics::from_registry(&self.shared.registry.snapshot())
    }

    /// The server-wide observability registry (per-op counters, latency
    /// histograms, folded engine counters, connection gauges).
    pub fn registry(&self) -> Arc<vqd_obs::Registry> {
        Arc::clone(&self.shared.registry)
    }

    /// The shutdown token (share it with supervisors/signal handlers).
    pub fn shutdown_token(&self) -> CancelToken {
        self.shared.shutdown_token()
    }

    /// The live instance cache (tests arm disk faults through it).
    pub fn cache(&self) -> Arc<InstanceCache> {
        Arc::clone(&self.shared.cache)
    }

    /// Whether a shutdown has been requested (locally or over the wire).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown_token().is_canceled()
    }

    /// Blocks until a shutdown is requested (e.g. a wire `shutdown`
    /// request), then drains and returns the final metrics.
    pub fn wait(self) -> WireMetrics {
        while !self.is_shutting_down() {
            std::thread::sleep(Duration::from_millis(20));
        }
        self.shutdown()
    }

    /// Graceful shutdown: trip the token, wake every event loop, let
    /// them deliver in-flight replies (canceled budgets report partial
    /// progress) and flush, join them, then drain the pool and report
    /// the final metrics.
    pub fn shutdown(mut self) -> WireMetrics {
        self.shared.shutdown_token().cancel();
        for w in &self.shared.wakers {
            w.wake();
        }
        // Joining the loops first drops their queue handles, which is
        // what lets the pool's workers observe a closed queue and exit.
        for h in self.loops.drain(..) {
            let _ = h.join();
        }
        if let Some(pool) = self.pool.take() {
            pool.shutdown();
        }
        self.metrics()
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shared.shutdown_token().cancel();
        for w in &self.shared.wakers {
            w.wake();
        }
    }
}

/// Binds, spawns the event loops + pool, and returns immediately.
pub fn spawn(config: ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    // Building the cache may warm-restore a disk tier: index rebuilds
    // happen here, on the spawning thread, before any request runs.
    let mut ctx = EngineCtx::with_cache_config(CancelToken::new(), config.caps.cache.clone());
    ctx.debug_ops = config.caps.enable_debug_ops;
    let io_threads = config.caps.io_threads.max(1);
    let mut wakers = Vec::with_capacity(io_threads);
    let mut wake_rxs = Vec::with_capacity(io_threads);
    for _ in 0..io_threads {
        let (w, rx) = netpoll::waker_pair()?;
        wakers.push(w);
        wake_rxs.push(rx);
    }
    let shared = Arc::new(Shared::new(config.caps, &ctx, wakers));
    ctx.shutdown = shared.shutdown_token();
    let pool = Pool::new(config.workers, config.queue_depth, ctx);
    let mut handles = Vec::with_capacity(io_threads);
    let mut rxs = Vec::with_capacity(io_threads);
    for waker in &shared.wakers {
        let (tx, rx) = channel();
        handles.push(LoopHandle { tx, waker: waker.clone() });
        rxs.push(rx);
    }
    let handles = Arc::new(handles);
    let mut listener = Some(listener);
    let mut loops = Vec::with_capacity(io_threads);
    for (idx, (rx, wake_rx)) in rxs.into_iter().zip(wake_rxs).enumerate() {
        let io_loop = IoLoop {
            idx,
            shared: Arc::clone(&shared),
            queue: pool.queue_handle(),
            rx,
            wake_rx,
            // Loop 0 owns the listener: accepts are just another
            // readiness event, with no dedicated acceptor thread.
            listener: listener.take(),
            loops: Arc::clone(&handles),
            conns: BTreeMap::new(),
            next_conn_id: idx as u64,
            next_rr: idx,
            draining: false,
            drain_deadline: None,
        };
        loops.push(
            std::thread::Builder::new()
                .name(format!("vqd-io-{idx}"))
                .spawn(move || io_loop.run())?,
        );
    }
    Ok(ServerHandle { addr, shared, loops, pool: Some(pool) })
}

/// Messages into an event loop's mailbox; every send is paired with a
/// waker poke so a parked loop notices.
enum LoopMsg {
    /// A freshly accepted connection, dispatched round-robin by loop 0.
    Conn(TcpStream),
    /// A finished job for `(connection, sequence)` and its record; the
    /// loop reorders these so replies leave in request order.
    Done { conn: u64, seq: u64, response: Box<Response>, record: Box<RequestRecord> },
}

/// The sending side of one loop's mailbox.
#[derive(Clone)]
struct LoopHandle {
    tx: Sender<LoopMsg>,
    waker: Waker,
}

impl LoopHandle {
    /// Delivers a message and wakes the loop; `false` (message dropped)
    /// only once the loop has exited during shutdown.
    fn send(&self, msg: LoopMsg) -> bool {
        if self.tx.send(msg).is_err() {
            return false;
        }
        self.waker.wake();
        true
    }
}

/// A reply and, for a worker-served one, its record (the loop answers
/// decode errors, overloads and timeouts itself, without one).
type Reply = (Response, Option<Box<RequestRecord>>);

/// A serialized worker reply awaiting its kernel drain, identified by
/// the cumulative byte offset its last byte occupies in the
/// connection's write stream. When `flush_writes` advances
/// `Conn::write_base` past `end`, the reply has fully left the process
/// and its record is drained.
struct ReplyMark {
    /// Cumulative stream offset one past this reply's final byte.
    end: u64,
    /// The request's record (released, not yet drained).
    record: Box<RequestRecord>,
}

/// Per-connection state owned by exactly one event loop.
struct Conn {
    id: u64,
    stream: TcpStream,
    /// Bytes read but not yet framed into a complete line.
    read_buf: Vec<u8>,
    /// Serialized replies not yet accepted by the kernel.
    write_buf: Vec<u8>,
    /// Cumulative bytes drained to the kernel over this connection's
    /// lifetime; `write_base + write_buf.len()` is the stream offset of
    /// the next serialized byte.
    write_base: u64,
    /// Worker-served replies sitting in `write_buf`, oldest first,
    /// waiting for their drain instant.
    write_marks: VecDeque<ReplyMark>,
    /// Sequence number the next parsed request will get.
    next_seq: u64,
    /// Sequence number whose reply is next in line to be serialized.
    next_to_send: u64,
    /// Completed replies waiting for an earlier sequence to finish.
    pending: BTreeMap<u64, Reply>,
    /// Jobs submitted to the pool whose completion has not come back.
    in_flight: usize,
    /// When the oldest *partial* request line started waiting.
    partial_since: Option<Instant>,
    /// No more reads; close once everything owed has been flushed (or
    /// the deadline passes).
    closing: bool,
    /// Kill-path variant of `closing`: completions for this connection
    /// are dropped instead of delivered (its reply queue was already
    /// replaced by a terminal error line).
    discard: bool,
    /// Hard bound on how long a closing connection may linger.
    close_deadline: Option<Instant>,
    /// Remove this connection at the end of the current event.
    dead: bool,
}

impl Conn {
    fn new(id: u64, stream: TcpStream) -> Conn {
        Conn {
            id,
            stream,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            write_base: 0,
            write_marks: VecDeque::new(),
            next_seq: 0,
            next_to_send: 0,
            pending: BTreeMap::new(),
            in_flight: 0,
            partial_since: None,
            closing: false,
            discard: false,
            close_deadline: None,
            dead: false,
        }
    }
}

/// One I/O event loop: polls its connections (and, on loop 0, the
/// listener), frames lines, submits jobs, reorders completions, and
/// flushes replies.
struct IoLoop {
    idx: usize,
    shared: Arc<Shared>,
    queue: QueueHandle,
    rx: Receiver<LoopMsg>,
    wake_rx: WakeRx,
    listener: Option<TcpListener>,
    loops: Arc<Vec<LoopHandle>>,
    conns: BTreeMap<u64, Conn>,
    /// Next connection id; strided by the loop count so ids are
    /// globally unique without coordination.
    next_conn_id: u64,
    next_rr: usize,
    draining: bool,
    drain_deadline: Option<Instant>,
}

impl IoLoop {
    fn run(mut self) {
        let token = self.shared.shutdown_token();
        loop {
            if token.is_canceled() && !self.draining {
                self.enter_drain();
            }
            if self.draining && self.reap_drained() {
                return;
            }
            // Poll set: waker, then (loop 0 only) the listener, then one
            // entry per connection. Rebuilt every iteration —
            // level-triggered poll makes that correct by construction.
            let mut fds = Vec::with_capacity(2 + self.conns.len());
            fds.push(PollFd::new(self.wake_rx.fd(), POLLIN));
            let listener_slot = self.listener.as_ref().map(|l| {
                fds.push(PollFd::new(l.as_raw_fd(), POLLIN));
                fds.len() - 1
            });
            let base = fds.len();
            let mut ids = Vec::with_capacity(self.conns.len());
            for (id, c) in &self.conns {
                let mut events = 0i16;
                if !c.closing && !self.draining {
                    events |= POLLIN;
                }
                if !c.write_buf.is_empty() {
                    events |= POLLOUT;
                }
                // events may stay 0: POLLERR/POLLHUP still come back.
                fds.push(PollFd::new(c.stream.as_raw_fd(), events));
                ids.push(*id);
            }
            let _ = netpoll::wait(&mut fds, self.poll_timeout());
            if fds[0].revents != 0 {
                self.wake_rx.drain();
            }
            self.drain_mailbox();
            if let Some(slot) = listener_slot {
                if fds[slot].returned(POLLIN) {
                    self.accept_ready();
                }
            }
            for (k, id) in ids.iter().enumerate() {
                let revents = fds[base + k].revents;
                if revents != 0 {
                    self.conn_ready(*id, revents);
                }
            }
            self.check_deadlines();
        }
    }

    /// Switches to draining: no more accepts, no more reads; in-flight
    /// replies are still delivered and flushed. Wakes every sibling so
    /// loops parked in an indefinite poll observe the token too (a wire
    /// `shutdown` cancels it from a worker thread, which only wakes the
    /// loop owning that connection).
    fn enter_drain(&mut self) {
        self.draining = true;
        self.drain_deadline = Some(Instant::now() + DRAIN_GRACE);
        self.listener = None;
        for h in self.loops.iter() {
            h.waker.wake();
        }
    }

    /// Closes connections with nothing left to deliver; returns true
    /// once none remain (the loop may exit).
    fn reap_drained(&mut self) -> bool {
        let past_grace = self.drain_deadline.is_some_and(|d| Instant::now() >= d);
        let finished: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| past_grace || (c.in_flight == 0 && c.write_buf.is_empty()))
            .map(|(id, _)| *id)
            .collect();
        for id in finished {
            if let Some(conn) = self.conns.remove(&id) {
                self.destroy(conn);
            }
        }
        self.conns.is_empty()
    }

    /// The next poll either sleeps indefinitely (nothing timed pending —
    /// the idle-cost-zero case) or until the earliest deadline.
    fn poll_timeout(&self) -> Option<Duration> {
        let now = Instant::now();
        let read_timeout = self.shared.caps.conn_read_timeout;
        let mut next: Option<Instant> = None;
        let fold = |t: Instant, next: &mut Option<Instant>| match *next {
            Some(n) if n <= t => {}
            _ => *next = Some(t),
        };
        for c in self.conns.values() {
            if let Some(s) = c.partial_since {
                fold(s + read_timeout, &mut next);
            }
            if let Some(d) = c.close_deadline {
                fold(d, &mut next);
            }
        }
        if self.draining {
            fold(now + Duration::from_millis(50), &mut next);
        }
        next.map(|t| t.saturating_duration_since(now))
    }

    /// Drains the mailbox: adopts dispatched connections, applies
    /// completions (decrement in-flight, reorder, flush).
    fn drain_mailbox(&mut self) {
        while let Ok(msg) = self.rx.try_recv() {
            match msg {
                LoopMsg::Conn(stream) => {
                    if self.draining {
                        self.shared.series.conns_open.sub(1);
                        drop(stream);
                    } else {
                        self.register(stream);
                    }
                }
                LoopMsg::Done { conn: id, seq, response, record } => {
                    // The connection may have closed while its job ran;
                    // the completion is simply dropped then.
                    let Some(mut conn) = self.conns.remove(&id) else { continue };
                    conn.in_flight = conn.in_flight.saturating_sub(1);
                    if conn.discard {
                        // Killed connection: the completion is dropped;
                        // re-flush only to re-check the close condition.
                        flush_writes(&mut conn, &self.shared);
                    } else {
                        self.deliver(&mut conn, seq, (*response, Some(record)));
                    }
                    self.reinsert(id, conn);
                }
            }
        }
    }

    /// Accepts until the listener would block. The global connection
    /// limit is enforced here — past it, the excess connection gets a
    /// typed `overloaded` reply and a clean close, not a thread and not
    /// an unbounded backlog.
    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = self.listener.as_ref() else { return };
            match listener.accept() {
                Ok((stream, _)) => self.admit(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    fn admit(&mut self, stream: TcpStream) {
        let s = &self.shared.series;
        s.connections_total.inc();
        // Only this loop admits; the others only close, so the level
        // cannot pass the cap between this check and the add.
        let open = s.conns_open.get();
        if open as usize >= self.shared.caps.max_conns {
            self.shared.registry.counter("server.conns_rejected").inc();
            reject_over_limit(stream, open, self.shared.caps.max_conns);
            return;
        }
        s.conns_open.add(1);
        let target = self.next_rr % self.loops.len();
        self.next_rr = self.next_rr.wrapping_add(1);
        if target == self.idx {
            self.register(stream);
        } else if !self.loops[target].send(LoopMsg::Conn(stream)) {
            // Only possible once the target loop exited mid-shutdown.
            self.shared.series.conns_open.sub(1);
        }
    }

    /// Takes ownership of a connection: non-blocking, nodelay, and an
    /// id strided so every loop mints distinct ones.
    fn register(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            self.shared.series.conns_open.sub(1);
            return;
        }
        stream.set_nodelay(true).ok();
        if let Some(bytes) = self.shared.caps.sock_sndbuf {
            let _ = netpoll::set_send_buffer(&stream, bytes);
        }
        let id = self.next_conn_id;
        self.next_conn_id += self.loops.len() as u64;
        self.conns.insert(id, Conn::new(id, stream));
    }

    fn reinsert(&mut self, id: u64, conn: Conn) {
        if conn.dead {
            self.destroy(conn);
        } else {
            self.conns.insert(id, conn);
        }
    }

    fn destroy(&mut self, conn: Conn) {
        self.shared.series.conns_open.sub(1);
        // Undeliverable queued output leaves the global gauge with it.
        self.shared.writeq_delta(conn.write_buf.len(), 0);
    }

    /// Dispatches one connection's returned events.
    fn conn_ready(&mut self, id: u64, revents: i16) {
        let Some(mut conn) = self.conns.remove(&id) else { return };
        if revents & POLLIN != 0 && !conn.closing && !self.draining {
            self.read_ready(&mut conn);
        }
        if revents & POLLOUT != 0 && !conn.dead {
            flush_writes(&mut conn, &self.shared);
        }
        if revents & POLLCLOSED != 0 && revents & POLLIN == 0 {
            // Hangup/error with nothing readable: the peer is gone.
            conn.dead = true;
        }
        self.reinsert(id, conn);
    }

    /// Reads until the socket would block, frames complete lines, and
    /// processes each. EOF with work still pending half-closes: replies
    /// are delivered before the connection is dropped.
    fn read_ready(&mut self, conn: &mut Conn) {
        let mut chunk = [0u8; READ_CHUNK];
        let mut eof = false;
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => {
                    conn.read_buf.extend_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.dead = true;
                    return;
                }
            }
        }
        self.process_lines(conn);
        if eof && !conn.dead {
            if !conn.read_buf.is_empty() && !conn.closing {
                // A final unterminated line still gets an answer (the
                // blocking server answered these too).
                let tail: Vec<u8> = std::mem::take(&mut conn.read_buf);
                self.process_one_line(conn, &tail);
                conn.partial_since = None;
            }
            if conn.in_flight == 0 && conn.write_buf.is_empty() {
                conn.dead = true;
            } else {
                conn.closing = true;
                if conn.close_deadline.is_none() {
                    conn.close_deadline = Some(Instant::now() + self.shared.caps.conn_read_timeout);
                }
            }
        }
    }

    /// Splits `read_buf` at newlines; whatever remains is a partial
    /// line and starts (or continues) the slow-client clock.
    fn process_lines(&mut self, conn: &mut Conn) {
        loop {
            if conn.closing {
                conn.read_buf.clear();
                break;
            }
            let Some(pos) = conn.read_buf.iter().position(|&b| b == b'\n') else { break };
            let line: Vec<u8> = conn.read_buf.drain(..=pos).collect();
            self.process_one_line(conn, &line);
        }
        conn.partial_since = if conn.read_buf.is_empty() {
            None
        } else {
            Some(conn.partial_since.unwrap_or_else(Instant::now))
        };
    }

    /// Frames one request: assign a sequence number, decode, apply the
    /// per-connection in-flight cap, clamp the budget, and submit — or
    /// answer immediately (decode errors, backpressure). Immediate
    /// answers go through the same reorder buffer, so replies always
    /// leave in request order even when request 5 fails fast while
    /// request 2 is still on a worker.
    fn process_one_line(&mut self, conn: &mut Conn, raw: &[u8]) {
        // Frame-complete: a full request line is in hand; decode and
        // admission happen between here and enqueue.
        let framed = Instant::now();
        let text = String::from_utf8_lossy(raw);
        let line = text.trim();
        if line.is_empty() {
            return;
        }
        let seq = conn.next_seq;
        conn.next_seq += 1;
        let envelope = match Envelope::from_line(line) {
            Err((kind, message, id)) => {
                self.shared.series.errors.inc();
                self.deliver(conn, seq, (Response::error(id, kind, message), None));
                return;
            }
            Ok(env) => env,
        };
        if conn.in_flight >= self.shared.caps.max_inflight_per_conn {
            self.shared.series.rejected.inc();
            self.shared.registry.counter("server.inflight_rejects").inc();
            let response = Response::new(
                envelope.id,
                Outcome::Overloaded {
                    queue_depth: conn.in_flight as u64,
                    queue_capacity: self.shared.caps.max_inflight_per_conn as u64,
                },
                WireStats::default(),
            );
            self.deliver(conn, seq, (response, None));
            return;
        }
        let budget = self.shared.clamp(&envelope.limits);
        let home = self.loops[self.idx].clone();
        let conn_id = conn.id;
        let reply = Box::new(move |response, record| {
            let (response, record) = (Box::new(response), Box::new(record));
            home.send(LoopMsg::Done { conn: conn_id, seq, response, record });
        });
        // Admission-enqueue; the worker stamps start and finish, and the
        // record comes back here for release (`deliver`) and drain
        // (`flush_writes`).
        let stamps = PhaseStamps { framed, enqueued: Instant::now() };
        match self.queue.submit(Job { envelope, budget, reply, stamps }) {
            Ok(()) => {
                conn.in_flight += 1;
                self.shared.pipelined_depth.raise_to(conn.in_flight as u64);
            }
            Err((job, SubmitError::Full)) => {
                self.shared.series.rejected.inc();
                let response = Response::new(
                    job.envelope.id,
                    Outcome::Overloaded {
                        queue_depth: self.shared.series.queue_depth.get(),
                        queue_capacity: self.queue.capacity() as u64,
                    },
                    WireStats::default(),
                );
                self.deliver(conn, seq, (response, None));
            }
            Err((job, SubmitError::Closed)) => {
                let response =
                    Response::new(job.envelope.id, Outcome::ShuttingDown, WireStats::default());
                self.deliver(conn, seq, (response, None));
            }
        }
    }

    /// The ordered-pipelining invariant lives here: a completion parks
    /// in `pending` until every earlier sequence has been serialized,
    /// then as many consecutive replies as are ready are appended to the
    /// write queue and flushed. A worker reply's record is released as
    /// its reply is serialized (the wire timeline stays profiled-only)
    /// and left in a mark for the kernel drain.
    fn deliver(&mut self, conn: &mut Conn, seq: u64, reply: Reply) {
        conn.pending.insert(seq, reply);
        let before = conn.write_buf.len();
        while let Some((mut r, mut record)) = conn.pending.remove(&conn.next_to_send) {
            if let Some(record) = record.as_mut() {
                record.release(Instant::now(), &self.shared.phases);
                if record.profile {
                    r.timeline = Some(record.timeline());
                }
            }
            let line = r.to_json().to_string();
            conn.write_buf.extend_from_slice(line.as_bytes());
            conn.write_buf.push(b'\n');
            if let Some(record) = record {
                let end = conn.write_base + conn.write_buf.len() as u64;
                conn.write_marks.push_back(ReplyMark { end, record });
            }
            conn.next_to_send += 1;
        }
        self.shared.writeq_delta(before, conn.write_buf.len());
        flush_writes(conn, &self.shared);
        self.enforce_writeq_bound(conn);
    }

    /// The slow-reader tier: a connection whose un-flushed replies
    /// exceed the cap loses its queued output, gets one typed `timeout`
    /// line, and closes — counted by `server.conn_timeouts` like every
    /// other deadline kill.
    fn enforce_writeq_bound(&mut self, conn: &mut Conn) {
        let cap = self.shared.caps.max_writeq_bytes;
        if conn.closing || conn.dead || conn.write_buf.len() <= cap {
            return;
        }
        self.shared.registry.counter("server.conn_timeouts").inc();
        self.shared.series.errors.inc();
        let before = conn.write_buf.len();
        conn.write_buf.clear();
        conn.write_marks.clear();
        conn.pending.clear();
        let response = Response::error(
            "",
            ErrorKind::Timeout,
            format!("reply backlog exceeded {cap} bytes: reader too slow"),
        );
        let line = response.to_json().to_string();
        conn.write_buf.extend_from_slice(line.as_bytes());
        conn.write_buf.push(b'\n');
        self.shared.writeq_delta(before, conn.write_buf.len());
        conn.closing = true;
        conn.discard = true;
        conn.close_deadline = Some(Instant::now() + self.shared.caps.conn_read_timeout);
        flush_writes(conn, &self.shared);
    }

    /// Applies the two per-connection clocks: the slowloris partial-line
    /// deadline (typed `timeout`, then close) and the closing-flush
    /// grace (hard close).
    fn check_deadlines(&mut self) {
        let now = Instant::now();
        let read_timeout = self.shared.caps.conn_read_timeout;
        let mut timed_out: Vec<u64> = Vec::new();
        let mut expired: Vec<u64> = Vec::new();
        for (id, c) in &self.conns {
            if c.closing {
                if c.close_deadline.is_some_and(|d| now >= d) {
                    expired.push(*id);
                }
            } else if c.partial_since.is_some_and(|s| now.duration_since(s) >= read_timeout) {
                timed_out.push(*id);
            }
        }
        for id in expired {
            if let Some(conn) = self.conns.remove(&id) {
                self.destroy(conn);
            }
        }
        for id in timed_out {
            let Some(mut conn) = self.conns.remove(&id) else { continue };
            self.shared.registry.counter("server.conn_timeouts").inc();
            self.shared.series.errors.inc();
            let seq = conn.next_seq;
            conn.next_seq += 1;
            let response = Response::error(
                "",
                ErrorKind::Timeout,
                format!("no complete request line within {}ms", read_timeout.as_millis()),
            );
            self.deliver(&mut conn, seq, (response, None));
            conn.partial_since = None;
            conn.closing = true;
            conn.discard = true;
            conn.close_deadline = Some(now + read_timeout);
            // The timeout line may already be fully flushed; re-check
            // the close condition now that the flags are set.
            flush_writes(&mut conn, &self.shared);
            self.reinsert(id, conn);
        }
    }
}

/// Writes until the kernel would block. A closing connection whose
/// queue fully drains is marked dead (flush-then-close complete).
fn flush_writes(conn: &mut Conn, shared: &Shared) {
    let before = conn.write_buf.len();
    let mut written = 0usize;
    while written < conn.write_buf.len() {
        match conn.stream.write(&conn.write_buf[written..]) {
            Ok(0) => {
                conn.dead = true;
                break;
            }
            Ok(n) => written += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
    if written > 0 {
        conn.write_buf.drain(..written);
        conn.write_base += written as u64;
        // Write-drained for every reply whose last byte the kernel just
        // accepted.
        let drained = Instant::now();
        while conn.write_marks.front().is_some_and(|m| m.end <= conn.write_base) {
            let Some(mut m) = conn.write_marks.pop_front() else { break };
            m.record.drain(drained, &shared.phases, shared.caps.slow_log_ms);
        }
    }
    shared.writeq_delta(before, conn.write_buf.len());
    // A closing connection ends once nothing is owed: its queue is
    // flushed and — unless it was killed, in which case completions are
    // being discarded — its in-flight requests have all been answered.
    if conn.closing && conn.write_buf.is_empty() && (conn.discard || conn.in_flight == 0) {
        conn.dead = true;
    }
}

/// The global-limit rejection: one best-effort `overloaded` line, then
/// the drop closes the socket. The socket's buffer is empty, so the
/// single non-blocking write virtually always lands.
fn reject_over_limit(stream: TcpStream, open: u64, cap: usize) {
    let _ = stream.set_nonblocking(true);
    let response = Response::new(
        "",
        Outcome::Overloaded { queue_depth: open, queue_capacity: cap as u64 },
        WireStats::default(),
    );
    let mut line = response.to_json().to_string();
    line.push('\n');
    let mut stream = stream;
    let _ = stream.write(line.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_shared(caps: ServerCaps) -> Shared {
        Shared::new(caps, &EngineCtx::new(CancelToken::new()), Vec::new())
    }

    #[test]
    fn clamp_takes_the_stricter_side() {
        let shared = test_shared(ServerCaps {
            max_deadline: Duration::from_secs(2),
            max_steps: Some(1000),
            max_tuples: None,
            ..ServerCaps::default()
        });
        // Client asks for more than the cap: cap wins.
        let b = shared.clamp(&Limits {
            deadline_ms: Some(60_000),
            step_limit: Some(1_000_000),
            tuple_limit: None,
        });
        assert!(b.remaining_time().is_some_and(|t| t <= Duration::from_secs(2)));
        assert_eq!(b.remaining_steps(), Some(1000));
        // Client asks for less: client wins.
        let b = shared.clamp(&Limits {
            deadline_ms: Some(5),
            step_limit: Some(10),
            tuple_limit: Some(3),
        });
        assert!(b.remaining_time().is_some_and(|t| t <= Duration::from_millis(5)));
        assert_eq!(b.remaining_steps(), Some(10));
        assert_eq!(b.remaining_tuples(), Some(3));
        // Shutdown authority: tripping the master token cancels clamped
        // budgets.
        shared.shutdown_token().cancel();
        let b = shared.clamp(&Limits::none());
        assert!(b.checkpoint().is_err());
    }

    #[test]
    fn writeq_accounting_is_symmetric() {
        let shared = test_shared(ServerCaps::default());
        shared.writeq_delta(0, 4096);
        shared.writeq_delta(4096, 1024);
        assert_eq!(shared.writeq_bytes.get(), 1024);
        shared.writeq_delta(1024, 0);
        assert_eq!(shared.registry.snapshot().gauge("server.writeq_bytes"), 0);
    }
}

//! Load generation over raw wire lines: a closed loop (two connections,
//! one request in flight each) and an open loop (seeded Poisson
//! arrivals from one sender thread, replies read by one receiver thread
//! over two pipelined connections). Every reply is checked against the
//! outcome computed in process.

use crate::gen::{envelope_line, Item, Plan, Stream};
use crate::trace::{Span, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use vqd_server::netpoll::{self, PollFd, POLLIN};
use vqd_server::{ErrorKind, Outcome, Response, Timeline};

/// Open-loop requests in flight per connection. Two connections keep at
/// most 32 outstanding, below the server's 64-deep queue, so a backlog
/// waits in the client (and shows in latency) instead of being refused.
pub const WINDOW: usize = 16;

/// Re-put/retry rounds a handle request may take before it counts as
/// failed. At 24 entries the sharded LRU holds 6 per shard, so when a
/// backlog of pipelined requests sits ahead of a retry, their inserts
/// can evict the fresh handle before the retry runs; a few rounds in a
/// row happen at the `max` rung.
const MAX_ATTEMPTS: u8 = 16;

/// No reply for this long means the server is wedged.
const STALL: Duration = Duration::from_secs(60);

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
        .expect("a load thread panicked while holding this lock")
}

/// Opens one client connection.
fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(STALL))?;
    s.set_write_timeout(Some(STALL))?;
    Ok(s)
}

/// Where a logical request is in its exchange with the server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stage {
    /// The generated request itself (or its retry after a re-put).
    Request,
    /// A re-put after an `unknown-handle` reply.
    Reput,
}

/// One wire exchange of a logical request, awaiting its reply.
#[derive(Clone, Copy, Debug)]
struct Pending {
    seq: u64,
    due: Instant,
    item: Item,
    stage: Stage,
    attempts: u8,
}

/// What follows a reply.
enum Step {
    Done,
    Send(Pending, String),
    Fail(String),
}

/// State shared by every client of one served run: the current handle
/// of each extent, and how often a handle had to be re-put.
pub struct Session<'a> {
    plan: &'a Plan,
    handles: Mutex<Vec<Option<String>>>,
    reputs: AtomicU64,
}

impl<'a> Session<'a> {
    /// A session over `plan` with no handles yet.
    pub fn new(plan: &'a Plan) -> Session<'a> {
        Session {
            plan,
            handles: Mutex::new(vec![None; plan.extents.len()]),
            reputs: AtomicU64::new(0),
        }
    }

    /// Re-puts so far.
    pub fn reputs(&self) -> u64 {
        self.reputs.load(Ordering::Relaxed)
    }

    fn handle(&self, extent: usize) -> Option<String> {
        lock(&self.handles)[extent].clone()
    }

    fn line(&self, p: &Pending, profile: bool) -> String {
        let pi = usize::from(profile);
        match (p.item, p.stage) {
            (Item::Fixed(t), _) => self.plan.templates[t].line[pi].clone(),
            (Item::Put(e), _) | (Item::ByHandle { extent: e, .. }, Stage::Reput) => {
                self.plan.extents[e].put_line[pi].clone()
            }
            (Item::ByHandle { extent, query }, Stage::Request) => {
                // The generator only picks extents whose put has been
                // answered (see `gen::HANDLE_LAG`); waiting here would
                // mean that guarantee broke, so it is bounded.
                let deadline = Instant::now() + Duration::from_secs(5);
                let handle = loop {
                    match self.handle(extent) {
                        Some(h) => break h,
                        None if Instant::now() < deadline => {
                            std::thread::sleep(Duration::from_micros(100))
                        }
                        None => break "unregistered".to_owned(),
                    }
                };
                envelope_line(
                    &format!("h{}", p.seq),
                    &self.plan.by_handle(query, &handle),
                    profile,
                )
            }
        }
    }

    /// Checks a reply and decides the next exchange, if any.
    fn on_reply(&self, p: &Pending, line: &str, profile: bool) -> Step {
        let plan = self.plan;
        let put_reply = |e: usize| -> Result<(), String> {
            let handle = check_put(line, plan, e)?;
            lock(&self.handles)[e] = Some(handle);
            Ok(())
        };
        match (p.item, p.stage) {
            (Item::Fixed(t), _) => match check_suffix(line, &plan.templates[t].suffix) {
                Ok(()) => Step::Done,
                Err(e) => Step::Fail(e),
            },
            (Item::Put(e), _) => match put_reply(e) {
                Ok(()) => Step::Done,
                Err(e) => Step::Fail(e),
            },
            (Item::ByHandle { extent, query }, Stage::Request) => {
                if is_unknown_handle(line) && p.attempts < MAX_ATTEMPTS {
                    self.reputs.fetch_add(1, Ordering::Relaxed);
                    let next = Pending {
                        stage: Stage::Reput,
                        attempts: p.attempts + 1,
                        ..*p
                    };
                    let line = self.line(&next, profile);
                    return Step::Send(next, line);
                }
                match check_suffix(line, &plan.templates[plan.inline[extent][query]].suffix) {
                    Ok(()) => Step::Done,
                    Err(e) => Step::Fail(format!("by handle: {e}")),
                }
            }
            (Item::ByHandle { extent, .. }, Stage::Reput) => match put_reply(extent) {
                Ok(()) => {
                    let next = Pending {
                        stage: Stage::Request,
                        ..*p
                    };
                    let line = self.line(&next, profile);
                    Step::Send(next, line)
                }
                Err(e) => Step::Fail(format!("re-put: {e}")),
            },
        }
    }

    /// Runs one logical request to completion on a blocking connection.
    pub fn call(&self, conn: &mut LineConn, item: Item) -> Result<(), String> {
        let mut p = Pending {
            seq: 0,
            due: Instant::now(),
            item,
            stage: Stage::Request,
            attempts: 0,
        };
        let mut line = self.line(&p, false);
        loop {
            let reply = conn
                .round_trip(&line)
                .map_err(|e| format!("transport: {e}"))?;
            match self.on_reply(&p, reply, false) {
                Step::Done => return Ok(()),
                Step::Fail(e) => return Err(e),
                Step::Send(next, l) => (p, line) = (next, l),
            }
        }
    }
}

/// The `status` field of a reply line.
fn status(line: &str) -> &str {
    line.split_once("\"status\":\"")
        .and_then(|(_, rest)| rest.split_once('"'))
        .map_or("", |(s, _)| s)
}

/// A reply that is anything but an `ok` carrying exactly the expected
/// result is a failure; the message says what came back instead.
fn check_suffix(line: &str, suffix: &str) -> Result<(), String> {
    if status(line) == "ok" && line.ends_with(suffix) {
        return Ok(());
    }
    Err(match Response::from_line(line) {
        Ok(r) if r.outcome.status() == "ok" => {
            "reply differs from the in-process outcome".to_owned()
        }
        Ok(r) => format!("{} reply: {}", r.outcome.status(), r.outcome),
        Err(e) => format!("undecodable reply: {e}"),
    })
}

fn is_unknown_handle(line: &str) -> bool {
    status(line) == "error"
        && matches!(
            Response::from_line(line),
            Ok(Response {
                outcome: Outcome::Error {
                    kind: ErrorKind::UnknownHandle,
                    ..
                },
                ..
            })
        )
}

/// Checks a `put_instance` reply against the extent's expected
/// fingerprint and size; returns the new handle.
fn check_put(line: &str, plan: &Plan, extent: usize) -> Result<String, String> {
    let want = &plan.extents[extent];
    match Response::from_line(line).map(|r| r.outcome) {
        Ok(Outcome::InstancePut {
            handle,
            fingerprint,
            tuples,
        }) if fingerprint == want.fingerprint && tuples == want.tuples => Ok(handle),
        Ok(other) => Err(format!("put of extent {extent} answered {other}")),
        Err(e) => Err(format!("undecodable put reply: {e}")),
    }
}

/// A blocking request/reply connection over raw lines.
pub struct LineConn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    buf: String,
}

impl LineConn {
    /// Connects.
    pub fn open(addr: SocketAddr) -> io::Result<LineConn> {
        let writer = connect(addr)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(LineConn {
            writer,
            reader,
            buf: String::new(),
        })
    }

    /// Writes one line and reads its reply (without the newline).
    pub fn round_trip(&mut self, line: &str) -> io::Result<&str> {
        self.writer.write_all(line.as_bytes())?;
        self.buf.clear();
        if self.reader.read_line(&mut self.buf)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed",
            ));
        }
        Ok(self.buf.trim_end())
    }
}

/// Result of a closed-loop phase.
pub struct ClosedResult {
    /// Logical requests completed correctly.
    pub completed: u64,
    /// Logical requests that failed.
    pub failed: u64,
    /// Wall time of the phase, s.
    pub elapsed_s: f64,
    /// First few failure messages.
    pub errors: Vec<String>,
}

/// Two connections, one request in flight each, for `duration`; each
/// connection draws from its own stream.
pub fn closed_loop(
    addr: SocketAddr,
    session: &Session<'_>,
    streams: &mut [Stream<'_>; 2],
    duration: Duration,
) -> io::Result<ClosedResult> {
    let mut conns = [LineConn::open(addr)?, LineConn::open(addr)?];
    let started = Instant::now();
    let deadline = started + duration;
    let results: Vec<(u64, u64, Vec<String>)> = std::thread::scope(|s| {
        let workers: Vec<_> = conns
            .iter_mut()
            .zip(streams.iter_mut())
            .map(|(conn, stream)| {
                s.spawn(move || {
                    let (mut ok, mut failed, mut errors) = (0u64, 0u64, Vec::new());
                    while Instant::now() < deadline {
                        let item = stream.next().expect("streams are endless");
                        match session.call(conn, item) {
                            Ok(()) => ok += 1,
                            Err(e) => {
                                failed += 1;
                                if errors.len() < 3 {
                                    errors.push(e);
                                }
                            }
                        }
                    }
                    (ok, failed, errors)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("closed-loop client panicked"))
            .collect()
    });
    let elapsed_s = started.elapsed().as_secs_f64();
    let mut out = ClosedResult {
        completed: 0,
        failed: 0,
        elapsed_s,
        errors: Vec::new(),
    };
    for (ok, failed, errors) in results {
        out.completed += ok;
        out.failed += failed;
        out.errors.extend(errors);
    }
    Ok(out)
}

/// Seeded Poisson arrival offsets at `rate` per second within `window`.
pub fn poisson_schedule(rate: f64, window: Duration, seed: u64) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        // 1 - U is in (0, 1], so the logarithm is finite.
        t += -(1.0 - rng.gen_range(0.0..1.0f64)).ln() / rate;
        if t >= window.as_secs_f64() {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// Result of one open-loop rung.
#[derive(Default)]
pub struct RungResult {
    /// Latency of every correct logical request, from its due time, ms.
    pub latencies_ms: Vec<f64>,
    /// Logical requests scheduled.
    pub attempted: u64,
    /// Logical requests that failed.
    pub failed: u64,
    /// How late the sender wrote each request, beyond its due time or
    /// the moment a window slot freed, ms.
    pub lag_ms: Vec<f64>,
    /// Seconds of arrival schedule.
    pub window_s: f64,
    /// Server timelines of profiled replies.
    pub timelines: Vec<Timeline>,
    /// First few failure messages.
    pub errors: Vec<String>,
}

impl RungResult {
    /// Arrivals per second actually scheduled.
    pub fn achieved_rate(&self) -> f64 {
        self.attempted as f64 / self.window_s.max(f64::MIN_POSITIVE)
    }

    /// States the latencies at reference host speed by multiplying them
    /// by `correction` (see [`crate::speed`]).
    pub fn scale(&mut self, correction: f64) {
        self.latencies_ms.iter_mut().for_each(|l| *l *= correction);
    }

    /// Folds another slice of the same rung into this one.
    pub fn merge(&mut self, other: RungResult) {
        self.latencies_ms.extend(other.latencies_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.lag_ms.extend(other.lag_ms);
        self.window_s += other.window_s;
        self.timelines.extend(other.timelines);
        let room = 3usize.saturating_sub(self.errors.len());
        self.errors.extend(other.errors.into_iter().take(room));
    }
}

struct ConnTx {
    writer: TcpStream,
    fifo: VecDeque<Pending>,
    outstanding: usize,
}

struct Wire {
    tx: Mutex<ConnTx>,
    freed: Condvar,
}

impl Wire {
    fn send(&self, p: Pending, line: &str) -> io::Result<()> {
        let mut tx = lock(&self.tx);
        tx.fifo.push_back(p);
        tx.writer.write_all(line.as_bytes())
    }

    fn release(&self) {
        lock(&self.tx).outstanding -= 1;
        self.freed.notify_all();
    }
}

/// Runs one open-loop rung: requests from `stream` at the `schedule`
/// offsets, round-robin over two fresh connections. With `tracer`, the
/// requests are profiled and every one leaves a `request` span with
/// `client.send` and `client.decode` children.
pub fn open_loop(
    addr: SocketAddr,
    session: &Session<'_>,
    stream: &mut Stream<'_>,
    schedule: &[Duration],
    window: Duration,
    tracer: Option<&mut Tracer>,
) -> io::Result<RungResult> {
    let profile = tracer.is_some();
    let wires: Vec<Wire> = (0..2)
        .map(|_| {
            let writer = connect(addr)?;
            Ok(Wire {
                tx: Mutex::new(ConnTx {
                    writer,
                    fifo: VecDeque::new(),
                    outstanding: 0,
                }),
                freed: Condvar::new(),
            })
        })
        .collect::<io::Result<_>>()?;
    let readers: Vec<TcpStream> = wires
        .iter()
        .map(|w| lock(&w.tx).writer.try_clone())
        .collect::<io::Result<_>>()?;
    let items: Vec<Item> = schedule
        .iter()
        .map(|_| stream.next().expect("endless"))
        .collect();
    let sending_done = AtomicBool::new(false);
    // Set when the receiver gives up, so a sender waiting for a window
    // slot that will never free stops instead of hanging.
    let aborted = AtomicBool::new(false);
    let start = Instant::now() + Duration::from_millis(5);
    let epoch = tracer.as_ref().map(|t| t.epoch());

    let (sent, received) = std::thread::scope(|s| {
        let receiver = s.spawn(|| {
            let received = receive(session, &wires, readers, &sending_done, profile, epoch);
            if received.is_err() {
                aborted.store(true, Ordering::SeqCst);
                wires.iter().for_each(|w| w.freed.notify_all());
            }
            received
        });
        let mut lag_ms = Vec::with_capacity(schedule.len());
        let mut sends: Vec<Span> = Vec::new();
        let mut error = None;
        for (seq, (offset, item)) in schedule.iter().zip(&items).enumerate() {
            let due = start + *offset;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let wire = &wires[seq % 2];
            let mut ready = Instant::now();
            {
                let mut tx = lock(&wire.tx);
                if tx.outstanding >= WINDOW {
                    while tx.outstanding >= WINDOW && !aborted.load(Ordering::SeqCst) {
                        tx = wire
                            .freed
                            .wait_timeout(tx, Duration::from_millis(100))
                            .expect("receiver panicked")
                            .0;
                    }
                    ready = Instant::now();
                }
                tx.outstanding += 1;
            }
            if aborted.load(Ordering::SeqCst) {
                break;
            }
            let p = Pending {
                seq: seq as u64,
                due,
                item: *item,
                stage: Stage::Request,
                attempts: 0,
            };
            let line = session.line(&p, profile);
            let write_start = Instant::now();
            lag_ms.push(
                write_start
                    .saturating_duration_since(due.max(ready))
                    .as_secs_f64()
                    * 1e3,
            );
            if let Err(e) = wire.send(p, &line) {
                error = Some(e);
                break;
            }
            if let Some(epoch) = epoch {
                sends.push(Span::wire(
                    seq as u64,
                    "client.send",
                    epoch,
                    write_start,
                    Instant::now(),
                ));
            }
        }
        sending_done.store(true, Ordering::SeqCst);
        let received = receiver.join().expect("receiver panicked");
        ((lag_ms, sends, error), received)
    });
    let (lag_ms, sends, send_error) = sent;
    let mut out = received?;
    if let Some(e) = send_error {
        return Err(e);
    }
    out.result.attempted = schedule.len() as u64;
    out.result.lag_ms = lag_ms;
    out.result.window_s = window.as_secs_f64();
    if let Some(t) = tracer {
        t.add_wire(out.roots, sends.into_iter().chain(out.decodes).collect());
    }
    Ok(out.result)
}

struct Received {
    result: RungResult,
    roots: Vec<Span>,
    decodes: Vec<Span>,
}

/// The receiver thread: polls both connections, matches each reply line
/// to the oldest pending exchange of its connection, checks it and
/// either completes the logical request or sends its next exchange.
fn receive(
    session: &Session<'_>,
    wires: &[Wire],
    mut readers: Vec<TcpStream>,
    sending_done: &AtomicBool,
    profile: bool,
    epoch: Option<Instant>,
) -> io::Result<Received> {
    let mut out = Received {
        result: RungResult::default(),
        roots: Vec::new(),
        decodes: Vec::new(),
    };
    let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); wires.len()];
    let mut chunk = vec![0u8; 64 * 1024];
    let mut last_progress = Instant::now();
    loop {
        let idle = sending_done.load(Ordering::SeqCst)
            && wires.iter().all(|w| lock(&w.tx).outstanding == 0);
        if idle {
            return Ok(out);
        }
        if last_progress.elapsed() > STALL {
            return Err(io::Error::new(io::ErrorKind::TimedOut, "no reply for 60 s"));
        }
        let mut fds: Vec<PollFd> = readers
            .iter()
            .map(|r| PollFd::new(r.as_raw_fd(), POLLIN))
            .collect();
        netpoll::wait(&mut fds, Some(Duration::from_millis(10)))?;
        for (c, fd) in fds.iter().enumerate() {
            if fd.revents == 0 {
                continue;
            }
            let n = readers[c].read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed",
                ));
            }
            last_progress = Instant::now();
            bufs[c].extend_from_slice(&chunk[..n]);
            while let Some(nl) = bufs[c].iter().position(|&b| b == b'\n') {
                let raw: Vec<u8> = bufs[c].drain(..=nl).collect();
                let arrived = Instant::now();
                let line = String::from_utf8_lossy(&raw[..nl]);
                let Some(p) = lock(&wires[c].tx).fifo.pop_front() else {
                    return Err(io::Error::other("a reply arrived with no request pending"));
                };
                let mut timeline = None;
                if let Some(epoch) = epoch {
                    timeline = Response::from_line(&line).ok().and_then(|r| r.timeline);
                    out.decodes.push(Span::wire(
                        p.seq,
                        "client.decode",
                        epoch,
                        arrived,
                        Instant::now(),
                    ));
                    out.result.timelines.extend(timeline);
                }
                let done = match session.on_reply(&p, &line, profile) {
                    Step::Send(next, l) => {
                        wires[c].send(next, &l)?;
                        continue;
                    }
                    Step::Done => {
                        out.result
                            .latencies_ms
                            .push(arrived.duration_since(p.due).as_secs_f64() * 1e3);
                        true
                    }
                    Step::Fail(e) => {
                        out.result.failed += 1;
                        if out.result.errors.len() < 3 {
                            out.result.errors.push(e);
                        }
                        false
                    }
                };
                if let Some(epoch) = epoch {
                    let tl = timeline.unwrap_or_default();
                    out.roots.push(
                        Span::wire(p.seq, "request", epoch, p.due, arrived)
                            .with_attr("ok", u64::from(done))
                            .with_attr("frame_us", tl.frame_us)
                            .with_attr("queue_us", tl.queue_us)
                            .with_attr("exec_us", tl.exec_us)
                            .with_attr("reorder_us", tl.reorder_us),
                    );
                }
                wires[c].release();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_reads_the_status_field() {
        assert_eq!(status(r#"{"v":1,"id":"t1","status":"ok","work":{}}"#), "ok");
        assert_eq!(status(r#"{"v":1,"id":"x","status":"error"}"#), "error");
        assert_eq!(status("garbage"), "");
    }

    #[test]
    fn poisson_schedule_is_seeded_and_near_its_rate() {
        let a = poisson_schedule(1000.0, Duration::from_secs(2), 7);
        assert_eq!(a, poisson_schedule(1000.0, Duration::from_secs(2), 7));
        assert!((1800..2200).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }
}

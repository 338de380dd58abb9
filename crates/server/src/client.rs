//! Blocking client for the vqd wire protocol.
//!
//! One [`Client`] owns one TCP connection and issues requests in order:
//! write one envelope line, read one response line — or, with
//! [`Client::call_many`], pipeline a whole batch (write every request
//! before reading any reply; the server answers in request order). For
//! concurrency, open several clients — the server multiplexes
//! connections onto a fixed set of event-loop threads and its worker
//! pool.
//!
//! ## Resilience
//!
//! Per-call read/write timeouts bound how long any single call can
//! block ([`Client::set_io_timeouts`]). An opt-in [`RetryPolicy`]
//! ([`Client::set_retry`]) retries **only**:
//!
//! * idempotent operations — `put_instance` (mints a fresh handle per
//!   call), `evict_instance`, `shutdown`, and `debug_panic` are never
//!   retried;
//! * typed transient failures — an `overloaded` reply (the server
//!   answered; only its queue was full) or a transport error before any
//!   reply byte arrived (including a refused reconnect);
//! * and **never after a partial reply**: once any reply bytes were
//!   consumed, a resend could pair the old reply with the new request,
//!   so the transport error surfaces to the caller instead.
//!
//! Backoff is exponential with seeded jitter (deterministic per
//! [`RetryPolicy::seed`], via the workspace rand shim), so a thundering
//! herd of retrying clients decorrelates without nondeterministic tests.

use crate::proto::{Envelope, ErrorKind, Limits, Outcome, Request, Response, WireMetrics};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::Cell;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Opt-in retry behavior for [`Client`] calls (see the module docs for
/// what is — and is not — retried).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (minimum 1).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff.
    pub max_backoff: Duration,
    /// Jitter seed: each backoff is sampled uniformly from
    /// `[delay/2, delay]` by a generator seeded here, so retry timing is
    /// reproducible in tests.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(1),
            seed: 0x5eed,
        }
    }
}

impl RetryPolicy {
    /// The jittered delay before retry number `attempt` (1-based).
    fn backoff_delay(&self, attempt: u32, rng: &mut StdRng) -> Duration {
        let doublings = attempt.saturating_sub(1).min(16);
        let exp = self.base_backoff.saturating_mul(1u32 << doublings).min(self.max_backoff);
        let nanos = (exp.as_nanos().min(u128::from(u64::MAX)) as u64).max(2);
        Duration::from_nanos(rng.gen_range(nanos / 2..=nanos))
    }
}

/// Whether resending `request` verbatim is safe: true exactly for the
/// read-only/pure operations. `put_instance` mints a fresh handle per
/// call, `evict_instance` changes cache state, and `shutdown` /
/// `debug_panic` are one-shot by design.
fn retry_safe(request: &Request) -> bool {
    !matches!(
        request,
        Request::PutInstance { .. }
            | Request::EvictInstance { .. }
            | Request::Shutdown
            | Request::DebugPanic
    )
}

/// A blocking protocol client over one TCP connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
    /// Peer address, kept for reconnect-on-retry (`None` when the
    /// resolved address is unknowable, which disables reconnects).
    addr: Option<SocketAddr>,
    read_timeout: Cell<Option<Duration>>,
    write_timeout: Cell<Option<Duration>>,
    retry: Option<RetryPolicy>,
}

impl Client {
    /// Connects to a running server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let addr = stream.peer_addr().ok();
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            next_id: 0,
            addr,
            read_timeout: Cell::new(None),
            write_timeout: Cell::new(None),
            retry: None,
        })
    }

    /// Caps how long [`Client::call`] waits for a reply (`None` = wait
    /// forever). Server-side budgets normally bound this anyway.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.read_timeout.set(timeout);
        self.writer.set_read_timeout(timeout)
    }

    /// Caps how long a request write may block (`None` = forever).
    pub fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.write_timeout.set(timeout);
        self.writer.set_write_timeout(timeout)
    }

    /// Sets both per-call I/O timeouts at once.
    pub fn set_io_timeouts(
        &self,
        read: Option<Duration>,
        write: Option<Duration>,
    ) -> io::Result<()> {
        self.set_read_timeout(read)?;
        self.set_write_timeout(write)
    }

    /// Enables (or, with `None`, disables) retries for subsequent calls.
    pub fn set_retry(&mut self, retry: Option<RetryPolicy>) {
        self.retry = retry;
    }

    fn fresh_id(&mut self) -> String {
        self.next_id += 1;
        format!("c{}", self.next_id)
    }

    fn read_response(&mut self) -> io::Result<Response> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Response::from_line(line.trim()).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Issues one request under the given limits and blocks for the
    /// reply. `Err` is a transport failure; protocol-level failures come
    /// back inside the [`Response`].
    pub fn call(&mut self, limits: Limits, request: Request) -> io::Result<Response> {
        let id = self.fresh_id();
        self.send(Envelope::new(id, limits, request))
    }

    /// Like [`Client::call`], but asks the server to attach a
    /// per-request execution profile (engine counter deltas) to the
    /// reply's `profile` field.
    pub fn call_profiled(&mut self, limits: Limits, request: Request) -> io::Result<Response> {
        let id = self.fresh_id();
        self.send(Envelope::new(id, limits, request).with_profile(true))
    }

    /// Like [`Client::call`], but asks the server to attach a span trace
    /// (JSONL, one span event per line) to the reply's `trace` field.
    pub fn call_traced(&mut self, limits: Limits, request: Request) -> io::Result<Response> {
        let id = self.fresh_id();
        self.send(Envelope::new(id, limits, request).with_trace(true))
    }

    /// Pipelined batch: writes every request before reading any reply,
    /// then reads exactly one reply per request. The server guarantees
    /// replies arrive in request order per connection, and this method
    /// verifies it — a reply whose id does not match the next expected
    /// request is an `InvalidData` transport error.
    ///
    /// Batches are never retried (a mid-batch resend could not tell
    /// which requests the server already executed); protocol-level
    /// failures (`overloaded`, `exhausted`, errors) come back as
    /// structured outcomes at their request's position.
    pub fn call_many(&mut self, requests: Vec<(Limits, Request)>) -> io::Result<Vec<Response>> {
        self.call_many_inner(requests, false)
    }

    /// [`Client::call_many`] with per-request execution profiles
    /// attached to each reply (engine counter deltas stay exact per
    /// request even under pipelining: workers serve one job at a time).
    pub fn call_many_profiled(
        &mut self,
        requests: Vec<(Limits, Request)>,
    ) -> io::Result<Vec<Response>> {
        self.call_many_inner(requests, true)
    }

    fn call_many_inner(
        &mut self,
        requests: Vec<(Limits, Request)>,
        profiled: bool,
    ) -> io::Result<Vec<Response>> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        let mut ids = Vec::with_capacity(requests.len());
        let mut batch = String::new();
        for (limits, request) in requests {
            let id = self.fresh_id();
            let envelope = Envelope::new(id.clone(), limits, request).with_profile(profiled);
            batch.push_str(&envelope.to_json().to_string());
            batch.push('\n');
            ids.push(id);
        }
        self.writer.write_all(batch.as_bytes())?;
        self.writer.flush()?;
        let mut replies = Vec::with_capacity(ids.len());
        for expected in &ids {
            let response = self.read_response()?;
            if &response.id != expected {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "pipelined reply out of order: expected id {expected:?}, got {:?}",
                        response.id
                    ),
                ));
            }
            replies.push(response);
        }
        Ok(replies)
    }

    fn send(&mut self, envelope: Envelope) -> io::Result<Response> {
        let Some(policy) = self.retry.clone() else {
            return self.send_once(&envelope).map_err(|(e, _)| e);
        };
        if !retry_safe(&envelope.request) {
            return self.send_once(&envelope).map_err(|(e, _)| e);
        }
        let max_attempts = policy.max_attempts.max(1);
        let mut rng = StdRng::seed_from_u64(policy.seed);
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match self.send_once(&envelope) {
                Ok(response) => {
                    let transient = matches!(response.outcome, Outcome::Overloaded { .. });
                    if !transient || attempt >= max_attempts {
                        return Ok(response);
                    }
                    // The server answered; only its queue was full. Back
                    // off and resend on the same connection.
                    std::thread::sleep(policy.backoff_delay(attempt, &mut rng));
                }
                Err((error, reply_started)) => {
                    if reply_started || attempt >= max_attempts {
                        return Err(error);
                    }
                    std::thread::sleep(policy.backoff_delay(attempt, &mut rng));
                    // A refused reconnect leaves the dead streams in
                    // place: the next attempt fails fast on the write and
                    // re-enters here, so "connect refused" consumes
                    // attempts like any other transient failure.
                    self.reconnect().ok();
                }
            }
        }
    }

    /// One write + one read. The error side carries `reply_started`:
    /// whether any reply bytes were consumed (in which case a retry
    /// could desynchronize request/reply pairing and is forbidden).
    fn send_once(&mut self, envelope: &Envelope) -> Result<Response, (io::Error, bool)> {
        writeln!(self.writer, "{}", envelope.to_json()).map_err(|e| (e, false))?;
        self.writer.flush().map_err(|e| (e, false))?;
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err((
                io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection"),
                false,
            )),
            // A line (or a truncated line at EOF) arrived: reply bytes
            // were consumed, so a parse failure is final, never retried.
            Ok(_) => Response::from_line(line.trim())
                .map_err(|e| (io::Error::new(io::ErrorKind::InvalidData, e), true)),
            Err(e) => {
                let reply_started = !line.is_empty();
                Err((e, reply_started))
            }
        }
    }

    /// Replaces the connection with a fresh one to the original peer,
    /// re-applying the stored timeouts. On failure the old (dead)
    /// streams stay in place.
    fn reconnect(&mut self) -> io::Result<()> {
        let addr = self.addr.ok_or_else(|| io::Error::other("no peer address to reconnect to"))?;
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(self.read_timeout.get())?;
        stream.set_write_timeout(self.write_timeout.get())?;
        self.reader = BufReader::new(stream.try_clone()?);
        self.writer = stream;
        Ok(())
    }

    /// Sends a raw line (not necessarily a valid envelope) and reads one
    /// reply. Blank lines get no reply — don't send them here. Raw
    /// calls never retry.
    pub fn call_raw(&mut self, line: &str) -> io::Result<Response> {
        writeln!(self.writer, "{line}")?;
        self.writer.flush()?;
        self.read_response()
    }

    /// Liveness probe; `Ok(true)` iff the server answered `pong`.
    pub fn ping(&mut self) -> io::Result<bool> {
        Ok(self.call(Limits::none(), Request::Ping)?.outcome == Outcome::Pong)
    }

    /// Fetches the server's flat metrics snapshot.
    pub fn stats(&mut self) -> io::Result<WireMetrics> {
        self.stats_full().map(|(m, _)| m)
    }

    /// Fetches the server's metrics snapshot together with the full
    /// registry (per-op counters, gauges, latency histograms).
    pub fn stats_full(&mut self) -> io::Result<(WireMetrics, vqd_obs::RegistrySnapshot)> {
        match self.call(Limits::none(), Request::Stats)?.outcome {
            Outcome::StatsSnapshot { metrics, registry } => Ok((metrics, registry)),
            Outcome::Error { kind, message } => {
                Err(io::Error::other(format!("stats failed [{}]: {message}", kind.as_str())))
            }
            other => Err(io::Error::other(format!("unexpected stats reply: {other}"))),
        }
    }

    /// Registers a view extent in the server's cross-request cache.
    /// Returns `(handle, fingerprint)` on success.
    pub fn put_instance(
        &mut self,
        schema: impl Into<String>,
        extent: impl Into<String>,
    ) -> io::Result<(String, String)> {
        let request = Request::PutInstance { schema: schema.into(), extent: extent.into() };
        match self.call(Limits::none(), request)?.outcome {
            Outcome::InstancePut { handle, fingerprint, .. } => Ok((handle, fingerprint)),
            Outcome::Error { kind, message } => {
                Err(io::Error::other(format!("put_instance failed [{}]: {message}", kind.as_str())))
            }
            other => Err(io::Error::other(format!("unexpected put reply: {other}"))),
        }
    }

    /// Drops a cached instance handle; `Ok(true)` iff it existed.
    pub fn evict_instance(&mut self, handle: impl Into<String>) -> io::Result<bool> {
        let request = Request::EvictInstance { handle: handle.into() };
        match self.call(Limits::none(), request)?.outcome {
            Outcome::Evicted { existed, .. } => Ok(existed),
            Outcome::Error { kind, message } => Err(io::Error::other(format!(
                "evict_instance failed [{}]: {message}",
                kind.as_str()
            ))),
            other => Err(io::Error::other(format!("unexpected evict reply: {other}"))),
        }
    }

    /// Fetches the server's cache counters as the raw outcome (the
    /// caller matches on [`Outcome::CacheStatsSnapshot`]).
    pub fn cache_stats(&mut self) -> io::Result<Outcome> {
        Ok(self.call(Limits::none(), Request::CacheStats)?.outcome)
    }

    /// Fetches the server's flight-recorder contents as JSONL (one
    /// request digest per line, oldest first; empty string when no
    /// requests have been recorded yet).
    pub fn flight(&mut self) -> io::Result<String> {
        match self.call(Limits::none(), Request::Flight)?.outcome {
            Outcome::FlightSnapshot { jsonl } => Ok(jsonl),
            Outcome::Error { kind, message } => {
                Err(io::Error::other(format!("flight failed [{}]: {message}", kind.as_str())))
            }
            other => Err(io::Error::other(format!("unexpected flight reply: {other}"))),
        }
    }

    /// Fetches the server's registry rendered in Prometheus
    /// text-exposition format.
    pub fn metrics_prom(&mut self) -> io::Result<String> {
        match self.call(Limits::none(), Request::MetricsProm)?.outcome {
            Outcome::MetricsText { text } => Ok(text),
            Outcome::Error { kind, message } => {
                Err(io::Error::other(format!("metrics_prom failed [{}]: {message}", kind.as_str())))
            }
            other => Err(io::Error::other(format!("unexpected metrics_prom reply: {other}"))),
        }
    }

    /// Asks the server to drain and stop; `Ok(true)` iff acknowledged.
    pub fn shutdown_server(&mut self) -> io::Result<bool> {
        Ok(self.call(Limits::none(), Request::Shutdown)?.outcome == Outcome::ShuttingDown)
    }
}

/// Convenience: classify a response for exit-code style reporting.
/// Returns `Ok(())` for `ok` outcomes and a message otherwise.
pub fn ensure_ok(response: &Response) -> Result<(), String> {
    match &response.outcome {
        Outcome::Error { kind, message } => Err(format!("error [{}]: {message}", kind.as_str())),
        Outcome::Exhausted { reason, partial } => Err(format!("exhausted ({reason}): {partial}")),
        Outcome::Overloaded { queue_depth, queue_capacity } => {
            Err(format!("overloaded (queue {queue_depth}/{queue_capacity})"))
        }
        _ => Ok(()),
    }
}

/// True iff the outcome is a protocol/engine error of the given kind.
pub fn is_error_kind(response: &Response, kind: ErrorKind) -> bool {
    matches!(&response.outcome, Outcome::Error { kind: k, .. } if *k == kind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::WireStats;
    use std::net::{SocketAddr, TcpListener};
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;
    use std::thread::JoinHandle;

    /// A hand-scripted "server": the closure gets the listener and plays
    /// out exactly the failure shape the test needs.
    fn scripted_server<F>(script: F) -> (SocketAddr, JoinHandle<()>)
    where
        F: FnOnce(TcpListener) + Send + 'static,
    {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = std::thread::spawn(move || script(listener));
        (addr, handle)
    }

    fn fast_policy() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(5),
            seed: 7,
        }
    }

    fn pong_line() -> String {
        Response::new("r", Outcome::Pong, WireStats::default()).to_json().to_string()
    }

    fn read_one_line(conn: &TcpStream) -> String {
        let mut reader = BufReader::new(conn.try_clone().expect("clone"));
        let mut line = String::new();
        let _ = reader.read_line(&mut line);
        line
    }

    #[test]
    fn retry_reconnects_after_a_dropped_connection() {
        let requests = Arc::new(AtomicU32::new(0));
        let seen = Arc::clone(&requests);
        let (addr, server) = scripted_server(move |listener| {
            {
                // First connection: swallow the request, hang up.
                let (conn, _) = listener.accept().expect("accept 1");
                let _ = read_one_line(&conn);
                seen.fetch_add(1, Ordering::Relaxed);
            }
            // Second connection: serve the retried request.
            let (mut conn, _) = listener.accept().expect("accept 2");
            let _ = read_one_line(&conn);
            seen.fetch_add(1, Ordering::Relaxed);
            writeln!(conn, "{}", pong_line()).expect("reply");
        });
        let mut c = Client::connect(addr).expect("connect");
        c.set_retry(Some(fast_policy()));
        assert!(c.ping().expect("retried ping must succeed"));
        assert_eq!(requests.load(Ordering::Relaxed), 2, "one original + one retry");
        server.join().expect("server thread");
    }

    #[test]
    fn overloaded_reply_is_retried_on_the_same_connection() {
        let (addr, server) = scripted_server(move |listener| {
            let (mut conn, _) = listener.accept().expect("accept");
            let _ = read_one_line(&conn);
            let busy = Response::new(
                "r",
                Outcome::Overloaded { queue_depth: 1, queue_capacity: 1 },
                WireStats::default(),
            );
            writeln!(conn, "{}", busy.to_json()).expect("busy reply");
            // Same connection: the resend arrives here.
            let _ = read_one_line(&conn);
            writeln!(conn, "{}", pong_line()).expect("pong reply");
        });
        let mut c = Client::connect(addr).expect("connect");
        c.set_retry(Some(fast_policy()));
        assert!(c.ping().expect("must surface the eventual pong"));
        server.join().expect("server thread");
    }

    #[test]
    fn partial_reply_is_never_retried() {
        let requests = Arc::new(AtomicU32::new(0));
        let seen = Arc::clone(&requests);
        let (addr, server) = scripted_server(move |listener| {
            let (mut conn, _) = listener.accept().expect("accept");
            let _ = read_one_line(&conn);
            seen.fetch_add(1, Ordering::Relaxed);
            // Half a reply, no newline, then hang up mid-line.
            conn.write_all(b"{\"v\":2,\"id\":\"r").expect("partial");
            // Connection drops on scope exit; no further accepts.
        });
        let mut c = Client::connect(addr).expect("connect");
        c.set_retry(Some(fast_policy()));
        let err = c.ping().expect_err("a truncated reply must surface, not retry");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert_eq!(requests.load(Ordering::Relaxed), 1, "exactly one attempt");
        server.join().expect("server thread");
    }

    #[test]
    fn non_idempotent_ops_are_never_retried() {
        let requests = Arc::new(AtomicU32::new(0));
        let seen = Arc::clone(&requests);
        let (addr, server) = scripted_server(move |listener| {
            let (conn, _) = listener.accept().expect("accept");
            let _ = read_one_line(&conn);
            seen.fetch_add(1, Ordering::Relaxed);
            // Hang up without replying; a retry would show up as a
            // second accept, which this script never performs.
        });
        let mut c = Client::connect(addr).expect("connect");
        c.set_retry(Some(fast_policy()));
        c.put_instance("V/2", "V(a,b).").expect_err("put_instance must fail without retrying");
        assert_eq!(requests.load(Ordering::Relaxed), 1, "exactly one attempt");
        server.join().expect("server thread");
    }

    #[test]
    fn refused_reconnects_exhaust_bounded_attempts() {
        let (addr, server) = scripted_server(move |listener| {
            let (conn, _) = listener.accept().expect("accept");
            // Drop the connection AND the listener without reading:
            // every attempt and every reconnect is refused from here on.
            drop(conn);
        });
        let mut c = Client::connect(addr).expect("connect");
        // Joining first guarantees the listener is gone before the
        // first attempt, so the schedule is deterministic.
        server.join().expect("server thread");
        c.set_retry(Some(fast_policy()));
        c.set_read_timeout(Some(Duration::from_secs(2))).expect("timeout");
        let started = std::time::Instant::now();
        c.ping().expect_err("all attempts refused must end in an error");
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "attempts are bounded, not an endless reconnect loop"
        );
    }

    #[test]
    fn backoff_is_deterministic_per_seed_and_capped() {
        let policy = RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(40),
            seed: 42,
        };
        let delays = |seed: u64| -> Vec<Duration> {
            let mut rng = StdRng::seed_from_u64(seed);
            (1..=4).map(|a| policy.backoff_delay(a, &mut rng)).collect()
        };
        assert_eq!(delays(42), delays(42), "same seed, same schedule");
        for (i, d) in delays(42).iter().enumerate() {
            let cap = Duration::from_millis(40.min(10 << i));
            assert!(*d <= cap, "attempt {} delay {d:?} over cap {cap:?}", i + 1);
            assert!(*d >= cap / 2, "jitter floor is half the exponential delay");
        }
    }

    #[test]
    fn retry_safety_classification() {
        assert!(retry_safe(&Request::Ping));
        assert!(retry_safe(&Request::CacheStats));
        assert!(retry_safe(&Request::Stats));
        assert!(!retry_safe(&Request::PutInstance {
            schema: "V/2".into(),
            extent: "V(a,b).".into()
        }));
        assert!(!retry_safe(&Request::EvictInstance { handle: "h1".into() }));
        assert!(!retry_safe(&Request::Shutdown));
        assert!(!retry_safe(&Request::DebugPanic));
    }
}

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
//! Per-call read/write timeouts ([`Client::set_read_timeout`],
//! [`Client::set_write_timeout`]) bound how long any single call can
//! block. A client never resends: a transport error, or a reply cut off
//! mid-line, surfaces to the caller.

use crate::proto::{Envelope, ErrorKind, Limits, Outcome, Request, Response, WireMetrics};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A blocking protocol client over one TCP connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

impl Client {
    /// Connects to a running server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client { reader: BufReader::new(stream.try_clone()?), writer: stream, next_id: 0 })
    }

    /// Caps how long [`Client::call`] waits for a reply (`None` = wait
    /// forever). Server-side budgets normally bound this anyway.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.writer.set_read_timeout(timeout)
    }

    /// Caps how long a request write may block (`None` = forever).
    pub fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.writer.set_write_timeout(timeout)
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
    /// Protocol-level failures (`overloaded`, `exhausted`, errors) come
    /// back as structured outcomes at their request's position.
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

    /// One write, then one reply line.
    fn send(&mut self, envelope: Envelope) -> io::Result<Response> {
        writeln!(self.writer, "{}", envelope.to_json())?;
        self.writer.flush()?;
        self.read_response()
    }

    /// Sends a raw line (not necessarily a valid envelope) and reads one
    /// reply. Blank lines get no reply — don't send them here.
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

/// True iff the outcome is a protocol/engine error of the given kind.
pub fn is_error_kind(response: &Response, kind: ErrorKind) -> bool {
    matches!(&response.outcome, Outcome::Error { kind: k, .. } if *k == kind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{SocketAddr, TcpListener};
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

    fn read_one_line(conn: &TcpStream) -> String {
        let mut reader = BufReader::new(conn.try_clone().expect("clone"));
        let mut line = String::new();
        let _ = reader.read_line(&mut line);
        line
    }

    #[test]
    fn partial_reply_surfaces_as_invalid_data() {
        let (addr, server) = scripted_server(move |listener| {
            let (mut conn, _) = listener.accept().expect("accept");
            let _ = read_one_line(&conn);
            // Half a reply, no newline, then hang up mid-line.
            conn.write_all(b"{\"v\":2,\"id\":\"r").expect("partial");
        });
        let mut c = Client::connect(addr).expect("connect");
        let err = c.ping().expect_err("a truncated reply must surface");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        server.join().expect("server thread");
    }

    #[test]
    fn a_hangup_before_the_reply_surfaces_as_eof() {
        let (addr, server) = scripted_server(move |listener| {
            let (conn, _) = listener.accept().expect("accept");
            let _ = read_one_line(&conn);
        });
        let mut c = Client::connect(addr).expect("connect");
        let err = c.put_instance("V/2", "V(a,b).").expect_err("no reply must surface");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
        server.join().expect("server thread");
    }
}

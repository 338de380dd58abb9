//! `loadgen` — concurrency/latency harness for `vqd-server`.
//!
//! Spawns an in-process server (or targets `--addr`), drives it with
//! `--conns` concurrent client connections each issuing `--requests`
//! randomized requests (a mix of determinacy decisions, rewritings,
//! certain-answer evaluations — inline and via cached instance handles,
//! bounded containment, semantic scans, and pings generated via
//! [`vqd_bench::genq`]), and writes a JSON report with throughput,
//! latency percentiles, cache hit/miss latency splits, per-fragment
//! router attribution (fast-path vs budgeted latency), and outcome
//! counts to `BENCH_server.json`.
//!
//! The determinacy slice of the mix is fragment-stratified: pinned
//! `project-select` pairs (must take the router's direct fast path),
//! pinned `path` pairs (chase), and a pinned general pair (budgeted
//! semi-decision). The client predicts each probe's fragment and
//! cross-checks the reply's `fragment` attribution; any disagreement
//! fails the run.
//!
//! Every connection `put`s one shared extent up front and routes part
//! of its certain-answer traffic through the returned handle. All
//! connections share one extent fingerprint, so the server chases it
//! once and serves the rest from the cross-request index cache; the
//! report splits handle-request latency by hit vs. miss (classified
//! client-side: a hit reports `index_builds: 0` in the work envelope).
//!
//! ```text
//! loadgen [--conns 32] [--requests 25] [--workers 4] [--queue-depth 64]
//!         [--io-threads 2] [--idle-conns 0] [--deadline-ms 500] [--seed 7]
//!         [--out BENCH_server.json] [--addr HOST:PORT] [--smoke]
//! ```
//!
//! `--idle-conns N` (in-process runs) appends a mostly-idle-connections
//! phase after the load drains: N live connections are held from a
//! single thread while the process's thread count and CPU time are
//! sampled from `/proc/self` — the readiness-driven serving layer must
//! hold them all with at most I/O threads + worker pool + 2 threads and
//! flat CPU — then ping latency is measured at pipelined depth 1 vs 8.
//! The results land in the report's `connections` section, and a
//! violated bound fails the run.
//!
//! `--smoke` shrinks the run for CI (few connections, few requests).
//! Exit code 0 means every connection thread completed without a panic
//! or transport failure and at least one request completed.
//!
//! `--cache-dir PATH` (in-process runs only) turns on the persistent
//! cache tier and appends a kill-and-restart phase: after the load
//! drains, the server is stopped and a fresh one is brought up on the
//! same directory; the report's `restart` section records the cold
//! start time, whether a pre-restart handle survived with a
//! byte-identical answer, the first request's `index_builds` (0 means
//! the warm restore did its job), and post-restart latency. A run with
//! `--cache-dir` also fails when the server counted any disk I/O error:
//! no faults are injected here, so every `disk_io_errors` is a bug.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::json::Value;
use std::io::Write as _;
use std::time::{Duration, Instant};
use vqd_bench::genq::{path_query, path_views, random_cq, CqGen};
use vqd_instance::Schema;
use vqd_server::{
    Client, DiskConfig, ErrorKind, Limits, Outcome, Request, ServerCaps, ServerConfig,
    WireMetrics,
};

struct Args {
    conns: usize,
    requests: usize,
    workers: usize,
    queue_depth: usize,
    io_threads: usize,
    idle_conns: usize,
    deadline_ms: u64,
    seed: u64,
    out: String,
    addr: Option<String>,
    cache_dir: Option<String>,
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!(
        "usage: loadgen [--conns N] [--requests N] [--workers N] [--queue-depth N] \
         [--io-threads N] [--idle-conns N] [--deadline-ms N] [--seed N] [--out PATH] \
         [--addr HOST:PORT] [--cache-dir PATH] [--smoke]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        conns: 32,
        requests: 25,
        workers: 4,
        queue_depth: 64,
        io_threads: 2,
        idle_conns: 0,
        deadline_ms: 500,
        seed: 7,
        out: "BENCH_server.json".to_owned(),
        addr: None,
        cache_dir: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    let num = |it: &mut std::slice::Iter<'_, String>, flag: &str| -> u64 {
        it.next()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| die(&format!("flag `{flag}` needs a numeric value")))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--conns" => args.conns = num(&mut it, flag) as usize,
            "--requests" => args.requests = num(&mut it, flag) as usize,
            "--workers" => args.workers = num(&mut it, flag) as usize,
            "--queue-depth" => args.queue_depth = num(&mut it, flag) as usize,
            "--io-threads" => args.io_threads = num(&mut it, flag) as usize,
            "--idle-conns" => args.idle_conns = num(&mut it, flag) as usize,
            "--deadline-ms" => args.deadline_ms = num(&mut it, flag),
            "--seed" => args.seed = num(&mut it, flag),
            "--out" => {
                args.out = it.next().unwrap_or_else(|| die("flag `--out` needs a value")).clone();
            }
            "--addr" => {
                args.addr =
                    Some(it.next().unwrap_or_else(|| die("flag `--addr` needs a value")).clone());
            }
            "--cache-dir" => {
                args.cache_dir = Some(
                    it.next().unwrap_or_else(|| die("flag `--cache-dir` needs a value")).clone(),
                );
            }
            "--smoke" => {
                args.conns = 6;
                args.requests = 4;
            }
            "--help" | "-h" => die("loadgen: drive a vqd-server with concurrent clients"),
            other => die(&format!("unknown flag `{other}`")),
        }
    }
    if args.conns == 0 || args.requests == 0 {
        die("--conns and --requests must be positive");
    }
    Args { ..args }
}

/// The shared extent every connection registers once; one fingerprint
/// across the whole run, so the server's derived-index cache converges
/// to a single hot entry. Big enough that the miss (a full chase plus
/// index builds) costs measurable server-side milliseconds.
fn shared_extent() -> String {
    (0..512).map(|i| format!("V(N{i},N{}). ", i + 1)).collect()
}

fn certain_by_handle(handle: &str) -> Request {
    Request::CertainHandle {
        schema: "E/2".to_owned(),
        views: "V(x,y) :- E(x,y).".to_owned(),
        query: "Q(x,z) :- E(x,y), E(y,z).".to_owned(),
        handle: handle.to_owned(),
    }
}

/// One randomized request over the graph schema `E/2`, as wire text,
/// plus the router fragment we *expect* the server to attribute to it
/// (`None` when the request is not a fragment probe — random shapes,
/// cache traffic, pings). `handle` routes a slice of the certain-answer
/// traffic through the cross-request cache.
fn sample_request(
    rng: &mut StdRng,
    schema: &Schema,
    handle: &str,
) -> (Request, Option<&'static str>) {
    let schema_text = "E/2".to_owned();
    match rng.gen_range(0..15u32) {
        // Path-view determinacy with a known-positive instance (k=2
        // views determine the length-4 query) and a known-negative one.
        // Chain views + chain query ⇒ the router tags these `path` and
        // keeps them on the chase.
        0..=2 => {
            let k = rng.gen_range(2..=3usize);
            let m = if rng.gen_range(0..2u32) == 0 { 2 * k } else { k + 1 };
            let req = Request::Decide {
                schema: schema_text,
                views: path_views(schema, k).as_view_set().to_string(),
                query: path_query(schema, m).render("Q"),
            };
            (req, Some("path"))
        }
        // Random small CQs: exercises the chase on varied shapes. The
        // fragment varies with the draw, so no expectation is pinned —
        // the reply's own attribution is still folded into the report.
        3..=4 => {
            let p = CqGen { atoms: rng.gen_range(1..=3), vars: rng.gen_range(2..=4), max_head: 2 };
            let views = format!(
                "{}\n{}",
                random_cq(schema, p, rng).render("V0"),
                random_cq(schema, p, rng).render("V1"),
            );
            let req = Request::Rewrite {
                schema: schema_text,
                views,
                query: random_cq(schema, p, rng).render("Q"),
            };
            (req, None)
        }
        // Certain answers on a concrete inline extent (small, so the
        // inline path stays cheap; the shared extent goes via handles).
        5 => {
            let req = Request::Certain {
                schema: schema_text,
                views: "V(x,y) :- E(x,y).".to_owned(),
                query: path_query(schema, 2).render("Q"),
                extent: "V(A,B). V(B,C). V(C,D).".to_owned(),
            };
            (req, None)
        }
        // Repeated-extent traffic through the cached handle.
        6..=8 => (certain_by_handle(handle), None),
        // Bounded containment between path queries.
        9 => {
            let k = rng.gen_range(2..=3usize);
            let req = Request::Containment {
                schema: schema_text,
                q1: path_query(schema, k + 1).render("Q"),
                q2: path_query(schema, k).render("Q"),
                max_domain: 2,
                space_limit: 1 << 12,
            };
            (req, None)
        }
        // One exhaustive semantic scan at domain 2 (cheap but real work).
        10 => {
            let req = Request::Semantic {
                schema: schema_text,
                views: path_views(schema, 2).as_view_set().to_string(),
                query: path_query(schema, 3).render("Q"),
                domain: 2,
                space_limit: 1 << 12,
            };
            (req, None)
        }
        // Project-select determinacy: single-atom views and query, so
        // the router must take the direct fast path (no chase, no index
        // builds) — one determined pair, one refuted pair.
        11..=12 => {
            let (views, query) = if rng.gen_range(0..2u32) == 0 {
                ("V(x,y) :- E(x,y).", "Q(y,x) :- E(x,y).")
            } else {
                ("W(x) :- E(x,x).", "Q(x,y) :- E(x,y).")
            };
            let req = Request::Decide {
                schema: schema_text,
                views: views.to_owned(),
                query: query.to_owned(),
            };
            (req, Some("project-select"))
        }
        // Outside both decidable fragments: a two-atom cyclic view is
        // neither single-atom nor a chain, so the router can only run
        // the budgeted semi-decision and must say so on the reply.
        13 => {
            let req = Request::Decide {
                schema: schema_text,
                views: "V(x,y) :- E(x,y), E(y,x).".to_owned(),
                query: path_query(schema, 2).render("Q"),
            };
            (req, Some("undecidable-in-general"))
        }
        _ => (Request::Ping, None),
    }
}

/// Report order for the per-phase timeline split (matches the six
/// lifecycle stamps: decode+admission, queue wait, execution, reorder
/// hold, write serialization — write drain is observed server-side in
/// `server.phase.write_ms` and reads 0 on the wire).
const PHASE_NAMES: [&str; 5] = ["frame", "queue", "exec", "reorder", "write"];

#[derive(Default)]
struct ConnStats {
    latencies_ms: Vec<f64>,
    /// Per-phase timeline samples in µs, one slot per [`PHASE_NAMES`]
    /// entry, harvested from the profiled replies' `timeline` section.
    phase_us: [Vec<f64>; 5],
    /// Handle-request latencies, split by whether the server reused the
    /// cached index (`index_builds == 0` in the work envelope). Client
    /// vectors are round-trip (queueing included); server vectors are
    /// the profiled reply's `timeline.exec_us` in ms — execution only,
    /// at µs resolution. (The work envelope's `elapsed_ms` is the budget
    /// clock: it starts at admission, so it includes queue wait, and it
    /// is truncated to whole milliseconds.)
    hit_latencies_ms: Vec<f64>,
    miss_latencies_ms: Vec<f64>,
    hit_server_ms: Vec<f64>,
    miss_server_ms: Vec<f64>,
    /// Per-fragment server-side execution latencies (ms, from
    /// `timeline.exec_us`), keyed by the reply's own `fragment`
    /// attribution (`project-select` / `path` /
    /// `undecidable-in-general`): the fast-path vs budgeted split.
    fragment_server_ms: std::collections::BTreeMap<String, Vec<f64>>,
    /// Probes whose reply attribution disagreed with the client's
    /// prediction (or was missing). Any nonzero count is a router bug.
    fragment_mismatches: u64,
    ok: u64,
    exhausted: u64,
    overloaded: u64,
    errors: u64,
    reputs: u64,
}

fn drive_connection(
    addr: std::net::SocketAddr,
    requests: usize,
    deadline_ms: u64,
    seed: u64,
) -> Result<ConnStats, String> {
    let schema = Schema::parse("E/2").map_err(|e| e.to_string())?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| format!("timeout: {e}"))?;
    // Register the shared extent once; every connection gets its own
    // handle but the same fingerprint, so the derived index is shared.
    let extent = shared_extent();
    let (mut handle, _) =
        client.put_instance("V/2", &*extent).map_err(|e| format!("put: {e}"))?;
    let mut stats = ConnStats::default();
    for _ in 0..requests {
        let (request, expected_fragment) = sample_request(&mut rng, &schema, &handle);
        let is_handle_req = matches!(request, Request::CertainHandle { .. });
        let limits = Limits { deadline_ms: Some(deadline_ms), ..Limits::none() };
        let start = Instant::now();
        // Profiled calls so replies carry the per-phase `timeline`
        // section the report's `phases` split is built from.
        let mut response =
            client.call_profiled(limits.clone(), request).map_err(|e| format!("call: {e}"))?;
        // Handles are cache references, not leases: on eviction the
        // client re-puts and retries, exactly once per occurrence.
        if is_handle_req && vqd_server::client::is_error_kind(&response, ErrorKind::UnknownHandle)
        {
            let (h, _) =
                client.put_instance("V/2", &*extent).map_err(|e| format!("re-put: {e}"))?;
            handle = h;
            stats.reputs += 1;
            response = client
                .call_profiled(limits, certain_by_handle(&handle))
                .map_err(|e| format!("retry: {e}"))?;
        }
        let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
        stats.latencies_ms.push(elapsed_ms);
        let exec_ms = response.timeline.as_ref().map(|tl| tl.exec_us as f64 / 1e3);
        if let Some(tl) = &response.timeline {
            for (slot, us) in [tl.frame_us, tl.queue_us, tl.exec_us, tl.reorder_us, tl.write_us]
                .into_iter()
                .enumerate()
            {
                stats.phase_us[slot].push(us as f64);
            }
        }
        if let (Some(tag), Some(exec_ms)) = (&response.fragment, exec_ms) {
            stats.fragment_server_ms.entry(tag.clone()).or_default().push(exec_ms);
        }
        if let Some(expected) = expected_fragment {
            if response.fragment.as_deref() != Some(expected) {
                if stats.fragment_mismatches == 0 {
                    eprintln!(
                        "loadgen: fragment mismatch: expected {expected}, reply says {:?}",
                        response.fragment
                    );
                }
                stats.fragment_mismatches += 1;
            }
        }
        if is_handle_req && matches!(response.outcome, Outcome::CertainAnswers { .. }) {
            let (client_ms, server_ms) = if response.work.index_builds == 0 {
                (&mut stats.hit_latencies_ms, &mut stats.hit_server_ms)
            } else {
                (&mut stats.miss_latencies_ms, &mut stats.miss_server_ms)
            };
            client_ms.push(elapsed_ms);
            server_ms.extend(exec_ms);
        }
        match response.outcome {
            Outcome::Error { kind, message } => {
                // Protocol/engine errors under generated load are bugs:
                // surface the first one loudly but keep counting.
                if stats.errors == 0 {
                    eprintln!("loadgen: error reply [{:?}]: {message}", kind);
                }
                stats.errors += 1;
            }
            Outcome::Exhausted { .. } => stats.exhausted += 1,
            Outcome::Overloaded { .. } => stats.overloaded += 1,
            _ => stats.ok += 1,
        }
    }
    Ok(stats)
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Caps for an in-process server; `--cache-dir` turns on the
/// persistent tier so the restart phase has something to survive on.
fn in_process_caps(cache_dir: Option<&str>, io_threads: usize) -> ServerCaps {
    let mut caps = ServerCaps {
        max_deadline: Duration::from_secs(5),
        io_threads,
        ..ServerCaps::default()
    };
    if let Some(dir) = cache_dir {
        caps.cache.disk = Some(DiskConfig::at(std::path::PathBuf::from(dir)));
    }
    caps
}

/// Threads currently alive in this process (`/proc/self/status`).
/// Returns 0 when unreadable (non-Linux), which disables the bound
/// assertion rather than failing the run.
fn read_thread_count() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Total process CPU time in milliseconds (`/proc/self/stat`
/// utime+stime at the usual 100Hz tick). Returns `None` when
/// unreadable, which skips the idle-CPU assertion.
fn read_cpu_ms() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the comm field (which may itself contain spaces):
    // state is field 3, utime field 14, stime field 15.
    let rest = stat.rsplit_once(')')?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * 10)
}

/// One blocking newline-framed round trip on a raw socket.
fn raw_round_trip(stream: &mut std::net::TcpStream, line: &str) -> Result<(), String> {
    use std::io::Read as _;
    stream.write_all(line.as_bytes()).map_err(|e| format!("write: {e}"))?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 256];
    loop {
        let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".to_owned());
        }
        buf.extend_from_slice(&chunk[..n]);
        if buf.contains(&b'\n') {
            return Ok(());
        }
    }
}

/// The mostly-idle-connections phase: hold `n` live connections from
/// this one thread, prove the process thread count stays bounded by
/// I/O threads + worker pool + 2 and that the idle fleet consumes no
/// CPU, then measure ping latency at pipelined depth 1 vs 8. Returns
/// the report section and whether every bound held.
fn connections_phase(
    addr: std::net::SocketAddr,
    n: usize,
    io_threads: usize,
    workers: usize,
) -> (Value, bool) {
    let mut ok = true;
    // 2 fds per connection for in-process runs (client end + accepted
    // end live in the same process), plus slack for everything else.
    let limit = vqd_server::netpoll::raise_nofile_limit(2 * n as u64 + 512);
    if limit < 2 * n as u64 + 64 {
        eprintln!("loadgen: fd limit {limit} may be too low for {n} connections");
    }
    let ping_line = "{\"v\":1,\"id\":\"idle\",\"request\":{\"op\":\"ping\"}}\n";
    let opened = Instant::now();
    let mut held = Vec::with_capacity(n);
    let mut conn_failures = 0u64;
    for _ in 0..n {
        match std::net::TcpStream::connect(addr) {
            Ok(mut stream) => {
                stream.set_read_timeout(Some(Duration::from_secs(30))).ok();
                // One round trip so the connection is fully registered
                // with an event loop (not just sitting in the backlog).
                match raw_round_trip(&mut stream, ping_line) {
                    Ok(()) => held.push(stream),
                    Err(e) => {
                        if conn_failures == 0 {
                            eprintln!("loadgen: idle conn ping failed: {e}");
                        }
                        conn_failures += 1;
                    }
                }
            }
            Err(e) => {
                if conn_failures == 0 {
                    eprintln!("loadgen: idle conn connect failed: {e}");
                }
                conn_failures += 1;
            }
        }
    }
    let open_ms = opened.elapsed().as_secs_f64() * 1e3;
    if conn_failures > 0 {
        ok = false;
    }

    // Idle window: with every connection parked in the poll set, the
    // event loops sleep indefinitely — process CPU time must stay flat.
    let cpu_before = read_cpu_ms();
    std::thread::sleep(Duration::from_secs(2));
    let idle_cpu_ms =
        match (cpu_before, read_cpu_ms()) {
            (Some(b), Some(a)) => Some(a.saturating_sub(b)),
            _ => None,
        };
    let threads_used = read_thread_count();
    let thread_bound = (io_threads + workers + 2) as u64;
    if threads_used > thread_bound {
        eprintln!(
            "loadgen: thread count {threads_used} exceeds bound {thread_bound} \
             ({io_threads} I/O + {workers} workers + 2)"
        );
        ok = false;
    }
    if let Some(ms) = idle_cpu_ms {
        // 1k idle connections over a 2s window: anything beyond a small
        // scheduling residue means something is spinning.
        if ms > 500 {
            eprintln!("loadgen: {ms}ms of CPU burned while every connection was idle");
            ok = false;
        }
    }

    // Latency under pipelining, with the idle fleet still held: depth 1
    // (call/response) vs depth 8 (eight requests written before any
    // reply is read; per-request cost is the batch time over 8).
    let depth = |client: &mut Client, batch: usize, rounds: usize| -> Vec<f64> {
        let mut per_request_ms = Vec::with_capacity(batch * rounds);
        for _ in 0..rounds {
            let requests: Vec<(Limits, Request)> =
                (0..batch).map(|_| (Limits::none(), Request::Ping)).collect();
            let started = Instant::now();
            match client.call_many(requests) {
                Ok(replies) => {
                    let each = started.elapsed().as_secs_f64() * 1e3 / replies.len().max(1) as f64;
                    per_request_ms.extend(std::iter::repeat_n(each, replies.len()));
                }
                Err(e) => {
                    eprintln!("loadgen: pipelined batch failed: {e}");
                    break;
                }
            }
        }
        per_request_ms.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        per_request_ms
    };
    let (depth1, depth8) = match Client::connect(addr) {
        Ok(mut client) => {
            client.set_read_timeout(Some(Duration::from_secs(30))).ok();
            (depth(&mut client, 1, 200), depth(&mut client, 8, 25))
        }
        Err(e) => {
            eprintln!("loadgen: depth-phase connect failed: {e}");
            ok = false;
            (Vec::new(), Vec::new())
        }
    };
    drop(held);

    println!(
        "connections: held {} (of {n}) in {open_ms:.0}ms | {threads_used} threads \
         (bound {thread_bound}) | idle cpu {} | ping p50 depth1 {:.3}ms vs depth8 {:.3}ms",
        n as u64 - conn_failures,
        idle_cpu_ms.map_or("n/a".to_owned(), |ms| format!("{ms}ms")),
        percentile(&depth1, 0.50),
        percentile(&depth8, 0.50),
    );
    let section = Value::object([
        ("conns_held", Value::from(n as u64 - conn_failures)),
        ("conn_failures", Value::from(conn_failures)),
        ("open_ms", Value::from(open_ms)),
        ("threads_used", Value::from(threads_used)),
        ("thread_bound", Value::from(thread_bound)),
        ("io_threads", Value::from(io_threads)),
        ("workers", Value::from(workers)),
        (
            "idle_cpu_ms",
            idle_cpu_ms.map_or(Value::Null, Value::from),
        ),
        (
            "pipelined_depth1_ms",
            Value::object([
                ("p50", Value::from(percentile(&depth1, 0.50))),
                ("p95", Value::from(percentile(&depth1, 0.95))),
            ]),
        ),
        (
            "pipelined_depth8_ms",
            Value::object([
                ("p50", Value::from(percentile(&depth8, 0.50))),
                ("p95", Value::from(percentile(&depth8, 0.95))),
            ]),
        ),
    ]);
    (section, ok)
}

fn main() {
    let args = parse_args();

    // Either target an external server or run one in-process.
    let (addr, handle) = match &args.addr {
        Some(a) => {
            let addr = a.parse().unwrap_or_else(|e| die(&format!("bad --addr `{a}`: {e}")));
            (addr, None)
        }
        None => {
            let handle = vqd_server::spawn(ServerConfig {
                addr: "127.0.0.1:0".to_owned(),
                workers: args.workers,
                queue_depth: args.queue_depth,
                caps: in_process_caps(args.cache_dir.as_deref(), args.io_threads),
            })
            .unwrap_or_else(|e| die(&format!("cannot start server: {e}")));
            (handle.addr(), Some(handle))
        }
    };
    println!(
        "loadgen: {} conns x {} requests against {addr} ({} workers, queue {})",
        args.conns, args.requests, args.workers, args.queue_depth
    );

    // In-process runs can bracket the drive with registry snapshots so
    // the report carries per-op counters and latency histograms.
    let registry = handle.as_ref().map(|h| h.registry());
    let registry_before = registry.as_ref().map(|r| r.snapshot());

    let started = Instant::now();
    let threads: Vec<_> = (0..args.conns)
        .map(|i| {
            let seed = args.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(i as u64);
            let (requests, deadline_ms) = (args.requests, args.deadline_ms);
            std::thread::Builder::new()
                .name(format!("loadgen-{i}"))
                .spawn(move || drive_connection(addr, requests, deadline_ms, seed))
                .unwrap_or_else(|e| die(&format!("spawning client {i}: {e}")))
        })
        .collect();

    let mut all = ConnStats::default();
    let mut failures = 0u64;
    let mut panics = 0u64;
    for t in threads {
        match t.join() {
            Ok(Ok(s)) => {
                all.latencies_ms.extend(s.latencies_ms);
                for (slot, us) in s.phase_us.into_iter().enumerate() {
                    all.phase_us[slot].extend(us);
                }
                all.hit_latencies_ms.extend(s.hit_latencies_ms);
                all.miss_latencies_ms.extend(s.miss_latencies_ms);
                all.hit_server_ms.extend(s.hit_server_ms);
                all.miss_server_ms.extend(s.miss_server_ms);
                for (tag, ms) in s.fragment_server_ms {
                    all.fragment_server_ms.entry(tag).or_default().extend(ms);
                }
                all.fragment_mismatches += s.fragment_mismatches;
                all.ok += s.ok;
                all.exhausted += s.exhausted;
                all.overloaded += s.overloaded;
                all.errors += s.errors;
                all.reputs += s.reputs;
            }
            Ok(Err(msg)) => {
                eprintln!("loadgen: connection failed: {msg}");
                failures += 1;
            }
            Err(_) => {
                eprintln!("loadgen: client thread panicked");
                panics += 1;
            }
        }
    }
    let elapsed = started.elapsed();
    let registry_after = registry.as_ref().map(|r| r.snapshot());
    // Server-side cache counters, read over the wire so external
    // (`--addr`) targets report them too.
    let cache_stats = Client::connect(addr).ok().and_then(|mut c| c.cache_stats().ok());
    let disk_io_errors_seen = match &cache_stats {
        Some(Outcome::CacheStatsSnapshot { disk_io_errors, .. }) => *disk_io_errors,
        _ => 0,
    };
    let cache_counters = cache_stats.and_then(|outcome| match outcome {
            Outcome::CacheStatsSnapshot {
                entries,
                bytes,
                hits,
                misses,
                evictions,
                puts,
                disk_hits,
                disk_misses,
                disk_spills,
                disk_promotions,
                disk_corrupt_dropped,
                disk_io_errors,
                disk_bytes,
                ..
            } => Some(Value::object([
                ("entries", Value::from(entries)),
                ("bytes", Value::from(bytes)),
                ("hits", Value::from(hits)),
                ("misses", Value::from(misses)),
                ("evictions", Value::from(evictions)),
                ("puts", Value::from(puts)),
                ("disk_hits", Value::from(disk_hits)),
                ("disk_misses", Value::from(disk_misses)),
                ("disk_spills", Value::from(disk_spills)),
                ("disk_promotions", Value::from(disk_promotions)),
                ("disk_corrupt_dropped", Value::from(disk_corrupt_dropped)),
                ("disk_io_errors", Value::from(disk_io_errors)),
                ("disk_bytes", Value::from(disk_bytes)),
            ])),
            _ => None,
        });
    // Hold a mostly-idle connection fleet against the (still running)
    // server, proving the readiness-driven layer keeps its thread and
    // idle-CPU bounds, and measure pipelined depth-1 vs depth-8 pings.
    // Thread/CPU accounting reads /proc/self, so the phase only proves
    // anything for in-process runs.
    let (connections_report, connections_ok) =
        if args.idle_conns > 0 && handle.is_some() {
            let (section, ok) =
                connections_phase(addr, args.idle_conns, args.io_threads, args.workers);
            (Some(section), ok)
        } else {
            (None, true)
        };
    // With a persistent cache dir, bracket a kill-and-restart: register
    // one more handle, capture its baseline answer while the first
    // server is alive, then (after the shutdown below) bring a fresh
    // server up on the same directory and measure how warm it is.
    let restart_probe: Option<(String, String)> =
        if handle.is_some() && args.cache_dir.is_some() {
            (|| {
                let mut c = Client::connect(addr).ok()?;
                c.set_read_timeout(Some(Duration::from_secs(30))).ok()?;
                let (h, _) = c.put_instance("V/2", &*shared_extent()).ok()?;
                let limits = Limits { deadline_ms: Some(10_000), ..Limits::none() };
                let baseline = c.call(limits, certain_by_handle(&h)).ok()?;
                matches!(baseline.outcome, Outcome::CertainAnswers { .. })
                    .then(|| (h, baseline.outcome.to_string()))
            })()
        } else {
            None
        };
    let server_metrics: Option<WireMetrics> = handle.map(|h| h.shutdown());
    let restart_report: Option<Value> = restart_probe.and_then(|(survivor, baseline)| {
        let spawn_started = Instant::now();
        let second = vqd_server::spawn(ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: args.workers,
            queue_depth: args.queue_depth,
            caps: in_process_caps(args.cache_dir.as_deref(), args.io_threads),
        })
        .ok()?;
        let cold_start_ms = spawn_started.elapsed().as_secs_f64() * 1e3;
        let mut c = Client::connect(second.addr()).ok()?;
        c.set_read_timeout(Some(Duration::from_secs(30))).ok()?;
        let limits = Limits { deadline_ms: Some(10_000), ..Limits::none() };
        let first_started = Instant::now();
        let first = c.call(limits.clone(), certain_by_handle(&survivor)).ok()?;
        let first_request_ms = first_started.elapsed().as_secs_f64() * 1e3;
        let handle_survived = matches!(first.outcome, Outcome::CertainAnswers { .. });
        // "Byte-identical" is the restart acceptance bar: the answer
        // after the restart must render exactly as it did before it.
        let byte_identical = handle_survived && first.outcome.to_string() == baseline;
        let mut post_ms = Vec::new();
        for _ in 0..10 {
            let s = Instant::now();
            if c.call(limits.clone(), certain_by_handle(&survivor)).is_err() {
                break;
            }
            post_ms.push(s.elapsed().as_secs_f64() * 1e3);
        }
        post_ms.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let _ = second.shutdown();
        println!(
            "restart: cold start {cold_start_ms:.1}ms, first handle request \
             {first_request_ms:.2}ms ({} index builds), survived={handle_survived}, \
             byte_identical={byte_identical}",
            first.work.index_builds
        );
        Some(Value::object([
            ("cold_start_ms", Value::from(cold_start_ms)),
            ("handle_survived", Value::from(handle_survived)),
            ("byte_identical", Value::from(byte_identical)),
            ("first_request_ms", Value::from(first_request_ms)),
            ("first_index_builds", Value::from(first.work.index_builds)),
            ("post_restart_requests", Value::from(post_ms.len())),
            ("post_restart_p50_ms", Value::from(percentile(&post_ms, 0.50))),
        ]))
    });

    let completed = all.latencies_ms.len() as u64;
    all.latencies_ms.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let throughput = completed as f64 / elapsed.as_secs_f64().max(1e-9);
    let (p50, p95, p99) = (
        percentile(&all.latencies_ms, 0.50),
        percentile(&all.latencies_ms, 0.95),
        percentile(&all.latencies_ms, 0.99),
    );
    let max_ms = all.latencies_ms.last().copied().unwrap_or(0.0);

    let sortf = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
    };
    sortf(&mut all.hit_latencies_ms);
    sortf(&mut all.miss_latencies_ms);
    sortf(&mut all.hit_server_ms);
    sortf(&mut all.miss_server_ms);
    let (hits, misses) = (all.hit_latencies_ms.len(), all.miss_latencies_ms.len());
    let hit_ratio = hits as f64 / (hits + misses).max(1) as f64;

    let mut report = vec![
        ("bench".to_owned(), Value::from("server_loadgen")),
        ("conns".to_owned(), Value::from(args.conns)),
        ("requests_per_conn".to_owned(), Value::from(args.requests)),
        ("workers".to_owned(), Value::from(args.workers)),
        ("queue_depth".to_owned(), Value::from(args.queue_depth)),
        ("deadline_ms".to_owned(), Value::from(args.deadline_ms)),
        ("seed".to_owned(), Value::from(args.seed)),
        ("elapsed_ms".to_owned(), Value::from(elapsed.as_secs_f64() * 1e3)),
        ("completed".to_owned(), Value::from(completed)),
        ("ok".to_owned(), Value::from(all.ok)),
        ("exhausted".to_owned(), Value::from(all.exhausted)),
        ("overloaded".to_owned(), Value::from(all.overloaded)),
        ("errors".to_owned(), Value::from(all.errors)),
        ("connection_failures".to_owned(), Value::from(failures)),
        ("client_panics".to_owned(), Value::from(panics)),
        ("throughput_rps".to_owned(), Value::from(throughput)),
        (
            "latency_ms".to_owned(),
            Value::object([
                ("p50", Value::from(p50)),
                ("p95", Value::from(p95)),
                ("p99", Value::from(p99)),
                ("max", Value::from(max_ms)),
            ]),
        ),
        (
            "handle_cache".to_owned(),
            Value::object([
                ("handle_requests", Value::from(hits + misses)),
                ("hits", Value::from(hits)),
                ("misses", Value::from(misses)),
                ("hit_ratio", Value::from(hit_ratio)),
                ("reputs", Value::from(all.reputs)),
                (
                    "hit_latency_ms",
                    Value::object([
                        ("p50", Value::from(percentile(&all.hit_latencies_ms, 0.50))),
                        ("p95", Value::from(percentile(&all.hit_latencies_ms, 0.95))),
                        ("server_p50", Value::from(percentile(&all.hit_server_ms, 0.50))),
                        ("server_p95", Value::from(percentile(&all.hit_server_ms, 0.95))),
                    ]),
                ),
                (
                    "miss_latency_ms",
                    Value::object([
                        ("p50", Value::from(percentile(&all.miss_latencies_ms, 0.50))),
                        ("p95", Value::from(percentile(&all.miss_latencies_ms, 0.95))),
                        ("server_p50", Value::from(percentile(&all.miss_server_ms, 0.50))),
                        ("server_p95", Value::from(percentile(&all.miss_server_ms, 0.95))),
                    ]),
                ),
            ]),
        ),
    ];
    {
        // Router attribution: one entry per fragment the server tagged,
        // plus the headline fast-path vs budgeted comparison. The
        // server-side `timeline.exec_us` is used, not the work envelope's
        // `elapsed_ms`: that budget clock starts at admission, so queue
        // wait would blur the split.
        let mut per_fragment: Vec<(String, Value)> = Vec::new();
        for (tag, ms) in &mut all.fragment_server_ms {
            ms.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            per_fragment.push((
                tag.clone(),
                Value::object([
                    ("count", Value::from(ms.len())),
                    ("server_p50_ms", Value::from(percentile(ms, 0.50))),
                    ("server_p95_ms", Value::from(percentile(ms, 0.95))),
                ]),
            ));
        }
        let p50_of = |tag: &str| {
            all.fragment_server_ms
                .get(tag)
                .map(|ms| percentile(ms, 0.50))
                .unwrap_or(0.0)
        };
        report.push((
            "fragments".to_owned(),
            Value::object([
                ("mismatches", Value::from(all.fragment_mismatches)),
                ("per_fragment", Value::Obj(per_fragment)),
                ("fastpath_p50_ms", Value::from(p50_of("project-select"))),
                ("budgeted_p50_ms", Value::from(p50_of("undecidable-in-general"))),
            ]),
        ));
    }
    {
        // Per-phase request-lifecycle split, from the profiled replies'
        // `timeline` sections: where a request's wall-clock actually
        // went (decode+admission, queue wait, execution, reorder hold;
        // `write` reads 0 on the wire — the kernel drain is observed
        // server-side in the `server.phase.write_ms` histogram).
        let mut phases: Vec<(String, Value)> = Vec::new();
        let mut sampled = 0usize;
        for (slot, name) in PHASE_NAMES.iter().enumerate() {
            let ms = &mut all.phase_us[slot];
            ms.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            sampled = sampled.max(ms.len());
            phases.push((
                (*name).to_owned(),
                Value::object([
                    ("p50_ms", Value::from(percentile(ms, 0.50) / 1e3)),
                    ("p95_ms", Value::from(percentile(ms, 0.95) / 1e3)),
                ]),
            ));
        }
        report.push((
            "phases".to_owned(),
            Value::object([
                ("sampled", Value::from(sampled)),
                ("per_phase", Value::Obj(phases)),
            ]),
        ));
    }
    if let Some(cache) = cache_counters {
        report.push(("server_cache".to_owned(), cache));
    }
    if let Some(connections) = connections_report {
        report.push(("connections".to_owned(), connections));
    }
    if let Some(restart) = restart_report {
        report.push(("restart".to_owned(), restart));
    }
    if let Some(m) = &server_metrics {
        report.push((
            "server".to_owned(),
            Value::object([
                ("accepted", Value::from(m.accepted)),
                ("completed_ok", Value::from(m.completed_ok)),
                ("exhausted", Value::from(m.exhausted)),
                ("rejected", Value::from(m.rejected)),
                ("errors", Value::from(m.errors)),
                ("max_queue_depth", Value::from(m.max_queue_depth)),
                ("connections_total", Value::from(m.connections_total)),
                ("workers", Value::from(m.workers)),
            ]),
        ));
    }
    if let (Some(before), Some(after)) = (&registry_before, &registry_after) {
        let deltas: Vec<(String, Value)> = after
            .counter_delta(before)
            .into_iter()
            .filter(|&(_, v)| v != 0)
            .map(|(k, v)| (k, Value::from(v)))
            .collect();
        report.push((
            "registry".to_owned(),
            Value::object([
                ("before", before.to_json()),
                ("after", after.to_json()),
                ("counter_deltas", Value::Obj(deltas)),
            ]),
        ));
    }
    let json = Value::Obj(report).to_string();
    match std::fs::File::create(&args.out).and_then(|mut f| writeln!(f, "{json}")) {
        Ok(()) => println!("wrote {}", args.out),
        Err(e) => {
            eprintln!("cannot write {}: {e}", args.out);
            std::process::exit(1)
        }
    }
    println!(
        "{completed} completed in {:.1}ms — {throughput:.0} req/s | \
         p50 {p50:.2}ms p95 {p95:.2}ms p99 {p99:.2}ms max {max_ms:.2}ms | \
         {} ok, {} exhausted, {} overloaded, {} errors",
        elapsed.as_secs_f64() * 1e3,
        all.ok,
        all.exhausted,
        all.overloaded,
        all.errors
    );
    println!(
        "handle cache: {hits} hits / {misses} misses ({:.0}% hit) | \
         server-side exec p50 hit {:.3}ms vs miss {:.3}ms | {} re-puts",
        hit_ratio * 100.0,
        percentile(&all.hit_server_ms, 0.50),
        percentile(&all.miss_server_ms, 0.50),
        all.reputs
    );
    let fragment_line: Vec<String> = all
        .fragment_server_ms
        .iter()
        .map(|(tag, ms)| format!("{tag} x{}", ms.len()))
        .collect();
    println!(
        "fragments: {} | {} mismatches",
        if fragment_line.is_empty() { "(none)".to_owned() } else { fragment_line.join(", ") },
        all.fragment_mismatches
    );
    let disk_faulted = args.cache_dir.is_some() && disk_io_errors_seen > 0;
    if disk_faulted {
        eprintln!("loadgen: {disk_io_errors_seen} disk I/O errors without injected faults");
    }
    if panics > 0
        || failures > 0
        || completed == 0
        || all.fragment_mismatches > 0
        || !connections_ok
        || disk_faulted
    {
        std::process::exit(1)
    }
}

//! `vqd-cli` — determinacy and rewriting from the command line.
//!
//! ```text
//! vqd-cli analyze --schema "E/2,P/1" \
//!         --views  "V1(x,y) :- E(x,y). V2(x) :- P(x)." \
//!         --query  "Q(x,z) :- E(x,y), E(y,z)." \
//!         [--max-domain 3] [--explain]
//!
//! vqd-cli serve   [--addr 127.0.0.1:7471] [--workers 4] [--queue-depth 64]
//!                 [--max-deadline-ms 10000] [--max-steps N] [--max-tuples N]
//!                 [--cache-entries N] [--cache-bytes N]
//!                 [--cache-dir PATH] [--disk-bytes N] [--engine-threads N]
//!
//! vqd-cli request [--addr 127.0.0.1:7471] --op decide \
//!                 --schema "E/2" --views "..." --query "..." \
//!                 [--extent E | --handle H] \
//!                 [--deadline-ms N] [--step-limit N] [--tuple-limit N] \
//!                 [--profile] [--trace] [--parallelism N]
//!
//! vqd-cli put      [--addr 127.0.0.1:7471] --schema "V/2" --extent "V(a,b)."
//! vqd-cli evict    [--addr 127.0.0.1:7471] --handle h1
//! vqd-cli stats    [--addr 127.0.0.1:7471]
//! vqd-cli metrics  [--addr 127.0.0.1:7471] [--prom]
//! vqd-cli flight   [--addr 127.0.0.1:7471]
//! vqd-cli classify [--addr 127.0.0.1:7471] --schema "E/2" --views "..." --query "..."
//! ```
//!
//! `request`, `put`, `evict` and `classify` read their flags through the
//! server's wire schema table: `--foo-bar V` sets wire field `foo_bar`,
//! absent fields take the table's defaults, and any value may be read
//! from a file (`@path`), as `analyze`'s views and query may. Running
//! with flags and no subcommand behaves like `analyze` (the original CLI).
//! `serve` runs the [`vqd_server`] service until a wire `shutdown`
//! request arrives; `request` issues one request against a running
//! server and exits 0 on `ok`, 3 on `error`, 4 on `exhausted`, and 5 on
//! `overloaded`. `--profile` additionally prints the request's engine
//! counter deltas (chase rounds, hom-search candidates, …); `--trace`
//! prints the request's span events (JSONL). `put` registers a view
//! extent in the server's cross-request cache and prints the handle to
//! use with `request --op certain --handle H` (repeat requests reuse
//! the cached chased index: `index_builds 0`); `evict` drops it;
//! `request --op cache_stats` shows hit/miss/eviction counters. `stats`
//! prints the server-wide registry: per-op request counts and latency
//! histograms, queue high-water mark, uptime.
//!
//! `classify` asks a running server which *fragment* a (views, query)
//! pair falls in — `project-select` and `path` route to decidable
//! procedures, `general` to the budgeted semi-decision — without
//! chasing anything; determinacy replies carry the same attribution as
//! a `fragment:` line.
//!
//! `metrics --prom` prints the same registry in Prometheus
//! text-exposition format (pipe it into a scrape file or a pushgateway);
//! `flight` dumps the server's flight recorder — the last
//! [`vqd::obs::FLIGHT_CAPACITY`] request digests (op, outcome, phase
//! timings, work stats) as JSONL, the same lines the server writes to
//! stderr on a worker panic, a disk fault, or budget exhaustion.
//! `serve --slow-ms N` logs every request whose end-to-end latency
//! reaches N milliseconds to stderr with its full phase breakdown.
//! `request --profile` replies additionally carry a `timeline` section:
//! per-phase µs (frame/queue/exec/reorder/write) for that request.
//!
//! `--cache-dir PATH` makes the cache persistent: derived entries spill
//! to an append-only checksummed segment and the handle table is
//! snapshotted, so a killed-and-restarted server answers its first
//! handle request with `0 index builds` (`--disk-bytes` caps the
//! on-disk footprint). Corrupt or torn records are silently dropped at
//! startup and re-derived on demand — never served.
//!
//! Every request runs on the worker thread that dequeued it:
//! `serve --engine-threads N` and `request --parallelism N` are accepted
//! and ignored, so old scripts keep working.

use vqd::chase::CqViews;
use vqd::core::analyze::{analyze, AnalyzeOptions, Determinacy};
use vqd::core::determinacy::unrestricted::decide_unrestricted;
use vqd::instance::{DomainNames, Schema};
use vqd::query::{parse_program, parse_query, CqLang, QueryExpr, ViewSet};
use vqd::server::{self, Client, Limits, Outcome, Request, ServerCaps, ServerConfig};

const USAGE: &str = "usage: vqd-cli <analyze|serve|request|put|evict|stats|metrics|flight|\
                     classify> [flags] (see `vqd-cli <subcommand> --help`)";

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("{USAGE}");
    std::process::exit(2)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        None => die("missing subcommand"),
        Some("--help") | Some("-h") => {
            println!("{USAGE}");
        }
        Some("analyze") => cmd_analyze(&argv[1..]),
        Some("serve") => cmd_serve(&argv[1..]),
        Some("request") => cmd_request(&argv[1..]),
        Some("put") => cmd_put(&argv[1..]),
        Some("evict") => cmd_evict(&argv[1..]),
        Some("stats") => cmd_stats(&argv[1..]),
        Some("metrics") => cmd_metrics(&argv[1..]),
        Some("flight") => cmd_flight(&argv[1..]),
        Some("classify") => cmd_classify(&argv[1..]),
        // Original flag-only invocation: treat as `analyze`.
        Some(flag) if flag.starts_with("--") => cmd_analyze(&argv),
        Some(other) => die(&format!("unknown subcommand `{other}`")),
    }
}

// ---------------------------------------------------------------------
// Shared flag plumbing
// ---------------------------------------------------------------------

/// `@path` reads file contents; anything else is literal.
fn load(spec: &str) -> String {
    match spec.strip_prefix('@') {
        Some(path) => std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read `{path}`: {e}");
            std::process::exit(2)
        }),
        None => spec.to_owned(),
    }
}

fn parse_schema(spec: &str) -> Schema {
    Schema::parse(spec).unwrap_or_else(|e| {
        eprintln!("schema: {e}");
        std::process::exit(2)
    })
}

fn value_of(it: &mut std::slice::Iter<'_, String>, flag: &str) -> String {
    it.next().unwrap_or_else(|| die(&format!("flag `{flag}` needs a value"))).clone()
}

fn num_of<T: std::str::FromStr>(it: &mut std::slice::Iter<'_, String>, flag: &str) -> T {
    value_of(it, flag)
        .parse()
        .unwrap_or_else(|_| die(&format!("flag `{flag}` needs a numeric value")))
}

// ---------------------------------------------------------------------
// `analyze` (the original CLI)
// ---------------------------------------------------------------------

struct AnalyzeArgs {
    schema: String,
    views: String,
    query: String,
    max_domain: usize,
    explain: bool,
}

fn analyze_usage() -> ! {
    eprintln!(
        "usage: vqd-cli analyze --schema \"R/2,P/1\" --views \"<rules or @file>\" \
         --query \"<rule or @file>\" [--max-domain N] [--explain]"
    );
    std::process::exit(2)
}

fn parse_analyze_args(argv: &[String]) -> AnalyzeArgs {
    let mut schema = None;
    let mut views = None;
    let mut query = None;
    let mut max_domain = 3usize;
    let mut explain = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--schema" => schema = it.next().cloned(),
            "--views" => views = it.next().cloned(),
            "--query" => query = it.next().cloned(),
            "--max-domain" => {
                max_domain =
                    it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| analyze_usage())
            }
            "--explain" => explain = true,
            "--help" | "-h" => analyze_usage(),
            other => {
                eprintln!("unknown flag `{other}`");
                analyze_usage()
            }
        }
    }
    let (Some(schema), Some(views), Some(query)) = (schema, views, query) else { analyze_usage() };
    AnalyzeArgs { schema, views, query, max_domain, explain }
}

fn cmd_analyze(argv: &[String]) {
    let args = parse_analyze_args(argv);
    let schema = parse_schema(&args.schema);
    let mut names = DomainNames::new();
    let prog = parse_program(&schema, &mut names, &load(&args.views)).unwrap_or_else(|e| {
        eprintln!("views: {e}");
        std::process::exit(2)
    });
    let views = ViewSet::new(&schema, prog.defs);
    let q = parse_query(&schema, &mut names, &load(&args.query)).unwrap_or_else(|e| {
        eprintln!("query: {e}");
        std::process::exit(2)
    });

    println!("schema: {schema}");
    println!("views:\n{views}\n");
    println!("query:  {}\n", q.render("Q"));

    if args.explain {
        if let (QueryExpr::Cq(cq), true) = (&q, views.is_cq()) {
            if cq.language() == CqLang::Cq {
                let outcome = decide_unrestricted(&CqViews::new(views.clone()), cq);
                println!("--- chase trace (Theorem 3.7) ---");
                println!("{}", outcome.explain());
            }
        }
    }

    let a =
        analyze(&views, &q, AnalyzeOptions { max_domain: args.max_domain, ..Default::default() });
    println!("--- analysis ---");
    for note in &a.notes {
        println!("• {note}");
    }
    match &a.determinacy {
        Determinacy::DeterminedUnrestricted => {
            println!("\nverdict: V DETERMINES Q (unrestricted, hence finite)");
            if let Some(r) = &a.rewriting {
                println!("rewriting: {}", r.render("R"));
            }
        }
        Determinacy::Refuted(c) => {
            println!("\nverdict: V does NOT determine Q — witness pair:");
            println!("--- D1 ---\n{}", c.d1.render(&names));
            println!("--- D2 ---\n{}", c.d2.render(&names));
            println!("--- common view image ---\n{}", c.image.render(&names));
            println!("Q(D1) = {}", c.q1.render(&names));
            println!("Q(D2) = {}", c.q2.render(&names));
            if let Some(mcr) = &a.maximally_contained {
                println!("\nmaximally-contained fallback:\n{}", mcr.render("R"));
            }
        }
        Determinacy::OpenUpTo(n) => {
            println!(
                "\nverdict: OPEN — not determined over unrestricted instances, \
                 no finite counterexample with ≤ {n} values \
                 (finite CQ determinacy is the paper's open problem)"
            );
            if let Some(mcr) = &a.maximally_contained {
                println!("\nmaximally-contained fallback:\n{}", mcr.render("R"));
            }
        }
    }
    if a.genericity_violation {
        println!("\n(Proposition 4.3 genericity violation found en route)");
    }
}

// ---------------------------------------------------------------------
// `serve`
// ---------------------------------------------------------------------

fn serve_usage() -> ! {
    eprintln!(
        "usage: vqd-cli serve [--addr HOST:PORT] [--workers N] [--queue-depth N] \
         [--io-threads N] [--engine-threads N] [--max-conns N] [--max-inflight N] \
         [--max-deadline-ms N] [--max-steps N] [--max-tuples N] \
         [--cache-entries N] [--cache-bytes N] [--cache-dir PATH] [--disk-bytes N] \
         [--slow-ms N] [--debug-ops]\n\
         --engine-threads is accepted and ignored: each request runs on one worker thread"
    );
    std::process::exit(2)
}

fn cmd_serve(argv: &[String]) {
    let mut config = ServerConfig { addr: "127.0.0.1:7471".to_owned(), ..ServerConfig::default() };
    let mut caps = ServerCaps::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--addr" => config.addr = value_of(&mut it, flag),
            "--workers" => config.workers = num_of(&mut it, flag),
            "--queue-depth" => config.queue_depth = num_of(&mut it, flag),
            "--max-deadline-ms" => {
                caps.max_deadline = std::time::Duration::from_millis(num_of(&mut it, flag));
            }
            "--max-steps" => caps.max_steps = Some(num_of(&mut it, flag)),
            "--max-tuples" => caps.max_tuples = Some(num_of(&mut it, flag)),
            "--io-threads" => caps.io_threads = num_of(&mut it, flag),
            "--engine-threads" => caps.engine_threads = num_of(&mut it, flag),
            "--max-conns" => caps.max_conns = num_of(&mut it, flag),
            "--max-inflight" => caps.max_inflight_per_conn = num_of(&mut it, flag),
            "--slow-ms" => caps.slow_log_ms = Some(num_of(&mut it, flag)),
            "--debug-ops" => caps.enable_debug_ops = true,
            "--cache-entries" => caps.cache.max_entries = num_of(&mut it, flag),
            "--cache-bytes" => caps.cache.max_bytes = num_of(&mut it, flag),
            "--cache-dir" => {
                let dir = std::path::PathBuf::from(value_of(&mut it, flag));
                caps.cache.disk = Some(server::DiskConfig::at(dir));
            }
            "--disk-bytes" => {
                let budget = num_of(&mut it, flag);
                match caps.cache.disk.as_mut() {
                    Some(disk) => disk.max_bytes = budget,
                    None => die("--disk-bytes requires --cache-dir (pass --cache-dir first)"),
                }
            }
            "--help" | "-h" => serve_usage(),
            other => {
                eprintln!("unknown flag `{other}`");
                serve_usage()
            }
        }
    }
    config.caps = caps;
    let workers = config.workers;
    let queue = config.queue_depth;
    let io_threads = config.caps.io_threads.max(1);
    let max_conns = config.caps.max_conns;
    let handle = server::spawn(config).unwrap_or_else(|e| {
        eprintln!("cannot start server: {e}");
        std::process::exit(1)
    });
    println!(
        "vqd-server listening on {} ({} workers, queue {}, {} I/O threads, \
         {} connections max)",
        handle.addr(),
        workers,
        queue,
        io_threads,
        max_conns
    );
    println!("stop it with: vqd-cli request --addr {} --op shutdown", handle.addr());
    let m = handle.wait();
    println!(
        "drained: {} accepted, {} ok, {} exhausted, {} rejected, {} errors, {} connections",
        m.accepted, m.completed_ok, m.exhausted, m.rejected, m.errors, m.connections_total
    );
}

// ---------------------------------------------------------------------
// `request`
// ---------------------------------------------------------------------

fn request_usage() -> ! {
    let mut ops = Request::OPS.to_vec();
    ops.dedup();
    eprintln!(
        "usage: vqd-cli request [--addr HOST:PORT] --op <{}> [--FIELD [VALUE]]...\n\
         --foo-bar sets wire field foo_bar of the op, its limits or its envelope; \
         absent fields take the schema's defaults; `@path` reads a file; \
         op aliases: decide, certain, put, evict, finite, semantic",
        ops.join("|")
    );
    std::process::exit(2)
}

/// The wire op an `--op` value names (short aliases, `-` for `_`).
fn wire_op(op: &str) -> String {
    match op {
        "decide" => "decide_unrestricted".to_owned(),
        "certain" => "certain_sound".to_owned(),
        "put" => "put_instance".to_owned(),
        "evict" => "evict_instance".to_owned(),
        "finite" => "decide_finite".to_owned(),
        "semantic" => "check_exhaustive".to_owned(),
        other => other.replace('-', "_"),
    }
}

/// Reads `--addr` and wire-field flags into `(addr, envelope)`. `--foo-bar
/// VALUE` is field `foo_bar` of the schema table; a flag followed by
/// another flag (or nothing) is a switch with an empty value. `op`, when
/// given, names the request as `--op` would.
fn read_request(argv: &[String], op: Option<&str>, usage: fn() -> !) -> (String, server::Envelope) {
    let mut addr = "127.0.0.1:7471".to_owned();
    let mut fields: Vec<(String, String)> = Vec::new();
    let op = op.map(|op| ["--op".to_owned(), op.to_owned()]);
    let mut it = op.iter().flatten().chain(argv).peekable();
    while let Some(flag) = it.next() {
        let value = it.next_if(|v| !v.starts_with("--")).cloned().unwrap_or_default();
        match flag.as_str() {
            "--addr" => addr = value,
            "--help" | "-h" => usage(),
            f if f.starts_with("--") => {
                let value = if f == "--op" { wire_op(&value) } else { load(&value) };
                fields.push((f[2..].replace('-', "_"), value));
            }
            other => {
                eprintln!("unknown flag `{other}`");
                usage()
            }
        }
    }
    let mut envelope = server::Envelope::from_fields(&fields).unwrap_or_else(|e| die(&e));
    envelope.id = "cli".to_owned();
    (addr, envelope)
}

/// Sends one envelope and returns the reply; exits 1 when the server
/// cannot be reached.
fn call(addr: &str, envelope: &server::Envelope, what: &str) -> server::Response {
    connect(addr).call_raw(&envelope.to_json().to_string()).unwrap_or_else(|e| {
        eprintln!("{what} failed: {e}");
        std::process::exit(1)
    })
}

fn cmd_request(argv: &[String]) {
    let (addr, envelope) = read_request(argv, None, request_usage);
    let response = call(&addr, &envelope, "request");
    println!("{}", response.outcome);
    if let Some(fragment) = &response.fragment {
        println!("[fragment: {fragment}]");
    }
    if let Some(tl) = &response.timeline {
        println!(
            "[timeline: frame={}us queue={}us exec={}us reorder={}us write={}us]",
            tl.frame_us, tl.queue_us, tl.exec_us, tl.reorder_us, tl.write_us
        );
    }
    let threads = if response.work.threads_used != 0 {
        format!(", threads_used {}", response.work.threads_used)
    } else {
        String::new()
    };
    println!(
        "[{} steps, {} tuples, {} index builds, {} ms server-side{}]",
        response.work.steps,
        response.work.tuples,
        response.work.index_builds,
        response.work.elapsed_ms,
        threads
    );
    if let Some(p) = &response.profile {
        println!("--- execution profile (engine counter deltas) ---");
        let mut any = false;
        for m in vqd::obs::Metric::ALL {
            if p.get(m) != 0 {
                println!("{:<32} {}", m.name(), p.get(m));
                any = true;
            }
        }
        if !any {
            println!("(no engine counters moved)");
        }
    }
    if let Some(t) = &response.trace {
        println!("--- span trace (JSONL) ---");
        if t.is_empty() {
            println!("(no spans recorded)");
        } else {
            println!("{t}");
        }
    }
    let code = match &response.outcome {
        Outcome::Error { .. } => 3,
        Outcome::Exhausted { .. } => 4,
        Outcome::Overloaded { .. } => 5,
        _ => 0,
    };
    std::process::exit(code);
}

// ---------------------------------------------------------------------
// `put` / `evict`
// ---------------------------------------------------------------------

fn connect(addr: &str) -> Client {
    Client::connect(addr).unwrap_or_else(|e| {
        eprintln!("cannot connect to {addr}: {e}");
        std::process::exit(1)
    })
}

fn put_usage() -> ! {
    eprintln!(
        "usage: vqd-cli put [--addr HOST:PORT] --schema \"V/2\" --extent \"<facts or @file>\""
    );
    std::process::exit(2)
}

fn cmd_put(argv: &[String]) {
    let (addr, envelope) = read_request(argv, Some("put_instance"), put_usage);
    let response = call(&addr, &envelope, "put");
    println!("{}", response.outcome);
    std::process::exit(match &response.outcome {
        Outcome::InstancePut { .. } => 0,
        _ => 3,
    });
}

fn evict_usage() -> ! {
    eprintln!("usage: vqd-cli evict [--addr HOST:PORT] --handle H");
    std::process::exit(2)
}

fn cmd_evict(argv: &[String]) {
    let (addr, envelope) = read_request(argv, Some("evict_instance"), evict_usage);
    let response = call(&addr, &envelope, "evict");
    println!("{}", response.outcome);
    std::process::exit(match &response.outcome {
        Outcome::Evicted { .. } => 0,
        _ => 3,
    });
}

// ---------------------------------------------------------------------
// `metrics` / `flight`
// ---------------------------------------------------------------------

fn cmd_metrics(argv: &[String]) {
    let mut addr = "127.0.0.1:7471".to_owned();
    let mut prom = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--addr" => addr = value_of(&mut it, flag),
            "--prom" => prom = true,
            "--help" | "-h" => {
                eprintln!("usage: vqd-cli metrics [--addr HOST:PORT] [--prom]");
                std::process::exit(2)
            }
            other => die(&format!("unknown flag `{other}`")),
        }
    }
    if !prom {
        // Human-readable view == the stats rendering.
        cmd_stats(&["--addr".to_owned(), addr]);
        return;
    }
    let text = connect(&addr).metrics_prom().unwrap_or_else(|e| {
        eprintln!("metrics failed: {e}");
        std::process::exit(1)
    });
    print!("{text}");
}

fn cmd_flight(argv: &[String]) {
    let mut addr = "127.0.0.1:7471".to_owned();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--addr" => addr = value_of(&mut it, flag),
            "--help" | "-h" => {
                eprintln!("usage: vqd-cli flight [--addr HOST:PORT]");
                std::process::exit(2)
            }
            other => die(&format!("unknown flag `{other}`")),
        }
    }
    let jsonl = connect(&addr).flight().unwrap_or_else(|e| {
        eprintln!("flight failed: {e}");
        std::process::exit(1)
    });
    if jsonl.is_empty() {
        println!("(flight recorder empty)");
    } else {
        print!("{jsonl}");
    }
}

// ---------------------------------------------------------------------
// `classify`
// ---------------------------------------------------------------------

fn classify_usage() -> ! {
    eprintln!(
        "usage: vqd-cli classify [--addr HOST:PORT] --schema \"E/2\" \
         --views \"<rules or @file>\" --query \"<rule or @file>\""
    );
    std::process::exit(2)
}

fn cmd_classify(argv: &[String]) {
    let (addr, envelope) = read_request(argv, Some("classify"), classify_usage);
    let response = call(&addr, &envelope, "classify");
    println!("{}", response.outcome);
    std::process::exit(match &response.outcome {
        Outcome::Classified { .. } => 0,
        _ => 3,
    });
}

// ---------------------------------------------------------------------
// `stats`
// ---------------------------------------------------------------------

fn cmd_stats(argv: &[String]) {
    let mut addr = "127.0.0.1:7471".to_owned();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--addr" => addr = value_of(&mut it, flag),
            "--help" | "-h" => {
                eprintln!("usage: vqd-cli stats [--addr HOST:PORT]");
                std::process::exit(2)
            }
            other => die(&format!("unknown flag `{other}`")),
        }
    }
    let mut client = Client::connect(&addr).unwrap_or_else(|e| {
        eprintln!("cannot connect to {addr}: {e}");
        std::process::exit(1)
    });
    let response = client.call(Limits::none(), Request::Stats).unwrap_or_else(|e| {
        eprintln!("stats failed: {e}");
        std::process::exit(1)
    });
    // The Display impl renders the flat counters, uptime, and one
    // latency line per op that has served traffic. The registry's other
    // counters follow: the engine's, then the rest (cache, certain-answer
    // routes, router, disk, server); per-op counters are in the op lines,
    // and the flat totals in the header.
    println!("{}", response.outcome);
    if let Outcome::StatsSnapshot { registry, .. } = &response.outcome {
        let (engine, other): (Vec<_>, Vec<_>) = registry
            .counters
            .iter()
            .filter(|(n, _)| {
                !n.starts_with("op.") && !server::WireMetrics::COUNTERS.contains(&n.as_str())
            })
            .partition(|(n, _)| n.starts_with("engine."));
        for (heading, counters) in [("engine counters", engine), ("registry counters", other)] {
            if !counters.is_empty() {
                println!("--- {heading} (server lifetime) ---");
                for (n, v) in counters {
                    println!("{:<40} {v}", n.trim_start_matches("engine."));
                }
            }
        }
    }
    std::process::exit(if matches!(response.outcome, Outcome::StatsSnapshot { .. }) {
        0
    } else {
        3
    });
}

//! One benchmark run: set-up, the measured phases, and the metrics.
//!
//! An untraced run measures the end-to-end metrics. Set-up runs several
//! times (`setup_s` is the median). Then, for a served workload, the
//! measured phases run as interleaved slices — a closed-loop slice, then
//! a slice of each open-loop rung — so every metric samples the whole
//! run. engine-batch is a closed loop of library calls on one thread.
//! Every timed phase is bracketed by host-speed samples (see [`speed`])
//! and its times are stated at the reference speed; the raw values are
//! printed beside them.
//!
//! A traced run measures the per-layer metrics: the nominal rung (or,
//! for engine-batch, the closed loop) untraced and then traced — their
//! p50 difference is the tracing overhead — followed by the in-process
//! replay of the first generated requests.

use crate::engine_batch::{Batch, Op};
use crate::gen::{Item, Plan, Stream};
use crate::load::{self, LineConn, RungResult, Session};
use crate::speed::{self, Speed};
use crate::stats::{median, percentile, sorted, tail};
use crate::target::{process_cpu_ms, process_rss_peak_mb, CacheShape, Launcher, Server};
use crate::trace::Tracer;
use crate::workload::{Scale, Workload, RUNGS};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use vqd_obs::Metric as Counter;
use vqd_server::{Client, Outcome, Timeline};

/// The gated end-to-end metrics, `(name, unit)`: the `end_to_end` list
/// of `BENCHMARK.json`, in its order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_ops_s", "ops/s"),
    ("p50_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("rss_peak_mb", "MB"),
];

/// End-to-end metrics printed with each run but not gated: on a 2-vCPU
/// virtual machine their run-to-run spread is wider than any bound a
/// gate may use (see `BENCHMARK.md`).
pub const REPORTED: [(&str, &str); 3] = [
    ("p99_ms", "ms"),
    ("p99_ms_at_peak", "ms"),
    ("slo_rate_ops_s", "ops/s"),
];

/// Per-layer metrics, `(name, unit)`. Layer names are module names; µs
/// metrics are per-op medians, counts per-op means.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("pool.queue_us", "us"),
    ("loop.reorder_us", "us"),
    ("loop.frame_us", "us"),
    ("engine.exec_us", "us"),
    ("proto.decode_us", "us"),
    ("proto.encode_us", "us"),
    ("client.decode_us", "us"),
    ("proto.reply_bytes", "bytes"),
    ("parse.query_us", "us"),
    ("parse.extent_us", "us"),
    ("router.classify_us", "us"),
    ("router.fastpath_ratio", "ratio"),
    ("determinacy.decide_us", "us"),
    ("determinacy.semantic_us", "us"),
    ("chase.canonical_us", "us"),
    ("chase.rounds_per_op", "count"),
    ("chase.triggers_per_op", "count"),
    ("index.builds_per_op", "count"),
    ("index.delta_tuples_per_op", "count"),
    ("hom.eval_us", "us"),
    ("hom.candidates_per_op", "count"),
    ("hom.backtracks_per_op", "count"),
    ("hom.prune_ratio", "ratio"),
    ("certain.kept_ratio", "ratio"),
    ("cache.lookup_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("cache.reputs", "count"),
    ("disk.spills", "count"),
    ("disk.promotions", "count"),
    ("disk.io_errors", "count"),
    ("disk.bytes", "bytes"),
    ("exec.threads_used", "count"),
    ("exec.shard_efficiency", "ratio"),
    ("datalog.fixpoint_us", "us"),
    ("loadgen.lag_p99_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Share of `--seconds` the untraced closed loop gets; the rest goes to
/// the rungs in these shares.
const CLOSED_SHARE: f64 = 0.15;
const RUNG_SHARES: [f64; 3] = [0.45, 0.22, 0.18];
/// Untraced phases run as this many interleaved slices. Capacity and CPU
/// per op are the median slice, which a passing slowdown of the host
/// cannot move; rung percentiles pool every slice's samples.
const SLICES: usize = 8;
/// engine-batch's closed loop runs as this many slices, each bracketed by
/// host-speed samples.
const BATCH_SLICES: usize = 32;
/// Traced run: the capacity probe, then each nominal rung (untraced,
/// then profiled).
const PROBE_SHARE: f64 = 0.1;
const TRACED_SHARE: f64 = 0.35;

/// Cache entries certain-churn's server runs with: far below its
/// working set, so the cache evicts.
const CHURN_CACHE_ENTRIES: usize = 24;
const DEFAULT_CACHE_ENTRIES: usize = 128;

/// A nominal-rung generator lag above this makes the run invalid.
const MAX_LAG_MS: f64 = 1.0;

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// How servers are started.
    pub launcher: Launcher,
    /// Where traces, `runs.jsonl` and scratch state go.
    pub out_dir: PathBuf,
}

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// The outcome of a run.
#[derive(Debug, Default)]
pub struct RunResult {
    /// The gated end-to-end metrics, or the per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Reported-only end-to-end metrics.
    pub reported: Vec<Metric>,
    /// Logical requests (or ops) attempted.
    pub attempted: u64,
    /// Of which failed: error, exhausted, overloaded, transport failure,
    /// or an outcome that differs from the in-process expectation.
    pub failed: u64,
    /// Checks other than per-request ones that failed.
    pub problems: Vec<String>,
    /// Human-readable report lines.
    pub notes: Vec<String>,
}

/// The metrics of `names` in its order; a name without a value reads 0
/// when `all`, and is left out otherwise.
fn table(names: &[(&'static str, &'static str)], values: &[(&str, f64)], all: bool) -> Vec<Metric> {
    names
        .iter()
        .filter_map(|&(name, unit)| {
            let value = values.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
            match value {
                Some(value) => Some(Metric { name, unit, value }),
                None => all.then_some(Metric {
                    name,
                    unit,
                    value: 0.0,
                }),
            }
        })
        .collect()
}

impl RunResult {
    /// Every reply and every check was correct.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    fn absorb(&mut self, attempted: u64, failed: u64, errors: &[String]) {
        self.attempted += attempted;
        self.failed += failed;
        for e in errors.iter().take(3) {
            self.notes.push(format!("FAILED: {e}"));
        }
    }
}

/// Runs one workload.
pub fn run(opts: &Options) -> Result<RunResult, String> {
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.out_dir.display()))?;
    if opts.workload.is_served() {
        run_served(opts)
    } else {
        run_batch(opts)
    }
}

fn secs(share: f64, opts: &Options) -> Duration {
    Duration::from_secs_f64(share * opts.seconds)
}

/// Seeds of the two closed-loop streams, the open-loop stream (whose
/// first requests the traced replay re-runs), and each rung slice's
/// arrivals, all derived from `--seed`.
fn sub_seed(seed: u64, salt: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt
}
const CLOSED_SEEDS: [u64; 2] = [0xc1, 0xc2];
const OPEN_SEED: u64 = 0x0e;

fn rung_seed(seed: u64, rung: usize, slice: usize) -> u64 {
    sub_seed(seed, 0xa000 + (rung as u64) * 0x100 + slice as u64)
}

fn p50(sorted_values: &[f64]) -> f64 {
    if sorted_values.is_empty() {
        0.0
    } else {
        median(sorted_values)
    }
}

fn p99(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    if s.is_empty() {
        0.0
    } else {
        percentile(&s, 0.99)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The highest arrival rate whose rung p99 meets the limit with no
/// failures, linearly interpolated between the rungs either side of the
/// limit (a rung with failures never meets it).
fn slo_rate(rungs: &[(f64, f64, bool)], limit_ms: f64) -> f64 {
    let mut prev: Option<(f64, f64)> = None;
    for &(rate, p99, failed) in rungs {
        let p99 = if failed { f64::INFINITY } else { p99 };
        if p99 > limit_ms {
            return match prev {
                None if p99.is_finite() => rate * limit_ms / p99,
                None => 0.0,
                Some((r0, p0)) if p99.is_finite() => {
                    r0 + (rate - r0) * (limit_ms - p0) / (p99 - p0)
                }
                Some((r0, _)) => r0,
            };
        }
        prev = Some((rate, p99));
    }
    prev.map_or(0.0, |(rate, _)| rate)
}

/// One line per latency sample set: sample count, p50, and the highest
/// percentile the count supports.
fn describe(name: &str, latencies_ms: &[f64]) -> String {
    let lat = sorted(latencies_ms.to_vec());
    let tail_text = tail(&lat).map_or("no tail".to_owned(), |t| {
        format!("{} {:.3} ms ({} beyond)", t.label, t.value, t.beyond)
    });
    format!(
        "{name}: {} samples, p50 {:.3} ms, tail {tail_text}",
        lat.len(),
        p50(&lat)
    )
}

fn describe_rung(name: &str, r: &RungResult) -> String {
    let short = if r.latencies_ms.len() < 1000 {
        " (fewer than 1000 samples)"
    } else {
        ""
    };
    format!(
        "{}; {:.1} ops/s offered, {} failed, generator lag p99 {:.3} ms{short}",
        describe(&format!("rung {name}"), &r.latencies_ms),
        r.achieved_rate(),
        r.failed,
        p99(&r.lag_ms),
    )
}

/// The host-speed samples of a run, as one line.
fn describe_speed(speed: &Speed) -> String {
    let s = sorted(speed.samples().to_vec());
    format!(
        "host speed: reference kernel {:.3} ms median, {:.3} to {:.3} over {} samples ({} ms is reference speed)",
        median(&s),
        s[0],
        s[s.len() - 1],
        s.len(),
        speed::REFERENCE_MS
    )
}

fn lag_check(lag_p99: f64, out: &mut RunResult) {
    if lag_p99 > MAX_LAG_MS {
        out.notes.push(format!(
            "INVALID: nominal generator lag p99 {lag_p99:.3} ms > {MAX_LAG_MS} ms"
        ));
    }
}

// ---------------------------------------------------------------------
// Served workloads
// ---------------------------------------------------------------------

fn cache_shape(opts: &Options) -> CacheShape {
    match opts.workload {
        Workload::CertainChurn => CacheShape {
            entries: Some(CHURN_CACHE_ENTRIES),
            dir: Some(
                opts.out_dir
                    .join(format!("cache-{}-{}", opts.workload.name(), opts.seed)),
            ),
        },
        _ => CacheShape::default(),
    }
}

fn start(opts: &Options, shape: &CacheShape) -> Result<Server, String> {
    let log = opts
        .out_dir
        .join(format!("server-{}.log", opts.workload.name()));
    Server::start(&opts.launcher, shape, &log).map_err(|e| format!("server start: {e}"))
}

fn call_all(
    conn: &mut LineConn,
    session: &Session<'_>,
    items: impl IntoIterator<Item = Item>,
) -> Result<(), String> {
    items
        .into_iter()
        .try_for_each(|item| session.call(conn, item))
}

/// Starts a server and brings it to the state measured traffic expects:
/// decide-mix answers every pool pair once; certain-hot puts its
/// extents and answers every query on each; certain-churn restores from
/// its cache directory and answers one handle request.
fn start_warm(opts: &Options, plan: &Plan, session: &Session<'_>) -> Result<Server, String> {
    let server = start(opts, &cache_shape(opts))?;
    let mut conn = LineConn::open(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let every_query = |e: usize| {
        (0..plan.queries()).map(move |q| Item::ByHandle {
            extent: e,
            query: q,
        })
    };
    match opts.workload {
        Workload::DecideMix => call_all(
            &mut conn,
            session,
            (0..plan.templates.len()).map(Item::Fixed),
        )?,
        Workload::CertainHot => {
            call_all(&mut conn, session, (0..plan.preload).map(Item::Put))?;
            call_all(&mut conn, session, (0..plan.preload).flat_map(every_query))?;
        }
        Workload::CertainChurn => call_all(
            &mut conn,
            session,
            [Item::ByHandle {
                extent: 0,
                query: 0,
            }],
        )?,
        Workload::EngineBatch => unreachable!("engine-batch is not served"),
    }
    Ok(server)
}

/// certain-churn's cache directory: a server puts the preloaded extents
/// and answers every query on each (spilling the derived entries), and
/// is then killed without a drain.
fn populate(opts: &Options, plan: &Plan, session: &Session<'_>) -> Result<(), String> {
    let shape = cache_shape(opts);
    if let Some(dir) = &shape.dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let server = start(opts, &shape)?;
    let mut conn = LineConn::open(server.addr()).map_err(|e| format!("connect: {e}"))?;
    for e in 0..plan.preload {
        call_all(&mut conn, session, [Item::Put(e)])?;
        call_all(
            &mut conn,
            session,
            (0..plan.queries()).map(|q| Item::ByHandle {
                extent: e,
                query: q,
            }),
        )?;
    }
    server.kill();
    Ok(())
}

fn cache_stats(server: &Server) -> Result<Outcome, String> {
    Client::connect(server.addr())
        .and_then(|mut c| c.cache_stats())
        .map_err(|e| format!("cache_stats: {e}"))
}

fn run_served(opts: &Options) -> Result<RunResult, String> {
    let w = opts.workload;
    // Every expectation is computed here, before anything is timed.
    let plan = Plan::new(w, opts.seed, &opts.scale);
    let session = Session::new(&plan);
    if w == Workload::CertainChurn {
        populate(opts, &plan, &session)?;
    }
    let result = measure_served(opts, &plan, &session);
    if let Some(dir) = cache_shape(opts).dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    result
}

fn measure_served(opts: &Options, plan: &Plan, session: &Session<'_>) -> Result<RunResult, String> {
    let (w, seed) = (opts.workload, opts.seed);
    let mut out = RunResult::default();
    let setups = if opts.trace {
        1
    } else {
        opts.scale.setups.max(1)
    };
    let mut speed = Speed::start();
    // Raw timings are kept with their phase and corrected at the end,
    // once the host-speed samples after them exist.
    let mut setup_s = Vec::new();
    let mut server = None;
    for i in 0..setups {
        let t0 = Instant::now();
        let s = start_warm(opts, plan, session)?;
        let elapsed = t0.elapsed().as_secs_f64();
        setup_s.push((speed.lap(), elapsed));
        match (i + 1 == setups, w) {
            (true, _) => server = Some(s),
            (false, Workload::CertainChurn) => s.kill(),
            (false, _) => s.stop(),
        }
    }
    let server = server.expect("at least one set-up");
    let addr = server.addr();
    let mut stream = Stream::new(plan, sub_seed(seed, OPEN_SEED));
    let mut closed_streams = CLOSED_SEEDS.map(|s| Stream::new(plan, sub_seed(seed, s)));
    // Closed-loop slices: phase, ops/s, and server CPU ms per op.
    let mut closed = Vec::new();
    let mut closed_slice = |duration: Duration, speed: &mut Speed, out: &mut RunResult| {
        let cpu_before = server.cpu_ms();
        let r = load::closed_loop(addr, session, &mut closed_streams, duration)
            .map_err(|e| format!("closed loop: {e}"))?;
        let cpu_after = server.cpu_ms();
        out.absorb(r.completed + r.failed, r.failed, &r.errors);
        let ops_s = r.completed as f64 / r.elapsed_s;
        let cpu = cpu_before
            .zip(cpu_after)
            .map(|(a, b)| (b - a) / r.completed.max(1) as f64);
        closed.push((speed.lap(), ops_s, cpu));
        Ok::<f64, String>(ops_s)
    };

    if !opts.trace {
        let mut rung_slices: [Vec<(usize, RungResult)>; 3] = Default::default();
        let mut raw_capacity = Vec::new();
        for slice in 0..SLICES {
            raw_capacity.push(closed_slice(
                secs(CLOSED_SHARE / SLICES as f64, opts),
                &mut speed,
                &mut out,
            )?);
            // Rungs offer a share of the capacity measured so far.
            let capacity_so_far = median(&sorted(raw_capacity.clone()));
            for (i, &(_, load)) in RUNGS.iter().enumerate() {
                let window = secs(RUNG_SHARES[i] / SLICES as f64, opts);
                let schedule = load::poisson_schedule(
                    load * capacity_so_far,
                    window,
                    rung_seed(seed, i, slice),
                );
                let r = load::open_loop(addr, session, &mut stream, &schedule, window, None)
                    .map_err(|e| format!("open loop: {e}"))?;
                out.absorb(r.attempted, r.failed, &r.errors);
                rung_slices[i].push((speed.lap(), r));
            }
        }
        let rss = server.rss_peak_mb();
        server.stop();

        let c = |phase| speed.correction(phase);
        let setup_s: Vec<f64> = setup_s.iter().map(|&(p, s)| s * c(p)).collect();
        let capacity: Vec<f64> = closed.iter().map(|&(p, ops_s, _)| ops_s / c(p)).collect();
        let cpu_per_op: Vec<f64> = closed
            .iter()
            .filter_map(|&(p, _, cpu)| cpu.map(|ms| ms * c(p)))
            .collect();
        let mut results: [RungResult; 3] = Default::default();
        let mut raw_nominal = Vec::new();
        for (i, slices) in rung_slices.into_iter().enumerate() {
            for (p, mut r) in slices {
                if i == 0 {
                    raw_nominal.extend_from_slice(&r.latencies_ms);
                }
                r.scale(c(p));
                results[i].merge(r);
            }
        }
        out.notes
            .push(format!("set-ups (s, corrected): {setup_s:.4?}"));
        out.notes.push(format!(
            "closed-loop slices (ops/s, 2 connections, 1 in flight each): raw {raw_capacity:.1?}, corrected {capacity:.1?}"
        ));
        let (throughput, raw_throughput) =
            (median(&sorted(capacity)), median(&sorted(raw_capacity)));
        out.notes.push(describe_speed(&speed));
        out.notes.push(format!(
            "uncorrected: throughput_ops_s {raw_throughput:.4}, p50_ms {:.4}",
            p50(&sorted(raw_nominal))
        ));
        let mut ladder = Vec::new();
        for (&(name, _), r) in RUNGS.iter().zip(&results) {
            out.notes.push(describe_rung(name, r));
            ladder.push((
                // The offered rate at reference speed, like the p99.
                r.achieved_rate() * throughput / raw_throughput,
                p99(&r.latencies_ms),
                r.failed > 0,
            ));
        }
        lag_check(p99(&results[0].lag_ms), &mut out);
        let nominal = sorted(results[0].latencies_ms.clone());
        let values = [
            ("setup_s", median(&sorted(setup_s))),
            ("throughput_ops_s", throughput),
            ("p50_ms", p50(&nominal)),
            ("p99_ms", p99(&nominal)),
            ("cpu_ms_per_op", p50(&sorted(cpu_per_op))),
            ("rss_peak_mb", rss.unwrap_or(0.0)),
            ("p99_ms_at_peak", p99(&results[1].latencies_ms)),
            (
                "slo_rate_ops_s",
                slo_rate(
                    &ladder,
                    w.limit_ms().expect("served workloads have a limit"),
                ),
            ),
        ];
        out.metrics = table(&END_TO_END, &values, true);
        out.reported = table(&REPORTED, &values, false);
        return Ok(out);
    }

    // Traced run: probe capacity, then the nominal rung untraced and
    // profiled, then the in-process replay.
    let ops_s = closed_slice(secs(PROBE_SHARE, opts), &mut speed, &mut out)?;
    let nominal_rate = RUNGS[0].1 * ops_s;
    let window = secs(TRACED_SHARE, opts);
    let schedule = load::poisson_schedule(nominal_rate, window, rung_seed(seed, 0, 0));
    let mut plain = load::open_loop(addr, session, &mut stream, &schedule, window, None)
        .map_err(|e| format!("open loop: {e}"))?;
    let plain_phase = speed.lap();
    out.absorb(plain.attempted, plain.failed, &plain.errors);
    let before = cache_stats(&server)?;
    let reputs_before = session.reputs();
    let mut tracer = Tracer::new();
    let schedule = load::poisson_schedule(nominal_rate, window, rung_seed(seed, 0, 1));
    let mut traced = load::open_loop(
        addr,
        session,
        &mut stream,
        &schedule,
        window,
        Some(&mut tracer),
    )
    .map_err(|e| format!("open loop: {e}"))?;
    let traced_phase = speed.lap();
    out.absorb(traced.attempted, traced.failed, &traced.errors);
    plain.scale(speed.correction(plain_phase));
    traced.scale(speed.correction(traced_phase));
    out.notes.push(describe_rung("nominal (untraced)", &plain));
    out.notes.push(describe_rung("nominal (profiled)", &traced));
    let after = cache_stats(&server)?;
    let reputs = session.reputs() - reputs_before;
    server.stop();

    let entries = if w == Workload::CertainChurn {
        CHURN_CACHE_ENTRIES
    } else {
        DEFAULT_CACHE_ENTRIES
    };
    let stats = crate::replay::replay(
        plan,
        sub_seed(seed, OPEN_SEED),
        opts.scale.replay,
        entries,
        &mut tracer,
    );
    out.attempted += stats.requests as u64;
    out.failed += stats.mismatches.len() as u64;
    for m in stats.mismatches.iter().take(3) {
        out.notes.push(format!("FAILED replay: {m}"));
    }

    let timeline = |f: fn(&Timeline) -> u64| {
        p50(&sorted(
            traced.timelines.iter().map(|t| f(t) as f64).collect(),
        ))
    };
    let lag = p99(&plain.lag_ms);
    lag_check(lag, &mut out);
    let mut values = vec![
        ("pool.queue_us", timeline(|t| t.queue_us)),
        ("loop.reorder_us", timeline(|t| t.reorder_us)),
        ("loop.frame_us", timeline(|t| t.frame_us)),
        ("engine.exec_us", timeline(|t| t.exec_us)),
        ("proto.reply_bytes", stats.reply_bytes),
        (
            "router.fastpath_ratio",
            ratio(stats.fastpath, stats.classified),
        ),
        ("cache.reputs", reputs as f64),
        ("loadgen.lag_p99_ms", lag),
        (
            "trace.overhead_pct",
            overhead_pct(&plain.latencies_ms, &traced.latencies_ms),
        ),
    ];
    values.extend(replay_layers(&tracer));
    values.extend(cache_layers(&before, &after));
    write_trace(opts, &tracer, &mut out);
    out.metrics = table(&PER_LAYER, &values, true);
    Ok(out)
}

/// Traced p50 over untraced p50, as a percentage above 100 %.
fn overhead_pct(plain: &[f64], traced: &[f64]) -> f64 {
    let (a, b) = (p50(&sorted(plain.to_vec())), p50(&sorted(traced.to_vec())));
    if a > 0.0 {
        (b - a) / a * 100.0
    } else {
        0.0
    }
}

/// Per-layer numbers from the replay's spans and counter deltas.
fn replay_layers(tracer: &Tracer) -> Vec<(&'static str, f64)> {
    let us = |name: &str| p50(&tracer.per_request_us("replay", name));
    let (ops, c) = tracer.totals("replay");
    let per_op = |m: Counter| c.get(m) as f64 / ops.max(1) as f64;
    vec![
        ("proto.decode_us", us("proto.decode")),
        ("proto.encode_us", us("proto.encode")),
        ("client.decode_us", us("client.decode")),
        ("parse.query_us", us("parse.query")),
        ("parse.extent_us", us("parse.extent")),
        ("router.classify_us", us("router.classify")),
        ("determinacy.decide_us", us("determinacy.decide")),
        ("determinacy.semantic_us", us("determinacy.semantic")),
        ("chase.canonical_us", us("chase.canonical")),
        ("chase.rounds_per_op", per_op(Counter::ChaseRounds)),
        ("chase.triggers_per_op", per_op(Counter::ChaseTriggersFired)),
        ("index.builds_per_op", per_op(Counter::IndexBuilds)),
        (
            "index.delta_tuples_per_op",
            per_op(Counter::IndexDeltaTuples),
        ),
        ("hom.eval_us", us("hom.eval")),
        ("hom.candidates_per_op", per_op(Counter::HomCandidatesTried)),
        ("hom.backtracks_per_op", per_op(Counter::HomBacktracks)),
        (
            "hom.prune_ratio",
            ratio(
                c.get(Counter::HomPruneHits),
                c.get(Counter::HomCandidatesTried),
            ),
        ),
        (
            "certain.kept_ratio",
            ratio(
                c.get(Counter::CertainAnswersKept),
                c.get(Counter::CertainTuplesChecked),
            ),
        ),
        ("cache.lookup_us", us("cache.lookup")),
        ("datalog.fixpoint_us", us("datalog.fixpoint")),
    ]
}

/// Cache and disk-tier counters over the profiled rung, from
/// `cache_stats` before and after it.
fn cache_layers(before: &Outcome, after: &Outcome) -> Vec<(&'static str, f64)> {
    let (
        Outcome::CacheStatsSnapshot {
            hits: h0,
            misses: m0,
            evictions: e0,
            disk_spills: s0,
            disk_promotions: p0,
            disk_io_errors: i0,
            ..
        },
        Outcome::CacheStatsSnapshot {
            hits: h1,
            misses: m1,
            evictions: e1,
            disk_spills: s1,
            disk_promotions: p1,
            disk_io_errors: i1,
            disk_bytes,
            ..
        },
    ) = (before, after)
    else {
        return Vec::new();
    };
    let (hits, misses) = (h1 - h0, m1 - m0);
    vec![
        ("cache.hit_ratio", ratio(hits, hits + misses)),
        ("cache.evictions", (e1 - e0) as f64),
        ("disk.spills", (s1 - s0) as f64),
        ("disk.promotions", (p1 - p0) as f64),
        ("disk.io_errors", (i1 - i0) as f64),
        ("disk.bytes", *disk_bytes as f64),
    ]
}

fn write_trace(opts: &Options, tracer: &Tracer, out: &mut RunResult) {
    let path = opts
        .out_dir
        .join(format!("trace-{}.jsonl", opts.workload.name()));
    match std::fs::write(&path, tracer.jsonl()) {
        Ok(()) => out.notes.push(format!(
            "trace: {} spans in {}",
            tracer.spans().len(),
            path.display()
        )),
        Err(e) => out
            .problems
            .push(format!("cannot write {}: {e}", path.display())),
    }
}

// ---------------------------------------------------------------------
// engine-batch
// ---------------------------------------------------------------------

/// Set-up for engine-batch: build every input and expectation, then run
/// each kind of op once.
fn batch_setup(scale: &Scale) -> Result<Batch, String> {
    let batch = Batch::new(scale);
    for op in [
        Op::Decide(0),
        Op::Semantic(0),
        Op::Fixpoint,
        Op::Certain(1),
        Op::Certain(2),
        Op::Contained(0),
    ] {
        batch.run(op, None)?;
    }
    Ok(batch)
}

/// Closed-loop library calls for `duration`: each call's latency, ms.
fn batch_loop(
    batch: &Batch,
    ops: &mut impl Iterator<Item = Op>,
    duration: Duration,
    mut tracer: Option<&mut Tracer>,
    out: &mut RunResult,
) -> Vec<f64> {
    let deadline = Instant::now() + duration;
    let mut latencies = Vec::new();
    let mut errors = Vec::new();
    while Instant::now() < deadline {
        let op = ops.next().expect("endless");
        let t0 = Instant::now();
        let result = match tracer.as_deref_mut() {
            Some(t) => {
                t.begin("batch", latencies.len() as u64);
                t.span("request", |t| batch.run(op, Some(t)))
            }
            None => batch.run(op, None),
        };
        match result {
            Ok(_) => latencies.push(t0.elapsed().as_secs_f64() * 1e3),
            Err(e) => errors.push(e),
        }
    }
    out.absorb(
        (latencies.len() + errors.len()) as u64,
        errors.len() as u64,
        &errors,
    );
    latencies
}

fn run_batch(opts: &Options) -> Result<RunResult, String> {
    let seed = opts.seed;
    let setups = if opts.trace {
        1
    } else {
        opts.scale.setups.max(1)
    };
    let mut speed = Speed::start();
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..setups {
        let t0 = Instant::now();
        built = Some(batch_setup(&opts.scale)?);
        let elapsed = t0.elapsed().as_secs_f64();
        setup_s.push((speed.lap(), elapsed));
    }
    let batch = built.expect("at least one set-up");
    let mut out = RunResult::default();
    let mut ops = batch.ops(sub_seed(seed, OPEN_SEED));

    if !opts.trace {
        // Per slice: phase, ops/s, CPU ms per op, call latencies.
        let mut slices = Vec::new();
        for _ in 0..BATCH_SLICES {
            let cpu_before = process_cpu_ms(None);
            let started = Instant::now();
            let latencies = batch_loop(
                &batch,
                &mut ops,
                secs(1.0 / BATCH_SLICES as f64, opts),
                None,
                &mut out,
            );
            let ops_s = latencies.len() as f64 / started.elapsed().as_secs_f64();
            let cpu = process_cpu_ms(None)
                .zip(cpu_before)
                .map(|(b, a)| (b - a) / latencies.len().max(1) as f64);
            slices.push((speed.lap(), ops_s, cpu, latencies));
        }
        let c = |phase| speed.correction(phase);
        let setup_s: Vec<f64> = setup_s.iter().map(|&(p, s)| s * c(p)).collect();
        let raw_capacity: Vec<f64> = slices.iter().map(|s| s.1).collect();
        let capacity: Vec<f64> = slices.iter().map(|s| s.1 / c(s.0)).collect();
        let cpu_per_op: Vec<f64> = slices
            .iter()
            .filter_map(|s| s.2.map(|ms| ms * c(s.0)))
            .collect();
        let raw_latencies: Vec<f64> = slices.iter().flat_map(|s| s.3.iter().copied()).collect();
        let latencies: Vec<f64> = slices
            .iter()
            .flat_map(|s| s.3.iter().map(move |l| l * c(s.0)))
            .collect();
        out.notes
            .push(format!("set-ups (s, corrected): {setup_s:.4?}"));
        out.notes.push(format!(
            "closed-loop slices (ops/s, one thread): raw {raw_capacity:.1?}, corrected {capacity:.1?}"
        ));
        out.notes.push(describe_speed(&speed));
        out.notes.push(format!(
            "uncorrected: throughput_ops_s {:.4}, p50_ms {:.4}",
            median(&sorted(raw_capacity)),
            p50(&sorted(raw_latencies))
        ));
        out.notes.push(describe("call latency", &latencies));
        let lat = sorted(latencies);
        let values = [
            ("setup_s", median(&sorted(setup_s))),
            ("throughput_ops_s", median(&sorted(capacity))),
            ("p50_ms", p50(&lat)),
            (
                "p99_ms",
                if lat.is_empty() {
                    0.0
                } else {
                    percentile(&lat, 0.99)
                },
            ),
            ("cpu_ms_per_op", p50(&sorted(cpu_per_op))),
            ("rss_peak_mb", process_rss_peak_mb(None).unwrap_or(0.0)),
        ];
        out.metrics = table(&END_TO_END, &values, true);
        out.reported = table(&REPORTED, &values, false);
        return Ok(out);
    }

    let plain = batch_loop(&batch, &mut ops, secs(TRACED_SHARE, opts), None, &mut out);
    let plain_phase = speed.lap();
    let mut scratch = Tracer::new();
    let traced = batch_loop(
        &batch,
        &mut ops,
        secs(TRACED_SHARE, opts),
        Some(&mut scratch),
        &mut out,
    );
    let traced_phase = speed.lap();
    let at_reference_speed = |latencies: Vec<f64>, phase| {
        let correction = speed.correction(phase);
        latencies
            .into_iter()
            .map(|l| l * correction)
            .collect::<Vec<f64>>()
    };
    let (plain, traced) = (
        at_reference_speed(plain, plain_phase),
        at_reference_speed(traced, traced_phase),
    );
    out.notes.push(describe("call latency (untraced)", &plain));
    out.notes.push(describe("call latency (traced)", &traced));

    // The replay: the first ops of the sequence, one span tree each.
    let mut tracer = Tracer::new();
    let (mut threads, mut p1, mut p2) = (0u64, Vec::new(), Vec::new());
    let (mut classified, mut fastpath) = (0u64, 0u64);
    for (seq, op) in batch
        .ops(sub_seed(seed, OPEN_SEED))
        .take(opts.scale.replay)
        .enumerate()
    {
        tracer.begin("replay", seq as u64);
        let t0 = Instant::now();
        match tracer.span("request", |t| batch.run(op, Some(t))) {
            Ok(used) => threads = threads.max(used),
            Err(e) => {
                out.failed += 1;
                out.notes.push(format!("FAILED replay: {e}"));
            }
        }
        let us = t0.elapsed().as_secs_f64() * 1e6;
        match op {
            Op::Certain(1) => p1.push(us),
            Op::Certain(_) => p2.push(us),
            Op::Decide(i) => {
                classified += 1;
                fastpath += u64::from(batch.is_project_select(i));
            }
            _ => {}
        }
    }
    out.attempted += opts.scale.replay as u64;
    // Parallel efficiency: the speed-up of the 2-way certain-answer call
    // over the sequential one, per thread it used.
    let (m1, m2) = (p50(&sorted(p1)), p50(&sorted(p2)));
    let efficiency = if m2 > 0.0 && threads > 0 {
        m1 / (m2 * threads as f64)
    } else {
        0.0
    };
    let mut values = vec![
        ("exec.threads_used", threads as f64),
        ("exec.shard_efficiency", efficiency),
        ("router.fastpath_ratio", ratio(fastpath, classified)),
        ("trace.overhead_pct", overhead_pct(&plain, &traced)),
    ];
    values.extend(replay_layers(&tracer));
    write_trace(opts, &tracer, &mut out);
    out.metrics = table(&PER_LAYER, &values, true);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slo_rate_interpolates_at_the_limit() {
        let ok_all = [(40.0, 1.0, false), (70.0, 2.0, false), (100.0, 3.0, false)];
        assert_eq!(slo_rate(&ok_all, 5.0), 100.0);
        let crosses = [(40.0, 1.0, false), (70.0, 2.0, false), (100.0, 6.0, false)];
        assert!((slo_rate(&crosses, 4.0) - 85.0).abs() < 1e-9);
        let failing_max = [(40.0, 1.0, false), (70.0, 2.0, false), (100.0, 1.0, true)];
        assert_eq!(slo_rate(&failing_max, 4.0), 70.0);
        let nominal_over = [(40.0, 8.0, false), (70.0, 9.0, false), (100.0, 10.0, false)];
        assert_eq!(slo_rate(&nominal_over, 4.0), 20.0);
    }

    #[test]
    fn metric_tables_have_unique_names() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&REPORTED)
            .chain(&PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}

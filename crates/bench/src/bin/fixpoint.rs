//! `fixpoint` — engine micro-benchmark for the incremental index.
//!
//! Compares the two [`IndexMaintenance`] policies of the maintained
//! [`IndexedInstance`](vqd_instance::IndexedInstance) on the repo's fixpoint workloads and writes a
//! JSON report to `BENCH_engine.json`:
//!
//! * **Datalog saturation** — semi-naive transitive closure on chain and
//!   random graphs via [`eval_program_with`]. `Rebuild` reproduces the
//!   historical cost model (one full index rebuild per round, `O(n³)`
//!   index work on a chain); `Incremental` indexes each delta tuple once
//!   (`O(n²)`).
//! * **Chase pipeline** — `v_inverse_indexed` on a path-view extent
//!   followed by repeated certain-answer style CQ evaluations, against
//!   the pre-refactor shape (materialize the chased instance, rebuild an
//!   index per evaluation).
//!
//! ```text
//! fixpoint [--reps 3] [--seed 7] [--out BENCH_engine.json] [--smoke]
//! ```
//!
//! `--smoke` shrinks the sizes for CI. Exit code 0 means both policies
//! agreed on every output (the report is still written on mismatch).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::json::Value;
use std::io::Write as _;
use std::time::Instant;
use vqd_bench::genq::{path_query, path_views};
use vqd_budget::Budget;
use vqd_chase::{v_inverse, v_inverse_indexed};
use vqd_datalog::{eval_program_with, Program, Strategy};
use vqd_eval::{apply_views, eval_cq, eval_cq_rows, eval_cq_sharded, Rows};
use vqd_exec::ExecCtx;
use vqd_instance::{
    index_stats, named, DomainNames, IndexMaintenance, IndexStats, Instance, NullGen, Relation,
    Schema,
};

struct Args {
    reps: usize,
    seed: u64,
    out: String,
    smoke: bool,
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("usage: fixpoint [--reps N] [--seed N] [--out PATH] [--smoke]");
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args { reps: 3, seed: 7, out: "BENCH_engine.json".to_owned(), smoke: false };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    let num = |it: &mut std::slice::Iter<'_, String>, flag: &str| -> u64 {
        it.next()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| die(&format!("flag `{flag}` needs a numeric value")))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--reps" => args.reps = num(&mut it, flag) as usize,
            "--seed" => args.seed = num(&mut it, flag),
            "--out" => {
                args.out = it.next().unwrap_or_else(|| die("flag `--out` needs a value")).clone();
            }
            "--smoke" => args.smoke = true,
            "--help" | "-h" => die("fixpoint: incremental vs rebuild-per-round index maintenance"),
            other => die(&format!("unknown flag `{other}`")),
        }
    }
    if args.reps == 0 {
        die("--reps must be positive");
    }
    args
}

/// Best-of-`reps` wall time plus the thread-local index-counter delta of
/// the last rep (the work is deterministic, so any rep's delta serves).
fn measure<T>(reps: usize, mut run: impl FnMut() -> T) -> (f64, IndexStats, T) {
    let mut best_ms = f64::INFINITY;
    let mut stats = IndexStats::default();
    let mut out = None;
    for _ in 0..reps {
        let before = index_stats();
        let start = Instant::now();
        let value = run();
        best_ms = best_ms.min(start.elapsed().as_secs_f64() * 1e3);
        let after = index_stats();
        stats = IndexStats {
            builds: after.builds.wrapping_sub(before.builds),
            delta_tuples: after.delta_tuples.wrapping_sub(before.delta_tuples),
        };
        out = Some(value);
    }
    (best_ms, stats, out.expect("reps > 0"))
}

fn side_json(ms: f64, s: IndexStats) -> Value {
    Value::object([
        ("ms", Value::from(ms)),
        ("index_builds", Value::from(s.builds)),
        ("index_tuples", Value::from(s.delta_tuples)),
    ])
}

fn chain(s: &Schema, n: u32) -> Instance {
    let mut d = Instance::empty(s);
    for i in 0..n {
        d.insert_named("E", vec![named(i), named(i + 1)]);
    }
    d
}

fn random_graph(s: &Schema, n: u32, edges: usize, rng: &mut StdRng) -> Instance {
    let mut d = Instance::empty(s);
    for _ in 0..edges {
        d.insert_named("E", vec![named(rng.gen_range(0..n)), named(rng.gen_range(0..n))]);
    }
    d
}

/// One Datalog row: saturate TC under both policies, compare outputs.
fn datalog_case(
    label: &str,
    n: u32,
    prog: &Program,
    edb: &Instance,
    reps: usize,
    agree: &mut bool,
) -> Value {
    let budget = Budget::unlimited();
    let run = |m: IndexMaintenance| {
        eval_program_with(prog, edb, Strategy::SemiNaive, m, &budget)
            .unwrap_or_else(|e| die(&format!("datalog {label} n={n}: {e}")))
    };
    let (inc_ms, inc_stats, inc_out) = measure(reps, || run(IndexMaintenance::Incremental));
    let (reb_ms, reb_stats, reb_out) = measure(reps, || run(IndexMaintenance::Rebuild));
    let same = inc_out == reb_out;
    *agree &= same;
    println!(
        "datalog/{label} n={n}: incremental {inc_ms:.2}ms ({} builds, {} tuples) \
         vs rebuild {reb_ms:.2}ms ({} builds, {} tuples) — {}",
        inc_stats.builds,
        inc_stats.delta_tuples,
        reb_stats.builds,
        reb_stats.delta_tuples,
        if same { "outputs agree" } else { "OUTPUTS DIFFER" },
    );
    Value::object([
        ("workload", Value::from(label)),
        ("n", Value::from(u64::from(n))),
        ("edb_tuples", Value::from(edb.total_tuples())),
        ("derived_tuples", Value::from(inc_out.total_tuples())),
        ("incremental", side_json(inc_ms, inc_stats)),
        ("rebuild", side_json(reb_ms, reb_stats)),
        ("speedup", Value::from(reb_ms / inc_ms.max(1e-9))),
        ("outputs_agree", Value::from(same)),
    ])
}

/// One chase row: invert a path-view extent, then answer `probes` CQs.
/// Incremental side reuses the chase's maintained index; baseline side
/// materializes the instance and rebuilds an index per evaluation.
fn chase_case(s: &Schema, m: u32, probes: usize, reps: usize, agree: &mut bool) -> Value {
    let views = path_views(s, 2);
    let extent = apply_views(views.as_view_set(), &chain(s, 2 * m));
    let base = Instance::empty(s);
    let budget = Budget::unlimited();
    let queries: Vec<_> = (0..probes).map(|i| path_query(s, 2 + i % 3)).collect();

    let (inc_ms, inc_stats, inc_out) = measure(reps, || {
        let mut nulls = NullGen::new();
        let chased = v_inverse_indexed(&views, &base, &extent, &mut nulls, &budget)
            .unwrap_or_else(|e| die(&format!("chase m={m}: {e}")));
        queries.iter().map(|q| eval_cq(q, &chased)).collect::<Vec<_>>()
    });
    let (reb_ms, reb_stats, reb_out) = measure(reps, || {
        let mut nulls = NullGen::new();
        // Pre-refactor shape: materialize the chased instance, then one
        // throwaway index build inside every downstream evaluation.
        let chased = v_inverse(&views, &base, &extent, &mut nulls);
        queries.iter().map(|q| eval_cq(q, &chased)).collect::<Vec<_>>()
    });
    let same = inc_out == reb_out;
    *agree &= same;
    println!(
        "chase/path-views m={m}: shared index {inc_ms:.2}ms ({} builds) \
         vs per-eval rebuild {reb_ms:.2}ms ({} builds) — {}",
        inc_stats.builds,
        reb_stats.builds,
        if same { "outputs agree" } else { "OUTPUTS DIFFER" },
    );
    Value::object([
        ("workload", Value::from("path-view-inverse")),
        ("extent_tuples", Value::from(extent.total_tuples())),
        ("probes", Value::from(probes)),
        ("incremental", side_json(inc_ms, inc_stats)),
        ("rebuild", side_json(reb_ms, reb_stats)),
        ("speedup", Value::from(reb_ms / inc_ms.max(1e-9))),
        ("outputs_agree", Value::from(same)),
    ])
}

/// One parallel row: the certain-answer hot path — a fixed CQ over one
/// chased canonical database — evaluated sequentially and, through the
/// executor, `shards`-way sharded.
///
/// Output equality is asserted three ways: shard-union vs sequential,
/// executor result vs sequential, and executor result at every width.
fn parallel_case(s: &Schema, m: u32, shards: usize, reps: usize, agree: &mut bool) -> Value {
    let views = path_views(s, 2);
    let extent = apply_views(views.as_view_set(), &chain(s, 2 * m));
    let base = Instance::empty(s);
    let budget = Budget::unlimited();
    let mut nulls = NullGen::new();
    let chased = v_inverse_indexed(&views, &base, &extent, &mut nulls, &budget)
        .unwrap_or_else(|e| die(&format!("parallel chase m={m}: {e}")));
    let q = path_query(s, 3);

    let (seq_ms, _, seq_out) = measure(reps, || eval_cq(&q, &chased));

    let mut merged = Relation::new(q.arity());
    for i in 0..shards {
        merged.union_with(&eval_cq_sharded(&q, &chased, i, shards));
    }

    // Honest wall time through the executor, real threads and all.
    let ctx = ExecCtx::with_parallelism(budget.clone(), shards);
    let (wall_ms, _, ctx_out) = measure(reps, || {
        eval_cq_rows(&q, &chased, &ctx)
            .map(Rows::into_relation)
            .unwrap_or_else(|e| die(&format!("parallel eval shards={shards}: {e}")))
    });

    let same = merged == seq_out && ctx_out == seq_out;
    *agree &= same;
    println!(
        "parallel/certain-eval m={m} shards={shards}: sequential {seq_ms:.2}ms, \
         wall {wall_ms:.2}ms — {}",
        if same { "outputs agree" } else { "OUTPUTS DIFFER" },
    );
    Value::object([
        ("workload", Value::from("parallel-certain-eval")),
        ("shards", Value::from(shards)),
        ("sequential_ms", Value::from(seq_ms)),
        ("wall_ms", Value::from(wall_ms)),
        ("outputs_agree", Value::from(same)),
    ])
}

fn main() {
    let args = parse_args();
    let s = Schema::new([("E", 2), ("T", 2)]);
    let mut names = DomainNames::new();
    let prog = Program::parse(&s, &mut names, "T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).")
        .unwrap_or_else(|e| die(&format!("TC program: {e}")));
    let mut rng = StdRng::seed_from_u64(args.seed);

    let (chain_sizes, rand_sizes, chase_sizes, probes): (&[u32], &[u32], &[u32], usize) =
        if args.smoke {
            (&[24], &[24], &[24], 3)
        } else {
            (&[40, 80, 160], &[40, 80], &[40, 80], 9)
        };

    let mut agree = true;
    let mut datalog_rows = Vec::new();
    for &n in chain_sizes {
        datalog_rows.push(datalog_case("chain-tc", n, &prog, &chain(&s, n), args.reps, &mut agree));
    }
    for &n in rand_sizes {
        let edb = random_graph(&s, n, 2 * n as usize, &mut rng);
        datalog_rows.push(datalog_case("random-tc", n, &prog, &edb, args.reps, &mut agree));
    }
    let mut chase_rows = Vec::new();
    for &m in chase_sizes {
        chase_rows.push(chase_case(&s, m, probes, args.reps, &mut agree));
    }
    let parallel_m: u32 = if args.smoke { 24 } else { 120 };
    let mut parallel_rows = Vec::new();
    for &shards in &[1usize, 2, 4, 8] {
        parallel_rows.push(parallel_case(&s, parallel_m, shards, args.reps, &mut agree));
    }

    // Disabled-path overhead witness: tracing was never enabled, so the
    // span guards in the chase/fixpoint loops must have stayed inert —
    // zero events recorded means zero clock reads and zero ring writes.
    let span_events = vqd_obs::metric_value(vqd_obs::Metric::SpanEventsRecorded);
    let engine_counters = vqd_obs::local_snapshot();

    let report = Value::object([
        ("bench", Value::from("engine_fixpoint")),
        ("reps", Value::from(args.reps)),
        ("seed", Value::from(args.seed)),
        ("smoke", Value::from(args.smoke)),
        ("datalog", Value::Arr(datalog_rows)),
        ("chase", Value::Arr(chase_rows)),
        ("parallel", Value::Arr(parallel_rows)),
        ("outputs_agree", Value::from(agree)),
        (
            "obs",
            Value::object([
                ("tracing_enabled", Value::from(vqd_obs::tracing_enabled())),
                ("span_events_recorded", Value::from(span_events)),
                ("engine_counters", engine_counters.to_json()),
            ]),
        ),
    ]);
    let json = report.to_string();
    match std::fs::File::create(&args.out).and_then(|mut f| writeln!(f, "{json}")) {
        Ok(()) => println!("wrote {}", args.out),
        Err(e) => {
            eprintln!("cannot write {}: {e}", args.out);
            std::process::exit(1)
        }
    }
    if !agree {
        eprintln!("fixpoint: maintenance policies disagreed — this is a bug");
        std::process::exit(1)
    }
    if span_events != 0 {
        eprintln!(
            "fixpoint: {span_events} span events recorded with tracing disabled — \
             the disabled path is paying tracing overhead"
        );
        std::process::exit(1)
    }
}

//! `fixpoint` — the engine bench: index maintenance, the certain-answer
//! fan-out, the wire JSON codec and the paper's figures F1–F8, in one
//! JSON report (`BENCH_engine.json`).
//!
//! * **Datalog saturation** — semi-naive transitive closure on chain and
//!   random graphs via [`eval_program_with`] under both
//!   [`IndexMaintenance`] policies. `Rebuild` reproduces the historical
//!   cost model (one full index rebuild per round, `O(n³)` index work on
//!   a chain); `Incremental` indexes each delta tuple once (`O(n²)`).
//! * **Chase pipeline** — `v_inverse_indexed` on a path-view extent
//!   followed by repeated CQ evaluations over its maintained index,
//!   against materializing the chased instance and rebuilding an index
//!   per evaluation.
//! * **Parallel** — one CQ over a chased canonical database, evaluated
//!   sequentially and through the executor at 1/2/4/8 shards.
//! * **Wire** — the `serde::json` writer and parser on the served
//!   workloads' largest messages: a certain-answer reply of 2,048 pairs
//!   and a `certain_sound` request with a 1,024-tuple inline extent. Each
//!   row encodes its value, parses the text back and gates the byte count
//!   and the round trip.
//! * **Figures** — one row per point of the paper's figures F1–F8
//!   (DESIGN.md §4), the ablations' two sides included.
//!
//! Every row is timed the same way: the batch of iterations one sample
//! runs is calibrated once so that a sample lasts at least a
//! millisecond, and the row reports the per-iteration median and p95
//! (nearest rank) over `--reps` samples plus the engine-counter delta
//! of one iteration (non-zero counters only).
//!
//! ```text
//! fixpoint [--reps 10] [--seed 7] [--out BENCH_engine.json] [--smoke]
//!          [--check COMMITTED.json]
//! ```
//!
//! `--seed` seeds the random graphs and wire messages; `--smoke` runs
//! both wire rows and only the smallest point of each other series,
//! plus the second point of the F2 and F8 series: the smallest rows
//! with ties in the hom kernel's most-constrained pick, so a smoke
//! `--check` catches a change to its tie-break. The gates are on
//! exactness, never on wall time: the exit code is 1 when a row's
//! counter delta differs between samples, when the two sides of a
//! comparison disagree on their output, when a wire message does not
//! parse back to itself, or when tracing recorded a span while
//! disabled. The report is written either way, with the failures
//! listed.
//!
//! `--check` then compares the report with a committed one, row by row
//! (rows are keyed by their workload or figure, series and point): every
//! field but the wall-time ones (`median_ms`, `p95_ms`,
//! `iters_per_sample`, `speedup`) must be equal, so a row's `result`, its
//! counters, its outputs-agree flag and a wire row's `bytes` and
//! `round_trips` are all gated. It prints each
//! differing row with its differing fields and exits 1 on any
//! difference. A smoke report is checked on the rows it has.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::json::Value;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hint::black_box;
use std::io::Write as _;
use std::time::{Duration, Instant};
use vqd_bench::genq::{path_query, path_views};
use vqd_budget::Budget;
use vqd_chase::{canonical, v_inverse, v_inverse_indexed, Tower};
use vqd_core::answering::answer_np;
use vqd_core::certain::certain_sound;
use vqd_core::determinacy::semantic::{check_exhaustive, SemanticVerdict};
use vqd_core::determinacy::unrestricted::decide_unrestricted;
use vqd_core::minicon::minicon_equivalent_rewriting;
use vqd_datalog::{eval_program, eval_program_with, Program, Strategy};
use vqd_eval::{
    apply_views, cq_contained, eval_cq, eval_cq_rows, eval_cq_sharded, eval_fo, for_each_hom,
    minimize_cq, minimize_cq_exhaustive, Assignment, Ordering, Rows,
};
use vqd_exec::ExecCtx;
use vqd_instance::gen::InstanceEnumerator;
use vqd_instance::{
    named, DomainNames, IndexMaintenance, IndexedInstance, Instance, NullGen, Relation, Schema,
};
use vqd_obs::{Metric, MetricsSnapshot};
use vqd_query::{parse_query, QueryExpr};
use vqd_turing::{build_instance, phi_m, Tm};

/// The shortest a timed sample may be; calibration doubles the batch
/// until one lasts this long.
const SAMPLE_FLOOR: Duration = Duration::from_millis(1);

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("usage: fixpoint [--reps N] [--seed N] [--out PATH] [--smoke] [--check PATH]");
    std::process::exit(2)
}

/// The bench settings from the command line, the report path and the
/// committed report to check against.
fn parse_args() -> (Bench, String, Option<String>) {
    let mut b =
        Bench { reps: 10, seed: 7, smoke: false, figures: Vec::new(), failures: Vec::new() };
    let mut out = "BENCH_engine.json".to_owned();
    let mut check = None;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    let num = |it: &mut std::slice::Iter<'_, String>, flag: &str| -> u64 {
        it.next()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| die(&format!("flag `{flag}` needs a numeric value")))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--reps" => b.reps = num(&mut it, flag) as usize,
            "--seed" => b.seed = num(&mut it, flag),
            "--out" => out = it.next().unwrap_or_else(|| die("flag `--out` needs a value")).clone(),
            "--smoke" => b.smoke = true,
            "--check" => {
                check =
                    Some(it.next().unwrap_or_else(|| die("flag `--check` needs a value")).clone())
            }
            "--help" | "-h" => {
                die("fixpoint: engine bench (index maintenance, wire codec and figures F1–F8)")
            }
            other => die(&format!("unknown flag `{other}`")),
        }
    }
    if b.reps == 0 {
        die("--reps must be positive");
    }
    (b, out, check)
}

/// The report sections whose rows `--check` compares.
const SECTIONS: [&str; 5] = ["datalog", "chase", "parallel", "wire", "figures"];

/// Top-level row fields that name a row rather than measure it.
const ROW_KEY: [&str; 6] = ["workload", "figure", "series", "x", "n", "shards"];

/// Leaves that hold wall time, which `--check` never gates.
const WALL_TIME: [&str; 4] = ["median_ms", "p95_ms", "iters_per_sample", "speedup"];

/// A row's key: its section and naming fields, numbered from the
/// second row of a section that has the same names (the chase rows,
/// say, which differ only in size).
fn row_key(
    section: &str,
    row: &Value,
    taken: &BTreeMap<String, BTreeMap<String, String>>,
) -> String {
    let names: Vec<String> =
        ROW_KEY.iter().filter_map(|k| row.get(k)).map(|v| v.to_string().replace('"', "")).collect();
    let base = format!("{section} {}", names.join("/"));
    let mut key = base.clone();
    for n in 2.. {
        if !taken.contains_key(&key) {
            break;
        }
        key = format!("{base} #{n}");
    }
    key
}

/// The gated leaves of `v` by dotted path, as JSON text; wall time is
/// left out.
fn gated_leaves(path: &str, v: &Value, out: &mut BTreeMap<String, String>) {
    match v {
        Value::Obj(fields) => {
            for (k, field) in fields.iter().filter(|(k, _)| !WALL_TIME.contains(&k.as_str())) {
                let path = if path.is_empty() { k.clone() } else { format!("{path}.{k}") };
                gated_leaves(&path, field, out);
            }
        }
        leaf => {
            out.insert(path.to_owned(), leaf.to_string());
        }
    }
}

/// Each row of the report by key, with its gated leaves.
fn gated_rows(report: &Value) -> BTreeMap<String, BTreeMap<String, String>> {
    let mut rows = BTreeMap::new();
    for section in SECTIONS {
        let section_rows = report.get(section).and_then(Value::as_arr).unwrap_or(&[]);
        for row in section_rows {
            let mut leaves = BTreeMap::new();
            gated_leaves("", row, &mut leaves);
            rows.insert(row_key(section, row, &rows), leaves);
        }
    }
    rows
}

/// The differences between a `fresh` report and a `committed` one: a
/// line naming each differing row, then one line per differing field.
/// Rows the committed report has and a smoke report lacks are not
/// compared.
fn report_diff(committed: &Value, fresh: &Value) -> Vec<String> {
    let mut diff = Vec::new();
    let (was, now) = (committed.get("seed"), fresh.get("seed"));
    if was.map(Value::to_string) != now.map(Value::to_string) {
        diff.push(format!("seed differs: {was:?} -> {now:?}"));
    }
    let smoke = fresh.get("smoke").and_then(Value::as_bool) == Some(true);
    let committed = gated_rows(committed);
    let fresh = gated_rows(fresh);
    let absent = "absent".to_owned();
    for (key, now) in &fresh {
        let Some(was) = committed.get(key) else {
            diff.push(format!("{key}: not in the committed report"));
            continue;
        };
        let paths: BTreeSet<&String> = was.keys().chain(now.keys()).collect();
        let fields: Vec<String> = paths
            .into_iter()
            .filter_map(|path| {
                let (a, b) = (was.get(path).unwrap_or(&absent), now.get(path).unwrap_or(&absent));
                (a != b).then(|| format!("  {path}: {a} -> {b}"))
            })
            .collect();
        if !fields.is_empty() {
            diff.push(key.clone());
            diff.extend(fields);
        }
    }
    if !smoke {
        for key in committed.keys().filter(|k| !fresh.contains_key(*k)) {
            diff.push(format!("{key}: missing from this report"));
        }
    }
    diff
}

/// Compares `report` with the committed report at `path`; prints the
/// differences and returns whether there were none.
fn check_against(path: &str, report: &Value) -> bool {
    let committed = std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| serde::json::parse(&text).map_err(|e| e.to_string()))
        .unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1)
        });
    let diff = report_diff(&committed, report);
    for line in &diff {
        println!("{line}");
    }
    if diff.is_empty() {
        println!("check: every gated field equals {path}");
    } else {
        eprintln!("fixpoint: the report differs from {path}");
    }
    diff.is_empty()
}

/// One timed row: per-iteration wall time and the engine-counter delta
/// of one iteration.
struct Timing {
    median_ms: f64,
    p95_ms: f64,
    iters: u64,
    counters: MetricsSnapshot,
}

impl Timing {
    fn to_json(&self) -> Value {
        Value::object([
            ("median_ms", Value::from(self.median_ms)),
            ("p95_ms", Value::from(self.p95_ms)),
            ("iters_per_sample", Value::from(self.iters)),
            ("counters", self.counters.to_json()),
        ])
    }
}

/// Runs `iters` iterations, returning the elapsed time and the
/// engine-counter delta.
fn batch<T>(iters: u64, run: &mut impl FnMut() -> T) -> (Duration, MetricsSnapshot) {
    let before = MetricsSnapshot::capture();
    let start = Instant::now();
    for _ in 0..iters {
        black_box(run());
    }
    (start.elapsed(), MetricsSnapshot::capture().diff(&before))
}

/// The run's settings, its figure rows and every exactness failure.
struct Bench {
    reps: usize,
    seed: u64,
    smoke: bool,
    figures: Vec<Value>,
    failures: Vec<String>,
}

impl Bench {
    /// The points of a series to run: all of them, or under `--smoke`
    /// only the first (smallest).
    fn points<'a, T>(&self, all: &'a [T]) -> &'a [T] {
        self.smoke_points(all, 1)
    }

    /// The points of a series to run: all of them, or under `--smoke`
    /// the first `n`.
    fn smoke_points<'a, T>(&self, all: &'a [T], n: usize) -> &'a [T] {
        if self.smoke {
            &all[..n]
        } else {
            all
        }
    }

    /// Records a failed exactness check; returns `ok`.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            let what = what();
            eprintln!("fixpoint: {what}");
            self.failures.push(what);
        }
        ok
    }

    /// Times `run` (see the module docs) and returns the output of its
    /// first, untimed iteration. A sample whose counter delta is not
    /// `iters` times that iteration's fails the `label` row.
    fn measure<T>(&mut self, label: &str, mut run: impl FnMut() -> T) -> (Timing, T) {
        let before = MetricsSnapshot::capture();
        let start = Instant::now();
        let out = run();
        let mut elapsed = start.elapsed();
        let counters = MetricsSnapshot::capture().diff(&before);
        let mut iters = 1;
        while elapsed < SAMPLE_FLOOR {
            iters *= 2;
            elapsed = batch(iters, &mut run).0;
        }
        let mut per_iter_ms = Vec::with_capacity(self.reps);
        let mut exact = true;
        for _ in 0..self.reps {
            let (elapsed, delta) = batch(iters, &mut run);
            exact &= Metric::ALL.iter().all(|&m| delta.get(m) == iters * counters.get(m));
            per_iter_ms.push(elapsed.as_secs_f64() * 1e3 / iters as f64);
        }
        self.check(exact, || format!("{label}: engine counters differ between samples"));
        per_iter_ms.sort_by(f64::total_cmp);
        let rank =
            |q: f64| per_iter_ms[((q * per_iter_ms.len() as f64).ceil() as usize).max(1) - 1];
        (Timing { median_ms: rank(0.5), p95_ms: rank(0.95), iters, counters }, out)
    }

    /// Times one figure point and adds its row; `result` summarizes the
    /// output the row's gate compares.
    fn figure<T>(
        &mut self,
        (figure, series, x): (&str, &str, u64),
        run: impl FnMut() -> T,
        result: impl FnOnce(&T) -> Value,
    ) -> T {
        let (timing, out) = self.measure(&format!("{figure}/{series}/{x}"), run);
        println!(
            "{figure}/{series}/{x}: median {:.4}ms p95 {:.4}ms",
            timing.median_ms, timing.p95_ms
        );
        self.figures.push(Value::object([
            ("figure", Value::from(figure)),
            ("series", Value::from(series)),
            ("x", Value::from(x)),
            ("result", result(&out)),
            ("timing", timing.to_json()),
        ]));
        out
    }
}

fn chain(s: &Schema, n: u32) -> Instance {
    let mut d = Instance::empty(s);
    for i in 0..n {
        d.insert_named("E", vec![named(i), named(i + 1)]);
    }
    d
}

/// `edges` random `E` edges over `n` nodes, then `marks` random `P`
/// facts (the schema must have `P` when `marks > 0`).
fn random_graph(s: &Schema, n: u32, edges: usize, marks: usize, rng: &mut StdRng) -> Instance {
    let mut d = Instance::empty(s);
    for _ in 0..edges {
        d.insert_named("E", vec![named(rng.gen_range(0..n)), named(rng.gen_range(0..n))]);
    }
    for _ in 0..marks {
        d.insert_named("P", vec![named(rng.gen_range(0..n))]);
    }
    d
}

/// Transitive closure over `E`, into `T`.
fn tc_program(s: &Schema) -> Program {
    Program::parse(s, &mut DomainNames::new(), "T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).")
        .unwrap_or_else(|e| die(&format!("TC program: {e}")))
}

/// One Datalog row: saturate TC under both policies, compare outputs.
fn datalog_case(b: &mut Bench, label: &str, n: u32, prog: &Program, edb: &Instance) -> Value {
    let budget = Budget::unlimited();
    let mut run = |m: IndexMaintenance| {
        b.measure(&format!("datalog/{label}/{n}/{m:?}"), || {
            eval_program_with(prog, edb, Strategy::SemiNaive, m, &budget)
                .unwrap_or_else(|e| die(&format!("datalog {label} n={n}: {e}")))
        })
    };
    let (inc, inc_out) = run(IndexMaintenance::Incremental);
    let (reb, reb_out) = run(IndexMaintenance::Rebuild);
    let same = b.check(inc_out == reb_out, || format!("datalog {label} n={n}: policies disagree"));
    println!(
        "datalog/{label} n={n}: incremental {:.2}ms vs rebuild {:.2}ms",
        inc.median_ms, reb.median_ms
    );
    Value::object([
        ("workload", Value::from(label)),
        ("n", Value::from(u64::from(n))),
        ("edb_tuples", Value::from(edb.total_tuples())),
        ("derived_tuples", Value::from(inc_out.total_tuples())),
        ("speedup", Value::from(reb.median_ms / inc.median_ms.max(1e-9))),
        ("incremental", inc.to_json()),
        ("rebuild", reb.to_json()),
        ("outputs_agree", Value::from(same)),
    ])
}

/// One chase row: invert a path-view extent, then answer `probes` CQs.
/// The incremental side reuses the chase's maintained index; the
/// baseline materializes the instance and rebuilds an index per
/// evaluation.
fn chase_case(b: &mut Bench, s: &Schema, m: u32, probes: usize) -> Value {
    let views = path_views(s, 2);
    let extent = apply_views(views.as_view_set(), &chain(s, 2 * m));
    let base = Instance::empty(s);
    let budget = Budget::unlimited();
    let queries: Vec<_> = (0..probes).map(|i| path_query(s, 2 + i % 3)).collect();

    let (inc, inc_out) = b.measure(&format!("chase/{m}/shared"), || {
        let chased = v_inverse_indexed(&views, &base, &extent, &mut NullGen::new(), &budget)
            .unwrap_or_else(|e| die(&format!("chase m={m}: {e}")));
        queries.iter().map(|q| eval_cq(q, &chased)).collect::<Vec<_>>()
    });
    let (reb, reb_out) = b.measure(&format!("chase/{m}/rebuild"), || {
        let chased = v_inverse(&views, &base, &extent, &mut NullGen::new());
        queries.iter().map(|q| eval_cq(q, &chased)).collect::<Vec<_>>()
    });
    let same = b.check(inc_out == reb_out, || format!("chase m={m}: outputs differ"));
    println!(
        "chase/path-views m={m}: shared index {:.2}ms vs per-eval rebuild {:.2}ms",
        inc.median_ms, reb.median_ms
    );
    Value::object([
        ("workload", Value::from("path-view-inverse")),
        ("extent_tuples", Value::from(extent.total_tuples())),
        ("probes", Value::from(probes)),
        ("speedup", Value::from(reb.median_ms / inc.median_ms.max(1e-9))),
        ("incremental", inc.to_json()),
        ("rebuild", reb.to_json()),
        ("outputs_agree", Value::from(same)),
    ])
}

/// One parallel row: a fixed CQ over one chased canonical database,
/// evaluated sequentially and through the executor `shards`-way. The
/// shard union and the executor's result must equal the sequential
/// answer.
fn parallel_case(b: &mut Bench, s: &Schema, m: u32, shards: usize) -> Value {
    let views = path_views(s, 2);
    let extent = apply_views(views.as_view_set(), &chain(s, 2 * m));
    let budget = Budget::unlimited();
    let chased =
        v_inverse_indexed(&views, &Instance::empty(s), &extent, &mut NullGen::new(), &budget)
            .unwrap_or_else(|e| die(&format!("parallel chase m={m}: {e}")));
    let q = path_query(s, 3);

    let (seq, seq_out) =
        b.measure(&format!("parallel/{shards}/sequential"), || eval_cq(&q, &chased));
    let mut merged = Relation::new(q.arity());
    for i in 0..shards {
        merged.union_with(&eval_cq_sharded(&q, &chased, i, shards));
    }
    let ctx = ExecCtx::with_parallelism(budget.clone(), shards);
    let (exec, exec_out) = b.measure(&format!("parallel/{shards}/executor"), || {
        eval_cq_rows(&q, &chased, &ctx)
            .map(Rows::into_relation)
            .unwrap_or_else(|e| die(&format!("parallel eval shards={shards}: {e}")))
    });
    let same = b.check(merged == seq_out && exec_out == seq_out, || {
        format!("parallel shards={shards}: outputs differ")
    });
    println!(
        "parallel/certain-eval m={m} shards={shards}: sequential {:.4}ms, executor {:.4}ms",
        seq.median_ms, exec.median_ms
    );
    Value::object([
        ("workload", Value::from("parallel-certain-eval")),
        ("shards", Value::from(shards)),
        ("sequential", seq.to_json()),
        ("executor", exec.to_json()),
        ("outputs_agree", Value::from(same)),
    ])
}

/// `n` random `(Na,Nb)` pairs over 2n constants, as a certain-answer
/// reply renders its relation: `{(N3,N17), (N9,N0), …}`.
fn rendered_pairs(n: usize, rng: &mut StdRng) -> String {
    let pairs: Vec<String> = (0..n)
        .map(|_| format!("(N{},N{})", rng.gen_range(0..2 * n), rng.gen_range(0..2 * n)))
        .collect();
    format!("{{{}}}", pairs.join(", "))
}

/// The two wire messages: certain-hot's largest reply (2,048 answer
/// pairs) and certain-churn's largest request (a 1,024-tuple inline
/// extent), shaped like the server's envelopes.
fn wire_messages(rng: &mut StdRng) -> [(&'static str, Value); 2] {
    let work = Value::object(
        ["steps", "tuples", "elapsed_ms", "index_builds", "index_tuples"]
            .map(|k| (k, Value::from(0u64))),
    );
    let reply = Value::object([
        ("v", Value::from(1u64)),
        ("id", Value::from("c7")),
        ("status", Value::from("ok")),
        ("work", work),
        (
            "result",
            Value::object([
                ("kind", Value::from("certain")),
                ("answers", Value::from(rendered_pairs(2_048, rng))),
                ("count", Value::from(2_048u64)),
            ]),
        ),
    ]);
    let extent: String = (0..1_024)
        .map(|_| format!("V(N{},N{}). ", rng.gen_range(0..512u32), rng.gen_range(0..512u32)))
        .collect();
    let request = Value::object([
        ("v", Value::from(1u64)),
        ("id", Value::from("c8")),
        (
            "request",
            Value::object([
                ("op", Value::from("certain_sound")),
                ("schema", Value::from("E/2")),
                ("views", Value::from("V(x,y) :- E(x,y).")),
                ("query", Value::from("Q(x,z) :- E(x,y), E(y,z).")),
                ("extent", Value::from(extent)),
            ]),
        ),
    ]);
    [("certain-hot-reply", reply), ("certain-churn-request", request)]
}

/// One wire row: encode `msg` to its JSON line and parse the line back,
/// timed apart. The message must parse back to itself.
fn wire_case(b: &mut Bench, workload: &str, msg: &Value) -> Value {
    let (encode, text) = b.measure(&format!("wire/{workload}/encode"), || msg.to_string());
    let (parse, back) = b.measure(&format!("wire/{workload}/parse"), || serde::json::parse(&text));
    let round_trips =
        b.check(back.as_ref() == Ok(msg), || format!("wire {workload}: does not round-trip"));
    println!(
        "wire/{workload}: {} bytes, encode {:.4}ms, parse {:.4}ms",
        text.len(),
        encode.median_ms,
        parse.median_ms
    );
    Value::object([
        ("workload", Value::from(workload)),
        ("bytes", Value::from(text.len())),
        ("round_trips", Value::from(round_trips)),
        ("encode", encode.to_json()),
        ("parse", parse.to_json()),
    ])
}

/// F1: homomorphism search with the atom-ordering ablation (the two
/// orderings must find the same number of matches), and containment.
/// The pattern is a `k`-path ending in a selective `P(x_k)`: the graph
/// has three `P` facts on 30 nodes, so most-constrained starts from
/// `P` and walks back, while static walks every path forward and
/// filters at the end.
fn f1(b: &mut Bench) {
    let s = Schema::new([("E", 2), ("P", 1)]);
    let d = random_graph(&s, 30, 150, 3, &mut StdRng::seed_from_u64(b.seed));
    for &k in b.points(&[2usize, 4, 8]) {
        let mut q = path_query(&s, k);
        let end = q.head[1];
        q.atom("P", vec![end]);
        let mut counts = Vec::new();
        for (series, ord) in [
            ("hom-path-pattern/most-constrained", Ordering::MostConstrained),
            ("hom-path-pattern/static", Ordering::Static),
        ] {
            let run = || {
                let index = IndexedInstance::from_instance(&d);
                let mut count = 0u64;
                for_each_hom(&q.atoms, &index, &Assignment::new(), ord, |_| {
                    count += 1;
                    count < 10_000
                });
                count
            };
            counts.push(b.figure(("F1", series, k as u64), run, |&n| {
                Value::object([("matches", Value::from(n))])
            }));
        }
        b.check(counts[0] == counts[1], || format!("F1 k={k}: orderings count {counts:?}"));
    }
    for &k in b.points(&[3usize, 5, 7]) {
        let (q1, q2) = (path_query(&s, k + 1), path_query(&s, k));
        b.figure(
            ("F1", "containment", k as u64),
            || cq_contained(&q1, &q2),
            |&c| Value::object([("contained", Value::from(c))]),
        );
    }
}

/// F2: the Theorem 3.7 decision procedure end to end.
fn f2(b: &mut Bench) {
    let s = Schema::new([("E", 2), ("P", 1)]);
    let views = path_views(&s, 2);
    for &k in b.smoke_points(&[4usize, 6, 8, 10], 2) {
        let q = path_query(&s, k);
        b.figure(
            ("F2", "decide-unrestricted", k as u64),
            || decide_unrestricted(&views, &q).determined,
            |&d| Value::object([("determined", Value::from(d))]),
        );
    }
}

/// F3: the view-inverse chase by extent size, and the tower by depth.
fn f3(b: &mut Bench) {
    let s = Schema::new([("E", 2), ("P", 1)]);
    let views = path_views(&s, 2);
    let empty = Instance::empty(&s);
    for &tuples in b.points(&[10u32, 50, 100]) {
        let mut extent = Instance::empty(views.as_view_set().output_schema());
        for i in 0..tuples {
            extent.insert_named("V", vec![named(i), named(i + 1)]);
        }
        b.figure(
            ("F3", "v-inverse", u64::from(tuples)),
            || v_inverse(&views, &empty, &extent, &mut NullGen::new()),
            |d| Value::object([("tuples", Value::from(d.total_tuples()))]),
        );
    }
    let q = path_query(&s, 3);
    for &depth in b.points(&[1usize, 2, 3]) {
        b.figure(
            ("F3", "tower-depth", depth as u64),
            || {
                let mut t = Tower::new(&views, &q);
                t.grow_to(&views, depth + 1);
                t.levels()
            },
            |&l| Value::object([("levels", Value::from(l))]),
        );
    }
}

/// F4: the exhaustive semantic scan on the bitmask kernel by domain
/// size, and the grouped-vs-pairwise ablation on the per-instance
/// evaluator. Both ablation sides must find a violation exactly when
/// the kernel does.
fn f4(b: &mut Bench) {
    let s = Schema::new([("E", 2)]);
    let views = path_views(&s, 2);
    let q = path_query(&s, 4);
    let qe = QueryExpr::Cq(q.clone());
    let mut determined = Vec::new();
    for &n in b.points(&[1usize, 2, 3, 4]) {
        let verdict = b.figure(
            ("F4", "exhaustive-kernel", n as u64),
            || check_exhaustive(views.as_view_set(), &qe, n, u128::MAX),
            |v| Value::object([("verdict", Value::from(verdict_name(v)))]),
        );
        determined.push(matches!(verdict, SemanticVerdict::NoCounterexampleUpTo(_)));
    }
    let image = |d: &Instance| (apply_views(views.as_view_set(), d), eval_cq(&q, d));
    let violations = |v: &u32| Value::object([("violations", Value::from(u64::from(*v)))]);
    for &n in b.points(&[1usize, 2, 3]) {
        let grouped = b.figure(
            ("F4", "grouped-raw", n as u64),
            || {
                let mut seen = HashMap::new();
                let mut violations = 0u32;
                for d in InstanceEnumerator::new(&s, n) {
                    let (img, out) = image(&d);
                    if seen.insert(img, out.clone()).is_some_and(|prev| prev != out) {
                        violations += 1;
                    }
                }
                violations
            },
            violations,
        );
        let pairwise = b.figure(
            ("F4", "pairwise", n as u64),
            || {
                let images: Vec<_> = InstanceEnumerator::new(&s, n).map(|d| image(&d)).collect();
                let mut violations = 0u32;
                for (i, (vi, qi)) in images.iter().enumerate() {
                    for (vj, qj) in &images[i + 1..] {
                        violations += u32::from(vi == vj && qi != qj);
                    }
                }
                violations
            },
            violations,
        );
        let kernel = !determined[n - 1];
        b.check(kernel == (grouped > 0) && kernel == (pairwise > 0), || {
            format!("F4 n={n}: kernel violation {kernel}, grouped {grouped}, pairwise {pairwise}")
        });
    }
}

fn verdict_name(v: &SemanticVerdict) -> &'static str {
    match v {
        SemanticVerdict::NoCounterexampleUpTo(_) => "no-counterexample",
        SemanticVerdict::NotDetermined(_) => "not-determined",
        SemanticVerdict::TooLarge { .. } => "too-large",
        SemanticVerdict::Exhausted { .. } => "exhausted",
    }
}

/// F5: active-domain FO evaluation by quantifier depth and chain size,
/// and the Theorem 5.1 sentence φ_M for two machines.
fn f5(b: &mut Bench) {
    let s = Schema::new([("E", 2)]);
    let formulas = [
        ("depth1", "Q(x) := exists y. E(x,y)."),
        ("depth2", "Q(x) := forall y. (E(x,y) -> exists z. E(y,z))."),
        (
            "depth3",
            "Q(x) := forall y. (E(x,y) -> exists z. (E(y,z) & forall w. (E(z,w) -> E(y,w)))).",
        ),
    ];
    let rows = |r: &Relation| Value::object([("rows", Value::from(r.len()))]);
    for (series, src) in formulas {
        let Ok(QueryExpr::Fo(q)) = parse_query(&s, &mut DomainNames::new(), src) else {
            die(&format!("F5 formula `{src}` is not FO"))
        };
        for &n in b.points(&[6u32, 12]) {
            let d = chain(&s, n);
            b.figure(("F5", series, u64::from(n)), || eval_fo(&q, &d), rows);
        }
    }
    for tm in [Tm::instant_accept(), Tm::complement()] {
        let phi = phi_m(&tm);
        let inst = build_instance(&tm, 2, &[(0, 1), (1, 0)], 4)
            .unwrap_or_else(|e| die(&format!("F5 φ_M instance for {}: {e:?}", tm.name)));
        let series = format!("phi-m/{}", tm.name.split(' ').next().unwrap_or(tm.name));
        b.figure(
            ("F5", &series, 4),
            || eval_fo(&phi, &inst).truth(),
            |&t| Value::object([("truth", Value::from(t))]),
        );
    }
}

/// F6: NP guess-and-check answering against the chase's certain
/// answers, on identity views where both must return `Q(extent)`.
fn f6(b: &mut Bench) {
    let s = Schema::new([("E", 2)]);
    let views = path_views(&s, 1);
    let q = path_query(&s, 2);
    let qe = QueryExpr::Cq(q.clone());
    let answers = |r: &Relation| Value::object([("answers", Value::from(r.len()))]);
    for &edges in b.points(&[1u32, 2, 3]) {
        let extent = apply_views(views.as_view_set(), &chain(&s, edges));
        let np = b.figure(
            ("F6", "np-search", u64::from(edges)),
            || {
                answer_np(views.as_view_set(), &qe, &extent, 0, 1 << 26)
                    .unwrap_or_else(|| die(&format!("F6 edges={edges}: no preimage found")))
            },
            answers,
        );
        let chase = b.figure(
            ("F6", "chase", u64::from(edges)),
            || certain_sound(&views, &q, &extent),
            answers,
        );
        b.check(np == chase, || format!("F6 edges={edges}: answers differ"));
    }
}

/// F7: Datalog transitive closure, semi-naive against naive.
fn f7(b: &mut Bench) {
    let s = Schema::new([("E", 2), ("T", 2)]);
    let prog = tc_program(&s);
    let derived = |d: &Instance| Value::object([("tuples", Value::from(d.total_tuples()))]);
    for &n in b.points(&[10u32, 30, 60]) {
        let edb = chain(&s, n);
        let mut run = |series, strategy| {
            b.figure(
                ("F7", series, u64::from(n)),
                || {
                    eval_program(&prog, &edb, strategy)
                        .unwrap_or_else(|e| die(&format!("F7 n={n}: {e}")))
                },
                derived,
            )
        };
        let semi = run("semi-naive", Strategy::SemiNaive);
        let naive = run("naive", Strategy::Naive);
        b.check(semi == naive, || format!("F7 n={n}: fixpoints differ"));
    }
}

/// F8: minimizing the canonical rewriting (greedy core against
/// exhaustive subset search), and rewriting existence (chase test
/// against MiniCon).
fn f8(b: &mut Bench) {
    let s = Schema::new([("E", 2)]);
    let views = path_views(&s, 2);
    let exists = |e: &bool| Value::object([("exists", Value::from(*e))]);
    for &k in b.smoke_points(&[4usize, 6, 8], 2) {
        let q = path_query(&s, k);
        let can = canonical(&views, &q);
        let atoms = |n: &usize| {
            Value::object([
                ("canonical_atoms", Value::from(can.q_v.atoms.len())),
                ("core_atoms", Value::from(*n)),
            ])
        };
        let x = k as u64;
        let greedy =
            b.figure(("F8", "greedy-core", x), || minimize_cq(&can.q_v).atoms.len(), atoms);
        let exhaustive = b.figure(
            ("F8", "exhaustive", x),
            || minimize_cq_exhaustive(&can.q_v).atoms.len(),
            atoms,
        );
        b.check(greedy == exhaustive, || {
            format!("F8 k={k}: cores of {greedy} and {exhaustive} atoms")
        });
        let chase = b.figure(
            ("F8", "existence-chase", x),
            || decide_unrestricted(&views, &q).rewriting.is_some(),
            exists,
        );
        let minicon = b.figure(
            ("F8", "existence-minicon", x),
            || minicon_equivalent_rewriting(&views, &q).is_ok_and(|r| r.is_some()),
            exists,
        );
        b.check(chase == minicon, || format!("F8 k={k}: chase {chase}, MiniCon {minicon}"));
    }
}

fn main() {
    let (mut b, out, check) = parse_args();
    let s = Schema::new([("E", 2), ("T", 2)]);
    let prog = tc_program(&s);
    let mut rng = StdRng::seed_from_u64(b.seed);

    let mut datalog_rows = Vec::new();
    for &n in b.points(&[40, 80, 160]) {
        datalog_rows.push(datalog_case(&mut b, "chain-tc", n, &prog, &chain(&s, n)));
    }
    for &n in b.points(&[40, 80]) {
        let edb = random_graph(&s, n, 2 * n as usize, 0, &mut rng);
        datalog_rows.push(datalog_case(&mut b, "random-tc", n, &prog, &edb));
    }
    let mut chase_rows = Vec::new();
    for &m in b.points(&[40, 80]) {
        chase_rows.push(chase_case(&mut b, &s, m, 9));
    }
    let mut parallel_rows = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        parallel_rows.push(parallel_case(&mut b, &s, 120, shards));
    }
    // Their own generator, so a smoke run draws the same messages.
    let wire_rows: Vec<Value> = wire_messages(&mut StdRng::seed_from_u64(b.seed))
        .iter()
        .map(|(workload, msg)| wire_case(&mut b, workload, msg))
        .collect();
    for figure in [f1, f2, f3, f4, f5, f6, f7, f8] {
        figure(&mut b);
    }

    // Disabled-path overhead witness: tracing was never enabled, so the
    // span guards in the chase/fixpoint loops must have stayed inert —
    // zero events recorded means zero clock reads and zero ring writes.
    let span_events = vqd_obs::metric_value(Metric::SpanEventsRecorded);
    b.check(span_events == 0, || {
        format!("{span_events} span events recorded with tracing disabled")
    });

    let report = Value::object([
        ("bench", Value::from("engine_fixpoint")),
        ("reps", Value::from(b.reps)),
        ("seed", Value::from(b.seed)),
        ("smoke", Value::from(b.smoke)),
        ("datalog", Value::Arr(datalog_rows)),
        ("chase", Value::Arr(chase_rows)),
        ("parallel", Value::Arr(parallel_rows)),
        ("wire", Value::Arr(wire_rows)),
        ("figures", Value::Arr(std::mem::take(&mut b.figures))),
        ("outputs_agree", Value::from(b.failures.is_empty())),
        ("failures", Value::Arr(b.failures.iter().map(|f| Value::from(f.as_str())).collect())),
        (
            "obs",
            Value::object([
                ("tracing_enabled", Value::from(vqd_obs::tracing_enabled())),
                ("span_events_recorded", Value::from(span_events)),
            ]),
        ),
    ]);
    match std::fs::File::create(&out).and_then(|mut f| writeln!(f, "{report}")) {
        Ok(()) => println!("wrote {out}"),
        Err(e) => {
            eprintln!("cannot write {out}: {e}");
            std::process::exit(1)
        }
    }
    let checked = check.is_none_or(|path| check_against(&path, &report));
    if !b.failures.is_empty() {
        eprintln!("fixpoint: {} exactness check(s) failed", b.failures.len());
        std::process::exit(1)
    }
    if !checked {
        std::process::exit(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(smoke: bool, rows: &[(u64, u64, f64)]) -> Value {
        let row = |&(x, candidates, ms): &(u64, u64, f64)| {
            Value::object([
                ("figure", Value::from("F1")),
                ("series", Value::from("s")),
                ("x", Value::from(x)),
                ("result", Value::object([("matches", Value::from(x * 10))])),
                (
                    "timing",
                    Value::object([
                        ("median_ms", Value::from(ms)),
                        ("counters", Value::object([("hom", Value::from(candidates))])),
                    ]),
                ),
            ])
        };
        Value::object([
            ("seed", Value::from(7u64)),
            ("smoke", Value::from(smoke)),
            ("figures", Value::Arr(rows.iter().map(row).collect())),
        ])
    }

    #[test]
    fn check_gates_counters_and_results_but_not_wall_time() {
        let committed = report(false, &[(1, 5, 0.1), (2, 9, 0.2)]);
        assert!(report_diff(&committed, &report(false, &[(1, 5, 3.0), (2, 9, 4.0)])).is_empty());
        assert!(report_diff(&committed, &report(true, &[(1, 5, 3.0)])).is_empty());
        assert_eq!(
            report_diff(&committed, &report(false, &[(1, 5, 0.1), (2, 8, 0.2)])),
            ["figures F1/s/2", "  timing.counters.hom: 9 -> 8"]
        );
        assert_eq!(
            report_diff(&committed, &report(false, &[(1, 5, 0.1)])),
            ["figures F1/s/2: missing from this report"]
        );
        assert_eq!(
            report_diff(&committed, &report(true, &[(3, 5, 0.1)])),
            ["figures F1/s/3: not in the committed report"]
        );
    }

    #[test]
    fn wire_rows_gate_bytes_but_not_wall_time() {
        let report = |bytes: u64, ms: f64| {
            let row = Value::object([
                ("workload", Value::from("certain-hot-reply")),
                ("bytes", Value::from(bytes)),
                ("round_trips", Value::from(true)),
                ("encode", Value::object([("median_ms", Value::from(ms))])),
            ]);
            Value::object([("seed", Value::from(7u64)), ("wire", Value::Arr(vec![row]))])
        };
        assert!(report_diff(&report(10, 0.1), &report(10, 0.5)).is_empty());
        assert_eq!(
            report_diff(&report(10, 0.1), &report(11, 0.1)),
            ["wire certain-hot-reply", "  bytes: 10 -> 11"]
        );
    }
}

//! Integration suite for intra-request parallel evaluation: the
//! `ExecCtx` library API and the work-sharing executor behind it, which
//! fan out CQ evaluation (certain answers, `eval_cq_rows`); and the wire,
//! which ignores an envelope's `parallelism`.
//!
//! Covers, end to end:
//!
//! * **Determinism** — certain answers and CQ evaluation on a seeded
//!   random corpus are byte-identical between a sequential context and
//!   every parallel width, including how exhaustion surfaces;
//! * **Unification** — a bare `&Budget`, `ExecCtx::sequential` and a
//!   parallelism-1 context all produce the same bytes, for certain
//!   answers and for the semantic scan (which always runs sequentially);
//! * **Governance** — a fault-injection sweep trips the shared budget
//!   at sampled checkpoints under parallel contexts: no panic, a
//!   structured `Exhausted` with exact step accounting, and a retry with
//!   headroom reproduces the sequential baseline;
//! * **Observability** — engine counters absorbed from foreign shards
//!   keep the parallel profile exactly equal to the sequential twin
//!   (modulo the per-shard root-exhaustion bookkeeping the sharded
//!   hom search documents), and budget checkpoints stay exact;
//! * **Wire** — a server runs every request on one worker thread: an
//!   envelope's `parallelism` changes nothing in the reply, and
//!   `threads_used` stays 0 (and so off the wire).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vqd::budget::{Budget, ExhaustReason, VqdError};
use vqd::chase::CqViews;
use vqd::core::certain::certain_sound_ctx;
use vqd::core::determinacy::check_exhaustive_ctx;
use vqd::eval::{apply_views, eval_cq_rows};
use vqd::exec::ExecCtx;
use vqd::instance::{named, DomainNames, Instance, Relation, Schema};
use vqd::obs::{Metric, MetricsSnapshot};
use vqd::query::{parse_program, parse_query, Cq, QueryExpr, ViewSet};
use vqd::server::{self, Client, Envelope, Limits, Request, ServerCaps, ServerConfig};
use vqd_bench::genq::{path_query, path_views, random_cq, CqGen};

/// Parallel widths every determinism assertion is swept over.
const WIDTHS: [usize; 4] = [2, 3, 4, 8];

/// Cap on distinct trip points per fault sweep (strided sampling).
const MAX_TRIP_POINTS: u64 = 12;

fn schema() -> Schema {
    Schema::new([("E", 2), ("P", 1)])
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
    for v in 0..n {
        if rng.gen_bool(0.5) {
            d.insert_named("P", vec![named(v)]);
        }
    }
    d
}

/// The certain-answer workhorse: 2-path views over a chain, 3-path
/// query — chases to a canonical database with nulls, so the final
/// evaluation (the part that fans out) does real backtracking work.
fn certain_workload(s: &Schema, m: u32) -> (CqViews, Cq, Instance) {
    let views = path_views(s, 2);
    let extent = apply_views(views.as_view_set(), &chain(s, 2 * m));
    (views, path_query(s, 3), extent)
}

fn semantic_workload(view_src: &str, q_src: &str) -> (ViewSet, QueryExpr) {
    let s = Schema::new([("E", 2)]);
    let mut names = DomainNames::new();
    let prog = parse_program(&s, &mut names, view_src).expect("views parse");
    let views = ViewSet::new(&s, prog.defs);
    let q = parse_query(&s, &mut names, q_src).expect("query parse");
    (views, q)
}

/// Checkpoint indices `1..=total`, strided down to at most
/// [`MAX_TRIP_POINTS`] samples.
fn trip_points(total: u64) -> impl Iterator<Item = u64> {
    let stride = total.div_ceil(MAX_TRIP_POINTS).max(1);
    (1..=total).step_by(stride as usize)
}

/// Engine-counter delta of `f`, as observed by the calling thread —
/// which is exactly what a request profile is.
fn engine_delta(f: impl FnOnce()) -> MetricsSnapshot {
    let before = MetricsSnapshot::capture();
    f();
    MetricsSnapshot::capture().diff(&before)
}

// ---------------------------------------------------------------------
// Determinism: parallel ≡ sequential, byte for byte.
// ---------------------------------------------------------------------

#[test]
fn parallel_certain_answers_are_byte_identical_to_sequential() {
    let s = schema();
    for m in [5u32, 13] {
        let (views, q, extent) = certain_workload(&s, m);
        let seq = certain_sound_ctx(&views, &q, &extent, &Budget::unlimited())
            .expect("sequential certain");
        for p in WIDTHS {
            let cx = ExecCtx::with_parallelism(Budget::unlimited(), p);
            let par = certain_sound_ctx(&views, &q, &extent, &cx).expect("parallel certain");
            assert_eq!(par, seq, "m={m} parallelism={p}");
            assert_eq!(
                cx.threads_used(),
                p as u64,
                "m={m}: the final evaluation must fan out at width {p}"
            );
        }
    }
}

#[test]
fn parallel_eval_agrees_on_a_random_corpus() {
    let s = schema();
    let mut rng = StdRng::seed_from_u64(11);
    for case in 0..25 {
        let d = random_graph(&s, 6, 14, &mut rng);
        let q = random_cq(&s, CqGen { atoms: 3, vars: 4, max_head: 2 }, &mut rng);
        let seq = eval_cq_rows(&q, &d, &Budget::unlimited()).expect("sequential eval");
        for p in WIDTHS {
            let cx = ExecCtx::with_parallelism(Budget::unlimited(), p);
            let par = eval_cq_rows(&q, &d, &cx).expect("parallel eval");
            assert_eq!(par, seq, "case {case} parallelism={p}");
        }
    }
}

// ---------------------------------------------------------------------
// Unification: one API, many spellings, same bytes.
// ---------------------------------------------------------------------

#[test]
fn sequential_spellings_agree() {
    let s = schema();
    let (views, q, extent) = certain_workload(&s, 7);
    let bare = certain_sound_ctx(&views, &q, &extent, &Budget::unlimited()).unwrap();
    let seq_cx =
        certain_sound_ctx(&views, &q, &extent, &ExecCtx::sequential(Budget::unlimited())).unwrap();
    assert_eq!(seq_cx, bare, "ExecCtx::sequential must equal a bare budget");
    // A parallelism-1 context never fans out and reports that honestly.
    let one = ExecCtx::with_parallelism(Budget::unlimited(), 1);
    assert_eq!(certain_sound_ctx(&views, &q, &extent, &one).unwrap(), bare);
    assert_eq!(one.threads_used(), 0, "width 1 is sequential: no fan-out");
    // The same three spellings of a sequential semantic scan agree.
    let (v, sq) = semantic_workload("V(x,y) :- E(x,y).", "Q(x,z) :- E(x,y), E(y,z).");
    let bare = check_exhaustive_ctx(&v, &sq, 2, 1 << 22, &Budget::unlimited()).unwrap();
    let spellings = [
        ("sequential", ExecCtx::sequential(Budget::unlimited())),
        ("width 1", ExecCtx::with_parallelism(Budget::unlimited(), 1)),
    ];
    for (spelling, cx) in spellings {
        let verdict = check_exhaustive_ctx(&v, &sq, 2, 1 << 22, &cx).unwrap();
        assert_eq!(format!("{verdict:?}"), format!("{bare:?}"), "{spelling}");
        assert_eq!(cx.threads_used(), 0, "{spelling}: no fan-out");
    }
}

// ---------------------------------------------------------------------
// Governance: the shared budget trips cleanly under parallelism.
// ---------------------------------------------------------------------

#[test]
fn budget_trips_surface_identically_in_parallel_certain() {
    let s = schema();
    let (views, q, extent) = certain_workload(&s, 9);
    let probe = Budget::unlimited();
    certain_sound_ctx(&views, &q, &extent, &probe).expect("probe run");
    let total = probe.steps();
    assert!(total > 1, "workload too small to trip mid-run");
    // Certain checkpoints live in the sequential sections (chase and
    // the null filter); the fanned-out evaluation draws no steps. So a
    // step limit must produce the *identical* structured outcome —
    // reason, exact step count, and progress message — at every width.
    let limit = total / 2;
    let trip = |cx: &dyn Fn() -> Result<Relation, VqdError>| match cx() {
        Err(VqdError::Exhausted(e)) => e,
        other => panic!("step limit {limit} must trip, got {other:?}"),
    };
    let seq_budget = Budget::unlimited().with_step_limit(limit);
    let seq = trip(&|| certain_sound_ctx(&views, &q, &extent, &seq_budget));
    assert_eq!(seq.reason, ExhaustReason::StepLimit);
    assert_eq!(seq.work_done.steps, limit);
    for p in [2usize, 4] {
        let cx = ExecCtx::with_parallelism(Budget::unlimited().with_step_limit(limit), p);
        let par = trip(&|| certain_sound_ctx(&views, &q, &extent, &cx));
        assert_eq!(par.reason, seq.reason, "parallelism={p}");
        assert_eq!(par.work_done.steps, seq.work_done.steps, "parallelism={p}");
        assert_eq!(par.partial, seq.partial, "parallelism={p}");
    }
}

#[test]
fn parallel_fault_sweep_certain() {
    let s = schema();
    let (views, q, extent) = certain_workload(&s, 6);
    let probe = Budget::unlimited();
    let baseline = certain_sound_ctx(&views, &q, &extent, &probe).expect("probe run");
    let total = probe.steps();
    assert!(total > 0, "engine reached no checkpoints — it is ungoverned");
    for p in [2usize, 4] {
        for n in trip_points(total) {
            let cx = ExecCtx::with_parallelism(Budget::unlimited().trip_after(n), p);
            match certain_sound_ctx(&views, &q, &extent, &cx) {
                Err(VqdError::Exhausted(e)) => {
                    assert_eq!(
                        e.reason,
                        ExhaustReason::FaultInjected,
                        "p={p} trip {n}/{total}: wrong reason"
                    );
                    assert_eq!(
                        e.work_done.steps,
                        n - 1,
                        "p={p} trip {n}/{total}: misreported completed work"
                    );
                    assert!(!e.partial.is_empty(), "p={p} trip {n}/{total}: lost progress");
                }
                other => panic!("p={p} trip {n}/{total}: expected Exhausted, got {other:?}"),
            }
        }
        // Headroom restored: the same parallel context shape reproduces
        // the sequential baseline byte for byte.
        let retry = ExecCtx::with_parallelism(Budget::unlimited(), p);
        assert_eq!(
            certain_sound_ctx(&views, &q, &extent, &retry).expect("retry"),
            baseline,
            "p={p}: retry after faults must reproduce the baseline"
        );
    }
}

// ---------------------------------------------------------------------
// Observability: foreign-shard counters are absorbed exactly.
// ---------------------------------------------------------------------

#[test]
fn parallel_profile_accounts_for_every_engine_counter() {
    let s = schema();
    let (views, q, extent) = certain_workload(&s, 8);
    let seq_budget = Budget::unlimited();
    let mut seq_out = None;
    let seq = engine_delta(|| {
        seq_out = Some(certain_sound_ctx(&views, &q, &extent, &seq_budget).unwrap());
    });
    let seq_steps = seq_budget.steps();
    // Counters whose parallel total must be *exactly* the sequential
    // one: sharding strides root candidates before any per-candidate
    // accounting, and everything else is either pre-fan-out (chase,
    // index build) or post-merge (the null filter).
    let exact = [
        Metric::ChaseRounds,
        Metric::ChaseTriggersFired,
        Metric::ChaseNullsCreated,
        Metric::HomCandidatesTried,
        Metric::HomPruneHits,
        Metric::CertainTuplesChecked,
        Metric::CertainAnswersKept,
        Metric::IndexBuilds,
        Metric::IndexDeltaTuples,
    ];
    for p in [2usize, 4] {
        let cx = ExecCtx::with_parallelism(Budget::unlimited(), p);
        let mut par_out = None;
        let par = engine_delta(|| {
            par_out = Some(certain_sound_ctx(&views, &q, &extent, &cx).unwrap());
        });
        assert_eq!(par_out, seq_out, "p={p}: answers diverged");
        for m in exact {
            assert_eq!(
                par.get(m),
                seq.get(m),
                "p={p}: {} must be exact under parallelism",
                m.name()
            );
        }
        // Each shard closes its own root candidate stride with one
        // exhaustion mark — the only counter fan-out is allowed to move.
        assert_eq!(
            par.get(Metric::HomBacktracks),
            seq.get(Metric::HomBacktracks) + (p as u64 - 1),
            "p={p}: backtracks may grow only by the per-shard root exhaustion"
        );
        // Budget checkpoints are untouched by the fan-out.
        assert_eq!(cx.budget().steps(), seq_steps, "p={p}: steps diverged");
    }
}

// ---------------------------------------------------------------------
// Wire: requested parallelism is ignored.
// ---------------------------------------------------------------------

#[test]
fn server_ignores_requested_parallelism() {
    let handle = server::spawn(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_depth: 16,
        caps: ServerCaps { engine_threads: 3, ..Default::default() },
    })
    .expect("spawn server");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let request = Request::Certain {
        schema: "E/2".to_owned(),
        views: "V(x,y) :- E(x,y).".to_owned(),
        query: "Q(x,z) :- E(x,y), E(y,z).".to_owned(),
        extent: "V(A,B). V(B,C). V(C,D).".to_owned(),
    };
    let plain = client.call(Limits::none(), request.clone()).expect("plain call");
    let envelope = Envelope::new("par-1", Limits::none(), request).with_parallelism(8);
    let asked = client.call_raw(&envelope.to_json().to_string()).expect("parallelism-8 call");
    assert_eq!(asked.outcome, plain.outcome, "parallelism must not change the answer");
    assert_eq!(
        (plain.work.threads_used, asked.work.threads_used),
        (0, 0),
        "every request runs on one worker thread"
    );
    assert_eq!(asked.work.steps, plain.work.steps, "budget accounting stays exact");
    let _ = handle.shutdown();
}

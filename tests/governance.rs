//! Fault-injection sweep over the resource-governance layer.
//!
//! Every long-running engine takes a [`Budget`]; this harness forces that
//! budget to trip at *every* checkpoint an engine ever reaches and asserts
//! the contract of graceful degradation:
//!
//! 1. no panic and no poisoned lock — the engine returns a structured
//!    [`Exhausted`] outcome;
//! 2. the outcome carries meaningful progress stats (steps completed, a
//!    human-readable partial-progress message);
//! 3. re-running the same call with a larger budget completes and agrees
//!    with the unbudgeted baseline.

use std::sync::Arc;
use vqd::budget::{Budget, ExhaustReason, Exhausted, VqdError};
use vqd::chase::{v_inverse_indexed, CqViews, Tower};
use vqd::core::determinacy::{
    check_exhaustive_ctx, decide_finite_budgeted, decide_unrestricted_budgeted, FiniteVerdict,
    SemanticVerdict,
};
use vqd::exec::{ExecCtx, ExecPool};
use vqd::datalog::{eval_program_budgeted, EvalError, Strategy};
use vqd::eval::{
    apply_views, contained_bounded_budgeted, eval_fo_budgeted, BoundedContainment,
};
use vqd::instance::{DomainNames, Instance, NullGen, Schema};
use vqd::query::{
    cq_to_fo, parse_instance, parse_program, parse_query, Cq, QueryExpr, ViewSet,
};

/// Cap on how many distinct trip points a single sweep exercises; long
/// engines are sampled evenly rather than swept exhaustively.
const MAX_TRIP_POINTS: u64 = 48;

/// Serializes the tests that read or flip the process-global tracing
/// switch: exact-snapshot comparisons must not race a test that enables
/// tracing (which would move the span-event counter under them).
static TRACING_SENSITIVE: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn tracing_sensitive() -> std::sync::MutexGuard<'static, ()> {
    TRACING_SENSITIVE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `op` unbudgeted to learn its checkpoint count and baseline
/// outcome, then injects a fault at (a sample of) every checkpoint.
///
/// `op` must map exhaustion to `Err` and success to a *comparable*
/// summary (`Ok`); nondeterministic details must be projected away by the
/// adapter, not tolerated here.
fn fault_sweep<T, F>(name: &str, op: F)
where
    T: PartialEq + std::fmt::Debug,
    F: Fn(&Budget) -> Result<T, Box<Exhausted>>,
{
    let probe = Budget::unlimited();
    let baseline = match op(&probe) {
        Ok(v) => v,
        Err(e) => panic!("{name}: unlimited run must complete, got {e}"),
    };
    let total = probe.steps();
    assert!(total > 0, "{name}: engine reached no checkpoints — it is ungoverned");

    let stride = total.div_ceil(MAX_TRIP_POINTS).max(1);
    let mut n = 1;
    while n <= total {
        let budget = Budget::unlimited().trip_after(n);
        match op(&budget) {
            Err(e) => {
                assert_eq!(
                    e.reason,
                    ExhaustReason::FaultInjected,
                    "{name}: trip at checkpoint {n}/{total} has the wrong reason"
                );
                assert_eq!(
                    e.work_done.steps,
                    n - 1,
                    "{name}: trip at checkpoint {n}/{total} misreports completed work"
                );
                assert!(
                    !e.partial.is_empty(),
                    "{name}: trip at checkpoint {n}/{total} lost its progress message"
                );
            }
            Ok(v) => panic!(
                "{name}: fault injected at checkpoint {n}/{total} was swallowed: {v:?}"
            ),
        }
        // Graceful recovery: the same call, given room, completes and
        // agrees with the baseline.
        let retry = match op(&Budget::unlimited()) {
            Ok(v) => v,
            Err(e) => panic!("{name}: retry after injected fault failed: {e}"),
        };
        assert_eq!(retry, baseline, "{name}: retry after trip at {n} disagrees");
        n += stride;
    }
}

fn setup(schema: &Schema, views_src: &str, q_src: &str) -> (CqViews, Cq, DomainNames) {
    let mut names = DomainNames::new();
    let prog = parse_program(schema, &mut names, views_src).unwrap();
    let views = CqViews::new(ViewSet::new(schema, prog.defs));
    let q = parse_query(schema, &mut names, q_src)
        .unwrap()
        .as_cq()
        .unwrap()
        .clone();
    (views, q, names)
}

/// A two-shard context on the global engine pool drawing on `budget`
/// (clones share its counters, so the sweep's probe sees every step).
fn two_shards(budget: &Budget) -> ExecCtx {
    ExecCtx::on_pool(budget.clone(), 2, Arc::clone(ExecPool::global()))
}

#[test]
fn semantic_search_survives_faults_at_every_checkpoint() {
    let schema = Schema::new([("E", 2)]);
    let (views, q, _) = setup(&schema, "V(x,y) :- E(x,y).", "Q(x,z) :- E(x,y), E(y,z).");
    let vs = views.as_view_set().clone();
    let q = QueryExpr::Cq(q);
    fault_sweep("check_exhaustive", |b| {
        match check_exhaustive_ctx(&vs, &q, 2, 1 << 22, b) {
            Ok(SemanticVerdict::Exhausted(e)) | Err(VqdError::Exhausted(e)) => Err(e),
            Ok(v) => Ok(format!("{v:?}")),
            Err(e) => panic!("unexpected error kind: {e}"),
        }
    });
}

#[test]
fn parallel_search_survives_faults_without_poisoned_locks() {
    let schema = Schema::new([("E", 2)]);
    // A refutable pair: workers race to a counterexample, so project the
    // outcome down to its discriminant (which counterexample is found can
    // legitimately vary between runs).
    let (views, q, _) = setup(
        &schema,
        "V(x,y) :- E(x,z), E(z,y).",
        "Q(x,y) :- E(x,a), E(a,b), E(b,y).",
    );
    let vs = views.as_view_set().clone();
    let q = QueryExpr::Cq(q);
    fault_sweep("check_exhaustive (2 shards)", |b| {
        match check_exhaustive_ctx(&vs, &q, 2, 1 << 22, &two_shards(b)) {
            Ok(SemanticVerdict::Exhausted(e)) | Err(VqdError::Exhausted(e)) => Err(e),
            Ok(SemanticVerdict::NotDetermined(_)) => Ok("NotDetermined"),
            Ok(SemanticVerdict::NoCounterexampleUpTo(_)) => Ok("NoCounterexample"),
            Ok(SemanticVerdict::TooLarge { .. }) => Ok("TooLarge"),
            Err(e) => panic!("unexpected error kind: {e}"),
        }
    });
}

#[test]
fn chase_decision_survives_faults_at_every_checkpoint() {
    let schema = Schema::new([("E", 2)]);
    let (views, q, _) = setup(&schema, "V(x,y) :- E(x,y).", "Q(x,z) :- E(x,y), E(y,z).");
    fault_sweep("decide_unrestricted", |b| {
        match decide_unrestricted_budgeted(&views, &q, b) {
            Ok(out) => Ok((out.determined, out.rewriting.is_some())),
            Err(VqdError::Exhausted(e)) => Err(e),
            Err(e) => panic!("unexpected error kind: {e}"),
        }
    });
}

/// The router's project-select fast path is an engine like any other:
/// it must reach checkpoints (be governed), trip with exact work stats
/// at every one of them, and recover to the baseline verdict. The pair
/// is pinned to the project-select fragment, so `decide_unrestricted`
/// is exercising the direct procedure here, not the chase.
#[test]
fn fast_path_decision_survives_faults_at_every_checkpoint() {
    use vqd::router::{classify, Fragment};

    let schema = Schema::new([("E", 2), ("P", 1)]);
    let (views, q, _) = setup(
        &schema,
        "V(x,y) :- E(x,y). W(x) :- P(x).",
        "Q(y,x) :- E(x,y).",
    );
    assert_eq!(classify(&views, &q), Fragment::ProjectSelect);
    fault_sweep("decide_unrestricted(fast path)", |b| {
        match decide_unrestricted_budgeted(&views, &q, b) {
            Ok(out) => {
                assert!(out.fast_path, "project-select pair must take the fast path");
                Ok((out.determined, out.rewriting.map(|r| r.render("R"))))
            }
            Err(VqdError::Exhausted(e)) => Err(e),
            Err(e) => panic!("unexpected error kind: {e}"),
        }
    });
}

/// Outside both decidable fragments the router can only run the
/// budgeted semi-decision; under a starved budget that route must
/// degrade to `Exhausted` with exact completed-work stats (the sweep
/// asserts `steps == n - 1` at every trip point), never a panic or a
/// silent wrong verdict.
#[test]
fn general_route_survives_faults_and_reports_exact_work() {
    use vqd::router::{classify, Fragment};

    let schema = Schema::new([("E", 2), ("P", 1)]);
    let (views, q, _) = setup(
        &schema,
        "V(x,z) :- E(x,y), E(y,z), P(y).",
        "Q(x,z) :- E(x,y), E(y,z), P(y).",
    );
    assert_eq!(classify(&views, &q), Fragment::General);
    fault_sweep("decide_unrestricted(general route)", |b| {
        match decide_unrestricted_budgeted(&views, &q, b) {
            Ok(out) => {
                assert!(!out.fast_path, "general pair must not take the fast path");
                Ok((out.determined, out.rewriting.map(|r| r.render("R"))))
            }
            Err(VqdError::Exhausted(e)) => Err(e),
            Err(e) => panic!("unexpected error kind: {e}"),
        }
    });
}

#[test]
fn finite_decision_survives_faults_at_every_checkpoint() {
    let schema = Schema::new([("E", 2)]);
    let (views, q, _) = setup(
        &schema,
        "V1(x) :- E(x,y), E(y,x).",
        "Q(x) :- E(x,y), E(y,x), E(x,x).",
    );
    fault_sweep("decide_finite", |b| {
        match decide_finite_budgeted(&views, &q, 2, 1 << 22, b) {
            Ok(FiniteVerdict::Exhausted(e)) => Err(e),
            Ok(v) => Ok(format!("{v:?}")),
            Err(VqdError::Exhausted(e)) => Err(e),
            Err(e) => panic!("unexpected error kind: {e}"),
        }
    });
}

#[test]
fn tower_survives_faults_and_never_goes_ragged() {
    let schema = Schema::new([("E", 2)]);
    let (views, q, _) = setup(
        &schema,
        "V(x,y) :- E(x,z), E(z,y).",
        "Q(x,y) :- E(x,a), E(a,b), E(b,y).",
    );
    fault_sweep("tower", |b| {
        let mut t = match Tower::try_new(&views, &q, b) {
            Ok(t) => t,
            Err(VqdError::Exhausted(e)) => return Err(e),
            Err(e) => panic!("unexpected error kind: {e}"),
        };
        match t.try_grow_to(&views, 3, b) {
            Ok(()) => Ok(t.levels()),
            Err(VqdError::Exhausted(e)) => {
                // The all-or-nothing step contract: whatever the trip
                // point, every materialized level is complete.
                assert!(t.levels() >= 1, "base level must survive");
                Err(e)
            }
            Err(e) => panic!("unexpected error kind: {e}"),
        }
    });
}

#[test]
fn view_inverse_survives_faults_at_every_checkpoint() {
    let schema = Schema::new([("E", 2)]);
    let mut names = DomainNames::new();
    let prog = parse_program(&schema, &mut names, "V(x,y) :- E(x,z), E(z,y).").unwrap();
    let views = CqViews::new(ViewSet::new(&schema, prog.defs));
    let d = parse_instance(
        &schema,
        &mut names,
        "E(A,B). E(B,C). E(C,D). E(D,A).",
    )
    .unwrap();
    let image = apply_views(views.as_view_set(), &d);
    let base = Instance::empty(&schema);
    fault_sweep("v_inverse", |b| {
        let mut nulls = NullGen::new();
        match v_inverse_indexed(&views, &base, &image, &mut nulls, b) {
            Ok(inst) => Ok(inst.instance().total_tuples()),
            Err(VqdError::Exhausted(e)) => Err(e),
            Err(e) => panic!("unexpected error kind: {e}"),
        }
    });
}

#[test]
fn datalog_engine_survives_faults_with_sound_partial_results() {
    let schema = Schema::new([("E", 2), ("T", 2)]);
    let mut names = DomainNames::new();
    let prog = vqd::datalog::Program::parse(
        &schema,
        &mut names,
        "T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).",
    )
    .unwrap();
    let edb = parse_instance(
        &schema,
        &mut names,
        "E(A,B). E(B,C). E(C,D). E(D,F).",
    )
    .unwrap();
    for strategy in [Strategy::Naive, Strategy::SemiNaive] {
        // Baseline fixpoint, for the soundness assertion below.
        let full = eval_program_budgeted(&prog, &edb, strategy, &Budget::unlimited())
            .expect("unlimited evaluation completes");
        fault_sweep(&format!("eval_program({strategy:?})"), |b| {
            match eval_program_budgeted(&prog, &edb, strategy, b) {
                Ok(db) => Ok(db.total_tuples()),
                Err(EvalError::Exhausted { partial, info }) => {
                    // Graceful degradation: the partial database is a
                    // sound under-approximation of the fixpoint.
                    assert!(
                        partial.is_subinstance_of(&full),
                        "partial result contains facts outside the fixpoint"
                    );
                    Err(info)
                }
                Err(e) => panic!("unexpected error kind: {e}"),
            }
        });
    }
}

#[test]
fn fo_evaluation_survives_faults_at_every_checkpoint() {
    let schema = Schema::new([("E", 2)]);
    let mut names = DomainNames::new();
    let q = parse_query(&schema, &mut names, "Q(x,z) :- E(x,y), E(y,z).")
        .unwrap()
        .as_cq()
        .unwrap()
        .clone();
    let fo = cq_to_fo(&q);
    let d = parse_instance(&schema, &mut names, "E(A,B). E(B,C). E(C,A).").unwrap();
    fault_sweep("eval_fo", |b| {
        eval_fo_budgeted(&fo, &d, b).map(|rel| rel.len())
    });
}

#[test]
fn containment_survives_faults_at_every_checkpoint() {
    let schema = Schema::new([("E", 2)]);
    let mut names = DomainNames::new();
    let q1 = parse_query(&schema, &mut names, "Q(x,z) :- E(x,y), E(y,z), E(x,x).")
        .unwrap()
        .as_cq()
        .unwrap()
        .clone();
    let q2 = parse_query(&schema, &mut names, "Q(x,z) :- E(x,y), E(y,z).")
        .unwrap()
        .as_cq()
        .unwrap()
        .clone();
    fault_sweep("contained_bounded_budgeted", |b| {
        match contained_bounded_budgeted(&q1, &q2, 2, 1 << 22, b) {
            BoundedContainment::Exhausted(e) => Err(e),
            v => Ok(format!("{v:?}")),
        }
    });
}

/// The cooperative cancel token stops the parallel scan promptly and the
/// machinery stays usable afterwards (no poisoned lock, no wedged state).
#[test]
fn cancellation_is_cooperative_and_recoverable() {
    let schema = Schema::new([("E", 2)]);
    let (views, q, _) = setup(&schema, "V(x,y) :- E(x,y).", "Q(x,z) :- E(x,y), E(y,z).");
    let vs = views.as_view_set().clone();
    let q = QueryExpr::Cq(q);

    let budget = Budget::unlimited();
    budget.cancel_token().cancel();
    match check_exhaustive_ctx(&vs, &q, 2, 1 << 22, &two_shards(&budget)) {
        Ok(SemanticVerdict::Exhausted(e)) => {
            assert_eq!(e.reason, ExhaustReason::Canceled);
        }
        other => panic!("cancelled scan must report exhaustion, got {other:?}"),
    }

    // A fresh budget on the same inputs completes normally.
    match check_exhaustive_ctx(&vs, &q, 2, 1 << 22, &two_shards(&Budget::unlimited())) {
        Ok(SemanticVerdict::NoCounterexampleUpTo(2)) => {}
        other => panic!("recovery run failed: {other:?}"),
    }
}

/// The incremental index maintenance policy must be invisible to
/// governance: tripping the budget at every checkpoint of a semi-naive
/// saturation yields the same completed-step counts and the same partial
/// database as the rebuild-per-round baseline (the pre-refactor cost
/// model), while the index-build counters confirm the two policies do
/// genuinely different index work.
#[test]
fn index_maintenance_policy_does_not_change_governance_semantics() {
    use vqd::datalog::eval_program_with;
    use vqd::instance::{index_stats, IndexMaintenance};

    let schema = Schema::new([("E", 2), ("T", 2)]);
    let mut names = DomainNames::new();
    let prog = vqd::datalog::Program::parse(
        &schema,
        &mut names,
        "T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).",
    )
    .unwrap();
    let edb = parse_instance(
        &schema,
        &mut names,
        "E(A,B). E(B,C). E(C,D). E(D,F). E(F,G).",
    )
    .unwrap();
    let run = |m: IndexMaintenance, b: &Budget| {
        eval_program_with(&prog, &edb, Strategy::SemiNaive, m, b)
    };

    // Unbudgeted baselines: same fixpoint, different index work. The
    // incremental engine builds its index exactly once for the whole
    // multi-round saturation; the rebuild baseline rebuilds every round.
    let before = index_stats();
    let full_inc = run(IndexMaintenance::Incremental, &Budget::unlimited()).unwrap();
    let mid = index_stats();
    let full_reb = run(IndexMaintenance::Rebuild, &Budget::unlimited()).unwrap();
    let after = index_stats();
    assert_eq!(full_inc, full_reb, "the two policies must reach the same fixpoint");
    assert_eq!(
        mid.builds - before.builds,
        1,
        "incremental saturation must build its index exactly once"
    );
    assert!(
        after.builds - mid.builds > 1,
        "rebuild baseline must rebuild at least once per round"
    );
    assert!(
        mid.delta_tuples - before.delta_tuples > 0,
        "incremental saturation must index its deltas in place"
    );

    // Learn the checkpoint count, then trip both engines at every point.
    let probe = Budget::unlimited();
    run(IndexMaintenance::Incremental, &probe).unwrap();
    let total = probe.steps();
    assert!(total > 0, "saturation reached no checkpoints — it is ungoverned");
    for n in 1..=total {
        let inc = run(IndexMaintenance::Incremental, &Budget::unlimited().trip_after(n));
        let reb = run(IndexMaintenance::Rebuild, &Budget::unlimited().trip_after(n));
        match (inc, reb) {
            (
                Err(EvalError::Exhausted { partial: p1, info: i1 }),
                Err(EvalError::Exhausted { partial: p2, info: i2 }),
            ) => {
                assert_eq!(i1.reason, ExhaustReason::FaultInjected);
                assert_eq!(
                    i1.work_done.steps,
                    n - 1,
                    "trip at checkpoint {n}/{total} misreports completed work"
                );
                assert_eq!(
                    i1.work_done.steps, i2.work_done.steps,
                    "policies disagree on work done at trip {n}/{total}"
                );
                assert_eq!(
                    i1.work_done.tuples, i2.work_done.tuples,
                    "policies disagree on tuples charged at trip {n}/{total}"
                );
                assert_eq!(p1, p2, "partial databases diverge at trip {n}/{total}");
                assert!(
                    p1.is_subinstance_of(&full_inc),
                    "partial at trip {n}/{total} contains facts outside the fixpoint"
                );
            }
            (inc, reb) => panic!(
                "trip at {n}/{total}: both policies must exhaust, got {inc:?} / {reb:?}"
            ),
        }
    }
}

/// Engine counters must be *exact* under governance, not best-effort:
/// a budget trip mid-chase or mid-fixpoint leaves the thread-local
/// counters reflecting precisely the work done before the trip (never
/// more than the full run), and a clean retry reproduces the baseline
/// counts bit-for-bit. Counters are thread-local, so concurrent tests in
/// this binary cannot interfere.
#[test]
fn engine_counters_stay_exact_across_budget_trips() {
    use vqd::obs::{Metric, MetricsSnapshot};

    let _guard = tracing_sensitive();
    let schema = Schema::new([("E", 2)]);
    let mut names = DomainNames::new();
    let prog = parse_program(&schema, &mut names, "V(x,y) :- E(x,z), E(z,y).").unwrap();
    let views = CqViews::new(ViewSet::new(&schema, prog.defs));
    let d = parse_instance(&schema, &mut names, "E(A,B). E(B,C). E(C,D). E(D,A).").unwrap();
    let image = apply_views(views.as_view_set(), &d);
    let base = Instance::empty(&schema);
    let chase = |b: &Budget| {
        let mut nulls = NullGen::new();
        v_inverse_indexed(&views, &base, &image, &mut nulls, b)
    };
    let measure = |b: &Budget| {
        let before = MetricsSnapshot::capture();
        let out = chase(b);
        (MetricsSnapshot::capture().diff(&before), out)
    };

    let (baseline, out) = measure(&Budget::unlimited());
    out.expect("unlimited chase completes");
    assert!(baseline.get(Metric::ChaseRounds) > 0, "chase rounds must be counted");
    assert!(baseline.get(Metric::ChaseTriggersFired) > 0, "triggers must be counted");
    assert!(baseline.get(Metric::ChaseNullsCreated) > 0, "invented nulls must be counted");

    let probe = Budget::unlimited();
    chase(&probe).expect("probe completes");
    let total = probe.steps();
    for n in 1..=total {
        let (tripped, out) = measure(&Budget::unlimited().trip_after(n));
        assert!(out.is_err(), "trip at {n}/{total} must exhaust");
        for m in [Metric::ChaseRounds, Metric::ChaseTriggersFired, Metric::ChaseNullsCreated]
        {
            assert!(
                tripped.get(m) <= baseline.get(m),
                "trip at {n}/{total}: {} overshot the full run ({} > {})",
                m.name(),
                tripped.get(m),
                baseline.get(m)
            );
        }
        let (retry, out) = measure(&Budget::unlimited());
        out.expect("retry completes");
        assert_eq!(retry, baseline, "retry after trip at {n}/{total} disagrees");
    }

    // Same contract for the Datalog fixpoint counters.
    let schema = Schema::new([("E", 2), ("T", 2)]);
    let mut names = DomainNames::new();
    let prog = vqd::datalog::Program::parse(
        &schema,
        &mut names,
        "T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).",
    )
    .unwrap();
    let edb = parse_instance(&schema, &mut names, "E(A,B). E(B,C). E(C,D).").unwrap();
    let saturate =
        |b: &Budget| eval_program_budgeted(&prog, &edb, Strategy::SemiNaive, b);
    let measure = |b: &Budget| {
        let before = MetricsSnapshot::capture();
        let out = saturate(b);
        (MetricsSnapshot::capture().diff(&before), out)
    };
    let (baseline, out) = measure(&Budget::unlimited());
    out.expect("unlimited saturation completes");
    assert!(baseline.get(Metric::FixpointRounds) > 0);
    assert!(baseline.get(Metric::FixpointDeltaTuples) > 0);
    let probe = Budget::unlimited();
    saturate(&probe).unwrap();
    let total = probe.steps();
    for n in 1..=total {
        let (tripped, out) = measure(&Budget::unlimited().trip_after(n));
        assert!(out.is_err(), "trip at {n}/{total} must exhaust");
        assert!(tripped.get(Metric::FixpointDeltaTuples) <= baseline.get(Metric::FixpointDeltaTuples));
        let (retry, out) = measure(&Budget::unlimited());
        out.expect("retry completes");
        assert_eq!(retry, baseline, "retry after fixpoint trip at {n}/{total} disagrees");
    }
}

/// With tracing enabled, the Drop-based span guards must close every
/// span even when a budget trip unwinds the engine mid-round: after any
/// run the thread's span depth is back to zero and the drained events
/// are well-formed (known names, depth 0 roots, no dropped events).
#[test]
fn spans_close_cleanly_when_budgets_trip_mid_engine() {
    use vqd::obs;

    let _guard = tracing_sensitive();
    let schema = Schema::new([("E", 2)]);
    let mut names = DomainNames::new();
    let prog = parse_program(&schema, &mut names, "V(x,y) :- E(x,z), E(z,y).").unwrap();
    let views = CqViews::new(ViewSet::new(&schema, prog.defs));
    let d = parse_instance(&schema, &mut names, "E(A,B). E(B,C). E(C,D).").unwrap();
    let image = apply_views(views.as_view_set(), &d);
    let base = Instance::empty(&schema);

    let dl_schema = Schema::new([("E", 2), ("T", 2)]);
    let mut dl_names = DomainNames::new();
    let dl_prog = vqd::datalog::Program::parse(
        &dl_schema,
        &mut dl_names,
        "T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).",
    )
    .unwrap();
    let edb = parse_instance(&dl_schema, &mut dl_names, "E(A,B). E(B,C). E(C,D).").unwrap();

    // Tracing is process-global; flip it on only for the scope of this
    // test (other tests in this binary don't read the span ring).
    obs::set_tracing(true);
    let _ = obs::drain_spans();
    for trip in [1u64, 2, 3, 5, 8] {
        let mut nulls = NullGen::new();
        let _ = v_inverse_indexed(
            &views,
            &base,
            &image,
            &mut nulls,
            &Budget::unlimited().trip_after(trip),
        );
        assert_eq!(
            obs::current_depth(),
            0,
            "chase trip at {trip} left an open span on this thread"
        );
        let _ = eval_program_budgeted(
            &dl_prog,
            &edb,
            Strategy::SemiNaive,
            &Budget::unlimited().trip_after(trip),
        );
        assert_eq!(
            obs::current_depth(),
            0,
            "fixpoint trip at {trip} left an open span on this thread"
        );
    }
    // One clean run of each so the ring holds completed rounds too.
    let mut nulls = NullGen::new();
    v_inverse_indexed(&views, &base, &image, &mut nulls, &Budget::unlimited()).unwrap();
    eval_program_budgeted(&dl_prog, &edb, Strategy::SemiNaive, &Budget::unlimited()).unwrap();
    let events = obs::drain_spans();
    obs::set_tracing(false);

    assert!(!events.is_empty(), "traced runs must record span events");
    assert_eq!(obs::dropped_spans(), 0, "the ring must not have overflowed here");
    for e in &events {
        assert!(
            e.name == "chase.round" || e.name == "fixpoint.round",
            "unexpected span name {}",
            e.name
        );
        assert_eq!(e.depth, 0, "round spans are roots");
    }
    // The JSONL export is one object per line, parseable by our own
    // JSON parser.
    let jsonl = obs::spans_to_jsonl(&events);
    assert_eq!(jsonl.lines().count(), events.len());
    for line in jsonl.lines() {
        serde::json::parse(line).expect("span JSONL lines parse");
    }
}

//! Certain answers (related-work setting \[1\]).
//!
//! When **V** does *not* determine `Q`, the standard fallback is the
//! certain answer: `cert_Q(E) = ∩ { Q(D) | V(D) = E }`. The paper notes
//! that any language complete for rewriting certain answers is also
//! complete in its (exact-view, equivalent-rewriting) sense, so the lower
//! bounds transfer. We implement both classical flavours:
//!
//! * **sound views** (`V(D) ⊇ E`): for CQ views and queries, the certain
//!   answers are the null-free tuples of `Q` evaluated on the chased
//!   extent `V_∅^{-1}(E)` — polynomial time;
//! * **exact views** (`V(D) = E`): intersection over all bounded
//!   preimages (coNP-flavoured by nature; exponential search by design).
//!
//! When `V ↠ Q` and `E = V(D)`, both notions collapse to `Q(D)` — the
//! E14 experiment checks that collapse.
//!
//! For constant-free CQ views whose heads repeat no variable and a
//! constant-free CQ query, a [`CertainPlan`] gives the sound-view
//! certain answers without the chase: the maximally-contained UCQ
//! rewriting, evaluated directly over the extent (Abiteboul–Duschka;
//! Pottinger–Halevy). It is compiled once per `(views, query)` and
//! reused for every extent.

use crate::answering::for_each_preimage;
use crate::minicon::{check_pair, contained_rewritings_within, MiniconBounds, Stop, Unsupported};
use vqd_budget::{Budget, Exhausted, VqdError};
use vqd_chase::{v_inverse_indexed, CqViews};
use vqd_eval::{cq_contained, eval_cq_rows, eval_query, EvalInput};
use vqd_exec::ExecInput;
use vqd_instance::{IndexedInstance, Instance, NullGen, Relation};
use vqd_query::{Atom, Cq, CqLang, QueryExpr, Term, ViewSet};

/// Certain answers under the *sound view* assumption, for CQ views and a
/// CQ query: evaluate `Q` on the canonical database `V_∅^{-1}(E)` and
/// keep the null-free tuples.
///
/// # Panics
/// Panics unless `q` is a plain CQ (the chase argument needs
/// monotonicity and freeness from built-ins).
pub fn certain_sound(views: &CqViews, q: &Cq, extent: &Instance) -> Relation {
    match certain_sound_ctx(views, q, extent, &vqd_budget::Budget::unlimited()) {
        Ok(r) => r,
        Err(e) => panic!("certain_sound: {e}"),
    }
}

/// Fallible [`certain_sound`] under an execution context: the chase
/// draws on the context's budget, a non-CQ query is a structured
/// [`VqdError`] instead of a panic, and a parallel
/// [`ExecCtx`](vqd_exec::ExecCtx) fans the homomorphism search of the
/// final evaluation out across the engine pool (per root candidate),
/// byte-identically to sequential. Pass a bare [`Budget`] for the
/// sequential behaviour.
pub fn certain_sound_ctx(
    views: &CqViews,
    q: &Cq,
    extent: &Instance,
    cx: &impl ExecInput,
) -> Result<Relation, VqdError> {
    require_plain_cq(q)?; // reject before paying for the chase
    let chased = canonical_database_budgeted(views, extent, cx)?;
    certain_from_canonical(q, &chased, cx)
}

fn require_plain_cq(q: &Cq) -> Result<(), VqdError> {
    if q.language() != CqLang::Cq {
        return Err(VqdError::InvalidInput {
            context: "certain_sound",
            message: "requires a plain CQ query (no =, ≠, ¬)".to_owned(),
        });
    }
    Ok(())
}

/// Chases the extent to the canonical database `V_∅^{-1}(E)`, returning
/// the chase's maintained index.
///
/// Split out of [`certain_sound_ctx`] so a caller serving many
/// queries against one extent (the server's cross-request cache) can pay
/// the chase once, share the index, and run [`certain_from_canonical`]
/// per query with zero further index builds. Nulls are drawn from a
/// fresh [`NullGen`], so the result depends only on `(views, extent)` —
/// the same canonical database answers every query.
pub fn canonical_database_budgeted(
    views: &CqViews,
    extent: &Instance,
    cx: &impl ExecInput,
) -> Result<IndexedInstance, VqdError> {
    let mut nulls = NullGen::new();
    let empty = Instance::empty(views.as_view_set().input_schema());
    v_inverse_indexed(views, &empty, extent, &mut nulls, cx.budget())
}

/// Evaluates `q` over a canonical database from
/// [`canonical_database_budgeted`] and keeps the null-free tuples — the
/// second half of [`certain_sound_ctx`]. Pass the chased index (or a
/// shared `Arc` of it) to evaluate with no further index builds.
///
/// This is the hot path intra-request parallelism targets: under a
/// parallel [`ExecCtx`](vqd_exec::ExecCtx) the homomorphism space is
/// strided per root candidate across the engine pool and the shard rows
/// merge canonically, so the evaluated rows — and therefore the
/// filtered certain answers, which are computed in one sequential pass
/// so the budget's step count stays exactly the sequential one — are
/// byte-identical.
pub fn certain_from_canonical<I: EvalInput + ?Sized>(
    q: &Cq,
    chased: &I,
    cx: &impl ExecInput,
) -> Result<Relation, VqdError> {
    require_plain_cq(q)?;
    let budget = cx.budget();
    let evaluated = eval_cq_rows(q, chased, cx)?;
    // The evaluated rows come out distinct and sorted, so the kept ones
    // form a sorted run and the output relation is built once from it.
    let mut kept = Vec::new();
    for t in evaluated.iter() {
        budget.checkpoint_with(&format_args!(
            "filtering certain answers: {} kept so far",
            kept.len()
        ))?;
        vqd_obs::count(vqd_obs::Metric::CertainTuplesChecked, 1);
        if t.iter().all(|v| v.is_named()) {
            vqd_obs::count(vqd_obs::Metric::CertainAnswersKept, 1);
            kept.push(t.to_vec());
        }
    }
    Ok(Relation::from_tuples(q.arity(), kept))
}

/// The size bounds a [`CertainPlan`] compiles under; a pair past one
/// takes the chase route ([`PlanFallback::SizeBound`]). DESIGN.md §22
/// records the worst compile time measured at these bounds.
pub(crate) const PLAN_BOUNDS: MiniconBounds = MiniconBounds {
    query_atoms: 8,
    view_atoms: 12,
    mcds: 32,
    combinations: 32,
    search_steps: 10_000,
};

/// Why a `(views, query)` pair has no [`CertainPlan`] and takes the
/// chase route ([`certain_sound_ctx`]) instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanFallback {
    /// The query is not a plain, safe CQ with a non-empty body.
    NotPlainCq,
    /// The query or a view mentions a constant.
    Constant,
    /// A view head repeats a variable (or a constant), so an extent
    /// tuple may be one the view cannot produce; only the chase reports
    /// that as invalid input.
    RepeatedHeadVariable,
    /// The pair or its MiniCon search is past the plan's size bounds
    /// (DESIGN.md §22).
    SizeBound,
}

impl PlanFallback {
    /// Stable snake_case name of the reason.
    pub fn tag(self) -> &'static str {
        match self {
            PlanFallback::NotPlainCq => "not_plain_cq",
            PlanFallback::Constant => "constant",
            PlanFallback::RepeatedHeadVariable => "repeated_head_variable",
            PlanFallback::SizeBound => "size_bound",
        }
    }
}

impl From<Unsupported> for PlanFallback {
    fn from(e: Unsupported) -> PlanFallback {
        match e {
            Unsupported::NotPlainCq => PlanFallback::NotPlainCq,
            Unsupported::Constant => PlanFallback::Constant,
            Unsupported::TooLarge => PlanFallback::SizeBound,
        }
    }
}

/// A prepared certain-answer plan: the maximally-contained rewriting of
/// a query over a view set, each disjunct minimized and every disjunct
/// contained in another dropped.
///
/// Under sound views, `plan(E)` is exactly the certain answers
/// [`certain_sound_ctx`] computes by chasing `E`: both equal
/// `∩ { Q(D) | V(D) ⊇ E }`. The plan reads only view relations, so its
/// rows are null-free by construction and no certain filter runs. It
/// depends only on `(views, query)`, so one plan serves every extent.
#[derive(Clone, Debug)]
pub struct CertainPlan {
    disjuncts: Vec<Cq>,
    arity: usize,
}

impl CertainPlan {
    /// The cheap part of [`CertainPlan::compile`]: whether the pair is in
    /// the plan's scope and within its shape bounds, without running the
    /// MiniCon search. A pair this rejects, `compile` rejects for the
    /// same reason; a pair it accepts may still fall back with
    /// [`PlanFallback::SizeBound`] when the search grows past a bound.
    pub fn check(views: &CqViews, q: &Cq) -> Result<(), PlanFallback> {
        let repeats_head_term =
            |v: &Cq| v.head.iter().enumerate().any(|(i, t)| v.head[..i].contains(t));
        if (0..views.len()).any(|i| repeats_head_term(views.cq(i))) {
            return Err(PlanFallback::RepeatedHeadVariable);
        }
        Ok(check_pair(views, q, &PLAN_BOUNDS)?)
    }

    /// Compiles the plan, or says why the pair takes the chase route.
    /// Never panics: every input outside the plan's scope is a
    /// [`PlanFallback`].
    pub fn compile(views: &CqViews, q: &Cq) -> Result<CertainPlan, PlanFallback> {
        // An unlimited budget has no deadline and is never canceled.
        CertainPlan::compile_budgeted(views, q, &Budget::unlimited())
            .unwrap_or(Err(PlanFallback::SizeBound))
    }

    /// [`CertainPlan::compile`] on behalf of a request. The MiniCon
    /// search checkpoints a side budget of `budget`
    /// ([`Budget::side_budget`]) that allows the plan's
    /// `search_steps` bound and observes `budget`'s deadline and cancel
    /// token, but not its step or tuple limits or its fault-injection
    /// point; none of its checkpoints count against `budget`.
    ///
    /// The inner result is the pair's plan or its fallback, and depends
    /// on the pair alone. The outer `Err` is the deadline passing or a
    /// cancel mid-search: it says nothing about the pair, so a caller
    /// takes the chase for this one request and keeps nothing.
    pub fn compile_budgeted(
        views: &CqViews,
        q: &Cq,
        budget: &Budget,
    ) -> Result<Result<CertainPlan, PlanFallback>, Exhausted> {
        if let Err(why) = CertainPlan::check(views, q) {
            return Ok(Err(why));
        }
        let rewritings = match contained_rewritings_within(views, q, &PLAN_BOUNDS, budget) {
            Ok(rewritings) => rewritings,
            Err(Stop::Unsupported(e)) => return Ok(Err(e.into())),
            Err(Stop::Exhausted(e)) => return Err(e),
        };
        // Keep only maximal disjuncts: one contained in a kept disjunct
        // adds no answers.
        let mut disjuncts: Vec<Cq> = Vec::new();
        for r in rewritings {
            budget.poll(&"dropping contained plan disjuncts")?;
            if disjuncts.iter().any(|kept| cq_contained(&r, kept)) {
                continue;
            }
            disjuncts.retain(|kept| !cq_contained(kept, &r));
            disjuncts.push(r);
        }
        // Evaluation never reads variable names, and keeping them would
        // make the plan's bytes grow with the query's source text; a
        // disjunct without them renders its variables as `v{n}`.
        for d in &mut disjuncts {
            d.var_names = Vec::new();
        }
        Ok(Ok(CertainPlan { disjuncts, arity: q.arity() }))
    }

    /// The plan's disjuncts, over the views' output schema, without
    /// variable names. Empty when the query has no contained rewriting:
    /// no answer is ever certain.
    pub fn disjuncts(&self) -> &[Cq] {
        &self.disjuncts
    }

    /// Approximate bytes held, for cache accounting: each disjunct's
    /// head and atoms at `size_of` cost, ignoring allocator slack, like
    /// `IndexedInstance::approx_bytes`. It depends only on the plan's
    /// shape, never on the query's variable names.
    pub fn approx_bytes(&self) -> u64 {
        use std::mem::size_of;
        let terms = |n: usize| n * size_of::<Term>();
        let disjunct = |d: &Cq| {
            size_of::<Cq>()
                + terms(d.head.len())
                + d.atoms.iter().map(|a| size_of::<Atom>() + terms(a.args.len())).sum::<usize>()
        };
        (size_of::<Self>() + self.disjuncts.iter().map(disjunct).sum::<usize>()) as u64
    }

    /// Evaluates the plan over a view extent: the certain answers.
    ///
    /// Each disjunct runs through [`eval_cq_rows`] under `cx`, so a
    /// parallel [`ExecCtx`](vqd_exec::ExecCtx) fans it out exactly as
    /// it fans out [`certain_from_canonical`]. A plan with no disjuncts
    /// evaluates nothing and so fans nothing out: the context's
    /// `threads_used` stays 0. Every answer row is one budget
    /// checkpoint. Pass the extent's index (or a shared `Arc` of
    /// it) to evaluate with no index build. A traced run records one
    /// `certain.plan.eval` span with its budget-step delta.
    pub fn eval<I: EvalInput + ?Sized>(
        &self,
        extent: &I,
        cx: &impl ExecInput,
    ) -> Result<Relation, VqdError> {
        let budget = cx.budget();
        let mut span = vqd_obs::span_at("certain.plan.eval", budget.steps());
        let index = extent.index();
        let mut answers = Vec::new();
        for (i, d) in self.disjuncts.iter().enumerate() {
            for t in eval_cq_rows(d, &*index, cx)?.iter() {
                budget.checkpoint_with(&format_args!(
                    "evaluating the certain-answer plan: disjunct {} of {}, {} answers so far",
                    i + 1,
                    self.disjuncts.len(),
                    answers.len()
                ))?;
                answers.push(t.to_vec());
            }
        }
        span.finish_steps(budget.steps());
        Ok(Relation::from_tuples(self.arity, answers))
    }
}

/// Result of the exact-view certain-answer computation.
#[derive(Clone, Debug)]
pub struct ExactCertain {
    /// `∩ { Q(D) | V(D) = E }` over the searched space.
    pub certain: Relation,
    /// `∪ { Q(D) | V(D) = E }` (the *possible* answers) over the space.
    pub possible: Relation,
    /// Number of preimages inspected.
    pub preimages: usize,
}

/// Certain (and possible) answers under the *exact view* assumption,
/// intersecting `Q` over every preimage in the bounded search space
/// (values of `adom(E)` plus `extra_fresh` padding constants).
///
/// Returns `None` when no preimage exists in the space.
pub fn certain_exact_bounded(
    views: &ViewSet,
    q: &QueryExpr,
    extent: &Instance,
    extra_fresh: usize,
    limit: u128,
) -> Option<ExactCertain> {
    let mut acc: Option<(Relation, Relation)> = None;
    let mut count = 0usize;
    for_each_preimage::<()>(views, extent, extra_fresh, limit, |d| {
        let out = eval_query(q, d);
        count += 1;
        acc = Some(match acc.take() {
            None => (out.clone(), out),
            Some((cert, mut poss)) => {
                poss.union_with(&out);
                (cert.intersection(&out), poss)
            }
        });
        None
    });
    acc.map(|(certain, possible)| ExactCertain { certain, possible, preimages: count })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqd_eval::apply_views;
    use vqd_instance::{named, DomainNames, Schema};
    use vqd_query::{parse_program, parse_query, ViewSet};

    fn schema() -> Schema {
        Schema::new([("E", 2)])
    }

    fn setup(view_src: &str) -> (ViewSet, CqViews) {
        let s = schema();
        let mut names = DomainNames::new();
        let prog = parse_program(&s, &mut names, view_src).unwrap();
        let vs = ViewSet::new(&s, prog.defs);
        (vs.clone(), CqViews::new(vs))
    }

    fn cq(src: &str) -> Cq {
        let mut names = DomainNames::new();
        parse_query(&schema(), &mut names, src).unwrap().as_cq().unwrap().clone()
    }

    #[test]
    fn sound_certain_answers_on_projection_views() {
        // Views expose only sources; the certain answers of the edge
        // query are empty (every edge target is a null in the chase).
        let (_, v) = setup("V(x) :- E(x,y).");
        let q = cq("Q(x,y) :- E(x,y).");
        let mut extent = Instance::empty(v.as_view_set().output_schema());
        extent.insert_named("V", vec![named(0)]);
        let cert = certain_sound(&v, &q, &extent);
        assert!(cert.is_empty());
        // But the Boolean "has an edge" query is certain.
        let b = cq("Q() :- E(x,y).");
        assert!(certain_sound(&v, &b, &extent).truth());
    }

    #[test]
    fn sound_certain_answers_identity_views() {
        let (_, v) = setup("V(x,y) :- E(x,y).");
        let q = cq("Q(x,z) :- E(x,y), E(y,z).");
        let mut extent = Instance::empty(v.as_view_set().output_schema());
        extent.insert_named("V", vec![named(0), named(1)]);
        extent.insert_named("V", vec![named(1), named(2)]);
        let cert = certain_sound(&v, &q, &extent);
        assert!(cert.contains(&[named(0), named(2)]));
        assert_eq!(cert.len(), 1);
    }

    #[test]
    fn exact_certain_vs_possible_gap() {
        // Projection views: the 2-path query has possible answers but no
        // certain ones on a 2-source extent.
        let (vs, _) = setup("V1(x) :- E(x,y).\nV2(y) :- E(x,y).");
        let q = parse_query(&schema(), &mut DomainNames::new(), "Q(x,y) :- E(x,y).").unwrap();
        let mut extent = Instance::empty(vs.output_schema());
        extent.insert_named("V1", vec![named(0)]);
        extent.insert_named("V1", vec![named(1)]);
        extent.insert_named("V2", vec![named(0)]);
        extent.insert_named("V2", vec![named(1)]);
        let out = certain_exact_bounded(&vs, &q, &extent, 0, 1 << 20).expect("preimages");
        assert!(out.preimages > 1);
        assert!(out.certain.len() < out.possible.len());
    }

    #[test]
    fn certain_collapses_to_query_answer_under_determinacy() {
        let (vs, _) = setup("V(x,y) :- E(x,y).");
        let q =
            parse_query(&schema(), &mut DomainNames::new(), "Q(x,z) :- E(x,y), E(y,z).").unwrap();
        let mut d = Instance::empty(&schema());
        d.insert_named("E", vec![named(0), named(1)]);
        d.insert_named("E", vec![named(1), named(2)]);
        let extent = apply_views(&vs, &d);
        let out = certain_exact_bounded(&vs, &q, &extent, 0, 1 << 22).expect("preimages");
        assert_eq!(out.certain, vqd_eval::eval_query(&q, &d));
        assert_eq!(out.certain, out.possible);
    }

    #[test]
    fn sound_ucq_views_also_chase() {
        let s = schema();
        let mut names = DomainNames::new();
        let prog = parse_program(&s, &mut names, "V(x,y) :- E(x,z), E(z,y).").unwrap();
        let v = CqViews::new(ViewSet::new(&s, prog.defs));
        let q = cq("Q(x,y) :- E(x,z), E(z,y).");
        let mut extent = Instance::empty(v.as_view_set().output_schema());
        extent.insert_named("V", vec![named(0), named(1)]);
        // The chase invents the middle node; the 2-path (0,1) is certain.
        let cert = certain_sound(&v, &q, &extent);
        assert!(cert.contains(&[named(0), named(1)]));
    }

    #[test]
    fn plans_answer_like_the_chase() {
        let (_, v) = setup("V(x,z) :- E(x,y), E(y,z).");
        let mut extent = Instance::empty(v.as_view_set().output_schema());
        for (a, b) in [(0, 1), (1, 2), (2, 0), (2, 2), (3, 1)] {
            extent.insert_named("V", vec![named(a), named(b)]);
        }
        for (src, disjuncts) in [
            ("Q(x,z) :- E(x,y), E(y,z).", 1),
            ("Q(x) :- E(x,y), E(y,z), E(z,w), E(w,v).", 1),
            ("Q(x,w) :- E(x,y), E(y,z), E(z,w).", 0),
            ("Q() :- E(x,y), E(y,x).", 1),
        ] {
            let q = cq(src);
            let plan = CertainPlan::compile(&v, &q).expect("in scope");
            assert_eq!(plan.disjuncts().len(), disjuncts, "{src}");
            let budget = vqd_budget::Budget::unlimited();
            let via_plan = plan.eval(&extent, &budget).unwrap();
            assert_eq!(via_plan, certain_sound(&v, &q, &extent), "{src}");
        }
    }

    #[test]
    fn plan_bytes_do_not_depend_on_variable_names() {
        let (_, v) = setup("V(x,y) :- E(x,y).");
        let long = "y".repeat(1950);
        let plan = |var: &str| {
            let q = cq(&format!("Q(x) :- E(x,{var}), E({var},z)."));
            CertainPlan::compile(&v, &q).expect("in scope")
        };
        let (short, long) = (plan("y"), plan(&long));
        assert_eq!(short.disjuncts().len(), 1);
        assert_eq!(short.approx_bytes(), long.approx_bytes());
        assert!(long.approx_bytes() < 1950, "{} bytes", long.approx_bytes());
    }

    #[test]
    fn out_of_scope_pairs_name_their_fallback() {
        for (views, query, why) in [
            ("V(x,y) :- E(x,y).", "Q(x) :- E(x,A).", PlanFallback::Constant),
            ("V(x,A) :- E(x,y).", "Q(x) :- E(x,y).", PlanFallback::Constant),
            ("V(x,x) :- E(x,y).", "Q(x) :- E(x,y).", PlanFallback::RepeatedHeadVariable),
            ("V(x,y) :- E(x,y).", "Q(x) :- E(x,y), x != y.", PlanFallback::NotPlainCq),
            (
                "V(x,y) :- E(x,y).",
                "Q(a) :- E(a,b), E(b,c), E(c,d), E(d,e), E(e,f), E(f,g), E(g,h), E(h,i), E(i,j).",
                PlanFallback::SizeBound,
            ),
        ] {
            let (_, v) = setup(views);
            let err = CertainPlan::compile(&v, &cq(query)).unwrap_err();
            assert_eq!(err, why, "{views} / {query}");
            assert_eq!(CertainPlan::check(&v, &cq(query)), Err(why), "{views} / {query}");
        }
        // Twelve identity views under an 8-path pass the shape check; the
        // search then grows past the MCD bound.
        let views: String = (0..12).map(|i| format!("V{i}(x,y) :- E(x,y).\n")).collect();
        let (_, v) = setup(&views);
        let q = cq("Q(a) :- E(a,b), E(b,c), E(c,d), E(d,e), E(e,f), E(f,g), E(g,h), E(h,i).");
        assert_eq!(CertainPlan::check(&v, &q), Ok(()));
        assert_eq!(CertainPlan::compile(&v, &q).unwrap_err(), PlanFallback::SizeBound);
    }

    #[test]
    fn plan_budget_trips_name_the_plan() {
        let (_, v) = setup("V(x,y) :- E(x,y).");
        let mut extent = Instance::empty(v.as_view_set().output_schema());
        for i in 0..4 {
            extent.insert_named("V", vec![named(i), named(i + 1)]);
        }
        let plan = CertainPlan::compile(&v, &cq("Q(x,z) :- E(x,y), E(y,z).")).unwrap();
        let budget = vqd_budget::Budget::unlimited().with_step_limit(2);
        match plan.eval(&extent, &budget) {
            Err(VqdError::Exhausted(e)) => {
                assert!(e.partial.contains("evaluating the certain-answer plan"), "{}", e.partial);
            }
            other => panic!("expected a trip, got {other:?}"),
        }
    }
}

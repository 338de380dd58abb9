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

use crate::answering::for_each_preimage;
use vqd_budget::VqdError;
use vqd_chase::{v_inverse_indexed, CqViews};
use vqd_eval::{eval_cq_rows, eval_query, EvalInput};
use vqd_exec::ExecInput;
use vqd_instance::{IndexedInstance, Instance, NullGen, Relation};
use vqd_query::{Cq, CqLang, QueryExpr, ViewSet};

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
/// byte-identically to sequential. Pass a bare
/// [`Budget`](vqd_budget::Budget) for the sequential behaviour.
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
        parse_query(&schema(), &mut names, src)
            .unwrap()
            .as_cq()
            .unwrap()
            .clone()
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
        let q = parse_query(
            &schema(),
            &mut DomainNames::new(),
            "Q(x,y) :- E(x,y).",
        )
        .unwrap();
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
        let q = parse_query(
            &schema(),
            &mut DomainNames::new(),
            "Q(x,z) :- E(x,y), E(y,z).",
        )
        .unwrap();
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
}

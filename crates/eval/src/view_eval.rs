//! Applying queries and views to instances.
//!
//! [`eval_query`] dispatches over the three query families; [`apply_views`]
//! computes the view image `V(D)` over the output schema `σ_V` — the
//! object determinacy quantifies over.

use crate::cq_eval::{eval_cq, eval_ucq};
use crate::fo_eval::eval_fo;
use crate::input::EvalInput;
use vqd_instance::{Instance, Relation};
use vqd_query::{QueryExpr, ViewSet};

/// Evaluates any query expression on any [`EvalInput`]. The FO evaluator
/// is subformula-driven rather than index-driven, so that arm evaluates
/// on the underlying instance; the conjunctive arms share the input's
/// index.
pub fn eval_query<I: EvalInput + ?Sized>(q: &QueryExpr, input: &I) -> Relation {
    match q {
        QueryExpr::Cq(cq) => eval_cq(cq, input),
        QueryExpr::Ucq(u) => eval_ucq(u, input),
        // The FO evaluator scans, never probes: take the instance
        // directly so a bare-instance input pays no index build here.
        QueryExpr::Fo(f) => eval_fo(f, input.instance()),
    }
}

/// Computes the view image `V(D)` as an instance over `σ_V`, sharing one
/// index across all view queries (historically this cost one full index
/// build *per view*). The determinacy searches, which evaluate both `V`
/// and `Q` on every candidate instance, pass a prebuilt index so the two
/// evaluations share it.
///
/// # Panics
/// Panics if the input's schema differs from the view set's input schema.
pub fn apply_views<I: EvalInput + ?Sized>(views: &ViewSet, input: &I) -> Instance {
    let index = input.index();
    assert_eq!(
        index.instance().schema(),
        views.input_schema(),
        "apply_views: instance schema mismatch"
    );
    let mut out = Instance::empty(views.output_schema());
    for (i, v) in views.views().iter().enumerate() {
        let rel = views.output_rel(i);
        let result = eval_query(&v.query, &*index);
        for t in result.iter() {
            out.insert(rel, t.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqd_instance::{named, DomainNames, Schema};
    use vqd_query::{parse_program, parse_query};

    fn schema() -> Schema {
        Schema::new([("E", 2), ("P", 1)])
    }

    #[test]
    fn apply_views_builds_image() {
        let s = schema();
        let mut names = DomainNames::new();
        let prog =
            parse_program(&s, &mut names, "V1(x) :- P(x).\nV2(x,y) :- E(x,y), P(x).").unwrap();
        let views = vqd_query::ViewSet::new(&s, prog.defs);
        let mut d = Instance::empty(&s);
        d.insert_named("E", vec![named(0), named(1)]);
        d.insert_named("P", vec![named(0)]);
        let img = apply_views(&views, &d);
        assert_eq!(img.rel_named("V1").len(), 1);
        assert!(img.rel_named("V2").contains(&[named(0), named(1)]));
    }

    #[test]
    fn eval_query_dispatch() {
        let s = schema();
        let mut names = DomainNames::new();
        let mut d = Instance::empty(&s);
        d.insert_named("E", vec![named(0), named(1)]);
        d.insert_named("P", vec![named(1)]);
        let cq = parse_query(&s, &mut names, "Q(x) :- P(x).").unwrap();
        let ucq = parse_query(&s, &mut names, "Q(x) :- P(x).\nQ(x) :- E(x,y).").unwrap();
        let fo = parse_query(&s, &mut names, "Q(x) := ~P(x).").unwrap();
        assert_eq!(eval_query(&cq, &d).len(), 1);
        assert_eq!(eval_query(&ucq, &d).len(), 2);
        assert_eq!(eval_query(&fo, &d).len(), 1); // only c0 is not in P
    }

    #[test]
    #[should_panic(expected = "schema mismatch")]
    fn apply_views_checks_schema() {
        let s = schema();
        let other = Schema::new([("Z", 1)]);
        let mut names = DomainNames::new();
        let prog = parse_program(&s, &mut names, "V(x) :- P(x).").unwrap();
        let views = vqd_query::ViewSet::new(&s, prog.defs);
        apply_views(&views, &Instance::empty(&other));
    }

    #[test]
    fn empty_viewset_yields_empty_image() {
        let s = schema();
        let views = vqd_query::ViewSet::new(&s, Vec::<(String, vqd_query::QueryExpr)>::new());
        let mut d = Instance::empty(&s);
        d.insert_named("P", vec![named(3)]);
        let img = apply_views(&views, &d);
        assert!(img.is_empty());
        assert!(img.schema().is_empty());
    }
}

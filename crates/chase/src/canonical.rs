//! The canonical rewriting `Q_V` and the Proposition 3.5 test.
//!
//! For CQ views **V** and a CQ query `Q(x̄)`:
//!
//! 1. freeze the query: `D₀ = [Q]` with frozen head `x̄`;
//! 2. compute `S = V([Q])`;
//! 3. `Q_V` is the CQ over `σ_V` whose frozen body is `S` and whose head
//!    is `x̄` — i.e. un-freeze `S`, reading nulls as variables;
//! 4. (Prop 3.5) `Q = Q_V ∘ V` **iff** `x̄ ∈ Q(V_∅^{-1}(S))` — and then
//!    **V** determines `Q` in the unrestricted sense; Theorem 3.3 shows
//!    the converse, so this membership *decides* unrestricted determinacy
//!    (Theorem 3.7).

use crate::inverse::{v_inverse_indexed, CqViews};
use std::collections::BTreeMap;
use vqd_budget::{Budget, VqdError};
use vqd_eval::{eval_cq, freeze};
use vqd_instance::{Instance, NullGen, Value};
use vqd_query::{Cq, CqLang, Term, VarId};

/// The frozen query, its view image, and the canonical rewriting candidate.
#[derive(Clone, Debug)]
pub struct Canonical {
    /// `[Q]` — the frozen body of the query.
    pub frozen_query: Instance,
    /// The frozen head `x̄` (values inside `[Q]`, or head constants).
    pub frozen_head: Vec<Value>,
    /// `S = V([Q])`.
    pub s: Instance,
    /// The candidate rewriting `Q_V` over `σ_V` (may be unsafe if some
    /// head value never reaches the view image — then no rewriting exists).
    pub q_v: Cq,
    /// The null generator state after freezing (for continuing the chase).
    pub nulls: NullGen,
}

impl Canonical {
    /// Whether the candidate rewriting is well-formed (safe): every head
    /// variable appears in the view image. By Proposition 4.3(i),
    /// `adom(Q(D)) ⊆ adom(V(D))` is necessary for determinacy, so an
    /// unsafe candidate certifies non-determinacy.
    pub fn candidate_safe(&self) -> bool {
        self.q_v.is_safe()
    }
}

/// Builds the canonical rewriting data for CQ views and a CQ query.
///
/// # Panics
/// Panics unless `q` is a plain CQ (no `=`, `≠`, `¬`) over the views'
/// input schema, with a non-empty body. [`try_canonical`] reports the
/// violation as a structured error instead.
pub fn canonical(views: &CqViews, q: &Cq) -> Canonical {
    match try_canonical(views, q) {
        Ok(can) => can,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible [`canonical`]: hypothesis violations become [`VqdError`]s.
pub fn try_canonical(views: &CqViews, q: &Cq) -> Result<Canonical, VqdError> {
    if &q.schema != views.as_view_set().input_schema() {
        return Err(VqdError::SchemaMismatch {
            context: "canonical: query schema must match the views' input schema",
            expected: format!("{:?}", views.as_view_set().input_schema()),
            found: format!("{:?}", q.schema),
        });
    }
    let invalid = |message: &str| VqdError::InvalidInput {
        context: "canonical",
        message: message.to_string(),
    };
    if q.language() != CqLang::Cq {
        return Err(invalid("canonical rewriting is defined for plain CQs (Theorem 3.3)"));
    }
    if q.atoms.is_empty() {
        return Err(invalid("query body must be non-empty"));
    }
    if !q.is_safe() {
        return Err(invalid("query must be safe"));
    }
    let mut nulls = NullGen::new();
    let (frozen_query, frozen_head, _) =
        freeze(q, &mut nulls).expect("plain CQ freezing cannot fail");
    let s = views.apply(&frozen_query);

    // Un-freeze S into Q_V: nulls become variables, constants stay.
    let mut q_v = Cq::new(views.as_view_set().output_schema());
    let mut var_of: BTreeMap<Value, VarId> = BTreeMap::new();
    let term_of = |v: Value, q_v: &mut Cq, var_of: &mut BTreeMap<Value, VarId>| -> Term {
        match v {
            Value::Named(_) => Term::Const(v),
            Value::Null(i) => {
                let var = *var_of.entry(v).or_insert_with(|| q_v.var(&format!("n{i}")));
                Term::Var(var)
            }
        }
    };
    for (rel, r) in s.iter() {
        for t in r.iter() {
            let args: Vec<Term> = t.iter().map(|&v| term_of(v, &mut q_v, &mut var_of)).collect();
            q_v.atoms.push(vqd_query::Atom::new(rel, args));
        }
    }
    q_v.head = frozen_head.iter().map(|&v| term_of(v, &mut q_v, &mut var_of)).collect();

    Ok(Canonical { frozen_query, frozen_head, s, q_v, nulls })
}

/// The Proposition 3.5(iii) membership test: `x̄ ∈ Q(V_∅^{-1}(S))`.
///
/// By Theorems 3.3/3.7 this holds **iff** `V ↠ Q` over unrestricted
/// (finite or infinite) instances, **iff** `Q_V` is an exact CQ rewriting.
/// Returns the chased instance too, for inspection. The chase draws on
/// `budget`; an exhaustion mid-chase surfaces as
/// `Err(VqdError::Exhausted)` rather than a wrong membership answer.
pub fn proposition_3_5_test_budgeted(
    views: &CqViews,
    can: &Canonical,
    q: &Cq,
    budget: &Budget,
) -> Result<(bool, Instance), VqdError> {
    let mut nulls = can.nulls.clone();
    let empty = Instance::empty(views.as_view_set().input_schema());
    // The chase hands back its maintained index, so the membership test
    // below evaluates Q with zero index rebuilds.
    let d_prime = v_inverse_indexed(views, &empty, &can.s, &mut nulls, budget)?;
    budget.checkpoint_with(&format_args!(
        "chased canonical instance to {} tuples, membership test pending",
        d_prime.instance().total_tuples()
    ))?;
    let holds = eval_cq(q, &d_prime).contains(&can.frozen_head);
    Ok((holds, d_prime.into_instance()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqd_eval::{apply_views, cq_equivalent, eval_cq};
    use vqd_instance::{DomainNames, Schema};
    use vqd_query::{parse_program, parse_query, ViewSet};

    fn schema() -> Schema {
        Schema::new([("E", 2), ("P", 1)])
    }

    fn membership(v: &CqViews, can: &Canonical, q: &Cq) -> (bool, Instance) {
        proposition_3_5_test_budgeted(v, can, q, &Budget::unlimited()).unwrap()
    }

    fn views(src: &str) -> CqViews {
        let s = schema();
        let mut names = DomainNames::new();
        let prog = parse_program(&s, &mut names, src).unwrap();
        CqViews::new(ViewSet::new(&s, prog.defs))
    }

    fn cq(src: &str) -> Cq {
        let mut names = DomainNames::new();
        parse_query(&schema(), &mut names, src).unwrap().as_cq().unwrap().clone()
    }

    #[test]
    fn identity_view_rewrites_identity_query() {
        let v = views("V(x,y) :- E(x,y).");
        let q = cq("Q(x,y) :- E(x,y).");
        let can = canonical(&v, &q);
        assert!(can.candidate_safe());
        let (ok, _) = membership(&v, &can, &q);
        assert!(ok);
        // The candidate must be V(x,y) as a query over σ_V.
        assert_eq!(can.q_v.atoms.len(), 1);
        assert_eq!(can.q_v.arity(), 2);
    }

    #[test]
    fn composition_of_views_rewrites_path_query() {
        // Views give single edges; query asks for 2-paths: rewriting joins
        // two view atoms.
        let v = views("V(x,y) :- E(x,y).");
        let q = cq("Q(x,z) :- E(x,y), E(y,z).");
        let can = canonical(&v, &q);
        let (ok, _) = membership(&v, &can, &q);
        assert!(ok);
        // Semantic check: Q(D) = Q_V(V(D)) on a sample instance.
        let mut d = Instance::empty(&schema());
        d.insert_named("E", vec![vqd_instance::named(0), vqd_instance::named(1)]);
        d.insert_named("E", vec![vqd_instance::named(1), vqd_instance::named(2)]);
        let image = apply_views(v.as_view_set(), &d);
        assert_eq!(eval_cq(&q, &d), eval_cq(&can.q_v, &image));
    }

    #[test]
    fn projection_views_lose_the_join_variable() {
        // V1(x) :- E(x,y), V2(y) :- E(x,y): the views only expose endpoints;
        // the 2-path query is NOT determined.
        let v = views("V1(x) :- E(x,y).\nV2(y) :- E(x,y).");
        let q = cq("Q(x,z) :- E(x,y), E(y,z).");
        let can = canonical(&v, &q);
        let (ok, _) = membership(&v, &can, &q);
        assert!(!ok);
    }

    #[test]
    fn head_variable_not_exposed_blocks_determinacy() {
        // Views are Boolean; a unary query cannot be determined.
        let v = views("B() :- E(x,y).");
        let q = cq("Q(x) :- E(x,y).");
        let can = canonical(&v, &q);
        assert!(!can.candidate_safe());
        let (ok, _) = membership(&v, &can, &q);
        assert!(!ok);
    }

    #[test]
    fn boolean_query_determined_by_boolean_view() {
        let v = views("B() :- E(x,y).");
        let q = cq("Q() :- E(x,y).");
        let can = canonical(&v, &q);
        let (ok, _) = membership(&v, &can, &q);
        assert!(ok);
        assert!(can.q_v.is_boolean());
    }

    #[test]
    fn chained_views_with_partial_information() {
        // V exposes 2-paths; query asks for 4-paths: composable.
        let v = views("V(x,y) :- E(x,z), E(z,y).");
        let q = cq("Q(x,y) :- E(x,a), E(a,b), E(b,c), E(c,y).");
        let can = canonical(&v, &q);
        let (ok, _) = membership(&v, &can, &q);
        assert!(ok);
        // And the minimized rewriting should be the 2-step V-join.
        let m = vqd_eval::minimize_cq(&can.q_v);
        assert_eq!(m.atoms.len(), 2);
    }

    #[test]
    fn three_path_not_determined_by_two_path_views() {
        // 2-path views cannot recover 3-paths (odd/even mismatch): the
        // canonical candidate exists but the Prop 3.5 test must fail.
        let v = views("V(x,y) :- E(x,z), E(z,y).");
        let q = cq("Q(x,y) :- E(x,a), E(a,b), E(b,y).");
        let can = canonical(&v, &q);
        let (ok, _) = membership(&v, &can, &q);
        assert!(!ok);
    }

    #[test]
    fn rewriting_is_equivalent_to_expansion() {
        // When the test succeeds, expanding Q_V through the views is
        // equivalent to Q. Expansion = substitute each view atom by its
        // definition; we verify semantically over samples instead, plus
        // once via containment of the unfolding.
        let v = views("V(x,y) :- E(x,y).");
        let q = cq("Q(x,z) :- E(x,y), E(y,z).");
        let can = canonical(&v, &q);
        let (ok, d_prime) = membership(&v, &can, &q);
        assert!(ok);
        // Prop 3.5(i): Q_V ∘ V has frozen body V_∅^{-1}(S); so the CQ with
        // that frozen body must be equivalent to Q.
        let (unfolded, _) =
            crate::unfreeze_instance(&d_prime, &can.frozen_head, &q.schema).unwrap();
        assert!(cq_equivalent(&unfolded, &q));
    }
}

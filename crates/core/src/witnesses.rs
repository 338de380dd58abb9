//! The non-monotonicity witnesses of Propositions 5.8 and 5.12.
//!
//! Both constructions exhibit views **V** and a query `Q` with `V ↠ Q`
//! while the induced mapping `Q_V` is **not monotone** — so no monotone
//! language (CQ, UCQ, `Datalog^≠`, …) can be complete for UCQ-to-CQ or
//! CQ≠-to-CQ rewritings (Corollaries 5.9, 5.13). The exact instances from
//! the paper's proofs are materialized so every claim can be re-checked
//! by running the code.

use vqd_eval::{apply_views, eval_cq};
use vqd_instance::{named, DomainNames, Instance, Relation, Schema};
use vqd_query::{parse_program, parse_query, Cq, QueryExpr, ViewSet};

/// A packaged witness: views, query, the paper's concrete instance pair,
/// and the induced `Q_V` evaluated on both images.
#[derive(Clone, Debug)]
pub struct NonMonotonicityWitness {
    /// The base schema σ.
    pub schema: Schema,
    /// The views **V**.
    pub views: ViewSet,
    /// The query `Q` (a CQ).
    pub query: Cq,
    /// The paper's first instance.
    pub d1: Instance,
    /// The paper's second instance.
    pub d2: Instance,
}

impl NonMonotonicityWitness {
    /// The view images `(V(d1), V(d2))`.
    pub fn images(&self) -> (Instance, Instance) {
        (apply_views(&self.views, &self.d1), apply_views(&self.views, &self.d2))
    }

    /// The query answers `(Q(d1), Q(d2))`.
    pub fn answers(&self) -> (Relation, Relation) {
        (eval_cq(&self.query, &self.d1), eval_cq(&self.query, &self.d2))
    }

    /// Checks the two facts the propositions assert about the pair:
    /// `V(d1) ⊆ V(d2)` while `Q(d1) ⊄ Q(d2)` — i.e. `Q_V` is not
    /// monotone on this pair.
    pub fn exhibits_nonmonotonicity(&self) -> bool {
        let (i1, i2) = self.images();
        let (a1, a2) = self.answers();
        i1.is_subinstance_of(&i2) && !a1.is_subset(&a2)
    }
}

/// Proposition 5.8: unary schema `{R, P}`, UCQ views
///
/// ```text
/// V1(x) :- P(x), R(y).          (P, provided R is non-empty)
/// V2(x) :- P(x).  V2(x) :- R(x). (P ∪ R)
/// V3(x) :- R(x).                 (R)
/// ```
///
/// and the query `Q(x) :- P(x)`. **V** determines `Q` (if `R = ∅` read
/// `P` off `V2`, otherwise off `V1`), yet `Q_V` is non-monotone on
/// `D₁ = ⟨P={a,b}, R=∅⟩ ⊆-image-wise D₂ = ⟨P={a}, R={b}⟩`.
pub fn prop_5_8() -> NonMonotonicityWitness {
    let schema = Schema::new([("R", 1), ("P", 1)]);
    let mut names = DomainNames::new();
    let prog = parse_program(
        &schema,
        &mut names,
        "V1(x) :- P(x), R(y).\n\
         V2(x) :- P(x).\n\
         V2(x) :- R(x).\n\
         V3(x) :- R(x).",
    )
    .expect("static program parses");
    let views = ViewSet::new(&schema, prog.defs);
    let query = parse_query(&schema, &mut names, "Q(x) :- P(x).")
        .expect("static query parses")
        .as_cq()
        .expect("CQ")
        .clone();
    let (a, b) = (named(0), named(1));
    let mut d1 = Instance::empty(&schema);
    d1.insert_named("P", vec![a]);
    d1.insert_named("P", vec![b]);
    let mut d2 = Instance::empty(&schema);
    d2.insert_named("P", vec![a]);
    d2.insert_named("R", vec![b]);
    NonMonotonicityWitness { schema, views, query, d1, d2 }
}

/// Proposition 5.12: binary schema `{R}`, CQ≠ views
///
/// ```text
/// V1(x) :- R(x,y), R(y,x).
/// V2(x) :- R(x,y), R(y,x), x != y.
/// V3(x) :- R(x,x), R(x,y), R(y,x), x != y.
/// ```
///
/// and the query `Q(x) :- R(x,x)`. `Q` is definable as
/// `(V1 ∧ ¬V2) ∨ V3`, so **V** determines it; `Q_V` is non-monotone on
/// `D = {(a,a)}` vs `D' = {(a,b),(b,a)}`.
pub fn prop_5_12() -> NonMonotonicityWitness {
    let schema = Schema::new([("R", 2)]);
    let mut names = DomainNames::new();
    let prog = parse_program(
        &schema,
        &mut names,
        "V1(x) :- R(x,y), R(y,x).\n\
         V2(x) :- R(x,y), R(y,x), x != y.\n\
         V3(x) :- R(x,x), R(x,y), R(y,x), x != y.",
    )
    .expect("static program parses");
    let views = ViewSet::new(&schema, prog.defs);
    let query = parse_query(&schema, &mut names, "Q(x) :- R(x,x).")
        .expect("static query parses")
        .as_cq()
        .expect("CQ")
        .clone();
    let (a, b) = (named(0), named(1));
    let mut d1 = Instance::empty(&schema);
    d1.insert_named("R", vec![a, a]);
    let mut d2 = Instance::empty(&schema);
    d2.insert_named("R", vec![a, b]);
    d2.insert_named("R", vec![b, a]);
    NonMonotonicityWitness { schema, views, query, d1, d2 }
}

/// The FO rewriting `(V1 ∧ ¬V2) ∨ V3` the paper gives for the
/// Proposition 5.12 query — non-monotone, as any exact rewriting must be.
pub fn prop_5_12_fo_rewriting(witness: &NonMonotonicityWitness) -> QueryExpr {
    let mut names = DomainNames::new();
    parse_query(witness.views.output_schema(), &mut names, "QV(x) := (V1(x) & ~V2(x)) | V3(x).")
        .expect("static query parses")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::determinacy::semantic::{check_exhaustive, SemanticVerdict};
    use vqd_eval::eval_query;

    #[test]
    fn prop_5_8_matches_paper_exactly() {
        let w = prop_5_8();
        let (i1, i2) = w.images();
        // V(D1) = ⟨∅, {a,b}, ∅⟩.
        assert!(i1.rel_named("V1").is_empty());
        assert_eq!(i1.rel_named("V2").len(), 2);
        assert!(i1.rel_named("V3").is_empty());
        // V(D2) = ⟨{a}, {a,b}, {b}⟩.
        assert_eq!(i2.rel_named("V1").len(), 1);
        assert!(i2.rel_named("V1").contains(&[named(0)]));
        assert_eq!(i2.rel_named("V2").len(), 2);
        assert!(i2.rel_named("V3").contains(&[named(1)]));
        assert!(w.exhibits_nonmonotonicity());
    }

    #[test]
    fn prop_5_8_views_determine_query() {
        let w = prop_5_8();
        let q = QueryExpr::Cq(w.query.clone());
        for n in 1..=3 {
            match check_exhaustive(&w.views, &q, n, 1 << 22) {
                SemanticVerdict::NoCounterexampleUpTo(_) => {}
                other => panic!("Prop 5.8 determinacy refuted?! {other:?}"),
            }
        }
    }

    #[test]
    fn prop_5_12_matches_paper_exactly() {
        let w = prop_5_12();
        let (i1, i2) = w.images();
        // V(D) = ⟨{a}, ∅, ∅⟩; V(D') = ⟨{a,b}, {a,b}, ∅⟩.
        assert_eq!(i1.rel_named("V1").len(), 1);
        assert!(i1.rel_named("V2").is_empty());
        assert!(i1.rel_named("V3").is_empty());
        assert_eq!(i2.rel_named("V1").len(), 2);
        assert_eq!(i2.rel_named("V2").len(), 2);
        assert!(i2.rel_named("V3").is_empty());
        assert!(i1.is_subinstance_of(&i2));
        assert!(w.exhibits_nonmonotonicity());
    }

    #[test]
    fn prop_5_12_views_determine_query() {
        let w = prop_5_12();
        let q = QueryExpr::Cq(w.query.clone());
        for n in 1..=3 {
            match check_exhaustive(&w.views, &q, n, 1 << 22) {
                SemanticVerdict::NoCounterexampleUpTo(_) => {}
                other => panic!("Prop 5.12 determinacy refuted?! {other:?}"),
            }
        }
    }

    #[test]
    fn prop_5_12_fo_rewriting_is_exact_on_small_instances() {
        let w = prop_5_12();
        let r = prop_5_12_fo_rewriting(&w);
        for d in vqd_instance::gen::InstanceEnumerator::new(&w.schema, 2) {
            let image = apply_views(&w.views, &d);
            assert_eq!(
                eval_cq(&w.query, &d),
                eval_query(&r, &image),
                "FO rewriting must reproduce Q on {d}"
            );
        }
    }

    #[test]
    fn witnesses_defeat_monotone_rewritings() {
        // Any monotone mapping M with M(V(D1)) = Q(D1) must satisfy
        // M(V(D2)) ⊇ Q(D1) — but Q(D2) ⊉ Q(D1). Machine-check the
        // inference premises on both witnesses.
        for w in [prop_5_8(), prop_5_12()] {
            let (i1, i2) = w.images();
            let (a1, a2) = w.answers();
            assert!(i1.is_subinstance_of(&i2));
            assert!(!a1.is_subset(&a2));
        }
    }
}

//! The Proposition 4.1 reductions.
//!
//! Determinacy inherits undecidability from satisfiability/validity:
//!
//! * if satisfiability of `Q`-sentences is undecidable, take `V = ∅` and
//!   `Q = φ ∧ R(x)` over `σ ∪ {R}`: then `V ↠ Q` iff `φ` is
//!   unsatisfiable;
//! * if validity of `V`-sentences is undecidable, take the single view
//!   `φ ∧ R(x)` and the query `R(x)`: then `V ↠ Q` iff `φ` is valid.
//!
//! Corollary 4.2 instantiates both at FO. The constructions are
//! implemented generically over an FO sentence and validated on bounded
//! domains in experiment E5.

use vqd_instance::{RelId, Schema};
use vqd_query::{Atom, Fo, FoQuery, QueryExpr, VarId, ViewSet};

/// The fresh unary relation's name in the extended schema.
pub const FRESH_REL: &str = "Rsat";

/// Extends `phi`'s schema with the fresh unary relation and rebuilds the
/// formula over it (relation ids are preserved because extension appends).
fn extended(phi: &FoQuery) -> (Schema, RelId) {
    let schema = phi.schema.extend([(FRESH_REL, 1)]);
    let rel = schema.rel(FRESH_REL);
    (schema, rel)
}

/// The satisfiability reduction: views `V = ∅` and query
/// `Q(x) = φ ∧ R(x)`. `V ↠ Q` iff `φ` is unsatisfiable (over the class
/// of instances considered).
///
/// # Panics
/// Panics unless `phi` is a sentence.
pub fn from_satisfiability(phi: &FoQuery) -> (ViewSet, QueryExpr) {
    assert!(phi.is_boolean(), "the reduction takes a sentence");
    let (schema, rel) = extended(phi);
    let views = ViewSet::new(&schema, Vec::<(String, QueryExpr)>::new());
    let x = VarId(phi.var_names.len() as u32);
    let mut var_names = phi.var_names.clone();
    var_names.push("x".to_owned());
    let formula = Fo::and([phi.formula.clone(), Fo::Atom(Atom::new(rel, vec![x.into()]))]);
    let q = FoQuery::new(&schema, vec![x], formula, var_names);
    (views, QueryExpr::Fo(q))
}

/// The validity reduction: one view `V(x) = φ ∧ R(x)` and query
/// `Q(x) = R(x)`. `V ↠ Q` iff `φ` is valid.
///
/// # Panics
/// Panics unless `phi` is a sentence.
pub fn from_validity(phi: &FoQuery) -> (ViewSet, QueryExpr) {
    assert!(phi.is_boolean(), "the reduction takes a sentence");
    let (schema, rel) = extended(phi);
    let x = VarId(phi.var_names.len() as u32);
    let mut var_names = phi.var_names.clone();
    var_names.push("x".to_owned());
    let view_formula = Fo::and([phi.formula.clone(), Fo::Atom(Atom::new(rel, vec![x.into()]))]);
    let view_q = FoQuery::new(&schema, vec![x], view_formula, var_names.clone());
    let views = ViewSet::new(&schema, vec![("V", QueryExpr::Fo(view_q))]);
    let q = FoQuery::new(&schema, vec![x], Fo::Atom(Atom::new(rel, vec![x.into()])), var_names);
    (views, QueryExpr::Fo(q))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::determinacy::semantic::check_exhaustive;
    use vqd_instance::DomainNames;
    use vqd_query::parse_query;

    fn sentence(src: &str) -> FoQuery {
        let s = Schema::new([("P", 1)]);
        let mut names = DomainNames::new();
        match parse_query(&s, &mut names, src).unwrap() {
            QueryExpr::Fo(f) => f,
            other => panic!("expected FO sentence, got {other:?}"),
        }
    }

    fn determined(views: &ViewSet, q: &QueryExpr, n: usize) -> bool {
        !check_exhaustive(views, q, n, 1 << 22).is_refuted()
    }

    #[test]
    fn satisfiable_sentence_breaks_determinacy() {
        // φ = ∃x P(x): satisfiable, so empty views cannot determine
        // φ ∧ R(x).
        let phi = sentence("S() := exists x. P(x).");
        let (v, q) = from_satisfiability(&phi);
        assert!(!determined(&v, &q, 2));
    }

    #[test]
    fn unsatisfiable_sentence_gives_determinacy() {
        // φ = ∃x (P(x) ∧ ¬P(x)): unsatisfiable; the query is constant ∅.
        let phi = sentence("S() := exists x. (P(x) & ~P(x)).");
        let (v, q) = from_satisfiability(&phi);
        assert!(determined(&v, &q, 2));
        assert!(determined(&v, &q, 3));
    }

    #[test]
    fn valid_sentence_gives_determinacy() {
        // φ = ∀x (P(x) → P(x)): valid; the view exposes R directly.
        let phi = sentence("S() := forall x. (P(x) -> P(x)).");
        let (v, q) = from_validity(&phi);
        assert!(determined(&v, &q, 2));
        assert!(determined(&v, &q, 3));
    }

    #[test]
    fn invalid_sentence_breaks_determinacy() {
        // φ = ∃x P(x): not valid (fails on P = ∅), so the view hides R
        // exactly when φ fails.
        let phi = sentence("S() := exists x. P(x).");
        let (v, q) = from_validity(&phi);
        assert!(!determined(&v, &q, 2));
    }

    #[test]
    fn schemas_are_extended_with_fresh_relation() {
        let phi = sentence("S() := exists x. P(x).");
        let (v, q) = from_satisfiability(&phi);
        assert!(v.input_schema().find(FRESH_REL).is_some());
        assert_eq!(q.arity(), 1);
    }
}

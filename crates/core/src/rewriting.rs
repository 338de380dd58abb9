//! Rewriting existence and verification.
//!
//! * [`expand_through_views`] — the *expansion* of a query written over
//!   `σ_V`: each view atom is replaced by the view's body (fresh
//!   existential variables per occurrence). `R` is an exact rewriting of
//!   `Q` iff `exp(R) ≡ Q` — and since CQ equivalence coincides on finite
//!   and unrestricted instances, "has an exact CQ rewriting" is a
//!   finite/unrestricted-agnostic property.
//! * [`exists_cq_rewriting`] — the Levy–Mendelzon–Sagiv–Srivastava \[22\]
//!   existence problem, decided here through the canonical candidate
//!   (Proposition 3.5): a CQ rewriting exists iff the canonical `Q_V`
//!   works.
//! * [`exists_ucq_rewriting`] — the UCQ variant: the union of per-disjunct
//!   canonical candidates is an exact rewriting iff any UCQ rewriting
//!   exists (\[22\], Theorem 3.9 analogue).
//! * [`decide_boolean_unary`] — Theorem 4.6: for views with Boolean or
//!   unary answers, CQ is complete for rewritings, so *(finite)
//!   determinacy itself* is decided by rewriting existence.

use crate::determinacy::unrestricted::decide_unrestricted;
use vqd_chase::{canonical, CqViews};
use vqd_eval::{cq_equivalent, normalize_eqs, ucq_equivalent};
use vqd_query::{Atom, Cq, CqLang, QueryExpr, Term, Ucq, VarId};

/// Expands a CQ over the view schema `σ_V` into an equivalent CQ over the
/// base schema, unfolding each view atom through its definition.
///
/// # Panics
/// Panics if `r` is not over the views' output schema or is not a plain
/// CQ/CQ= (equalities are normalized away first).
pub fn expand_through_views(views: &CqViews, r: &Cq) -> Cq {
    assert_eq!(
        &r.schema,
        views.as_view_set().output_schema(),
        "expansion expects a query over σ_V"
    );
    let r = normalize_eqs(r).expect("unsatisfiable rewriting equalities");
    assert!(
        r.language() <= CqLang::CqEq && r.neg_atoms.is_empty(),
        "expansion is defined for positive rewritings"
    );
    let mut out = Cq::new(views.as_view_set().input_schema());
    // Copy the rewriting's variables.
    for name in &r.var_names {
        out.var(name);
    }
    out.head = r.head.clone();
    for atom in &r.atoms {
        let view_idx = atom.rel.idx();
        let def = views.cq(view_idx);
        // Rename the definition: head vars ↦ atom args; body-only vars ↦
        // fresh vars of `out`.
        let mut mapping: Vec<Option<Term>> = vec![None; def.var_names.len()];
        for (head_term, arg) in def.head.iter().zip(&atom.args) {
            match head_term {
                Term::Var(v) => {
                    if let Some(prev) = &mapping[v.idx()] {
                        // Repeated head variable: both argument positions
                        // must unify; emit an equality constraint.
                        out.eqs.push((*prev, *arg));
                    } else {
                        mapping[v.idx()] = Some(*arg);
                    }
                }
                Term::Const(c) => {
                    // Head constant: the argument must equal it.
                    out.eqs.push((Term::Const(*c), *arg));
                }
            }
        }
        for (i, slot) in mapping.iter_mut().enumerate() {
            if slot.is_none() {
                let fresh =
                    out.var(&format!("{}_{}", def.var_name(VarId(i as u32)), out.var_names.len()));
                *slot = Some(Term::Var(fresh));
            }
        }
        for batom in &def.atoms {
            let args: Vec<Term> = batom
                .args
                .iter()
                .map(|t| match t {
                    Term::Var(v) => mapping[v.idx()].expect("filled"),
                    c => *c,
                })
                .collect();
            out.atoms.push(Atom::new(batom.rel, args));
        }
    }
    normalize_eqs(&out).expect("expansion equalities are satisfiable").compact()
}

/// Checks whether `r` (a CQ over `σ_V`) is an exact rewriting of `q`:
/// `exp(r) ≡ q`.
pub fn is_exact_rewriting(views: &CqViews, q: &Cq, r: &Cq) -> bool {
    cq_equivalent(&expand_through_views(views, r), q)
}

/// Decides existence of an exact CQ rewriting of `q` using `views`
/// (\[22\]); returns the minimized rewriting if one exists.
///
/// Existence is equivalent to unrestricted determinacy (Theorem 3.3), so
/// the canonical candidate decides it.
pub fn exists_cq_rewriting(views: &CqViews, q: &Cq) -> Option<Cq> {
    decide_unrestricted(views, q).rewriting
}

/// Decides existence of an exact UCQ rewriting of a UCQ query: the union
/// of the canonical per-disjunct candidates works iff any UCQ rewriting
/// does. Returns the (per-disjunct minimized) rewriting if it exists.
///
/// # Panics
/// Panics unless every disjunct is a plain CQ.
pub fn exists_ucq_rewriting(views: &CqViews, q: &Ucq) -> Option<Ucq> {
    // Per-disjunct canonical candidates; disjuncts whose candidate is
    // unsafe (a head value the views never expose) contribute nothing —
    // they may still be subsumed by another disjunct's rewriting, so they
    // are dropped rather than failing the whole union.
    let candidates: Vec<Cq> = q
        .disjuncts
        .iter()
        .map(|d| {
            assert_eq!(d.language(), CqLang::Cq, "UCQ rewriting needs plain CQ disjuncts");
            canonical(views, d).q_v
        })
        .filter(|c| c.is_safe())
        .collect();
    if candidates.is_empty() {
        return None;
    }
    let candidate = Ucq::new(candidates);
    // Exactness: the union of expansions must be equivalent to q.
    let expansion =
        Ucq::new(candidate.disjuncts.iter().map(|d| expand_through_views(views, d)).collect());
    if ucq_equivalent(&expansion, q) {
        Some(vqd_eval::minimize_ucq(&candidate))
    } else {
        None
    }
}

/// Theorem 4.6: for CQ views with Boolean or unary answers, (finite)
/// determinacy is decidable, because CQ is complete for rewritings of
/// such views — `V ↠ Q` iff an exact CQ rewriting exists.
///
/// Returns the rewriting as the positive certificate.
///
/// # Panics
/// Panics if some view has arity > 1.
pub fn decide_boolean_unary(views: &CqViews, q: &Cq) -> Option<Cq> {
    for (i, v) in views.as_view_set().views().iter().enumerate() {
        assert!(
            views.cq(i).arity() <= 1,
            "decide_boolean_unary requires Boolean or unary views (view `{}` has arity {})",
            v.name,
            views.cq(i).arity()
        );
    }
    exists_cq_rewriting(views, q)
}

/// The induced mapping `Q_V` as a black box: answers `Q` given a view
/// extent by applying a rewriting. Used by experiments that probe
/// properties of `Q_V` (monotonicity, genericity).
#[derive(Clone, Debug)]
pub struct InducedQuery {
    /// The rewriting over `σ_V`.
    pub rewriting: QueryExpr,
}

impl InducedQuery {
    /// Evaluates `Q_V` on a view extent.
    pub fn eval(&self, extent: &vqd_instance::Instance) -> vqd_instance::Relation {
        vqd_eval::eval_query(&self.rewriting, extent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqd_instance::{DomainNames, Schema};
    use vqd_query::{parse_program, parse_query, ViewSet};

    fn schema() -> Schema {
        Schema::new([("E", 2), ("P", 1)])
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

    fn cq_over(v: &CqViews, src: &str) -> Cq {
        let mut names = DomainNames::new();
        parse_query(v.as_view_set().output_schema(), &mut names, src)
            .unwrap()
            .as_cq()
            .unwrap()
            .clone()
    }

    #[test]
    fn expansion_unfolds_definitions() {
        let v = views("V(x,y) :- E(x,z), E(z,y).");
        let r = cq_over(&v, "R(x,y) :- V(x,w), V(w,y).");
        let e = expand_through_views(&v, &r);
        assert_eq!(e.atoms.len(), 4);
        assert!(cq_equivalent(&e, &cq("Q(x,y) :- E(x,a), E(a,b), E(b,c), E(c,y).")));
    }

    #[test]
    fn expansion_handles_repeated_head_vars() {
        let v = views("V(x,x) :- E(x,x).");
        let r = cq_over(&v, "R(a,b) :- V(a,b).");
        let e = expand_through_views(&v, &r);
        // V(a,b) with head (x,x) forces a = b and body E(a,a).
        assert!(cq_equivalent(&e, &cq("Q(a,a) :- E(a,a).")));
    }

    #[test]
    fn exact_rewriting_verification() {
        let v = views("V(x,y) :- E(x,y).");
        let q = cq("Q(x,z) :- E(x,y), E(y,z).");
        let good = cq_over(&v, "R(x,z) :- V(x,y), V(y,z).");
        let bad = cq_over(&v, "R(x,z) :- V(x,z).");
        assert!(is_exact_rewriting(&v, &q, &good));
        assert!(!is_exact_rewriting(&v, &q, &bad));
    }

    #[test]
    fn cq_rewriting_existence() {
        let v = views("V(x,y) :- E(x,z), E(z,y).");
        let four = cq("Q(x,y) :- E(x,a), E(a,b), E(b,c), E(c,y).");
        let r = exists_cq_rewriting(&v, &four).expect("4-path from 2-paths");
        assert!(is_exact_rewriting(&v, &four, &r));
        let three = cq("Q(x,y) :- E(x,a), E(a,b), E(b,y).");
        assert!(exists_cq_rewriting(&v, &three).is_none());
    }

    #[test]
    fn ucq_rewriting_existence_positive() {
        let v = views("V1(x,y) :- E(x,y).\nV2(x) :- P(x).");
        let mut names = DomainNames::new();
        let q = parse_query(&schema(), &mut names, "Q(x) :- P(x).\nQ(x) :- E(x,y), P(y).")
            .unwrap()
            .as_ucq()
            .unwrap();
        let r = exists_ucq_rewriting(&v, &q).expect("rewriting exists");
        assert_eq!(r.disjuncts.len(), 2);
        // Verify the expansion is equivalent.
        let exp = Ucq::new(r.disjuncts.iter().map(|d| expand_through_views(&v, d)).collect());
        assert!(ucq_equivalent(&exp, &q));
    }

    #[test]
    fn unsafe_candidate_disjuncts_can_be_subsumed() {
        // Q = {E(x,y)-pairs} ∪ {loops (x,x) with x hidden}: the loop
        // disjunct is subsumed by the first, so the union rewrites even
        // though... here both are exposable; instead test subsumption
        // with a genuinely redundant disjunct.
        let v = views("V1(x,y) :- E(x,y).");
        let mut names = DomainNames::new();
        let q = parse_query(&schema(), &mut names, "Q(x) :- E(x,y).\nQ(x) :- E(x,y), E(y,z).")
            .unwrap()
            .as_ucq()
            .unwrap();
        let r = exists_ucq_rewriting(&v, &q).expect("redundant disjunct subsumed");
        // The minimized rewriting needs only one disjunct.
        assert_eq!(r.disjuncts.len(), 1);
    }

    #[test]
    fn ucq_rewriting_existence_negative() {
        let v = views("V(x,y) :- E(x,z), E(z,y).");
        let mut names = DomainNames::new();
        let q = parse_query(&schema(), &mut names, "Q(x,y) :- E(x,y).\nQ(x,y) :- E(x,a), E(a,y).")
            .unwrap()
            .as_ucq()
            .unwrap();
        assert!(exists_ucq_rewriting(&v, &q).is_none());
    }

    #[test]
    fn boolean_unary_decision() {
        // Unary views exposing P and edge-sources.
        let v = views("V1(x) :- P(x).\nV2(x) :- E(x,y).");
        let q_ok = cq("Q(x) :- P(x).");
        assert!(decide_boolean_unary(&v, &q_ok).is_some());
        let q_no = cq("Q(x,y) :- E(x,y).");
        assert!(decide_boolean_unary(&v, &q_no).is_none());
    }

    #[test]
    #[should_panic(expected = "Boolean or unary")]
    fn boolean_unary_guards_arity() {
        let v = views("V(x,y) :- E(x,y).");
        decide_boolean_unary(&v, &cq("Q(x) :- P(x)."));
    }

    #[test]
    fn induced_query_applies_rewriting() {
        let v = views("V(x,y) :- E(x,y).");
        let q = cq("Q(x,z) :- E(x,y), E(y,z).");
        let r = exists_cq_rewriting(&v, &q).unwrap();
        let induced = InducedQuery { rewriting: QueryExpr::Cq(r) };
        let mut d = vqd_instance::Instance::empty(&schema());
        d.insert_named("E", vec![vqd_instance::named(0), vqd_instance::named(1)]);
        d.insert_named("E", vec![vqd_instance::named(1), vqd_instance::named(2)]);
        let image = vqd_eval::apply_views(v.as_view_set(), &d);
        let out = induced.eval(&image);
        assert!(out.contains(&[vqd_instance::named(0), vqd_instance::named(2)]));
    }
}

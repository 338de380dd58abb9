//! Containment and equivalence for (U)CQs.
//!
//! The Chandra–Merlin Homomorphism Theorem \[9\], used throughout Section 3:
//! `Q₁ ⊆ Q₂` iff the frozen head of `Q₁` belongs to `Q₂([Q₁])`, where
//! `[Q₁]` is the frozen body — the canonical database whose values are
//! `Q₁`'s variables (realized here as labelled nulls) plus its constants.
//!
//! For UCQs the test extends disjunct-wise (Sagiv–Yannakakis):
//! `∪ᵢQᵢ ⊆ U` iff every `Qᵢ ⊆ U`, and `Q ⊆ U` iff the frozen head of `Q`
//! is in `U([Q])`.
//!
//! These tests are sound and complete for CQ/UCQ possibly with equalities
//! (which are compiled away first) and constants. They are **not** valid
//! for `≠` or negation; the entry points check and panic, since a silent
//! wrong answer here would poison every determinacy result downstream.

use crate::cq_eval::{eval_cq, eval_ucq, normalize_eqs};
use std::collections::BTreeMap;
use vqd_budget::Budget;
use vqd_instance::{IndexedInstance, Instance, NullGen, Value};
use vqd_query::{Cq, CqLang, Term, Ucq, VarId};

/// The frozen body `[Q]` and frozen head of a CQ: variables become
/// labelled nulls (allocated from `nulls`), constants stay themselves.
///
/// Returns `None` if `q`'s equalities are unsatisfiable (then `Q ≡ ∅` and
/// it has no canonical database).
///
/// # Panics
/// Panics if `q` uses negation (`[Q]` is only defined for positive
/// bodies); `≠` constraints are *ignored* by freezing, so callers that
/// need them must handle them separately.
pub fn freeze(q: &Cq, nulls: &mut NullGen) -> Option<(Instance, Vec<Value>, BTreeMap<VarId, Value>)> {
    assert!(
        q.neg_atoms.is_empty(),
        "freeze: frozen bodies are defined for positive queries only"
    );
    let q = normalize_eqs(q)?;
    let mut map: BTreeMap<VarId, Value> = BTreeMap::new();
    let mut inst = Instance::empty(&q.schema);
    let value_of = |t: Term, map: &mut BTreeMap<VarId, Value>, nulls: &mut NullGen| match t {
        Term::Const(c) => c,
        Term::Var(v) => *map.entry(v).or_insert_with(|| nulls.fresh()),
    };
    for atom in &q.atoms {
        let tuple: Vec<Value> = atom
            .args
            .iter()
            .map(|&t| value_of(t, &mut map, nulls))
            .collect();
        inst.insert(atom.rel, tuple);
    }
    let head: Vec<Value> = q
        .head
        .iter()
        .map(|&t| value_of(t, &mut map, nulls))
        .collect();
    Some((inst, head, map))
}

fn check_pure(q: &Cq, what: &str) {
    assert!(
        q.language() <= CqLang::CqEq,
        "{what} is only sound for CQ/CQ= (got {:?}): {q}",
        q.language()
    );
}

/// CQ containment `q1 ⊆ q2` (Chandra–Merlin).
///
/// # Panics
/// Panics unless both queries are CQ or CQ= with matching schemas and
/// arities.
pub fn cq_contained(q1: &Cq, q2: &Cq) -> bool {
    check_pure(q1, "cq_contained");
    check_pure(q2, "cq_contained");
    assert_eq!(q1.schema, q2.schema, "containment across schemas");
    assert_eq!(q1.arity(), q2.arity(), "containment across arities");
    let mut nulls = NullGen::new();
    let Some((frozen, head, _)) = freeze(q1, &mut nulls) else {
        return true; // q1 ≡ ∅
    };
    eval_cq(q2, &frozen).contains(&head)
}

/// CQ equivalence.
pub fn cq_equivalent(q1: &Cq, q2: &Cq) -> bool {
    cq_contained(q1, q2) && cq_contained(q2, q1)
}

/// `q ⊆ u` for a CQ against a UCQ.
pub fn cq_contained_in_ucq(q: &Cq, u: &Ucq) -> bool {
    check_pure(q, "cq_contained_in_ucq");
    for d in &u.disjuncts {
        check_pure(d, "cq_contained_in_ucq");
    }
    assert_eq!(&q.schema, u.schema(), "containment across schemas");
    assert_eq!(q.arity(), u.arity(), "containment across arities");
    let mut nulls = NullGen::new();
    let Some((frozen, head, _)) = freeze(q, &mut nulls) else {
        return true;
    };
    eval_ucq(u, &frozen).contains(&head)
}

/// UCQ containment `u1 ⊆ u2` (disjunct-wise Chandra–Merlin).
pub fn ucq_contained(u1: &Ucq, u2: &Ucq) -> bool {
    u1.disjuncts.iter().all(|d| cq_contained_in_ucq(d, u2))
}

/// UCQ equivalence.
pub fn ucq_equivalent(u1: &Ucq, u2: &Ucq) -> bool {
    ucq_contained(u1, u2) && ucq_contained(u2, u1)
}

/// Verdict of the bounded semantic containment check — the honest tool
/// for the CQ extensions (`≠`, `¬`) where the homomorphism test is
/// unsound and the exact problem is Π₂ᵖ-hard or worse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BoundedContainment {
    /// A concrete instance where `q1`'s answer is not ⊆ `q2`'s.
    Refuted(Box<vqd_instance::Instance>),
    /// No counterexample with active domain ≤ the bound.
    NoCounterexampleUpTo(usize),
    /// The instance space exceeds the supplied limit.
    TooLarge,
    /// The resource budget tripped mid-enumeration (how far it got is
    /// in the payload); retry with a larger budget.
    Exhausted(Box<vqd_budget::Exhausted>),
}

/// Semantic containment check by exhaustive enumeration: sound and
/// complete *up to the domain bound*, for any pair of queries our
/// evaluator handles (including `≠` and safe negation).
///
/// One [`Budget::checkpoint`] per enumerated instance; exhaustion is a
/// verdict, not a panic.
pub fn contained_bounded_budgeted(
    q1: &Cq,
    q2: &Cq,
    max_domain: usize,
    limit: u128,
    budget: &Budget,
) -> BoundedContainment {
    use vqd_instance::gen::{space_size, InstanceEnumerator};
    assert_eq!(q1.schema, q2.schema, "containment across schemas");
    assert_eq!(q1.arity(), q2.arity(), "containment across arities");
    let total = match space_size(&q1.schema, max_domain) {
        Some(s) if s <= limit => s,
        _ => return BoundedContainment::TooLarge,
    };
    for (i, d) in InstanceEnumerator::new(&q1.schema, max_domain).enumerate() {
        if let Err(e) = budget.checkpoint_with(&format_args!(
            "checked containment on {i} of {total} instances, no counterexample"
        )) {
            return BoundedContainment::Exhausted(Box::new(e));
        }
        vqd_obs::count(vqd_obs::Metric::ContainmentInstancesChecked, 1);
        // One index serves both sides of the subset test.
        let idx = IndexedInstance::new(d);
        if !eval_cq(q1, &idx).is_subset(&eval_cq(q2, &idx)) {
            return BoundedContainment::Refuted(Box::new(idx.into_instance()));
        }
    }
    BoundedContainment::NoCounterexampleUpTo(max_domain)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqd_instance::{DomainNames, Schema};
    use vqd_query::parse_query;

    fn schema() -> Schema {
        Schema::new([("E", 2), ("P", 1)])
    }

    fn cq(src: &str) -> Cq {
        let mut names = DomainNames::new();
        parse_query(&schema(), &mut names, src)
            .unwrap()
            .as_cq()
            .unwrap()
            .clone()
    }

    fn ucq(src: &str) -> Ucq {
        let mut names = DomainNames::new();
        parse_query(&schema(), &mut names, src)
            .unwrap()
            .as_ucq()
            .unwrap()
    }

    #[test]
    fn longer_paths_are_contained_in_shorter() {
        // A 3-path maps homomorphically onto a 2-path pattern? No —
        // containment: Q3 ⊆ Q2 iff hom from Q2's body into Q3's canonical
        // DB respecting heads. Here: "exists 3-path from x" ⊆ "exists
        // 2-path from x".
        let q3 = cq("Q(x) :- E(x,a), E(a,b), E(b,c).");
        let q2 = cq("Q(x) :- E(x,a), E(a,b).");
        assert!(cq_contained(&q3, &q2));
        assert!(!cq_contained(&q2, &q3));
    }

    #[test]
    fn identical_queries_are_equivalent() {
        let a = cq("Q(x,y) :- E(x,z), E(z,y).");
        let b = cq("Q(u,v) :- E(u,w), E(w,v).");
        assert!(cq_equivalent(&a, &b));
    }

    #[test]
    fn redundant_atoms_do_not_change_semantics() {
        let min = cq("Q(x) :- E(x,y).");
        let redundant = cq("Q(x) :- E(x,y), E(x,z).");
        assert!(cq_equivalent(&min, &redundant));
    }

    #[test]
    fn constants_block_homomorphisms() {
        let with_const = cq("Q(x) :- E(x, A).");
        let general = cq("Q(x) :- E(x, y).");
        assert!(cq_contained(&with_const, &general));
        assert!(!cq_contained(&general, &with_const));
    }

    #[test]
    fn boolean_containment() {
        let tri = cq("Q() :- E(x,y), E(y,z), E(z,x).");
        let any_edge = cq("Q() :- E(x,y).");
        assert!(cq_contained(&tri, &any_edge));
        assert!(!cq_contained(&any_edge, &tri));
    }

    #[test]
    fn equalities_are_compiled_away() {
        let eq = cq("Q(x) :- E(x,y), x = y.");
        let loopq = cq("Q(x) :- E(x,x).");
        assert!(cq_equivalent(&eq, &loopq));
    }

    #[test]
    fn ucq_containment_needs_single_disjunct_witness() {
        let u = ucq("Q(x) :- P(x).\nQ(x) :- E(x,y).");
        let p = cq("Q(x) :- P(x).");
        assert!(cq_contained_in_ucq(&p, &u));
        let both = cq("Q(x) :- P(x), E(x,y).");
        assert!(cq_contained_in_ucq(&both, &u));
        let neither = cq("Q(x) :- E(y,x).");
        assert!(!cq_contained_in_ucq(&neither, &u));
    }

    #[test]
    fn ucq_equivalence_modulo_subsumed_disjuncts() {
        let u1 = ucq("Q(x) :- P(x).\nQ(x) :- P(x), E(x,y).");
        let u2 = ucq("Q(x) :- P(x).");
        assert!(ucq_equivalent(&u1, &u2));
    }

    #[test]
    fn classic_sagiv_yannakakis_non_containment() {
        // Q1 = paths of length 2; U = {loops at x} ∪ {P(x)}: incomparable.
        let u = ucq("Q(x) :- E(x,x).\nQ(x) :- P(x).");
        let q = cq("Q(x) :- E(x,y), E(y,x).");
        assert!(!cq_contained_in_ucq(&q, &u));
        assert!(ucq_contained(&u, &ucq("Q(x) :- E(x,x).\nQ(x) :- P(x).")));
    }

    #[test]
    #[should_panic(expected = "only sound for CQ")]
    fn inequality_queries_are_rejected() {
        let a = cq("Q(x) :- E(x,y), x != y.");
        let b = cq("Q(x) :- E(x,y).");
        cq_contained(&a, &b);
    }

    #[test]
    fn bounded_containment_handles_inequalities() {
        // With ≠ the homomorphism test is rejected; the bounded checker
        // gives honest answers.
        let a = cq("Q(x) :- E(x,y), x != y.");
        let b = cq("Q(x) :- E(x,y).");
        // a ⊆ b: no counterexample can exist.
        match contained_bounded_budgeted(&a, &b, 3, 1 << 22, &Budget::unlimited()) {
            BoundedContainment::NoCounterexampleUpTo(3) => {}
            other => panic!("unexpected {other:?}"),
        }
        // b ⊄ a: a loop-only instance refutes it.
        match contained_bounded_budgeted(&b, &a, 2, 1 << 22, &Budget::unlimited()) {
            BoundedContainment::Refuted(d) => {
                assert!(!eval_cq(&b, &d).is_subset(&eval_cq(&a, &d)));
            }
            other => panic!("expected refutation, got {other:?}"),
        }
    }

    #[test]
    fn bounded_containment_handles_negation() {
        let a = cq("Q(x) :- E(x,y), !P(y).");
        let b = cq("Q(x) :- E(x,y).");
        assert!(matches!(
            contained_bounded_budgeted(&a, &b, 2, 1 << 22, &Budget::unlimited()),
            BoundedContainment::NoCounterexampleUpTo(2)
        ));
        assert!(matches!(
            contained_bounded_budgeted(&b, &a, 2, 1 << 22, &Budget::unlimited()),
            BoundedContainment::Refuted(_)
        ));
    }

    #[test]
    fn bounded_containment_respects_limit() {
        let a = cq("Q(x) :- E(x,y).");
        assert!(matches!(
            contained_bounded_budgeted(&a, &a, 6, 4, &Budget::unlimited()),
            BoundedContainment::TooLarge
        ));
    }

    #[test]
    fn freeze_produces_canonical_database() {
        let q = cq("Q(x) :- E(x,y), E(y,x).");
        let mut nulls = NullGen::new();
        let (inst, head, map) = freeze(&q, &mut nulls).unwrap();
        assert_eq!(inst.rel_named("E").len(), 2);
        assert_eq!(head.len(), 1);
        assert_eq!(map.len(), 2);
        assert!(inst.has_nulls());
    }

    #[test]
    fn freeze_unsatisfiable_equalities() {
        let q = cq("Q(x) :- P(x), A = B.");
        let mut nulls = NullGen::new();
        assert!(freeze(&q, &mut nulls).is_none());
    }
}

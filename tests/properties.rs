//! Property-based tests (proptest) over the core invariants:
//! Chandra–Merlin containment vs. semantics, minimization, the decision
//! procedure, FO/CQ evaluation agreement, freezing round-trips,
//! canonicalization, Datalog strategy agreement, and the parser.

use proptest::prelude::*;
use vqd::chase::{unfreeze_instance, CqViews};
use vqd::core::determinacy::semantic::check_exhaustive;
use vqd::core::determinacy::unrestricted::decide_unrestricted;
use vqd::eval::{
    apply_views, cq_contained, cq_equivalent, eval_cq, eval_fo, for_each_hom, freeze,
    minimize_cq, normalize_eqs, Assignment, Ordering,
};
use vqd::instance::IndexedInstance;
use vqd::instance::iso::canonical_form;
use vqd::instance::{named, DomainNames, Instance, NullGen, Schema, Value};
use vqd::query::{cq_to_fo, parse_query, Atom, Cq, QueryExpr, Term, VarId, ViewSet};
use std::collections::BTreeMap;

fn schema() -> Schema {
    Schema::new([("E", 2), ("P", 1)])
}

/// A random instance over `{c0..c(n-1)}` described by edge and node lists.
fn arb_instance(n: u32) -> impl Strategy<Value = Instance> {
    let edges = proptest::collection::vec((0..n, 0..n), 0..8);
    let nodes = proptest::collection::vec(0..n, 0..4);
    (edges, nodes).prop_map(|(es, ns)| {
        let mut d = Instance::empty(&schema());
        for (a, b) in es {
            d.insert_named("E", vec![named(a), named(b)]);
        }
        for p in ns {
            d.insert_named("P", vec![named(p)]);
        }
        d
    })
}

/// A random safe plain CQ: atoms over a small variable pool, head drawn
/// from the used variables.
fn arb_cq(max_atoms: usize, vars: u32, head_arity: usize) -> impl Strategy<Value = Cq> {
    let atoms = proptest::collection::vec((proptest::bool::ANY, 0..vars, 0..vars), 1..=max_atoms);
    let head_sel = proptest::collection::vec(0..16u32, head_arity);
    (atoms, head_sel).prop_map(move |(ats, hs)| {
        let s = schema();
        let mut q = Cq::new(&s);
        let vs: Vec<VarId> = (0..vars).map(|i| q.var(&format!("x{i}"))).collect();
        for (is_edge, a, b) in ats {
            if is_edge {
                q.atoms.push(Atom::new(
                    s.rel("E"),
                    vec![vs[a as usize].into(), vs[b as usize].into()],
                ));
            } else {
                q.atoms
                    .push(Atom::new(s.rel("P"), vec![vs[a as usize].into()]));
            }
        }
        let used: Vec<VarId> = q.positive_vars().into_iter().collect();
        q.head = hs
            .iter()
            .map(|h| Term::Var(used[*h as usize % used.len()]))
            .collect();
        q
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Chandra–Merlin is sound: containment implies answer containment on
    /// every sampled instance.
    #[test]
    fn containment_sound(q1 in arb_cq(3, 3, 1), q2 in arb_cq(3, 3, 1), d in arb_instance(3)) {
        if cq_contained(&q1, &q2) {
            prop_assert!(eval_cq(&q1, &d).is_subset(&eval_cq(&q2, &d)));
        }
    }

    /// Chandra–Merlin is complete: non-containment is witnessed by the
    /// frozen body of q1 itself.
    #[test]
    fn containment_complete(q1 in arb_cq(3, 3, 1), q2 in arb_cq(3, 3, 1)) {
        if !cq_contained(&q1, &q2) {
            let mut nulls = NullGen::new();
            let (frozen, head, _) = freeze(&q1, &mut nulls).expect("plain CQ");
            prop_assert!(eval_cq(&q1, &frozen).contains(&head));
            prop_assert!(!eval_cq(&q2, &frozen).contains(&head));
        }
    }

    /// Minimization preserves equivalence and is minimal: dropping any
    /// atom of the core breaks equivalence (or safety).
    #[test]
    fn minimize_is_equivalent_and_minimal(q in arb_cq(4, 3, 1)) {
        let m = minimize_cq(&q);
        prop_assert!(cq_equivalent(&m, &q));
        if m.atoms.len() > 1 {
            for i in 0..m.atoms.len() {
                let mut smaller = m.clone();
                smaller.atoms.remove(i);
                prop_assert!(
                    !smaller.is_safe() || !cq_contained(&smaller, &m),
                    "core must be minimal"
                );
            }
        }
    }

    /// The Theorem 3.7 decision: a positive answer always ships an exact
    /// rewriting (checked on sampled instances), and never contradicts
    /// exhaustive finite semantics.
    #[test]
    fn decision_procedure_sound(q in arb_cq(3, 3, 1), v in arb_cq(3, 3, 2), d in arb_instance(3)) {
        let views = CqViews::new(ViewSet::new(&schema(), vec![("V", QueryExpr::Cq(v))]));
        let out = decide_unrestricted(&views, &q);
        if let Some(r) = &out.rewriting {
            let image = apply_views(views.as_view_set(), &d);
            prop_assert_eq!(eval_cq(&q, &d), eval_cq(r, &image));
        }
        if out.determined {
            let verdict = check_exhaustive(
                views.as_view_set(), &QueryExpr::Cq(q.clone()), 2, 1 << 22);
            prop_assert!(!verdict.is_refuted(), "unrestricted ⊃ finite determinacy");
        }
    }

    /// FO and CQ evaluation agree on conjunctive queries.
    #[test]
    fn fo_matches_cq(q in arb_cq(3, 3, 1), d in arb_instance(3)) {
        prop_assert_eq!(eval_cq(&q, &d), eval_fo(&cq_to_fo(&q), &d));
    }

    /// Freezing then unfreezing yields an equivalent query.
    #[test]
    fn freeze_unfreeze_roundtrip(q in arb_cq(4, 3, 1)) {
        let mut nulls = NullGen::new();
        let (inst, head, _) = freeze(&q, &mut nulls).expect("plain CQ");
        let (q2, _) = unfreeze_instance(&inst, &head, &q.schema).expect("schemas match");
        prop_assert!(cq_equivalent(&q, &q2));
    }

    /// Equality normalization preserves semantics.
    #[test]
    fn normalize_eqs_preserves(q in arb_cq(3, 3, 1), d in arb_instance(3), merge in 0..3u32) {
        let mut q = q;
        // Add a random equality between two positive variables.
        let used: Vec<VarId> = q.positive_vars().into_iter().collect();
        if used.len() >= 2 {
            let a = used[merge as usize % used.len()];
            let b = used[(merge as usize + 1) % used.len()];
            q.add_eq(a.into(), b.into());
        }
        let n = normalize_eqs(&q).expect("satisfiable");
        prop_assert!(n.eqs.is_empty());
        prop_assert_eq!(eval_cq(&q, &d), eval_cq(&n, &d));
    }

    /// Canonical forms are invariant under domain permutations.
    #[test]
    fn canonicalization_invariant(d in arb_instance(4), shift in 1..7u32) {
        if d.adom().len() <= 6 {
            let map: BTreeMap<Value, Value> = d
                .adom()
                .into_iter()
                .map(|v| (v, named(v.index() * 3 + shift)))
                .collect();
            let renamed = d.map_values(&map);
            prop_assert_eq!(canonical_form(&d), canonical_form(&renamed));
        }
    }

    /// Both homomorphism orderings enumerate the same match count.
    #[test]
    fn hom_orderings_agree(q in arb_cq(3, 3, 0), d in arb_instance(3)) {
        let index = IndexedInstance::from_instance(&d);
        let mut c1 = 0u64;
        let mut c2 = 0u64;
        for_each_hom(&q.atoms, &index, &Assignment::new(), Ordering::MostConstrained, |_| {
            c1 += 1;
            true
        });
        for_each_hom(&q.atoms, &index, &Assignment::new(), Ordering::Static, |_| {
            c2 += 1;
            true
        });
        prop_assert_eq!(c1, c2);
    }

    /// Render → parse round-trips to an equivalent query.
    #[test]
    fn parser_roundtrip(q in arb_cq(4, 3, 1)) {
        let src = q.render("Q");
        let mut names = DomainNames::new();
        let parsed = parse_query(&schema(), &mut names, &src)
            .expect("rendered query parses")
            .as_cq()
            .expect("CQ")
            .clone();
        prop_assert!(cq_equivalent(&q, &parsed), "roundtrip failed for {}", src);
    }

    /// Datalog strategies agree on random EDBs.
    #[test]
    fn datalog_strategies_agree(d in arb_instance(4)) {
        use vqd::datalog::{eval_program, Program, Strategy};
        let s = Schema::new([("E", 2), ("P", 1), ("T", 2)]);
        let mut names = DomainNames::new();
        let prog = Program::parse(
            &s,
            &mut names,
            "T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).",
        )
        .unwrap();
        // Rebase d onto the extended schema.
        let mapping: Vec<_> = d.schema().rel_ids().collect();
        let edb = d.transport(&s, &mapping);
        let a = eval_program(&prog, &edb, Strategy::Naive).unwrap();
        let b = eval_program(&prog, &edb, Strategy::SemiNaive).unwrap();
        prop_assert_eq!(a, b);
    }

    /// CQ evaluation is monotone (the classical fact the Section 5 lower
    /// bounds contrast against).
    #[test]
    fn cq_eval_is_monotone(q in arb_cq(3, 3, 1), d in arb_instance(3), extra in arb_instance(3)) {
        let bigger = d.union(&extra);
        prop_assert!(eval_cq(&q, &d).is_subset(&eval_cq(&q, &bigger)));
    }

    /// Lemma 3.4 on random views and instances: the inverse-chased
    /// canonical database maps homomorphically back onto the original,
    /// fixing the image's active domain — and its own image covers S.
    #[test]
    fn lemma_3_4_on_random_views(v in arb_cq(2, 3, 2), d in arb_instance(3)) {
        use vqd::chase::{v_inverse, CqViews};
        use vqd::eval::instance_hom;
        let views = CqViews::new(ViewSet::new(&schema(), vec![("V", QueryExpr::Cq(v))]));
        let s = views.apply(&d);
        let mut nulls = NullGen::new();
        let empty = Instance::empty(&schema());
        let d_prime = v_inverse(&views, &empty, &s, &mut nulls);
        // V(D') ⊇ S (each chased tuple witnesses itself).
        prop_assert!(s.is_subinstance_of(&views.apply(&d_prime)));
        // Lemma 3.4: hom D' → D fixing adom(S).
        let fix: Vec<Value> = s.adom().into_iter().collect();
        prop_assert!(instance_hom(&d_prime, &d, &fix).is_some());
    }

    /// The canonical rewriting candidate is always an *upper* bound:
    /// Q ⊆ Q_V ∘ V (Proposition 3.5(ii)), determinacy or not.
    #[test]
    fn prop_3_5_ii_upper_bound(v in arb_cq(2, 3, 2), q in arb_cq(2, 3, 1), d in arb_instance(3)) {
        use vqd::chase::{canonical, CqViews};
        let views = CqViews::new(ViewSet::new(&schema(), vec![("V", QueryExpr::Cq(v))]));
        let can = canonical(&views, &q);
        if can.q_v.is_safe() {
            let image = apply_views(views.as_view_set(), &d);
            prop_assert!(
                eval_cq(&q, &d).is_subset(&eval_cq(&can.q_v, &image)),
                "Q ⊆ Q_V ∘ V must always hold"
            );
        }
    }
}

// Budget invariance: resource governance must never change an answer —
// any budget value yields either the unbudgeted verdict or `Exhausted`,
// and never a panic or a wrong determined/refuted answer.
proptest! {
    /// Bounded semantic search under a random step budget.
    #[test]
    fn budgeted_semantic_search_is_invariant_or_exhausted(
        v in arb_cq(2, 3, 2), q in arb_cq(2, 3, 1), steps in 1u64..300
    ) {
        use vqd::budget::{Budget, VqdError};
        use vqd::core::determinacy::semantic::{check_exhaustive_ctx, SemanticVerdict};
        let views = ViewSet::new(&schema(), vec![("V", QueryExpr::Cq(v))]);
        let q = QueryExpr::Cq(q);
        let full = check_exhaustive(&views, &q, 2, 1 << 22);
        let budget = Budget::unlimited().with_step_limit(steps);
        match check_exhaustive_ctx(&views, &q, 2, 1 << 22, &budget) {
            Ok(SemanticVerdict::Exhausted(_)) | Err(VqdError::Exhausted(_)) => {}
            Ok(verdict) => prop_assert_eq!(
                verdict.is_refuted(),
                full.is_refuted(),
                "a budget changed the refutation verdict"
            ),
            Err(e) => panic!("unexpected error kind: {e}"),
        }
    }

    /// The chase decision under a random step budget.
    #[test]
    fn budgeted_chase_decision_is_invariant_or_exhausted(
        v in arb_cq(2, 3, 2), q in arb_cq(2, 3, 1), steps in 1u64..100
    ) {
        use vqd::budget::{Budget, VqdError};
        use vqd::core::determinacy::unrestricted::decide_unrestricted_budgeted;
        let views = CqViews::new(ViewSet::new(&schema(), vec![("V", QueryExpr::Cq(v))]));
        let full = decide_unrestricted(&views, &q);
        let budget = Budget::unlimited().with_step_limit(steps);
        match decide_unrestricted_budgeted(&views, &q, &budget) {
            Ok(out) => prop_assert_eq!(
                out.determined,
                full.determined,
                "a budget changed the determinacy verdict"
            ),
            Err(VqdError::Exhausted(_)) => {}
            Err(e) => panic!("unexpected error kind: {e}"),
        }
    }

    /// Bounded containment under a random step budget.
    #[test]
    fn budgeted_containment_is_invariant_or_exhausted(
        q1 in arb_cq(2, 3, 1), q2 in arb_cq(2, 3, 1), steps in 1u64..100
    ) {
        use vqd::budget::Budget;
        use vqd::eval::{contained_bounded_budgeted, BoundedContainment};
        let full = contained_bounded_budgeted(&q1, &q2, 2, 1 << 22, &Budget::unlimited());
        let budget = Budget::unlimited().with_step_limit(steps);
        match contained_bounded_budgeted(&q1, &q2, 2, 1 << 22, &budget) {
            BoundedContainment::Exhausted(_) => {}
            verdict => prop_assert_eq!(verdict, full, "a budget changed containment"),
        }
    }

    /// Datalog fixpoints under a random step budget: equal to the full
    /// fixpoint, or exhausted with a sound partial database.
    #[test]
    fn budgeted_datalog_is_invariant_or_sound_partial(
        d in arb_instance(3), steps in 1u64..60
    ) {
        use vqd::budget::Budget;
        use vqd::datalog::{eval_program_budgeted, EvalError, Program, Strategy};
        let pschema = schema().extend([("T", 2)]);
        let mut names = DomainNames::new();
        let prog = Program::parse(
            &pschema,
            &mut names,
            "T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).",
        )
        .unwrap();
        let edb = {
            let mapping: Vec<_> = d.schema().rel_ids().collect();
            d.transport(&pschema, &mapping)
        };
        let full = eval_program_budgeted(&prog, &edb, Strategy::SemiNaive, &Budget::unlimited())
            .unwrap();
        let budget = Budget::unlimited().with_step_limit(steps);
        match eval_program_budgeted(&prog, &edb, Strategy::SemiNaive, &budget) {
            Ok(db) => prop_assert_eq!(db, full, "a budget changed the fixpoint"),
            Err(EvalError::Exhausted { partial, .. }) => prop_assert!(
                partial.is_subinstance_of(&full),
                "partial result contains facts outside the fixpoint"
            ),
            Err(e) => panic!("unexpected error kind: {e}"),
        }
    }
}

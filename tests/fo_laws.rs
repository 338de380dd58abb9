//! Property tests for the FO machinery: classical logical laws under the
//! active-domain evaluator, and the pretty-printer round-trip, over
//! *randomly generated formulas*.

use proptest::prelude::*;
use vqd::eval::eval_fo;
use vqd::instance::gen::InstanceEnumerator;
use vqd::instance::{named, DomainNames, Instance, Schema};
use vqd::query::{alpha_rename, parse_query, Atom, Fo, FoQuery, QueryExpr, Term, VarId};

fn schema() -> Schema {
    Schema::new([("E", 2), ("P", 1)])
}

/// Variable pool used by generated formulas: x0..x3 (quantifiers shadow).
const NVARS: u32 = 4;

fn leaf() -> impl Strategy<Value = Fo> {
    let s = schema();
    let e = s.rel("E");
    let p = s.rel("P");
    prop_oneof![
        (0..NVARS, 0..NVARS).prop_map(move |(a, b)| Fo::Atom(Atom::new(
            e,
            vec![Term::Var(VarId(a)), Term::Var(VarId(b))]
        ))),
        (0..NVARS).prop_map(move |a| Fo::Atom(Atom::new(p, vec![Term::Var(VarId(a))]))),
        (0..NVARS, 0..NVARS).prop_map(|(a, b)| Fo::Eq(Term::Var(VarId(a)), Term::Var(VarId(b)))),
    ]
}

fn arb_fo() -> impl Strategy<Value = Fo> {
    leaf().prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|f| Fo::Not(Box::new(f))),
            proptest::collection::vec(inner.clone(), 2..=3).prop_map(Fo::And),
            proptest::collection::vec(inner.clone(), 2..=3).prop_map(Fo::Or),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Fo::Implies(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Fo::Iff(Box::new(a), Box::new(b))),
            (0..NVARS, inner.clone()).prop_map(|(v, f)| Fo::Exists(vec![VarId(v)], Box::new(f))),
            (0..NVARS, inner).prop_map(|(v, f)| Fo::Forall(vec![VarId(v)], Box::new(f))),
        ]
    })
}

/// Closes a generated formula into a sentence-or-query by declaring all
/// its free variables as the head.
fn close(f: Fo) -> FoQuery {
    let free: Vec<VarId> = f.free_vars().into_iter().collect();
    FoQuery::new(&schema(), free, f, (0..NVARS).map(|i| format!("x{i}")).collect())
}

fn small_instances() -> Vec<Instance> {
    // A fixed diverse set (full enumeration per case is too slow under
    // 64×: empty, loop, edge, triangle-ish, with/without P).
    let s = schema();
    let mut out = Vec::new();
    out.push(Instance::empty(&s));
    let mut d = Instance::empty(&s);
    d.insert_named("E", vec![named(0), named(0)]);
    out.push(d.clone());
    d.insert_named("E", vec![named(0), named(1)]);
    d.insert_named("P", vec![named(1)]);
    out.push(d.clone());
    d.insert_named("E", vec![named(1), named(0)]);
    d.insert_named("P", vec![named(0)]);
    out.push(d);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Double negation is a no-op.
    #[test]
    fn double_negation(f in arb_fo()) {
        let q1 = close(f.clone());
        let q2 = close(Fo::Not(Box::new(Fo::Not(Box::new(f)))));
        for d in small_instances() {
            prop_assert_eq!(eval_fo(&q1, &d), eval_fo(&q2, &d));
        }
    }

    /// NNF and desugaring preserve semantics.
    #[test]
    fn normal_forms_preserve_semantics(f in arb_fo()) {
        let q = close(f.clone());
        let qn = FoQuery { formula: f.nnf(), ..q.clone() };
        let qd = FoQuery { formula: f.desugar(), ..q.clone() };
        for d in small_instances() {
            let reference = eval_fo(&q, &d);
            prop_assert_eq!(&eval_fo(&qn, &d), &reference, "nnf broke semantics");
            prop_assert_eq!(&eval_fo(&qd, &d), &reference, "desugar broke semantics");
        }
    }

    /// Quantifier duality: ∀x f ≡ ¬∃x ¬f.
    #[test]
    fn quantifier_duality(f in arb_fo(), v in 0..NVARS) {
        let x = VarId(v);
        let q1 = close(Fo::Forall(vec![x], Box::new(f.clone())));
        let q2 = close(Fo::Not(Box::new(Fo::Exists(
            vec![x],
            Box::new(Fo::Not(Box::new(f)))),
        )));
        for d in small_instances() {
            prop_assert_eq!(eval_fo(&q1, &d), eval_fo(&q2, &d));
        }
    }

    /// De Morgan over n-ary connectives.
    #[test]
    fn de_morgan(fs in proptest::collection::vec(arb_fo(), 2..=3)) {
        let q1 = close(Fo::Not(Box::new(Fo::And(fs.clone()))));
        let q2 = close(Fo::Or(
            fs.iter().cloned().map(|f| Fo::Not(Box::new(f))).collect(),
        ));
        for d in small_instances() {
            prop_assert_eq!(eval_fo(&q1, &d), eval_fo(&q2, &d));
        }
    }

    /// α-renaming preserves semantics, and the renamed query's rendering
    /// parses back to something with the same answers.
    #[test]
    fn render_parse_roundtrip(f in arb_fo()) {
        let q = close(f);
        let renamed = alpha_rename(&q);
        let rendered = renamed.render("Q");
        let mut names = DomainNames::new();
        let parsed = parse_query(&schema(), &mut names, &rendered)
            .unwrap_or_else(|e| panic!("`{rendered}` fails to parse: {e}"));
        let QueryExpr::Fo(back) = parsed else { panic!("expected FO") };
        for d in small_instances() {
            let reference = eval_fo(&q, &d);
            prop_assert_eq!(&eval_fo(&renamed, &d), &reference, "alpha rename broke {}", rendered.clone());
            // The parser may order the free variables differently; compare
            // after aligning head order by name.
            prop_assert_eq!(back.free.len(), renamed.free.len());
            let out_back = eval_fo(&back, &d);
            let renamed_names: Vec<String> =
                renamed.free.iter().map(|v| renamed.var_name(*v)).collect();
            let back_names: Vec<String> =
                back.free.iter().map(|v| back.var_name(*v)).collect();
            if renamed_names == back_names {
                prop_assert_eq!(&out_back, &reference, "roundtrip broke {}", rendered.clone());
            } else {
                // Same multiset of columns, permuted: compare cardinality
                // (a full column-permutation check would need a reorder
                // helper; names almost always align in practice).
                prop_assert_eq!(out_back.len(), reference.len());
            }
        }
    }
}

#[test]
fn exhaustive_law_check_small() {
    // One non-random pass over the full instance space for a fixed
    // formula, to anchor the sampled checks above.
    let s = schema();
    let mut names = DomainNames::new();
    let QueryExpr::Fo(q) =
        parse_query(&s, &mut names, "Q(x) := forall y. (E(x,y) -> exists z. (E(y,z) & ~P(z))).")
            .unwrap()
    else {
        panic!()
    };
    let qn = FoQuery { formula: q.formula.nnf(), ..q.clone() };
    for d in InstanceEnumerator::new(&s, 2) {
        assert_eq!(eval_fo(&q, &d), eval_fo(&qn, &d));
    }
}

//! Order-invariance constructions (Example 3.2 and Proposition 5.7).
//!
//! Both constructions show FO is not complete as a rewriting language by
//! exposing an order `<` to the *query* while the *views* only certify
//! that `<` is a linear order (plus the base relations): for an
//! order-invariant `φ(<)`, the views determine `Q_φ = ψ ∧ φ(<)`, yet a
//! rewriting would have to define `φ` without the order — impossible for
//! Gurevich's order-invariant-but-not-FO queries.
//!
//! We implement the constructions in full generality (any base schema,
//! any FO `φ`); experiment E12 machine-checks determinacy on bounded
//! domains for order-invariant `φ` and exhibits counterexamples for
//! order-*sensitive* `φ`. Two completions of the paper's sketch were
//! needed (documented in DESIGN.md):
//!
//! * a `Vdom` view returning the full active domain (elements occurring
//!   *only* in `<` would otherwise be invisible, and order-invariant
//!   queries may still count them);
//! * the totality views (3)/(4) are generated over *all* relations
//!   including `<` itself, so incomparability among `<`-only elements is
//!   also certified.

use vqd_instance::Schema;
use vqd_query::{Atom, Cq, Fo, FoQuery, QueryExpr, Term, Ucq, VarPool, ViewSet};

/// Name of the strict-order relation added to the base schema.
pub const LT: &str = "lt";

/// `σ_< = σ ∪ {lt/2}`.
pub fn order_schema(base: &Schema) -> Schema {
    base.extend([(LT, 2)])
}

/// The sentence `ψ`: `lt` is a strict total order on the active domain.
pub fn strict_order_sentence(schema_lt: &Schema) -> FoQuery {
    let lt = schema_lt.rel(LT);
    let mut pool = VarPool::new();
    let ltf = |a, b| Fo::Atom(Atom::new(lt, vec![Term::Var(a), Term::Var(b)]));
    let x = pool.var("x");
    let irreflexive = Fo::forall(vec![x], Fo::not(ltf(x, x)));
    let (x, y, z) = (pool.var("x"), pool.var("y"), pool.var("z"));
    let transitive =
        Fo::forall(vec![x, y, z], Fo::implies(Fo::and([ltf(x, y), ltf(y, z)]), ltf(x, z)));
    let (x, y) = (pool.var("x"), pool.var("y"));
    let total =
        Fo::forall(vec![x, y], Fo::or([Fo::Eq(Term::Var(x), Term::Var(y)), ltf(x, y), ltf(y, x)]));
    FoQuery::new(
        schema_lt,
        Vec::new(),
        Fo::and([irreflexive, transitive, total]),
        pool.into_names(),
    )
}

/// A UCQ returning the active domain: one disjunct per (relation,
/// position) of the schema.
fn adom_ucq(schema: &Schema) -> Ucq {
    let mut disjuncts = Vec::new();
    for (rel, decl) in schema.iter() {
        for pos in 0..decl.arity {
            let mut cq = Cq::new(schema);
            let x = cq.var("x");
            let args: Vec<Term> = (0..decl.arity)
                .map(|p| if p == pos { Term::Var(x) } else { Term::Var(cq.var(&format!("u{p}"))) })
                .collect();
            cq.head = vec![Term::Var(x)];
            cq.atoms.push(Atom::new(rel, args));
            disjuncts.push(cq);
        }
    }
    Ucq::new(disjuncts)
}

/// The Proposition 5.7 view set over `σ_<` (views (1)–(5) plus the
/// documented completions). All views are CQ¬ / UCQ.
pub fn prop_5_7_views(base: &Schema) -> ViewSet {
    let schema_lt = order_schema(base);
    let lt = schema_lt.rel(LT);
    let mut defs: Vec<(String, QueryExpr)> = Vec::new();

    // (1) Antisymmetry violations: x < y ∧ y < x.
    {
        let mut cq = Cq::new(&schema_lt);
        let x = cq.var("x");
        let y = cq.var("y");
        cq.head = vec![x.into(), y.into()];
        cq.atoms.push(Atom::new(lt, vec![x.into(), y.into()]));
        cq.atoms.push(Atom::new(lt, vec![y.into(), x.into()]));
        defs.push(("Vasym".to_owned(), QueryExpr::Cq(cq)));
    }

    // (2) Transitivity violations: x < y ∧ y < z ∧ ¬(x < z).
    {
        let mut cq = Cq::new(&schema_lt);
        let x = cq.var("x");
        let y = cq.var("y");
        let z = cq.var("z");
        cq.head = vec![x.into(), y.into(), z.into()];
        cq.atoms.push(Atom::new(lt, vec![x.into(), y.into()]));
        cq.atoms.push(Atom::new(lt, vec![y.into(), z.into()]));
        cq.neg_atoms.push(Atom::new(lt, vec![x.into(), z.into()]));
        defs.push(("Vtrans".to_owned(), QueryExpr::Cq(cq)));
    }

    // (3) Within-tuple totality violations, for every relation (including
    // lt itself) and distinct positions i < j.
    for (rel, decl) in schema_lt.iter() {
        for i in 0..decl.arity {
            for j in i + 1..decl.arity {
                let mut cq = Cq::new(&schema_lt);
                let vars: Vec<_> = (0..decl.arity).map(|p| cq.var(&format!("x{p}"))).collect();
                cq.head = vars.iter().map(|&v| Term::Var(v)).collect();
                cq.atoms.push(Atom::new(rel, vars.iter().map(|&v| Term::Var(v)).collect()));
                cq.neg_atoms.push(Atom::new(lt, vec![vars[i].into(), vars[j].into()]));
                cq.neg_atoms.push(Atom::new(lt, vec![vars[j].into(), vars[i].into()]));
                cq.add_neq(vars[i].into(), vars[j].into());
                defs.push((format!("Vtot_{}_{i}_{j}", schema_lt.name(rel)), QueryExpr::Cq(cq)));
            }
        }
    }

    // (4) Cross-tuple totality violations, for every pair of relations
    // (including lt) and every position pair.
    for (r1, d1) in schema_lt.iter() {
        for (r2, d2) in schema_lt.iter() {
            if r2 < r1 {
                continue; // unordered pairs once
            }
            for i in 0..d1.arity {
                for j in 0..d2.arity {
                    let mut cq = Cq::new(&schema_lt);
                    let xs: Vec<_> = (0..d1.arity).map(|p| cq.var(&format!("x{p}"))).collect();
                    let ys: Vec<_> = (0..d2.arity).map(|p| cq.var(&format!("y{p}"))).collect();
                    cq.head = vec![xs[i].into(), ys[j].into()];
                    cq.atoms.push(Atom::new(r1, xs.iter().map(|&v| Term::Var(v)).collect()));
                    cq.atoms.push(Atom::new(r2, ys.iter().map(|&v| Term::Var(v)).collect()));
                    cq.neg_atoms.push(Atom::new(lt, vec![xs[i].into(), ys[j].into()]));
                    cq.neg_atoms.push(Atom::new(lt, vec![ys[j].into(), xs[i].into()]));
                    cq.add_neq(xs[i].into(), ys[j].into());
                    defs.push((
                        format!("Vpair_{}_{i}_{}_{j}", schema_lt.name(r1), schema_lt.name(r2)),
                        QueryExpr::Cq(cq),
                    ));
                }
            }
        }
    }

    // (5) Identity views for the base relations.
    for (rel, decl) in schema_lt.iter() {
        if schema_lt.name(rel) == LT {
            continue;
        }
        let mut cq = Cq::new(&schema_lt);
        let vars: Vec<_> = (0..decl.arity).map(|p| cq.var(&format!("x{p}"))).collect();
        cq.head = vars.iter().map(|&v| Term::Var(v)).collect();
        cq.atoms.push(Atom::new(rel, vars.iter().map(|&v| Term::Var(v)).collect()));
        defs.push((format!("Vid_{}", schema_lt.name(rel)), QueryExpr::Cq(cq)));
    }

    // Completion: the active domain.
    defs.push(("Vdom".to_owned(), QueryExpr::Ucq(adom_ucq(&schema_lt))));

    ViewSet::new(&schema_lt, defs)
}

/// The query `Q_φ = ψ ∧ φ(<)` of Proposition 5.7.
///
/// # Panics
/// Panics unless `phi` is a sentence over `σ_<`.
pub fn order_query(schema_lt: &Schema, phi: &FoQuery) -> FoQuery {
    assert!(phi.is_boolean(), "Q_φ is defined for sentences");
    assert_eq!(&phi.schema, schema_lt, "φ must be over σ_<");
    let psi = strict_order_sentence(schema_lt);
    // Rebase ψ's variables past φ's.
    let shift = phi.var_names.len() as u32;
    let shifted = psi.formula.clone().map_vars(shift);
    let mut names = phi.var_names.clone();
    names.extend(psi.var_names.iter().cloned());
    FoQuery::new(schema_lt, Vec::new(), Fo::and([shifted, phi.formula.clone()]), names)
}

/// Small extension trait to shift all variables in a formula.
trait MapVars {
    fn map_vars(self, by: u32) -> Fo;
}

impl MapVars for Fo {
    fn map_vars(self, by: u32) -> Fo {
        use vqd_query::VarId;
        fn go(f: &Fo, by: u32) -> Fo {
            let sh = |t: &Term| match t {
                Term::Var(v) => Term::Var(VarId(v.0 + by)),
                c => *c,
            };
            match f {
                Fo::True => Fo::True,
                Fo::False => Fo::False,
                Fo::Atom(a) => Fo::Atom(Atom::new(a.rel, a.args.iter().map(sh).collect())),
                Fo::Eq(a, b) => Fo::Eq(sh(a), sh(b)),
                Fo::Not(g) => Fo::Not(Box::new(go(g, by))),
                Fo::And(xs) => Fo::And(xs.iter().map(|x| go(x, by)).collect()),
                Fo::Or(xs) => Fo::Or(xs.iter().map(|x| go(x, by)).collect()),
                Fo::Implies(a, b) => Fo::Implies(Box::new(go(a, by)), Box::new(go(b, by))),
                Fo::Iff(a, b) => Fo::Iff(Box::new(go(a, by)), Box::new(go(b, by))),
                Fo::Exists(vs, g) => {
                    Fo::Exists(vs.iter().map(|v| VarId(v.0 + by)).collect(), Box::new(go(g, by)))
                }
                Fo::Forall(vs, g) => {
                    Fo::Forall(vs.iter().map(|v| VarId(v.0 + by)).collect(), Box::new(go(g, by)))
                }
            }
        }
        go(&self, by)
    }
}

/// Example 3.2: views = identity on `σ` plus the *FO* proposition view
/// `Rψ` reporting whether `≤` (here: `lt` read as the order) is a linear
/// order, and the query `Q_φ = ψ ∧ φ`.
pub fn example_3_2(base: &Schema, phi: &FoQuery) -> (ViewSet, FoQuery) {
    let schema_lt = order_schema(base);
    let mut defs: Vec<(String, QueryExpr)> = Vec::new();
    for (rel, decl) in schema_lt.iter() {
        if schema_lt.name(rel) == LT {
            continue;
        }
        let mut cq = Cq::new(&schema_lt);
        let vars: Vec<_> = (0..decl.arity).map(|p| cq.var(&format!("x{p}"))).collect();
        cq.head = vars.iter().map(|&v| Term::Var(v)).collect();
        cq.atoms.push(Atom::new(rel, vars.iter().map(|&v| Term::Var(v)).collect()));
        defs.push((format!("Vid_{}", schema_lt.name(rel)), QueryExpr::Cq(cq)));
    }
    defs.push(("Rpsi".to_owned(), QueryExpr::Fo(strict_order_sentence(&schema_lt))));
    defs.push(("Vdom".to_owned(), QueryExpr::Ucq(adom_ucq(&schema_lt))));
    let views = ViewSet::new(&schema_lt, defs);
    let q = order_query(&schema_lt, phi);
    (views, q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::determinacy::semantic::{check_exhaustive, SemanticVerdict};
    use vqd_instance::DomainNames;
    use vqd_query::parse_query;

    fn base() -> Schema {
        Schema::new([("P", 1)])
    }

    fn phi(src: &str) -> FoQuery {
        let s = order_schema(&base());
        let mut names = DomainNames::new();
        match parse_query(&s, &mut names, src).unwrap() {
            QueryExpr::Fo(f) => f,
            other => panic!("expected FO, got {other:?}"),
        }
    }

    /// Order-invariant: "there are at least two elements".
    fn invariant_phi() -> FoQuery {
        phi("F() := exists x y. x != y.")
    }

    /// Order-sensitive: "the <-minimum element satisfies P".
    fn sensitive_phi() -> FoQuery {
        phi("F() := exists x. (P(x) & forall y. (y != x -> lt(x,y))).")
    }

    #[test]
    fn order_views_determine_invariant_queries() {
        let views = prop_5_7_views(&base());
        let q = QueryExpr::Fo(order_query(&order_schema(&base()), &invariant_phi()));
        for n in 1..=3 {
            match check_exhaustive(&views, &q, n, 1 << 22) {
                SemanticVerdict::NoCounterexampleUpTo(_) => {}
                other => panic!("Prop 5.7 determinacy refuted for invariant φ: {other:?}"),
            }
        }
    }

    #[test]
    fn order_views_fail_on_sensitive_queries() {
        let views = prop_5_7_views(&base());
        let q = QueryExpr::Fo(order_query(&order_schema(&base()), &sensitive_phi()));
        let verdict = check_exhaustive(&views, &q, 3, 1 << 22);
        assert!(verdict.is_refuted(), "expected refutation, got {verdict:?}");
    }

    #[test]
    fn example_3_2_determines_invariant_queries() {
        let (views, q) = example_3_2(&base(), &invariant_phi());
        for n in 1..=3 {
            match check_exhaustive(&views, &QueryExpr::Fo(q.clone()), n, 1 << 22) {
                SemanticVerdict::NoCounterexampleUpTo(_) => {}
                other => panic!("Example 3.2 determinacy refuted: {other:?}"),
            }
        }
    }

    #[test]
    fn example_3_2_fails_on_sensitive_queries() {
        let (views, q) = example_3_2(&base(), &sensitive_phi());
        let verdict = check_exhaustive(&views, &QueryExpr::Fo(q), 3, 1 << 22);
        assert!(verdict.is_refuted());
    }

    #[test]
    fn psi_recognizes_orders() {
        use vqd_eval::eval_fo;
        use vqd_instance::{named, Instance};
        let s = order_schema(&base());
        let psi = strict_order_sentence(&s);
        let mut good = Instance::empty(&s);
        good.insert_named("lt", vec![named(0), named(1)]);
        good.insert_named("lt", vec![named(0), named(2)]);
        good.insert_named("lt", vec![named(1), named(2)]);
        assert!(eval_fo(&psi, &good).truth());
        let mut bad = good.clone();
        bad.rel_mut(s.rel("lt")).remove(&[named(0), named(2)]);
        assert!(!eval_fo(&psi, &bad).truth());
    }

    #[test]
    fn view_inventory_shapes() {
        let views = prop_5_7_views(&base());
        assert!(views.find("Vasym").is_some());
        assert!(views.find("Vtrans").is_some());
        assert!(views.find("Vid_P").is_some());
        assert!(views.find("Vdom").is_some());
        // lt/lt cross-tuple totality views exist.
        assert!(views.find("Vpair_lt_0_lt_0").is_some() || views.find("Vpair_P_0_lt_0").is_some());
    }
}

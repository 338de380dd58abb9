//! The Theorem 4.5 reduction: word problem ⇒ UCQ determinacy.
//!
//! Schema `σ = {R/3, p1/0, p2/0}`, reading `R(x,y,z)` as `x·y = z`. A
//! fixed view set **V** certifies that `R` is *monoidal* (complete, i.e.
//! total and onto, and associative); given equations `H` and a goal
//! `F : x = y`, the query `Q_{H,F}` is built so that
//!
//! > `V ↠ Q_{H,F}`  ⟺  `H ⊨ F` over all finite monoidal functions,
//!
//! which is undecidable (Gurevich \[19\]) — hence finite determinacy for
//! UCQ views/queries is undecidable.
//!
//! Both the paper's variants are implemented: the `UCQ=` version and the
//! equality-free version over *pseudo-monoidal* relations, where `x = y`
//! is replaced by the co-producibility relation
//! `x ≃ y ≔ ∃u,v R(u,v,x) ∧ R(u,v,y)` and the functionality equation is
//! replaced by three congruence equations.
//!
//! Set-equalities `S = T` become pairs of view disjuncts
//! `(p1 ∧ S) ∨ (p2 ∧ T)`: two instances differing only in which of
//! `p1/p2` holds have equal view images exactly when every such equation
//! holds — the trick that lets plain UCQs *compare* query results.

use vqd_instance::{named, Instance, Schema};
use vqd_monoid::{Equations, OpTable};
use vqd_query::{Atom, Cq, QueryExpr, Term, Ucq, ViewSet};

/// The fixed schema of the reduction.
pub fn monoid_schema() -> Schema {
    Schema::new([("R", 3), ("p1", 0), ("p2", 0)])
}

/// One side of a set equation: a UCQ over `σ`.
type SetExpr = Vec<Cq>;

/// Builds `(p1 ∧ S) ∨ (p2 ∧ T)` as a UCQ.
fn equation_view(_schema: &Schema, s: &SetExpr, t: &SetExpr) -> Ucq {
    let mut disjuncts = Vec::new();
    for (marker, side) in [("p1", s), ("p2", t)] {
        for cq in side {
            let mut d = cq.clone();
            d.atom(marker, Vec::new());
            disjuncts.push(d);
        }
    }
    Ucq::new(disjuncts)
}

/// `{x | ∃·· R with x at position pos}` as a single CQ.
fn projection(schema: &Schema, pos: usize) -> Cq {
    let mut cq = Cq::new(schema);
    let x = cq.var("x");
    let args: Vec<Term> = (0..3)
        .map(|p| {
            if p == pos {
                Term::Var(x)
            } else {
                Term::Var(cq.var(&format!("u{p}")))
            }
        })
        .collect();
    cq.head = vec![Term::Var(x)];
    cq.atoms.push(Atom::new(schema.rel("R"), args));
    cq
}

/// The diagonal `{(z,z) | z ∈ adom(R)}` as a UCQ= (one disjunct per
/// position of `R`).
fn diagonal_eq(schema: &Schema) -> SetExpr {
    (0..3)
        .map(|pos| {
            let mut cq = projection(schema, pos);
            let z = cq.var("z'");
            let x = cq.head[0];
            cq.head = vec![x, Term::Var(z)];
            cq.add_eq(x, Term::Var(z));
            cq
        })
        .collect()
}

/// The pseudo-diagonal `{(z,z') | z ≃ z'}` with
/// `≃ = co-producibility` — equality-free.
fn diagonal_coproducible(schema: &Schema) -> SetExpr {
    let r = schema.rel("R");
    let mut cq = Cq::new(schema);
    let z = cq.var("z");
    let zp = cq.var("z'");
    let u = cq.var("u");
    let v = cq.var("v");
    cq.head = vec![z.into(), zp.into()];
    cq.atoms.push(Atom::new(r, vec![u.into(), v.into(), z.into()]));
    cq.atoms.push(Atom::new(r, vec![u.into(), v.into(), zp.into()]));
    vec![cq]
}

/// `{(z,z') | ∃x,y R(x,y,z) ∧ R(x,y,z')}` — the functionality LHS.
fn function_lhs(schema: &Schema) -> SetExpr {
    let r = schema.rel("R");
    let mut cq = Cq::new(schema);
    let z = cq.var("z");
    let zp = cq.var("z'");
    let x = cq.var("x");
    let y = cq.var("y");
    cq.head = vec![z.into(), zp.into()];
    cq.atoms.push(Atom::new(r, vec![x.into(), y.into(), z.into()]));
    cq.atoms.push(Atom::new(r, vec![x.into(), y.into(), zp.into()]));
    vec![cq]
}

/// Associativity LHS:
/// `{(w,w') | ∃x,y,z,u,v R(x,y,u) ∧ R(u,z,w) ∧ R(y,z,v) ∧ R(x,v,w')}`.
fn assoc_lhs(schema: &Schema) -> SetExpr {
    let r = schema.rel("R");
    let mut cq = Cq::new(schema);
    let w = cq.var("w");
    let wp = cq.var("w'");
    let x = cq.var("x");
    let y = cq.var("y");
    let z = cq.var("z");
    let u = cq.var("u");
    let v = cq.var("v");
    cq.head = vec![w.into(), wp.into()];
    cq.atoms.push(Atom::new(r, vec![x.into(), y.into(), u.into()]));
    cq.atoms.push(Atom::new(r, vec![u.into(), z.into(), w.into()]));
    cq.atoms.push(Atom::new(r, vec![y.into(), z.into(), v.into()]));
    cq.atoms.push(Atom::new(r, vec![x.into(), v.into(), wp.into()]));
    vec![cq]
}

/// One congruence equation side (equality-free variant):
/// `{(u,v,z,z') | ∃x,y R(x,y,z) ∧ R(x,y,z') ∧ <probe>}` where the probe
/// is `R` applied with `z` or `z'` at position `slot`.
fn congruence_side(schema: &Schema, slot: usize, primed: bool) -> SetExpr {
    let r = schema.rel("R");
    let mut cq = Cq::new(schema);
    let u = cq.var("u");
    let v = cq.var("v");
    let z = cq.var("z");
    let zp = cq.var("z'");
    let x = cq.var("x");
    let y = cq.var("y");
    cq.head = vec![u.into(), v.into(), z.into(), zp.into()];
    cq.atoms.push(Atom::new(r, vec![x.into(), y.into(), z.into()]));
    cq.atoms.push(Atom::new(r, vec![x.into(), y.into(), zp.into()]));
    let probe_z: Term = if primed { zp.into() } else { z.into() };
    let probe_args: Vec<Term> = match slot {
        0 => vec![probe_z, u.into(), v.into()],
        1 => vec![u.into(), probe_z, v.into()],
        _ => vec![u.into(), v.into(), probe_z],
    };
    cq.atoms.push(Atom::new(r, probe_args));
    vec![cq]
}

/// The packaged Theorem 4.5 reduction output.
#[derive(Clone, Debug)]
pub struct MonoidReduction {
    /// σ = {R/3, p1, p2}.
    pub schema: Schema,
    /// The fixed view set **V** (depends only on the variant, not on H/F).
    pub views: ViewSet,
    /// The query `Q_{H,F}`.
    pub query: Ucq,
    /// Whether the equality-free (pseudo-monoidal) variant was built.
    pub equality_free: bool,
}

/// Builds the views and `Q_{H,F}` for equations `h` and goal `f`
/// (a pair of symbol indices into `h`).
///
/// # Panics
/// Panics if a goal symbol does not occur in any equation of `h` (the
/// query would be unsafe — the paper's instances always satisfy this).
pub fn theorem_4_5(h: &Equations, f: (usize, usize), equality_free: bool) -> MonoidReduction {
    let schema = monoid_schema();
    let mut defs: Vec<(String, QueryExpr)> = Vec::new();

    // V1 = R itself.
    {
        let mut cq = Cq::new(&schema);
        let x = cq.var("x");
        let y = cq.var("y");
        let z = cq.var("z");
        cq.head = vec![x.into(), y.into(), z.into()];
        cq.atoms
            .push(Atom::new(schema.rel("R"), vec![x.into(), y.into(), z.into()]));
        defs.push(("V1".to_owned(), QueryExpr::Cq(cq)));
    }
    // V2 = p1 ∨ p2; V3 = p1 ∧ p2.
    {
        let mk = |markers: &[&str]| {
            let mut cq = Cq::new(&schema);
            for m in markers {
                cq.atom(m, Vec::new());
            }
            cq
        };
        defs.push((
            "V2".to_owned(),
            QueryExpr::Ucq(Ucq::new(vec![mk(&["p1"]), mk(&["p2"])])),
        ));
        defs.push(("V3".to_owned(), QueryExpr::Cq(mk(&["p1", "p2"]))));
    }

    // Completeness (onto) equations (i): col0 = col1, col1 = col2.
    for (name, a, b) in [("Vonto01", 0, 1), ("Vonto12", 1, 2)] {
        let s = vec![projection(&schema, a)];
        let t = vec![projection(&schema, b)];
        defs.push((name.to_owned(), QueryExpr::Ucq(equation_view(&schema, &s, &t))));
    }

    if equality_free {
        // Congruence equations replace functionality.
        for slot in 0..3 {
            let s = congruence_side(&schema, slot, false);
            let t = congruence_side(&schema, slot, true);
            defs.push((
                format!("Vcong{slot}"),
                QueryExpr::Ucq(equation_view(&schema, &s, &t)),
            ));
        }
        // Associativity up to ≃.
        defs.push((
            "Vassoc".to_owned(),
            QueryExpr::Ucq(equation_view(
                &schema,
                &assoc_lhs(&schema),
                &diagonal_coproducible(&schema),
            )),
        ));
    } else {
        // Functionality (ii) and associativity (iii) against the true
        // diagonal.
        defs.push((
            "Vfunc".to_owned(),
            QueryExpr::Ucq(equation_view(
                &schema,
                &function_lhs(&schema),
                &diagonal_eq(&schema),
            )),
        ));
        defs.push((
            "Vassoc".to_owned(),
            QueryExpr::Ucq(equation_view(
                &schema,
                &assoc_lhs(&schema),
                &diagonal_eq(&schema),
            )),
        ));
    }

    let views = ViewSet::new(&schema, defs);

    // ψ_{H,F}(x,y): the equations of H as a conjunctive pattern, with the
    // goal symbols free.
    let psi = |with_marker: &str, force_eq: bool| -> Cq {
        let mut cq = Cq::new(&schema);
        let syms: Vec<_> = (0..h.num_symbols())
            .map(|i| cq.var(&h.symbols[i]))
            .collect();
        for &(a, b, c) in &h.eqs {
            cq.atoms.push(Atom::new(
                schema.rel("R"),
                vec![syms[a].into(), syms[b].into(), syms[c].into()],
            ));
        }
        cq.head = vec![syms[f.0].into(), syms[f.1].into()];
        cq.atom(with_marker, Vec::new());
        if force_eq {
            if equality_free {
                // x ≃ y via co-producibility atoms.
                let u = cq.var("cu");
                let v = cq.var("cv");
                cq.atoms.push(Atom::new(
                    schema.rel("R"),
                    vec![u.into(), v.into(), syms[f.0].into()],
                ));
                cq.atoms.push(Atom::new(
                    schema.rel("R"),
                    vec![u.into(), v.into(), syms[f.1].into()],
                ));
            } else {
                cq.add_eq(syms[f.0].into(), syms[f.1].into());
            }
        }
        assert!(cq.is_safe(), "goal symbols must occur in H");
        cq
    };

    // First disjunct family: p1 ∧ p2 ∧ (x,y) ∈ adom(R)².
    let mut disjuncts: Vec<Cq> = Vec::new();
    for px in 0..3 {
        for py in 0..3 {
            let mut cq = Cq::new(&schema);
            let x = cq.var("x");
            let y = cq.var("y");
            let r = schema.rel("R");
            let bind = |cq: &mut Cq, var: vqd_query::VarId, pos: usize| {
                let args: Vec<Term> = (0..3)
                    .map(|p| {
                        if p == pos {
                            Term::Var(var)
                        } else {
                            Term::Var(cq.var(&format!("w{p}")))
                        }
                    })
                    .collect();
                cq.atoms.push(Atom::new(r, args));
            };
            cq.head = vec![x.into(), y.into()];
            bind(&mut cq, x, px);
            bind(&mut cq, y, py);
            cq.atom("p1", Vec::new());
            cq.atom("p2", Vec::new());
            disjuncts.push(cq);
        }
    }
    // (p1 ∧ ψ ∧ x = y) and (p2 ∧ ψ).
    disjuncts.push(psi("p1", true));
    disjuncts.push(psi("p2", false));

    MonoidReduction {
        schema,
        views,
        query: Ucq::new(disjuncts),
        equality_free,
    }
}

/// Encodes an operation table (or any triple set) as an instance with the
/// given marker propositions.
pub fn triples_instance(
    schema: &Schema,
    triples: &[(usize, usize, usize)],
    p1: bool,
    p2: bool,
) -> Instance {
    let mut d = Instance::empty(schema);
    for &(x, y, z) in triples {
        d.insert_named(
            "R",
            vec![named(x as u32), named(y as u32), named(z as u32)],
        );
    }
    if p1 {
        d.rel_mut(schema.rel("p1")).set_truth(true);
    }
    if p2 {
        d.rel_mut(schema.rel("p2")).set_truth(true);
    }
    d
}

/// Encodes a monoidal operation as the paper's `D₁`/`D₂` pair (same `R`,
/// opposite markers).
pub fn op_pair(schema: &Schema, op: &OpTable) -> (Instance, Instance) {
    let graph = op.graph();
    (
        triples_instance(schema, &graph, true, false),
        triples_instance(schema, &graph, false, true),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::determinacy::semantic::{check_exhaustive, check_random, SemanticVerdict};
    use vqd_eval::{apply_views, eval_ucq};
    use vqd_monoid::{for_each_monoidal, word_problem_counterexample};
    use vqd_query::QueryExpr;

    fn commutativity_goal() -> (Equations, (usize, usize)) {
        // H = {a·b = c, b·a = d}; F: c = d — fails (non-commutative
        // monoidal functions exist).
        let mut h = Equations::new();
        h.add("a", "b", "c").add("b", "a", "d");
        let c = h.sym("c");
        let d = h.sym("d");
        (h, (c, d))
    }

    fn forced_goal() -> (Equations, (usize, usize)) {
        // H = {a·a = b, a·a = c}; F: b = c — holds (single-valuedness).
        let mut h = Equations::new();
        h.add("a", "a", "b").add("a", "a", "c");
        let b = h.sym("b");
        let c = h.sym("c");
        (h, (b, c))
    }

    #[test]
    fn marker_pair_has_equal_images_exactly_for_monoidal_relations() {
        let (h, f) = forced_goal();
        let red = theorem_4_5(&h, f, false);
        // Monoidal op: images of the marker pair must coincide.
        let op = OpTable::new(2, vec![0, 1, 1, 0]);
        let (d1, d2) = op_pair(&red.schema, &op);
        assert_eq!(
            apply_views(&red.views, &d1),
            apply_views(&red.views, &d2)
        );
        // Non-monoidal (not onto): images must differ.
        let bad = vec![(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)];
        let b1 = triples_instance(&red.schema, &bad, true, false);
        let b2 = triples_instance(&red.schema, &bad, false, true);
        assert_ne!(apply_views(&red.views, &b1), apply_views(&red.views, &b2));
    }

    #[test]
    fn failing_implication_yields_determinacy_counterexample() {
        let (h, f) = commutativity_goal();
        let cex = word_problem_counterexample(&h, f, 2).expect("commutativity fails");
        for equality_free in [false, true] {
            let red = theorem_4_5(&h, f, equality_free);
            let (d1, d2) = op_pair(&red.schema, &cex.op);
            assert_eq!(
                apply_views(&red.views, &d1),
                apply_views(&red.views, &d2),
                "monoidal pair must have equal images"
            );
            assert_ne!(
                eval_ucq(&red.query, &d1),
                eval_ucq(&red.query, &d2),
                "Q_H,F must separate the pair when H ⊭ F (equality_free={equality_free})"
            );
        }
    }

    #[test]
    fn holding_implication_keeps_marker_pairs_equal() {
        let (h, f) = forced_goal();
        for equality_free in [false, true] {
            let red = theorem_4_5(&h, f, equality_free);
            // Over every monoidal function up to size 3, the marker pair
            // must agree on Q.
            for_each_monoidal(3, |op| {
                let (d1, d2) = op_pair(&red.schema, op);
                assert_eq!(
                    eval_ucq(&red.query, &d1),
                    eval_ucq(&red.query, &d2),
                    "H ⊨ F but Q differs on {}",
                    op
                );
                true
            });
        }
    }

    #[test]
    fn exhaustive_determinacy_domain_2_matches_word_problem() {
        // Full semantic determinacy check over domain size 2 (2^8 × 4
        // instances): refuted exactly for the failing implication.
        let (h_bad, f_bad) = commutativity_goal();
        let red_bad = theorem_4_5(&h_bad, f_bad, false);
        let verdict = check_exhaustive(
            &red_bad.views,
            &QueryExpr::Ucq(red_bad.query.clone()),
            2,
            1 << 22,
        );
        assert!(verdict.is_refuted(), "H ⊭ F must refute determinacy: {verdict:?}");

        let (h_ok, f_ok) = forced_goal();
        let red_ok = theorem_4_5(&h_ok, f_ok, false);
        match check_exhaustive(
            &red_ok.views,
            &QueryExpr::Ucq(red_ok.query.clone()),
            2,
            1 << 22,
        ) {
            SemanticVerdict::NoCounterexampleUpTo(2) => {}
            other => panic!("H ⊨ F should not be refuted on domain 2: {other:?}"),
        }
    }

    #[test]
    fn randomized_search_agrees_on_domain_3() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let (h, f) = forced_goal();
        let red = theorem_4_5(&h, f, false);
        let mut rng = StdRng::seed_from_u64(5);
        let found = check_random(
            &red.views,
            &QueryExpr::Ucq(red.query.clone()),
            3,
            0.25,
            300,
            &mut rng,
        );
        assert!(found.is_none(), "no violation expected: {found:?}");
    }

    #[test]
    fn pseudo_monoidal_inflation_still_separates() {
        // Equality-free variant on an inflated pseudo-monoidal relation.
        let (h, f) = commutativity_goal();
        let cex = word_problem_counterexample(&h, f, 2).expect("fails");
        let red = theorem_4_5(&h, f, true);
        let triples = vqd_monoid::inflate_pseudo_monoidal(&cex.op, 2);
        let d1 = triples_instance(&red.schema, &triples, true, false);
        let d2 = triples_instance(&red.schema, &triples, false, true);
        assert_eq!(apply_views(&red.views, &d1), apply_views(&red.views, &d2));
        assert_ne!(eval_ucq(&red.query, &d1), eval_ucq(&red.query, &d2));
    }

    #[test]
    fn query_language_is_plain_ucq_when_equality_free() {
        let (h, f) = forced_goal();
        let red = theorem_4_5(&h, f, true);
        assert_eq!(red.query.language(), vqd_query::CqLang::Cq);
        let red_eq = theorem_4_5(&h, f, false);
        assert_eq!(red_eq.query.language(), vqd_query::CqLang::CqEq);
    }
}

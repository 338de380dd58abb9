//! Experiments E6–E8 and E12: the rewriting-language lower bounds.

use crate::report::Report;
use vqd_budget::{Budget, VqdError};
use vqd_core::determinacy::semantic::{check_exhaustive_ctx, SemanticVerdict};
use vqd_core::reductions::order::{example_3_2, order_query, order_schema, prop_5_7_views};
use vqd_core::witnesses::{prop_5_12, prop_5_12_fo_rewriting, prop_5_8, NonMonotonicityWitness};
use vqd_datalog::{eval_program_budgeted, EvalError, Program, Strategy};
use vqd_eval::{apply_views, eval_query};
use vqd_instance::{DomainNames, Instance, Schema};
use vqd_query::{parse_query, FoQuery, QueryExpr};

fn witness_report(
    id: &'static str,
    title: &'static str,
    w: &NonMonotonicityWitness,
    domains: std::ops::RangeInclusive<usize>,
    budget: &Budget,
) -> Report {
    let mut report = Report::new(id, title, &["fact", "value"]);
    let (i1, i2) = w.images();
    let (a1, a2) = w.answers();
    report.row(vec!["V(D1) ⊆ V(D2)".into(), i1.is_subinstance_of(&i2).to_string()]);
    report.row(vec!["Q(D1)".into(), a1.to_string()]);
    report.row(vec!["Q(D2)".into(), a2.to_string()]);
    report.row(vec!["Q(D1) ⊆ Q(D2)".into(), a1.is_subset(&a2).to_string()]);
    report.check(w.exhibits_nonmonotonicity(), "Q_V non-monotone on the paper's pair");
    let mut determined = true;
    for n in domains {
        match check_exhaustive_ctx(&w.views, &QueryExpr::Cq(w.query.clone()), n, 1 << 22, budget) {
            Ok(SemanticVerdict::Exhausted(e)) | Err(VqdError::Exhausted(e)) => {
                report.trip(&e);
                return report;
            }
            Ok(v) => {
                if v.is_refuted() {
                    determined = false;
                }
            }
            Err(e) => panic!("{id}: {e}"),
        }
    }
    report.row(vec!["V ↠ Q (exhaustive, bounded)".into(), determined.to_string()]);
    report.check(determined, "determinacy holds on bounded domains");
    report.note("Q_V must be non-monotone ⇒ no monotone language (CQ, UCQ, Datalog^≠) rewrites Q.");
    report
}

/// E6 — Proposition 5.8 (UCQ views, unary everything).
pub fn e6(budget: &Budget) -> Report {
    witness_report(
        "E6",
        "Prop 5.8: UCQ views with non-monotone Q_V (unary schema)",
        &prop_5_8(),
        1..=3,
        budget,
    )
}

/// E7 — Proposition 5.12 (CQ≠ views, binary R).
pub fn e7(budget: &Budget) -> Report {
    let w = prop_5_12();
    let mut report = witness_report(
        "E7",
        "Prop 5.12: CQ≠ views with non-monotone Q_V (binary schema)",
        &w,
        1..=3,
        budget,
    );
    if report.tripped() {
        return report;
    }
    // The paper's FO rewriting (V1 ∧ ¬V2) ∨ V3 is exact on small domains.
    let r = prop_5_12_fo_rewriting(&w);
    let mut exact = true;
    for d in vqd_instance::gen::InstanceEnumerator::new(&w.schema, 2) {
        if let Err(e) =
            budget.checkpoint_with(&"E7: verifying the FO rewriting over domain-2 instances")
        {
            report.trip(&e);
            return report;
        }
        let image = apply_views(&w.views, &d);
        if vqd_eval::eval_cq(&w.query, &d) != eval_query(&r, &image) {
            exact = false;
        }
    }
    report.row(vec!["FO rewriting (V1∧¬V2)∨V3 exact (dom 2)".into(), exact.to_string()]);
    report.check(exact, "the paper's non-monotone FO rewriting works");
    report
}

/// E8 — Corollaries 5.6/5.9/5.13: Datalog^≠ is monotone, so every
/// candidate program gets the Prop 5.8 witness wrong.
pub fn e8(budget: &Budget) -> Report {
    let mut report = Report::new(
        "E8",
        "Cor 5.9: monotone Datalog^≠ candidates all fail the Prop 5.8 witness",
        &["candidate program", "answer on V(D1)", "answer on V(D2)", "correct on both"],
    );
    let w = prop_5_8();
    let (i1, i2) = w.images();
    let (want1, want2) = w.answers();
    // Schema for candidate programs: σ_V plus an IDB answer predicate.
    let pschema = w.views.output_schema().extend([("Ans", 1)]);
    let lift = |img: &Instance| -> Instance {
        let mapping: Vec<_> = img.schema().rel_ids().collect();
        img.transport(&pschema, &mapping)
    };
    let e1 = lift(&i1);
    let e2 = lift(&i2);
    let candidates = [
        "Ans(x) :- V1(x).",
        "Ans(x) :- V2(x).",
        "Ans(x) :- V1(x).\nAns(x) :- V2(x), V1(y).",
        "Ans(x) :- V2(x), x != y, V3(y).",
        "Ans(x) :- V1(x).\nAns(x) :- V2(x).",
    ];
    let mut names = DomainNames::new();
    let mut any_correct = false;
    for src in candidates {
        if let Err(e) = budget.checkpoint_with(&format_args!("E8: at candidate `{src}`")) {
            report.trip(&e);
            return report;
        }
        let prog = Program::parse(&pschema, &mut names, src).expect("candidate parses");
        assert!(prog.is_negation_free(), "candidates must be Datalog^≠ (monotone)");
        let ans = pschema.rel("Ans");
        let run =
            |edb: &Instance| match eval_program_budgeted(&prog, edb, Strategy::SemiNaive, budget) {
                Ok(db) => Ok(db),
                Err(EvalError::Exhausted { info, .. }) => Err(*info),
                Err(e) => panic!("E8: {e}"),
            };
        let (out1, out2) = match (run(&e1), run(&e2)) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                report.trip(&e);
                return report;
            }
        };
        let ok1 = out1.rel(ans) == &want1;
        let ok2 = out2.rel(ans) == &want2;
        if ok1 && ok2 {
            any_correct = true;
        }
        report.row(vec![
            src.replace('\n', "  "),
            format!("{} ({})", out1.rel(ans), if ok1 { "ok" } else { "wrong" }),
            format!("{} ({})", out2.rel(ans), if ok2 { "ok" } else { "wrong" }),
            (ok1 && ok2).to_string(),
        ]);
    }
    report.check(!any_correct, "no monotone candidate matches Q_V on both images");
    report.note("V(D1) ⊆ V(D2) forces monotone outputs to grow, but Q_V shrinks: {a,b} → {a}.");
    report
}

/// E12 — Example 3.2 / Proposition 5.7: the order constructions
/// determine exactly the order-invariant queries.
pub fn e12(budget: &Budget) -> Report {
    let mut report = Report::new(
        "E12",
        "Ex 3.2 / Prop 5.7: order views determine order-invariant φ only",
        &["construction", "φ", "order-invariant", "V ↠ Q (dom ≤ 3)"],
    );
    let base = Schema::new([("P", 1)]);
    let slt = order_schema(&base);
    let mut names = DomainNames::new();
    let parse = |names: &mut DomainNames, src: &str| -> FoQuery {
        match parse_query(&slt, names, src).expect("parses") {
            QueryExpr::Fo(f) => f,
            _ => unreachable!(),
        }
    };
    let invariant = parse(&mut names, "F() := exists x y. x != y.");
    let sensitive = parse(&mut names, "F() := exists x. (P(x) & forall y. (y != x -> lt(x,y))).");
    for (construction, is_57) in
        [("Prop 5.7 (CQ¬ views)", true), ("Example 3.2 (FO Rψ view)", false)]
    {
        for (phi, label, inv) in
            [(&invariant, "∃≥2 elements", true), (&sensitive, "min(<) ∈ P", false)]
        {
            if let Err(e) =
                budget.checkpoint_with(&format_args!("E12: at `{construction}` × `{label}`"))
            {
                report.trip(&e);
                return report;
            }
            let (views, q) = if is_57 {
                (prop_5_7_views(&base), order_query(&slt, phi))
            } else {
                example_3_2(&base, phi)
            };
            let mut determined = true;
            for n in 1..=3 {
                match check_exhaustive_ctx(&views, &QueryExpr::Fo(q.clone()), n, 1 << 22, budget) {
                    Ok(SemanticVerdict::Exhausted(e)) | Err(VqdError::Exhausted(e)) => {
                        report.trip(&e);
                        return report;
                    }
                    Ok(v) => {
                        if v.is_refuted() {
                            determined = false;
                        }
                    }
                    Err(e) => panic!("E12: {e}"),
                }
            }
            report.row(vec![
                construction.to_string(),
                label.to_string(),
                inv.to_string(),
                determined.to_string(),
            ]);
            report.check(determined == inv, "determinacy ⟺ order invariance (on these φ)");
        }
    }
    report.note("For order-invariant φ beyond FO (Gurevich), no FO rewriting exists — the classical part we cite rather than re-prove.");
    report
}

//! Experiments E4 and E5: the undecidability reductions, machine-checked
//! on the finite prefix of their universes.

use crate::report::Report;
use vqd_budget::{Budget, VqdError};
use vqd_core::determinacy::semantic::{check_exhaustive_ctx, SemanticVerdict};
use vqd_core::reductions::monoid::{op_pair, theorem_4_5};
use vqd_core::reductions::satisfiability::{from_satisfiability, from_validity};
use vqd_eval::{apply_views, eval_ucq};
use vqd_instance::{DomainNames, Schema};
use vqd_monoid::{for_each_monoidal, word_problem_counterexample, Equations};
use vqd_query::{parse_query, FoQuery, QueryExpr};

/// Named word-problem cases for E4.
fn cases() -> Vec<(&'static str, Equations, (usize, usize))> {
    let mut out = Vec::new();
    {
        // Fails: monoids need not be commutative.
        let mut h = Equations::new();
        h.add("a", "b", "c").add("b", "a", "d");
        let f = (h.sym("c"), h.sym("d"));
        out.push(("commutativity", h, f));
    }
    {
        // Holds: operations are single-valued.
        let mut h = Equations::new();
        h.add("a", "a", "b").add("a", "a", "c");
        let f = (h.sym("b"), h.sym("c"));
        out.push(("single-valuedness", h, f));
    }
    {
        // Fails: a·b = a does not make b an identity for a.
        let mut h = Equations::new();
        h.add("a", "b", "a");
        let f = (h.sym("a"), h.sym("b"));
        out.push(("left-absorption", h, f));
    }
    {
        // Holds: forced chain a·a=b, b·b=c, a·a=b' ⇒ b=b'.
        let mut h = Equations::new();
        h.add("a", "a", "b").add("b", "b", "c").add("a", "a", "d");
        let f = (h.sym("b"), h.sym("d"));
        out.push(("forced-chain", h, f));
    }
    out
}

/// E4 — Theorem 4.5: `V ↠ Q_{H,F}` ⟺ `H ⊨ F` over monoidal
/// functions, verified on all monoidal functions of size ≤ 3 and by
/// exhaustive determinacy on domain 2.
pub fn e4(budget: &Budget) -> Report {
    let mut report = Report::new(
        "E4",
        "Thm 4.5: word problem ⇔ UCQ determinacy (both variants)",
        &["case", "variant", "H⊨F (≤3)", "marker pairs agree", "determinacy (dom 2)", "match"],
    );
    for (name, h, f) in cases() {
        let holds = word_problem_counterexample(&h, f, 3).is_none();
        for equality_free in [false, true] {
            if let Err(e) = budget.checkpoint_with(&format_args!("E4: at case `{name}`")) {
                report.trip(&e);
                return report;
            }
            let red = theorem_4_5(&h, f, equality_free);
            // Marker-pair test over every monoidal function of size ≤ 3:
            // equal images always; equal Q-answers iff H ⊨ F (over this
            // prefix).
            let mut pairs_ok = true;
            let mut some_split = false;
            for n in 1..=3 {
                for_each_monoidal(n, |op| {
                    let (d1, d2) = op_pair(&red.schema, op);
                    if apply_views(&red.views, &d1) != apply_views(&red.views, &d2) {
                        pairs_ok = false;
                    }
                    if eval_ucq(&red.query, &d1) != eval_ucq(&red.query, &d2) {
                        some_split = true;
                    }
                    true
                });
            }
            let split_matches = some_split != holds;
            // Exhaustive finite determinacy on domain 2.
            let verdict = match check_exhaustive_ctx(
                &red.views,
                &QueryExpr::Ucq(red.query.clone()),
                2,
                1 << 22,
                budget,
            ) {
                Ok(SemanticVerdict::Exhausted(e)) | Err(VqdError::Exhausted(e)) => {
                    report.trip(&e);
                    return report;
                }
                Ok(v) => v,
                Err(e) => panic!("E4: {e}"),
            };
            let det = !verdict.is_refuted();
            // On domain 2 the only monoidal counterexamples of size ≤ 2
            // are visible; determinacy verdict must match H ⊨ F *over
            // functions of size ≤ 2* — recompute at that bound for the
            // apples-to-apples comparison.
            let holds_2 = word_problem_counterexample(&h, f, 2).is_none();
            let matches = det == holds_2 && pairs_ok && split_matches;
            report.row(vec![
                name.to_string(),
                if equality_free { "no-=" } else { "UCQ=" }.to_string(),
                holds.to_string(),
                pairs_ok.to_string(),
                if det { "holds(dom2)".into() } else { "refuted".to_string() },
                matches.to_string(),
            ]);
            report.check(pairs_ok, "monoidal marker pairs have equal images");
            report.check(split_matches, "Q splits a pair iff H ⊭ F");
            report.check(det == holds_2, "domain-2 determinacy ⟺ H ⊨ F (size ≤ 2)");
        }
    }
    report.note("The full problem is undecidable (Gurevich 1966); the bound makes the equivalence checkable.");
    report
}

/// E5 — Proposition 4.1: the (un)satisfiability / validity reductions.
pub fn e5(budget: &Budget) -> Report {
    let mut report = Report::new(
        "E5",
        "Prop 4.1: determinacy inherits undecidability from sat/validity",
        &["sentence", "property", "reduction", "V ↠ Q (dom ≤ 3)", "expected"],
    );
    let schema = Schema::new([("P", 1)]);
    let sentence = |src: &str| -> FoQuery {
        let mut names = DomainNames::new();
        match parse_query(&schema, &mut names, src).expect("parses") {
            QueryExpr::Fo(f) => f,
            _ => unreachable!(),
        }
    };
    let cases = [
        ("∃x P(x)", "satisfiable", false, true),
        ("∃x (P(x) ∧ ¬P(x))", "unsatisfiable", true, true),
        ("∀x (P(x) → P(x))", "valid", true, false),
        ("∃x P(x)", "not valid", false, false),
    ];
    let sources = [
        "S() := exists x. P(x).",
        "S() := exists x. (P(x) & ~P(x)).",
        "S() := forall x. (P(x) -> P(x)).",
        "S() := exists x. P(x).",
    ];
    for ((label, property, expected, use_sat), src) in cases.iter().zip(sources) {
        if let Err(e) = budget.checkpoint_with(&format_args!("E5: at sentence `{label}`")) {
            report.trip(&e);
            return report;
        }
        let phi = sentence(src);
        let (views, q) = if *use_sat { from_satisfiability(&phi) } else { from_validity(&phi) };
        let mut determined = true;
        for n in 1..=3 {
            match check_exhaustive_ctx(&views, &q, n, 1 << 22, budget) {
                Ok(SemanticVerdict::Exhausted(e)) | Err(VqdError::Exhausted(e)) => {
                    report.trip(&e);
                    return report;
                }
                Ok(v) => {
                    if v.is_refuted() {
                        determined = false;
                    }
                }
                Err(e) => panic!("E5: {e}"),
            }
        }
        report.row(vec![
            label.to_string(),
            property.to_string(),
            if *use_sat { "sat→det" } else { "valid→det" }.to_string(),
            determined.to_string(),
            expected.to_string(),
        ]);
        report.check(determined == *expected, "reduction direction");
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e5_passes() {
        assert!(e5(&Budget::unlimited()).pass);
    }

    #[test]
    fn e5_degrades_gracefully_on_a_tiny_budget() {
        let b = Budget::unlimited().with_step_limit(1);
        let r = e5(&b);
        assert!(r.tripped() || r.pass);
    }

    // E4 is exercised from the integration suite (it is slower).
    #[test]
    fn cases_are_wellformed() {
        for (_, h, f) in cases() {
            assert!(f.0 < h.num_symbols() && f.1 < h.num_symbols());
        }
    }

    #[test]
    fn report_shapes() {
        let r = e5(&Budget::unlimited());
        assert_eq!(r.rows.len(), 4);
    }

    #[allow(dead_code)]
    fn silence_unused() {
        let _ = Schema::new([("Z", 1)]);
    }
}

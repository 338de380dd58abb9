//! Experiments E15 and E16: structural properties of the induced
//! mapping `Q_V` (Proposition 4.3 and the Theorem 5.11 probe).

use crate::report::Report;
use vqd_budget::Budget;
use vqd_core::genericity::{find_genericity_violation, proposition_4_3};
use vqd_core::qv_probe::qv_monotonicity_probe;
use vqd_core::witnesses::prop_5_8;
use vqd_instance::{named, DomainNames, Instance, Schema};
use vqd_query::{parse_program, parse_query, QueryExpr, ViewSet};

fn setup(schema: &Schema, view_src: &str, q_src: &str) -> (ViewSet, QueryExpr) {
    let mut names = DomainNames::new();
    let prog = parse_program(schema, &mut names, view_src).unwrap();
    let views = ViewSet::new(schema, prog.defs);
    let q = parse_query(schema, &mut names, q_src).unwrap();
    (views, q)
}

/// E15 — Proposition 4.3: the genericity necessary conditions as a
/// determinacy pre-filter.
pub fn e15(budget: &Budget) -> Report {
    let mut report = Report::new(
        "E15",
        "Prop 4.3: adom containment and automorphism transfer for Q_V",
        &["pair", "adom ⊆", "automorphisms transfer", "expected violation"],
    );
    let schema = Schema::new([("E", 2), ("P", 1)]);

    // Determined pair: both conditions hold everywhere (domain ≤ 3).
    {
        if let Err(e) = budget.checkpoint_with(&"E15: at the determined pair") {
            report.trip(&e);
            return report;
        }
        let (v, q) = setup(&schema, "V(x,y) :- E(x,y).", "Q(x,z) :- E(x,y), E(y,z).");
        let violation = find_genericity_violation(&v, &q, 3, 1 << 26);
        report.row(vec![
            "identity views / 2-path query".into(),
            "all".into(),
            "all".into(),
            "none".into(),
        ]);
        report.check(violation.is_none(), "determined pair passes Prop 4.3 everywhere");
    }
    // Hidden values: condition (i) fails.
    {
        if let Err(e) = budget.checkpoint_with(&"E15: at the hidden-values pair") {
            report.trip(&e);
            return report;
        }
        let (v, q) = setup(&schema, "V(x) :- P(x).", "Q(x,y) :- E(x,y).");
        let violation = find_genericity_violation(&v, &q, 2, 1 << 26);
        let found = violation.as_ref().map(|(_, r)| !r.adom_contained).unwrap_or(false);
        report.row(vec![
            "P-only views / edge query".into(),
            "violated".into(),
            "-".into(),
            "adom (i)".into(),
        ]);
        report.check(found, "hidden values caught by condition (i)");
    }
    // Direction-forgetting views: condition (ii) fails.
    {
        let (v, q) = setup(&schema, "V(x,y) :- E(x,y).\nV(x,y) :- E(y,x).", "Q(x,y) :- E(x,y).");
        let mut d = Instance::empty(&schema);
        d.insert_named("E", vec![named(0), named(1)]);
        let r = proposition_4_3(&v, &q, &d);
        report.row(vec![
            "symmetrized views / directed query".into(),
            r.adom_contained.to_string(),
            r.automorphisms_transfer.to_string(),
            "automorphism (ii)".into(),
        ]);
        report.check(r.adom_contained, "condition (i) holds here");
        report.check(!r.automorphisms_transfer, "condition (ii) violated as expected");
    }
    report.note("Each violation is a constructive refutation of V ↠ Q — a cheap filter before the chase/semantic machinery.");
    report
}

/// E16 — Theorem 5.11: is `Q_V` monotone? Measured over all realized
/// view images on bounded domains.
pub fn e16(budget: &Budget) -> Report {
    let mut report = Report::new(
        "E16",
        "Thm 5.11 probe: monotonicity of Q_V over realized images",
        &["pair", "images", "⊆-comparable", "violations", "clashes", "expected"],
    );
    let schema = Schema::new([("E", 2)]);

    // CQ-determined pair: Q_V is a CQ (Thm 3.3) hence monotone.
    {
        if let Err(e) = budget.checkpoint_with(&"E16: at the first CQ pair") {
            report.trip(&e);
            return report;
        }
        let (v, q) = setup(&schema, "V(x,y) :- E(x,y).", "Q(x,z) :- E(x,y), E(y,z).");
        let p = qv_monotonicity_probe(&v, &q, 3, 1 << 26).expect("fits");
        report.row(vec![
            "CQ determined".into(),
            p.images.to_string(),
            p.comparable_pairs.to_string(),
            p.violations.len().to_string(),
            p.determinacy_clashes.to_string(),
            "monotone".into(),
        ]);
        report.check(p.violations.is_empty() && p.determinacy_clashes == 0, "CQ Q_V monotone");
    }
    // A second CQ pair, determined through a join.
    {
        let (v, q) = setup(&schema, "V(x,y) :- E(x,y).", "Q(x,y) :- E(x,y), E(y,y).");
        let p = qv_monotonicity_probe(&v, &q, 3, 1 << 26).expect("fits");
        report.row(vec![
            "CQ determined (loop join)".into(),
            p.images.to_string(),
            p.comparable_pairs.to_string(),
            p.violations.len().to_string(),
            p.determinacy_clashes.to_string(),
            "monotone".into(),
        ]);
        report.check(p.violations.is_empty(), "CQ Q_V monotone (2)");
    }
    // The Prop 5.8 UCQ witness: determined but non-monotone Q_V.
    {
        if let Err(e) = budget.checkpoint_with(&"E16: at the Prop 5.8 witness") {
            report.trip(&e);
            return report;
        }
        let w = prop_5_8();
        let p = qv_monotonicity_probe(&w.views, &QueryExpr::Cq(w.query.clone()), 2, 1 << 26)
            .expect("fits");
        report.row(vec![
            "Prop 5.8 (UCQ views)".into(),
            p.images.to_string(),
            p.comparable_pairs.to_string(),
            p.violations.len().to_string(),
            p.determinacy_clashes.to_string(),
            "NON-monotone".into(),
        ]);
        report.check(p.determinacy_clashes == 0, "Prop 5.8 stays determined");
        report.check(!p.violations.is_empty(), "UCQ witness caught non-monotone");
    }
    report.note("For CQ views/queries, a violation on ANY finite domain would settle the paper's open question (Thm 5.11, 3 ⇒ 1) negatively.");
    report
}

//! Experiments E10 and E11: the expressiveness lower bounds (Theorems
//! 5.4 and 5.1).

use crate::report::Report;
use vqd_budget::Budget;
use vqd_core::reductions::parity::{canonical_matching, parity_construction, parity_instance};
use vqd_core::reductions::turing::theorem_5_1;
use vqd_eval::{apply_views, eval_fo};
use vqd_instance::named;
use vqd_turing::{build_instance, reference_query, Tm};

/// E10 — Theorem 5.4: the GIMP construction on parity-via-matchings.
pub fn e10(max_n: usize, budget: &Budget) -> Report {
    let mut report = Report::new(
        "E10",
        "Thm 5.4: implicit definability — Q_V computes parity (∉ FO)",
        &["|U|", "Q (even?)", "expected", "image trivial ext. of D(τ)", "witness-independent"],
    );
    let con = parity_construction();
    report.note(format!(
        "{} subformula nodes, {} views over τ'' with {} relations",
        con.num_subformulas(),
        con.views.len(),
        con.tau_pp.len()
    ));
    for n in 0..=max_n {
        if let Err(e) =
            budget.checkpoint_with(&format_args!("E10: at universe size {n} of {max_n}"))
        {
            report.trip(&e);
            return report;
        }
        let base = parity_instance(n, &canonical_matching(n));
        let full = con.complete(&base);
        let out = eval_fo(&con.query, &full).truth();
        let expected = n % 2 == 0;
        // Triviality: zero-views empty, full-views = adom^k.
        let image = apply_views(&con.views, &full);
        let adom: Vec<_> = full.adom().into_iter().collect();
        let mut trivial = true;
        for (rel, decl) in image.schema().iter() {
            let name = image.schema().name(rel);
            if name.starts_with("Vzero") || name.starts_with("Vand") || name.starts_with("Vex_a") {
                trivial &= image.rel(rel).is_empty();
            } else if name.starts_with("Vfull") || name.starts_with("Vex_b") {
                trivial &= image.rel(rel) == &vqd_instance::Relation::full(decl.arity, &adom);
            }
        }
        // Witness independence: a different maximal matching gives the
        // same image and answer (only meaningful for n ≥ 4 where two
        // distinct matchings exist).
        let independent = if n >= 4 {
            let alt: Vec<(u32, u32)> = {
                let mut m = canonical_matching(n);
                // Re-pair the first four elements crosswise.
                m[0] = (0, 2);
                m[1] = (1, 3);
                m
            };
            let alt_full = con.complete(&parity_instance(n, &alt));
            apply_views(&con.views, &alt_full) == image
                && eval_fo(&con.query, &alt_full).truth() == out
        } else {
            true
        };
        report.row(vec![
            n.to_string(),
            out.to_string(),
            expected.to_string(),
            trivial.to_string(),
            independent.to_string(),
        ]);
        report.check(out == expected, "Q reports parity");
        report.check(trivial, "σ-views expose only consistency");
        report.check(independent, "answer independent of the witness matching");
    }
    report.note("Parity is not FO-definable: Q_V needs ∃SO ∩ ∀SO power (Thm 5.5), so FO is not complete for UCQ-to-FO rewritings.");
    report
}

/// E11 — Theorem 5.1: FO views whose induced query is a full Turing
/// computation.
pub fn e11(budget: &Budget) -> Report {
    let mut report = Report::new(
        "E11",
        "Thm 5.1: φ_M views — Q_V computes the machine's graph query",
        &["machine", "graph", "V image = R1", "Q = q(R1)", "corrupt ⇒ silent"],
    );
    let graphs: [&[(usize, usize)]; 3] =
        [&[(0, 1), (1, 0)], &[(0, 0), (0, 1), (1, 0)], &[(0, 1), (1, 1), (1, 0)]];
    for tm in [Tm::instant_accept(), Tm::bounce(), Tm::complement(), Tm::erase()] {
        let con = theorem_5_1(&tm);
        for edges in graphs {
            if let Err(e) = budget.checkpoint_with(&format_args!("E11: at machine `{}`", tm.name)) {
                report.trip(&e);
                return report;
            }
            let inst = build_instance(&tm, 2, edges, 4).expect("run fits");
            let image = apply_views(&con.views, &inst);
            let view_ok = image.rel_named("V") == inst.rel_named("R1");
            let out = eval_fo(&con.query, &inst);
            let expected = reference_query(&tm, 2, edges);
            let q_ok = out.len() == expected.len()
                && expected.iter().all(|&(u, v)| out.contains(&[named(u as u32), named(v as u32)]));
            // Corruption: drop an order tuple — φ_M fails, everything
            // goes silent.
            let mut corrupt = inst.clone();
            let le = corrupt.schema().rel("leq");
            corrupt.rel_mut(le).remove(&[named(0), named(3)]);
            let silent = apply_views(&con.views, &corrupt).rel_named("V").is_empty()
                && eval_fo(&con.query, &corrupt).is_empty();
            report.row(vec![
                tm.name.to_string(),
                format!("{edges:?}"),
                view_ok.to_string(),
                q_ok.to_string(),
                silent.to_string(),
            ]);
            report.check(view_ok, "view image is the input graph");
            report.check(q_ok, "Q computes q(R1)");
            report.check(silent, "ill-formed encodings are silenced");
        }
    }
    report.note("Any language complete for FO-to-FO rewritings must express q for every TM M — all computable queries.");
    report
}

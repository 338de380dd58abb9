//! Experiments E9 and E14: the complexity of query answering and
//! certain answers.

use crate::genq::{path_query, path_views};
use crate::report::Report;
use std::time::Instant;
use vqd_budget::Budget;
use vqd_core::answering::{answer_conp, answer_np, chase_preimage, preimage_bound};
use vqd_core::certain::{certain_exact_bounded, certain_sound};
use vqd_eval::{apply_views, eval_cq};
use vqd_instance::{named, Instance, Schema};
use vqd_query::QueryExpr;

/// E9 — Theorem 5.2 / Lemma 5.3: NP guess-and-check query answering;
/// the chase fast path vs. the exponential bounded search.
pub fn e9(max_edges: usize, budget: &Budget) -> Report {
    let mut report = Report::new(
        "E9",
        "Thm 5.2 / Lemma 5.3: query answering for ∃FO (CQ) views in NP ∩ coNP",
        &[
            "|extent|",
            "Lemma 5.3 bound",
            "chase (µs)",
            "NP search (µs)",
            "#preimages",
            "consistent",
        ],
    );
    let schema = Schema::new([("E", 2)]);
    let views = path_views(&schema, 1); // identity views: V = E
    let q = QueryExpr::Cq(path_query(&schema, 2));
    for edges in 1..=max_edges {
        if let Err(e) =
            budget.checkpoint_with(&format_args!("E9: at extent size {edges} of {max_edges}"))
        {
            report.trip(&e);
            return report;
        }
        // Extent: a chain of `edges` view tuples.
        let mut d = Instance::empty(&schema);
        for i in 0..edges {
            d.insert_named("E", vec![named(i as u32), named(i as u32 + 1)]);
        }
        let extent = apply_views(views.as_view_set(), &d);
        let bound = preimage_bound(views.as_view_set(), &extent);

        let t0 = Instant::now();
        let fast = chase_preimage(&views, &extent);
        let chase_us = t0.elapsed().as_micros();
        report.check(fast.is_some(), "chase fast path finds a preimage");

        let t1 = Instant::now();
        let np = answer_np(views.as_view_set(), &q, &extent, 0, 1 << 24);
        let np_us = t1.elapsed().as_micros();
        report.check(np.is_some(), "NP search finds a preimage");

        let conp = answer_conp(views.as_view_set(), &q, &extent, 0, 1 << 24);
        let (inspected, consistent) =
            conp.as_ref().map(|o| (o.preimages_inspected, o.consistent)).unwrap_or((0, false));
        report.check(consistent, "all preimages agree (V ↠ Q here)");
        if let (Some(np), Some(conp)) = (&np, &conp) {
            report.check(*np == conp.answer, "NP and coNP answers coincide");
            report.check(np == &eval_cq(&path_query(&schema, 2), &d), "answer equals Q(D)");
        }
        report.row(vec![
            edges.to_string(),
            bound.to_string(),
            chase_us.to_string(),
            np_us.to_string(),
            inspected.to_string(),
            consistent.to_string(),
        ]);
    }
    report.note("The NP column grows exponentially with the extent (2^(n²) candidate instances) — figure F6 measures the wall.");
    report
}

/// E14 — certain answers: exact vs. sound views, collapse under
/// determinacy, certain/possible gap without it.
pub fn e14(budget: &Budget) -> Report {
    let mut report = Report::new(
        "E14",
        "Certain answers [1]: chase (sound views) vs. intersection (exact views)",
        &["scenario", "certain", "possible", "collapse"],
    );
    let schema = Schema::new([("E", 2)]);

    // Scenario 1: identity views (determined) — everything collapses.
    {
        if let Err(e) = budget.checkpoint_with(&"E14: at scenario 1 (identity views)") {
            report.trip(&e);
            return report;
        }
        let views = path_views(&schema, 1);
        let q = path_query(&schema, 2);
        let mut d = Instance::empty(&schema);
        d.insert_named("E", vec![named(0), named(1)]);
        d.insert_named("E", vec![named(1), named(2)]);
        let extent = apply_views(views.as_view_set(), &d);
        let exact = certain_exact_bounded(
            views.as_view_set(),
            &QueryExpr::Cq(q.clone()),
            &extent,
            0,
            1 << 22,
        )
        .expect("preimages exist");
        let sound = certain_sound(&views, &q, &extent);
        let truth = eval_cq(&q, &d);
        report.row(vec![
            "identity views (V ↠ Q)".into(),
            exact.certain.to_string(),
            exact.possible.to_string(),
            (exact.certain == exact.possible).to_string(),
        ]);
        report.check(exact.certain == truth, "exact-certain = Q(D)");
        report.check(sound == truth, "sound-certain = Q(D) (chase)");
        report.check(exact.certain == exact.possible, "certain = possible under determinacy");
    }

    // Scenario 2: 2-path views, edge query (not determined) — gap.
    {
        if let Err(e) = budget.checkpoint_with(&"E14: at scenario 2 (2-path views)") {
            report.trip(&e);
            return report;
        }
        let views = path_views(&schema, 2);
        let q = path_query(&schema, 1); // the raw edge relation
        let mut extent = Instance::empty(views.as_view_set().output_schema());
        extent.insert_named("V", vec![named(0), named(1)]);
        let exact = certain_exact_bounded(
            views.as_view_set(),
            &QueryExpr::Cq(q.clone()),
            &extent,
            1,
            1 << 24,
        )
        .expect("preimages exist");
        let sound = certain_sound(&views, &q, &extent);
        report.row(vec![
            "2-path views, edge query".into(),
            exact.certain.to_string(),
            exact.possible.to_string(),
            (exact.certain == exact.possible).to_string(),
        ]);
        report.check(
            exact.certain.len() < exact.possible.len(),
            "certain ⊊ possible without determinacy",
        );
        // Sound-view certain answers are a subset of exact-view ones
        // (more possible worlds to intersect over).
        report.check(
            sound.is_subset(&exact.certain) || sound.is_empty(),
            "sound-certain ⊆ exact-certain",
        );
        report.row(vec!["  └ sound-view chase".into(), sound.to_string(), "-".into(), "-".into()]);
        report.note(
            "Exact-view certain answers are intersected over the *bounded* preimage space \
             and may over-approximate the unbounded notion; the sound-view chase row is exact.",
        );
    }
    report
}

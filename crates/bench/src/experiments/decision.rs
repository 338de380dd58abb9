//! Experiments E1–E3 and E13: the decision procedures against ground
//! truth.

use crate::genq::{path_query, path_views, random_cq, random_cq_views, CqGen};
use crate::report::Report;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vqd_budget::{Budget, VqdError};
use vqd_chase::{CqViews, Tower};
use vqd_core::determinacy::semantic::{check_exhaustive_ctx, SemanticVerdict};
use vqd_core::determinacy::unrestricted::decide_unrestricted_budgeted;
use vqd_core::rewriting::{decide_boolean_unary, is_exact_rewriting};
use vqd_eval::{apply_views, eval_cq};
use vqd_instance::gen::random_instance;
use vqd_instance::Schema;
use vqd_query::{Cq, QueryExpr};

fn graph_schema() -> Schema {
    Schema::new([("E", 2), ("P", 1)])
}

/// E1 — Theorem 3.7: the chase decision procedure vs. exhaustive
/// semantics on random CQ view/query pairs.
pub fn e1(samples: usize, seed: u64, budget: &Budget) -> Report {
    let mut report = Report::new(
        "E1",
        "Thm 3.7: unrestricted CQ determinacy decision vs. bounded semantics",
        &["pairs", "determined", "refuted(fin)", "open(fin)", "contradictions"],
    );
    let schema = graph_schema();
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut determined, mut refuted, mut open, mut contradictions) = (0, 0, 0, 0);
    for done in 0..samples {
        if let Err(e) =
            budget.checkpoint_with(&format_args!("E1: {done} of {samples} pairs checked"))
        {
            report.trip(&e);
            break;
        }
        let views = random_cq_views(&schema, 2, CqGen { atoms: 2, vars: 3, max_head: 2 }, &mut rng);
        let q = random_cq(&schema, CqGen { atoms: 2, vars: 3, max_head: 2 }, &mut rng);
        if q.atoms.is_empty() {
            continue;
        }
        let out = match decide_unrestricted_budgeted(&views, &q, budget) {
            Ok(out) => out,
            Err(VqdError::Exhausted(e)) => {
                report.trip(&e);
                break;
            }
            Err(e) => panic!("E1: {e}"),
        };
        let sem = match check_exhaustive_ctx(
            views.as_view_set(),
            &QueryExpr::Cq(q.clone()),
            2,
            1 << 22,
            budget,
        ) {
            Ok(SemanticVerdict::Exhausted(e)) | Err(VqdError::Exhausted(e)) => {
                report.trip(&e);
                break;
            }
            Ok(v) => v,
            Err(e) => panic!("E1: {e}"),
        };
        match (&out.determined, &sem) {
            (true, SemanticVerdict::NotDetermined(_)) => {
                // Unrestricted determinacy implies finite determinacy: a
                // semantic refutation here is a soundness bug.
                contradictions += 1;
            }
            (true, _) => determined += 1,
            (false, SemanticVerdict::NotDetermined(_)) => refuted += 1,
            (false, _) => open += 1,
        }
    }
    report.row(vec![
        samples.to_string(),
        determined.to_string(),
        refuted.to_string(),
        open.to_string(),
        contradictions.to_string(),
    ]);
    report.check(contradictions == 0, "decision procedure sound w.r.t. semantics");
    report.check(determined > 0, "some pairs decided positive");
    report.check(refuted > 0, "some pairs refuted");
    report.note("`open`: chase says 'not unrestricted-determined' and no finite counterexample up to domain 2 — the Theorem 5.11 regime.");
    report
}

/// E2 — Theorem 3.3: when the procedure says determined, the canonical
/// rewriting is exact (verified by expansion equivalence and on random
/// instances).
pub fn e2(samples: usize, seed: u64, budget: &Budget) -> Report {
    let mut report = Report::new(
        "E2",
        "Thm 3.3: canonical rewriting Q_V is exact whenever the test passes",
        &["determined pairs", "expansion-verified", "instance-verified"],
    );
    let schema = graph_schema();
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut found, mut expansion_ok, mut instance_ok) = (0, 0, 0);
    while found < samples {
        if let Err(e) = budget
            .checkpoint_with(&format_args!("E2: {found} of {samples} determined pairs verified"))
        {
            report.trip(&e);
            break;
        }
        let views = random_cq_views(&schema, 2, CqGen { atoms: 2, vars: 3, max_head: 2 }, &mut rng);
        let q = random_cq(&schema, CqGen { atoms: 2, vars: 3, max_head: 2 }, &mut rng);
        let out = match decide_unrestricted_budgeted(&views, &q, budget) {
            Ok(out) => out,
            Err(VqdError::Exhausted(e)) => {
                report.trip(&e);
                break;
            }
            Err(e) => panic!("E2: {e}"),
        };
        let Some(rewriting) = out.rewriting else {
            continue;
        };
        found += 1;
        if is_exact_rewriting(&views, &q, &rewriting) {
            expansion_ok += 1;
        }
        let mut all_match = true;
        for _ in 0..5 {
            let d = random_instance(&schema, 4, rng.gen_range(0.1..0.5), &mut rng);
            let image = apply_views(views.as_view_set(), &d);
            if eval_cq(&q, &d) != eval_cq(&rewriting, &image) {
                all_match = false;
            }
        }
        if all_match {
            instance_ok += 1;
        }
    }
    report.row(vec![found.to_string(), expansion_ok.to_string(), instance_ok.to_string()]);
    report.check(expansion_ok == found, "every rewriting passes expansion equivalence");
    report.check(instance_ok == found, "every rewriting matches Q on sampled instances");
    report
}

/// E3 — Proposition 3.6: the counterexample tower's invariants, level by
/// level, on the classic 2-path-views / 3-path-query pair.
pub fn e3(levels: usize, budget: &Budget) -> Report {
    let mut report = Report::new(
        "E3",
        "Thm 3.3 proof: the D_k/D'_k tower and Proposition 3.6 invariants",
        &["level", "|D_k|", "|D'_k|", "|S_k \\ S'_k|", "x̄∈Q(D_k)", "x̄∈Q(D'_k)", "invariants"],
    );
    let schema = Schema::new([("E", 2)]);
    let views = path_views(&schema, 2);
    let q = path_query(&schema, 3);
    let mut tower = match Tower::try_new(&views, &q, budget) {
        Ok(t) => t,
        Err(VqdError::Exhausted(e)) => {
            report.trip(&e);
            return report;
        }
        Err(e) => panic!("E3: {e}"),
    };
    if let Err(VqdError::Exhausted(e)) = tower.try_grow_to(&views, levels + 1, budget) {
        report.trip(&e);
        return report;
    }
    for k in 0..levels {
        let inv = tower.check_invariants(k);
        let (in_d, in_dp) = tower.separation(&q, k);
        report.row(vec![
            k.to_string(),
            tower.d[k].total_tuples().to_string(),
            tower.d_prime[k].total_tuples().to_string(),
            tower.image_gap(k).to_string(),
            in_d.to_string(),
            in_dp.to_string(),
            if inv.all_hold() { "all hold".into() } else { format!("{inv:?}") },
        ]);
        report.check(inv.all_hold(), "Proposition 3.6 invariants");
        report.check(in_d, "x̄ ∈ Q(D_k)");
        report.check(!in_dp, "x̄ ∉ Q(D'_k)");
    }
    report.note(
        "V(D_∞) = V(D'_∞) in the limit while Q separates them: the unrestricted counterexample.",
    );
    report
}

/// E13 — Theorem 4.6: Boolean/unary CQ views — determinacy decided via
/// rewriting existence, cross-checked exhaustively.
pub fn e13(samples: usize, seed: u64, budget: &Budget) -> Report {
    let mut report = Report::new(
        "E13",
        "Thm 4.6: Boolean/unary views — decidable via CQ-rewriting existence",
        &["pairs", "decided-determined", "decided-not", "semantic-agreement"],
    );
    let schema = graph_schema();
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut pos, mut neg, mut agree, mut total) = (0, 0, 0, 0);
    for done in 0..samples {
        if let Err(e) =
            budget.checkpoint_with(&format_args!("E13: {done} of {samples} pairs checked"))
        {
            report.trip(&e);
            break;
        }
        // Unary/Boolean views only.
        let views = {
            let defs: Vec<(String, QueryExpr)> = (0..2)
                .map(|i| {
                    let mut q: Cq;
                    loop {
                        q = random_cq(&schema, CqGen { atoms: 2, vars: 3, max_head: 1 }, &mut rng);
                        if q.arity() <= 1 {
                            break;
                        }
                    }
                    (format!("V{i}"), QueryExpr::Cq(q))
                })
                .collect();
            CqViews::new(vqd_query::ViewSet::new(&schema, defs))
        };
        let q = random_cq(&schema, CqGen { atoms: 2, vars: 3, max_head: 1 }, &mut rng);
        total += 1;
        let decided = decide_boolean_unary(&views, &q);
        let sem = match check_exhaustive_ctx(
            views.as_view_set(),
            &QueryExpr::Cq(q.clone()),
            2,
            1 << 22,
            budget,
        ) {
            Ok(SemanticVerdict::Exhausted(e)) | Err(VqdError::Exhausted(e)) => {
                report.trip(&e);
                break;
            }
            Ok(v) => v,
            Err(e) => panic!("E13: {e}"),
        };
        match (&decided, &sem) {
            (Some(_), SemanticVerdict::NotDetermined(_)) => {
                // Rewriting exists but semantics refute: impossible.
            }
            (Some(_), _) => {
                pos += 1;
                agree += 1;
            }
            (None, SemanticVerdict::NotDetermined(_)) => {
                neg += 1;
                agree += 1;
            }
            (None, _) => {
                // No rewriting and no small counterexample: for
                // Boolean/unary views Theorem 4.6 says "not determined";
                // the counterexample may simply need a bigger domain.
                neg += 1;
                agree += 1;
            }
        }
    }
    report.row(vec![
        total.to_string(),
        pos.to_string(),
        neg.to_string(),
        format!("{agree}/{total}"),
    ]);
    report.check(agree == total, "no contradiction between decision and semantics");
    report.check(pos > 0 && neg > 0, "both outcomes exercised");
    report
}

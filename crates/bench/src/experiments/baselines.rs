//! Experiment E17: the MiniCon baseline (\[22\]/Pottinger–Halevy) against
//! the chase-based decision procedure, plus the maximally-contained
//! rewriting as a certain-answer engine.

use crate::genq::{random_cq, random_cq_views, CqGen};
use crate::report::Report;
use rand::rngs::StdRng;
use rand::SeedableRng;
use vqd_budget::{Budget, VqdError};
use vqd_core::certain::certain_sound;
use vqd_core::determinacy::unrestricted::decide_unrestricted_budgeted;
use vqd_core::minicon::{
    contained_rewritings, maximally_contained_rewriting, minicon_equivalent_rewriting,
};
use vqd_core::rewriting::expand_through_views;
use vqd_eval::{apply_views, cq_contained, eval_cq, eval_ucq};
use vqd_instance::{named, Instance, Schema};

/// E17 — two independent algorithms, one answer: MiniCon's
/// equivalent-rewriting existence must coincide with the chase test
/// (Theorem 3.7 / \[22\]); the MCR must be contained and must reproduce
/// the chase-based certain answers under sound views.
pub fn e17(samples: usize, seed: u64, budget: &Budget) -> Report {
    let mut report = Report::new(
        "E17",
        "MiniCon [22] vs. the chase: rewriting existence and the MCR",
        &["check", "result"],
    );
    let schema = Schema::new([("E", 2), ("P", 1)]);
    let mut rng = StdRng::seed_from_u64(seed);

    // 1. Agreement sweep on random constant-free pairs.
    let (mut agree, mut both_yes, mut both_no) = (0usize, 0usize, 0usize);
    for done in 0..samples {
        if let Err(e) =
            budget.checkpoint_with(&format_args!("E17: {done} of {samples} pairs compared"))
        {
            report.trip(&e);
            return report;
        }
        let views = random_cq_views(&schema, 1, CqGen { atoms: 2, vars: 3, max_head: 2 }, &mut rng);
        let q = random_cq(&schema, CqGen { atoms: 2, vars: 3, max_head: 2 }, &mut rng);
        let chase_says = match decide_unrestricted_budgeted(&views, &q, budget) {
            Ok(out) => out.rewriting.is_some(),
            Err(VqdError::Exhausted(e)) => {
                report.trip(&e);
                return report;
            }
            Err(e) => panic!("E17: {e}"),
        };
        let minicon_says =
            minicon_equivalent_rewriting(&views, &q).expect("constant-free pair").is_some();
        if chase_says == minicon_says {
            agree += 1;
            if chase_says {
                both_yes += 1;
            } else {
                both_no += 1;
            }
        }
    }
    report.row(vec![
        format!("agreement on {samples} random pairs"),
        format!("{agree}/{samples} ({both_yes} rewritable, {both_no} not)"),
    ]);
    report.check(agree == samples, "MiniCon and the chase agree everywhere");
    report.check(both_yes > 0 && both_no > 0, "both outcomes exercised");

    // 2. Containment of every MiniCon rewriting.
    {
        let mut names = vqd_instance::DomainNames::new();
        let prog = vqd_query::parse_program(
            &schema,
            &mut names,
            "V1(x,y) :- E(x,y), P(x).\nV2(x) :- P(x).",
        )
        .expect("parses");
        let views = vqd_chase::CqViews::new(vqd_query::ViewSet::new(&schema, prog.defs));
        let q = vqd_query::parse_query(&schema, &mut names, "Q(x,z) :- E(x,y), E(y,z).")
            .expect("parses")
            .as_cq()
            .expect("CQ")
            .clone();
        let rs = contained_rewritings(&views, &q).expect("constant-free pair");
        let all_contained = rs.iter().all(|r| cq_contained(&expand_through_views(&views, r), &q));
        report.row(vec![
            "every contained rewriting has exp(R) ⊆ Q".into(),
            format!("{} rewriting(s), all contained: {all_contained}", rs.len()),
        ]);
        report.check(all_contained, "containment of MiniCon rewritings");
    }

    // 3. MCR = sound-view certain answers (chase cross-check).
    {
        let mut names = vqd_instance::DomainNames::new();
        let prog = vqd_query::parse_program(&schema, &mut names, "V(x,y) :- E(x,z), E(z,y).")
            .expect("parses");
        let views = vqd_chase::CqViews::new(vqd_query::ViewSet::new(&schema, prog.defs));
        let q = vqd_query::parse_query(
            &schema,
            &mut names,
            "Q(x,y) :- E(x,a), E(a,b), E(b,c), E(c,y).",
        )
        .expect("parses")
        .as_cq()
        .expect("CQ")
        .clone();
        let mcr = maximally_contained_rewriting(&views, &q)
            .expect("constant-free pair")
            .expect("MCR exists");
        let mut d = Instance::empty(&schema);
        for i in 0..6u32 {
            d.insert_named("E", vec![named(i), named(i + 1)]);
        }
        let extent = apply_views(views.as_view_set(), &d);
        let via_mcr = eval_ucq(&mcr, &extent);
        let via_chase = certain_sound(&views, &q, &extent);
        report.row(vec![
            "MCR(extent) = chase certain answers (sound views)".into(),
            format!("{} tuples, equal: {}", via_mcr.len(), via_mcr == via_chase),
        ]);
        report.check(via_mcr == via_chase, "MCR computes sound-view certain answers");
        report.check(via_mcr == eval_cq(&q, &d), "…which equal Q(D) on this determined pair");
    }
    report.note("Two unrelated algorithms (MCD combination vs. freeze-apply-chase-test) deciding the same problem is the strongest internal consistency evidence this reproduction has.");
    report
}

//! The per-theorem experiments E1–E17 (see DESIGN.md §4).
//!
//! Each function regenerates one table; the `repro` binary prints them
//! and the integration suite asserts every report passes.
//!
//! Every experiment draws on a [`Budget`]: the sampling experiments
//! checkpoint once per sample, so a step limit or deadline degrades them
//! to a partial (but honestly labelled) table instead of an open-ended
//! run. The unbudgeted [`run_all`]/[`run_one`] entry points use
//! [`Budget::unlimited`].

pub mod baselines;
pub mod complexity;
pub mod decision;
pub mod expressiveness;
pub mod lowerbounds;
pub mod structure;
pub mod undecidability;

use crate::report::{Report, RunStats};
use std::time::Instant;
use vqd_budget::Budget;

/// All experiment ids, in order.
pub const IDS: [&str; 17] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
    "e16", "e17",
];

/// Runs every experiment with its default parameters, in id order.
pub fn run_all() -> Vec<Report> {
    run_all_budgeted(&Budget::unlimited())
}

/// Runs one experiment by lowercase id (`"e1"`…`"e17"`).
pub fn run_one(id: &str) -> Option<Report> {
    run_one_budgeted(id, &Budget::unlimited())
}

/// [`run_all`] drawing on `budget`. Each experiment gets its own stats
/// window (steps/tuples are deltas, not the budget's lifetime totals).
pub fn run_all_budgeted(budget: &Budget) -> Vec<Report> {
    IDS.iter().map(|id| run_one_budgeted(id, budget).expect("known id")).collect()
}

/// [`run_one`] drawing on `budget`; fills [`Report::stats`].
pub fn run_one_budgeted(id: &str, budget: &Budget) -> Option<Report> {
    let (steps0, tuples0) = (budget.steps(), budget.tuples());
    let start = Instant::now();
    let mut report = match id {
        "e1" => decision::e1(60, 0xE1, budget),
        "e2" => decision::e2(20, 0xE2, budget),
        "e3" => decision::e3(3, budget),
        "e4" => undecidability::e4(budget),
        "e5" => undecidability::e5(budget),
        "e6" => lowerbounds::e6(budget),
        "e7" => lowerbounds::e7(budget),
        "e8" => lowerbounds::e8(budget),
        "e9" => complexity::e9(3, budget),
        "e10" => expressiveness::e10(5, budget),
        "e11" => expressiveness::e11(budget),
        "e12" => lowerbounds::e12(budget),
        "e13" => decision::e13(60, 0xE13, budget),
        "e14" => complexity::e14(budget),
        "e15" => structure::e15(budget),
        "e16" => structure::e16(budget),
        "e17" => baselines::e17(50, 0xE17, budget),
        _ => return None,
    };
    let tripped = report.stats.take().and_then(|s| s.tripped);
    report.stats = Some(RunStats {
        steps: budget.steps() - steps0,
        tuples: budget.tuples() - tuples0,
        wall: start.elapsed(),
        tripped,
    });
    Some(report)
}

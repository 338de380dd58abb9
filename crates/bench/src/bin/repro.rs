//! Reproduction harness: prints the experiment tables E1–E17.
//!
//! ```text
//! repro                    # run everything, unbudgeted
//! repro e4 e10             # run selected experiments
//! repro --list             # list experiment ids
//! repro --out target/rr    # additionally write each table to a file
//! repro --json target/rr   # additionally write each report as JSON
//! repro --steps N          # run under a step budget (degrades honestly)
//! repro --escalate         # retry each experiment, doubling the budget
//!                          # until it completes or hits --ceiling
//! repro --start N          # first budget for --escalate (default 1024)
//! repro --ceiling N        # --escalate gives up past this (default 2^24)
//! ```
//!
//! `--steps` and `--escalate` exclude each other, and `--start` and
//! `--ceiling` need `--escalate`; a contradictory command line is a
//! usage error (exit code 2) rather than a run that ignores a flag.
//!
//! With `--escalate` each experiment starts under a small step budget;
//! whenever the run trips (reports a partial table) the budget doubles
//! and the experiment reruns from scratch — experiments are seeded, so a
//! completed rerun produces exactly the verdict an unbudgeted run would.

use vqd_bench::experiments;
use vqd_bench::report::Report;
use vqd_budget::Budget;

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn take_flag_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).map(|i| {
        let v = args.get(i + 1).unwrap_or_else(|| die(&format!("{flag} needs a value"))).clone();
        args.drain(i..=i + 1);
        v
    })
}

fn parse_number(flag: &str, value: &str) -> u64 {
    value.parse().unwrap_or_else(|_| die(&format!("{flag} takes a number, got `{value}`")))
}

/// Runs `id` under budgets `start, 2·start, 4·start, …`, returning the
/// first untripped report, or the last partial one if the ceiling is hit.
fn run_escalating(id: &str, start: u64, ceiling: u64) -> Report {
    let mut steps = start.max(1);
    loop {
        let budget = Budget::unlimited().with_step_limit(steps);
        let mut report = experiments::run_one_budgeted(id, &budget)
            .unwrap_or_else(|| die(&format!("unknown experiment `{id}` (try --list)")));
        if !report.tripped() {
            report.note(format!("escalating retry: completed under a {steps}-step budget"));
            return report;
        }
        if steps >= ceiling {
            report.note(format!(
                "escalating retry: still partial at the {ceiling}-step ceiling; giving up"
            ));
            return report;
        }
        steps = steps.saturating_mul(2).min(ceiling);
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for id in experiments::IDS {
            println!("{id}");
        }
        return;
    }
    let out_dir = take_flag_value(&mut args, "--out");
    let json_dir = take_flag_value(&mut args, "--json");
    let step_limit: Option<u64> =
        take_flag_value(&mut args, "--steps").map(|v| parse_number("--steps", &v));
    let escalate = args.iter().position(|a| a == "--escalate").map(|i| args.remove(i)).is_some();
    let start = take_flag_value(&mut args, "--start").map(|v| parse_number("--start", &v));
    let ceiling = take_flag_value(&mut args, "--ceiling").map(|v| parse_number("--ceiling", &v));
    if escalate && step_limit.is_some() {
        die("--steps cannot be combined with --escalate, which sets its own budgets (see --start)");
    }
    if !escalate && (start.is_some() || ceiling.is_some()) {
        die("--start and --ceiling apply only with --escalate");
    }

    let ids: Vec<String> = if args.is_empty() {
        experiments::IDS.iter().map(|s| s.to_string()).collect()
    } else {
        args.iter().map(|a| a.to_lowercase()).collect()
    };

    let reports: Vec<Report> = ids
        .iter()
        .map(|id| {
            if escalate {
                run_escalating(id, start.unwrap_or(1 << 10), ceiling.unwrap_or(1 << 24))
            } else {
                // One budget per experiment so step counters don't leak
                // across tables.
                let budget = match step_limit {
                    Some(n) => Budget::unlimited().with_step_limit(n),
                    None => Budget::unlimited(),
                };
                experiments::run_one_budgeted(id, &budget)
                    .unwrap_or_else(|| die(&format!("unknown experiment `{id}` (try --list)")))
            }
        })
        .collect();

    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("create --out directory");
        for r in &reports {
            let path = format!("{dir}/{}.txt", r.id.to_lowercase());
            std::fs::write(&path, r.to_string()).expect("write report");
        }
    }
    if let Some(dir) = &json_dir {
        std::fs::create_dir_all(dir).expect("create --json directory");
        for r in &reports {
            let path = format!("{dir}/{}.json", r.id.to_lowercase());
            std::fs::write(&path, r.to_json()).expect("write JSON report");
        }
    }
    let mut failures = 0;
    let mut partials = 0;
    for r in &reports {
        println!("{r}");
        if r.tripped() {
            partials += 1;
        } else if !r.pass {
            failures += 1;
        }
    }
    println!(
        "{} experiment(s), {} failed, {} partial (budget tripped)",
        reports.len(),
        failures,
        partials,
    );
    if failures > 0 {
        std::process::exit(1);
    }
}

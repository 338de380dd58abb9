//! `benchmark` — runs one workload, or compares two sets of runs.
//!
//! ```text
//! benchmark --workload NAME|all --seed N --seconds N --trace 0|1
//!           [--server PATH] [--out DIR] [--smoke]
//! benchmark --compare A_DIR B_DIR      (from the repository root)
//! ```
//!
//! `--server` names the `vqd-cli` binary to serve with (default: the
//! one next to this executable). `--out` (default `bench-out`) receives
//! `runs.jsonl`, one record per run, and the traced runs'
//! `trace-<workload>.jsonl`. Exit code 0 means every reply and check
//! was correct; 1 a failed check or run; 2 bad arguments.

use std::io::Write as _;
use std::path::PathBuf;
use vqd_benchmark::run::{self, Options};
use vqd_benchmark::target::Launcher;
use vqd_benchmark::workload::{Scale, Workload};
use vqd_benchmark::{compare, result_json, run_record};

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: benchmark --workload NAME|all --seed N --seconds N --trace 0|1 \
         [--server PATH] [--out DIR] [--smoke]\n       \
         benchmark --compare A_DIR B_DIR\n\
         workloads: {}",
        Workload::ALL.map(Workload::name).join(", ")
    );
    std::process::exit(2)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workloads: Option<Vec<Workload>> = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut server: Option<PathBuf> = None;
    let mut out_dir = PathBuf::from("bench-out");
    let mut scale = Scale::FULL;
    let mut compare_dirs: Option<(PathBuf, PathBuf)> = None;
    let mut i = 0;
    let next = |i: &mut usize, flag: &str| -> String {
        *i += 1;
        argv.get(*i)
            .cloned()
            .unwrap_or_else(|| usage(&format!("`{flag}` needs a value")))
    };
    while i < argv.len() {
        let flag = argv[i].as_str();
        match flag {
            "--workload" => {
                let name = next(&mut i, flag);
                workloads = Some(if name == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::from_name(&name)
                        .unwrap_or_else(|| usage(&format!("unknown workload `{name}`")))]
                });
            }
            "--seed" => {
                seed = Some(
                    next(&mut i, flag)
                        .parse::<u64>()
                        .unwrap_or_else(|_| usage("`--seed` takes an integer")),
                );
            }
            "--seconds" => {
                let s: f64 = next(&mut i, flag)
                    .parse()
                    .unwrap_or_else(|_| usage("`--seconds` takes a number"));
                if !(s > 0.0 && s <= 3600.0) {
                    usage("`--seconds` must be in (0, 3600]");
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match next(&mut i, flag).as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("`--trace` takes 0 or 1"),
                });
            }
            "--server" => server = Some(PathBuf::from(next(&mut i, flag))),
            "--out" => out_dir = PathBuf::from(next(&mut i, flag)),
            "--smoke" => scale = Scale::SMOKE,
            "--compare" => {
                compare_dirs = Some((
                    PathBuf::from(next(&mut i, flag)),
                    PathBuf::from(next(&mut i, flag)),
                ))
            }
            "--help" | "-h" => usage("help requested"),
            other => usage(&format!("unknown flag `{other}`")),
        }
        i += 1;
    }

    if let Some((a, b)) = compare_dirs {
        match compare::compare(std::path::Path::new("BENCHMARK.json"), &a, &b) {
            Ok(ok) => std::process::exit(if ok { 0 } else { 1 }),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1)
            }
        }
    }

    let workloads = workloads.unwrap_or_else(|| usage("`--workload` is required"));
    let seed = seed.unwrap_or_else(|| usage("`--seed` is required"));
    let seconds = seconds.unwrap_or_else(|| usage("`--seconds` is required"));
    let trace = trace.unwrap_or_else(|| usage("`--trace` is required"));
    let server = server.or_else(|| {
        let exe = std::env::current_exe().ok()?;
        Some(exe.with_file_name("vqd-cli"))
    });
    let launcher = match server {
        Some(path) if path.is_file() => Launcher::Process(path),
        _ => {
            eprintln!("error: no vqd-cli binary (build it with `cargo build --release --bin vqd-cli`, or pass --server)");
            std::process::exit(1)
        }
    };

    let mut all_correct = true;
    for workload in workloads {
        let opts = Options {
            workload,
            seed,
            seconds,
            trace,
            scale,
            launcher: launcher.clone(),
            out_dir: out_dir.clone(),
        };
        let result = match run::run(&opts) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {}: {e}", workload.name());
                std::process::exit(1)
            }
        };
        println!(
            "# {} seed {seed} {} run",
            workload.name(),
            if trace { "traced" } else { "untraced" }
        );
        for note in &result.notes {
            println!("{note}");
        }
        for p in &result.problems {
            println!("FAILED: {p}");
        }
        for m in &result.metrics {
            println!("{:<26} {:>14.4} {}", m.name, m.value, m.unit);
        }
        for m in &result.reported {
            println!(
                "{:<26} {:>14.4} {} (reported, not gated)",
                m.name, m.value, m.unit
            );
        }
        println!(
            "{:<26} {:>14.6} (failed {} of {} attempted)",
            "fail_ratio",
            result.failed as f64 / result.attempted.max(1) as f64,
            result.failed,
            result.attempted
        );
        let record = run_record(&opts, &result).to_string();
        let runs = out_dir.join("runs.jsonl");
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&runs)
            .and_then(|mut f| writeln!(f, "{record}"));
        if let Err(e) = appended {
            eprintln!("warning: cannot append to {}: {e}", runs.display());
        }
        all_correct &= result.correct();
        println!("{}", result_json(&result));
    }
    std::process::exit(if all_correct { 0 } else { 1 })
}

//! `repro` refuses contradictory budget flags instead of ignoring one.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("run repro")
}

fn assert_usage_error(args: &[&str], mentions: &str) {
    let out = repro(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "repro {args:?}: {stderr}");
    assert!(stderr.starts_with("error: "), "repro {args:?}: {stderr}");
    assert!(stderr.contains(mentions), "repro {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "repro {args:?} ran an experiment");
}

#[test]
fn steps_and_escalate_exclude_each_other() {
    assert_usage_error(&["--escalate", "--steps", "5", "e15"], "--steps");
    assert_usage_error(&["--steps", "5", "--escalate", "e15"], "--steps");
}

#[test]
fn start_and_ceiling_need_escalate() {
    assert_usage_error(&["--start", "16", "e15"], "--escalate");
    assert_usage_error(&["--ceiling", "64", "e15"], "--escalate");
    assert_usage_error(&["--steps", "5", "--start", "16", "e15"], "--escalate");
}

#[test]
fn consistent_budget_flags_still_run() {
    for args in
        [&["--steps", "5", "e15"][..], &["--escalate", "--start", "16", "--ceiling", "64", "e15"]]
    {
        let out = repro(args);
        assert_eq!(
            out.status.code(),
            Some(0),
            "repro {args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(String::from_utf8_lossy(&out.stdout).contains("1 experiment(s)"));
    }
}

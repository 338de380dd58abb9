//! Smoke test of the whole run path: every workload at `--smoke` size,
//! untraced and traced, against an in-process server on an ephemeral
//! port.

use serde::json::{self, Value};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use vqd_benchmark::result_json;
use vqd_benchmark::run::{run, Options, RunResult};
use vqd_benchmark::target::Launcher;
use vqd_benchmark::workload::{Scale, Workload};

fn spec() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one list of the spec.
fn spec_metrics(spec: &Value, list: &str) -> Vec<(String, String)> {
    spec.get(list)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn smoke(workload: Workload, trace: bool, out_dir: &Path) -> RunResult {
    let opts = Options {
        workload,
        seed: 7,
        seconds: 1.5,
        trace,
        scale: Scale::SMOKE,
        launcher: Launcher::InProcess,
        out_dir: out_dir.to_path_buf(),
    };
    let result = run(&opts).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    assert!(
        result.attempted > 0,
        "{}: nothing attempted",
        workload.name()
    );
    assert_eq!(
        result.failed,
        0,
        "{}: fail_ratio must be 0: {:#?}",
        workload.name(),
        result.notes
    );
    assert!(
        result.correct(),
        "{}: {:#?}",
        workload.name(),
        result.problems
    );
    result
}

fn value(result: &RunResult, name: &str) -> f64 {
    result
        .metrics
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.value)
        .expect(name)
}

/// The result line carries exactly the spec's metrics, each with its unit.
fn assert_prints(result: &RunResult, expected: &[(String, String)], what: &str) {
    let line = json::parse(&result_json(result).to_string()).expect("result line parses");
    let Some(Value::Obj(metrics)) = line.get("metrics") else {
        panic!("{what}: no metrics")
    };
    let printed: HashSet<(String, String)> = metrics
        .iter()
        .map(|(k, v)| {
            (
                k.clone(),
                v.get("unit")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_owned(),
            )
        })
        .collect();
    let wanted: HashSet<(String, String)> = expected.iter().cloned().collect();
    assert_eq!(printed, wanted, "{what}");
}

#[test]
fn every_workload_runs_checks_and_traces() {
    let spec = spec();
    let (end_to_end, per_layer) = (
        spec_metrics(&spec, "end_to_end"),
        spec_metrics(&spec, "per_layer"),
    );
    let names: Vec<String> = spec
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_owned()
        })
        .collect();
    assert_eq!(names, Workload::ALL.map(|w| w.name().to_owned()));

    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let _ = std::fs::remove_dir_all(&out_dir);
    for workload in Workload::ALL {
        let untraced = smoke(workload, false, &out_dir);
        assert_prints(&untraced, &end_to_end, workload.name());
        // CPU time moves in 10 ms ticks, which a smoke-sized slice may
        // not reach; every other end-to-end metric is never 0.
        let zero: Vec<_> = untraced
            .metrics
            .iter()
            .filter(|m| m.value <= 0.0 && m.name != "cpu_ms_per_op")
            .collect();
        assert!(zero.is_empty(), "{}: {zero:?}", workload.name());

        let traced = smoke(workload, true, &out_dir);
        assert_prints(&traced, &per_layer, workload.name());
        let trace =
            std::fs::read_to_string(out_dir.join(format!("trace-{}.jsonl", workload.name())))
                .expect("trace written");
        let spans: Vec<Value> = trace
            .lines()
            .map(|l| json::parse(l).expect("span parses"))
            .collect();
        assert!(!spans.is_empty(), "{}: empty trace", workload.name());
        let ids: HashSet<u64> = spans
            .iter()
            .filter_map(|s| s.get("id").and_then(Value::as_u64))
            .collect();
        for s in &spans {
            let name = s.get("name").and_then(Value::as_str).expect("span name");
            match s.get("parent") {
                Some(Value::Null) => assert_eq!(name, "request", "only request spans are roots"),
                Some(p) => assert!(
                    ids.contains(&p.as_u64().expect("parent id")),
                    "{name}: dangling parent"
                ),
                None => panic!("{name}: no parent field"),
            }
        }
        match workload {
            Workload::CertainHot => {
                assert_eq!(
                    value(&traced, "index.builds_per_op"),
                    0.0,
                    "hot handles never rebuild"
                );
                assert!(value(&traced, "cache.hit_ratio") >= 0.99);
            }
            Workload::CertainChurn => assert!(value(&traced, "cache.evictions") > 0.0),
            Workload::EngineBatch => assert_eq!(value(&traced, "exec.threads_used"), 2.0),
            Workload::DecideMix => assert!(value(&traced, "router.fastpath_ratio") > 0.0),
        }
    }
    let _ = std::fs::remove_dir_all(&out_dir);
}

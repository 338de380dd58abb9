//! `benchmark --compare A/ B/`: compares two sets of runs metric by
//! metric against the bounds in `BENCHMARK.json`.
//!
//! For each end-to-end metric on each workload it prints both sides'
//! median and quartiles and one label:
//!
//! * `within-bound` — B's median is no worse than A's by more than the
//!   bound (or every B run beats every A run);
//! * `regressed` — B's median is worse by more than the bound;
//! * `unresolved` — either side's quartile spread, as a share of its
//!   median, is wider than the bound, so the runs cannot tell.
//!
//! It also checks that the engine-batch replay counts (`hom.*`,
//! `chase.*`, `index.*`) of equal seeds repeat exactly across both sides.

use crate::stats::{quartiles, relative_spread};
use serde::json::{self, Value};
use std::collections::BTreeMap;
use std::path::Path;

/// One end-to-end metric of the spec.
struct Bound {
    name: String,
    bound: f64,
    lower_is_better: bool,
}

/// One run from a `runs.jsonl`.
struct Record {
    workload: String,
    seed: u64,
    trace: bool,
    metrics: BTreeMap<String, f64>,
}

fn read_json(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

fn load_spec(path: &Path) -> Result<(Vec<String>, Vec<Bound>), String> {
    let spec = json::parse(&read_json(path)?).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = |key: &str| {
        spec.get(key)
            .and_then(Value::as_arr)
            .ok_or(format!("spec lacks `{key}`"))
    };
    let workloads = list("workloads")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_owned))
        .collect();
    let bounds = list("end_to_end")?
        .iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_owned(),
                bound: m.get("bound")?.as_f64()?,
                lower_is_better: m.get("better")?.as_str()? == "lower",
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("malformed end_to_end entry")?;
    Ok((workloads, bounds))
}

/// Reads every run recorded under `dir`.
fn load_runs(dir: &Path) -> Result<Vec<Record>, String> {
    let path = dir.join("runs.jsonl");
    read_json(&path)?
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let v = json::parse(line).map_err(|e| format!("{}: {e}", path.display()))?;
            let metrics = match v.get("metrics") {
                Some(Value::Obj(fields)) => fields
                    .iter()
                    .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
                    .collect(),
                _ => BTreeMap::new(),
            };
            Ok(Record {
                workload: v
                    .get("workload")
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_owned(),
                seed: v.get("seed").and_then(Value::as_u64).unwrap_or_default(),
                trace: v.get("trace").and_then(Value::as_u64) == Some(1),
                metrics,
            })
        })
        .collect()
}

fn values(runs: &[Record], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload && !r.trace)
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

/// Labels one metric on one workload.
fn label(a: &[f64], b: &[f64], bound: &Bound) -> &'static str {
    let (Some((_, ma, _)), Some((_, mb, _))) = (quartiles(a), quartiles(b)) else {
        return "missing";
    };
    let better = |x: f64, y: f64| if bound.lower_is_better { x < y } else { x > y };
    let every_b_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    if relative_spread(a).max(relative_spread(b)) > bound.bound {
        return if every_b_better {
            "within-bound"
        } else {
            "unresolved"
        };
    }
    let worse = if bound.lower_is_better {
        mb - ma
    } else {
        ma - mb
    } / ma.abs().max(f64::MIN_POSITIVE);
    if worse > bound.bound {
        "regressed"
    } else {
        "within-bound"
    }
}

/// Whether an engine-batch per-layer metric is an exact engine count.
fn is_engine_count(metric: &str) -> bool {
    ["hom.", "chase.", "index."]
        .iter()
        .any(|p| metric.starts_with(p))
        && !metric.ends_with("_us")
}

/// Prints the comparison; `Ok(true)` when nothing regressed and the
/// engine counts repeat.
pub fn compare(spec: &Path, a_dir: &Path, b_dir: &Path) -> Result<bool, String> {
    let (workloads, bounds) = load_spec(spec)?;
    let (a, b) = (load_runs(a_dir)?, load_runs(b_dir)?);
    let mut ok = true;
    let fmt = |v: &[f64]| match quartiles(v) {
        Some((q1, m, q3)) => format!("{m:>11.4} [{q1:.4}, {q3:.4}] n={}", v.len()),
        None => format!("{:>11} n=0", "-"),
    };
    println!(
        "{:<14} {:<17} {:<40} {:<40} {:>8} {:>6}  label",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "bound"
    );
    for w in &workloads {
        for m in &bounds {
            let (va, vb) = (values(&a, w, &m.name), values(&b, w, &m.name));
            let verdict = label(&va, &vb, m);
            ok &= verdict != "regressed";
            let change = match (quartiles(&va), quartiles(&vb)) {
                (Some((_, ma, _)), Some((_, mb, _))) if ma != 0.0 => {
                    format!("{:+.1}%", (mb - ma) / ma.abs() * 100.0)
                }
                _ => "-".to_owned(),
            };
            println!(
                "{w:<14} {:<17} {:<40} {:<40} {change:>8} {:>5.0}%  {verdict}",
                m.name,
                fmt(&va),
                fmt(&vb),
                m.bound * 100.0
            );
        }
    }
    // Engine counts: every traced engine-batch run of one seed must
    // report identical counts, on either side.
    let mut by_seed: BTreeMap<(u64, String), Vec<f64>> = BTreeMap::new();
    for r in a
        .iter()
        .chain(&b)
        .filter(|r| r.workload == "engine-batch" && r.trace)
    {
        for (k, v) in r.metrics.iter().filter(|(k, _)| is_engine_count(k)) {
            by_seed.entry((r.seed, k.clone())).or_default().push(*v);
        }
    }
    let differing: Vec<String> = by_seed
        .iter()
        .filter(|(_, v)| v.iter().any(|x| x != &v[0]))
        .map(|((seed, k), v)| format!("{k} (seed {seed}): {v:?}"))
        .collect();
    if by_seed.is_empty() {
        println!("engine-batch counts: no traced engine-batch runs to compare");
    } else if differing.is_empty() {
        println!(
            "engine-batch counts: {} series repeat exactly",
            by_seed.len()
        );
    } else {
        ok = false;
        for d in differing {
            println!("engine-batch counts differ: {d}");
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(b: f64, lower: bool) -> Bound {
        Bound {
            name: "m".to_owned(),
            bound: b,
            lower_is_better: lower,
        }
    }

    #[test]
    fn labels_follow_bounds_and_spread() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        assert_eq!(
            label(&a, &[10.2, 10.3, 10.1, 10.2, 10.25], &bound(0.1, true)),
            "within-bound"
        );
        assert_eq!(
            label(&a, &[12.0, 12.1, 11.9, 12.0, 12.05], &bound(0.1, true)),
            "regressed"
        );
        // Higher is better: a drop is the regression.
        assert_eq!(
            label(&a, &[8.0, 8.1, 7.9, 8.0, 8.05], &bound(0.1, false)),
            "regressed"
        );
        let noisy = [5.0, 15.0, 10.0, 20.0, 1.0];
        assert_eq!(label(&noisy, &a, &bound(0.1, true)), "unresolved");
        // Wide spread, but every B run beats every A run.
        assert_eq!(
            label(&[30.0, 50.0, 40.0], &[1.0, 2.0, 3.0], &bound(0.1, true)),
            "within-bound"
        );
        assert_eq!(label(&[], &a, &bound(0.1, true)), "missing");
    }

    #[test]
    fn engine_counts_are_recognised() {
        assert!(is_engine_count("hom.candidates_per_op"));
        assert!(is_engine_count("index.builds_per_op"));
        assert!(!is_engine_count("hom.eval_us"));
        assert!(!is_engine_count("cache.hit_ratio"));
    }
}

//! # vqd-benchmark — the end-to-end and per-layer benchmark
//!
//! `benchmark --workload NAME --seed N --seconds N --trace 0|1` runs one
//! named workload (see `BENCHMARK.md`) against a `vqd-cli serve` child
//! process, checks every reply against the outcome computed in process,
//! and prints every metric by name with its unit. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics, or with `--trace 1` the
//! per-layer ones).
//!
//! * [`workload`] — the four workloads, sizes and frozen rungs;
//! * [`gen`] — seeded request generation and expectations;
//! * [`target`] — the server process and its `/proc` counters;
//! * [`load`] — closed- and open-loop load over raw wire lines;
//! * [`engine_batch`] — the in-process engine workload;
//! * [`replay`] / [`trace`] — the traced in-process replay and its spans;
//! * [`speed`] — host-speed samples that state times at reference speed;
//! * [`stats`] — percentiles, tails, quartiles;
//! * [`run`] — one run end to end; [`compare`] — `--compare A/ B/`.

#![warn(missing_docs)]

pub mod compare;
pub mod engine_batch;
pub mod gen;
pub mod load;
pub mod replay;
pub mod run;
pub mod speed;
pub mod stats;
pub mod target;
pub mod trace;
pub mod workload;

use serde::json::Value;

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(result: &run::RunResult) -> Value {
    let metrics: Vec<(String, Value)> = result
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.to_owned(),
                Value::object([
                    ("value", Value::from(m.value)),
                    ("unit", Value::from(m.unit)),
                ]),
            )
        })
        .collect();
    Value::object([
        ("correct", Value::from(result.correct())),
        ("attempted", Value::from(result.attempted)),
        ("failed", Value::from(result.failed)),
        ("metrics", Value::Obj(metrics)),
    ])
}

/// The result line plus what produced it, as appended to `runs.jsonl`
/// for `--compare`.
pub fn run_record(opts: &run::Options, result: &run::RunResult) -> Value {
    let Value::Obj(mut fields) = result_json(result) else {
        unreachable!("result_json builds an object");
    };
    fields.insert(
        0,
        ("workload".to_owned(), Value::from(opts.workload.name())),
    );
    fields.insert(1, ("seed".to_owned(), Value::from(opts.seed)));
    fields.insert(2, ("trace".to_owned(), Value::from(u64::from(opts.trace))));
    fields.insert(3, ("seconds".to_owned(), Value::from(opts.seconds)));
    Value::Obj(fields)
}

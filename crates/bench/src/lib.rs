//! # vqd-bench — experiments and benchmarks
//!
//! * [`experiments`] — the E1–E14 reproduction tables (DESIGN.md §4),
//!   printed by the `repro` binary and asserted by the integration suite;
//! * [`genq`] — random query/view generators;
//! * [`report`] — the table formatter;
//! * the `fixpoint` binary — the engine bench, whose report
//!   (`BENCH_engine.json`) holds the figures F1–F8.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod genq;
pub mod report;

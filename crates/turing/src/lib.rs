//! # vqd-turing — Turing machines encoded in first-order logic
//!
//! The substrate of Theorem 5.1: FO views and queries whose induced
//! mapping `Q_V` computes an arbitrary Turing-computable graph query,
//! proving that any language complete for FO-to-FO rewritings must
//! express *all* computable queries.
//!
//! * [`machine`] — a deterministic, space-bounded TM model with a
//!   reference simulator and two concrete machines (the identity and the
//!   edge-complement graph queries, both generic);
//! * [`encode`] — the instance encoding `enc_≤(G)` with computation
//!   relations `T`/`H`, and the generated FO sentence `φ_M` asserting
//!   "this instance encodes the halting run of `M`".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod encode;
pub mod machine;

pub use encode::{build_instance, min_domain, phi_m, tm_schema};
pub use machine::{reference_query, simulate, Config, Move, SimError, Tm};

//! # vqd — Views and Queries: Determinacy and Rewriting
//!
//! Meta-crate re-exporting the whole workspace. See the individual crates
//! for the substance:
//!
//! * [`vqd_instance`] — relational substrate (schemas, instances, nulls,
//!   isomorphism, enumeration);
//! * [`vqd_query`] — CQ / UCQ / FO query languages and views;
//! * [`vqd_eval`] — homomorphisms, evaluation, containment, minimization;
//! * [`vqd_chase`] — frozen bodies, view inverses, the Theorem 3.3 tower;
//! * [`vqd_datalog`] — a semi-naive Datalog engine (monotone baseline);
//! * [`vqd_monoid`] — finite monoidal functions and the word problem;
//! * [`vqd_turing`] — Turing machines encoded as FO sentences (Theorem 5.1);
//! * [`vqd_router`] — the syntactic fragment classifier and decidable
//!   fast paths determinacy requests are routed through;
//! * [`vqd_core`] — determinacy checking, rewriting, and every construction
//!   of the paper;
//! * [`vqd_budget`] — resource governance: budgets, deadlines, cooperative
//!   cancellation, and fault injection for every long-running engine;
//! * [`vqd_obs`] — observability: engine counters, a metrics registry,
//!   and span tracing shared by every engine and the server;
//! * [`vqd_exec`] — the executor behind intra-request parallelism:
//!   call-scoped shard threads plus the `ExecCtx` every `*_ctx` engine
//!   entry point takes;
//! * [`vqd_server`] — the budget-governed TCP service exposing the
//!   paper's effective procedures, plus its wire protocol and client.

pub use vqd_budget as budget;
pub use vqd_chase as chase;
pub use vqd_core as core;
pub use vqd_datalog as datalog;
pub use vqd_eval as eval;
pub use vqd_exec as exec;
pub use vqd_instance as instance;
pub use vqd_monoid as monoid;
pub use vqd_obs as obs;
pub use vqd_query as query;
pub use vqd_router as router;
pub use vqd_server as server;
pub use vqd_turing as turing;

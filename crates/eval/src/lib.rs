//! # vqd-eval — evaluation, homomorphisms, containment
//!
//! The semantic engine underneath every result in the paper:
//!
//! * [`input`] — the [`EvalInput`] abstraction: every evaluator takes a
//!   bare instance (index built per call), a prebuilt
//!   [`IndexedInstance`](vqd_instance::IndexedInstance), or a shared
//!   `Arc<IndexedInstance>` through one entry point; [`eval_cq_rows`]
//!   additionally accepts a `vqd_exec::ExecCtx` (via
//!   `vqd_exec::ExecInput`) to fan a lone CQ out across the engine pool
//!   per root candidate ([`eval_cq_sharded`]), with byte-identical
//!   results;
//! * [`hom`] — backtracking homomorphism search with per-column indexes
//!   (the tool behind `c̄ ∈ Q(D)`, the chase lemmas, and containment);
//! * [`cq_eval`] / [`fo_eval`] — evaluation of the conjunctive family and
//!   of full FO under active-domain semantics (the FO evaluator
//!   materializes exactly the `R_θ` subformula relations of Theorem 5.4);
//! * [`view_eval`] — view images `V(D)`;
//! * [`containment`] — Chandra–Merlin / Sagiv–Yannakakis containment and
//!   equivalence with frozen bodies `[Q]`;
//! * [`minimize`] — CQ cores (plus an exhaustive baseline for the F8
//!   ablation);
//! * [`monotone`] — monotonicity probes used by the Section 5 lower
//!   bounds.

#![warn(missing_docs)]

pub mod containment;
pub mod cq_eval;
pub mod fo_eval;
pub mod hom;
pub mod input;
pub mod minimize;
pub mod monotone;
pub mod view_eval;

pub use containment::{
    contained_bounded_budgeted, cq_contained, cq_contained_in_ucq, cq_equivalent, freeze,
    ucq_contained, ucq_equivalent, BoundedContainment,
};
pub use cq_eval::{eval_cq, eval_cq_rows, eval_cq_sharded, eval_ucq, normalize_eqs, Rows};
pub use fo_eval::{eval_fo, eval_fo_budgeted, evaluation_universe};
pub use hom::{
    find_hom, for_each_hom, for_each_hom_sharded, hom_exists, instance_hom, Assignment,
    Binding, Ordering,
};
pub use input::{EvalInput, IndexCow};
pub use minimize::{minimize_cq, minimize_cq_exhaustive, minimize_ucq};
pub use monotone::{find_nonmonotone_witness, monotone_on_pair, NonMonotoneWitness};
pub use view_eval::{apply_views, eval_query};

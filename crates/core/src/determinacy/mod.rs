//! Determinacy checking: the semantic definition, brute-forced on bounded
//! domains, and the effective chase-based decision procedure for CQs.

pub mod semantic;
pub mod unrestricted;

pub use semantic::{
    check_exhaustive, check_exhaustive_ctx, check_random, verify_counterexample, Counterexample,
    SemanticVerdict,
};
pub use unrestricted::{
    decide_finite, decide_finite_budgeted, decide_unrestricted, decide_unrestricted_budgeted,
    decide_unrestricted_chase_budgeted, ChaseEvidence, FiniteVerdict, UnrestrictedOutcome,
};
pub use vqd_router::Fragment;

//! # vqd-core — determinacy and rewriting
//!
//! The primary contribution of Segoufin & Vianu (PODS 2005), as runnable
//! code:
//!
//! | Paper result | Entry point |
//! |--------------|-------------|
//! | determinacy definition (§2) | [`determinacy::check_exhaustive`] / [`determinacy::check_random`] |
//! | Thm 3.3/3.7 (unrestricted CQ decision + canonical rewriting) | [`determinacy::decide_unrestricted`] |
//! | finite CQ determinacy (sound + bounded + the open regime) | [`determinacy::decide_finite`] |
//! | Prop 4.1 / Cor 4.2 | [`reductions::satisfiability`] |
//! | Thm 4.5 (UCQ undecidability via monoids) | [`reductions::monoid::theorem_4_5`] |
//! | Thm 4.6 (Boolean/unary views decidable) | [`rewriting::decide_boolean_unary`] |
//! | Thm 5.1 (FO rewritings need all computable queries) | [`reductions::turing::theorem_5_1`] |
//! | Thm 5.2 / Lemma 5.3 (∃FO query answering in NP ∩ coNP) | [`answering`] |
//! | Thm 5.4/5.5 (∃SO ∩ ∀SO lower bound via GIMP) | [`reductions::gimp::theorem_5_4`] |
//! | Prop 5.7 / Example 3.2 (order-invariance) | [`reductions::order`] |
//! | Prop 5.8 / 5.12 (non-monotone `Q_V`) | [`witnesses`] |
//! | LMSS \[22\] rewriting existence | [`rewriting`] |
//! | MiniCon contained/maximally-contained rewritings | [`minicon`] |
//! | certain answers \[1\] | [`certain`] |

#![warn(missing_docs)]

pub mod analyze;
pub mod answering;
pub mod certain;
pub mod determinacy;
pub mod genericity;
pub mod minicon;
pub mod qv_probe;
pub mod reductions;
pub mod rewriting;
pub mod witnesses;

pub use determinacy::{
    check_exhaustive, check_random, decide_finite, decide_unrestricted, Counterexample,
    FiniteVerdict, SemanticVerdict, UnrestrictedOutcome,
};
pub use rewriting::{
    decide_boolean_unary, exists_cq_rewriting, exists_ucq_rewriting, expand_through_views,
    is_exact_rewriting, InducedQuery,
};
pub use analyze::{analyze, Analysis, AnalyzeOptions, Determinacy};
pub use genericity::{find_genericity_violation, proposition_4_3, GenericityReport};
pub use minicon::{
    contained_rewritings, generate_mcds, maximally_contained_rewriting,
    minicon_equivalent_rewriting, Mcd,
};
pub use qv_probe::{qv_monotonicity_probe, QvProbe, QvViolation};
pub use witnesses::{prop_5_12, prop_5_12_fo_rewriting, prop_5_8, NonMonotonicityWitness};

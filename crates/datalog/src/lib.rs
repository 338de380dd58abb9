//! # vqd-datalog — a stratified Datalog engine
//!
//! Datalog with inequality (`Datalog^≠`) and stratified negation, the
//! candidate rewriting languages of Corollaries 5.6, 5.9 and 5.13. The
//! paper's point is *negative*: negation-free `Datalog^≠` is monotone, and
//! the induced queries `Q_V` of Propositions 5.8/5.12 are not, so no such
//! program can express them. Having a real engine lets the E8 experiment
//! check this concretely: run candidate programs on the witness pairs and
//! watch monotonicity force a wrong answer.
//!
//! * [`rule`] — rules, programs, parsing (shared rule syntax);
//! * [`stratify`](mod@stratify) — predicate dependency layering,
//!   rejecting recursion through negation;
//! * [`engine`] — naive and semi-naive bottom-up fixpoints (F7 ablation).

#![warn(missing_docs)]

pub mod engine;
pub mod rule;
pub mod stratify;

pub use engine::{eval_program, eval_program_budgeted, eval_program_with, EvalError, Strategy};
pub use rule::{Literal, Program, Rule};
pub use stratify::{stratify, NotStratifiable, Stratification};

//! # vqd-query — the query languages of Figure 1
//!
//! Syntax for every language the paper studies, spanning the spectrum from
//! conjunctive queries to full first-order logic:
//!
//! | Paper notation | Here |
//! |----------------|------|
//! | CQ             | [`Cq`] with `language() == CqLang::Cq` |
//! | (U)CQ=, (U)CQ≠ | [`Cq`]/[`Ucq`] with `eqs`/`neqs` |
//! | CQ¬ (safe negation) | [`Cq`] with `neg_atoms` |
//! | UCQ            | [`Ucq`] |
//! | ∃FO            | [`FoQuery`] with [`Fo::is_existential`] |
//! | FO             | [`FoQuery`] |
//!
//! Views (one named query per output symbol, Section 2) live in [`view`];
//! a text syntax for all of the above lives in [`parse`].
//!
//! Semantics are deliberately *not* defined here — evaluation, containment
//! and the rest of the machinery live in `vqd-eval`, keeping this crate a
//! pure syntax layer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cq;
pub mod display;
pub mod fo;
pub mod parse;
pub mod term;
pub mod view;

pub use cq::{Cq, CqLang, Ucq};
pub use fo::{alpha_rename, cq_to_fo, ucq_to_fo, Fo, FoQuery, VarPool};
pub use parse::{parse_instance, parse_program, parse_query, ParseError, Program};
pub use term::{Atom, Term, VarId};
pub use view::{QueryExpr, View, ViewSet};

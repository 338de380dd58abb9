//! The one-call facade: everything this library knows how to say about a
//! views/query pair, in one structured report.
//!
//! [`analyze`] runs the pipeline a practitioner would otherwise wire by
//! hand:
//!
//! 1. the **Proposition 4.3 genericity filter** — cheap necessary
//!    conditions whose failure refutes determinacy outright;
//! 2. the **Theorem 3.7 chase decision** (CQ pairs) — decides
//!    unrestricted determinacy and produces the minimized exact rewriting;
//! 3. the **bounded semantic search** — exhaustive finite counterexample
//!    hunting when the chase says no (or for non-CQ pairs where no
//!    effective procedure exists — Theorem 4.5);
//! 4. the **MiniCon fallback** — the maximally-contained rewriting, for
//!    graceful degradation when no exact rewriting exists.

use crate::determinacy::semantic::{check_exhaustive, Counterexample, SemanticVerdict};
use crate::determinacy::unrestricted::decide_unrestricted;
use crate::genericity::find_genericity_violation;
use crate::minicon::maximally_contained_rewriting;
use vqd_chase::CqViews;
use vqd_query::{Cq, CqLang, QueryExpr, Ucq, ViewSet};

/// Tuning for [`analyze`].
#[derive(Clone, Copy, Debug)]
pub struct AnalyzeOptions {
    /// Largest active-domain size for the exhaustive searches.
    pub max_domain: usize,
    /// Cap on the number of instances any exhaustive pass may enumerate.
    pub space_limit: u128,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        AnalyzeOptions { max_domain: 3, space_limit: 1 << 22 }
    }
}

/// The determinacy verdict of an analysis.
#[derive(Clone, Debug)]
pub enum Determinacy {
    /// Determined over unrestricted (hence also finite) instances, by the
    /// chase test.
    DeterminedUnrestricted,
    /// Refuted: a concrete finite counterexample pair exists.
    Refuted(Box<Counterexample>),
    /// Not determined over unrestricted instances, but no finite
    /// counterexample within the bound — the Theorem 5.11 open regime
    /// (CQ pairs) or simply "unknown" (beyond CQ, where the problem is
    /// undecidable — Theorem 4.5).
    OpenUpTo(usize),
}

/// Everything [`analyze`] found.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// The determinacy verdict.
    pub determinacy: Determinacy,
    /// An instance violating the Proposition 4.3 genericity conditions,
    /// if one was found (implies `Refuted`-level certainty about
    /// non-determinacy even when no image-collision pair was captured).
    pub genericity_violation: bool,
    /// The minimized exact CQ rewriting, when one exists.
    pub rewriting: Option<Cq>,
    /// The maximally-contained rewriting (CQ pairs without an exact
    /// rewriting): the best monotone under-approximation.
    pub maximally_contained: Option<Ucq>,
    /// Free-form notes about which machinery ran.
    pub notes: Vec<String>,
}

/// Runs the full analysis pipeline on a views/query pair.
///
/// For plain-CQ pairs the effective procedures run; for anything else the
/// analysis degrades honestly to bounded semantic search (and says so in
/// `notes`).
pub fn analyze(views: &ViewSet, q: &QueryExpr, opts: AnalyzeOptions) -> Analysis {
    let mut notes = Vec::new();

    // 1. Genericity filter.
    let genericity_violation =
        find_genericity_violation(views, q, opts.max_domain.min(2), opts.space_limit).is_some();
    if genericity_violation {
        notes.push(
            "Proposition 4.3 violation found: determinacy is refuted by genericity alone"
                .to_owned(),
        );
    }

    // 2. Chase decision for plain CQ pairs.
    let cq_pair = views
        .views()
        .iter()
        .all(|v| matches!(&v.query, QueryExpr::Cq(c) if c.language() == CqLang::Cq && !c.atoms.is_empty()))
        && matches!(q, QueryExpr::Cq(c) if c.language() == CqLang::Cq && !c.atoms.is_empty());
    let mut rewriting = None;
    let mut maximally_contained = None;
    if cq_pair {
        let cq_views = CqViews::new(views.clone());
        let QueryExpr::Cq(cq) = q else { unreachable!("checked") };
        let outcome = decide_unrestricted(&cq_views, cq);
        if outcome.determined {
            rewriting = outcome.rewriting;
            notes.push("decided by the Theorem 3.7 chase test".to_owned());
            return Analysis {
                determinacy: Determinacy::DeterminedUnrestricted,
                genericity_violation,
                rewriting,
                maximally_contained: None,
                notes,
            };
        }
        notes.push("chase test negative: not determined over unrestricted instances".to_owned());
        // Graceful degradation: the best contained rewriting.
        // Constants are out of MiniCon's scope: no MCR is offered then.
        maximally_contained = maximally_contained_rewriting(&cq_views, cq).ok().flatten();
        if maximally_contained.is_some() {
            notes.push("maximally-contained rewriting available (MiniCon)".to_owned());
        }
    } else {
        notes.push(
            "beyond plain CQ: no effective decision procedure exists (Theorem 4.5); \
             using bounded semantics"
                .to_owned(),
        );
    }

    // 3. Bounded finite counterexample search.
    let mut searched = 0;
    for n in 1..=opts.max_domain {
        match check_exhaustive(views, q, n, opts.space_limit) {
            SemanticVerdict::NotDetermined(c) => {
                return Analysis {
                    determinacy: Determinacy::Refuted(c),
                    genericity_violation,
                    rewriting,
                    maximally_contained,
                    notes,
                };
            }
            SemanticVerdict::NoCounterexampleUpTo(k) => searched = k,
            SemanticVerdict::TooLarge { .. } => {
                notes.push(format!("domain {n} exceeds the space limit; search stopped"));
                break;
            }
            // Unreachable with the unlimited budget `check_exhaustive`
            // uses, but a budgeted analyze entry point would stop here.
            SemanticVerdict::Exhausted(e) => {
                notes.push(format!("search stopped by resource budget: {e}"));
                break;
            }
        }
    }
    Analysis {
        determinacy: Determinacy::OpenUpTo(searched),
        genericity_violation,
        rewriting,
        maximally_contained,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqd_instance::{DomainNames, Schema};
    use vqd_query::{parse_program, parse_query};

    fn setup(view_src: &str, q_src: &str) -> (ViewSet, QueryExpr) {
        let s = Schema::new([("E", 2), ("P", 1)]);
        let mut names = DomainNames::new();
        let prog = parse_program(&s, &mut names, view_src).unwrap();
        let views = ViewSet::new(&s, prog.defs);
        let q = parse_query(&s, &mut names, q_src).unwrap();
        (views, q)
    }

    #[test]
    fn determined_cq_pair() {
        let (v, q) = setup("V(x,y) :- E(x,y).", "Q(x,z) :- E(x,y), E(y,z).");
        let a = analyze(&v, &q, AnalyzeOptions::default());
        assert!(matches!(a.determinacy, Determinacy::DeterminedUnrestricted));
        assert!(a.rewriting.is_some());
        assert!(!a.genericity_violation);
    }

    #[test]
    fn refuted_cq_pair_with_fallback() {
        let (v, q) = setup("V1(x,y) :- E(x,y), P(x).\nV2(x) :- P(x).", "Q(x,z) :- E(x,y), E(y,z).");
        let a = analyze(&v, &q, AnalyzeOptions::default());
        assert!(matches!(a.determinacy, Determinacy::Refuted(_)));
        assert!(a.rewriting.is_none());
        // But partial information is salvaged.
        assert!(a.maximally_contained.is_some());
    }

    #[test]
    fn genericity_shortcut_fires() {
        let (v, q) = setup("V(x) :- P(x).", "Q(x,y) :- E(x,y).");
        let a = analyze(&v, &q, AnalyzeOptions::default());
        assert!(a.genericity_violation);
        assert!(matches!(a.determinacy, Determinacy::Refuted(_)));
    }

    #[test]
    fn non_cq_pairs_fall_back_to_semantics() {
        let (v, q) = setup("V(x) :- P(x).\nV(x) :- E(x,x).", "Q(x) :- P(x).");
        let a = analyze(&v, &q, AnalyzeOptions { max_domain: 2, ..Default::default() });
        assert!(a.notes.iter().any(|n| n.contains("beyond plain CQ")));
        // UCQ view of P ∪ loops does not determine P.
        assert!(matches!(a.determinacy, Determinacy::Refuted(_)));
    }

    #[test]
    fn open_regime_reported() {
        let (v, q) = setup("V(x,y) :- E(x,z), E(z,y).", "Q(x,y) :- E(x,a), E(a,b), E(b,y).");
        // Domain 2 is too small to refute this pair; it needs 3.
        let a = analyze(&v, &q, AnalyzeOptions { max_domain: 2, space_limit: 1 << 22 });
        match a.determinacy {
            Determinacy::OpenUpTo(2) => {}
            Determinacy::Refuted(_) => {} // acceptable if domain 2 suffices
            other => panic!("unexpected {other:?}"),
        }
    }
}

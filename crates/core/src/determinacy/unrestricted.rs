//! The unrestricted determinacy decision procedure (Theorems 3.3 / 3.7).
//!
//! For CQ views **V** and a CQ query `Q`, `V ↠ Q` over unrestricted
//! (finite or infinite) instances **iff** `x̄ ∈ Q(V_∅^{-1}(V([Q])))` —
//! a homomorphism test on a chased canonical instance. When the test
//! succeeds, the canonical rewriting `Q_V` (Proposition 3.5) is an exact
//! CQ rewriting: `Q = Q_V ∘ V`.
//!
//! For the *finite* variant, the procedure gives:
//!
//! * a **sound positive** answer — unrestricted determinacy implies
//!   finite determinacy (fewer instances to distinguish);
//! * otherwise, a bounded search for a finite counterexample;
//! * failing both, `Open`: whether unrestricted and finite determinacy
//!   coincide for CQs is exactly the paper's open question
//!   (Theorem 5.11).

use crate::determinacy::semantic::{check_exhaustive_ctx, Counterexample, SemanticVerdict};
use vqd_budget::{Budget, VqdError};
use vqd_chase::{proposition_3_5_test_budgeted, try_canonical, Canonical, CqViews};
use vqd_eval::minimize_cq;
use vqd_instance::Instance;
use vqd_query::{Cq, QueryExpr};
use vqd_router::{classify, decide_project_select, Fragment};

/// The chase-side evidence of a Theorem 3.7 decision, kept for
/// `explain`-style narration. Requests routed down the project-select
/// fast path decide without ever materializing it.
#[derive(Clone, Debug)]
pub struct ChaseEvidence {
    /// The canonical data (`[Q]`, `S = V([Q])`, candidate `Q_V`).
    pub canonical: Canonical,
    /// `V_∅^{-1}(S)` — the chased instance the test evaluates `Q` on.
    pub chased: Instance,
}

/// Result of the unrestricted decision procedure.
#[derive(Clone, Debug)]
pub struct UnrestrictedOutcome {
    /// Whether `V ↠ Q` holds over unrestricted instances.
    pub determined: bool,
    /// The minimized exact rewriting, when determined.
    pub rewriting: Option<Cq>,
    /// The syntactic fragment the (views, query) pair was classified
    /// into (see [`vqd_router::classify`]).
    pub fragment: Fragment,
    /// Whether the verdict came from a decidable fast path rather than
    /// the chase test.
    pub fast_path: bool,
    /// Chase evidence, present exactly when the chase route ran.
    pub evidence: Option<Box<ChaseEvidence>>,
}

impl UnrestrictedOutcome {
    /// A human-readable trace of the decision: for the chase route, the
    /// frozen query `[Q]`, its view image `S`, the chased instance
    /// `V_∅^{-1}(S)`, the membership verdict, and the rewriting (if
    /// any); for a fast-path verdict, the fragment and the routing that
    /// produced it.
    pub fn explain(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fragment: {} — routed to {}",
            self.fragment.tag(),
            self.fragment.route()
        );
        if let Some(ev) = &self.evidence {
            let _ = writeln!(out, "\nfrozen query [Q] (head = {:?}):", ev.canonical.frozen_head);
            let _ = writeln!(out, "{}", ev.canonical.frozen_query);
            let _ = writeln!(out, "\nview image S = V([Q]):");
            let _ = writeln!(out, "{}", ev.canonical.s);
            let _ = writeln!(out, "\nchased instance V_inv(S):");
            let _ = writeln!(out, "{}", ev.chased);
            let _ = writeln!(
                out,
                "\nhead in Q(V_inv(S)): {}  =>  V {} Q (unrestricted)",
                self.determined,
                if self.determined { "determines" } else { "does NOT determine" }
            );
        } else {
            let _ = writeln!(
                out,
                "\ndirect decision (no chase): V {} Q (unrestricted)",
                if self.determined { "determines" } else { "does NOT determine" }
            );
        }
        match &self.rewriting {
            Some(r) => {
                let _ = writeln!(out, "exact rewriting: {}", r.render("R"));
            }
            None => {
                let _ = writeln!(
                    out,
                    "no exact rewriting exists in ANY language (Theorem 3.3, unrestricted)"
                );
            }
        }
        out
    }
}

/// Decides unrestricted determinacy for CQ views and a CQ query
/// (Theorem 3.7), producing the canonical rewriting when it holds.
///
/// ```
/// use vqd_chase::CqViews;
/// use vqd_core::determinacy::unrestricted::decide_unrestricted;
/// use vqd_instance::{DomainNames, Schema};
/// use vqd_query::{parse_program, parse_query, ViewSet};
///
/// let schema = Schema::new([("E", 2)]);
/// let mut names = DomainNames::new();
/// let prog = parse_program(&schema, &mut names, "V(x,y) :- E(x,y).").unwrap();
/// let views = CqViews::new(ViewSet::new(&schema, prog.defs));
/// let q = parse_query(&schema, &mut names, "Q(x,z) :- E(x,y), E(y,z).")
///     .unwrap().as_cq().unwrap().clone();
///
/// let outcome = decide_unrestricted(&views, &q);
/// assert!(outcome.determined);
/// let rewriting = outcome.rewriting.unwrap();
/// assert_eq!(rewriting.render("R"), "R(n0,n2) :- V(n0,n1), V(n1,n2).");
/// ```
pub fn decide_unrestricted(views: &CqViews, q: &Cq) -> UnrestrictedOutcome {
    match decide_unrestricted_budgeted(views, q, &Budget::unlimited()) {
        Ok(out) => out,
        Err(e) => panic!("decide_unrestricted: {e}"),
    }
}

/// Budgeted, fallible [`decide_unrestricted`]: hypothesis violations
/// (non-CQ input, schema mismatch) and budget exhaustion surface as
/// [`VqdError`]s instead of panics or hangs. Exhaustion
/// ([`VqdError::Exhausted`]) carries the work performed, so an
/// escalating-budget caller can retry meaningfully.
///
/// Requests are routed by [`vqd_router::classify`]: project-select
/// pairs take the direct polynomial procedure (zero chase rounds, zero
/// index builds); everything else runs the Theorem 3.7 chase test.
/// Routing never changes the verdict or the rewriting — only how fast
/// (and how definitely) they are reached.
pub fn decide_unrestricted_budgeted(
    views: &CqViews,
    q: &Cq,
    budget: &Budget,
) -> Result<UnrestrictedOutcome, VqdError> {
    match classify(views, q) {
        Fragment::ProjectSelect => {
            let fast = decide_project_select(views, q, budget)?;
            Ok(UnrestrictedOutcome {
                determined: fast.determined,
                rewriting: fast.rewriting,
                fragment: Fragment::ProjectSelect,
                fast_path: true,
                evidence: None,
            })
        }
        _ => decide_unrestricted_chase_budgeted(views, q, budget),
    }
}

/// The un-routed Theorem 3.7 chase test, available directly for parity
/// testing against the fast paths (and as the routing target for the
/// path and general fragments).
pub fn decide_unrestricted_chase_budgeted(
    views: &CqViews,
    q: &Cq,
    budget: &Budget,
) -> Result<UnrestrictedOutcome, VqdError> {
    let can = try_canonical(views, q)?;
    let (determined, chased) = proposition_3_5_test_budgeted(views, &can, q, budget)?;
    let rewriting = determined.then(|| minimize_cq(&can.q_v));
    Ok(UnrestrictedOutcome {
        determined,
        rewriting,
        fragment: classify(views, q),
        fast_path: false,
        evidence: Some(Box::new(ChaseEvidence { canonical: can, chased })),
    })
}

/// Verdict for the finite variant.
#[derive(Clone, Debug)]
pub enum FiniteVerdict {
    /// Finitely determined (via unrestricted determinacy), with the exact
    /// CQ rewriting.
    Determined(Box<Cq>),
    /// Not finitely determined, with a concrete finite witness.
    NotDetermined(Box<Counterexample>),
    /// Unrestricted determinacy fails and no finite counterexample was
    /// found within the search bound — the open regime of Theorem 5.11:
    /// if finite and unrestricted determinacy coincide for CQs (open!),
    /// this case is actually `NotDetermined`.
    Open {
        /// Largest domain size exhaustively searched.
        searched_up_to: usize,
    },
    /// The resource budget tripped before the search bound was reached —
    /// inconclusive, with the work done recorded; retry with a larger
    /// budget for a `Determined`/`NotDetermined`/`Open` verdict.
    Exhausted(Box<vqd_budget::Exhausted>),
}

impl FiniteVerdict {
    /// Whether this verdict is final for the requested bound (i.e. not a
    /// budget exhaustion).
    pub fn is_conclusive(&self) -> bool {
        !matches!(self, FiniteVerdict::Exhausted(_))
    }
}

/// Decides finite determinacy for CQ views and queries as far as theory
/// allows: sound positive via the chase, definitive negative via bounded
/// exhaustive search, `Open` otherwise.
pub fn decide_finite(
    views: &CqViews,
    q: &Cq,
    max_domain: usize,
    space_limit: u128,
) -> FiniteVerdict {
    match decide_finite_budgeted(views, q, max_domain, space_limit, &Budget::unlimited()) {
        Ok(v) => v,
        Err(e) => panic!("decide_finite: {e}"),
    }
}

/// Budgeted [`decide_finite`]: the chase and every bounded exhaustive
/// scan draw on one shared `budget`. Running out anywhere yields the
/// verdict [`FiniteVerdict::Exhausted`]; genuinely invalid input is the
/// only `Err`.
pub fn decide_finite_budgeted(
    views: &CqViews,
    q: &Cq,
    max_domain: usize,
    space_limit: u128,
    budget: &Budget,
) -> Result<FiniteVerdict, VqdError> {
    let unrestricted = match decide_unrestricted_budgeted(views, q, budget) {
        Ok(out) => out,
        Err(VqdError::Exhausted(e)) => return Ok(FiniteVerdict::Exhausted(e)),
        Err(e) => return Err(e),
    };
    if unrestricted.determined {
        let Some(rewriting) = unrestricted.rewriting else {
            return Err(VqdError::InvalidInput {
                context: "decide_finite",
                message: "determined outcome lacks a rewriting (internal invariant)".to_string(),
            });
        };
        return Ok(FiniteVerdict::Determined(Box::new(rewriting)));
    }
    let qe = QueryExpr::Cq(q.clone());
    let mut searched = 0;
    for n in 1..=max_domain {
        match check_exhaustive_ctx(views.as_view_set(), &qe, n, space_limit, budget)? {
            SemanticVerdict::NotDetermined(c) => return Ok(FiniteVerdict::NotDetermined(c)),
            SemanticVerdict::NoCounterexampleUpTo(k) => searched = k,
            SemanticVerdict::TooLarge { .. } => break,
            SemanticVerdict::Exhausted(e) => return Ok(FiniteVerdict::Exhausted(e)),
        }
    }
    Ok(FiniteVerdict::Open { searched_up_to: searched })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqd_eval::{apply_views, cq_equivalent, eval_cq};
    use vqd_instance::gen::random_instance;
    use vqd_instance::{DomainNames, Schema};
    use vqd_query::{parse_program, parse_query, ViewSet};

    fn schema() -> Schema {
        Schema::new([("E", 2), ("P", 1)])
    }

    fn setup(view_src: &str, q_src: &str) -> (CqViews, Cq) {
        let s = schema();
        let mut names = DomainNames::new();
        let prog = parse_program(&s, &mut names, view_src).unwrap();
        let views = CqViews::new(ViewSet::new(&s, prog.defs));
        let q = parse_query(&s, &mut names, q_src)
            .unwrap()
            .as_cq()
            .unwrap()
            .clone();
        (views, q)
    }

    #[test]
    fn determined_pair_yields_verified_rewriting() {
        let (v, q) = setup(
            "V(x,y) :- E(x,y).\nW(x) :- P(x).",
            "Q(x,z) :- E(x,y), E(y,z), P(x).",
        );
        let out = decide_unrestricted(&v, &q);
        assert!(out.determined);
        let r = out.rewriting.expect("rewriting");
        // Verify Q(D) = R(V(D)) on random instances.
        let mut rng = rand::rngs::mock::StepRng::new(42, 77);
        for _ in 0..10 {
            let d = random_instance(&schema(), 4, 0.3, &mut rng);
            let image = apply_views(v.as_view_set(), &d);
            assert_eq!(eval_cq(&q, &d), eval_cq(&r, &image));
        }
    }

    #[test]
    fn undetermined_pair_is_refuted_or_open() {
        let (v, q) = setup(
            "V(x,y) :- E(x,z), E(z,y).",
            "Q(x,y) :- E(x,a), E(a,b), E(b,y).",
        );
        let out = decide_unrestricted(&v, &q);
        assert!(!out.determined);
        assert!(out.rewriting.is_none());
        match decide_finite(&v, &q, 3, 1 << 22) {
            FiniteVerdict::NotDetermined(_) => {}
            other => panic!("expected finite refutation, got {other:?}"),
        }
    }

    #[test]
    fn explain_narrates_both_outcomes() {
        let (v, q) = setup("V(x,y) :- E(x,y).", "Q(x,z) :- E(x,y), E(y,z).");
        let yes = decide_unrestricted(&v, &q).explain();
        assert!(yes.contains("exact rewriting"));
        assert!(yes.contains("V determines Q"));
        let (v2, q2) = setup(
            "V(x,y) :- E(x,z), E(z,y).",
            "Q(x,y) :- E(x,a), E(a,b), E(b,y).",
        );
        let no = decide_unrestricted(&v2, &q2).explain();
        assert!(no.contains("does NOT determine"));
        assert!(no.contains("no exact rewriting"));
    }

    #[test]
    fn rewriting_is_minimized() {
        // An identity pair routes down the fast path; its rewriting must
        // still be the minimized canonical candidate, byte-identical to
        // what the chase route computes.
        let (v, q) = setup("V(x,y) :- E(x,y).", "Q(x,y) :- E(x,y).");
        let out = decide_unrestricted(&v, &q);
        assert!(out.fast_path, "identity pair must route to the fast path");
        let r = out.rewriting.unwrap();
        assert_eq!(r.atoms.len(), 1);
        let chase = decide_unrestricted_chase_budgeted(&v, &q, &Budget::unlimited()).unwrap();
        let canonical = &chase.evidence.as_ref().unwrap().canonical;
        assert!(cq_equivalent(&r, &canonical.q_v));
        assert_eq!(r.render("R"), chase.rewriting.unwrap().render("R"));
    }

    #[test]
    fn fast_path_agrees_with_chase_on_project_select_pairs() {
        // Hand-picked project-select pairs spanning projection,
        // selection (repeated variables), column swap, multiple views,
        // and non-determinacy: the routed verdict and rewriting must
        // match the un-routed chase test exactly.
        let pairs = [
            ("V(x,y) :- E(x,y).", "Q(x,y) :- E(x,y)."),
            ("V(y,x) :- E(x,y).", "Q(x) :- E(x,x)."),
            ("V(x) :- E(x,y).", "Q(x) :- E(x,x)."),
            ("V(x) :- E(x,x).", "Q(x) :- E(x,x)."),
            ("V1(x) :- E(x,y).\nV2(y) :- E(x,y).", "Q(x,y) :- E(x,y)."),
            ("V(x,y,x) :- E(x,y).", "Q(y,x) :- E(x,y)."),
            ("W(x) :- P(x).", "Q(x,y) :- E(x,y)."),
            ("B() :- E(x,y).", "Q() :- E(x,y)."),
            ("B() :- E(x,y).", "Q(x) :- E(x,y)."),
        ];
        for (vs, qs) in pairs {
            let (v, q) = setup(vs, qs);
            let routed = decide_unrestricted(&v, &q);
            assert!(routed.fast_path, "{vs} / {qs} must route to the fast path");
            assert_eq!(routed.fragment, vqd_router::Fragment::ProjectSelect);
            let chase =
                decide_unrestricted_chase_budgeted(&v, &q, &Budget::unlimited()).unwrap();
            assert_eq!(routed.determined, chase.determined, "{vs} / {qs}: verdict differs");
            assert_eq!(
                routed.rewriting.map(|r| r.render("R")),
                chase.rewriting.map(|r| r.render("R")),
                "{vs} / {qs}: rewriting differs"
            );
        }
    }

    #[test]
    fn finite_determined_via_unrestricted() {
        let (v, q) = setup("V(x,y) :- E(x,y).", "Q(x,z) :- E(x,y), E(y,z).");
        match decide_finite(&v, &q, 2, 1 << 20) {
            FiniteVerdict::Determined(r) => {
                assert_eq!(r.schema.len(), 1); // over σ_V
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn boolean_view_boolean_query() {
        let (v, q) = setup("B() :- E(x,y).", "Q() :- E(x,y), E(y,z).");
        // ∃edge does not determine ∃2-path… or does it? An instance with
        // one edge has no 2-path; with a loop it does — same view image
        // {B=true}. Not determined.
        let out = decide_unrestricted(&v, &q);
        assert!(!out.determined);
        match decide_finite(&v, &q, 3, 1 << 22) {
            FiniteVerdict::NotDetermined(c) => {
                assert_ne!(c.q1, c.q2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}

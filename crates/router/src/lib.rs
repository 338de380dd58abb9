//! `vqd-router`: a syntactic fragment classifier over (views, query)
//! pairs, plus direct decision procedures for the decidable fragments.
//!
//! CQ determinacy is **undecidable in general** (Gogacz–Marcinkowski,
//! "The Hunt for a Red Spider"), so the chase test of Theorem 3.7 and
//! the finite searches are honest semi-decision procedures governed by
//! budgets. But large sub-languages are decidable — project-select
//! views are even polynomial (Zhang–Panda–Sagiv–Shenker, "A Decidable
//! Case of Query Determinacy"). This crate is the routing skeleton that
//! exploits that frontier:
//!
//! * [`classify`] assigns a [`Fragment`] to a (views, query) pair by
//!   purely structural analysis — no evaluation, no chase, no budget;
//! * [`decide_project_select`] decides the project-select fragment
//!   directly: a constant number of passes over single atoms, with a
//!   definite `Determined`/`NotDetermined` verdict and the exact
//!   rewriting, **without** building an index or running the chase;
//! * callers (`vqd-core`'s `decide_unrestricted`, the server) route on
//!   the fragment: project-select → fast path, path → chase tower as
//!   today, general → budgeted semi-decision with an honest
//!   `undecidable-in-general` note.
//!
//! The fast path is *verdict- and rewriting-identical* to the chase
//! test (see `FAST_PATH_PARITY` below), so routing is an optimization,
//! never a semantics change.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use vqd_budget::{Budget, VqdError};
use vqd_chase::CqViews;
use vqd_instance::{Instance, NullGen, RelId, Value};
use vqd_query::{Atom, Cq, CqLang, QueryExpr, Term, VarId, ViewSet};

/// The syntactic fragment of a (views, query) pair, ordered from most
/// to least decidable. The lattice is `ProjectSelect < PathQuery <
/// General`: every project-select pair that is also a single-edge chain
/// classifies as `ProjectSelect` (the more decidable fragment wins).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fragment {
    /// Query and every view are single-atom plain CQs (selections via
    /// constants and repeated variables, projections via the head).
    /// Determinacy is decidable in polynomial time; routed to
    /// [`decide_project_select`].
    ProjectSelect,
    /// Query and every view are chain CQs: binary atoms forming one
    /// linear path of distinct variables, head = (first, last).
    /// Routed to the chase test / tower as today.
    PathQuery,
    /// Everything else — the regime where determinacy is undecidable
    /// (Gogacz–Marcinkowski); routed to the budgeted semi-decision
    /// procedures.
    General,
}

impl Fragment {
    /// Short registry/CLI tag (`router.fragment.<tag>` counters).
    pub fn tag(self) -> &'static str {
        match self {
            Fragment::ProjectSelect => "project-select",
            Fragment::PathQuery => "path",
            Fragment::General => "general",
        }
    }

    /// The honest per-reply wire note: decidable fragments carry their
    /// name; the general fragment admits that no terminating procedure
    /// exists for it.
    pub fn wire_note(self) -> &'static str {
        match self {
            Fragment::ProjectSelect => "project-select",
            Fragment::PathQuery => "path",
            Fragment::General => "undecidable-in-general",
        }
    }

    /// Whether a terminating decision procedure exists for the fragment
    /// (as opposed to a budget-governed semi-decision).
    pub fn is_decidable(self) -> bool {
        !matches!(self, Fragment::General)
    }

    /// One-line description of how requests in this fragment are routed.
    pub fn route(self) -> &'static str {
        match self {
            Fragment::ProjectSelect => "direct polynomial decision procedure (no chase, no index)",
            Fragment::PathQuery => "chase test / tower (terminates on this fragment)",
            Fragment::General => "budgeted semi-decision (undecidable in general)",
        }
    }
}

/// Whether a single CQ has project-select shape: exactly one positive
/// atom, no equalities/inequalities/negation, and a safe head.
/// Selection is expressed by constants and repeated variables in the
/// atom; projection by the head.
pub fn is_project_select(q: &Cq) -> bool {
    q.language() == CqLang::Cq && q.atoms.len() == 1 && q.is_safe()
}

/// Whether a single CQ is a chain (path) query: every atom binary over
/// two distinct variables, atoms linked into one linear path
/// `v0 → v1 → … → vn` with all variables distinct, and head exactly
/// `(v0, vn)`.
pub fn is_chain(q: &Cq) -> bool {
    if q.language() != CqLang::Cq || q.atoms.is_empty() {
        return false;
    }
    let mut seq: Vec<VarId> = Vec::new();
    for atom in &q.atoms {
        let [Term::Var(a), Term::Var(b)] = atom.args[..] else {
            return false;
        };
        if a == b {
            return false;
        }
        match seq.last() {
            Some(&last) if a != last => return false,
            Some(_) => {}
            None => seq.push(a),
        }
        seq.push(b);
    }
    let distinct: std::collections::BTreeSet<VarId> = seq.iter().copied().collect();
    distinct.len() == seq.len()
        && q.head == vec![Term::Var(seq[0]), Term::Var(*seq.last().unwrap())]
}

fn classify_cqs(views: &[&Cq], q: &Cq) -> Fragment {
    if is_project_select(q) && views.iter().all(|v| is_project_select(v)) {
        Fragment::ProjectSelect
    } else if is_chain(q) && views.iter().all(|v| is_chain(v)) {
        Fragment::PathQuery
    } else {
        Fragment::General
    }
}

/// Classifies a validated CQ (views, query) pair. Purely syntactic:
/// deterministic, total, and free of evaluation — calling it twice on
/// the same pair always yields the same fragment.
pub fn classify(views: &CqViews, q: &Cq) -> Fragment {
    let cqs: Vec<&Cq> = (0..views.len()).map(|i| views.cq(i)).collect();
    classify_cqs(&cqs, q)
}

/// Classifies an arbitrary (view set, query) pair as parsed off the
/// wire. Anything that is not a plain-CQ pair (UCQ or FO anywhere) is
/// `General` — the decidable fragments are defined inside plain CQ.
pub fn classify_pair(views: &ViewSet, q: &QueryExpr) -> Fragment {
    let Some(q) = q.as_cq() else {
        return Fragment::General;
    };
    let view_cqs: Option<Vec<&Cq>> = views.views().iter().map(|v| v.query.as_cq()).collect();
    match view_cqs {
        Some(cqs) => classify_cqs(&cqs, q),
        None => Fragment::General,
    }
}

/// Result of the project-select fast path. Mirrors the data of the
/// chase-based decision closely enough for `explain`-style narration
/// and for parity tests against the chase.
#[derive(Clone, Debug)]
pub struct FastOutcome {
    /// Whether **V** determines `Q` (a *definite* verdict — this
    /// fragment is decidable).
    pub determined: bool,
    /// The exact rewriting over `σ_V` when determined — byte-identical
    /// to what the chase path's minimizer produces (see
    /// `FAST_PATH_PARITY`).
    pub rewriting: Option<Cq>,
    /// `[Q]` — the frozen single-fact query body.
    pub frozen_query: Instance,
    /// The frozen head `x̄`.
    pub frozen_head: Vec<Value>,
    /// `S = V([Q])` — at most one tuple per view.
    pub s: Instance,
    /// How many views matched the frozen fact (= tuples in `S`).
    pub matched_views: usize,
}

/// FAST_PATH_PARITY: why this procedure agrees with the chase test
/// byte-for-byte on the project-select fragment.
///
/// `[Q]` is a single fact, so `S = V([Q])` holds at most one tuple per
/// view (a single-atom view has at most one homomorphism into a
/// one-fact instance, and it is forced position-wise). The chase of `S`
/// from the empty instance fires each matched view's single body atom
/// exactly once, producing one fact per matched view — no recursion,
/// no index needed. Membership `x̄ ∈ Q(V_∅^{-1}(S))` reduces to a
/// position-wise match of `Q`'s single atom against each chased fact.
/// Finally, distinct views are distinct output relations, so the
/// candidate `Q_V` has at most one atom per relation and the greedy
/// minimizer can never drop an atom (a body missing relation `R` has no
/// homomorphism from one that contains an `R`-atom): the minimized
/// rewriting is exactly `Q_V.compact()`.
pub fn decide_project_select(
    views: &CqViews,
    q: &Cq,
    budget: &Budget,
) -> Result<FastOutcome, VqdError> {
    let vs = views.as_view_set();
    if &q.schema != vs.input_schema() {
        return Err(VqdError::SchemaMismatch {
            context: "router: query schema must match the views' input schema",
            expected: format!("{:?}", vs.input_schema()),
            found: format!("{:?}", q.schema),
        });
    }
    if !is_project_select(q) || !(0..views.len()).all(|i| is_project_select(views.cq(i))) {
        return Err(VqdError::InvalidInput {
            context: "router",
            message: "decide_project_select requires a project-select pair \
                      (single-atom plain CQs throughout)"
                .to_string(),
        });
    }

    // 1. Freeze the query: distinct variables become nulls in the same
    //    order `vqd_eval::freeze` uses (atom args first, then head).
    let atom = &q.atoms[0];
    let mut nulls = NullGen::new();
    let mut frozen_of: BTreeMap<VarId, Value> = BTreeMap::new();
    let mut freeze_term = |t: Term, frozen_of: &mut BTreeMap<VarId, Value>| match t {
        Term::Const(c) => c,
        Term::Var(v) => *frozen_of.entry(v).or_insert_with(|| nulls.fresh()),
    };
    let fact: Vec<Value> = atom.args.iter().map(|&t| freeze_term(t, &mut frozen_of)).collect();
    let frozen_head: Vec<Value> = q.head.iter().map(|&t| freeze_term(t, &mut frozen_of)).collect();
    let mut frozen_query = Instance::empty(vs.input_schema());
    frozen_query.insert(atom.rel, fact.clone());
    budget.checkpoint_with(&format_args!("fast path: froze project-select query to 1 fact"))?;

    // 2. S = V([Q]): each view's single atom either matches the one
    //    frozen fact (position-wise, uniquely) or the view is empty.
    let mut s = Instance::empty(vs.output_schema());
    let mut images: Vec<Option<Vec<Value>>> = Vec::with_capacity(views.len());
    for i in 0..views.len() {
        let v = views.cq(i);
        let image = match_atom(&v.atoms[0], atom.rel, &fact).map(|theta| {
            v.head
                .iter()
                .map(|t| match *t {
                    Term::Const(c) => c,
                    Term::Var(x) => theta[&x],
                })
                .collect::<Vec<Value>>()
        });
        if let Some(t) = &image {
            s.insert(vs.output_rel(i), t.clone());
            budget.charge_tuples(
                1,
                &format_args!("fast path: view image reached {} tuples", s.total_tuples()),
            )?;
        }
        budget.checkpoint_with(&format_args!(
            "fast path: matched {} of {} views against the frozen query",
            i + 1,
            views.len()
        ))?;
        images.push(image);
    }
    let matched_views = s.total_tuples();

    // 3. The candidate rewriting Q_V, built exactly as the canonical
    //    construction does (un-freeze S in RelId order, nulls become
    //    variables in encounter order, head last).
    let mut q_v = Cq::new(vs.output_schema());
    let mut var_of: BTreeMap<Value, VarId> = BTreeMap::new();
    let term_of = |v: Value, q_v: &mut Cq, var_of: &mut BTreeMap<Value, VarId>| -> Term {
        match v {
            Value::Named(_) => Term::Const(v),
            Value::Null(i) => {
                let var = *var_of.entry(v).or_insert_with(|| q_v.var(&format!("n{i}")));
                Term::Var(var)
            }
        }
    };
    for (rel, r) in s.iter() {
        for t in r.iter() {
            let args: Vec<Term> = t.iter().map(|&v| term_of(v, &mut q_v, &mut var_of)).collect();
            q_v.atoms.push(Atom::new(rel, args));
        }
    }
    q_v.head = frozen_head.iter().map(|&v| term_of(v, &mut q_v, &mut var_of)).collect();

    // 4. Chase V_∅^{-1}(S): one fact per matched view — head variables
    //    take the image values, the rest take fresh nulls.
    let mut chased: Vec<(RelId, Vec<Value>)> = Vec::new();
    for (i, slot) in images.iter().enumerate() {
        let Some(image) = slot else { continue };
        let v = views.cq(i);
        let mut mu: BTreeMap<VarId, Value> = BTreeMap::new();
        for (k, t) in v.head.iter().enumerate() {
            // Repeated head variables are consistent by construction:
            // the image tuple *is* θ applied to this head.
            if let Term::Var(x) = *t {
                mu.insert(x, image[k]);
            }
        }
        let body = &v.atoms[0];
        let fact: Vec<Value> = body
            .args
            .iter()
            .map(|t| match *t {
                Term::Const(c) => c,
                Term::Var(x) => *mu.entry(x).or_insert_with(|| nulls.fresh()),
            })
            .collect();
        chased.push((body.rel, fact));
        budget.charge_tuples(
            1,
            &format_args!(
                "fast path: chased {} of {} matched view tuples",
                chased.len(),
                matched_views
            ),
        )?;
    }

    // 5. Membership x̄ ∈ Q(V_∅^{-1}(S)): match Q's single atom against
    //    each chased fact and compare heads.
    budget.checkpoint_with(&format_args!(
        "fast path: membership test over {} chased facts",
        chased.len()
    ))?;
    let determined = chased.iter().any(|(rel, f)| {
        let Some(sigma) = match_atom(atom, *rel, f) else {
            return false;
        };
        let head: Vec<Value> = q
            .head
            .iter()
            .map(|t| match *t {
                Term::Const(c) => c,
                Term::Var(x) => sigma[&x],
            })
            .collect();
        head == frozen_head
    });

    // When determined, every frozen-head null occurs in a chased fact at
    // a non-fresh position, hence in adom(S): Q_V is safe and (see
    // FAST_PATH_PARITY) `compact` *is* the minimized rewriting.
    let rewriting = determined.then(|| q_v.compact());
    Ok(FastOutcome { determined, rewriting, frozen_query, frozen_head, s, matched_views })
}

/// Position-wise match of a single atom against a single fact: the
/// unique candidate homomorphism, or `None`. Used both to compute
/// `V([Q])` (view atom vs frozen query fact) and for the membership
/// test (query atom vs chased fact).
fn match_atom(atom: &Atom, rel: RelId, fact: &[Value]) -> Option<BTreeMap<VarId, Value>> {
    if atom.rel != rel || atom.args.len() != fact.len() {
        return None;
    }
    let mut theta: BTreeMap<VarId, Value> = BTreeMap::new();
    for (t, &v) in atom.args.iter().zip(fact) {
        match *t {
            Term::Const(c) => {
                if c != v {
                    return None;
                }
            }
            Term::Var(x) => {
                if *theta.entry(x).or_insert(v) != v {
                    return None;
                }
            }
        }
    }
    Some(theta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqd_instance::{DomainNames, Schema};
    use vqd_query::{parse_program, parse_query, ViewSet};

    fn schema() -> Schema {
        Schema::new([("E", 2), ("P", 1)])
    }

    fn setup(views_src: &str, q_src: &str) -> (CqViews, Cq) {
        let s = schema();
        let mut names = DomainNames::new();
        let prog = parse_program(&s, &mut names, views_src).unwrap();
        let views = CqViews::new(ViewSet::new(&s, prog.defs));
        let q = parse_query(&s, &mut names, q_src).unwrap().as_cq().unwrap().clone();
        (views, q)
    }

    #[test]
    fn single_atom_pairs_classify_project_select() {
        let (v, q) = setup("V(x,y) :- E(x,y).", "Q(x) :- E(x,x).");
        assert_eq!(classify(&v, &q), Fragment::ProjectSelect);
    }

    #[test]
    fn single_edge_pair_prefers_project_select_over_path() {
        // A single binary atom with head (x, y) is both a project-select
        // CQ and a length-1 chain; the lattice puts ProjectSelect first.
        let (v, q) = setup("V(x,y) :- E(x,y).", "Q(x,y) :- E(x,y).");
        assert!(is_chain(&q));
        assert_eq!(classify(&v, &q), Fragment::ProjectSelect);
    }

    #[test]
    fn path_pairs_classify_path() {
        let (v, q) = setup("V(x,y) :- E(x,z), E(z,y).", "Q(x,z) :- E(x,y), E(y,z).");
        assert_eq!(classify(&v, &q), Fragment::PathQuery);
    }

    #[test]
    fn branching_and_projected_paths_are_general() {
        // Branching body: not a chain.
        let (v, q) = setup("V(x,y) :- E(x,y).", "Q(x) :- E(x,y), E(x,z).");
        assert_eq!(classify(&v, &q), Fragment::General);
        // Chain body but projected head: not a chain query.
        let (v2, q2) = setup("V(x,y) :- E(x,y).", "Q(x) :- E(x,y), E(y,z).");
        assert_eq!(classify(&v2, &q2), Fragment::General);
        // Cyclic body: repeated variable breaks chain-ness.
        let (v3, q3) = setup("V(x,y) :- E(x,y).", "Q(x,x) :- E(x,y), E(y,x).");
        assert_eq!(classify(&v3, &q3), Fragment::General);
    }

    #[test]
    fn classification_is_deterministic() {
        let (v, q) = setup("V(x) :- P(x).", "Q(x) :- E(x,x).");
        let first = classify(&v, &q);
        for _ in 0..10 {
            assert_eq!(classify(&v, &q), first);
        }
    }

    #[test]
    fn identity_pair_is_determined_with_identity_rewriting() {
        let (v, q) = setup("V(x,y) :- E(x,y).", "Q(x,y) :- E(x,y).");
        let out = decide_project_select(&v, &q, &Budget::unlimited()).unwrap();
        assert!(out.determined);
        assert_eq!(out.rewriting.unwrap().render("R"), "R(n0,n1) :- V(n0,n1).");
    }

    #[test]
    fn swap_and_selection_views_compose() {
        // The view swaps columns; the query selects the diagonal.
        let (v, q) = setup("V(y,x) :- E(x,y).", "Q(x) :- E(x,x).");
        let out = decide_project_select(&v, &q, &Budget::unlimited()).unwrap();
        assert!(out.determined);
        assert_eq!(out.rewriting.unwrap().render("R"), "R(n0) :- V(n0,n0).");
    }

    #[test]
    fn projection_view_loses_the_selection() {
        // The view only exposes first components; Q asks for loops.
        let (v, q) = setup("V(x) :- E(x,y).", "Q(x) :- E(x,x).");
        let out = decide_project_select(&v, &q, &Budget::unlimited()).unwrap();
        assert!(!out.determined);
        assert!(out.rewriting.is_none());
        assert_eq!(out.matched_views, 1);
    }

    #[test]
    fn unrelated_relation_view_never_matches() {
        let (v, q) = setup("V(x) :- P(x).", "Q(x,y) :- E(x,y).");
        let out = decide_project_select(&v, &q, &Budget::unlimited()).unwrap();
        assert_eq!(out.matched_views, 0);
        assert!(!out.determined);
    }

    #[test]
    fn boolean_view_determines_boolean_query() {
        let (v, q) = setup("B() :- E(x,y).", "Q() :- E(x,y).");
        let out = decide_project_select(&v, &q, &Budget::unlimited()).unwrap();
        assert!(out.determined);
        assert!(out.rewriting.unwrap().is_boolean());
    }

    #[test]
    fn fast_path_is_budget_governed() {
        let (v, q) = setup("V(x,y) :- E(x,y).", "Q(x,y) :- E(x,y).");
        let probe = Budget::unlimited();
        decide_project_select(&v, &q, &probe).unwrap();
        assert!(probe.steps() > 0, "fast path must reach checkpoints");
        let tripped = Budget::unlimited().trip_after(1);
        assert!(matches!(decide_project_select(&v, &q, &tripped), Err(VqdError::Exhausted(_))));
    }

    #[test]
    fn non_project_select_input_is_rejected() {
        let (v, q) = setup("V(x,y) :- E(x,y).", "Q(x,z) :- E(x,y), E(y,z).");
        assert!(matches!(
            decide_project_select(&v, &q, &Budget::unlimited()),
            Err(VqdError::InvalidInput { .. })
        ));
    }
}

//! MiniCon: contained rewritings and the maximally-contained rewriting.
//!
//! The paper's related-work baseline \[22\] (Levy–Mendelzon–Sagiv–
//! Srivastava) frames answering-queries-using-views as finding CQ
//! rewritings over the view vocabulary; MiniCon (Pottinger & Halevy) is
//! the classical algorithm enumerating them. We implement it for plain,
//! constant-free CQ views and queries; any other pair is reported as
//! [`Unsupported`] rather than rejected with a panic:
//!
//! * an **MCD** (MiniCon description) maps a subset `G` of the query's
//!   atoms into one view, subject to the two famous conditions —
//!   (C1) distinguished query variables land on distinguished view
//!   variables, and (C2) a query variable sent to an *existential* view
//!   variable drags every atom it occurs in into `G`. A query variable
//!   that must land on two distinguished view variables merges them:
//!   the least restrictive head unification;
//! * **combinations** of MCDs with disjoint coverage spanning all atoms
//!   yield contained rewritings; their union is the maximally-contained
//!   rewriting (MCR);
//! * an **equivalent** rewriting exists iff some combination's expansion
//!   is equivalent to `Q` — giving a second, independently-derived
//!   decision procedure for rewriting existence that experiment E17
//!   cross-checks against the chase-based one (Theorem 3.7).
//!
//! A classical bonus: under *sound* views, evaluating the MCR on a view
//! extent computes the certain answers — cross-checked against the
//! chase-based `certain_sound` in the tests.

use std::collections::{BTreeMap, BTreeSet};
use vqd_budget::{Budget, ExhaustReason, Exhausted};
use vqd_chase::CqViews;
use vqd_eval::{cq_contained, cq_equivalent, minimize_cq};
use vqd_query::{Atom, Cq, CqLang, Term, Ucq, VarId};

/// One MiniCon description: a partial homomorphism from the query into a
/// single view, under the least restrictive head-variable unification
/// `h` of that view that makes the homomorphism a function.
#[derive(Clone, Debug)]
pub struct Mcd {
    /// Index of the view in the view set.
    pub view: usize,
    /// The view after applying the head unification `h` (head variables
    /// merged onto class representatives, body substituted accordingly).
    /// The view itself when `h` merges nothing.
    pub unified: Cq,
    /// Indices of the query atoms covered.
    pub covered: BTreeSet<usize>,
    /// Query variable → (unified) view variable.
    pub phi: BTreeMap<VarId, VarId>,
}

fn distinguished_vars(cq: &Cq) -> BTreeSet<VarId> {
    cq.head.iter().filter_map(|t| t.as_var()).collect()
}

/// Why MiniCon does not apply to a `(views, query)` pair. Callers fall
/// back to another procedure (the chase) instead of getting a panic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Unsupported {
    /// A view or the query is not a plain, safe CQ with a non-empty body.
    NotPlainCq,
    /// A view or the query mentions a constant.
    Constant,
    /// The pair, or the search it started, is past a size bound (the
    /// certain-answer plan's; the public entry points are unbounded).
    TooLarge,
}

/// Size bounds for [`contained_rewritings_within`]. A pair past a bound
/// on its shape is rejected before any search; a search that grows past
/// a bound on its work stops with [`Unsupported::TooLarge`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct MiniconBounds {
    /// Atoms in the query body.
    pub(crate) query_atoms: usize,
    /// Atoms in the view bodies, summed over the views.
    pub(crate) view_atoms: usize,
    /// Distinct MCDs.
    pub(crate) mcds: usize,
    /// Complete MCD combinations assembled into candidate rewritings.
    pub(crate) combinations: usize,
    /// Atom unifications tried while closing MCDs, plus nodes of the
    /// combination search: the step limit of the search's budget.
    pub(crate) search_steps: u64,
}

impl MiniconBounds {
    /// No bounds: the unbounded entry points run under these.
    pub(crate) const NONE: MiniconBounds = MiniconBounds {
        query_atoms: usize::MAX,
        view_atoms: usize::MAX,
        mcds: usize::MAX,
        combinations: usize::MAX,
        search_steps: u64::MAX,
    };
}

/// Why a bounded search stopped early.
#[derive(Debug)]
pub(crate) enum Stop {
    /// The pair is out of scope, or it or its search is past a bound.
    Unsupported(Unsupported),
    /// The caller's deadline passed or the caller was canceled: the
    /// search says nothing about the pair.
    Exhausted(Exhausted),
}

impl From<Unsupported> for Stop {
    fn from(e: Unsupported) -> Stop {
        Stop::Unsupported(e)
    }
}

/// The answer of a search under an unlimited budget, which has no
/// deadline and is never canceled, so only [`Unsupported`] stops it.
fn unbudgeted<T>(r: Result<T, Stop>) -> Result<T, Unsupported> {
    r.map_err(|stop| match stop {
        Stop::Unsupported(e) => e,
        Stop::Exhausted(_) => Unsupported::TooLarge,
    })
}

/// The work counters of one bounded run. Its search steps are
/// checkpoints of a side budget of the caller's ([`Budget::side_budget`]).
struct Work {
    bounds: MiniconBounds,
    budget: Budget,
    combinations: usize,
}

impl Work {
    fn new(bounds: MiniconBounds, caller: &Budget) -> Work {
        Work { bounds, budget: caller.side_budget(bounds.search_steps), combinations: 0 }
    }

    fn step(&mut self) -> Result<(), Stop> {
        self.budget.checkpoint().map_err(|e| match e.reason {
            ExhaustReason::StepLimit => Stop::Unsupported(Unsupported::TooLarge),
            _ => Stop::Exhausted(e),
        })
    }

    /// Checks the caller's deadline and cancel token before a unit of
    /// work too coarse for the amortized check in [`Work::step`]: one
    /// completed combination's containment and minimization can take a
    /// millisecond, and a search may pass only a few dozen steps.
    fn poll(&self) -> Result<(), Stop> {
        let partial = format_args!("{} MiniCon combinations assembled", self.combinations);
        self.budget.poll(&partial).map_err(Stop::Exhausted)
    }
}

fn check_plain(q: &Cq) -> Result<(), Unsupported> {
    if q.language() != CqLang::Cq || q.atoms.is_empty() || !q.is_safe() {
        return Err(Unsupported::NotPlainCq);
    }
    let constant_free = q.head.iter().all(|t| t.is_var())
        && q.atoms.iter().all(|a| a.args.iter().all(|t| t.is_var()));
    if !constant_free {
        return Err(Unsupported::Constant);
    }
    Ok(())
}

/// Checks the scope (plain, constant-free) and the shape bounds: the
/// cheap part of [`contained_rewritings_within`], run before any search.
pub(crate) fn check_pair(
    views: &CqViews,
    q: &Cq,
    bounds: &MiniconBounds,
) -> Result<(), Unsupported> {
    check_plain(q)?;
    for i in 0..views.len() {
        check_plain(views.cq(i))?;
    }
    let view_atoms: usize = (0..views.len()).map(|i| views.cq(i).atoms.len()).sum();
    if q.atoms.len() > bounds.query_atoms || view_atoms > bounds.view_atoms {
        return Err(Unsupported::TooLarge);
    }
    Ok(())
}

/// A partial MCD under construction: the query atoms covered so far,
/// `phi` from query variables to view variables, and the head
/// unification `h` as a union-find over the view's variables.
#[derive(Clone)]
struct Partial {
    covered: BTreeSet<usize>,
    phi: BTreeMap<VarId, VarId>,
    h: BTreeMap<VarId, VarId>,
}

impl Partial {
    /// The class representative of view variable `v` under `h`.
    fn rep(&self, v: VarId) -> VarId {
        match self.h.get(&v) {
            Some(&p) if p != v => self.rep(p),
            _ => v,
        }
    }

    /// Extends `phi` by unifying query atom `g` with view atom `b`. A
    /// query variable already sent to another view variable merges the
    /// two in `h` when both are distinguished, the least restrictive
    /// unification that keeps `phi` a function; otherwise the atoms do
    /// not unify.
    fn unify(&mut self, g: &Atom, b: &Atom, v_dist: &BTreeSet<VarId>) -> bool {
        if g.rel != b.rel {
            return false;
        }
        for (qt, vt) in g.args.iter().zip(&b.args) {
            let (Term::Var(qv), Term::Var(vv)) = (qt, vt) else {
                return false;
            };
            let vv = self.rep(*vv);
            match self.phi.get(qv).map(|&prev| self.rep(prev)) {
                None => {
                    self.phi.insert(*qv, vv);
                }
                Some(prev) if prev == vv => {}
                Some(prev) if v_dist.contains(&prev) && v_dist.contains(&vv) => {
                    let (root, child) = (prev.min(vv), prev.max(vv));
                    self.h.insert(child, root);
                }
                Some(_) => return false,
            }
        }
        true
    }

    /// Whether query variable `qv` is sent to an existential view variable.
    fn existential(&self, qv: VarId, v_dist: &BTreeSet<VarId>) -> bool {
        self.phi.get(&qv).is_some_and(|&vv| !v_dist.contains(&self.rep(vv)))
    }

    /// The finished MCD: `h` applied to the view, `phi` onto class
    /// representatives.
    fn into_mcd(self, view_idx: usize, view: &Cq) -> Mcd {
        let unified = view.subst(&|v: VarId| Term::Var(self.rep(v)));
        let phi = self.phi.iter().map(|(&qv, &vv)| (qv, self.rep(vv))).collect();
        Mcd { view: view_idx, unified, covered: self.covered, phi }
    }
}

/// Generates all MCDs for `q` against `views`.
pub fn generate_mcds(views: &CqViews, q: &Cq) -> Result<Vec<Mcd>, Unsupported> {
    check_pair(views, q, &MiniconBounds::NONE)?;
    unbudgeted(mcds_within(views, q, &mut Work::new(MiniconBounds::NONE, &Budget::unlimited())))
}

fn mcds_within(views: &CqViews, q: &Cq, work: &mut Work) -> Result<Vec<Mcd>, Stop> {
    let q_dist = distinguished_vars(q);
    let mut out: Vec<Mcd> = Vec::new();
    let mut closed = Vec::new();
    for v_idx in 0..views.len() {
        let view = views.cq(v_idx);
        let v_dist = distinguished_vars(view);
        for seed_g in 0..q.atoms.len() {
            for seed_b in &view.atoms {
                work.step()?;
                let mut seed =
                    Partial { covered: [seed_g].into(), phi: BTreeMap::new(), h: BTreeMap::new() };
                if !seed.unify(&q.atoms[seed_g], seed_b, &v_dist) {
                    continue;
                }
                closures(q, view, &q_dist, &v_dist, seed, work, &mut closed)?;
                for partial in closed.drain(..) {
                    let mcd = partial.into_mcd(v_idx, view);
                    // Different seeds converge to the same closure.
                    if out.iter().any(|m| {
                        m.view == mcd.view
                            && m.unified.head == mcd.unified.head
                            && m.covered == mcd.covered
                            && m.phi == mcd.phi
                    }) {
                        continue;
                    }
                    if out.len() == work.bounds.mcds {
                        return Err(Unsupported::TooLarge.into());
                    }
                    out.push(mcd);
                }
            }
        }
    }
    Ok(out)
}

/// Enforces C1/C2 closure from a seed, pushing every completion onto
/// `out`: each view atom a needed query atom can unify with is its own
/// branch, so closures that differ in `phi` are all generated.
fn closures(
    q: &Cq,
    view: &Cq,
    q_dist: &BTreeSet<VarId>,
    v_dist: &BTreeSet<VarId>,
    partial: Partial,
    work: &mut Work,
    out: &mut Vec<Partial>,
) -> Result<(), Stop> {
    // C1: distinguished query vars must map to distinguished view vars.
    if q_dist.iter().any(|&qv| partial.existential(qv, v_dist)) {
        return Ok(());
    }
    // C2: a query var mapped to an existential view var drags in all its
    // atoms; close over the first uncovered one.
    let need = (0..q.atoms.len()).find(|i| {
        !partial.covered.contains(i) && q.atoms[*i].vars().any(|x| partial.existential(x, v_dist))
    });
    let Some(g) = need else {
        out.push(partial);
        return Ok(());
    };
    for b in &view.atoms {
        work.step()?;
        let mut next = partial.clone();
        if next.unify(&q.atoms[g], b, v_dist) {
            next.covered.insert(g);
            closures(q, view, q_dist, v_dist, next, work, out)?;
        }
    }
    Ok(())
}

/// Union-find root of query variable `v`.
fn find(parent: &mut BTreeMap<VarId, VarId>, v: VarId) -> VarId {
    let p = *parent.entry(v).or_insert(v);
    if p == v {
        return v;
    }
    let root = find(parent, p);
    parent.insert(v, root);
    root
}

/// Assembles the rewriting CQ for one combination of MCDs.
fn assemble(views: &CqViews, q: &Cq, combo: &[&Mcd]) -> Cq {
    let out_schema = views.as_view_set().output_schema();
    let mut r = Cq::new(out_schema);
    // Query variables mapped onto one view head variable of one MCD are
    // equal in the rewriting, across all MCDs of the combination.
    let mut parent: BTreeMap<VarId, VarId> = BTreeMap::new();
    for mcd in combo {
        for t in &mcd.unified.head {
            let hv = t.as_var().expect("constant-free views");
            let mut mapped = mcd.phi.iter().filter(|(_, vv)| **vv == hv).map(|(qv, _)| *qv);
            if let Some(first) = mapped.next() {
                let root = find(&mut parent, first);
                for other in mapped {
                    let other = find(&mut parent, other);
                    parent.insert(other, root);
                }
            }
        }
    }
    // One rewriting variable per class, named after its root; fresh
    // variables for view head positions no query variable maps onto.
    let mut var_of_root: BTreeMap<VarId, VarId> = BTreeMap::new();
    for (mcd_idx, mcd) in combo.iter().enumerate() {
        let mut fresh_of_vv: BTreeMap<VarId, VarId> = BTreeMap::new();
        let mut args: Vec<Term> = Vec::with_capacity(mcd.unified.head.len());
        for t in &mcd.unified.head {
            let hv = t.as_var().expect("constant-free views");
            let mapped = mcd.phi.iter().find(|(_, vv)| **vv == hv).map(|(qv, _)| *qv);
            let rv = match mapped {
                Some(qv) => {
                    let root = find(&mut parent, qv);
                    *var_of_root.entry(root).or_insert_with(|| r.var(&q.var_name(root)))
                }
                None => {
                    *fresh_of_vv.entry(hv).or_insert_with(|| r.var(&format!("f{mcd_idx}_{}", hv.0)))
                }
            };
            args.push(Term::Var(rv));
        }
        r.atoms.push(Atom::new(views.as_view_set().output_rel(mcd.view), args));
    }
    r.head = q
        .head
        .iter()
        .map(|t| {
            let qv = t.as_var().expect("constant-free query");
            let root = find(&mut parent, qv);
            Term::Var(*var_of_root.get(&root).expect("C1 guarantees head coverage"))
        })
        .collect();
    r
}

/// All contained rewritings from MCD combinations with disjoint coverage
/// spanning every query atom. Each result is verified
/// (`exp(R) ⊆ Q`) and minimized; results are deduplicated up to
/// equivalence.
pub fn contained_rewritings(views: &CqViews, q: &Cq) -> Result<Vec<Cq>, Unsupported> {
    unbudgeted(contained_rewritings_within(views, q, &MiniconBounds::NONE, &Budget::unlimited()))
}

/// [`contained_rewritings`] under size bounds: a pair or a search past
/// one of `bounds` is [`Unsupported::TooLarge`]. The search also stops
/// when `budget`'s deadline passes or it is canceled; `budget`'s own
/// step and tuple limits do not apply.
pub(crate) fn contained_rewritings_within(
    views: &CqViews,
    q: &Cq,
    bounds: &MiniconBounds,
    budget: &Budget,
) -> Result<Vec<Cq>, Stop> {
    check_pair(views, q, bounds)?;
    let mut work = Work::new(*bounds, budget);
    let mcds = mcds_within(views, q, &mut work)?;
    let all: BTreeSet<usize> = (0..q.atoms.len()).collect();
    let mut out: Vec<Cq> = Vec::new();
    let mut combo: Vec<&Mcd> = Vec::new();
    #[allow(clippy::too_many_arguments)]
    fn rec<'a>(
        views: &CqViews,
        q: &Cq,
        mcds: &'a [Mcd],
        start: usize,
        covered: &BTreeSet<usize>,
        all: &BTreeSet<usize>,
        combo: &mut Vec<&'a Mcd>,
        work: &mut Work,
        out: &mut Vec<Cq>,
    ) -> Result<(), Stop> {
        work.step()?;
        if covered == all {
            work.poll()?;
            work.combinations += 1;
            if work.combinations > work.bounds.combinations {
                return Err(Unsupported::TooLarge.into());
            }
            let r = assemble(views, q, combo);
            if !r.is_safe() {
                return Ok(());
            }
            let expansion = crate::rewriting::expand_through_views(views, &r);
            if !cq_contained(&expansion, q) {
                return Ok(()); // defensive: MiniCon should guarantee this
            }
            let r = minimize_cq(&r);
            if !out.iter().any(|prev| cq_equivalent(prev, &r)) {
                out.push(r);
            }
            return Ok(());
        }
        for (i, m) in mcds.iter().enumerate().skip(start) {
            if m.covered.iter().any(|g| covered.contains(g)) {
                continue; // MiniCon combines *disjoint* coverages
            }
            let mut covered2 = covered.clone();
            covered2.extend(m.covered.iter().copied());
            combo.push(m);
            rec(views, q, mcds, i + 1, &covered2, all, combo, work, out)?;
            combo.pop();
        }
        Ok(())
    }
    rec(views, q, &mcds, 0, &BTreeSet::new(), &all, &mut combo, &mut work, &mut out)?;
    Ok(out)
}

/// The maximally-contained rewriting: the union of all contained
/// rewritings (`None` if there are none).
pub fn maximally_contained_rewriting(views: &CqViews, q: &Cq) -> Result<Option<Ucq>, Unsupported> {
    let rs = contained_rewritings(views, q)?;
    Ok((!rs.is_empty()).then(|| Ucq::new(rs)))
}

/// MiniCon-based equivalent-rewriting existence: some combination's
/// expansion is equivalent to `Q`. Independent of the chase-based test
/// (Theorem 3.7) — the two must agree (experiment E17).
pub fn minicon_equivalent_rewriting(views: &CqViews, q: &Cq) -> Result<Option<Cq>, Unsupported> {
    Ok(contained_rewritings(views, q)?.into_iter().find(|r| {
        let expansion = crate::rewriting::expand_through_views(views, r);
        cq_equivalent(&expansion, q)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::determinacy::unrestricted::decide_unrestricted;
    use vqd_eval::{apply_views, eval_cq, eval_ucq};
    use vqd_instance::{DomainNames, Schema};
    use vqd_query::{parse_program, parse_query, QueryExpr, ViewSet};

    fn schema() -> Schema {
        Schema::new([("E", 2), ("P", 1)])
    }

    fn setup(view_src: &str, q_src: &str) -> (CqViews, Cq) {
        let s = schema();
        let mut names = DomainNames::new();
        let prog = parse_program(&s, &mut names, view_src).unwrap();
        let views = CqViews::new(ViewSet::new(&s, prog.defs));
        let q = parse_query(&s, &mut names, q_src).unwrap().as_cq().unwrap().clone();
        (views, q)
    }

    #[test]
    fn identity_views_give_the_query_back() {
        let (v, q) = setup("V(x,y) :- E(x,y).", "Q(x,z) :- E(x,y), E(y,z).");
        let r = minicon_equivalent_rewriting(&v, &q).unwrap().expect("equivalent rewriting");
        assert_eq!(r.atoms.len(), 2);
    }

    #[test]
    fn mcds_respect_c2_closure() {
        // 2-path views: any MCD touching the join variable must cover
        // both adjacent atoms.
        let (v, q) = setup("V(x,y) :- E(x,z), E(z,y).", "Q(x,y) :- E(x,a), E(a,b), E(b,y).");
        for mcd in generate_mcds(&v, &q).unwrap() {
            assert_eq!(mcd.covered.len(), 2, "C2 forces pairs of adjacent atoms: {mcd:?}");
        }
    }

    #[test]
    fn odd_paths_have_no_contained_rewriting_from_even_views() {
        let (v, q) = setup("V(x,y) :- E(x,z), E(z,y).", "Q(x,y) :- E(x,a), E(a,b), E(b,y).");
        assert!(contained_rewritings(&v, &q).unwrap().is_empty());
        assert!(maximally_contained_rewriting(&v, &q).unwrap().is_none());
        assert!(minicon_equivalent_rewriting(&v, &q).unwrap().is_none());
    }

    #[test]
    fn even_paths_rewrite_and_agree_with_chase() {
        let (v, q) =
            setup("V(x,y) :- E(x,z), E(z,y).", "Q(x,y) :- E(x,a), E(a,b), E(b,c), E(c,y).");
        let minicon = minicon_equivalent_rewriting(&v, &q).unwrap().expect("rewriting");
        let chase = decide_unrestricted(&v, &q).rewriting.expect("rewriting");
        assert!(cq_equivalent(&minicon, &chase));
    }

    #[test]
    fn minicon_and_chase_agree_on_random_pairs() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x171);
        for _ in 0..80 {
            // Small random constant-free pairs.
            let (v, q) = {
                use rand::Rng;
                let s = schema();
                let mk = |rng: &mut rand::rngs::StdRng| {
                    let mut q = Cq::new(&s);
                    let vars: Vec<VarId> = (0..3).map(|i| q.var(&format!("x{i}"))).collect();
                    for _ in 0..rng.gen_range(1..=3usize) {
                        if rng.gen_bool(0.7) {
                            let a = vars[rng.gen_range(0..3usize)];
                            let b = vars[rng.gen_range(0..3usize)];
                            q.atoms.push(Atom::new(s.rel("E"), vec![a.into(), b.into()]));
                        } else {
                            let a = vars[rng.gen_range(0..3usize)];
                            q.atoms.push(Atom::new(s.rel("P"), vec![a.into()]));
                        }
                    }
                    let used: Vec<VarId> = q.positive_vars().into_iter().collect();
                    let arity = rng.gen_range(0..=used.len().min(2));
                    q.head =
                        (0..arity).map(|_| Term::Var(used[rng.gen_range(0..used.len())])).collect();
                    q
                };
                let view = mk(&mut rng);
                let q = mk(&mut rng);
                (CqViews::new(ViewSet::new(&s, vec![("V", QueryExpr::Cq(view))])), q)
            };
            let chase_says = decide_unrestricted(&v, &q).rewriting.is_some();
            let minicon_says = minicon_equivalent_rewriting(&v, &q).unwrap().is_some();
            assert_eq!(
                chase_says,
                minicon_says,
                "disagreement on views {} / query {}",
                v.as_view_set(),
                q
            );
        }
    }

    #[test]
    fn mcr_is_contained_and_catches_partial_information() {
        // Views expose P-labelled edges and P itself; the query wants all
        // 2-paths: only P-rooted ones are recoverable.
        let (v, q) = setup("V1(x,y) :- E(x,y), P(x).\nV2(x) :- P(x).", "Q(x,z) :- E(x,y), E(y,z).");
        let mcr = maximally_contained_rewriting(&v, &q).unwrap();
        if let Some(mcr) = &mcr {
            // Containment: exp(MCR) ⊆ Q.
            for d in &mcr.disjuncts {
                let expansion = crate::rewriting::expand_through_views(&v, d);
                assert!(cq_contained(&expansion, &q));
            }
        }
        // No equivalent rewriting exists (unlabelled paths are lost).
        assert!(minicon_equivalent_rewriting(&v, &q).unwrap().is_none());
    }

    #[test]
    fn mcr_computes_certain_answers_under_sound_views() {
        use crate::certain::certain_sound;
        let (v, q) =
            setup("V(x,y) :- E(x,z), E(z,y).", "Q(x,y) :- E(x,a), E(a,b), E(b,c), E(c,y).");
        let mcr = maximally_contained_rewriting(&v, &q).unwrap().expect("MCR exists");
        // Build an extent and compare MCR(extent) with the chase-based
        // sound-view certain answers.
        let mut d = vqd_instance::Instance::empty(&schema());
        for i in 0..5u32 {
            d.insert_named("E", vec![vqd_instance::named(i), vqd_instance::named(i + 1)]);
        }
        let extent = apply_views(v.as_view_set(), &d);
        let via_mcr = eval_ucq(&mcr, &extent);
        let via_chase = certain_sound(&v, &q, &extent);
        assert_eq!(via_mcr, via_chase);
        // And on this determined pair both equal the true answer.
        assert_eq!(via_mcr, eval_cq(&q, &d));
    }

    #[test]
    fn boolean_views_and_queries_combine() {
        let (v, q) = setup("B() :- E(x,y).\nW(x) :- P(x).", "Q() :- E(x,y).");
        let r = minicon_equivalent_rewriting(&v, &q).unwrap().expect("Boolean rewriting");
        assert!(r.is_boolean());
    }

    #[test]
    fn every_c2_closure_is_an_mcd() {
        // Both query atoms leaving `b` are dragged in by `b -> y` and can
        // each land on either view edge leaving `y`: four closures from
        // one seed, which differ only in `phi` on `c` and `d`.
        let (v, q) = setup("V(x) :- E(x,y), E(y,u), E(y,w).", "Q(a) :- E(a,b), E(b,c), E(b,d).");
        let mut images: Vec<(String, String)> = Vec::new();
        for mcd in generate_mcds(&v, &q).unwrap() {
            if mcd.covered.len() < 3 {
                continue;
            }
            let image = |name: &str| {
                let (_, vv) = mcd.phi.iter().find(|(qv, _)| q.var_name(**qv) == name).unwrap();
                mcd.unified.var_name(*vv).to_string()
            };
            images.push((image("c"), image("d")));
        }
        images.sort();
        let want: Vec<(String, String)> = [("u", "u"), ("u", "w"), ("w", "u"), ("w", "w")]
            .iter()
            .map(|(c, d)| (c.to_string(), d.to_string()))
            .collect();
        assert_eq!(images, want);
    }

    #[test]
    fn constants_and_extensions_are_unsupported_not_panics() {
        for (views, query) in [
            ("V(x,y) :- E(x,y).", "Q(x) :- E(x,A)."),
            ("V(x) :- E(x,A).", "Q(x) :- E(x,y)."),
            ("V(x,A) :- E(x,y).", "Q(x) :- E(x,y)."),
        ] {
            let (v, q) = setup(views, query);
            assert_eq!(generate_mcds(&v, &q).unwrap_err(), Unsupported::Constant);
            assert_eq!(contained_rewritings(&v, &q).unwrap_err(), Unsupported::Constant);
            assert_eq!(maximally_contained_rewriting(&v, &q).unwrap_err(), Unsupported::Constant);
            assert_eq!(minicon_equivalent_rewriting(&v, &q).unwrap_err(), Unsupported::Constant);
        }
        let (v, q) = setup("V(x,y) :- E(x,y).", "Q(x) :- E(x,y), x != y.");
        assert_eq!(generate_mcds(&v, &q).unwrap_err(), Unsupported::NotPlainCq);
    }

    #[test]
    fn bounds_stop_the_search_with_too_large() {
        let (v, q) =
            setup("V(x,y) :- E(x,z), E(z,y).", "Q(x,y) :- E(x,a), E(a,b), E(b,c), E(c,y).");
        let unbounded = contained_rewritings(&v, &q).unwrap();
        assert!(!unbounded.is_empty());
        let tight = |f: fn(&mut MiniconBounds)| {
            let mut b = MiniconBounds::NONE;
            f(&mut b);
            unbudgeted(contained_rewritings_within(&v, &q, &b, &Budget::unlimited()))
        };
        assert_eq!(tight(|b| b.query_atoms = 3), Err(Unsupported::TooLarge));
        assert_eq!(tight(|b| b.view_atoms = 1), Err(Unsupported::TooLarge));
        assert_eq!(tight(|b| b.mcds = 1), Err(Unsupported::TooLarge));
        assert_eq!(tight(|b| b.combinations = 0), Err(Unsupported::TooLarge));
        assert_eq!(tight(|b| b.search_steps = 4), Err(Unsupported::TooLarge));
        assert_eq!(tight(|_| {}).unwrap().len(), unbounded.len());
    }

    #[test]
    fn a_canceled_caller_stops_the_search_without_a_verdict() {
        let (v, q) =
            setup("V(x,y) :- E(x,z), E(z,y).", "Q(x,y) :- E(x,a), E(a,b), E(b,c), E(c,y).");
        let caller = Budget::unlimited().with_step_limit(0);
        // The caller's own step limit does not bound the search.
        assert!(contained_rewritings_within(&v, &q, &MiniconBounds::NONE, &caller).is_ok());
        caller.cancel_token().cancel();
        match contained_rewritings_within(&v, &q, &MiniconBounds::NONE, &caller) {
            Err(Stop::Exhausted(e)) => assert_eq!(e.reason, ExhaustReason::Canceled),
            other => panic!("expected a cancel, got {other:?}"),
        }
    }
}

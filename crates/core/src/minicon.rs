//! MiniCon: contained rewritings and the maximally-contained rewriting.
//!
//! The paper's related-work baseline \[22\] (Levy–Mendelzon–Sagiv–
//! Srivastava) frames answering-queries-using-views as finding CQ
//! rewritings over the view vocabulary; MiniCon (Pottinger & Halevy) is
//! the classical algorithm enumerating them. We implement it for plain,
//! constant-free CQ views and queries:
//!
//! * an **MCD** (MiniCon description) maps a subset `G` of the query's
//!   atoms into one view, subject to the two famous conditions —
//!   (C1) distinguished query variables land on distinguished view
//!   variables, and (C2) a query variable sent to an *existential* view
//!   variable drags every atom it occurs in into `G`;
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
use vqd_chase::CqViews;
use vqd_eval::{cq_contained, cq_equivalent, minimize_cq};
use vqd_query::{Atom, Cq, CqLang, Term, Ucq, VarId};

/// One MiniCon description: a partial homomorphism from the query into a
/// single view, under a head-variable unification `h` of that view.
#[derive(Clone, Debug)]
pub struct Mcd {
    /// Index of the view in the view set.
    pub view: usize,
    /// The view after applying the head unification `h` (head variables
    /// merged onto class representatives, body substituted accordingly).
    pub unified: Cq,
    /// Indices of the query atoms covered.
    pub covered: BTreeSet<usize>,
    /// Query variable → (unified) view variable.
    pub phi: BTreeMap<VarId, VarId>,
}

/// All head-variable unifications of a view: one variant per partition of
/// its distinct head variables, each class substituted to its
/// representative. The identity partition comes first.
fn head_unifications(view: &Cq) -> Vec<Cq> {
    let mut head_vars: Vec<VarId> = Vec::new();
    for t in &view.head {
        if let Term::Var(v) = t {
            if !head_vars.contains(v) {
                head_vars.push(*v);
            }
        }
    }
    // Enumerate set partitions via restricted growth strings.
    let n = head_vars.len();
    let mut out = Vec::new();
    let mut rgs = vec![0usize; n];
    loop {
        // Build the substitution: each var maps to the first var of its
        // class.
        let mut rep: BTreeMap<VarId, VarId> = BTreeMap::new();
        let mut class_rep: BTreeMap<usize, VarId> = BTreeMap::new();
        for (i, &v) in head_vars.iter().enumerate() {
            let r = *class_rep.entry(rgs[i]).or_insert(v);
            rep.insert(v, r);
        }
        out.push(view.subst(&|v: VarId| Term::Var(*rep.get(&v).unwrap_or(&v))));
        // Next restricted growth string.
        let mut i = n;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            let max_prefix = rgs[..i].iter().copied().max().map_or(0, |m| m + 1);
            if rgs[i] < max_prefix {
                rgs[i] += 1;
                for slot in rgs[i + 1..].iter_mut() {
                    *slot = 0;
                }
                break;
            }
            rgs[i] = 0;
            if i == 0 {
                return out;
            }
        }
    }
}

fn distinguished_vars(cq: &Cq) -> BTreeSet<VarId> {
    cq.head.iter().filter_map(|t| t.as_var()).collect()
}

fn check_plain(q: &Cq, what: &str) {
    assert_eq!(q.language(), CqLang::Cq, "{what}: plain CQs only");
    let constant_free = q.head.iter().all(|t| t.is_var())
        && q.atoms.iter().all(|a| a.args.iter().all(|t| t.is_var()));
    assert!(
        constant_free,
        "{what}: constants are not supported by this MiniCon implementation"
    );
}

/// Extends `phi` by unifying query atom `g` with view atom `b`.
/// Fails on: mapping conflicts, or forced view-variable unification
/// (we only build MCDs with function-like `phi`; view-side head
/// unifications are not explored — see module docs for the scope).
fn unify_atom(
    g: &Atom,
    b: &Atom,
    phi: &mut BTreeMap<VarId, VarId>,
) -> bool {
    if g.rel != b.rel {
        return false;
    }
    for (qt, vt) in g.args.iter().zip(&b.args) {
        let (Term::Var(qv), Term::Var(vv)) = (qt, vt) else {
            return false;
        };
        match phi.get(qv) {
            Some(prev) if prev != vv => return false,
            Some(_) => {}
            None => {
                phi.insert(*qv, *vv);
            }
        }
    }
    true
}

/// Generates all MCDs for `q` against `views`.
pub fn generate_mcds(views: &CqViews, q: &Cq) -> Vec<Mcd> {
    check_plain(q, "generate_mcds");
    for i in 0..views.len() {
        check_plain(views.cq(i), "generate_mcds (view)");
    }
    let q_dist = distinguished_vars(q);
    let mut out: Vec<Mcd> = Vec::new();
    for v_idx in 0..views.len() {
        for unified in head_unifications(views.cq(v_idx)) {
            let v_dist = distinguished_vars(&unified);
            for seed_g in 0..q.atoms.len() {
                for seed_b in 0..unified.atoms.len() {
                    let mut phi = BTreeMap::new();
                    if !unify_atom(&q.atoms[seed_g], &unified.atoms[seed_b], &mut phi) {
                        continue;
                    }
                    let mut covered: BTreeSet<usize> = [seed_g].into();
                    if grow(q, &unified, &q_dist, &v_dist, &mut covered, &mut phi, seed_g) {
                        // Deduplicate identical MCDs (different seeds and
                        // coarser unifications can converge to the same
                        // closure).
                        if !out.iter().any(|m| {
                            m.view == v_idx
                                && m.unified.head == unified.head
                                && m.covered == covered
                                && m.phi == phi
                        }) {
                            out.push(Mcd {
                                view: v_idx,
                                unified: unified.clone(),
                                covered,
                                phi,
                            });
                        }
                    }
                }
            }
        }
    }
    out
}

/// Enforces C1/C2 closure: returns false if the seed cannot be completed.
fn grow(
    q: &Cq,
    view: &Cq,
    q_dist: &BTreeSet<VarId>,
    v_dist: &BTreeSet<VarId>,
    covered: &mut BTreeSet<usize>,
    phi: &mut BTreeMap<VarId, VarId>,
    _seed: usize,
) -> bool {
    // C1: distinguished query vars must map to distinguished view vars.
    for (qv, vv) in phi.iter() {
        if q_dist.contains(qv) && !v_dist.contains(vv) {
            return false;
        }
    }
    // C2: query vars mapped to existential view vars drag in all their
    // atoms.
    let mut need: Vec<usize> = Vec::new();
    for (qv, vv) in phi.iter() {
        if v_dist.contains(vv) {
            continue;
        }
        for (i, atom) in q.atoms.iter().enumerate() {
            if !covered.contains(&i) && atom.vars().any(|x| x == *qv) {
                need.push(i);
            }
        }
    }
    need.sort_unstable();
    need.dedup();
    if need.is_empty() {
        return true;
    }
    // Each needed atom must unify with some view atom consistently, with
    // backtracking over the choices for the first needed atom.
    let g = need[0];
    for b in &view.atoms {
        let mut phi2 = phi.clone();
        if unify_atom(&q.atoms[g], b, &mut phi2) {
            let mut covered2 = covered.clone();
            covered2.insert(g);
            if grow(q, view, q_dist, v_dist, &mut covered2, &mut phi2, g) {
                *covered = covered2;
                *phi = phi2;
                return true;
            }
        }
    }
    false
}

/// Assembles the rewriting CQ for one combination of MCDs.
fn assemble(views: &CqViews, q: &Cq, combo: &[&Mcd]) -> Cq {
    let out_schema = views.as_view_set().output_schema();
    let mut r = Cq::new(out_schema);
    // One rewriting variable per query variable that is mapped to a
    // distinguished view variable somewhere; plus fresh variables for
    // unmapped view head positions.
    let mut var_of_qvar: BTreeMap<VarId, VarId> = BTreeMap::new();
    for (mcd_idx, mcd) in combo.iter().enumerate() {
        let view = &mcd.unified;
        let head_vars: Vec<Option<VarId>> = view.head.iter().map(|t| t.as_var()).collect();
        // Per-MCD: fresh rewriting variables keyed by the *unified* view
        // variable, so repeated representatives share one variable.
        let mut fresh_of_vv: BTreeMap<VarId, VarId> = BTreeMap::new();
        let mut args: Vec<Term> = Vec::with_capacity(view.head.len());
        for hv in head_vars.iter() {
            let hv = hv.expect("constant-free views");
            // Find the query vars mapping onto this view head var.
            let mapped: Vec<VarId> = mcd
                .phi
                .iter()
                .filter(|(_, vv)| **vv == hv)
                .map(|(qv, _)| *qv)
                .collect();
            if let Some(first) = mapped.first() {
                let rv = *var_of_qvar
                    .entry(*first)
                    .or_insert_with(|| r.var(&q.var_name(*first)));
                // Multiple query vars on one view head var unify in the
                // rewriting.
                for other in &mapped[1..] {
                    var_of_qvar.entry(*other).or_insert(rv);
                }
                args.push(Term::Var(rv));
            } else {
                let fresh = *fresh_of_vv
                    .entry(hv)
                    .or_insert_with(|| r.var(&format!("f{mcd_idx}_{}", hv.0)));
                args.push(Term::Var(fresh));
            }
        }
        r.atoms
            .push(Atom::new(views.as_view_set().output_rel(mcd.view), args));
    }
    r.head = q
        .head
        .iter()
        .map(|t| {
            let qv = t.as_var().expect("constant-free query");
            Term::Var(*var_of_qvar.get(&qv).expect("C1 guarantees head coverage"))
        })
        .collect();
    r
}

/// All contained rewritings from MCD combinations with disjoint coverage
/// spanning every query atom. Each result is verified
/// (`exp(R) ⊆ Q`) and minimized; results are deduplicated up to
/// equivalence.
pub fn contained_rewritings(views: &CqViews, q: &Cq) -> Vec<Cq> {
    let mcds = generate_mcds(views, q);
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
        out: &mut Vec<Cq>,
    ) {
        if covered == all {
            let r = assemble(views, q, combo);
            if !r.is_safe() {
                return;
            }
            let expansion = crate::rewriting::expand_through_views(views, &r);
            if !cq_contained(&expansion, q) {
                return; // defensive: MiniCon should guarantee this
            }
            let r = minimize_cq(&r);
            if !out.iter().any(|prev| cq_equivalent(prev, &r)) {
                out.push(r);
            }
            return;
        }
        for (i, m) in mcds.iter().enumerate().skip(start) {
            if m.covered.iter().any(|g| covered.contains(g)) {
                continue; // MiniCon combines *disjoint* coverages
            }
            let mut covered2 = covered.clone();
            covered2.extend(m.covered.iter().copied());
            combo.push(m);
            rec(views, q, mcds, i + 1, &covered2, all, combo, out);
            combo.pop();
        }
    }
    rec(views, q, &mcds, 0, &BTreeSet::new(), &all, &mut combo, &mut out);
    out
}

/// The maximally-contained rewriting: the union of all contained
/// rewritings (`None` if there are none).
pub fn maximally_contained_rewriting(views: &CqViews, q: &Cq) -> Option<Ucq> {
    let rs = contained_rewritings(views, q);
    if rs.is_empty() {
        None
    } else {
        Some(Ucq::new(rs))
    }
}

/// MiniCon-based equivalent-rewriting existence: some combination's
/// expansion is equivalent to `Q`. Independent of the chase-based test
/// (Theorem 3.7) — the two must agree (experiment E17).
pub fn minicon_equivalent_rewriting(views: &CqViews, q: &Cq) -> Option<Cq> {
    contained_rewritings(views, q).into_iter().find(|r| {
        let expansion = crate::rewriting::expand_through_views(views, r);
        cq_equivalent(&expansion, q)
    })
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
        let q = parse_query(&s, &mut names, q_src)
            .unwrap()
            .as_cq()
            .unwrap()
            .clone();
        (views, q)
    }

    #[test]
    fn identity_views_give_the_query_back() {
        let (v, q) = setup("V(x,y) :- E(x,y).", "Q(x,z) :- E(x,y), E(y,z).");
        let r = minicon_equivalent_rewriting(&v, &q).expect("equivalent rewriting");
        assert_eq!(r.atoms.len(), 2);
    }

    #[test]
    fn mcds_respect_c2_closure() {
        // 2-path views: any MCD touching the join variable must cover
        // both adjacent atoms.
        let (v, q) = setup(
            "V(x,y) :- E(x,z), E(z,y).",
            "Q(x,y) :- E(x,a), E(a,b), E(b,y).",
        );
        for mcd in generate_mcds(&v, &q) {
            assert_eq!(
                mcd.covered.len(),
                2,
                "C2 forces pairs of adjacent atoms: {mcd:?}"
            );
        }
    }

    #[test]
    fn odd_paths_have_no_contained_rewriting_from_even_views() {
        let (v, q) = setup(
            "V(x,y) :- E(x,z), E(z,y).",
            "Q(x,y) :- E(x,a), E(a,b), E(b,y).",
        );
        assert!(contained_rewritings(&v, &q).is_empty());
        assert!(maximally_contained_rewriting(&v, &q).is_none());
        assert!(minicon_equivalent_rewriting(&v, &q).is_none());
    }

    #[test]
    fn even_paths_rewrite_and_agree_with_chase() {
        let (v, q) = setup(
            "V(x,y) :- E(x,z), E(z,y).",
            "Q(x,y) :- E(x,a), E(a,b), E(b,c), E(c,y).",
        );
        let minicon = minicon_equivalent_rewriting(&v, &q).expect("rewriting");
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
                    q.head = (0..arity)
                        .map(|_| Term::Var(used[rng.gen_range(0..used.len())]))
                        .collect();
                    q
                };
                let view = mk(&mut rng);
                let q = mk(&mut rng);
                (
                    CqViews::new(ViewSet::new(&s, vec![("V", QueryExpr::Cq(view))])),
                    q,
                )
            };
            let chase_says = decide_unrestricted(&v, &q).rewriting.is_some();
            let minicon_says = minicon_equivalent_rewriting(&v, &q).is_some();
            assert_eq!(
                chase_says, minicon_says,
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
        let (v, q) = setup(
            "V1(x,y) :- E(x,y), P(x).\nV2(x) :- P(x).",
            "Q(x,z) :- E(x,y), E(y,z).",
        );
        let mcr = maximally_contained_rewriting(&v, &q);
        if let Some(mcr) = &mcr {
            // Containment: exp(MCR) ⊆ Q.
            for d in &mcr.disjuncts {
                let expansion = crate::rewriting::expand_through_views(&v, d);
                assert!(cq_contained(&expansion, &q));
            }
        }
        // No equivalent rewriting exists (unlabelled paths are lost).
        assert!(minicon_equivalent_rewriting(&v, &q).is_none());
    }

    #[test]
    fn mcr_computes_certain_answers_under_sound_views() {
        use crate::certain::certain_sound;
        let (v, q) = setup("V(x,y) :- E(x,z), E(z,y).", "Q(x,y) :- E(x,a), E(a,b), E(b,c), E(c,y).");
        let mcr = maximally_contained_rewriting(&v, &q).expect("MCR exists");
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
        let r = minicon_equivalent_rewriting(&v, &q).expect("Boolean rewriting");
        assert!(r.is_boolean());
    }
}

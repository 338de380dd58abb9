//! The worked Theorem 5.4 instance: **parity via maximal matchings**.
//!
//! `τ = {U/1}`; the implicitly defined query is the Boolean
//! `q(D) = "|U| is even"` — famously not FO-definable. The witness
//! relations are `S̄ = {M/2}` (a partial matching) plus the output
//! proposition `T = Even`, and
//!
//! ```text
//! φ(Even, M) =  M is symmetric, irreflexive, functional, over U,
//!               and maximal (no two distinct unmatched U-elements)
//!            ∧  (Even ↔ every U-element is matched)
//! ```
//!
//! A maximal partial matching on a finite set leaves at most one element
//! unmatched, so *every* witness forces the same `Even` value: `φ`
//! implicitly defines parity. Feeding this to [`super::gimp::theorem_5_4`]
//! yields UCQ views and an FO query with `V ↠ Q` whose induced `Q_V`
//! computes parity — experiment E10.

use super::gimp::{theorem_5_4, GimpConstruction};
use vqd_instance::{named, Instance, Schema};
use vqd_query::{Atom, Fo, FoQuery, Term, VarPool};

/// `τ = {U/1}`.
pub fn parity_tau() -> Schema {
    Schema::new([("U", 1)])
}

/// `τ' = τ ∪ {Even/0, M/2}`.
pub fn parity_tau_prime() -> Schema {
    parity_tau().extend([("Even", 0), ("M", 2)])
}

/// The sentence `φ(Even, M)` implicitly defining parity of `|U|`.
pub fn parity_phi() -> FoQuery {
    let s = parity_tau_prime();
    let u_rel = s.rel("U");
    let m_rel = s.rel("M");
    let even_rel = s.rel("Even");
    let mut pool = VarPool::new();
    let m = |a, b| Fo::Atom(Atom::new(m_rel, vec![Term::Var(a), Term::Var(b)]));
    let u = |a| Fo::Atom(Atom::new(u_rel, vec![Term::Var(a)]));
    let even = Fo::Atom(Atom::new(even_rel, Vec::new()));

    let (x, y) = (pool.var("x"), pool.var("y"));
    let sym = Fo::forall(vec![x, y], Fo::implies(m(x, y), m(y, x)));
    let x2 = pool.var("x");
    let irrefl = Fo::forall(vec![x2], Fo::not(m(x2, x2)));
    let (x3, y3, z3) = (pool.var("x"), pool.var("y"), pool.var("z"));
    let funct = Fo::forall(
        vec![x3, y3, z3],
        Fo::implies(Fo::and([m(x3, y3), m(x3, z3)]), Fo::Eq(Term::Var(y3), Term::Var(z3))),
    );
    let (x4, y4) = (pool.var("x"), pool.var("y"));
    let over_u = Fo::forall(vec![x4, y4], Fo::implies(m(x4, y4), Fo::and([u(x4), u(y4)])));
    let (x5, y5, z5a, z5b) = (pool.var("x"), pool.var("y"), pool.var("z"), pool.var("z"));
    let maximal = Fo::not(Fo::exists(
        vec![x5, y5],
        Fo::and([
            u(x5),
            u(y5),
            Fo::not(Fo::Eq(Term::Var(x5), Term::Var(y5))),
            Fo::not(Fo::exists(vec![z5a], m(x5, z5a))),
            Fo::not(Fo::exists(vec![z5b], m(y5, z5b))),
        ]),
    ));
    let (x6, y6) = (pool.var("x"), pool.var("y"));
    let saturated = Fo::forall(vec![x6], Fo::implies(u(x6), Fo::exists(vec![y6], m(x6, y6))));
    let formula = Fo::and([sym, irrefl, funct, over_u, maximal, Fo::iff(even, saturated)]);
    FoQuery::new(&s, Vec::new(), formula, pool.into_names())
}

/// A canonical maximal matching on `{0..n}`: pair consecutive elements.
pub fn canonical_matching(n: usize) -> Vec<(u32, u32)> {
    (0..n / 2).map(|i| ((2 * i) as u32, (2 * i + 1) as u32)).collect()
}

/// Builds the `τ'`-instance with `U = {0..n}`, the given matching
/// (symmetrized), and `Even` set to whether the matching saturates `U`.
pub fn parity_instance(n: usize, matching: &[(u32, u32)]) -> Instance {
    let s = parity_tau_prime();
    let mut d = Instance::empty(&s);
    for i in 0..n {
        d.insert_named("U", vec![named(i as u32)]);
    }
    let mut matched = vec![false; n];
    for &(a, b) in matching {
        assert!(a != b && (a as usize) < n && (b as usize) < n);
        d.insert_named("M", vec![named(a), named(b)]);
        d.insert_named("M", vec![named(b), named(a)]);
        matched[a as usize] = true;
        matched[b as usize] = true;
    }
    if matched.iter().all(|&m| m) {
        d.rel_mut(s.rel("Even")).set_truth(true);
    }
    d
}

/// The full E10 construction: Theorem 5.4 applied to parity.
pub fn parity_construction() -> GimpConstruction {
    theorem_5_4(&parity_tau(), &parity_phi(), "Even")
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqd_eval::{apply_views, eval_fo};

    #[test]
    fn phi_holds_on_valid_witnesses() {
        let phi = parity_phi();
        for n in 0..6 {
            let d = parity_instance(n, &canonical_matching(n));
            assert!(eval_fo(&phi, &d).truth(), "φ must hold for n={n}");
        }
    }

    #[test]
    fn phi_rejects_wrong_even_flag() {
        let phi = parity_phi();
        let mut d = parity_instance(4, &canonical_matching(4));
        d.rel_mut(d.schema().rel("Even")).set_truth(false);
        assert!(!eval_fo(&phi, &d).truth());
        let mut d3 = parity_instance(3, &canonical_matching(3));
        d3.rel_mut(d3.schema().rel("Even")).set_truth(true);
        assert!(!eval_fo(&phi, &d3).truth());
    }

    #[test]
    fn phi_rejects_non_maximal_matchings() {
        let phi = parity_phi();
        // Empty matching on 2 elements is not maximal.
        let d = parity_instance(2, &[]);
        assert!(!eval_fo(&phi, &d).truth());
    }

    #[test]
    fn implicit_definability_is_witness_independent() {
        let phi = parity_phi();
        // Two different maximal matchings on 4 elements: both satisfy φ
        // with the same Even value.
        let d1 = parity_instance(4, &[(0, 1), (2, 3)]);
        let d2 = parity_instance(4, &[(0, 2), (1, 3)]);
        assert!(eval_fo(&phi, &d1).truth());
        assert!(eval_fo(&phi, &d2).truth());
        assert_eq!(d1.rel_named("Even").truth(), d2.rel_named("Even").truth());
        // Odd case: one unmatched element, still maximal.
        let d3 = parity_instance(5, &[(0, 1), (2, 3)]);
        assert!(eval_fo(&phi, &d3).truth());
        assert!(!d3.rel_named("Even").truth());
    }

    #[test]
    fn construction_query_computes_parity() {
        let con = parity_construction();
        for n in 0..5 {
            let base = parity_instance(n, &canonical_matching(n));
            let full = con.complete(&base);
            let out = eval_fo(&con.query, &full);
            assert_eq!(out.truth(), n % 2 == 0, "Q must report evenness for n={n}");
        }
    }

    #[test]
    fn view_image_is_a_trivial_extension_of_d_tau() {
        // On consistent instances the σ-views expose nothing: zero-views
        // empty, full-views = adom^k, Vphi = true.
        let con = parity_construction();
        let base = parity_instance(4, &canonical_matching(4));
        let full = con.complete(&base);
        let image = apply_views(&con.views, &full);
        let adom: Vec<_> = full.adom().into_iter().collect();
        for (rel, decl) in image.schema().iter() {
            let name = image.schema().name(rel);
            if name.starts_with("Vzero") || name.starts_with("Vand") || name.starts_with("Vex_a") {
                assert!(image.rel(rel).is_empty(), "{name} must be empty");
            } else if name.starts_with("Vfull") || name.starts_with("Vex_b") {
                assert_eq!(
                    image.rel(rel),
                    &vqd_instance::Relation::full(decl.arity, &adom),
                    "{name} must be adom^k"
                );
            }
        }
        assert!(image.rel_named("Vphi").truth());
        assert_eq!(image.rel_named("Vid_U"), full.rel_named("U"));
    }

    #[test]
    fn determinacy_across_witnesses() {
        // Different maximal matchings: same view image, same Q — the
        // determinacy claim of Theorem 5.4 on a targeted pair.
        let con = parity_construction();
        let d1 = con.complete(&parity_instance(4, &[(0, 1), (2, 3)]));
        let d2 = con.complete(&parity_instance(4, &[(0, 2), (1, 3)]));
        assert_eq!(apply_views(&con.views, &d1), apply_views(&con.views, &d2));
        assert_eq!(eval_fo(&con.query, &d1), eval_fo(&con.query, &d2));
    }

    #[test]
    fn corrupted_sigma_is_detected_and_silenced() {
        let con = parity_construction();
        let base = parity_instance(2, &canonical_matching(2));
        let full = con.complete(&base);
        let valid_image = apply_views(&con.views, &full);
        // Corrupt the first σ relation that is non-trivial.
        let mut corrupted = full.clone();
        let mut changed = false;
        for (rel, _) in full.iter() {
            let name = full.schema().name(rel).to_owned();
            if name.starts_with("Rbar") {
                if let Some(t) = full.rel(rel).iter().next().cloned() {
                    corrupted.rel_mut(rel).remove(&t);
                    changed = true;
                    break;
                }
            }
        }
        assert!(changed, "found a σ tuple to corrupt");
        // ψ now fails: Q is empty, and the views see the inconsistency.
        assert!(eval_fo(&con.query, &corrupted).is_empty());
        assert_ne!(apply_views(&con.views, &corrupted), valid_image);
    }

    #[test]
    fn construction_shape() {
        let con = parity_construction();
        assert!(con.num_subformulas() > 10);
        assert!(con.views.len() > 10);
        assert!(con.views.find("Vdom").is_some());
        assert!(con.views.find("Vphi").is_some());
        // Views are all in the UCQ family (the Theorem 5.4 hypothesis).
        assert!(con.views.is_ucq_family());
    }
}

//! CQ minimization (core computation).
//!
//! Every CQ has a unique minimal equivalent sub-query — its *core*. The
//! canonical rewritings produced by the chase machinery (Proposition 3.5)
//! are typically highly redundant; minimizing them yields the rewritings a
//! human would write, and the F8 benchmark compares this against an
//! exhaustive sub-query search baseline.

use crate::containment::cq_contained;
use crate::cq_eval::normalize_eqs;
use vqd_query::{Cq, CqLang};

/// Computes the core of a CQ/CQ=: a minimal equivalent sub-query.
///
/// Greedy atom elimination: repeatedly drop any atom whose removal
/// preserves equivalence (only `original ⊆ reduced` needs checking — a
/// sub-body is always weaker). Result is minimal: no single atom of the
/// output can be dropped, which for cores is equivalent to global
/// minimality.
///
/// # Panics
/// Panics for queries outside CQ/CQ= (the containment test would be
/// unsound) and for unsatisfiable equality constraints.
pub fn minimize_cq(q: &Cq) -> Cq {
    assert!(q.language() <= CqLang::CqEq, "minimize_cq requires CQ/CQ= (got {:?})", q.language());
    let mut current = normalize_eqs(q).expect("minimize_cq: unsatisfiable equalities");
    loop {
        let mut dropped = false;
        for i in 0..current.atoms.len() {
            if current.atoms.len() == 1 {
                break; // keep at least one atom: safety requires bindings
            }
            let mut candidate = current.clone();
            candidate.atoms.remove(i);
            if !candidate.is_safe() {
                continue;
            }
            // candidate ⊇ current always; equivalence iff candidate ⊆ current.
            if cq_contained(&candidate, &current) {
                current = candidate;
                dropped = true;
                break;
            }
        }
        if !dropped {
            return current.compact();
        }
    }
}

/// Exhaustive-search baseline for F8: the minimum-size equivalent
/// sub-query found by enumerating all atom subsets, smallest first.
///
/// Exponential by design (it exists to be benchmarked against
/// [`minimize_cq`]); refuses bodies with more than 20 atoms.
pub fn minimize_cq_exhaustive(q: &Cq) -> Cq {
    assert!(q.language() <= CqLang::CqEq, "minimize_cq_exhaustive requires CQ/CQ=");
    let q = normalize_eqs(q).expect("unsatisfiable equalities");
    let n = q.atoms.len();
    assert!(n <= 20, "exhaustive minimization capped at 20 atoms");
    let mut best: Option<Cq> = None;
    let mut best_size = n + 1;
    for mask in 1u32..(1u32 << n) {
        let size = mask.count_ones() as usize;
        if size >= best_size {
            continue;
        }
        let mut candidate = q.clone();
        candidate.atoms = q
            .atoms
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, a)| a.clone())
            .collect();
        if !candidate.is_safe() {
            continue;
        }
        if cq_contained(&candidate, &q) {
            best_size = size;
            best = Some(candidate);
        }
    }
    best.unwrap_or(q).compact()
}

/// Minimizes a UCQ: drops disjuncts subsumed by others and replaces each
/// survivor with its core. The result is equivalent to the input and has
/// no redundant disjunct.
pub fn minimize_ucq(u: &vqd_query::Ucq) -> vqd_query::Ucq {
    use crate::containment::cq_contained_in_ucq;
    // Core each disjunct first (smaller bodies make subsumption cheaper).
    let cored: Vec<Cq> = u.disjuncts.iter().map(minimize_cq).collect();
    // Keep a disjunct only if it is not contained in the union of the
    // *other* kept disjuncts. A simple forward pass with re-check is
    // enough: containment against a union can only grow as more
    // disjuncts are kept, so one backward elimination pass converges.
    let mut keep: Vec<bool> = vec![true; cored.len()];
    for i in 0..cored.len() {
        let others: Vec<Cq> = cored
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != i && keep[*j])
            .map(|(_, d)| d.clone())
            .collect();
        if others.is_empty() {
            continue;
        }
        let rest = vqd_query::Ucq::new(others);
        if cq_contained_in_ucq(&cored[i], &rest) {
            keep[i] = false;
        }
    }
    let kept: Vec<Cq> = cored.into_iter().zip(keep).filter(|(_, k)| *k).map(|(d, _)| d).collect();
    vqd_query::Ucq::new(kept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::containment::cq_equivalent;
    use vqd_instance::{DomainNames, Schema};
    use vqd_query::parse_query;

    fn schema() -> Schema {
        Schema::new([("E", 2), ("P", 1)])
    }

    fn cq(src: &str) -> Cq {
        let mut names = DomainNames::new();
        parse_query(&schema(), &mut names, src).unwrap().as_cq().unwrap().clone()
    }

    #[test]
    fn redundant_atom_is_dropped() {
        let q = cq("Q(x) :- E(x,y), E(x,z).");
        let m = minimize_cq(&q);
        assert_eq!(m.atoms.len(), 1);
        assert!(cq_equivalent(&m, &q));
    }

    #[test]
    fn boolean_path_is_core() {
        let q = cq("Q() :- E(x,y), E(y,z), E(z,w).");
        let m = minimize_cq(&q);
        assert_eq!(m.atoms.len(), 3);
    }

    #[test]
    fn triangle_with_pendant_edges() {
        // Triangle plus a redundant homomorphic image of itself.
        let q = cq("Q() :- E(x,y), E(y,z), E(z,x), E(a,b), E(b,c), E(c,a).");
        let m = minimize_cq(&q);
        assert_eq!(m.atoms.len(), 3);
        assert!(cq_equivalent(&m, &q));
    }

    #[test]
    fn head_variables_are_protected() {
        // E(x,y) with head (x,y) cannot drop its only binding atom even
        // though E(x,z) would "fold".
        let q = cq("Q(x,y) :- E(x,y), E(x,z).");
        let m = minimize_cq(&q);
        assert_eq!(m.atoms.len(), 1);
        assert_eq!(m.arity(), 2);
        assert!(cq_equivalent(&m, &q));
    }

    #[test]
    fn exhaustive_agrees_with_greedy() {
        for src in [
            "Q(x) :- E(x,y), E(x,z), P(x).",
            "Q() :- E(x,y), E(y,z), E(z,x), E(a,b), E(b,c), E(c,a).",
            "Q(x) :- E(x,y), E(y,x), E(x,w), E(w,x).",
            "Q(x,y) :- E(x,y).",
        ] {
            let q = cq(src);
            let g = minimize_cq(&q);
            let e = minimize_cq_exhaustive(&q);
            assert_eq!(g.atoms.len(), e.atoms.len(), "size mismatch on {src}");
            assert!(cq_equivalent(&g, &q));
            assert!(cq_equivalent(&e, &q));
        }
    }

    #[test]
    fn minimization_is_idempotent() {
        let q = cq("Q() :- E(x,y), E(y,z), E(z,x), E(a,b), E(b,c), E(c,a).");
        let m1 = minimize_cq(&q);
        let m2 = minimize_cq(&m1);
        assert_eq!(m1.atoms.len(), m2.atoms.len());
    }

    #[test]
    fn ucq_minimization_drops_subsumed_disjuncts() {
        use crate::containment::ucq_equivalent;
        use vqd_instance::DomainNames;
        let mut names = DomainNames::new();
        let u = vqd_query::parse_query(
            &schema(),
            &mut names,
            "Q(x) :- E(x,y).\nQ(x) :- E(x,y), P(y).\nQ(x) :- E(x,z), E(x,w).",
        )
        .unwrap()
        .as_ucq()
        .unwrap();
        let m = minimize_ucq(&u);
        // Disjuncts 2 and 3 are subsumed by the first (3 is even
        // equivalent to it after coring).
        assert_eq!(m.disjuncts.len(), 1);
        assert!(ucq_equivalent(&m, &u));
    }

    #[test]
    fn ucq_minimization_keeps_incomparable_disjuncts() {
        use crate::containment::ucq_equivalent;
        use vqd_instance::DomainNames;
        let mut names = DomainNames::new();
        let u = vqd_query::parse_query(&schema(), &mut names, "Q(x) :- P(x).\nQ(x) :- E(x,x).")
            .unwrap()
            .as_ucq()
            .unwrap();
        let m = minimize_ucq(&u);
        assert_eq!(m.disjuncts.len(), 2);
        assert!(ucq_equivalent(&m, &u));
    }

    #[test]
    fn equalities_handled_via_normalization() {
        let q = cq("Q(x) :- E(x,y), E(x,z), y = z.");
        let m = minimize_cq(&q);
        assert!(m.eqs.is_empty());
        assert_eq!(m.atoms.len(), 1);
    }
}

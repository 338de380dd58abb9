//! Proposition 4.3: genericity constraints on the induced mapping `Q_V`.
//!
//! When `V ↠ Q` for computable, generic `V` and `Q`, the induced mapping
//! `Q_V` (view image ↦ query answer) is itself generic. Two concrete,
//! checkable consequences the paper lists:
//!
//! * (i) `adom(Q(D)) ⊆ adom(V(D))` — the answer cannot mention values
//!   the views hide;
//! * (ii) every permutation of **dom** that is an automorphism of `V(D)`
//!   is an automorphism of `Q(D)`.
//!
//! Contrapositively, violating either on *any* instance refutes
//! determinacy — a cheap necessary-condition filter that runs before the
//! expensive procedures, and a cross-check on everything else
//! (experiment E15).

use vqd_eval::{apply_views, eval_query};
use vqd_instance::iso::automorphisms;
use vqd_instance::Instance;
use vqd_query::{QueryExpr, ViewSet};

/// The outcome of the Proposition 4.3 checks on one instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GenericityReport {
    /// (i) `adom(Q(D)) ⊆ adom(V(D))`.
    pub adom_contained: bool,
    /// (ii) every automorphism of `V(D)` fixes `Q(D)` setwise.
    pub automorphisms_transfer: bool,
    /// Number of automorphisms of the view image that were checked.
    pub automorphisms_checked: usize,
}

impl GenericityReport {
    /// Both necessary conditions hold.
    pub fn holds(&self) -> bool {
        self.adom_contained && self.automorphisms_transfer
    }
}

/// Runs the Proposition 4.3 checks on a single instance.
///
/// A `false` anywhere is a *proof* that `V` does not determine `Q`
/// (together with a witnessing permutation, constructible from the
/// automorphism found).
///
/// # Panics
/// Panics if the view image's active domain exceeds 9 values (the
/// automorphism enumeration is factorial).
pub fn proposition_4_3(views: &ViewSet, q: &QueryExpr, d: &Instance) -> GenericityReport {
    let image = apply_views(views, d);
    let answer = eval_query(q, d);
    let image_adom = image.adom();
    let adom_contained = answer.iter().all(|t| t.iter().all(|v| image_adom.contains(v)));

    // Wrap the answer as an instance so automorphisms can act on it.
    let autos = automorphisms(&image);
    let n = autos.len();
    let automorphisms_transfer = autos.into_iter().all(|perm| {
        let mapped = answer.map_values(|v| perm.get(&v).copied());
        mapped == answer
    });
    GenericityReport { adom_contained, automorphisms_transfer, automorphisms_checked: n }
}

/// Sweeps the checks over all instances with domain `{c0..c(n-1)}`,
/// returning the first violating instance, if any.
pub fn find_genericity_violation(
    views: &ViewSet,
    q: &QueryExpr,
    n: usize,
    limit: u128,
) -> Option<(Instance, GenericityReport)> {
    use vqd_instance::gen::{space_size, InstanceEnumerator};
    space_size(views.input_schema(), n).filter(|&s| s <= limit)?;
    for d in InstanceEnumerator::new(views.input_schema(), n) {
        let report = proposition_4_3(views, q, &d);
        if !report.holds() {
            return Some((d, report));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqd_instance::{named, DomainNames, Schema};
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
    fn determined_pairs_pass_both_checks() {
        let (v, q) = setup("V(x,y) :- E(x,y).", "Q(x,z) :- E(x,y), E(y,z).");
        assert!(find_genericity_violation(&v, &q, 3, 1 << 26).is_none());
    }

    #[test]
    fn hidden_values_violate_adom_condition() {
        // Views expose only P; the query exposes edges: values occurring
        // only in E leak into Q(D) but not into V(D).
        let (v, q) = setup("V(x) :- P(x).", "Q(x,y) :- E(x,y).");
        let (d, report) = find_genericity_violation(&v, &q, 2, 1 << 26).expect("violation exists");
        assert!(!report.adom_contained);
        assert!(!d.rel_named("E").is_empty());
    }

    #[test]
    fn symmetry_breaking_violates_automorphism_condition() {
        // The view forgets edge direction; the query keeps it: swapping
        // the two endpoints is an automorphism of the image but not of
        // the answer.
        let s = Schema::new([("E", 2), ("P", 1)]);
        let mut names = DomainNames::new();
        let prog = parse_program(&s, &mut names, "V(x,y) :- E(x,y).\nV(x,y) :- E(y,x).").unwrap();
        let views = ViewSet::new(&s, prog.defs);
        let q = parse_query(&s, &mut names, "Q(x,y) :- E(x,y).").unwrap();
        let mut d = Instance::empty(&s);
        d.insert_named("E", vec![named(0), named(1)]);
        let report = proposition_4_3(&views, &q, &d);
        assert!(report.adom_contained);
        assert!(!report.automorphisms_transfer);
        assert!(report.automorphisms_checked >= 2);
    }

    #[test]
    fn empty_instance_is_trivially_generic() {
        let (v, q) = setup("V(x) :- P(x).", "Q(x) :- P(x).");
        let s = v.input_schema().clone();
        let report = proposition_4_3(&v, &q, &Instance::empty(&s));
        assert!(report.holds());
    }
}

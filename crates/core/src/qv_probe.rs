//! Theorem 5.11 probe: monotonicity of the induced mapping `Q_V`.
//!
//! The paper proves these are equivalent (and leaves all three open,
//! for CQ views and queries):
//!
//! 1. CQ is complete for CQ-to-CQ rewritings;
//! 2. finite and unrestricted CQ determinacy coincide;
//! 3. whenever `V ↠ Q` (finitely), `Q_V` is monotone.
//!
//! Point 3 is directly measurable on bounded domains: enumerate all
//! instances, group by view image, and check that `⊆`-comparable
//! *realized* images have `⊆`-ordered answers. For CQ pairs no violation
//! should ever appear (it would refute the conjecture on a finite
//! domain — or expose a bug); for the UCQ witnesses of Proposition 5.8
//! the probe must find the violation. Experiment E16 runs both sides.

use std::collections::HashMap;
use vqd_eval::{apply_views, eval_query};
use vqd_instance::gen::{space_size, InstanceEnumerator};
use vqd_instance::{Instance, Relation};
use vqd_query::{QueryExpr, ViewSet};

/// One monotonicity violation between two realized view images.
#[derive(Clone, Debug)]
pub struct QvViolation {
    /// The smaller image.
    pub image1: Instance,
    /// The larger image (`image1 ⊆ image2`).
    pub image2: Instance,
    /// `Q_V(image1)` — not a subset of `Q_V(image2)`.
    pub answer1: Relation,
    /// `Q_V(image2)`.
    pub answer2: Relation,
}

/// Outcome of the bounded monotonicity probe.
#[derive(Clone, Debug)]
pub struct QvProbe {
    /// Distinct view images realized in the space.
    pub images: usize,
    /// `⊆`-comparable image pairs inspected.
    pub comparable_pairs: usize,
    /// Monotonicity violations (empty supports the conjecture on this
    /// space; non-empty *proves* `Q_V` non-monotone).
    pub violations: Vec<QvViolation>,
    /// Images realized by instances with *different* query answers — a
    /// determinacy refutation (the probe is only about `Q_V` when this
    /// is empty).
    pub determinacy_clashes: usize,
}

/// Enumerates all instances over `{c0..c(n-1)}`, builds the realized
/// `image → answer` map, and checks monotonicity across comparable
/// images. Returns `None` if the space exceeds `limit`.
pub fn qv_monotonicity_probe(
    views: &ViewSet,
    q: &QueryExpr,
    n: usize,
    limit: u128,
) -> Option<QvProbe> {
    space_size(views.input_schema(), n).filter(|&s| s <= limit)?;
    let mut by_image: HashMap<Instance, Relation> = HashMap::new();
    let mut clashes = 0usize;
    for d in InstanceEnumerator::new(views.input_schema(), n) {
        let idx = vqd_instance::IndexedInstance::new(d);
        let image = apply_views(views, &idx);
        let out = eval_query(q, &idx);
        match by_image.get(&image) {
            None => {
                by_image.insert(image, out);
            }
            Some(prev) => {
                if *prev != out {
                    clashes += 1;
                }
            }
        }
    }
    let entries: Vec<(&Instance, &Relation)> = by_image.iter().collect();
    let mut comparable = 0usize;
    let mut violations = Vec::new();
    for (i, (img1, ans1)) in entries.iter().enumerate() {
        for (img2, ans2) in entries.iter().skip(i + 1) {
            let (small, big, a_small, a_big) = if img1.is_subinstance_of(img2) {
                (img1, img2, ans1, ans2)
            } else if img2.is_subinstance_of(img1) {
                (img2, img1, ans2, ans1)
            } else {
                continue;
            };
            comparable += 1;
            if !a_small.is_subset(a_big) {
                violations.push(QvViolation {
                    image1: (*small).clone(),
                    image2: (*big).clone(),
                    answer1: (*a_small).clone(),
                    answer2: (*a_big).clone(),
                });
            }
        }
    }
    Some(QvProbe {
        images: entries.len(),
        comparable_pairs: comparable,
        violations,
        determinacy_clashes: clashes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::witnesses::prop_5_8;
    use vqd_instance::{DomainNames, Schema};
    use vqd_query::{parse_program, parse_query};

    #[test]
    fn cq_determined_pairs_have_monotone_qv() {
        let s = Schema::new([("E", 2)]);
        let mut names = DomainNames::new();
        let prog = parse_program(&s, &mut names, "V(x,y) :- E(x,y).").unwrap();
        let views = ViewSet::new(&s, prog.defs);
        let q = parse_query(&s, &mut names, "Q(x,z) :- E(x,y), E(y,z).").unwrap();
        let probe = qv_monotonicity_probe(&views, &q, 3, 1 << 26).expect("fits");
        assert_eq!(probe.determinacy_clashes, 0);
        assert!(probe.comparable_pairs > 0);
        assert!(
            probe.violations.is_empty(),
            "CQ-determined Q_V must be monotone: {:?}",
            probe.violations.first()
        );
    }

    #[test]
    fn prop_5_8_qv_is_caught_non_monotone() {
        let w = prop_5_8();
        let probe = qv_monotonicity_probe(&w.views, &QueryExpr::Cq(w.query.clone()), 2, 1 << 26)
            .expect("fits");
        assert_eq!(probe.determinacy_clashes, 0, "Prop 5.8 is determined");
        assert!(!probe.violations.is_empty(), "the UCQ witness must show a non-monotone Q_V");
        let v = &probe.violations[0];
        assert!(v.image1.is_subinstance_of(&v.image2));
        assert!(!v.answer1.is_subset(&v.answer2));
    }

    #[test]
    fn undetermined_pairs_report_clashes() {
        let s = Schema::new([("E", 2)]);
        let mut names = DomainNames::new();
        let prog = parse_program(&s, &mut names, "V(x) :- E(x,y).").unwrap();
        let views = ViewSet::new(&s, prog.defs);
        let q = parse_query(&s, &mut names, "Q(x,y) :- E(x,y).").unwrap();
        let probe = qv_monotonicity_probe(&views, &q, 2, 1 << 26).expect("fits");
        assert!(probe.determinacy_clashes > 0);
    }

    #[test]
    fn too_large_spaces_refused() {
        let s = Schema::new([("E", 2)]);
        let mut names = DomainNames::new();
        let prog = parse_program(&s, &mut names, "V(x,y) :- E(x,y).").unwrap();
        let views = ViewSet::new(&s, prog.defs);
        let q = parse_query(&s, &mut names, "Q(x,y) :- E(x,y).").unwrap();
        assert!(qv_monotonicity_probe(&views, &q, 4, 100).is_none());
    }
}

//! Monotonicity probes.
//!
//! Section 5's lower bounds hinge on non-monotonicity: for UCQ views the
//! induced query `Q_V` can fail `V(D₁) ⊆ V(D₂) ⟹ Q(D₁) ⊆ Q(D₂)`
//! (Propositions 5.8, 5.12), so no monotone rewriting language is
//! complete. These helpers check monotonicity of arbitrary black-box
//! queries on concrete pairs and hunt for violations by sampling.

use rand::Rng;
use vqd_instance::gen::random_subinstance_pair;
use vqd_instance::{Instance, Relation, Schema};

/// Checks one instance pair: if `d1 ⊆ d2` tuple-wise, does
/// `q(d1) ⊆ q(d2)` hold? Pairs that are not ⊆-ordered vacuously pass.
pub fn monotone_on_pair(
    q: &mut impl FnMut(&Instance) -> Relation,
    d1: &Instance,
    d2: &Instance,
) -> bool {
    if !d1.is_subinstance_of(d2) {
        return true;
    }
    q(d1).is_subset(&q(d2))
}

/// A witness that a query is not monotone.
#[derive(Clone, Debug)]
pub struct NonMonotoneWitness {
    /// The smaller instance.
    pub d1: Instance,
    /// The larger instance (`d1 ⊆ d2`).
    pub d2: Instance,
    /// `q(d1)` — not a subset of `q(d2)`.
    pub out1: Relation,
    /// `q(d2)`.
    pub out2: Relation,
}

/// Samples `samples` random `⊆`-ordered pairs over `schema` with domain
/// size `n`, returning the first monotonicity violation found.
pub fn find_nonmonotone_witness(
    q: &mut impl FnMut(&Instance) -> Relation,
    schema: &Schema,
    n: usize,
    density: f64,
    samples: usize,
    rng: &mut impl Rng,
) -> Option<NonMonotoneWitness> {
    for _ in 0..samples {
        let (d1, d2) = random_subinstance_pair(schema, n, density, rng);
        let out1 = q(&d1);
        let out2 = q(&d2);
        if !out1.is_subset(&out2) {
            return Some(NonMonotoneWitness { d1, d2, out1, out2 });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cq_eval::eval_cq;
    use crate::fo_eval::eval_fo;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vqd_instance::{named, DomainNames};
    use vqd_query::{parse_query, QueryExpr};

    fn schema() -> Schema {
        Schema::new([("E", 2), ("P", 1)])
    }

    #[test]
    fn cqs_are_monotone() {
        let s = schema();
        let mut names = DomainNames::new();
        let q =
            parse_query(&s, &mut names, "Q(x) :- E(x,y), P(y).").unwrap().as_cq().unwrap().clone();
        let mut rng = StdRng::seed_from_u64(1);
        let mut f = |d: &Instance| eval_cq(&q, d);
        assert!(find_nonmonotone_witness(&mut f, &s, 3, 0.4, 200, &mut rng).is_none());
    }

    #[test]
    fn negation_is_not_monotone() {
        let s = schema();
        let mut names = DomainNames::new();
        let QueryExpr::Fo(q) = parse_query(&s, &mut names, "Q(x) := P(x) & ~E(x,x).").unwrap()
        else {
            panic!()
        };
        let mut rng = StdRng::seed_from_u64(2);
        let mut f = |d: &Instance| eval_fo(&q, d);
        let w = find_nonmonotone_witness(&mut f, &s, 2, 0.5, 500, &mut rng)
            .expect("negation must be caught");
        assert!(w.d1.is_subinstance_of(&w.d2));
        assert!(!w.out1.is_subset(&w.out2));
    }

    #[test]
    fn pair_check_handles_unordered_pairs() {
        let s = schema();
        let mut d1 = Instance::empty(&s);
        d1.insert_named("P", vec![named(0)]);
        let mut d2 = Instance::empty(&s);
        d2.insert_named("P", vec![named(1)]);
        // Not ⊆-ordered → vacuously monotone on this pair.
        let mut f = |_: &Instance| Relation::new(0);
        assert!(monotone_on_pair(&mut f, &d1, &d2));
    }
}

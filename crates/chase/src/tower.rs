//! The Theorem 3.3 counterexample tower.
//!
//! When the Proposition 3.5 test fails (`x̄ ∉ Q(V_∅^{-1}(S))`), the proof
//! of Theorem 3.3 constructs two chains of instances
//!
//! ```text
//! D₀ = [Q]            S₀ = V(D₀)      S'₀ = ∅      D'₀ = V_∅^{-1}(S₀)
//! S'ₖ₊₁ = V(D'ₖ)      Dₖ₊₁ = V_{Dₖ}^{-1}(S'ₖ₊₁)
//! Sₖ₊₁ = V(Dₖ₊₁)      D'ₖ₊₁ = V_{D'ₖ}^{-1}(S'ₖ₊₁)
//! ```
//!
//! whose unions `D_∞, D'_∞` satisfy `V(D_∞) = V(D'_∞)` but
//! `Q(D_∞) ≠ Q(D'_∞)` — the (possibly infinite) witness that **V** does
//! not determine `Q` in the unrestricted sense. This module materializes
//! finite prefixes of the tower and machine-checks the five invariants of
//! Proposition 3.6 at every level.

use crate::canonical::{try_canonical, Canonical};
use crate::inverse::{v_inverse_indexed, CqViews};
use vqd_budget::{Budget, VqdError};
use vqd_eval::{eval_cq, instance_hom};
use vqd_instance::{IndexedInstance, Instance, NullGen, Value};
use vqd_query::Cq;

/// A materialized prefix of the Theorem 3.3 tower.
///
/// ```
/// use vqd_chase::{CqViews, Tower};
/// use vqd_instance::{DomainNames, Schema};
/// use vqd_query::{parse_program, parse_query, ViewSet};
///
/// let schema = Schema::new([("E", 2)]);
/// let mut names = DomainNames::new();
/// let prog = parse_program(&schema, &mut names, "V(x,y) :- E(x,z), E(z,y).").unwrap();
/// let views = CqViews::new(ViewSet::new(&schema, prog.defs));
/// let q = parse_query(&schema, &mut names, "Q(x,y) :- E(x,a), E(a,b), E(b,y).")
///     .unwrap().as_cq().unwrap().clone();
///
/// let mut tower = Tower::new(&views, &q);
/// tower.grow_to(&views, 3);
/// assert!(tower.check_invariants(0).all_hold());      // Proposition 3.6
/// let (in_d, in_dp) = tower.separation(&q, 2);
/// assert!(in_d && !in_dp);                            // Q separates the chains
/// ```
#[derive(Clone, Debug)]
pub struct Tower {
    /// `D₀ … D_k`.
    pub d: Vec<Instance>,
    /// `S₀ … S_k` (`Sᵢ = V(Dᵢ)`).
    pub s: Vec<Instance>,
    /// `S'₀ … S'_k` (`S'₀ = ∅`, `S'ᵢ₊₁ = V(D'ᵢ)`).
    pub s_prime: Vec<Instance>,
    /// `D'₀ … D'_k`.
    pub d_prime: Vec<Instance>,
    /// The frozen head `x̄` of the query.
    pub head: Vec<Value>,
    nulls: NullGen,
}

/// One invariant-check report for a tower level (Proposition 3.6).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InvariantReport {
    /// Level `k` the report describes.
    pub level: usize,
    /// (1) there is a homomorphism `D'ₖ → Dₖ` fixing `adom(Dₖ)`.
    pub hom_dprime_to_d: bool,
    /// (2) `S'ₖ₊₁` extends `Sₖ` (reported at level `k`, `k+1` materialized).
    pub sprime_extends_s: bool,
    /// (3) `Dₖ₊₁` extends `Dₖ` and maps back homomorphically fixing
    /// `adom(Dₖ)`.
    pub d_chain: bool,
    /// (4) `Sₖ₊₁` extends `S'ₖ₊₁`.
    pub s_extends_sprime: bool,
    /// (5) `D'ₖ₊₁` extends `D'ₖ` and maps back homomorphically.
    pub dprime_chain: bool,
}

impl InvariantReport {
    /// All five invariants hold.
    pub fn all_hold(&self) -> bool {
        self.hom_dprime_to_d
            && self.sprime_extends_s
            && self.d_chain
            && self.s_extends_sprime
            && self.dprime_chain
    }
}

impl Tower {
    /// Builds the base level from CQ views and a CQ query.
    pub fn new(views: &CqViews, q: &Cq) -> Tower {
        match Tower::try_new(views, q, &Budget::unlimited()) {
            Ok(t) => t,
            Err(e) => panic!("Tower::new: {e}"),
        }
    }

    /// Budgeted, fallible [`Tower::new`]: the base-level chase draws on
    /// `budget`; hypothesis violations and exhaustion become errors.
    pub fn try_new(views: &CqViews, q: &Cq, budget: &Budget) -> Result<Tower, VqdError> {
        let can: Canonical = try_canonical(views, q)?;
        let mut nulls = can.nulls.clone();
        let empty_in = Instance::empty(views.as_view_set().input_schema());
        let d0 = can.frozen_query.clone();
        let s0 = can.s.clone();
        let sp0 = Instance::empty(views.as_view_set().output_schema());
        let dp0 = v_inverse_indexed(views, &empty_in, &s0, &mut nulls, budget)?
            .into_instance();
        Ok(Tower {
            d: vec![d0],
            s: vec![s0],
            s_prime: vec![sp0],
            d_prime: vec![dp0],
            head: can.frozen_head,
            nulls,
        })
    }

    /// Number of materialized levels.
    pub fn levels(&self) -> usize {
        self.d.len()
    }

    /// Materializes one more level.
    pub fn step(&mut self, views: &CqViews) {
        if let Err(e) = self.try_step(views, &Budget::unlimited()) {
            panic!("Tower::step: {e}");
        }
    }

    /// Budgeted [`Tower::step`]. On exhaustion no partial level is
    /// pushed: the tower stays at its previous (consistent) height, so
    /// the caller can report progress and retry with a larger budget.
    pub fn try_step(&mut self, views: &CqViews, budget: &Budget) -> Result<(), VqdError> {
        let k = self.levels() - 1;
        budget.checkpoint_with(&format_args!(
            "tower at {} levels ({} tuples in D_{k})",
            self.levels(),
            self.d[k].total_tuples()
        ))?;
        // Chase into temporaries first; commit all-or-nothing so an
        // exhaustion mid-level cannot leave the four chains ragged.
        let mut nulls = self.nulls.clone();
        let sp_next = views.apply(&self.d_prime[k]);
        let d_next = v_inverse_indexed(views, &self.d[k], &sp_next, &mut nulls, budget)?
            .into_instance();
        let s_next = views.apply(&d_next);
        let dp_next = v_inverse_indexed(views, &self.d_prime[k], &sp_next, &mut nulls, budget)?
            .into_instance();
        self.nulls = nulls;
        self.s_prime.push(sp_next);
        self.d.push(d_next);
        self.s.push(s_next);
        self.d_prime.push(dp_next);
        Ok(())
    }

    /// Materializes levels until `target` levels exist.
    pub fn grow_to(&mut self, views: &CqViews, target: usize) {
        while self.levels() < target {
            self.step(views);
        }
    }

    /// Budgeted [`Tower::grow_to`]: stops cleanly at the first level
    /// that exceeds the budget, leaving every fully-materialized level
    /// intact and usable.
    pub fn try_grow_to(
        &mut self,
        views: &CqViews,
        target: usize,
        budget: &Budget,
    ) -> Result<(), VqdError> {
        while self.levels() < target {
            self.try_step(views, budget)?;
        }
        Ok(())
    }

    /// Checks the Proposition 3.6 invariants at level `k`
    /// (requires level `k+1` to be materialized).
    pub fn check_invariants(&self, k: usize) -> InvariantReport {
        assert!(k + 1 < self.levels(), "check_invariants needs level k+1");
        let fix_d: Vec<Value> = self.d[k]
            .adom()
            .intersection(&self.d_prime[k].adom())
            .copied()
            .collect();
        // Both hom tests at this level target D_k: index it once.
        let d_k_index = IndexedInstance::from_instance(&self.d[k]);
        let hom1 = instance_hom(&self.d_prime[k], &d_k_index, &fix_d).is_some();
        let sprime_ext = self.s_prime[k + 1].is_extension_of(&self.s[k]);
        let d_ext = self.d[k + 1].is_extension_of(&self.d[k]);
        let fix_dk: Vec<Value> = self.d[k].adom().into_iter().collect();
        let d_hom = instance_hom(&self.d[k + 1], &d_k_index, &fix_dk).is_some();
        let s_ext = self.s[k + 1].is_extension_of(&self.s_prime[k + 1]);
        let dp_ext = self.d_prime[k + 1].is_extension_of(&self.d_prime[k]);
        let fix_dpk: Vec<Value> = self.d_prime[k].adom().into_iter().collect();
        let dp_hom = instance_hom(&self.d_prime[k + 1], &self.d_prime[k], &fix_dpk).is_some();
        InvariantReport {
            level: k,
            hom_dprime_to_d: hom1,
            sprime_extends_s: sprime_ext,
            d_chain: d_ext && d_hom,
            s_extends_sprime: s_ext,
            dprime_chain: dp_ext && dp_hom,
        }
    }

    /// The separation at the heart of the proof: `x̄ ∈ Q(Dₖ)` for every
    /// level, while `x̄ ∉ Q(D'ₖ)` (when the Prop 3.5 test failed).
    pub fn separation(&self, q: &Cq, k: usize) -> (bool, bool) {
        let in_d = eval_cq(q, &self.d[k]).contains(&self.head);
        let in_dp = eval_cq(q, &self.d_prime[k]).contains(&self.head);
        (in_d, in_dp)
    }

    /// Convergence probe: at level `k`, how far apart are `Sₖ` and `S'ₖ`
    /// (tuples in `Sₖ \ S'ₖ` summed over relations)? In the limit the two
    /// chains produce the same view image.
    pub fn image_gap(&self, k: usize) -> usize {
        let mut gap = 0;
        for (rel, r) in self.s[k].iter() {
            gap += r.difference(self.s_prime[k].rel(rel)).len();
        }
        gap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqd_instance::{DomainNames, Schema};
    use vqd_query::{parse_program, parse_query, ViewSet};

    fn schema() -> Schema {
        Schema::new([("E", 2)])
    }

    fn views(src: &str) -> CqViews {
        let s = schema();
        let mut names = DomainNames::new();
        let prog = parse_program(&s, &mut names, src).unwrap();
        CqViews::new(ViewSet::new(&s, prog.defs))
    }

    fn cq(src: &str) -> Cq {
        let mut names = DomainNames::new();
        parse_query(&schema(), &mut names, src)
            .unwrap()
            .as_cq()
            .unwrap()
            .clone()
    }

    /// The classic non-determined pair: 2-path views, 3-path query.
    fn classic() -> (CqViews, Cq) {
        (
            views("V(x,y) :- E(x,z), E(z,y)."),
            cq("Q(x,y) :- E(x,a), E(a,b), E(b,y)."),
        )
    }

    #[test]
    fn invariants_hold_on_nondetermined_pair() {
        let (v, q) = classic();
        let mut t = Tower::new(&v, &q);
        t.grow_to(&v, 4);
        for k in 0..3 {
            let rep = t.check_invariants(k);
            assert!(rep.all_hold(), "invariants failed at level {k}: {rep:?}");
        }
    }

    #[test]
    fn separation_persists_along_the_tower() {
        let (v, q) = classic();
        let mut t = Tower::new(&v, &q);
        t.grow_to(&v, 4);
        for k in 0..4 {
            let (in_d, in_dp) = t.separation(&q, k);
            assert!(in_d, "x̄ must stay in Q(D_{k})");
            assert!(!in_dp, "x̄ must stay out of Q(D'_{k})");
        }
    }

    #[test]
    fn tower_is_monotone_in_size() {
        let (v, q) = classic();
        let mut t = Tower::new(&v, &q);
        t.grow_to(&v, 3);
        for k in 0..2 {
            assert!(t.d[k + 1].total_tuples() >= t.d[k].total_tuples());
            assert!(t.d_prime[k + 1].total_tuples() >= t.d_prime[k].total_tuples());
        }
    }

    #[test]
    fn image_gap_is_finite_and_reported() {
        let (v, q) = classic();
        let mut t = Tower::new(&v, &q);
        t.grow_to(&v, 3);
        // The gap at level k is |S_k \ S'_k|; it is nonzero at low levels
        // for this pair (S' lags one chase step behind).
        let gaps: Vec<usize> = (0..3).map(|k| t.image_gap(k)).collect();
        assert_eq!(gaps.len(), 3);
        assert!(gaps[0] > 0);
    }

    #[test]
    fn determined_pair_gives_coinciding_images_quickly() {
        // Identity views: D'₀ already reproduces S₀ exactly and the tower
        // stabilizes: S'₁ = S₀.
        let v = views("V(x,y) :- E(x,y).");
        let q = cq("Q(x,y) :- E(x,y).");
        let mut t = Tower::new(&v, &q);
        t.grow_to(&v, 2);
        assert!(t.s[0].is_subinstance_of(&t.s_prime[1]));
        assert!(t.s_prime[1].is_subinstance_of(&t.s[0]));
    }
}

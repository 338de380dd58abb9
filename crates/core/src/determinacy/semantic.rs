//! Semantic (information-theoretic) determinacy checking.
//!
//! The definition itself (Section 2): `V ↠ Q` iff `V(D₁) = V(D₂)` implies
//! `Q(D₁) = Q(D₂)` for all finite instances. This module checks the
//! definition *directly* on bounded domains:
//!
//! * [`check_exhaustive_ctx`] (and its unlimited convenience form
//!   [`check_exhaustive`]) enumerates every instance with active domain
//!   inside `{c0..c(n-1)}`, grouping by view image in a single pass —
//!   definitive `NotDetermined` answers, and a definitive
//!   `NoCounterexampleUpTo(n)` otherwise (finite determinacy for UCQ is
//!   *undecidable*, Theorem 4.5, so a bound is the best any tool can do);
//! * [`check_random`] plays the same grouping game over random samples.
//!
//! These brute-force checkers are the ground truth every effective
//! procedure in this crate is validated against (experiments E1, E13),
//! and the exponential wall they hit is measured as figure F4.
//!
//! The exhaustive scan evaluates views and query on the enumeration
//! index itself through the [`BitScan`] kernel, building an [`Instance`]
//! only for a witness; inputs the kernel's fallback rule refuses (FO, a
//! constant outside the domain, wide outputs) run the per-instance
//! evaluator. Both routes share one scan body, so verdicts, witnesses
//! and budget accounting agree byte for byte.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use vqd_budget::{Budget, VqdError};
use vqd_eval::{apply_views, disjuncts, eval_query, BitScan};
use vqd_exec::ExecInput;
use vqd_instance::gen::{random_instance, space_size, InstanceEnumerator};
use vqd_instance::{Instance, Relation};
use vqd_query::{QueryExpr, ViewSet};

/// A definitive refutation of determinacy: two instances with equal view
/// images but different query answers.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// First instance.
    pub d1: Instance,
    /// Second instance (`V(d1) = V(d2)`).
    pub d2: Instance,
    /// The shared view image.
    pub image: Instance,
    /// `Q(d1)`.
    pub q1: Relation,
    /// `Q(d2)` (`≠ q1`).
    pub q2: Relation,
}

/// Outcome of a bounded exhaustive check.
#[derive(Clone, Debug)]
pub enum SemanticVerdict {
    /// No pair with `adom(D₁) ∪ adom(D₂) ⊆ {c0..c(n-1)}` violates
    /// determinacy.
    NoCounterexampleUpTo(usize),
    /// Determinacy fails, witnessed concretely.
    NotDetermined(Box<Counterexample>),
    /// The instance space exceeds `limit` — refusing to enumerate.
    TooLarge {
        /// The requested bound.
        domain: usize,
        /// `∏_R 2^(n^arity)`, if it fits in `u128`.
        space: Option<u128>,
    },
    /// The resource budget tripped mid-scan: inconclusive, but the
    /// payload records how far the scan got (graceful degradation; retry
    /// with a larger budget to make strictly more progress).
    Exhausted(Box<vqd_budget::Exhausted>),
}

impl SemanticVerdict {
    /// Whether this verdict definitively refutes determinacy.
    pub fn is_refuted(&self) -> bool {
        matches!(self, SemanticVerdict::NotDetermined(_))
    }

    /// Whether this verdict is conclusive for bound `n` (either a
    /// counterexample or a completed scan — not `TooLarge`/`Exhausted`).
    pub fn is_conclusive(&self) -> bool {
        matches!(self, SemanticVerdict::NotDetermined(_) | SemanticVerdict::NoCounterexampleUpTo(_))
    }
}

/// Exhaustively checks determinacy over all instances with values in
/// `{c0..c(n-1)}`. `limit` caps the number of instances enumerated.
///
/// Convenience form of [`check_exhaustive_ctx`] with an unlimited
/// budget; panics on schema mismatch (the context form returns a
/// structured [`VqdError`] instead).
pub fn check_exhaustive(views: &ViewSet, q: &QueryExpr, n: usize, limit: u128) -> SemanticVerdict {
    match check_exhaustive_ctx(views, q, n, limit, &Budget::unlimited()) {
        Ok(v) => v,
        Err(e) => panic!("check_exhaustive: {e}"),
    }
}

/// Exhaustive semantic determinacy check under an execution context —
/// the one fallible entry point of the bounded semantic search.
///
/// Invalid input (schema mismatch) is a [`VqdError`]; running out of
/// budget is the *verdict* [`SemanticVerdict::Exhausted`], carrying how
/// far the scan got. The scan runs on the calling thread whatever the
/// context's parallelism: one [`Budget::checkpoint`] per enumerated
/// instance, tuples charged for every image retained in the grouping
/// map.
pub fn check_exhaustive_ctx(
    views: &ViewSet,
    q: &QueryExpr,
    n: usize,
    limit: u128,
    cx: &impl ExecInput,
) -> Result<SemanticVerdict, VqdError> {
    let schema = views.input_schema();
    if q.schema() != schema {
        return Err(VqdError::SchemaMismatch {
            context: "check_exhaustive",
            expected: format!("{schema:?}"),
            found: format!("{:?}", q.schema()),
        });
    }
    let total = match space_size(schema, n) {
        Some(s) if s <= limit => s,
        space => return Ok(SemanticVerdict::TooLarge { domain: n, space }),
    };
    Ok(match Kernel::compile(views, q, n, total) {
        Some(kernel) => scan(kernel, total, n, cx.budget()),
        None => scan(Evaluator::new(views, q, n), total, n, cx.budget()),
    })
}

/// How a scan evaluates the views and the query on one enumerated
/// instance. Both routes give the same verdicts, witnesses and budget
/// charges; [`Kernel`] just never builds an index.
trait Route {
    /// An enumerated instance.
    type Inst;
    /// A view image: the grouping key.
    type Image: Hash + Eq + Clone;
    /// A query answer.
    type Answer: PartialEq;
    /// Evaluates instance `i`; a route is probed at consecutive indexes
    /// from 0.
    fn probe(&mut self, i: u128) -> (Self::Inst, Self::Image, Self::Answer);
    /// Tuples retained with a new image: `|d| + |V(d)|`.
    fn tuples(&self, d: &Self::Inst, image: &Self::Image) -> u64;
    /// The counterexample two clashing instances make.
    fn witness(
        &self,
        first: (&Self::Inst, &Self::Answer),
        d2: Self::Inst,
        image: Self::Image,
        q2: Self::Answer,
    ) -> Counterexample;
}

/// The per-instance evaluator route: one index per instance, shared by
/// `V` and `Q`. It runs whenever [`BitScan::compile`] refuses the pair.
struct Evaluator<'a> {
    views: &'a ViewSet,
    q: &'a QueryExpr,
    instances: InstanceEnumerator,
}

impl<'a> Evaluator<'a> {
    fn new(views: &'a ViewSet, q: &'a QueryExpr, n: usize) -> Self {
        let instances = InstanceEnumerator::new(views.input_schema(), n);
        Evaluator { views, q, instances }
    }
}

impl Route for Evaluator<'_> {
    type Inst = Instance;
    type Image = Instance;
    type Answer = Relation;

    fn probe(&mut self, _i: u128) -> (Instance, Instance, Relation) {
        let d = self.instances.next().expect("probed inside the instance space");
        let idx = vqd_instance::IndexedInstance::new(d);
        let image = apply_views(self.views, &idx);
        let out = eval_query(self.q, &idx);
        (idx.into_instance(), image, out)
    }

    fn tuples(&self, d: &Instance, image: &Instance) -> u64 {
        (d.total_tuples() + image.total_tuples()) as u64
    }

    fn witness(
        &self,
        (d1, q1): (&Instance, &Relation),
        d2: Instance,
        image: Instance,
        q2: Relation,
    ) -> Counterexample {
        Counterexample { d1: d1.clone(), d2, image, q1: q1.clone(), q2 }
    }
}

/// The bitmask kernel route: instances, images and answers are `u128`
/// bitsets ([`BitScan`]), decoded only for a witness.
struct Kernel<'a> {
    views: &'a ViewSet,
    scan: BitScan,
}

impl<'a> Kernel<'a> {
    /// Compiles the views (side 0) and the query (side 1), or `None`
    /// when the kernel's fallback rule sends the pair to [`Evaluator`].
    fn compile(views: &'a ViewSet, q: &QueryExpr, n: usize, total: u128) -> Option<Self> {
        let image =
            views.views().iter().map(|v| disjuncts(&v.query)).collect::<Option<Vec<_>>>()?;
        let answer = [disjuncts(q)?];
        let scan = BitScan::compile(views.input_schema(), n, total, &[&image, &answer])?;
        Some(Kernel { views, scan })
    }
}

impl Route for Kernel<'_> {
    type Inst = u128;
    type Image = u128;
    type Answer = u128;

    #[inline]
    fn probe(&mut self, i: u128) -> (u128, u128, u128) {
        (i, self.scan.eval(0, i), self.scan.eval(1, i))
    }

    fn tuples(&self, d: &u128, image: &u128) -> u64 {
        u64::from(d.count_ones() + image.count_ones())
    }

    fn witness(&self, (d1, q1): (&u128, &u128), d2: u128, image: u128, q2: u128) -> Counterexample {
        let schema = self.views.input_schema();
        let answer = |bits| self.scan.output(1).relations(bits).pop().expect("one query output");
        Counterexample {
            d1: self.scan.input().instance(schema, *d1),
            d2: self.scan.input().instance(schema, d2),
            image: self.scan.output(0).instance(self.views.output_schema(), image),
            q1: answer(*q1),
            q2: answer(q2),
        }
    }
}

/// Where a scan is, for the `partial` text of a budget trip: index `i`
/// of `total` instances over domain `n`; `clean` adds that no
/// counterexample was found so far.
#[derive(Clone, Copy)]
struct At {
    i: u128,
    total: u128,
    n: usize,
    clean: bool,
}

impl fmt::Display for At {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let At { i, total, n, clean } = *self;
        write!(f, "scanned {i} of {total} instances over domain {n}")?;
        if clean {
            f.write_str(", no counterexample")?;
        }
        Ok(())
    }
}

/// Scans all `total` instances of domain `n` through `route`, grouping
/// by image: one [`Budget::checkpoint_with`] per instance, and
/// [`Route::tuples`] charged for every image retained.
fn scan<R: Route>(mut route: R, total: u128, n: usize, budget: &Budget) -> SemanticVerdict {
    let mut by_image: HashMap<R::Image, (R::Inst, R::Answer)> = HashMap::new();
    for i in 0..total {
        let at = |clean| At { i, total, n, clean };
        if let Err(e) = budget.checkpoint_with(&at(true)) {
            return SemanticVerdict::Exhausted(Box::new(e));
        }
        vqd_obs::count(vqd_obs::Metric::SemanticInstancesScanned, 1);
        let (d, image, out) = route.probe(i);
        match by_image.entry(image) {
            Entry::Vacant(slot) => {
                let tuples = route.tuples(&d, slot.key());
                if let Err(e) = budget.charge_tuples(tuples, &at(false)) {
                    return SemanticVerdict::Exhausted(Box::new(e));
                }
                slot.insert((d, out));
            }
            Entry::Occupied(seen) => {
                let (d1, q1) = seen.get();
                if *q1 != out {
                    let c = route.witness((d1, q1), d, seen.key().clone(), out);
                    return SemanticVerdict::NotDetermined(Box::new(c));
                }
            }
        }
    }
    SemanticVerdict::NoCounterexampleUpTo(n)
}

/// Randomized counterexample search: samples instances, groups by image,
/// reports the first clash. `None` means no violation was observed.
pub fn check_random(
    views: &ViewSet,
    q: &QueryExpr,
    n: usize,
    density: f64,
    samples: usize,
    rng: &mut impl rand::Rng,
) -> Option<Counterexample> {
    let schema = views.input_schema();
    let mut by_image: HashMap<Instance, (Instance, Relation)> = HashMap::new();
    for _ in 0..samples {
        let d = random_instance(schema, n, density, rng);
        let idx = vqd_instance::IndexedInstance::new(d);
        let image = apply_views(views, &idx);
        let out = eval_query(q, &idx);
        let d = idx.into_instance();
        match by_image.get(&image) {
            None => {
                by_image.insert(image, (d, out));
            }
            Some((d1, q1)) => {
                if *q1 != out {
                    return Some(Counterexample {
                        d1: d1.clone(),
                        d2: d,
                        image,
                        q1: q1.clone(),
                        q2: out,
                    });
                }
            }
        }
    }
    None
}

/// Verifies a counterexample (used by tests and by the repro harness to
/// double-check everything it prints).
pub fn verify_counterexample(views: &ViewSet, q: &QueryExpr, c: &Counterexample) -> bool {
    apply_views(views, &c.d1) == apply_views(views, &c.d2)
        && eval_query(q, &c.d1) != eval_query(q, &c.d2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vqd_budget::ExhaustReason;
    use vqd_instance::{DomainNames, Schema};
    use vqd_query::{parse_program, parse_query};

    fn schema() -> Schema {
        Schema::new([("E", 2)])
    }

    fn setup(view_src: &str, q_src: &str) -> (ViewSet, QueryExpr) {
        let s = schema();
        let mut names = DomainNames::new();
        let prog = parse_program(&s, &mut names, view_src).unwrap();
        let views = ViewSet::new(&s, prog.defs);
        let q = parse_query(&s, &mut names, q_src).unwrap();
        (views, q)
    }

    #[test]
    fn identity_views_determine_everything() {
        let (v, q) = setup("V(x,y) :- E(x,y).", "Q(x,z) :- E(x,y), E(y,z).");
        match check_exhaustive(&v, &q, 3, 1 << 20) {
            SemanticVerdict::NoCounterexampleUpTo(3) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn projection_views_fail_with_witness() {
        let (v, q) = setup("V1(x) :- E(x,y).\nV2(y) :- E(x,y).", "Q(x,z) :- E(x,y), E(y,z).");
        match check_exhaustive(&v, &q, 3, 1 << 20) {
            SemanticVerdict::NotDetermined(c) => {
                assert!(verify_counterexample(&v, &q, &c));
            }
            other => panic!("expected refutation, got {other:?}"),
        }
    }

    #[test]
    fn two_path_views_three_path_query_refuted() {
        let (v, q) = setup("V(x,y) :- E(x,z), E(z,y).", "Q(x,y) :- E(x,a), E(a,b), E(b,y).");
        // The 2-path view cannot determine 3-paths; counterexamples exist
        // on small domains.
        let verdict = check_exhaustive(&v, &q, 3, 1 << 20);
        assert!(verdict.is_refuted(), "got {verdict:?}");
    }

    #[test]
    fn too_large_is_reported_not_attempted() {
        let (v, q) = setup("V(x,y) :- E(x,y).", "Q(x,y) :- E(x,y).");
        match check_exhaustive(&v, &q, 5, 100) {
            SemanticVerdict::TooLarge { domain: 5, space } => {
                assert_eq!(space, Some(1 << 25));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn schema_mismatch_is_an_error_not_a_panic() {
        let (v, _) = setup("V(x,y) :- E(x,y).", "Q(x,y) :- E(x,y).");
        let mut names = DomainNames::new();
        let q = parse_query(&Schema::new([("P", 1)]), &mut names, "Q(x) :- P(x).").unwrap();
        match check_exhaustive_ctx(&v, &q, 2, 1 << 20, &Budget::unlimited()) {
            Err(VqdError::SchemaMismatch { context, .. }) => {
                assert_eq!(context, "check_exhaustive")
            }
            other => panic!("expected SchemaMismatch, got {other:?}"),
        }
    }

    #[test]
    fn budget_trips_are_verdicts_with_progress() {
        let (v, q) = setup("V(x,y) :- E(x,y).", "Q(x,z) :- E(x,y), E(y,z).");
        let limits = [
            (Budget::unlimited().with_step_limit(10), ExhaustReason::StepLimit),
            (Budget::unlimited().with_tuple_limit(5), ExhaustReason::TupleLimit),
        ];
        for (budget, reason) in limits {
            match check_exhaustive_ctx(&v, &q, 3, 1 << 26, &budget).unwrap() {
                SemanticVerdict::Exhausted(e) => {
                    assert_eq!(e.reason, reason);
                    assert!(e.partial.starts_with("scanned "), "{}", e.partial);
                }
                other => panic!("{reason:?}: expected Exhausted, got {other:?}"),
            }
        }
    }

    #[test]
    fn random_search_finds_easy_counterexamples() {
        let (v, q) = setup("V1(x) :- E(x,y).", "Q(x,y) :- E(x,y).");
        let mut rng = StdRng::seed_from_u64(3);
        let c = check_random(&v, &q, 3, 0.4, 2000, &mut rng).expect("must find");
        assert!(verify_counterexample(&v, &q, &c));
    }

    #[test]
    fn random_search_respects_determined_pairs() {
        let (v, q) = setup("V(x,y) :- E(x,y).", "Q(x,z) :- E(x,y), E(y,z).");
        let mut rng = StdRng::seed_from_u64(4);
        assert!(check_random(&v, &q, 3, 0.4, 500, &mut rng).is_none());
    }

    #[test]
    fn boolean_views_and_queries() {
        // B() :- E(x,y) determines "is there an edge" but not "is there a
        // loop".
        let (v, q1) = setup("B() :- E(x,y).", "Q() :- E(x,y).");
        assert!(!check_exhaustive(&v, &q1, 2, 1 << 20).is_refuted());
        let (v, q2) = setup("B() :- E(x,y).", "Q() :- E(x,x).");
        assert!(check_exhaustive(&v, &q2, 2, 1 << 20).is_refuted());
    }
}

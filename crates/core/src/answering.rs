//! The query answering problem (Section 5, Lemma 5.3).
//!
//! Given a view extent `S` in the image of **V** and `V ↠ Q`, compute
//! `Q_V(S)` — the unique value of `Q` on any preimage. Lemma 5.3: for
//! ∃FO views, some preimage has at most `k·|adom(S)|^k` elements (`k` =
//! max number of variables in a view definition), so:
//!
//! * **NP algorithm** — guess a small preimage `D`, check `V(D) = S`,
//!   answer `Q(D)`;
//! * **coNP algorithm** — iterate over all small candidates and check
//!   they agree.
//!
//! By Fagin's theorem this places `Q_V` in `∃SO ∩ ∀SO` (Theorem 5.2).
//! We realize the "guess" as bounded exhaustive search (measured in F6 —
//! the exponential cost *is* the point), with a chase-based fast path for
//! CQ views.

use vqd_chase::{v_inverse, CqViews};
use vqd_eval::{apply_views, eval_query};
use vqd_instance::gen::{space_size, InstanceEnumerator};
use vqd_instance::{Instance, NullGen, Relation, Value};
use vqd_query::{QueryExpr, ViewSet};

/// The Lemma 5.3 bound `k · |adom(S)|^k` on the active-domain size of
/// some preimage, where `k` is the largest variable count among the view
/// definitions. Saturates at `usize::MAX` on overflow.
pub fn preimage_bound(views: &ViewSet, extent: &Instance) -> usize {
    let k = views
        .views()
        .iter()
        .map(|v| match &v.query {
            QueryExpr::Cq(c) => c.all_vars().len(),
            QueryExpr::Ucq(u) => u.disjuncts.iter().map(|d| d.all_vars().len()).max().unwrap_or(0),
            QueryExpr::Fo(f) => f.formula.quantifier_width(),
        })
        .max()
        .unwrap_or(0);
    let a = extent.adom().len();
    a.checked_pow(k as u32).and_then(|p| p.checked_mul(k)).unwrap_or(usize::MAX)
}

/// Chase-based fast path for CQ views: `V_∅^{-1}(S)` is a preimage iff
/// its image is exactly `S` (it always covers `S`; it may overshoot).
pub fn chase_preimage(views: &CqViews, extent: &Instance) -> Option<Instance> {
    let mut nulls = NullGen::new();
    let empty = Instance::empty(views.as_view_set().input_schema());
    let candidate = v_inverse(views, &empty, extent, &mut nulls);
    (views.apply(&candidate) == *extent).then_some(candidate)
}

/// Exhaustive preimage search over instances with values drawn from
/// `adom(S)` plus `extra_fresh` padding values. Returns the first
/// preimage, or `None` if none exists in the searched space (then `S` is
/// not in the image of **V**, as far as the bound can tell).
///
/// Values in `adom(S)` must be `Named` constants.
pub fn find_preimage_bounded(
    views: &ViewSet,
    extent: &Instance,
    extra_fresh: usize,
    limit: u128,
) -> Option<Instance> {
    for_each_preimage(views, extent, extra_fresh, limit, |d| {
        Some(d.clone()) // first hit wins
    })
}

/// Iterates preimages in the bounded space, returning the first `Some`
/// produced by `f`.
pub fn for_each_preimage<T>(
    views: &ViewSet,
    extent: &Instance,
    extra_fresh: usize,
    limit: u128,
    mut f: impl FnMut(&Instance) -> Option<T>,
) -> Option<T> {
    let schema = views.input_schema();
    // Build the candidate value pool: adom(S) then fresh values.
    let mut pool: Vec<Value> = extent.adom().into_iter().collect();
    let max_named = pool
        .iter()
        .map(|v| {
            assert!(v.is_named(), "extent must be over named constants");
            v.index()
        })
        .max()
        .map_or(0, |m| m + 1);
    for i in 0..extra_fresh {
        pool.push(Value::Named(max_named + i as u32));
    }
    // The enumerator works over {c0..c(n-1)}; remap its values onto the
    // pool so extents with sparse adoms still work.
    let n = pool.len();
    space_size(schema, n).filter(|&s| s <= limit)?;
    let remap: std::collections::BTreeMap<Value, Value> =
        (0..n as u32).map(|i| (Value::Named(i), pool[i as usize])).collect();
    for d in InstanceEnumerator::new(schema, n) {
        let d = d.map_values(&remap);
        if apply_views(views, &d) == *extent {
            if let Some(t) = f(&d) {
                return Some(t);
            }
        }
    }
    None
}

/// Outcome of the certain-answer / query-answering computation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AnsweringOutcome {
    /// The answer `Q_V(S)` (NP path: from the first preimage found).
    pub answer: Relation,
    /// How many preimages the coNP verification pass inspected.
    pub preimages_inspected: usize,
    /// Whether every inspected preimage agreed (must be `true` whenever
    /// `V ↠ Q`; a `false` here *refutes* determinacy).
    pub consistent: bool,
}

/// The NP guess-and-check algorithm: answer from the first preimage.
/// Returns `None` if no preimage exists in the bounded space.
pub fn answer_np(
    views: &ViewSet,
    q: &QueryExpr,
    extent: &Instance,
    extra_fresh: usize,
    limit: u128,
) -> Option<Relation> {
    let d = find_preimage_bounded(views, extent, extra_fresh, limit)?;
    Some(eval_query(q, &d))
}

/// The coNP verification algorithm: inspect *every* bounded preimage and
/// require agreement.
pub fn answer_conp(
    views: &ViewSet,
    q: &QueryExpr,
    extent: &Instance,
    extra_fresh: usize,
    limit: u128,
) -> Option<AnsweringOutcome> {
    let mut answer: Option<Relation> = None;
    let mut inspected = 0usize;
    let mut consistent = true;
    for_each_preimage::<()>(views, extent, extra_fresh, limit, |d| {
        let out = eval_query(q, d);
        inspected += 1;
        match &answer {
            None => answer = Some(out),
            Some(a) if *a != out => {
                consistent = false;
                return Some(()); // stop: inconsistency witnessed
            }
            Some(_) => {}
        }
        None
    });
    answer.map(|a| AnsweringOutcome { answer: a, preimages_inspected: inspected, consistent })
}

/// Verdict of the *instance-based* determinacy check (the paper's §6
/// future-work direction: determinacy relative to a **given** view
/// extent rather than all of `I(σ)`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InstanceDeterminacy {
    /// Every bounded preimage of the extent agrees on `Q`.
    Determined {
        /// The agreed answer `Q_V(E)`.
        answer: Relation,
        /// Preimages inspected.
        preimages: usize,
    },
    /// Two preimages disagree — `Q` is not determined *at this extent*
    /// (hence not determined globally either).
    NotDetermined,
    /// The extent has no preimage in the bounded space.
    NoPreimage,
}

/// Decides determinacy **relative to a given view extent** by inspecting
/// every preimage in the bounded space (`adom(E)` plus `extra_fresh`
/// padding values): the instance-based notion the paper's conclusion
/// proposes as future work. Weaker views may fail global determinacy yet
/// still determine `Q` on specific extents — see the tests.
pub fn instance_determinacy(
    views: &ViewSet,
    q: &QueryExpr,
    extent: &Instance,
    extra_fresh: usize,
    limit: u128,
) -> InstanceDeterminacy {
    match answer_conp(views, q, extent, extra_fresh, limit) {
        None => InstanceDeterminacy::NoPreimage,
        Some(out) if out.consistent => InstanceDeterminacy::Determined {
            answer: out.answer,
            preimages: out.preimages_inspected,
        },
        Some(_) => InstanceDeterminacy::NotDetermined,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqd_instance::{named, DomainNames, Schema};
    use vqd_query::{parse_program, parse_query, ViewSet};

    fn schema() -> Schema {
        Schema::new([("E", 2)])
    }

    fn setup(view_src: &str) -> (ViewSet, CqViews) {
        let s = schema();
        let mut names = DomainNames::new();
        let prog = parse_program(&s, &mut names, view_src).unwrap();
        let vs = ViewSet::new(&s, prog.defs);
        (vs.clone(), CqViews::new(vs))
    }

    fn q(src: &str) -> QueryExpr {
        let mut names = DomainNames::new();
        parse_query(&schema(), &mut names, src).unwrap()
    }

    #[test]
    fn bound_formula() {
        let (vs, _) = setup("V(x,y) :- E(x,z), E(z,y).");
        let mut extent = Instance::empty(vs.output_schema());
        extent.insert_named("V", vec![named(0), named(1)]);
        // k = 3 variables, adom = 2: bound = 3 * 2³ = 24.
        assert_eq!(preimage_bound(&vs, &extent), 24);
    }

    #[test]
    fn chase_fast_path_hits_when_image_matches() {
        let (_, cq_views) = setup("V(x,y) :- E(x,y).");
        let mut extent = Instance::empty(cq_views.as_view_set().output_schema());
        extent.insert_named("V", vec![named(0), named(1)]);
        let d = chase_preimage(&cq_views, &extent).expect("identity view chase");
        assert_eq!(cq_views.apply(&d), extent);
    }

    #[test]
    fn chase_fast_path_detects_overshoot() {
        // V(x,y) :- E(x,y), E(y,x): a lone V-tuple (a,b) chases to edges
        // both ways, whose image then also contains (b,a) ∉ S.
        let (_, cq_views) = setup("V(x,y) :- E(x,y), E(y,x).");
        let mut extent = Instance::empty(cq_views.as_view_set().output_schema());
        extent.insert_named("V", vec![named(0), named(1)]);
        assert!(chase_preimage(&cq_views, &extent).is_none());
        // And indeed no preimage exists at all (images of this view are
        // symmetric).
        let (vs, _) = setup("V(x,y) :- E(x,y), E(y,x).");
        assert!(find_preimage_bounded(&vs, &extent, 1, 1 << 20).is_none());
    }

    #[test]
    fn np_and_conp_agree_on_determined_pairs() {
        let (vs, _) = setup("V(x,y) :- E(x,y).");
        let query = q("Q(x,z) :- E(x,y), E(y,z).");
        let mut extent = Instance::empty(vs.output_schema());
        extent.insert_named("V", vec![named(0), named(1)]);
        extent.insert_named("V", vec![named(1), named(2)]);
        let np = answer_np(&vs, &query, &extent, 0, 1 << 20).expect("preimage exists");
        let conp = answer_conp(&vs, &query, &extent, 0, 1 << 20).expect("preimage exists");
        assert!(conp.consistent);
        assert_eq!(np, conp.answer);
        assert!(np.contains(&[named(0), named(2)]));
    }

    #[test]
    fn conp_refutes_determinacy_on_bad_pairs() {
        // Projection views do not determine the edge query: different
        // preimages give different answers.
        let (vs, _) = setup("V1(x) :- E(x,y).\nV2(y) :- E(x,y).");
        let query = q("Q(x,y) :- E(x,y).");
        let mut extent = Instance::empty(vs.output_schema());
        extent.insert_named("V1", vec![named(0)]);
        extent.insert_named("V1", vec![named(1)]);
        extent.insert_named("V2", vec![named(0)]);
        extent.insert_named("V2", vec![named(1)]);
        let out = answer_conp(&vs, &query, &extent, 0, 1 << 20).expect("preimages exist");
        assert!(!out.consistent);
    }

    #[test]
    fn unrealizable_extents_have_no_preimage() {
        // Extent where V1 (sources) is empty but V2 (targets) is not:
        // impossible.
        let (vs, _) = setup("V1(x) :- E(x,y).\nV2(y) :- E(x,y).");
        let mut extent = Instance::empty(vs.output_schema());
        extent.insert_named("V2", vec![named(0)]);
        assert!(find_preimage_bounded(&vs, &extent, 1, 1 << 20).is_none());
    }

    #[test]
    fn instance_based_determinacy_is_finer_than_global() {
        // Projection views do NOT determine the edge query globally —
        // but they do on extents with a single source and single target
        // over a one-value domain (only the loop is possible).
        let (vs, _) = setup("V1(x) :- E(x,y).\nV2(y) :- E(x,y).");
        let query = q("Q(x,y) :- E(x,y).");
        // Globally refuted extent: two sources, two targets.
        let mut wide = Instance::empty(vs.output_schema());
        wide.insert_named("V1", vec![named(0)]);
        wide.insert_named("V1", vec![named(1)]);
        wide.insert_named("V2", vec![named(0)]);
        wide.insert_named("V2", vec![named(1)]);
        assert_eq!(
            instance_determinacy(&vs, &query, &wide, 0, 1 << 20),
            InstanceDeterminacy::NotDetermined
        );
        // Narrow extent: source = target = c0; the only preimage over
        // {c0} is the loop.
        let mut narrow = Instance::empty(vs.output_schema());
        narrow.insert_named("V1", vec![named(0)]);
        narrow.insert_named("V2", vec![named(0)]);
        match instance_determinacy(&vs, &query, &narrow, 0, 1 << 20) {
            InstanceDeterminacy::Determined { answer, preimages } => {
                assert_eq!(preimages, 1);
                assert!(answer.contains(&[named(0), named(0)]));
            }
            other => panic!("expected instance-level determinacy, got {other:?}"),
        }
    }

    #[test]
    fn instance_determinacy_reports_unrealizable_extents() {
        let (vs, _) = setup("V1(x) :- E(x,y).\nV2(y) :- E(x,y).");
        let query = q("Q(x,y) :- E(x,y).");
        let mut bad = Instance::empty(vs.output_schema());
        bad.insert_named("V2", vec![named(0)]);
        assert_eq!(
            instance_determinacy(&vs, &query, &bad, 0, 1 << 20),
            InstanceDeterminacy::NoPreimage
        );
    }

    #[test]
    fn fresh_values_can_be_necessary() {
        // V(x) :- E(x,y): extent {V(a)} needs a target value outside
        // adom(S) when no self-loop is allowed... a self-loop E(a,a) IS a
        // preimage here, so instead check that extra_fresh widens the
        // space monotonically.
        let (vs, _) = setup("V(x) :- E(x,y).");
        let mut extent = Instance::empty(vs.output_schema());
        extent.insert_named("V", vec![named(0)]);
        let d0 = find_preimage_bounded(&vs, &extent, 0, 1 << 20);
        let d1 = find_preimage_bounded(&vs, &extent, 1, 1 << 20);
        assert!(d0.is_some());
        assert!(d1.is_some());
    }
}

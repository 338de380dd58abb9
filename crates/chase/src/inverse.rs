//! The view-inverse chase `V_D^{-1}(S')` (Section 3).
//!
//! Given CQ views **V**, a base instance `D` with image `S = V(D)`, and an
//! extension `S'` of `S`, the paper defines `V_D^{-1}(S')` as the instance
//! obtained from `D` by chasing every *new* tuple of `S'`: for a tuple `ȳ`
//! of view `V` (with defining query `Q_V(x̄)`), add `α_ȳ([Q_V])` where
//! `α_ȳ(x̄) = ȳ` and every other variable of `[Q_V]` goes to a globally
//! fresh labelled null.
//!
//! The paper identifies "new" tuples as those containing an element outside
//! `adom(S)`; for genuine extensions these are exactly the tuples not in
//! `S`, and the membership form also covers zero-ary (Boolean) views and
//! the base case `D = ∅`, so we trigger on `ȳ ∉ S(V)`.
//!
//! # Compiled triggers
//!
//! Each call compiles every view body once into a template: per body
//! atom its relation and its slots, each a variable ordinal or a
//! constant, plus the head slots and the variable count. A variable's
//! ordinal is its first-occurrence rank over the body atoms, then the
//! head — the order in which `freeze` hands out nulls — so a trigger
//! reserves one block of `vars` nulls from the generator and reads an
//! existential variable of ordinal `k` as the null `base + k`. Head
//! variables use up their labels too, so `ChaseNullsCreated` and every
//! later label are exactly those of freezing the body per trigger.
//!
//! A trigger binds the head ordinals to the tuple in buffers reused
//! across triggers, builds each body tuple once, sorts and dedups the
//! trigger's `(relation, tuple)` list — the order a `BTreeSet` delta is
//! walked in — and inserts straight into the maintained
//! [`IndexedInstance`], so arena positions match merging a delta.
//!
//! The template also checks the tuple against the head: a value that
//! differs from a head constant, or two values under one repeated head
//! variable, mean the view can never produce the tuple. The budgeted
//! entry points report that as [`VqdError::InvalidInput`] naming the
//! view and the tuple; [`v_inverse`] panics with the same message.

use std::ops::Range;
use vqd_budget::{Budget, VqdError};
use vqd_eval::apply_views;
use vqd_instance::{IndexedInstance, Instance, NullGen, RelId, Value};
use vqd_obs::Metric;
use vqd_query::{Cq, CqLang, QueryExpr, Term, ViewSet};

/// A view set validated to consist of plain CQs — the hypothesis of every
/// Section 3 construction.
#[derive(Clone, Debug)]
pub struct CqViews {
    views: ViewSet,
}

impl CqViews {
    /// Validates and wraps a view set.
    ///
    /// # Panics
    /// Panics unless every view is a plain CQ (no `=`, `≠`, `¬`) with a
    /// non-empty, safe body. [`CqViews::try_new`] reports the violation
    /// as a [`VqdError`] instead.
    pub fn new(views: ViewSet) -> Self {
        match CqViews::try_new(views) {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }

    /// Validates and wraps a view set, reporting the first violation of
    /// the Section 3 hypotheses as a structured error.
    pub fn try_new(views: ViewSet) -> Result<Self, VqdError> {
        let invalid = |message: String| VqdError::InvalidInput { context: "CqViews", message };
        for v in views.views() {
            let QueryExpr::Cq(cq) = &v.query else {
                return Err(invalid(format!("view `{}` is not a single CQ", v.name)));
            };
            if cq.language() != CqLang::Cq {
                return Err(invalid(format!("view `{}` uses CQ extensions", v.name)));
            }
            if cq.atoms.is_empty() {
                return Err(invalid(format!("view `{}` has an empty body", v.name)));
            }
            if !cq.is_safe() {
                return Err(invalid(format!("view `{}` is unsafe", v.name)));
            }
        }
        Ok(CqViews { views })
    }

    /// The underlying view set.
    pub fn as_view_set(&self) -> &ViewSet {
        &self.views
    }

    /// The defining CQ of output relation `i`.
    pub fn cq(&self, i: usize) -> &Cq {
        match &self.views.views()[i].query {
            QueryExpr::Cq(cq) => cq,
            _ => unreachable!("validated at construction"),
        }
    }

    /// Number of views.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// Whether there are no views.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// Applies the views: `V(D)`.
    pub fn apply(&self, d: &Instance) -> Instance {
        apply_views(&self.views, d)
    }
}

/// Computes `V_D^{-1}(S')`: chases every tuple of `s_prime` not already in
/// `V(base)` into a copy of `base`, inventing fresh nulls from `nulls` for
/// the non-head variables of the view bodies.
///
/// # Panics
/// Panics if `s_prime` is not over the views' output schema or `base` is
/// not over their input schema, or if a tuple of `s_prime` is one its view
/// can never produce: it disagrees with a head constant ("tuple conflicts
/// with a head constant") or holds two values where the head repeats a
/// variable ("tuple conflicts with repeated head variable").
/// [`v_inverse_indexed`] reports all of these as structured errors and
/// honours a resource budget.
pub fn v_inverse(
    views: &CqViews,
    base: &Instance,
    s_prime: &Instance,
    nulls: &mut NullGen,
) -> Instance {
    match v_inverse_indexed(views, base, s_prime, nulls, &Budget::unlimited()) {
        Ok(out) => out.into_instance(),
        Err(e) => panic!("v_inverse: {e}"),
    }
}

/// Budgeted [`v_inverse`] returning the chased instance *with its
/// index*: one [`Budget::checkpoint`] per chased view tuple, tuples
/// charged for every fact the chase materializes. On exhaustion the
/// chase stops cleanly mid-way — `nulls` stays valid (it only ever moves
/// forward), so the caller can retry with a larger budget. A tuple its
/// view cannot produce is a [`VqdError::InvalidInput`] naming the view
/// and the tuple.
///
/// Every trigger writes its tuples straight into the maintained index,
/// so callers that evaluate queries over the chase result (the
/// Proposition 3.5 membership test, certain-answer filtering) get a
/// ready index with zero rebuilds after the chase; callers that want the
/// bare instance take [`IndexedInstance::into_instance`].
pub fn v_inverse_indexed(
    views: &CqViews,
    base: &Instance,
    s_prime: &Instance,
    nulls: &mut NullGen,
    budget: &Budget,
) -> Result<IndexedInstance, VqdError> {
    if s_prime.schema() != views.as_view_set().output_schema() {
        return Err(VqdError::SchemaMismatch {
            context: "v_inverse (S' must be over the view output schema)",
            expected: format!("{:?}", views.as_view_set().output_schema()),
            found: format!("{:?}", s_prime.schema()),
        });
    }
    if base.schema() != views.as_view_set().input_schema() {
        return Err(VqdError::SchemaMismatch {
            context: "v_inverse (base must be over the view input schema)",
            expected: format!("{:?}", views.as_view_set().input_schema()),
            found: format!("{:?}", base.schema()),
        });
    }
    let s = views.apply(base);
    let mut out = IndexedInstance::from_instance(base);
    let mut scratch = Scratch::default();
    let mut chased = 0usize;
    for i in 0..views.len() {
        let rel = views.as_view_set().output_rel(i);
        let template = Template::compile(views.cq(i));
        // One chase round per view relation of the extent; the span's
        // guard records the round even when the budget trips inside it.
        vqd_obs::count(Metric::ChaseRounds, 1);
        let mut round = vqd_obs::span_at("chase.round", budget.work_done().steps);
        for tuple in s_prime.rel(rel).iter() {
            if s.rel(rel).contains(tuple) {
                continue;
            }
            budget.checkpoint_with(&format_args!(
                "chase reached {} tuples after chasing {chased} view tuples",
                out.instance().total_tuples()
            ))?;
            let before = out.instance().total_tuples();
            let nulls_before = nulls.peek();
            template
                .apply(tuple, nulls, &mut out, &mut scratch)
                .map_err(|pos| conflict(views, i, tuple, pos))?;
            chased += 1;
            vqd_obs::count(Metric::ChaseTriggersFired, 1);
            vqd_obs::count(Metric::ChaseNullsCreated, u64::from(nulls.peek() - nulls_before));
            budget.charge_tuples(
                (out.instance().total_tuples() - before) as u64,
                &format_args!(
                    "chase reached {} tuples after chasing {chased} view tuples",
                    out.instance().total_tuples()
                ),
            )?;
        }
        round.finish_steps(budget.work_done().steps);
    }
    Ok(out)
}

/// One term of a compiled view: a variable's ordinal or a constant.
#[derive(Clone, Copy, Debug)]
enum Slot {
    Var(u32),
    Const(Value),
}

/// A view body compiled for the chase: `α_ȳ([Q_V])` for a tuple `ȳ` is
/// the body with head ordinals bound to `ȳ` and every other ordinal `k`
/// read as the null `base + k`.
///
/// A variable's ordinal is its first-occurrence rank over the body atoms,
/// then the head — the order in which [`vqd_eval::freeze`] hands out
/// nulls — so the labels match freezing the body with a fresh generator.
#[derive(Debug)]
struct Template {
    /// Per body atom: its relation and the range of its slots in `slots`.
    atoms: Vec<(RelId, Range<usize>)>,
    slots: Vec<Slot>,
    head: Vec<Slot>,
    /// Distinct variables; a trigger uses up this many nulls.
    vars: u32,
}

/// Buffers one chase reuses across its triggers.
#[derive(Default)]
struct Scratch {
    /// Per ordinal: the tuple value bound to a head variable.
    bound: Vec<Option<Value>>,
    /// The trigger's body tuples, back to back.
    vals: Vec<Value>,
    /// Per body tuple: its relation and its range in `vals`.
    rows: Vec<(RelId, Range<usize>)>,
}

impl Template {
    fn compile(cq: &Cq) -> Template {
        let mut ordinal: Vec<Option<u32>> = Vec::new();
        let mut vars = 0u32;
        let mut slot = |t: Term| match t {
            Term::Const(c) => Slot::Const(c),
            Term::Var(v) => {
                if ordinal.len() <= v.idx() {
                    ordinal.resize(v.idx() + 1, None);
                }
                Slot::Var(*ordinal[v.idx()].get_or_insert_with(|| {
                    vars += 1;
                    vars - 1
                }))
            }
        };
        let mut atoms = Vec::with_capacity(cq.atoms.len());
        let mut slots = Vec::new();
        for atom in &cq.atoms {
            let start = slots.len();
            slots.extend(atom.args.iter().map(|&t| slot(t)));
            atoms.push((atom.rel, start..slots.len()));
        }
        let head = cq.head.iter().map(|&t| slot(t)).collect();
        Template { atoms, slots, head, vars }
    }

    /// Adds `α_ȳ([Q_V])` for `tuple = ȳ` to `out`. The body tuples are
    /// sorted and deduplicated first, so they enter the arena in the
    /// order of a `BTreeSet` delta: relation, then tuple.
    ///
    /// Returns the head position at which `tuple` disagrees with a head
    /// constant or with an earlier position of the same variable; no
    /// null is used up and nothing is written then.
    fn apply(
        &self,
        tuple: &[Value],
        nulls: &mut NullGen,
        out: &mut IndexedInstance,
        scratch: &mut Scratch,
    ) -> Result<(), usize> {
        let Scratch { bound, vals, rows } = scratch;
        bound.clear();
        bound.resize(self.vars as usize, None);
        for (pos, (&slot, &t)) in self.head.iter().zip(tuple).enumerate() {
            match slot {
                Slot::Const(c) if c != t => return Err(pos),
                Slot::Const(_) => {}
                Slot::Var(k) => match bound[k as usize] {
                    Some(prev) if prev != t => return Err(pos),
                    _ => bound[k as usize] = Some(t),
                },
            }
        }
        let base = nulls.fresh_block(self.vars);
        vals.clear();
        rows.clear();
        for (rel, range) in &self.atoms {
            let start = vals.len();
            vals.extend(self.slots[range.clone()].iter().map(|&slot| match slot {
                Slot::Const(c) => c,
                Slot::Var(k) => bound[k as usize].unwrap_or(Value::Null(base + k)),
            }));
            rows.push((*rel, start..vals.len()));
        }
        rows.sort_unstable_by(|(ra, a), (rb, b)| {
            ra.cmp(rb).then_with(|| vals[a.clone()].cmp(&vals[b.clone()]))
        });
        rows.dedup_by(|(ra, a), (rb, b)| ra == rb && vals[a.clone()] == vals[b.clone()]);
        for (rel, range) in rows.iter() {
            out.insert(*rel, vals[range.clone()].to_vec());
        }
        Ok(())
    }
}

/// The error for a tuple of view `i` that its head cannot produce,
/// detected at head position `pos`.
fn conflict(views: &CqViews, i: usize, tuple: &[Value], pos: usize) -> VqdError {
    let cq = views.cq(i);
    let rendered: Vec<String> = tuple.iter().map(Value::to_string).collect();
    let why = match cq.head[pos] {
        Term::Const(c) => {
            format!("conflicts with a head constant: position {} must be {c}", pos + 1)
        }
        Term::Var(v) => {
            let first = cq.head.iter().position(|&t| t == Term::Var(v)).unwrap_or(pos);
            format!(
                "conflicts with repeated head variable `{}` at positions {} and {}",
                cq.var_name(v),
                first + 1,
                pos + 1
            )
        }
    };
    VqdError::InvalidInput {
        context: "v_inverse",
        message: format!(
            "view `{}` cannot produce the tuple ({}): the tuple {why}",
            views.as_view_set().views()[i].name,
            rendered.join(",")
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqd_eval::instance_hom;
    use vqd_instance::{named, DomainNames, Schema};
    use vqd_query::parse_program;

    fn schema() -> Schema {
        Schema::new([("E", 2), ("P", 1)])
    }

    fn views(src: &str) -> CqViews {
        let s = schema();
        let mut names = DomainNames::new();
        let prog = parse_program(&s, &mut names, src).unwrap();
        CqViews::new(ViewSet::new(&s, prog.defs))
    }

    fn graph(edges: &[(u32, u32)], ps: &[u32]) -> Instance {
        let mut d = Instance::empty(&schema());
        for &(a, b) in edges {
            d.insert_named("E", vec![named(a), named(b)]);
        }
        for &p in ps {
            d.insert_named("P", vec![named(p)]);
        }
        d
    }

    #[test]
    fn inverse_of_projection_invents_witnesses() {
        // V(x) :- E(x,y): the inverse of {V(a)} must contain an edge from a
        // to a fresh null.
        let v = views("V(x) :- E(x,y).");
        let d = graph(&[(0, 1)], &[]);
        let s = v.apply(&d);
        assert!(s.rel_named("V").contains(&[named(0)]));
        let mut nulls = NullGen::new();
        let inv = v_inverse(&v, &Instance::empty(&schema()), &s, &mut nulls);
        assert_eq!(inv.rel_named("E").len(), 1);
        let t = inv.rel_named("E").iter().next().unwrap().clone();
        assert_eq!(t[0], named(0));
        assert!(t[1].is_null());
    }

    #[test]
    fn lemma_3_4_homomorphism_back_to_original() {
        // Lemma 3.4: D' = V_∅^{-1}(V(D)) maps homomorphically into D,
        // fixing adom(V(D)).
        let v = views("V1(x,y) :- E(x,z), E(z,y).\nV2(x) :- P(x).");
        let d = graph(&[(0, 1), (1, 2), (2, 0)], &[1]);
        let s = v.apply(&d);
        let mut nulls = NullGen::new();
        let d_prime = v_inverse(&v, &Instance::empty(&schema()), &s, &mut nulls);
        let fix: Vec<Value> = s.adom().into_iter().collect();
        let h = instance_hom(&d_prime, &d, &fix).expect("Lemma 3.4 must hold");
        for &f in &fix {
            assert_eq!(h[&f], f);
        }
    }

    #[test]
    fn existing_tuples_are_not_rechased() {
        // With base = D, S' = V(D): nothing new, inverse = D.
        let v = views("V(x) :- E(x,y).");
        let d = graph(&[(0, 1), (1, 2)], &[]);
        let s = v.apply(&d);
        let mut nulls = NullGen::new();
        let inv = v_inverse(&v, &d, &s, &mut nulls);
        assert_eq!(inv, d);
    }

    #[test]
    fn extension_tuples_are_chased_into_base() {
        let v = views("V(x) :- E(x,y).");
        let d = graph(&[(0, 1)], &[]);
        let mut s_ext = v.apply(&d);
        s_ext.insert_named("V", vec![named(7)]);
        let mut nulls = NullGen::new();
        let inv = v_inverse(&v, &d, &s_ext, &mut nulls);
        // Original edge retained, new edge from 7 to a null added.
        assert!(inv.rel_named("E").contains(&[named(0), named(1)]));
        assert_eq!(inv.rel_named("E").len(), 2);
        assert!(inv.is_extension_of(&d));
    }

    #[test]
    fn boolean_views_chase_their_body() {
        let v = views("B() :- E(x,x).");
        let mut s = Instance::empty(v.as_view_set().output_schema());
        s.rel_mut(s.schema().rel("B")).set_truth(true);
        let mut nulls = NullGen::new();
        let inv = v_inverse(&v, &Instance::empty(&schema()), &s, &mut nulls);
        // A fresh loop must have been invented.
        assert_eq!(inv.rel_named("E").len(), 1);
        let t = inv.rel_named("E").iter().next().unwrap().clone();
        assert_eq!(t[0], t[1]);
        assert!(t[0].is_null());
    }

    #[test]
    fn view_images_of_inverse_cover_s() {
        // V(V_∅^{-1}(S)) ⊇ S (each chased tuple witnesses itself).
        let v = views("V1(x,y) :- E(x,z), E(z,y).\nV2(x) :- P(x), E(x,x).");
        let d = graph(&[(0, 0), (0, 1), (1, 2)], &[0]);
        let s = v.apply(&d);
        let mut nulls = NullGen::new();
        let inv = v_inverse(&v, &Instance::empty(&schema()), &s, &mut nulls);
        let s2 = v.apply(&inv);
        assert!(s.is_subinstance_of(&s2));
    }

    #[test]
    fn chase_applies_deltas_without_per_trigger_rebuilds() {
        let v = views("V(x,y) :- E(x,z), E(z,y).");
        // Many triggers, each inventing a middle null: the maintained
        // index must absorb all of them as deltas.
        let mut s = Instance::empty(v.as_view_set().output_schema());
        for i in 0..40u32 {
            s.insert_named("V", vec![named(i), named(i + 100)]);
        }
        let mut nulls = NullGen::new();
        let before = vqd_instance::index_stats();
        let inv = v_inverse_indexed(
            &v,
            &Instance::empty(&schema()),
            &s,
            &mut nulls,
            &Budget::unlimited(),
        )
        .unwrap();
        let after = vqd_instance::index_stats();
        assert_eq!(inv.instance().rel_named("E").len(), 80);
        // One build for the view image of the base plus one for the chase
        // output — a constant, independent of the trigger count.
        assert_eq!(after.builds - before.builds, 2);
        assert!(after.delta_tuples - before.delta_tuples >= 80);
    }

    /// Reference chase: freeze the body per tuple, rename the frozen head
    /// to the tuple, and merge the result as a `BTreeSet` delta.
    fn chase_by_freezing(
        views: &CqViews,
        s_prime: &Instance,
        nulls: &mut NullGen,
    ) -> IndexedInstance {
        let mut out = IndexedInstance::empty(views.as_view_set().input_schema());
        for i in 0..views.len() {
            let rel = views.as_view_set().output_rel(i);
            for tuple in s_prime.rel(rel).iter() {
                let (body, head, _) = vqd_eval::freeze(views.cq(i), nulls).unwrap();
                let rename = head.iter().copied().zip(tuple.iter().copied());
                let rename = rename.filter(|(h, _)| h.is_null()).collect();
                out.apply_delta(&body.map_values(&rename));
            }
        }
        out
    }

    #[test]
    fn templates_match_freezing_the_body() {
        let s = Schema::new([("E", 2), ("P", 1), ("U", 6)]);
        let cases = [
            "V(x,y) :- E(x,z), E(z,y), P(z).",
            "V(x) :- E(x,y), E(x,y), E(y,x).",
            "V(x,x) :- E(x,y), P(y).",
            "V(A,x) :- E(x,A), U(x,y,B,y,z,z).",
            "B() :- E(x,x), P(C).",
            "V(y,x,y) :- U(x,y,z,x,y,w), E(w,z).\nW() :- P(x), E(x,y).",
            // Atoms out of tuple order: the trigger must sort them.
            "V(x,y) :- P(y), P(x), E(y,x), E(x,y).",
        ];
        for src in cases {
            let mut names = DomainNames::new();
            let prog = parse_program(&s, &mut names, src).unwrap();
            let v = CqViews::new(ViewSet::new(&s, prog.defs));
            // Every producible tuple over a small domain, so the head's
            // repeated variables and constants shape the extent.
            let mut extent = Instance::empty(v.as_view_set().output_schema());
            for i in 0..v.len() {
                let rel = v.as_view_set().output_rel(i);
                let head = &v.cq(i).head;
                for seed in 0..9u32 {
                    let tuple = head
                        .iter()
                        .map(|t| match *t {
                            Term::Const(c) => c,
                            Term::Var(x) => named(1000 + (seed + x.0) % 3),
                        })
                        .collect();
                    extent.insert(rel, tuple);
                }
            }
            let mut nulls = NullGen::starting_at(5);
            let empty = Instance::empty(&s);
            let got =
                v_inverse_indexed(&v, &empty, &extent, &mut nulls, &Budget::unlimited()).unwrap();
            let mut want_nulls = NullGen::starting_at(5);
            let want = chase_by_freezing(&v, &extent, &mut want_nulls);
            assert_eq!(got.instance(), want.instance(), "{src}");
            for (rel, _) in s.iter() {
                assert_eq!(got.scan(rel), want.scan(rel), "{src}: scan order");
            }
            assert_eq!(nulls.peek(), want_nulls.peek(), "{src}: null labels");
        }
    }

    #[test]
    fn unproducible_tuples_are_invalid_input() {
        let cases = [
            ("V(x,x) :- E(x,y).", "repeated head variable `x` at positions 1 and 2"),
            ("V(x,C) :- E(x,y).", "head constant: position 2 must be c"),
        ];
        for (src, why) in cases {
            let v = views(src);
            let mut extent = Instance::empty(v.as_view_set().output_schema());
            extent.insert_named("V", vec![named(90), named(91)]);
            let mut nulls = NullGen::new();
            let empty = Instance::empty(&schema());
            let err = v_inverse_indexed(&v, &empty, &extent, &mut nulls, &Budget::unlimited())
                .unwrap_err();
            let VqdError::InvalidInput { context, message } = &err else {
                panic!("{src}: expected invalid input, got {err:?}");
            };
            assert_eq!(*context, "v_inverse");
            assert!(message.contains("view `V` cannot produce the tuple (c90,c91)"), "{message}");
            assert!(message.contains(why), "{message}");
            assert_eq!(nulls.peek(), 0, "a rejected tuple uses up no nulls");
        }
    }

    #[test]
    #[should_panic(expected = "tuple conflicts with repeated head variable")]
    fn unbudgeted_inverse_panics_on_unproducible_tuples() {
        let v = views("V(x,x) :- E(x,y).");
        let mut extent = Instance::empty(v.as_view_set().output_schema());
        extent.insert_named("V", vec![named(0), named(1)]);
        v_inverse(&v, &Instance::empty(&schema()), &extent, &mut NullGen::new());
    }

    #[test]
    #[should_panic(expected = "not a single CQ")]
    fn non_cq_views_rejected() {
        views("V(x) :- P(x).\nV(x) :- E(x,x).");
    }

    #[test]
    #[should_panic(expected = "CQ extensions")]
    fn cq_neq_views_rejected() {
        views("V(x) :- E(x,y), x != y.");
    }
}

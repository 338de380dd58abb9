//! Evaluation of conjunctive queries and unions thereof.
//!
//! `c̄ ∈ Q(D)` iff some homomorphism from the body into `D` maps the head
//! template to `c̄`, additionally satisfying the `=`/`≠` constraints and
//! the safely negated atoms. Equalities are compiled away up front by
//! unification, so the homomorphism engine only ever sees positive atoms.

use crate::hom::{for_each_hom_sharded, Assignment, Binding, Ordering};
use crate::input::EvalInput;
use std::collections::BTreeMap;
use vqd_budget::VqdError;
use vqd_exec::ExecInput;
use vqd_instance::{IndexedInstance, Relation, Value};
use vqd_query::{Cq, Term, Ucq, VarId};

/// The result of compiling equality constraints: a substitution making all
/// equalities trivially true, or a proof that they cannot be satisfied.
#[derive(Debug)]
enum Unification {
    Subst(BTreeMap<VarId, Term>),
    Unsatisfiable,
}

/// Unifies the equality constraints of `q` into a substitution.
fn unify_eqs(q: &Cq) -> Unification {
    let mut subst: BTreeMap<VarId, Term> = BTreeMap::new();
    fn resolve(t: Term, subst: &BTreeMap<VarId, Term>) -> Term {
        let mut cur = t;
        while let Term::Var(v) = cur {
            match subst.get(&v) {
                Some(&next) => cur = next,
                None => break,
            }
        }
        cur
    }
    for &(a, b) in &q.eqs {
        let ra = resolve(a, &subst);
        let rb = resolve(b, &subst);
        match (ra, rb) {
            (Term::Const(x), Term::Const(y)) => {
                if x != y {
                    return Unification::Unsatisfiable;
                }
            }
            (Term::Var(v), t) | (t, Term::Var(v)) => {
                if t != Term::Var(v) {
                    subst.insert(v, t);
                }
            }
        }
    }
    Unification::Subst(subst)
}

/// Applies the unifier, returning an equality-free equivalent of `q` (or
/// `None` if the equalities are unsatisfiable — the empty query).
pub fn normalize_eqs(q: &Cq) -> Option<Cq> {
    if q.eqs.is_empty() {
        return Some(q.clone());
    }
    match unify_eqs(q) {
        Unification::Unsatisfiable => None,
        Unification::Subst(subst) => {
            let f = |v: VarId| {
                let mut cur = Term::Var(v);
                while let Term::Var(w) = cur {
                    match subst.get(&w) {
                        Some(&next) => cur = next,
                        None => break,
                    }
                }
                cur
            };
            let mut out = q.subst(&f);
            out.eqs.clear();
            Some(out)
        }
    }
}

/// Evaluates a conjunctive query (with any of its extensions) on any
/// [`EvalInput`]: a bare [`Instance`] (an index is built for the call),
/// a prebuilt [`IndexedInstance`], or a shared `Arc<IndexedInstance>`.
/// Callers evaluating several queries over one instance (view
/// application, containment, the saturation engines) build the index
/// once and pass it to every call instead of paying one build per query.
///
/// [`Instance`]: vqd_instance::Instance
///
/// ```
/// use vqd_eval::eval_cq;
/// use vqd_instance::{named, DomainNames, Instance, Schema};
/// use vqd_query::parse_query;
///
/// let schema = Schema::new([("E", 2)]);
/// let mut names = DomainNames::new();
/// let q = parse_query(&schema, &mut names, "Q(x,z) :- E(x,y), E(y,z).")
///     .unwrap().as_cq().unwrap().clone();
/// let mut d = Instance::empty(&schema);
/// d.insert_named("E", vec![named(0), named(1)]);
/// d.insert_named("E", vec![named(1), named(2)]);
/// let out = eval_cq(&q, &d);
/// assert!(out.contains(&[named(0), named(2)]));
/// assert_eq!(out.len(), 1);
/// ```
///
/// # Panics
/// Panics if the (equality-normalized) query is unsafe: every variable in
/// the head, in a negated atom, or in an inequality must occur in a
/// positive atom.
pub fn eval_cq<I: EvalInput + ?Sized>(q: &Cq, input: &I) -> Relation {
    eval_cq_shard(q, &input.index(), 0, 1).into_relation()
}

/// Evaluates one root-candidate shard of a conjunctive query: shard
/// `shard` of `shards` of the homomorphism space (see
/// [`for_each_hom_sharded`]). The per-shard results union — in any
/// order, since [`Relation`] stores tuples canonically — to exactly
/// [`eval_cq`]'s answer; this is the work unit the parallel evaluator
/// and the fixpoint bench fan out.
pub fn eval_cq_sharded(q: &Cq, index: &IndexedInstance, shard: usize, shards: usize) -> Relation {
    eval_cq_shard(q, index, shard, shards).into_relation()
}

/// The distinct answer rows of a conjunctive query, sorted in [`Value`]
/// order and stored flat: row `i` is `values[i * arity..(i + 1) * arity]`.
/// This is what [`eval_cq_rows`] returns, so a caller that filters the
/// answers (the certain-answer null filter) builds one [`Relation`] from
/// the rows it keeps instead of one from every evaluated row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rows {
    arity: usize,
    len: usize,
    values: Vec<Value>,
}

impl Rows {
    fn new(arity: usize) -> Rows {
        Rows { arity, len: 0, values: Vec::new() }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The rows in ascending order (for arity 0: at most one empty row).
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[Value]> + '_ {
        (0..self.len).map(move |i| &self.values[i * self.arity..(i + 1) * self.arity])
    }

    /// The rows as a relation.
    pub fn into_relation(self) -> Relation {
        Relation::from_tuples(self.arity, self.iter().map(<[Value]>::to_vec))
    }

    fn push(&mut self, row: impl IntoIterator<Item = Value>) {
        self.values.extend(row);
        self.len += 1;
    }

    /// Appends `other`'s rows; the result needs a [`Rows::sort_dedup`].
    fn append(&mut self, other: Rows) {
        self.values.extend(other.values);
        self.len += other.len;
    }

    /// Sorts the rows in [`Value`] order and drops duplicates. Rows of
    /// arity 1–4 sort as fixed arrays of packed keys; wider rows sort
    /// through a permutation.
    fn sort_dedup(&mut self) {
        if self.len <= 1 {
            return; // already sorted and distinct
        }
        match self.arity {
            0 => self.len = 1,
            1 => self.sort_dedup_packed::<1>(),
            2 => self.sort_dedup_packed::<2>(),
            3 => self.sort_dedup_packed::<3>(),
            4 => self.sort_dedup_packed::<4>(),
            _ => self.sort_dedup_wide(),
        }
    }

    fn sort_dedup_packed<const K: usize>(&mut self) {
        let mut keys: Vec<[u64; K]> =
            self.values.chunks_exact(K).map(|row| std::array::from_fn(|j| pack(row[j]))).collect();
        keys.sort_unstable();
        keys.dedup();
        self.values.clear();
        self.values.extend(keys.iter().flatten().map(|&k| unpack(k)));
        self.len = keys.len();
    }

    fn sort_dedup_wide(&mut self) {
        let a = self.arity;
        let row = |i: usize| &self.values[i * a..(i + 1) * a];
        let mut order: Vec<usize> = (0..self.len).collect();
        order.sort_unstable_by(|&i, &j| row(i).cmp(row(j)));
        order.dedup_by(|i, j| row(*i) == row(*j));
        let values: Vec<Value> = order.iter().flat_map(|&i| row(i)).copied().collect();
        self.len = order.len();
        self.values = values;
    }
}

/// An order-preserving `u64` key for a [`Value`]: `Named(i)` → `i`,
/// `Null(i)` → `2^32 + i`. `Value` orders every named constant before
/// every null and then by index, and so do the keys.
#[inline]
fn pack(v: Value) -> u64 {
    match v {
        Value::Named(i) => u64::from(i),
        Value::Null(i) => (1 << 32) | u64::from(i),
    }
}

#[inline]
fn unpack(k: u64) -> Value {
    if k >> 32 == 0 {
        Value::Named(k as u32)
    } else {
        Value::Null(k as u32)
    }
}

/// Head rows buffered before the first sort-dedup pass.
const HEAD_BUFFER_MIN: usize = 256;

fn eval_cq_shard(q: &Cq, index: &IndexedInstance, shard: usize, shards: usize) -> Rows {
    let d = index.instance();
    let Some(q) = normalize_eqs(q) else {
        return Rows::new(q.arity());
    };
    assert!(
        q.is_safe(),
        "eval_cq: unsafe query (every variable must occur in a positive atom): {q}"
    );
    let resolve = |t: Term, asg: &Binding| -> Value {
        asg.resolve(t).expect("safe query: head/constraint var bound")
    };
    // Heads are buffered flat and sort-deduped whenever the buffer
    // doubles past its last distinct size, so it never holds more than
    // about twice the distinct heads.
    let mut rows = Rows::new(q.arity());
    let mut dedup_at = HEAD_BUFFER_MIN;
    let mut negated: Vec<Value> = Vec::new();
    for_each_hom_sharded(
        &q.atoms,
        index,
        &Assignment::new(),
        Ordering::MostConstrained,
        shard,
        shards,
        |asg| {
            // ≠ constraints.
            for &(a, b) in &q.neqs {
                if resolve(a, asg) == resolve(b, asg) {
                    return true; // reject this match, keep searching
                }
            }
            // Safely negated atoms: fully ground under asg; require absence.
            for na in &q.neg_atoms {
                negated.clear();
                negated.extend(na.args.iter().map(|&t| resolve(t, asg)));
                if d.rel(na.rel).contains(&negated) {
                    return true;
                }
            }
            rows.push(q.head.iter().map(|&t| resolve(t, asg)));
            if rows.len() >= dedup_at {
                rows.sort_dedup();
                dedup_at = (2 * rows.len()).max(HEAD_BUFFER_MIN);
            }
            true
        },
    );
    rows.sort_dedup();
    rows
}

/// Evaluates a union of conjunctive queries on any [`EvalInput`] (one
/// shared index for all disjuncts).
pub fn eval_ucq<I: EvalInput + ?Sized>(u: &Ucq, input: &I) -> Relation {
    let index = input.index();
    let mut out = Relation::new(u.arity());
    for disjunct in &u.disjuncts {
        out.union_with(&eval_cq(disjunct, &*index));
    }
    out
}

/// [`eval_cq`] under an execution context, as distinct sorted [`Rows`]
/// before any [`Relation`] is built: with a parallel
/// [`ExecCtx`](vqd_exec::ExecCtx) the root-candidate shards of the
/// homomorphism search run on the engine pool and their rows merge —
/// byte-identical to the sequential answer, since shards partition the
/// hom space and the merged rows are sorted and deduplicated. With a
/// bare [`Budget`](vqd_budget::Budget) (or a sequential context) this
/// is [`eval_cq`]'s answer; [`Rows::into_relation`] turns it into one.
pub fn eval_cq_rows<I: EvalInput + ?Sized>(
    q: &Cq,
    input: &I,
    cx: &impl ExecInput,
) -> Result<Rows, VqdError> {
    let index = input.index();
    match cx.exec() {
        Some(ec) if ec.is_parallel() => {
            let shards = ec.parallelism();
            let parts = ec.run_shards(shards, |i| Ok(eval_cq_shard(q, &index, i, shards)))?;
            let mut out = Rows::new(q.arity());
            for part in parts {
                out.append(part);
            }
            out.sort_dedup();
            Ok(out)
        }
        _ => Ok(eval_cq_shard(q, &index, 0, 1)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqd_instance::DomainNames;
    use vqd_instance::{named, Instance, Schema};
    use vqd_query::parse_query;

    fn schema() -> Schema {
        Schema::new([("E", 2), ("P", 1)])
    }

    fn instance(edges: &[(u32, u32)], ps: &[u32]) -> Instance {
        let s = schema();
        let mut d = Instance::empty(&s);
        for &(a, b) in edges {
            d.insert_named("E", vec![named(a), named(b)]);
        }
        for &p in ps {
            d.insert_named("P", vec![named(p)]);
        }
        d
    }

    fn q(src: &str) -> Cq {
        let mut names = DomainNames::new();
        parse_query(&schema(), &mut names, src).unwrap().as_cq().unwrap().clone()
    }

    #[test]
    fn two_hop_paths() {
        let d = instance(&[(0, 1), (1, 2), (2, 3)], &[]);
        let r = eval_cq(&q("Q(x,y) :- E(x,z), E(z,y)."), &d);
        assert_eq!(r.len(), 2);
        assert!(r.contains(&[named(0), named(2)]));
        assert!(r.contains(&[named(1), named(3)]));
    }

    #[test]
    fn boolean_queries() {
        let d = instance(&[(0, 0)], &[]);
        let yes = eval_cq(&q("Q() :- E(x,x)."), &d);
        assert!(yes.truth());
        let no = eval_cq(&q("Q() :- P(x)."), &d);
        assert!(!no.truth());
    }

    #[test]
    fn inequality_filters() {
        let d = instance(&[(0, 0), (0, 1)], &[]);
        let r = eval_cq(&q("Q(x,y) :- E(x,y), x != y."), &d);
        assert_eq!(r.len(), 1);
        assert!(r.contains(&[named(0), named(1)]));
    }

    #[test]
    fn equality_merges_variables() {
        let d = instance(&[(0, 0), (0, 1)], &[]);
        let r = eval_cq(&q("Q(x) :- E(x,y), x = y."), &d);
        assert_eq!(r.len(), 1);
        assert!(r.contains(&[named(0)]));
    }

    #[test]
    fn unsatisfiable_equalities_yield_empty() {
        let d = instance(&[(0, 1)], &[0]);
        // 1 = 2 as interned constants: use two distinct constant names.
        let mut names = DomainNames::new();
        let query = parse_query(&schema(), &mut names, "Q(x) :- P(x), A = B.").unwrap();
        let r = eval_cq(query.as_cq().unwrap(), &d);
        assert!(r.is_empty());
    }

    #[test]
    fn safe_negation() {
        let d = instance(&[(0, 1), (1, 2)], &[2]);
        let r = eval_cq(&q("Q(x) :- E(x,y), !P(y)."), &d);
        assert_eq!(r.len(), 1);
        assert!(r.contains(&[named(0)]));
    }

    #[test]
    #[should_panic(expected = "unsafe query")]
    fn unsafe_query_panics() {
        let s = schema();
        let mut query = Cq::new(&s);
        let x = query.var("x");
        let y = query.var("y");
        query.head = vec![x.into()];
        query.atom("P", vec![x.into()]);
        query.add_neq(x.into(), y.into()); // y is not positively bound
        eval_cq(&query, &instance(&[], &[0]));
    }

    #[test]
    fn constants_in_head_and_body() {
        let d = instance(&[(0, 1)], &[]);
        // Constants parse as interned names; build by hand to control values.
        let s = schema();
        let mut query = Cq::new(&s);
        let x = query.var("x");
        query.head = vec![x.into(), Term::Const(named(9))];
        query.atom("E", vec![Term::Const(named(0)), x.into()]);
        let r = eval_cq(&query, &d);
        assert!(r.contains(&[named(1), named(9)]));
    }

    #[test]
    fn ucq_unions_disjuncts() {
        let d = instance(&[(0, 1)], &[5]);
        let mut names = DomainNames::new();
        let u = parse_query(&schema(), &mut names, "Q(x) :- P(x).\nQ(x) :- E(x,y).").unwrap();
        let vqd_query::QueryExpr::Ucq(u) = u else { panic!() };
        let r = eval_ucq(&u, &d);
        assert_eq!(r.len(), 2);
        assert!(r.contains(&[named(5)]));
        assert!(r.contains(&[named(0)]));
    }

    #[test]
    fn eval_on_empty_instance() {
        let d = instance(&[], &[]);
        let r = eval_cq(&q("Q(x) :- P(x)."), &d);
        assert!(r.is_empty());
    }

    #[test]
    fn ctx_variants_match_sequential_byte_for_byte() {
        use vqd_budget::Budget;
        use vqd_exec::ExecCtx;
        let d = instance(&[(0, 1), (1, 2), (2, 3), (3, 0), (1, 3), (0, 2)], &[1, 3]);
        let cq = q("Q(x,y) :- E(x,z), E(z,y).");
        let seq_cq = eval_cq(&cq, &d);
        // A bare budget is a sequential ExecInput.
        let budget = Budget::unlimited();
        assert_eq!(eval_cq_rows(&cq, &d, &budget).unwrap().into_relation(), seq_cq);
        // A parallel context merges shards back to the same bytes.
        for par in [2usize, 4, 8] {
            let cx = ExecCtx::with_parallelism(Budget::unlimited(), par);
            let par_cq = eval_cq_rows(&cq, &d, &cx).unwrap().into_relation();
            assert_eq!(par_cq, seq_cq, "parallelism {par}");
        }
    }

    #[test]
    fn row_kernel_sorts_like_value_order_at_every_width() {
        use vqd_instance::null;
        // Values chosen so nulls interleave with constants whose ids
        // are larger, and ids straddle the 32-bit packing boundary.
        let pool = [named(0), named(7), named(u32::MAX), null(0), null(3), null(u32::MAX)];
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        for arity in 0..=6 {
            let mut rows = Rows::new(arity);
            let mut want = std::collections::BTreeSet::new();
            for _ in 0..300 {
                let row: Vec<Value> = (0..arity)
                    .map(|_| {
                        seed ^= seed << 13;
                        seed ^= seed >> 7;
                        seed ^= seed << 17;
                        pool[(seed % pool.len() as u64) as usize]
                    })
                    .collect();
                rows.push(row.iter().copied());
                want.insert(row);
            }
            rows.sort_dedup();
            let got: Vec<Vec<Value>> = rows.iter().map(<[Value]>::to_vec).collect();
            assert_eq!(got, want.into_iter().collect::<Vec<_>>(), "arity {arity}");
        }
    }

    #[test]
    fn rows_merge_shards_into_the_sequential_answer() {
        let d = instance(&[(0, 1), (1, 2), (2, 3), (3, 0), (1, 3), (0, 2)], &[1, 3]);
        let index = IndexedInstance::from_instance(&d);
        for src in
            ["Q(x,y) :- E(x,z), E(z,y).", "Q() :- E(x,y).", "Q(y,x,y,z,x) :- E(x,y), E(y,z)."]
        {
            let cq = q(src);
            let seq = eval_cq_shard(&cq, &index, 0, 1);
            let mut merged = Rows::new(cq.arity());
            for shard in 0..3 {
                merged.append(eval_cq_shard(&cq, &index, shard, 3));
            }
            merged.sort_dedup();
            assert_eq!(merged, seq, "{src}");
            assert_eq!(seq.clone().into_relation(), eval_cq(&cq, &d), "{src}");
        }
    }

    #[test]
    fn normalize_eqs_keeps_semantics() {
        let d = instance(&[(0, 1), (1, 1)], &[1]);
        let orig = q("Q(x) :- E(x,y), P(y), x = y.");
        let norm = normalize_eqs(&orig).unwrap();
        assert!(norm.eqs.is_empty());
        assert_eq!(eval_cq(&orig, &d), eval_cq(&norm, &d));
    }
}

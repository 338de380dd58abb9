//! Active-domain evaluation of first-order queries.
//!
//! Quantifiers range over the *evaluation universe*: the active domain of
//! the instance plus every constant mentioned in the query — the standard
//! active-domain semantics of finite model theory (\[2\], \[15\]).
//!
//! Evaluation is bottom-up: every subformula θ is materialized as a table
//! over its free variables — precisely the relations `R_θ` that the
//! Theorem 5.4 construction makes first-class citizens. Negation
//! complements against `universe^k`, disjunction aligns columns by
//! padding, quantification projects.

use std::collections::{BTreeSet, HashMap};
use vqd_budget::{Budget, Exhausted};
use vqd_instance::{Instance, Relation, Value};
use vqd_query::{Fo, FoQuery, Term, VarId};

/// An intermediate result: rows over a set of named columns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Table {
    /// Column variables, in order.
    pub cols: Vec<VarId>,
    /// Rows (each of length `cols.len()`).
    pub rows: BTreeSet<Vec<Value>>,
}

impl Table {
    fn empty(cols: Vec<VarId>) -> Table {
        Table { cols, rows: BTreeSet::new() }
    }

    /// The 0-column table encoding `true` (one empty row) or `false`.
    fn boolean(b: bool) -> Table {
        let mut t = Table::empty(Vec::new());
        if b {
            t.rows.insert(Vec::new());
        }
        t
    }

    fn col_pos(&self, v: VarId) -> Option<usize> {
        self.cols.iter().position(|&c| c == v)
    }

    /// Reorders/extends this table to exactly `target` columns, padding
    /// missing columns with all values of `universe`.
    fn align_to(&self, target: &[VarId], universe: &[Value]) -> Table {
        let missing: Vec<VarId> =
            target.iter().copied().filter(|v| self.col_pos(*v).is_none()).collect();
        for c in &self.cols {
            assert!(target.contains(c), "align_to: target must be a superset");
        }
        let mut out = Table::empty(target.to_vec());
        // For each row, enumerate all paddings of the missing columns.
        let positions: Vec<Result<usize, usize>> = target
            .iter()
            .map(|v| {
                self.col_pos(*v)
                    .ok_or_else(|| missing.iter().position(|m| m == v).expect("missing"))
            })
            .collect();
        let mut pad = vec![Value::Named(0); missing.len()];
        for row in &self.rows {
            pad_rec(&positions, row, &mut pad, 0, universe, &mut out);
        }
        out
    }
}

fn pad_rec(
    positions: &[Result<usize, usize>],
    row: &[Value],
    pad: &mut Vec<Value>,
    i: usize,
    universe: &[Value],
    out: &mut Table,
) {
    if i == pad.len() {
        let new_row: Vec<Value> = positions
            .iter()
            .map(|p| match p {
                Ok(src) => row[*src],
                Err(mi) => pad[*mi],
            })
            .collect();
        out.rows.insert(new_row);
        return;
    }
    for &u in universe {
        pad[i] = u;
        pad_rec(positions, row, pad, i + 1, universe, out);
    }
}

/// Natural join of two tables on their shared columns.
fn join(a: &Table, b: &Table) -> Table {
    let shared: Vec<VarId> = a.cols.iter().copied().filter(|v| b.col_pos(*v).is_some()).collect();
    let b_extra: Vec<VarId> = b.cols.iter().copied().filter(|v| a.col_pos(*v).is_none()).collect();
    let mut cols = a.cols.clone();
    cols.extend(&b_extra);
    let mut out = Table::empty(cols);

    // Hash the smaller input on the shared key.
    let key_of = |t: &Table, row: &[Value]| -> Vec<Value> {
        shared.iter().map(|v| row[t.col_pos(*v).expect("shared col")]).collect()
    };
    let mut index: HashMap<Vec<Value>, Vec<&Vec<Value>>> = HashMap::new();
    for row in &b.rows {
        index.entry(key_of(b, row)).or_default().push(row);
    }
    let b_extra_pos: Vec<usize> =
        b_extra.iter().map(|v| b.col_pos(*v).expect("extra col")).collect();
    for row in &a.rows {
        if let Some(matches) = index.get(&key_of(a, row)) {
            for m in matches {
                let mut new_row = row.clone();
                new_row.extend(b_extra_pos.iter().map(|&p| m[p]));
                out.rows.insert(new_row);
            }
        }
    }
    out
}

/// Collects every constant mentioned in a formula.
fn formula_constants(f: &Fo, out: &mut BTreeSet<Value>) {
    match f {
        Fo::True | Fo::False => {}
        Fo::Atom(a) => out.extend(a.args.iter().filter_map(|t| t.as_const())),
        Fo::Eq(a, b) => {
            out.extend(a.as_const());
            out.extend(b.as_const());
        }
        Fo::Not(g) => formula_constants(g, out),
        Fo::And(xs) | Fo::Or(xs) => xs.iter().for_each(|x| formula_constants(x, out)),
        Fo::Implies(a, b) | Fo::Iff(a, b) => {
            formula_constants(a, out);
            formula_constants(b, out);
        }
        Fo::Exists(_, g) | Fo::Forall(_, g) => formula_constants(g, out),
    }
}

/// The evaluation universe for `q` on `d`: `adom(d)` plus `q`'s constants.
pub fn evaluation_universe(q: &FoQuery, d: &Instance) -> Vec<Value> {
    let mut u = d.adom();
    formula_constants(&q.formula, &mut u);
    u.into_iter().collect()
}

/// Evaluates an FO query on an instance under active-domain semantics.
///
/// The formula is first brought to negation normal form; conjunctions are
/// then evaluated by joining their positive parts (smallest table first)
/// and applying negative parts as *anti-join filters* whenever their free
/// variables are already bound — avoiding materialization of
/// `universe^k` complements, which is what makes the big generated
/// sentences (Theorem 5.1's `φ_M`, Theorem 5.4's `ψ`) tractable.
pub fn eval_fo(q: &FoQuery, d: &Instance) -> Relation {
    match eval_fo_budgeted(q, d, &Budget::unlimited()) {
        Ok(r) => r,
        Err(e) => panic!("eval_fo: {e}"),
    }
}

/// Budgeted [`eval_fo`]: one [`Budget::checkpoint`] per evaluated
/// subformula, tuples charged for every materialized table row. Bounds
/// the `universe^k` blow-ups that complementation and padding can cause
/// on big generated sentences.
pub fn eval_fo_budgeted(
    q: &FoQuery,
    d: &Instance,
    budget: &Budget,
) -> Result<Relation, Box<Exhausted>> {
    let universe = evaluation_universe(q, d);
    let core = q.formula.nnf();
    let table = eval_core(&core, d, &universe, budget)?;
    let aligned = table.align_to(&q.free, &universe);
    let mut out = Relation::new(q.free.len());
    for row in aligned.rows {
        out.insert(row);
    }
    Ok(out)
}

/// Budget hook shared by every [`eval_core`] return path.
fn charge_table(t: Table, budget: &Budget) -> Result<Table, Box<Exhausted>> {
    budget
        .charge_tuples(
            t.rows.len() as u64,
            &format_args!(
                "FO evaluation materialized a {}-column table of {} rows",
                t.cols.len(),
                t.rows.len()
            ),
        )
        .map_err(Box::new)?;
    Ok(t)
}

fn eval_core(
    f: &Fo,
    d: &Instance,
    universe: &[Value],
    budget: &Budget,
) -> Result<Table, Box<Exhausted>> {
    budget.checkpoint_with(&"evaluating FO subformulas bottom-up").map_err(Box::new)?;
    let result = match f {
        Fo::True => Table::boolean(true),
        Fo::False => Table::boolean(false),
        Fo::Atom(atom) => {
            // Columns: distinct variables in first-occurrence order.
            let mut cols: Vec<VarId> = Vec::new();
            for t in &atom.args {
                if let Term::Var(v) = t {
                    if !cols.contains(v) {
                        cols.push(*v);
                    }
                }
            }
            let mut out = Table::empty(cols);
            'tuples: for tuple in d.rel(atom.rel).iter() {
                let mut row = vec![None; out.cols.len()];
                for (term, &val) in atom.args.iter().zip(tuple.iter()) {
                    match term {
                        Term::Const(c) => {
                            if *c != val {
                                continue 'tuples;
                            }
                        }
                        Term::Var(v) => {
                            let pos = out.col_pos(*v).expect("collected");
                            match row[pos] {
                                Some(prev) if prev != val => continue 'tuples,
                                _ => row[pos] = Some(val),
                            }
                        }
                    }
                }
                out.rows.insert(row.into_iter().map(|v| v.expect("all cols bound")).collect());
            }
            out
        }
        Fo::Eq(a, b) => match (a, b) {
            (Term::Const(x), Term::Const(y)) => Table::boolean(x == y),
            (Term::Var(v), Term::Const(c)) | (Term::Const(c), Term::Var(v)) => {
                let mut t = Table::empty(vec![*v]);
                if universe.contains(c) {
                    t.rows.insert(vec![*c]);
                }
                t
            }
            (Term::Var(v), Term::Var(w)) if v == w => {
                let mut t = Table::empty(vec![*v]);
                for &u in universe {
                    t.rows.insert(vec![u]);
                }
                t
            }
            (Term::Var(v), Term::Var(w)) => {
                let mut t = Table::empty(vec![*v, *w]);
                for &u in universe {
                    t.rows.insert(vec![u, u]);
                }
                t
            }
        },
        Fo::Not(g) => {
            let inner = eval_core(g, d, universe, budget)?;
            // Complement against universe^cols.
            let full = Table::boolean(true).align_to(&inner.cols, universe);
            Table {
                cols: inner.cols.clone(),
                rows: full.rows.difference(&inner.rows).cloned().collect(),
            }
        }
        Fo::And(xs) => {
            let all_cols = || {
                let mut cols: Vec<VarId> = Vec::new();
                for x in xs {
                    for v in x.free_vars() {
                        if !cols.contains(&v) {
                            cols.push(v);
                        }
                    }
                }
                cols
            };
            // Partition: negated conjuncts become anti-join filters when
            // their variables are bound by the positive part.
            let mut negatives: Vec<&Fo> = Vec::new();
            let mut tables: Vec<Table> = Vec::new();
            for x in xs {
                match x {
                    Fo::Not(g) => negatives.push(g),
                    other => tables.push(eval_core(other, d, universe, budget)?),
                }
            }
            // Greedy join order: start from the smallest table; repeatedly
            // join the table that shares a column with the accumulator
            // (preferring the smallest), falling back to a cross product.
            tables.sort_by_key(|t| t.rows.len());
            let mut acc = Table::boolean(true);
            let mut remaining = tables;
            while !remaining.is_empty() {
                let shared_idx =
                    remaining.iter().position(|t| t.cols.iter().any(|c| acc.col_pos(*c).is_some()));
                let next = remaining.remove(shared_idx.unwrap_or(0));
                acc = join(&acc, &next);
                if acc.rows.is_empty() {
                    return charge_table(Table::empty(all_cols()), budget);
                }
            }
            // Apply the negative conjuncts.
            for g in negatives {
                let g_vars: Vec<VarId> = g.free_vars().into_iter().collect();
                if g_vars.iter().all(|v| acc.col_pos(*v).is_some()) {
                    // Anti-join: drop accumulator rows matching g.
                    let g_table = eval_core(g, d, universe, budget)?;
                    let proj: Vec<usize> =
                        g_table.cols.iter().map(|v| acc.col_pos(*v).expect("checked")).collect();
                    acc.rows.retain(|row| {
                        let key: Vec<Value> = proj.iter().map(|&p| row[p]).collect();
                        !g_table.rows.contains(&key)
                    });
                } else {
                    // Rare: a negated conjunct with unbound variables —
                    // fall back to joining its complement.
                    acc =
                        join(&acc, &eval_core(&Fo::Not(Box::new(g.clone())), d, universe, budget)?);
                }
                if acc.rows.is_empty() {
                    return charge_table(Table::empty(all_cols()), budget);
                }
            }
            acc
        }
        Fo::Or(xs) => {
            // Align all disjuncts to the union of their columns.
            let mut cols: Vec<VarId> = Vec::new();
            for x in xs {
                for v in x.free_vars() {
                    if !cols.contains(&v) {
                        cols.push(v);
                    }
                }
            }
            let mut out = Table::empty(cols.clone());
            for x in xs {
                let t = eval_core(x, d, universe, budget)?.align_to(&cols, universe);
                out.rows.extend(t.rows);
            }
            out
        }
        Fo::Exists(vs, g) => {
            let inner = eval_core(g, d, universe, budget)?;
            // Extend with any quantified variable not present, then project
            // all of `vs` out. (Extension matters for vacuous quantification
            // over an empty universe.)
            let mut extended_cols = inner.cols.clone();
            for v in vs {
                if !extended_cols.contains(v) {
                    extended_cols.push(*v);
                }
            }
            let extended = inner.align_to(&extended_cols, universe);
            let keep: Vec<VarId> =
                extended_cols.iter().copied().filter(|v| !vs.contains(v)).collect();
            let keep_pos: Vec<usize> =
                keep.iter().map(|v| extended.col_pos(*v).expect("kept col")).collect();
            let mut out = Table::empty(keep);
            for row in &extended.rows {
                out.rows.insert(keep_pos.iter().map(|&p| row[p]).collect());
            }
            out
        }
        Fo::Forall(vs, g) => {
            // ∀vs.g ≡ ¬∃vs.¬g, but evaluated so that the negation inside
            // the ∃ is pushed to the leaves first: the existential body
            // then becomes a conjunction handled by the filtering And
            // evaluator, and the final complement is only over the *free*
            // variables of the ∀-formula (usually few or none).
            let negated_body = Fo::not((**g).clone()).nnf();
            let ex = Fo::exists(vs.clone(), negated_body);
            // Restrict to the formula's own free variables (exists
            // projection can leave extra columns ordering differences).
            let inner = eval_core(&ex, d, universe, budget)?;
            let full = Table::boolean(true).align_to(&inner.cols, universe);
            Table {
                cols: inner.cols.clone(),
                rows: full.rows.difference(&inner.rows).cloned().collect(),
            }
        }
        Fo::Implies(..) | Fo::Iff(..) => {
            unreachable!("eval_core expects an NNF formula")
        }
    };
    charge_table(result, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqd_instance::{named, DomainNames, Schema};
    use vqd_query::{parse_query, QueryExpr};

    fn schema() -> Schema {
        Schema::new([("E", 2), ("P", 1)])
    }

    fn instance(edges: &[(u32, u32)], ps: &[u32]) -> Instance {
        let mut d = Instance::empty(&schema());
        for &(a, b) in edges {
            d.insert_named("E", vec![named(a), named(b)]);
        }
        for &p in ps {
            d.insert_named("P", vec![named(p)]);
        }
        d
    }

    fn fo(src: &str) -> FoQuery {
        let mut names = DomainNames::new();
        match parse_query(&schema(), &mut names, src).unwrap() {
            QueryExpr::Fo(f) => f,
            other => panic!("expected FO, got {other:?}"),
        }
    }

    #[test]
    fn atom_evaluation() {
        let d = instance(&[(0, 1), (1, 2)], &[]);
        let r = eval_fo(&fo("Q(x,y) := E(x,y)."), &d);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn negation_is_active_domain_complement() {
        let d = instance(&[(0, 1)], &[]);
        let r = eval_fo(&fo("Q(x,y) := ~E(x,y)."), &d);
        // Universe {0,1}: 4 pairs minus 1 edge.
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn universal_quantifier() {
        // "x such that every y with E(x,y) satisfies P(y)".
        let d = instance(&[(0, 1), (0, 2), (3, 1)], &[1, 2]);
        let r = eval_fo(&fo("Q(x) := forall y. (E(x,y) -> P(y))."), &d);
        // 0: successors {1,2} ⊆ P ✓; 3: successor 1 ∈ P ✓;
        // 1, 2: no successors, vacuously ✓.
        assert_eq!(r.len(), 4);
        // Add a bad edge.
        let d2 = instance(&[(0, 1), (0, 3)], &[1]);
        let r2 = eval_fo(&fo("Q(x) := forall y. (E(x,y) -> P(y))."), &d2);
        assert!(!r2.contains(&[named(0)]));
        assert!(r2.contains(&[named(1)]));
    }

    #[test]
    fn nested_quantifiers() {
        // Nodes with an out-neighbour that has an out-neighbour.
        let d = instance(&[(0, 1), (1, 2)], &[]);
        let r = eval_fo(&fo("Q(x) := exists y. (E(x,y) & exists z. E(y,z))."), &d);
        assert_eq!(r.len(), 1);
        assert!(r.contains(&[named(0)]));
    }

    #[test]
    fn equality_and_inequality() {
        let d = instance(&[(0, 0), (0, 1)], &[]);
        let refl = eval_fo(&fo("Q(x) := E(x,x)."), &d);
        assert_eq!(refl.len(), 1);
        let neq = eval_fo(&fo("Q(x,y) := E(x,y) & x != y."), &d);
        assert_eq!(neq.len(), 1);
        assert!(neq.contains(&[named(0), named(1)]));
    }

    #[test]
    fn boolean_sentences() {
        let d = instance(&[(0, 1)], &[]);
        assert!(eval_fo(&fo("Q() := exists x y. E(x,y)."), &d).truth());
        assert!(!eval_fo(&fo("Q() := exists x. P(x)."), &d).truth());
        assert!(eval_fo(&fo("Q() := forall x. (P(x) -> false)."), &d).truth());
    }

    #[test]
    fn empty_instance_semantics() {
        let d = instance(&[], &[]);
        // Over an empty universe ∀ is true, ∃ is false.
        assert!(eval_fo(&fo("Q() := forall x. P(x)."), &d).truth());
        assert!(!eval_fo(&fo("Q() := exists x. (P(x) | ~P(x))."), &d).truth());
    }

    #[test]
    fn free_variable_padding() {
        // Q(x, y) := P(x): y ranges over the whole universe.
        let d = instance(&[(0, 1)], &[0]);
        let r = eval_fo(&fo("Q(x,y) := P(x)."), &d);
        assert_eq!(r.len(), 2); // (0,0), (0,1)
    }

    #[test]
    fn implication_and_iff() {
        let d = instance(&[(0, 1)], &[0, 1]);
        let r = eval_fo(&fo("Q(x) := P(x) <-> exists y. E(x,y)."), &d);
        // 0: P ✓, has edge ✓ → true; 1: P ✓, no edge → false.
        assert!(r.contains(&[named(0)]));
        assert!(!r.contains(&[named(1)]));
    }

    #[test]
    fn matches_cq_semantics_on_conjunctive_formulas() {
        use crate::cq_eval::eval_cq;
        use vqd_query::cq_to_fo;
        let d = instance(&[(0, 1), (1, 2), (2, 0), (1, 1)], &[1, 2]);
        let mut names = DomainNames::new();
        for src in [
            "Q(x,y) :- E(x,z), E(z,y).",
            "Q(x) :- E(x,y), P(y).",
            "Q() :- E(x,x), P(x).",
            "Q(x) :- E(x,y), E(y,x), x != y.",
        ] {
            let cq = parse_query(&schema(), &mut names, src).unwrap().as_cq().unwrap().clone();
            let via_cq = eval_cq(&cq, &d);
            let via_fo = eval_fo(&cq_to_fo(&cq), &d);
            assert_eq!(via_cq, via_fo, "mismatch for {src}");
        }
    }

    #[test]
    fn repeated_vars_in_atom() {
        let d = instance(&[(0, 0), (0, 1)], &[]);
        let r = eval_fo(&fo("Q(x) := E(x,x)."), &d);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn constant_outside_adom_enters_universe() {
        // The constant c9 appears only in the query; x = c9 must still hold.
        let s = schema();
        let mut pool = vqd_query::VarPool::new();
        let x = pool.var("x");
        let q = FoQuery::new(
            &s,
            vec![x],
            Fo::Eq(Term::Var(x), Term::Const(named(9))),
            pool.into_names(),
        );
        let d = instance(&[(0, 1)], &[]);
        let r = eval_fo(&q, &d);
        assert_eq!(r.len(), 1);
        assert!(r.contains(&[named(9)]));
    }
}

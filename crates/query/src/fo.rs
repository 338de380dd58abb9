//! First-order logic over relational schemas.
//!
//! The paper's strongest language (Figure 1). We provide the full syntax
//! (including `→`, `↔`, `∀` sugar), a desugaring into the
//! `{Atom, =, ¬, ∧, ∨, ∃}` core, negation normal form, and the syntactic
//! classifications the theorems key on:
//!
//! * **∃FO** — existential FO: in NNF, no universal quantifier (Theorem
//!   5.2 requires views in this class);
//! * **positive existential** — additionally negation-free; such formulas
//!   are closed under extensions, the property Lemma 5.3's proof uses.
//!
//! Semantics (active-domain, see `vqd-eval`) follow the standard finite
//! model theory conventions of the paper's references [2, 15].

use crate::cq::{Cq, Ucq};
use crate::term::{Atom, Term, VarId};
use std::collections::BTreeSet;
use vqd_instance::Schema;

/// A first-order formula.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Fo {
    /// The constant true.
    True,
    /// The constant false.
    False,
    /// A relational atom.
    Atom(Atom),
    /// Term equality.
    Eq(Term, Term),
    /// Negation.
    Not(Box<Fo>),
    /// Conjunction (n-ary; empty = true).
    And(Vec<Fo>),
    /// Disjunction (n-ary; empty = false).
    Or(Vec<Fo>),
    /// Implication (sugar).
    Implies(Box<Fo>, Box<Fo>),
    /// Bi-implication (sugar).
    Iff(Box<Fo>, Box<Fo>),
    /// Existential quantification over a block of variables.
    Exists(Vec<VarId>, Box<Fo>),
    /// Universal quantification over a block of variables (sugar:
    /// `∀x φ ≡ ¬∃x ¬φ`).
    Forall(Vec<VarId>, Box<Fo>),
}

impl Fo {
    /// Conjunction smart constructor (flattens and drops `true`).
    pub fn and(parts: impl IntoIterator<Item = Fo>) -> Fo {
        let mut out = Vec::new();
        for p in parts {
            match p {
                Fo::True => {}
                Fo::And(xs) => out.extend(xs),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Fo::True,
            1 => out.pop().expect("len checked"),
            _ => Fo::And(out),
        }
    }

    /// Disjunction smart constructor (flattens and drops `false`).
    pub fn or(parts: impl IntoIterator<Item = Fo>) -> Fo {
        let mut out = Vec::new();
        for p in parts {
            match p {
                Fo::False => {}
                Fo::Or(xs) => out.extend(xs),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Fo::False,
            1 => out.pop().expect("len checked"),
            _ => Fo::Or(out),
        }
    }

    /// Negation smart constructor (collapses double negation).
    #[allow(clippy::should_implement_trait)]
    pub fn not(f: Fo) -> Fo {
        match f {
            Fo::Not(inner) => *inner,
            Fo::True => Fo::False,
            Fo::False => Fo::True,
            other => Fo::Not(Box::new(other)),
        }
    }

    /// `∃ vars . f` (no-op for an empty block).
    pub fn exists(vars: Vec<VarId>, f: Fo) -> Fo {
        if vars.is_empty() {
            f
        } else {
            Fo::Exists(vars, Box::new(f))
        }
    }

    /// `∀ vars . f` (no-op for an empty block).
    pub fn forall(vars: Vec<VarId>, f: Fo) -> Fo {
        if vars.is_empty() {
            f
        } else {
            Fo::Forall(vars, Box::new(f))
        }
    }

    /// `a → b`.
    pub fn implies(a: Fo, b: Fo) -> Fo {
        Fo::Implies(Box::new(a), Box::new(b))
    }

    /// `a ↔ b`.
    pub fn iff(a: Fo, b: Fo) -> Fo {
        Fo::Iff(Box::new(a), Box::new(b))
    }

    /// Free variables of the formula.
    pub fn free_vars(&self) -> BTreeSet<VarId> {
        fn go(f: &Fo, bound: &mut Vec<VarId>, out: &mut BTreeSet<VarId>) {
            match f {
                Fo::True | Fo::False => {}
                Fo::Atom(a) => {
                    for v in a.vars() {
                        if !bound.contains(&v) {
                            out.insert(v);
                        }
                    }
                }
                Fo::Eq(a, b) => {
                    for t in [a, b] {
                        if let Some(v) = t.as_var() {
                            if !bound.contains(&v) {
                                out.insert(v);
                            }
                        }
                    }
                }
                Fo::Not(inner) => go(inner, bound, out),
                Fo::And(xs) | Fo::Or(xs) => {
                    for x in xs {
                        go(x, bound, out);
                    }
                }
                Fo::Implies(a, b) | Fo::Iff(a, b) => {
                    go(a, bound, out);
                    go(b, bound, out);
                }
                Fo::Exists(vs, inner) | Fo::Forall(vs, inner) => {
                    let n = bound.len();
                    bound.extend(vs);
                    go(inner, bound, out);
                    bound.truncate(n);
                }
            }
        }
        let mut out = BTreeSet::new();
        go(self, &mut Vec::new(), &mut out);
        out
    }

    /// Desugars `→`, `↔`, `∀` into the `{¬, ∧, ∨, ∃}` core.
    pub fn desugar(&self) -> Fo {
        match self {
            Fo::True => Fo::True,
            Fo::False => Fo::False,
            Fo::Atom(a) => Fo::Atom(a.clone()),
            Fo::Eq(a, b) => Fo::Eq(*a, *b),
            Fo::Not(f) => Fo::not(f.desugar()),
            Fo::And(xs) => Fo::and(xs.iter().map(Fo::desugar)),
            Fo::Or(xs) => Fo::or(xs.iter().map(Fo::desugar)),
            Fo::Implies(a, b) => Fo::or([Fo::not(a.desugar()), b.desugar()]),
            Fo::Iff(a, b) => {
                let (da, db) = (a.desugar(), b.desugar());
                Fo::and([Fo::or([Fo::not(da.clone()), db.clone()]), Fo::or([Fo::not(db), da])])
            }
            Fo::Exists(vs, f) => Fo::exists(vs.clone(), f.desugar()),
            Fo::Forall(vs, f) => Fo::not(Fo::exists(vs.clone(), Fo::not(f.desugar()))),
        }
    }

    /// Negation normal form of the desugared formula: negations pushed to
    /// atoms, `∀` re-introduced as a first-class quantifier.
    pub fn nnf(&self) -> Fo {
        fn pos(f: &Fo) -> Fo {
            match f {
                Fo::True => Fo::True,
                Fo::False => Fo::False,
                Fo::Atom(a) => Fo::Atom(a.clone()),
                Fo::Eq(a, b) => Fo::Eq(*a, *b),
                Fo::Not(g) => neg(g),
                Fo::And(xs) => Fo::and(xs.iter().map(pos)),
                Fo::Or(xs) => Fo::or(xs.iter().map(pos)),
                Fo::Exists(vs, g) => Fo::exists(vs.clone(), pos(g)),
                Fo::Forall(vs, g) => Fo::forall(vs.clone(), pos(g)),
                Fo::Implies(..) | Fo::Iff(..) => unreachable!("desugared"),
            }
        }
        fn neg(f: &Fo) -> Fo {
            match f {
                Fo::True => Fo::False,
                Fo::False => Fo::True,
                Fo::Atom(a) => Fo::Not(Box::new(Fo::Atom(a.clone()))),
                Fo::Eq(a, b) => Fo::Not(Box::new(Fo::Eq(*a, *b))),
                Fo::Not(g) => pos(g),
                Fo::And(xs) => Fo::or(xs.iter().map(neg)),
                Fo::Or(xs) => Fo::and(xs.iter().map(neg)),
                Fo::Exists(vs, g) => Fo::forall(vs.clone(), neg(g)),
                Fo::Forall(vs, g) => Fo::exists(vs.clone(), neg(g)),
                Fo::Implies(..) | Fo::Iff(..) => unreachable!("desugared"),
            }
        }
        pos(&self.desugar())
    }

    /// **∃FO** test: the NNF contains no universal quantifier.
    pub fn is_existential(&self) -> bool {
        fn no_forall(f: &Fo) -> bool {
            match f {
                Fo::True | Fo::False | Fo::Atom(_) | Fo::Eq(..) => true,
                Fo::Not(g) => no_forall(g),
                Fo::And(xs) | Fo::Or(xs) => xs.iter().all(no_forall),
                Fo::Exists(_, g) => no_forall(g),
                Fo::Forall(..) => false,
                Fo::Implies(..) | Fo::Iff(..) => unreachable!("nnf"),
            }
        }
        no_forall(&self.nnf())
    }

    /// Positive-existential test: NNF has neither `∀` nor any negation
    /// (such queries are monotone and closed under extensions).
    pub fn is_positive_existential(&self) -> bool {
        fn ok(f: &Fo) -> bool {
            match f {
                Fo::True | Fo::False | Fo::Atom(_) | Fo::Eq(..) => true,
                Fo::Not(_) | Fo::Forall(..) => false,
                Fo::And(xs) | Fo::Or(xs) => xs.iter().all(ok),
                Fo::Exists(_, g) => ok(g),
                Fo::Implies(..) | Fo::Iff(..) => unreachable!("nnf"),
            }
        }
        ok(&self.nnf())
    }

    /// Maximum number of distinct variables along any root-to-leaf path
    /// (the `k` of Lemma 5.3 when the formula is prenex-existential; for
    /// general formulas this upper-bounds it).
    pub fn quantifier_width(&self) -> usize {
        fn go(f: &Fo, depth: usize) -> usize {
            match f {
                Fo::True | Fo::False | Fo::Atom(_) | Fo::Eq(..) => depth,
                Fo::Not(g) => go(g, depth),
                Fo::And(xs) | Fo::Or(xs) => xs.iter().map(|x| go(x, depth)).max().unwrap_or(depth),
                Fo::Implies(a, b) | Fo::Iff(a, b) => go(a, depth).max(go(b, depth)),
                Fo::Exists(vs, g) | Fo::Forall(vs, g) => go(g, depth + vs.len()),
            }
        }
        go(self, self.free_vars().len())
    }

    /// Applies a variable substitution to *free* occurrences.
    ///
    /// The caller must ensure no capture happens (our builders always use
    /// globally fresh variable ids, so capture cannot occur in practice).
    pub fn subst(&self, f: &impl Fn(VarId) -> Term) -> Fo {
        self.subst_dyn(f)
    }

    fn subst_dyn(&self, f: &dyn Fn(VarId) -> Term) -> Fo {
        let tf = |t: &Term| match t {
            Term::Var(v) => f(*v),
            c => *c,
        };
        match self {
            Fo::True => Fo::True,
            Fo::False => Fo::False,
            Fo::Atom(a) => Fo::Atom(Atom { rel: a.rel, args: a.args.iter().map(tf).collect() }),
            Fo::Eq(a, b) => Fo::Eq(tf(a), tf(b)),
            Fo::Not(g) => Fo::Not(Box::new(g.subst_dyn(f))),
            Fo::And(xs) => Fo::And(xs.iter().map(|x| x.subst_dyn(f)).collect()),
            Fo::Or(xs) => Fo::Or(xs.iter().map(|x| x.subst_dyn(f)).collect()),
            Fo::Implies(a, b) => Fo::Implies(Box::new(a.subst_dyn(f)), Box::new(b.subst_dyn(f))),
            Fo::Iff(a, b) => Fo::Iff(Box::new(a.subst_dyn(f)), Box::new(b.subst_dyn(f))),
            Fo::Exists(vs, g) => {
                let shield = move |v: VarId| if vs.contains(&v) { Term::Var(v) } else { f(v) };
                Fo::Exists(vs.clone(), Box::new(g.subst_dyn(&shield)))
            }
            Fo::Forall(vs, g) => {
                let shield = move |v: VarId| if vs.contains(&v) { Term::Var(v) } else { f(v) };
                Fo::Forall(vs.clone(), Box::new(g.subst_dyn(&shield)))
            }
        }
    }
}

/// A first-order query: a formula with a designated free-variable tuple.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct FoQuery {
    /// Schema the atoms are resolved against.
    pub schema: Schema,
    /// The answer tuple (ordering of the free variables).
    pub free: Vec<VarId>,
    /// The formula; its free variables must be ⊆ `free`.
    pub formula: Fo,
    /// Display names for variables, indexed by [`VarId`].
    pub var_names: Vec<String>,
}

impl FoQuery {
    /// Builds and validates an FO query.
    ///
    /// # Panics
    /// Panics if the formula has free variables not listed in `free`.
    pub fn new(schema: &Schema, free: Vec<VarId>, formula: Fo, var_names: Vec<String>) -> Self {
        let fv = formula.free_vars();
        for v in &fv {
            assert!(free.contains(v), "formula has undeclared free variable {v}");
        }
        FoQuery { schema: schema.clone(), free, formula, var_names }
    }

    /// Arity of the answer relation.
    pub fn arity(&self) -> usize {
        self.free.len()
    }

    /// Whether this query is a sentence (Boolean).
    pub fn is_boolean(&self) -> bool {
        self.free.is_empty()
    }

    /// Display name of a variable.
    pub fn var_name(&self, v: VarId) -> String {
        self.var_names.get(v.idx()).cloned().unwrap_or_else(|| format!("v{}", v.0))
    }
}

/// A tiny helper for building FO formulas with named variables.
#[derive(Clone, Debug, Default)]
pub struct VarPool {
    names: Vec<String>,
}

impl VarPool {
    /// Empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a fresh variable.
    pub fn var(&mut self, name: &str) -> VarId {
        let id = VarId(self.names.len() as u32);
        self.names.push(name.to_owned());
        id
    }

    /// Allocates `n` fresh variables sharing a name stem.
    pub fn vars(&mut self, stem: &str, n: usize) -> Vec<VarId> {
        (0..n).map(|i| self.var(&format!("{stem}{i}"))).collect()
    }

    /// The accumulated name table (to store in an [`FoQuery`]).
    pub fn into_names(self) -> Vec<String> {
        self.names
    }

    /// A copy of the accumulated name table.
    pub fn names(&self) -> Vec<String> {
        self.names.clone()
    }
}

/// α-renames a query so every quantifier binds a *fresh* variable (and
/// fresh display name): shadowing disappears, which is what the
/// pretty-printer's round-trip guarantee requires.
pub fn alpha_rename(q: &FoQuery) -> FoQuery {
    let mut pool = VarPool::new();
    // Free variables keep their identity (fresh ids, but allocated first
    // and in order, so the head stays aligned).
    let mut env: Vec<(VarId, VarId)> = Vec::new();
    let mut free = Vec::with_capacity(q.free.len());
    for (i, v) in q.free.iter().enumerate() {
        let nv = pool.var(&format!("{}_{i}", q.var_name(*v)));
        env.push((*v, nv));
        free.push(nv);
    }
    fn go(f: &Fo, env: &mut Vec<(VarId, VarId)>, pool: &mut VarPool, q: &FoQuery) -> Fo {
        let lookup = |v: VarId, env: &[(VarId, VarId)]| -> Term {
            env.iter()
                .rev()
                .find(|(from, _)| *from == v)
                .map(|(_, to)| Term::Var(*to))
                .unwrap_or(Term::Var(v))
        };
        let tr = |t: &Term, env: &[(VarId, VarId)]| match t {
            Term::Var(v) => lookup(*v, env),
            c => *c,
        };
        match f {
            Fo::True => Fo::True,
            Fo::False => Fo::False,
            Fo::Atom(a) => {
                Fo::Atom(Atom { rel: a.rel, args: a.args.iter().map(|t| tr(t, env)).collect() })
            }
            Fo::Eq(a, b) => Fo::Eq(tr(a, env), tr(b, env)),
            Fo::Not(g) => Fo::Not(Box::new(go(g, env, pool, q))),
            Fo::And(xs) => Fo::And(xs.iter().map(|x| go(x, env, pool, q)).collect()),
            Fo::Or(xs) => Fo::Or(xs.iter().map(|x| go(x, env, pool, q)).collect()),
            Fo::Implies(a, b) => {
                Fo::Implies(Box::new(go(a, env, pool, q)), Box::new(go(b, env, pool, q)))
            }
            Fo::Iff(a, b) => Fo::Iff(Box::new(go(a, env, pool, q)), Box::new(go(b, env, pool, q))),
            Fo::Exists(vs, g) | Fo::Forall(vs, g) => {
                let n = env.len();
                let fresh: Vec<VarId> = vs
                    .iter()
                    .map(|v| {
                        let nv = pool.var(&format!("{}_{}", q.var_name(*v), pool.names().len()));
                        env.push((*v, nv));
                        nv
                    })
                    .collect();
                let inner = go(g, env, pool, q);
                env.truncate(n);
                if matches!(f, Fo::Exists(..)) {
                    Fo::Exists(fresh, Box::new(inner))
                } else {
                    Fo::Forall(fresh, Box::new(inner))
                }
            }
        }
    }
    let formula = go(&q.formula, &mut env, &mut pool, q);
    FoQuery { schema: q.schema.clone(), free, formula, var_names: pool.into_names() }
}

/// Converts a conjunctive query into the equivalent FO query
/// `∃ ȳ (atoms ∧ eqs ∧ ≠s ∧ ¬negatoms)`.
pub fn cq_to_fo(q: &Cq) -> FoQuery {
    let head_vars: Vec<VarId> = q.head.iter().filter_map(|t| t.as_var()).collect();
    let mut free: Vec<VarId> = Vec::new();
    for v in &head_vars {
        if !free.contains(v) {
            free.push(*v);
        }
    }
    let exist: Vec<VarId> = q.all_vars().into_iter().filter(|v| !free.contains(v)).collect();
    let mut parts: Vec<Fo> = q.atoms.iter().cloned().map(Fo::Atom).collect();
    parts.extend(q.eqs.iter().map(|(a, b)| Fo::Eq(*a, *b)));
    parts.extend(q.neqs.iter().map(|(a, b)| Fo::not(Fo::Eq(*a, *b))));
    parts.extend(q.neg_atoms.iter().cloned().map(|a| Fo::not(Fo::Atom(a))));
    let body = Fo::and(parts);
    FoQuery {
        schema: q.schema.clone(),
        free,
        formula: Fo::exists(exist, body),
        var_names: q.var_names.clone(),
    }
}

/// Converts a UCQ to FO. All disjuncts are rebased into one variable space.
///
/// Precondition: every disjunct's head is a tuple of (not necessarily
/// distinct) variables with the same pattern of repeats — in practice we
/// require plain distinct-variable heads shared across disjuncts, which is
/// what every construction in this codebase produces. Disjuncts with
/// constants in the head are rejected.
pub fn ucq_to_fo(u: &Ucq) -> FoQuery {
    let arity = u.arity();
    let mut pool = VarPool::new();
    let free = pool.vars("x", arity);
    let mut parts = Vec::new();
    for d in &u.disjuncts {
        let fo = cq_to_fo(d);
        assert_eq!(fo.free.len(), arity, "ucq_to_fo requires distinct-variable heads");
        // Rebase the disjunct: shift its variables past the pool, then map
        // its free variables onto the shared ones.
        let shift = pool.names.len() as u32;
        let shifted = shift_vars(&fo.formula, shift);
        for (i, name) in fo.var_names.iter().enumerate() {
            let _ = i;
            pool.names.push(format!("{name}'"));
        }
        let remap: Vec<(VarId, VarId)> =
            fo.free.iter().enumerate().map(|(i, v)| (VarId(v.0 + shift), free[i])).collect();
        let mapped = shifted.subst(&|v| {
            remap.iter().find(|(from, _)| *from == v).map_or(Term::Var(v), |(_, to)| Term::Var(*to))
        });
        parts.push(mapped);
    }
    FoQuery {
        schema: u.schema().clone(),
        free,
        formula: Fo::or(parts),
        var_names: pool.into_names(),
    }
}

fn shift_vars(f: &Fo, by: u32) -> Fo {
    match f {
        Fo::True => Fo::True,
        Fo::False => Fo::False,
        Fo::Atom(a) => Fo::Atom(Atom {
            rel: a.rel,
            args: a
                .args
                .iter()
                .map(|t| match t {
                    Term::Var(v) => Term::Var(VarId(v.0 + by)),
                    c => *c,
                })
                .collect(),
        }),
        Fo::Eq(a, b) => {
            let sh = |t: &Term| match t {
                Term::Var(v) => Term::Var(VarId(v.0 + by)),
                c => *c,
            };
            Fo::Eq(sh(a), sh(b))
        }
        Fo::Not(g) => Fo::Not(Box::new(shift_vars(g, by))),
        Fo::And(xs) => Fo::And(xs.iter().map(|x| shift_vars(x, by)).collect()),
        Fo::Or(xs) => Fo::Or(xs.iter().map(|x| shift_vars(x, by)).collect()),
        Fo::Implies(a, b) => Fo::Implies(Box::new(shift_vars(a, by)), Box::new(shift_vars(b, by))),
        Fo::Iff(a, b) => Fo::Iff(Box::new(shift_vars(a, by)), Box::new(shift_vars(b, by))),
        Fo::Exists(vs, g) => {
            Fo::Exists(vs.iter().map(|v| VarId(v.0 + by)).collect(), Box::new(shift_vars(g, by)))
        }
        Fo::Forall(vs, g) => {
            Fo::Forall(vs.iter().map(|v| VarId(v.0 + by)).collect(), Box::new(shift_vars(g, by)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqd_instance::named;

    fn schema() -> Schema {
        Schema::new([("R", 2), ("P", 1)])
    }

    #[test]
    fn smart_constructors_simplify() {
        assert_eq!(Fo::and([]), Fo::True);
        assert_eq!(Fo::or([]), Fo::False);
        assert_eq!(Fo::and([Fo::True, Fo::True]), Fo::True);
        assert_eq!(Fo::not(Fo::not(Fo::True)), Fo::True);
        let a = Fo::Eq(Term::Const(named(0)), Term::Const(named(0)));
        assert_eq!(Fo::and([a.clone()]), a);
    }

    #[test]
    fn free_vars_respect_binding() {
        let s = schema();
        let mut p = VarPool::new();
        let x = p.var("x");
        let y = p.var("y");
        let r = s.rel("R");
        let f = Fo::exists(vec![y], Fo::Atom(Atom::new(r, vec![x.into(), y.into()])));
        let fv = f.free_vars();
        assert!(fv.contains(&x));
        assert!(!fv.contains(&y));
    }

    #[test]
    fn desugar_removes_sugar() {
        let mut p = VarPool::new();
        let x = p.var("x");
        let s = schema();
        let px = Fo::Atom(Atom::new(s.rel("P"), vec![x.into()]));
        let f = Fo::forall(vec![x], Fo::implies(px.clone(), px.clone()));
        let d = f.desugar();
        fn sugar_free(f: &Fo) -> bool {
            match f {
                Fo::Implies(..) | Fo::Iff(..) | Fo::Forall(..) => false,
                Fo::Not(g) | Fo::Exists(_, g) => sugar_free(g),
                Fo::And(xs) | Fo::Or(xs) => xs.iter().all(sugar_free),
                _ => true,
            }
        }
        assert!(sugar_free(&d));
    }

    #[test]
    fn nnf_pushes_negation() {
        let mut p = VarPool::new();
        let x = p.var("x");
        let s = schema();
        let px = Fo::Atom(Atom::new(s.rel("P"), vec![x.into()]));
        let f = Fo::not(Fo::exists(vec![x], px.clone()));
        let n = f.nnf();
        // ¬∃x P(x)  ⇒  ∀x ¬P(x)
        match n {
            Fo::Forall(vs, inner) => {
                assert_eq!(vs, vec![x]);
                assert!(matches!(*inner, Fo::Not(_)));
            }
            other => panic!("unexpected nnf: {other:?}"),
        }
    }

    #[test]
    fn existential_classification() {
        let mut p = VarPool::new();
        let x = p.var("x");
        let s = schema();
        let px = Fo::Atom(Atom::new(s.rel("P"), vec![x.into()]));
        let ex = Fo::exists(vec![x], px.clone());
        assert!(ex.is_existential());
        assert!(ex.is_positive_existential());
        let exneg = Fo::exists(vec![x], Fo::not(px.clone()));
        assert!(exneg.is_existential());
        assert!(!exneg.is_positive_existential());
        let fa = Fo::forall(vec![x], px.clone());
        assert!(!fa.is_existential());
        // ¬∀ is existential again.
        assert!(Fo::not(fa).is_existential());
    }

    #[test]
    fn quantifier_width_counts_nesting() {
        let mut p = VarPool::new();
        let x = p.var("x");
        let y = p.var("y");
        let s = schema();
        let rxy = Fo::Atom(Atom::new(s.rel("R"), vec![x.into(), y.into()]));
        let f = Fo::exists(vec![x], Fo::exists(vec![y], rxy));
        assert_eq!(f.quantifier_width(), 2);
    }

    #[test]
    fn cq_to_fo_roundtrip_shape() {
        let s = schema();
        let mut q = Cq::new(&s);
        let x = q.var("x");
        let z = q.var("z");
        q.head = vec![x.into()];
        q.atom("R", vec![x.into(), z.into()]);
        let fo = cq_to_fo(&q);
        assert_eq!(fo.free, vec![x]);
        assert!(fo.formula.is_positive_existential());
        assert_eq!(fo.formula.free_vars().into_iter().collect::<Vec<_>>(), vec![x]);
    }

    #[test]
    fn ucq_to_fo_merges_heads() {
        let s = schema();
        let mk = |rel: &str| {
            let mut q = Cq::new(&s);
            let x = q.var("x");
            q.head = vec![x.into()];
            match rel {
                "P" => {
                    q.atom("P", vec![x.into()]);
                }
                _ => {
                    let z = q.var("z");
                    q.atom("R", vec![x.into(), z.into()]);
                }
            }
            q
        };
        let u = Ucq::new(vec![mk("P"), mk("R")]);
        let fo = ucq_to_fo(&u);
        assert_eq!(fo.arity(), 1);
        assert!(fo.formula.is_positive_existential());
        assert_eq!(fo.formula.free_vars().len(), 1);
    }

    #[test]
    #[should_panic(expected = "undeclared free variable")]
    fn foquery_validates_free_vars() {
        let s = schema();
        let mut p = VarPool::new();
        let x = p.var("x");
        let px = Fo::Atom(Atom::new(s.rel("P"), vec![x.into()]));
        FoQuery::new(&s, vec![], px, p.into_names());
    }

    #[test]
    fn subst_avoids_bound_vars() {
        let s = schema();
        let mut p = VarPool::new();
        let x = p.var("x");
        let y = p.var("y");
        let rxy = Fo::Atom(Atom::new(s.rel("R"), vec![x.into(), y.into()]));
        let f = Fo::exists(vec![y], rxy);
        // Substituting y must not touch the bound occurrence.
        let g = f.subst(&|v| {
            if v == y {
                Term::Const(named(9))
            } else {
                Term::Var(v)
            }
        });
        assert_eq!(g, f);
        // Substituting x does apply.
        let h = f.subst(&|v| {
            if v == x {
                Term::Const(named(9))
            } else {
                Term::Var(v)
            }
        });
        assert_ne!(h, f);
    }
}

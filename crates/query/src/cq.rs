//! Conjunctive queries and their extensions (Figure 1 of the paper).
//!
//! One struct, [`Cq`], covers the whole conjunctive family:
//!
//! * plain **CQ** — positive atoms only, no `=`/`≠` (the paper's default);
//! * **CQ=** / **CQ≠** — explicit equality / inequality constraints;
//! * **CQ¬** — safe negated atoms (Proposition 5.7's view language).
//!
//! [`Ucq`] is a union of same-arity `Cq`s. The [`Cq::language`] classifier
//! reports the smallest language of Figure 1 a query belongs to, so
//! algorithms with language-restricted applicability (most of them!) can
//! check their preconditions.

use crate::term::{Atom, Term, VarId};
use std::collections::BTreeSet;
use std::fmt;
use vqd_instance::Schema;

/// Language classification for the conjunctive family.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum CqLang {
    /// Positive atoms only.
    Cq,
    /// Positive atoms + equalities.
    CqEq,
    /// Positive atoms + equalities and/or inequalities.
    CqNeq,
    /// Uses safe negated atoms (possibly plus built-ins).
    CqNeg,
}

/// A conjunctive query with optional equality, inequality, and safe
/// negation extensions.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Cq {
    /// Input schema the body atoms are resolved against.
    pub schema: Schema,
    /// Head (answer) tuple template.
    pub head: Vec<Term>,
    /// Positive body atoms.
    pub atoms: Vec<Atom>,
    /// Negated body atoms (safe negation, CQ¬).
    pub neg_atoms: Vec<Atom>,
    /// Equality constraints.
    pub eqs: Vec<(Term, Term)>,
    /// Inequality constraints.
    pub neqs: Vec<(Term, Term)>,
    /// Display names for variables, indexed by [`VarId`].
    pub var_names: Vec<String>,
}

impl Cq {
    /// A query with an empty body and empty head (to be filled in).
    pub fn new(schema: &Schema) -> Self {
        Cq {
            schema: schema.clone(),
            head: Vec::new(),
            atoms: Vec::new(),
            neg_atoms: Vec::new(),
            eqs: Vec::new(),
            neqs: Vec::new(),
            var_names: Vec::new(),
        }
    }

    /// Allocates a fresh variable with the given display name.
    pub fn var(&mut self, name: &str) -> VarId {
        let id = VarId(self.var_names.len() as u32);
        self.var_names.push(name.to_owned());
        id
    }

    /// Display name of `v` (a generated name if the table is short).
    pub fn var_name(&self, v: VarId) -> String {
        self.var_names.get(v.idx()).cloned().unwrap_or_else(|| format!("v{}", v.0))
    }

    /// Arity of the answer relation.
    pub fn arity(&self) -> usize {
        self.head.len()
    }

    /// Whether the query is Boolean (arity 0).
    pub fn is_boolean(&self) -> bool {
        self.head.is_empty()
    }

    /// Adds a positive atom by relation name.
    ///
    /// # Panics
    /// Panics if the relation is unknown or the arity mismatches.
    pub fn atom(&mut self, rel: &str, args: Vec<Term>) -> &mut Self {
        let r = self.schema.rel(rel);
        assert_eq!(self.schema.arity(r), args.len(), "atom arity mismatch for `{rel}`");
        self.atoms.push(Atom::new(r, args));
        self
    }

    /// Adds a negated atom by relation name.
    pub fn neg_atom(&mut self, rel: &str, args: Vec<Term>) -> &mut Self {
        let r = self.schema.rel(rel);
        assert_eq!(self.schema.arity(r), args.len(), "atom arity mismatch for `{rel}`");
        self.neg_atoms.push(Atom::new(r, args));
        self
    }

    /// Adds an equality constraint.
    pub fn add_eq(&mut self, a: Term, b: Term) -> &mut Self {
        self.eqs.push((a, b));
        self
    }

    /// Adds an inequality constraint.
    pub fn add_neq(&mut self, a: Term, b: Term) -> &mut Self {
        self.neqs.push((a, b));
        self
    }

    /// All variables occurring anywhere in the query.
    pub fn all_vars(&self) -> BTreeSet<VarId> {
        let mut out = BTreeSet::new();
        out.extend(self.head.iter().filter_map(|t| t.as_var()));
        for a in self.atoms.iter().chain(&self.neg_atoms) {
            out.extend(a.vars());
        }
        for (a, b) in self.eqs.iter().chain(&self.neqs) {
            out.extend(a.as_var());
            out.extend(b.as_var());
        }
        out
    }

    /// Variables occurring in positive atoms (the "safe" variables).
    pub fn positive_vars(&self) -> BTreeSet<VarId> {
        self.atoms.iter().flat_map(Atom::vars).collect()
    }

    /// Safety: every variable (head, negated atoms, built-ins) occurs in a
    /// positive atom. Boolean queries with an empty body are unsafe unless
    /// they also have no constraints (and then they are the constant `true`
    /// only if `atoms` is non-empty — we treat an entirely empty body as
    /// unsafe to keep evaluation total).
    pub fn is_safe(&self) -> bool {
        let pos = self.positive_vars();
        self.all_vars().is_subset(&pos)
    }

    /// The smallest conjunctive language this query belongs to.
    pub fn language(&self) -> CqLang {
        if !self.neg_atoms.is_empty() {
            CqLang::CqNeg
        } else if !self.neqs.is_empty() {
            CqLang::CqNeq
        } else if !self.eqs.is_empty() {
            CqLang::CqEq
        } else {
            CqLang::Cq
        }
    }

    /// Applies a variable substitution to the whole query (head, body,
    /// constraints). Variable names are preserved for surviving variables.
    pub fn subst(&self, f: &impl Fn(VarId) -> Term) -> Cq {
        Cq {
            schema: self.schema.clone(),
            head: self.head.iter().map(|t| t.subst(f)).collect(),
            atoms: self.atoms.iter().map(|a| a.subst(f)).collect(),
            neg_atoms: self.neg_atoms.iter().map(|a| a.subst(f)).collect(),
            eqs: self.eqs.iter().map(|(a, b)| (a.subst(f), b.subst(f))).collect(),
            neqs: self.neqs.iter().map(|(a, b)| (a.subst(f), b.subst(f))).collect(),
            var_names: self.var_names.clone(),
        }
    }

    /// Renumbers variables densely (dropping unused slots), returning the
    /// renumbered query. Useful after substitutions that eliminate
    /// variables.
    pub fn compact(&self) -> Cq {
        let used = self.all_vars();
        let mut remap =
            vec![
                None;
                self.var_names.len().max(used.iter().map(|v| v.idx() + 1).max().unwrap_or(0),)
            ];
        let mut names = Vec::with_capacity(used.len());
        for (i, v) in used.iter().enumerate() {
            remap[v.idx()] = Some(VarId(i as u32));
            names.push(self.var_name(*v));
        }
        let f = |v: VarId| Term::Var(remap[v.idx()].expect("var in use"));
        let mut q = self.subst(&f);
        q.var_names = names;
        q
    }

    /// Renders the query with its variable names, e.g.
    /// `Q(x,y) :- R(x,z), S(z,y), x != y.`
    pub fn render(&self, head_name: &str) -> String {
        let term = |t: &Term| match t {
            Term::Var(v) => self.var_name(*v),
            Term::Const(c) => c.to_string(),
        };
        let atom = |a: &Atom| {
            let args: Vec<String> = a.args.iter().map(term).collect();
            format!("{}({})", self.schema.name(a.rel), args.join(","))
        };
        let mut parts: Vec<String> = self.atoms.iter().map(atom).collect();
        parts.extend(self.neg_atoms.iter().map(|a| format!("!{}", atom(a))));
        parts.extend(self.eqs.iter().map(|(a, b)| format!("{} = {}", term(a), term(b))));
        parts.extend(self.neqs.iter().map(|(a, b)| format!("{} != {}", term(a), term(b))));
        let head_args: Vec<String> = self.head.iter().map(term).collect();
        format!("{}({}) :- {}.", head_name, head_args.join(","), parts.join(", "))
    }
}

impl fmt::Display for Cq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render("Q"))
    }
}

/// A union of conjunctive queries with a common schema and arity.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Ucq {
    /// The disjuncts; non-empty, all with the same schema and arity.
    pub disjuncts: Vec<Cq>,
}

impl Ucq {
    /// Builds a UCQ from disjuncts.
    ///
    /// # Panics
    /// Panics if `disjuncts` is empty or the arities/schemas disagree.
    pub fn new(disjuncts: Vec<Cq>) -> Self {
        assert!(!disjuncts.is_empty(), "UCQ needs at least one disjunct");
        let arity = disjuncts[0].arity();
        let schema = disjuncts[0].schema.clone();
        for d in &disjuncts[1..] {
            assert_eq!(d.arity(), arity, "UCQ disjuncts must share an arity");
            assert_eq!(d.schema, schema, "UCQ disjuncts must share a schema");
        }
        Ucq { disjuncts }
    }

    /// A single-disjunct UCQ.
    pub fn from_cq(cq: Cq) -> Self {
        Ucq { disjuncts: vec![cq] }
    }

    /// Arity of the answer relation.
    pub fn arity(&self) -> usize {
        self.disjuncts[0].arity()
    }

    /// Shared input schema.
    pub fn schema(&self) -> &Schema {
        &self.disjuncts[0].schema
    }

    /// The largest language any disjunct needs.
    pub fn language(&self) -> CqLang {
        self.disjuncts.iter().map(Cq::language).max().expect("non-empty")
    }

    /// Whether every disjunct is safe.
    pub fn is_safe(&self) -> bool {
        self.disjuncts.iter().all(Cq::is_safe)
    }

    /// Renders all rules with a common head name.
    pub fn render(&self, head_name: &str) -> String {
        self.disjuncts.iter().map(|d| d.render(head_name)).collect::<Vec<_>>().join("\n")
    }
}

impl fmt::Display for Ucq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render("Q"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqd_instance::named;

    fn schema() -> Schema {
        Schema::new([("R", 2), ("P", 1)])
    }

    fn sample_cq() -> Cq {
        // Q(x,y) :- R(x,z), R(z,y)
        let mut q = Cq::new(&schema());
        let x = q.var("x");
        let y = q.var("y");
        let z = q.var("z");
        q.head = vec![x.into(), y.into()];
        q.atom("R", vec![x.into(), z.into()]);
        q.atom("R", vec![z.into(), y.into()]);
        q
    }

    #[test]
    fn classification_ladder() {
        let mut q = sample_cq();
        assert_eq!(q.language(), CqLang::Cq);
        let x = VarId(0);
        q.add_eq(x.into(), Term::Const(named(0)));
        assert_eq!(q.language(), CqLang::CqEq);
        q.add_neq(x.into(), VarId(1).into());
        assert_eq!(q.language(), CqLang::CqNeq);
        q.neg_atom("P", vec![x.into()]);
        assert_eq!(q.language(), CqLang::CqNeg);
    }

    #[test]
    fn safety() {
        let mut q = sample_cq();
        assert!(q.is_safe());
        // A head variable not bound by a positive atom is unsafe.
        let w = q.var("w");
        q.head.push(w.into());
        assert!(!q.is_safe());
    }

    #[test]
    fn all_vars_and_positive_vars() {
        let mut q = sample_cq();
        let w = q.var("w");
        q.neg_atom("P", vec![w.into()]);
        assert!(q.all_vars().contains(&w));
        assert!(!q.positive_vars().contains(&w));
    }

    #[test]
    fn subst_and_compact() {
        let q = sample_cq();
        // Substitute z := constant; variables x,y survive.
        let z = VarId(2);
        let s = q.subst(&|v| {
            if v == z {
                Term::Const(named(7))
            } else {
                Term::Var(v)
            }
        });
        assert!(s.atoms[0].args[1] == Term::Const(named(7)));
        let c = s.compact();
        assert_eq!(c.all_vars().len(), 2);
        assert_eq!(c.var_name(VarId(0)), "x");
        assert_eq!(c.var_name(VarId(1)), "y");
    }

    #[test]
    fn render_round() {
        let q = sample_cq();
        assert_eq!(q.render("Q"), "Q(x,y) :- R(x,z), R(z,y).");
    }

    #[test]
    fn ucq_construction() {
        let u = Ucq::new(vec![sample_cq(), sample_cq()]);
        assert_eq!(u.arity(), 2);
        assert_eq!(u.language(), CqLang::Cq);
        assert!(u.is_safe());
    }

    #[test]
    #[should_panic(expected = "share an arity")]
    fn ucq_arity_mismatch_rejected() {
        let mut q2 = sample_cq();
        q2.head.pop();
        Ucq::new(vec![sample_cq(), q2]);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn ucq_empty_rejected() {
        Ucq::new(Vec::new());
    }

    #[test]
    fn boolean_query() {
        let mut q = Cq::new(&schema());
        let x = q.var("x");
        q.atom("P", vec![x.into()]);
        assert!(q.is_boolean());
        assert_eq!(q.arity(), 0);
    }
}

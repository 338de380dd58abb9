//! Terms and atoms — the shared syntactic bottom layer of every query
//! language in the paper (Figure 1).

use std::fmt;
use vqd_instance::{RelId, Value};

/// A query variable, identified by a dense per-query index.
///
/// Display names live in the owning query's variable table.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct VarId(pub u32);

impl VarId {
    /// The index of this variable.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?{}", self.0)
    }
}

/// A term: a variable or a domain constant.
///
/// Constants in queries are values from **dom**, "always interpreted as
/// themselves" (Section 2) — not logical constant symbols.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Term {
    /// A query variable.
    Var(VarId),
    /// A domain constant.
    Const(Value),
}

impl Term {
    /// The variable inside, if any.
    #[inline]
    pub fn as_var(self) -> Option<VarId> {
        match self {
            Term::Var(v) => Some(v),
            Term::Const(_) => None,
        }
    }

    /// The constant inside, if any.
    #[inline]
    pub fn as_const(self) -> Option<Value> {
        match self {
            Term::Var(_) => None,
            Term::Const(c) => Some(c),
        }
    }

    /// Whether this term is a variable.
    #[inline]
    pub fn is_var(self) -> bool {
        matches!(self, Term::Var(_))
    }

    /// Applies a variable substitution, leaving constants untouched.
    pub fn subst(self, f: &impl Fn(VarId) -> Term) -> Term {
        match self {
            Term::Var(v) => f(v),
            c @ Term::Const(_) => c,
        }
    }
}

impl From<VarId> for Term {
    fn from(v: VarId) -> Term {
        Term::Var(v)
    }
}

impl From<Value> for Term {
    fn from(c: Value) -> Term {
        Term::Const(c)
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(c) => write!(f, "{c}"),
        }
    }
}

/// A relational atom `R(t₁, …, t_k)`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Atom {
    /// The relation symbol (resolved against the query's schema).
    pub rel: RelId,
    /// Argument terms; length must equal the symbol's arity.
    pub args: Vec<Term>,
}

impl Atom {
    /// Constructs an atom.
    pub fn new(rel: RelId, args: Vec<Term>) -> Self {
        Atom { rel, args }
    }

    /// Iterates the variables occurring in this atom (with repeats).
    pub fn vars(&self) -> impl Iterator<Item = VarId> + '_ {
        self.args.iter().filter_map(|t| t.as_var())
    }

    /// Applies a variable substitution to all arguments.
    pub fn subst(&self, f: &impl Fn(VarId) -> Term) -> Atom {
        Atom { rel: self.rel, args: self.args.iter().map(|t| t.subst(f)).collect() }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.rel)?;
        for (i, t) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqd_instance::named;

    #[test]
    fn term_accessors() {
        let t: Term = VarId(3).into();
        assert_eq!(t.as_var(), Some(VarId(3)));
        assert!(t.is_var());
        let c: Term = named(5).into();
        assert_eq!(c.as_const(), Some(named(5)));
        assert!(!c.is_var());
    }

    #[test]
    fn term_subst_leaves_constants() {
        let f = |v: VarId| Term::Const(named(v.0 + 10));
        assert_eq!(Term::Var(VarId(1)).subst(&f), Term::Const(named(11)));
        assert_eq!(Term::Const(named(2)).subst(&f), Term::Const(named(2)));
    }

    #[test]
    fn atom_vars_and_subst() {
        let a = Atom::new(
            RelId(0),
            vec![Term::Var(VarId(0)), Term::Const(named(1)), Term::Var(VarId(0))],
        );
        let vars: Vec<VarId> = a.vars().collect();
        assert_eq!(vars, vec![VarId(0), VarId(0)]);
        let b = a.subst(&|_| Term::Var(VarId(9)));
        assert_eq!(b.args[0], Term::Var(VarId(9)));
        assert_eq!(b.args[1], Term::Const(named(1)));
    }

    #[test]
    fn display_forms() {
        let a = Atom::new(RelId(2), vec![Term::Var(VarId(0)), Term::Const(named(3))]);
        assert_eq!(a.to_string(), "#2(?0,c3)");
    }
}

//! Relations: finite sets of tuples over the domain.
//!
//! A [`Relation`] is the extension of one relation symbol in one instance.
//! Tuples are kept in a `BTreeSet` so relations have canonical iteration
//! order, cheap subset tests, and structural equality — all of which the
//! determinacy machinery leans on (determinacy compares view images for
//! *exact* equality, not isomorphism).

use crate::value::{NameLookup, Value};
use std::collections::BTreeSet;
use std::fmt;

/// A tuple of domain values.
pub type Tuple = Vec<Value>;

/// A finite relation of fixed arity.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Relation {
    arity: usize,
    tuples: BTreeSet<Tuple>,
}

impl Relation {
    /// The empty relation of the given arity.
    pub fn new(arity: usize) -> Self {
        Relation { arity, tuples: BTreeSet::new() }
    }

    /// Builds a relation from tuples (duplicates collapse).
    ///
    /// This is a bulk build: the tuples are gathered, sorted once, and
    /// the set is built bottom-up from the sorted run, instead of one
    /// tree descent per tuple. Already-sorted input sorts in linear
    /// time.
    ///
    /// # Panics
    /// Panics if a tuple's length differs from `arity`.
    pub fn from_tuples(arity: usize, tuples: impl IntoIterator<Item = Tuple>) -> Self {
        let tuples: Vec<Tuple> = tuples.into_iter().collect();
        for t in &tuples {
            assert_eq!(t.len(), arity, "tuple arity mismatch: relation has arity {arity}");
        }
        // `BTreeSet`'s `FromIterator` sorts its input and bulk-loads it.
        Relation { arity, tuples: tuples.into_iter().collect() }
    }

    /// The arity (column count).
    #[inline]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the relation holds no tuples.
    ///
    /// For a zero-ary relation (a proposition) this means "false".
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Inserts a tuple, returning whether it was new.
    ///
    /// # Panics
    /// Panics on an arity mismatch.
    pub fn insert(&mut self, t: Tuple) -> bool {
        assert_eq!(t.len(), self.arity, "tuple arity mismatch: relation has arity {}", self.arity);
        self.tuples.insert(t)
    }

    /// Removes a tuple, returning whether it was present.
    pub fn remove(&mut self, t: &[Value]) -> bool {
        self.tuples.remove(t)
    }

    /// Membership test.
    pub fn contains(&self, t: &[Value]) -> bool {
        self.tuples.contains(t)
    }

    /// Iterates tuples in canonical (sorted) order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.iter()
    }

    /// Subset test: every tuple of `self` is in `other`.
    pub fn is_subset(&self, other: &Relation) -> bool {
        self.arity == other.arity && self.tuples.is_subset(&other.tuples)
    }

    /// In-place union with `other`.
    ///
    /// # Panics
    /// Panics on arity mismatch.
    pub fn union_with(&mut self, other: &Relation) {
        assert_eq!(self.arity, other.arity, "union of relations with different arities");
        for t in other.iter() {
            self.tuples.insert(t.clone());
        }
    }

    /// Set difference `self \ other`.
    pub fn difference(&self, other: &Relation) -> Relation {
        assert_eq!(self.arity, other.arity);
        Relation {
            arity: self.arity,
            tuples: self.tuples.difference(&other.tuples).cloned().collect(),
        }
    }

    /// Intersection.
    pub fn intersection(&self, other: &Relation) -> Relation {
        assert_eq!(self.arity, other.arity);
        Relation {
            arity: self.arity,
            tuples: self.tuples.intersection(&other.tuples).cloned().collect(),
        }
    }

    /// Applies a value substitution to every tuple.
    ///
    /// Values for which `f` returns `None` are left unchanged.
    pub fn map_values(&self, mut f: impl FnMut(Value) -> Option<Value>) -> Relation {
        Relation {
            arity: self.arity,
            tuples: self
                .tuples
                .iter()
                .map(|t| t.iter().map(|&v| f(v).unwrap_or(v)).collect())
                .collect(),
        }
    }

    /// Collects every value appearing in some tuple into `out`.
    pub fn collect_values(&self, out: &mut BTreeSet<Value>) {
        for t in &self.tuples {
            out.extend(t.iter().copied());
        }
    }

    /// Whether any tuple contains a labelled null.
    pub fn has_nulls(&self) -> bool {
        self.tuples.iter().any(|t| t.iter().any(|v| v.is_null()))
    }

    /// The sub-relation of tuples containing no labelled nulls.
    pub fn null_free(&self) -> Relation {
        Relation {
            arity: self.arity,
            tuples: self
                .tuples
                .iter()
                .filter(|t| t.iter().all(|v| v.is_named()))
                .cloned()
                .collect(),
        }
    }

    /// For propositions (arity 0): the truth value.
    ///
    /// # Panics
    /// Panics if the arity is nonzero.
    pub fn truth(&self) -> bool {
        assert_eq!(self.arity, 0, "truth() is only defined for propositions");
        !self.tuples.is_empty()
    }

    /// Sets a proposition's truth value.
    ///
    /// # Panics
    /// Panics if the arity is nonzero.
    pub fn set_truth(&mut self, b: bool) {
        assert_eq!(self.arity, 0, "set_truth() is only defined for propositions");
        self.tuples.clear();
        if b {
            self.tuples.insert(Vec::new());
        }
    }

    /// Renders the relation using human-readable constant names where
    /// available.
    pub fn render(&self, names: &impl NameLookup) -> String {
        let mut out = String::new();
        self.render_into(names, &mut out);
        out
    }

    /// [`Relation::render`] appended to `out`: names are copied straight
    /// into the buffer, with no `String` per value.
    pub fn render_into(&self, names: &impl NameLookup, out: &mut String) {
        out.push('{');
        for (i, t) in self.tuples.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push('(');
            for (j, &v) in t.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                names.render_into(v, out);
            }
            out.push(')');
        }
        out.push('}');
    }

    /// The full relation `A^k` over a value universe `A`.
    pub fn full(arity: usize, universe: &[Value]) -> Relation {
        let mut r = Relation::new(arity);
        let mut tup = vec![*universe.first().unwrap_or(&Value::Named(0)); arity];
        if arity == 0 {
            r.tuples.insert(Vec::new());
            return r;
        }
        if universe.is_empty() {
            return r;
        }
        // Odometer enumeration of universe^arity.
        let mut idx = vec![0usize; arity];
        loop {
            for (slot, &i) in tup.iter_mut().zip(idx.iter()) {
                *slot = universe[i];
            }
            r.tuples.insert(tup.clone());
            let mut pos = arity;
            loop {
                if pos == 0 {
                    return r;
                }
                pos -= 1;
                idx[pos] += 1;
                if idx[pos] < universe.len() {
                    break;
                }
                idx[pos] = 0;
            }
        }
    }
}

impl IntoIterator for Relation {
    type Item = Tuple;
    type IntoIter = std::collections::btree_set::IntoIter<Tuple>;

    /// Consumes the relation, yielding its tuples in canonical order.
    fn into_iter(self) -> Self::IntoIter {
        self.tuples.into_iter()
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, t) in self.tuples.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "(")?;
            for (j, v) in t.iter().enumerate() {
                if j > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{v}")?;
            }
            write!(f, ")")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{named, null};

    fn v(i: u32) -> Value {
        named(i)
    }

    #[test]
    fn insert_contains_remove() {
        let mut r = Relation::new(2);
        assert!(r.insert(vec![v(0), v(1)]));
        assert!(!r.insert(vec![v(0), v(1)]));
        assert!(r.contains(&[v(0), v(1)]));
        assert!(!r.contains(&[v(1), v(0)]));
        assert_eq!(r.len(), 1);
        assert!(r.remove(&[v(0), v(1)]));
        assert!(r.is_empty());
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_checked() {
        Relation::new(2).insert(vec![v(0)]);
    }

    #[test]
    fn set_ops() {
        let a = Relation::from_tuples(1, [vec![v(0)], vec![v(1)]]);
        let b = Relation::from_tuples(1, [vec![v(1)], vec![v(2)]]);
        assert_eq!(a.difference(&b), Relation::from_tuples(1, [vec![v(0)]]));
        assert_eq!(a.intersection(&b), Relation::from_tuples(1, [vec![v(1)]]));
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.len(), 3);
        assert!(a.is_subset(&u));
        assert!(!u.is_subset(&a));
    }

    #[test]
    fn subset_requires_same_arity() {
        let a = Relation::new(1);
        let b = Relation::new(2);
        assert!(!a.is_subset(&b));
    }

    #[test]
    fn map_values_substitutes() {
        let r = Relation::from_tuples(2, [vec![null(0), v(1)]]);
        let mapped = r.map_values(|x| if x == null(0) { Some(v(9)) } else { None });
        assert!(mapped.contains(&[v(9), v(1)]));
    }

    #[test]
    fn nulls_tracking() {
        let r = Relation::from_tuples(1, [vec![null(0)], vec![v(1)]]);
        assert!(r.has_nulls());
        let nf = r.null_free();
        assert_eq!(nf.len(), 1);
        assert!(nf.contains(&[v(1)]));
        assert!(!nf.has_nulls());
    }

    #[test]
    fn propositions() {
        let mut p = Relation::new(0);
        assert!(!p.truth());
        p.set_truth(true);
        assert!(p.truth());
        p.set_truth(false);
        assert!(!p.truth());
    }

    #[test]
    fn full_relation() {
        let univ = [v(0), v(1), v(2)];
        let r = Relation::full(2, &univ);
        assert_eq!(r.len(), 9);
        assert!(r.contains(&[v(2), v(0)]));
        let r0 = Relation::full(0, &univ);
        assert!(r0.truth());
        let r_empty_univ = Relation::full(2, &[]);
        assert!(r_empty_univ.is_empty());
    }

    #[test]
    fn collect_values_gathers_everything() {
        let r = Relation::from_tuples(2, [vec![v(0), v(3)], vec![v(3), null(1)]]);
        let mut out = BTreeSet::new();
        r.collect_values(&mut out);
        assert_eq!(out.len(), 3);
        assert!(out.contains(&null(1)));
    }

    #[test]
    fn render_uses_names() {
        let mut names = crate::value::DomainNames::new();
        let a = names.intern("ann");
        let r = Relation::from_tuples(2, [vec![a, v(9)]]);
        assert_eq!(r.render(&names), "{(ann,c9)}");
    }

    #[test]
    fn display_is_sorted() {
        let r = Relation::from_tuples(1, [vec![v(2)], vec![v(0)]]);
        assert_eq!(r.to_string(), "{(c0), (c2)}");
    }
}

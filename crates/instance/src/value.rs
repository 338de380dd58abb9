//! Domain values.
//!
//! The paper works over a fixed countably infinite domain **dom**. We
//! represent domain elements with [`Value`], which comes in two flavours:
//!
//! * [`Value::Named`] — an ordinary domain constant. These are the values
//!   that appear in user-supplied database instances and as constants in
//!   queries (the paper's "values from **dom**, always interpreted as
//!   themselves").
//! * [`Value::Null`] — a *labelled null*: a fresh invented value produced by
//!   the chase / view-inverse machinery of Section 3. Labelled nulls behave
//!   exactly like ordinary domain elements during evaluation (an instance
//!   containing nulls is still just an instance); the distinction only
//!   matters when we need to know which elements were invented (e.g. when
//!   reading a rewriting off a chased instance, or when extracting the
//!   null-free certain answers).
//!
//! Values are small `Copy` types so tuples can be compared and hashed
//! cheaply; human-readable names for `Named` values live in a separate
//! [`DomainNames`] side table so the hot paths never touch strings.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// A single domain element: either a named constant or a labelled null.
///
/// The `Ord` instance orders all named constants before all nulls, which
/// gives instances a deterministic iteration order regardless of how nulls
/// were allocated.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum Value {
    /// An ordinary domain constant, identified by its interned index.
    Named(u32),
    /// A labelled null invented by the chase, identified by its allocation
    /// index.
    Null(u32),
}

impl Value {
    /// Returns `true` for labelled nulls.
    #[inline]
    pub fn is_null(self) -> bool {
        matches!(self, Value::Null(_))
    }

    /// Returns `true` for named domain constants.
    #[inline]
    pub fn is_named(self) -> bool {
        matches!(self, Value::Named(_))
    }

    /// The raw index, regardless of flavour.
    #[inline]
    pub fn index(self) -> u32 {
        match self {
            Value::Named(i) | Value::Null(i) => i,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Named(i) => write!(f, "c{i}"),
            Value::Null(i) => write!(f, "_n{i}"),
        }
    }
}

/// Convenience constructor for a named constant.
#[inline]
pub fn named(i: u32) -> Value {
    Value::Named(i)
}

/// Convenience constructor for a labelled null.
#[inline]
pub fn null(i: u32) -> Value {
    Value::Null(i)
}

/// An allocator handing out fresh labelled nulls.
///
/// Chase steps must invent values "not occurring anywhere else"; threading a
/// `NullGen` through the construction guarantees global freshness.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct NullGen {
    next: u32,
}

impl NullGen {
    /// A generator whose first null is `_n0`.
    pub fn new() -> Self {
        NullGen { next: 0 }
    }

    /// A generator that will not collide with any null of index `< start`.
    pub fn starting_at(start: u32) -> Self {
        NullGen { next: start }
    }

    /// Allocates a fresh labelled null.
    pub fn fresh(&mut self) -> Value {
        let v = Value::Null(self.next);
        self.next = self.next.checked_add(1).expect("null index overflow");
        v
    }

    /// Allocates `n` consecutive fresh nulls and returns the label of the
    /// first: the block is `_n{first} .. _n{first + n - 1}`, exactly the
    /// nulls `n` calls to [`NullGen::fresh`] would hand out.
    pub fn fresh_block(&mut self, n: u32) -> u32 {
        let first = self.next;
        self.next = self.next.checked_add(n).expect("null index overflow");
        first
    }

    /// Make sure future nulls are strictly greater than `v` (useful after
    /// absorbing an instance that already contains nulls).
    pub fn bump_past(&mut self, v: Value) {
        if let Value::Null(i) = v {
            self.next = self.next.max(i + 1);
        }
    }

    /// Index that the next call to [`NullGen::fresh`] would use.
    pub fn peek(&self) -> u32 {
        self.next
    }
}

/// A bidirectional table mapping named constants to human-readable names.
///
/// Purely cosmetic: all algorithms operate on [`Value`]s directly. Parsers
/// and pretty-printers use this to keep examples legible.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct DomainNames {
    names: Vec<String>,
    index: HashMap<String, u32>,
}

impl DomainNames {
    /// An empty name table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning the same constant for the same string.
    pub fn intern(&mut self, name: &str) -> Value {
        if let Some(&i) = self.index.get(name) {
            return Value::Named(i);
        }
        let i = u32::try_from(self.names.len()).expect("domain name overflow");
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), i);
        Value::Named(i)
    }

    /// Looks up an already interned name.
    pub fn get(&self, name: &str) -> Option<Value> {
        self.index.get(name).map(|&i| Value::Named(i))
    }

    /// The display name of `v`, if `v` is a named constant with a recorded
    /// name.
    pub fn name_of(&self, v: Value) -> Option<&str> {
        match v {
            Value::Named(i) => self.names.get(i as usize).map(String::as_str),
            Value::Null(_) => None,
        }
    }

    /// Renders `v` using this table, falling back to the raw display form.
    pub fn render(&self, v: Value) -> String {
        let mut out = String::new();
        self.render_into(v, &mut out);
        out
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no names have been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// Where rendering reads the display names of [`Value::Named`] values:
/// a live [`DomainNames`] or a frozen [`NameTable`].
pub trait NameLookup {
    /// The display name of `v`, if `v` is a named constant with a
    /// recorded name.
    fn name_of(&self, v: Value) -> Option<&str>;

    /// Appends the rendering of `v` to `out`: its name when recorded,
    /// else its [`Display`](fmt::Display) form.
    fn render_into(&self, v: Value, out: &mut String) {
        match self.name_of(v) {
            Some(name) => out.push_str(name),
            None => {
                use fmt::Write as _;
                let _ = write!(out, "{v}");
            }
        }
    }
}

impl NameLookup for DomainNames {
    fn name_of(&self, v: Value) -> Option<&str> {
        DomainNames::name_of(self, v)
    }
}

/// A read-only snapshot of a [`DomainNames`] id→name table, stored as
/// one string plus `u32` end offsets: two allocations however many
/// names it holds, against one `String` per name (twice, with the
/// reverse map) in the interner. It renders exactly like the table it
/// was frozen from.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NameTable {
    text: String,
    ends: Vec<u32>,
}

impl NameTable {
    /// Freezes `names`' id→name table.
    pub fn new(names: &DomainNames) -> NameTable {
        NameTable::from_names(names.names.iter().map(String::as_str))
    }

    /// A table whose id `i` names the `i`-th item.
    ///
    /// # Panics
    /// Panics if the names total more than `u32::MAX` bytes.
    pub fn from_names<'a>(names: impl IntoIterator<Item = &'a str>) -> NameTable {
        let mut table = NameTable::default();
        for name in names {
            table.text.push_str(name);
            table.ends.push(u32::try_from(table.text.len()).expect("name table overflow"));
        }
        table
    }

    /// The names in id order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts.zip(&self.ends).map(|(start, &end)| &self.text[start as usize..end as usize])
    }

    /// Number of names.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the table holds no names.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Heap bytes held plus the table itself, for cache accounting.
    pub fn approx_bytes(&self) -> u64 {
        (std::mem::size_of::<Self>() + self.text.len() + 4 * self.ends.len()) as u64
    }
}

impl NameLookup for NameTable {
    fn name_of(&self, v: Value) -> Option<&str> {
        let Value::Named(i) = v else { return None };
        let i = i as usize;
        let end = *self.ends.get(i)? as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        Some(&self.text[start..end])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_before_null_in_order() {
        assert!(Value::Named(u32::MAX) < Value::Null(0));
        assert!(Value::Named(0) < Value::Named(1));
        assert!(Value::Null(0) < Value::Null(1));
    }

    #[test]
    fn value_predicates() {
        assert!(named(3).is_named());
        assert!(!named(3).is_null());
        assert!(null(3).is_null());
        assert_eq!(null(7).index(), 7);
        assert_eq!(named(7).index(), 7);
    }

    #[test]
    fn nullgen_is_fresh_and_monotone() {
        let mut g = NullGen::new();
        let a = g.fresh();
        let b = g.fresh();
        assert_ne!(a, b);
        assert!(a < b);
        assert_eq!(g.peek(), 2);
    }

    #[test]
    fn nullgen_bump_past() {
        let mut g = NullGen::new();
        g.bump_past(null(10));
        assert_eq!(g.fresh(), null(11));
        // Named values never affect the generator.
        g.bump_past(named(100));
        assert_eq!(g.fresh(), null(12));
    }

    #[test]
    fn nullgen_starting_at() {
        let mut g = NullGen::starting_at(5);
        assert_eq!(g.fresh(), null(5));
    }

    #[test]
    fn name_tables_render_like_their_interner() {
        let mut names = DomainNames::new();
        for name in ["alice", "", "N5", "7"] {
            names.intern(name);
        }
        let table = NameTable::new(&names);
        assert_eq!(table.len(), 4);
        assert_eq!(table.names().collect::<Vec<_>>(), ["alice", "", "N5", "7"]);
        assert_eq!(NameTable::from_names(table.names()), table);
        for v in [named(0), named(1), named(3), named(4), null(0), null(9)] {
            assert_eq!(NameLookup::name_of(&table, v), names.name_of(v), "{v:?}");
            let mut out = String::new();
            table.render_into(v, &mut out);
            assert_eq!(out, names.render(v), "{v:?}");
        }
        assert!(NameTable::default().is_empty());
        assert!(table.approx_bytes() > NameTable::default().approx_bytes());
    }

    #[test]
    fn domain_names_roundtrip() {
        let mut names = DomainNames::new();
        let a = names.intern("alice");
        let b = names.intern("bob");
        assert_ne!(a, b);
        assert_eq!(names.intern("alice"), a);
        assert_eq!(names.get("bob"), Some(b));
        assert_eq!(names.get("carol"), None);
        assert_eq!(names.name_of(a), Some("alice"));
        assert_eq!(names.name_of(null(0)), None);
        assert_eq!(names.render(a), "alice");
        assert_eq!(names.render(null(2)), "_n2");
        assert_eq!(names.len(), 2);
        assert!(!names.is_empty());
    }

    #[test]
    fn display_forms() {
        assert_eq!(named(4).to_string(), "c4");
        assert_eq!(null(4).to_string(), "_n4");
    }
}

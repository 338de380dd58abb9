//! Database schemas.
//!
//! A schema is a finite set of relation symbols with associated arities
//! (Section 2 of the paper). Relation symbols are interned to dense
//! [`RelId`]s so instances can store their relations in a flat vector.
//!
//! Schemas are cheap to clone (`Arc` internally) and are shared by the
//! instances, queries, and views defined over them. Several constructions in
//! the paper manipulate schemas wholesale — disjoint copies `σ₁, σ₂`
//! (Proposition 4.1), extensions `σ ∪ {R}` (Theorem 4.5), view output
//! schemas `σ_V` — so the API includes the corresponding combinators.

use std::fmt;
use std::sync::Arc;

/// A dense identifier for a relation symbol within one [`Schema`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RelId(pub u32);

impl RelId {
    /// The index of this symbol in its schema.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Declaration of a single relation symbol.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct RelDecl {
    /// Symbol name, unique within the schema.
    pub name: String,
    /// Number of columns; zero-arity symbols are propositions.
    pub arity: usize,
}

#[derive(Debug)]
struct SchemaInner {
    rels: Vec<RelDecl>,
}

/// An immutable, shareable database schema.
#[derive(Clone, Debug)]
pub struct Schema {
    inner: Arc<SchemaInner>,
}

impl PartialEq for Schema {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner) || self.inner.rels == other.inner.rels
    }
}
impl Eq for Schema {}

impl std::hash::Hash for Schema {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.inner.rels.hash(state);
    }
}

impl Schema {
    /// Builds a schema from `(name, arity)` pairs.
    ///
    /// # Panics
    /// Panics if two declarations share a name.
    pub fn new<S: Into<String>>(decls: impl IntoIterator<Item = (S, usize)>) -> Self {
        let rels: Vec<RelDecl> =
            decls.into_iter().map(|(name, arity)| RelDecl { name: name.into(), arity }).collect();
        for (i, a) in rels.iter().enumerate() {
            for b in &rels[i + 1..] {
                assert_ne!(a.name, b.name, "duplicate relation symbol `{}`", a.name);
            }
        }
        Schema { inner: Arc::new(SchemaInner { rels }) }
    }

    /// The empty schema.
    pub fn empty() -> Self {
        Schema::new(Vec::<(String, usize)>::new())
    }

    /// Parses the compact `"Name/arity, Name/arity, …"` notation.
    ///
    /// ```
    /// use vqd_instance::Schema;
    /// let s = Schema::parse("E/2, P/1, flag/0").unwrap();
    /// assert_eq!(s.arity(s.rel("E")), 2);
    /// assert_eq!(s.len(), 3);
    /// assert!(Schema::parse("E").is_err());
    /// ```
    pub fn parse(spec: &str) -> Result<Schema, String> {
        let mut decls: Vec<(String, usize)> = Vec::new();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (name, arity) =
                part.split_once('/').ok_or_else(|| format!("`{part}`: expected `Name/arity`"))?;
            let arity: usize = arity.trim().parse().map_err(|_| format!("`{part}`: bad arity"))?;
            let name = name.trim();
            if name.is_empty() {
                return Err(format!("`{part}`: empty name"));
            }
            if decls.iter().any(|(n, _)| n == name) {
                return Err(format!("duplicate relation `{name}`"));
            }
            decls.push((name.to_owned(), arity));
        }
        Ok(Schema::new(decls))
    }

    /// Number of relation symbols.
    pub fn len(&self) -> usize {
        self.inner.rels.len()
    }

    /// Whether the schema has no symbols.
    pub fn is_empty(&self) -> bool {
        self.inner.rels.is_empty()
    }

    /// Iterate over `(RelId, &RelDecl)` in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (RelId, &RelDecl)> {
        self.inner.rels.iter().enumerate().map(|(i, d)| (RelId(i as u32), d))
    }

    /// All relation ids in declaration order.
    pub fn rel_ids(&self) -> impl Iterator<Item = RelId> + '_ {
        (0..self.len() as u32).map(RelId)
    }

    /// The declaration for `rel`.
    ///
    /// # Panics
    /// Panics if `rel` is not a symbol of this schema.
    pub fn decl(&self, rel: RelId) -> &RelDecl {
        &self.inner.rels[rel.idx()]
    }

    /// The arity of `rel`.
    pub fn arity(&self, rel: RelId) -> usize {
        self.decl(rel).arity
    }

    /// The name of `rel`.
    pub fn name(&self, rel: RelId) -> &str {
        &self.decl(rel).name
    }

    /// Looks a symbol up by name.
    pub fn find(&self, name: &str) -> Option<RelId> {
        self.inner.rels.iter().position(|d| d.name == name).map(|i| RelId(i as u32))
    }

    /// Looks a symbol up by name, panicking with a helpful message if absent.
    pub fn rel(&self, name: &str) -> RelId {
        self.find(name).unwrap_or_else(|| panic!("schema has no relation `{name}`"))
    }

    /// A new schema extending `self` with `extra` symbols (paper: `σ ∪ {R}`).
    ///
    /// Existing symbols keep their [`RelId`]s; the extension's ids follow.
    pub fn extend<S: Into<String>>(&self, extra: impl IntoIterator<Item = (S, usize)>) -> Schema {
        let mut decls: Vec<(String, usize)> =
            self.inner.rels.iter().map(|d| (d.name.clone(), d.arity)).collect();
        decls.extend(extra.into_iter().map(|(n, a)| (n.into(), a)));
        Schema::new(decls)
    }

    /// A disjoint copy of this schema with every symbol renamed through
    /// `rename` (paper: the copies `σ₁, σ₂` of `σ`).
    pub fn renamed(&self, rename: impl Fn(&str) -> String) -> Schema {
        Schema::new(self.inner.rels.iter().map(|d| (rename(&d.name), d.arity)))
    }

    /// The union `σ₁ ∪ σ₂` of two schemas with disjoint symbol names.
    ///
    /// Symbols of `self` keep their ids; symbols of `other` are reassigned
    /// ids following them. Returns the new schema together with the id
    /// translation for `other`'s symbols.
    ///
    /// # Panics
    /// Panics if the schemas share a symbol name.
    pub fn union(&self, other: &Schema) -> (Schema, Vec<RelId>) {
        let mut decls: Vec<(String, usize)> =
            self.inner.rels.iter().map(|d| (d.name.clone(), d.arity)).collect();
        let base = decls.len() as u32;
        let mapping: Vec<RelId> = (0..other.len() as u32).map(|i| RelId(base + i)).collect();
        decls.extend(other.inner.rels.iter().map(|d| (d.name.clone(), d.arity)));
        (Schema::new(decls), mapping)
    }

    /// Maximum arity over all symbols (0 for the empty schema).
    pub fn max_arity(&self) -> usize {
        self.inner.rels.iter().map(|d| d.arity).max().unwrap_or(0)
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, d) in self.inner.rels.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}/{}", d.name, d.arity)?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sigma() -> Schema {
        Schema::new([("R", 2), ("P", 1), ("p1", 0)])
    }

    #[test]
    fn lookup_and_metadata() {
        let s = sigma();
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        let r = s.rel("R");
        assert_eq!(s.arity(r), 2);
        assert_eq!(s.name(r), "R");
        assert_eq!(s.find("P"), Some(RelId(1)));
        assert_eq!(s.find("missing"), None);
        assert_eq!(s.max_arity(), 2);
        assert_eq!(s.to_string(), "{R/2, P/1, p1/0}");
    }

    #[test]
    #[should_panic(expected = "no relation")]
    fn missing_symbol_panics() {
        sigma().rel("Z");
    }

    #[test]
    #[should_panic(expected = "duplicate relation symbol")]
    fn duplicate_names_rejected() {
        Schema::new([("R", 2), ("R", 3)]);
    }

    #[test]
    fn extend_preserves_ids() {
        let s = sigma();
        let s2 = s.extend([("T", 3)]);
        assert_eq!(s2.find("R"), s.find("R"));
        assert_eq!(s2.arity(s2.rel("T")), 3);
        assert_eq!(s2.len(), 4);
        // Original untouched.
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn renamed_produces_disjoint_copy() {
        let s = sigma();
        let s1 = s.renamed(|n| format!("{n}_1"));
        assert_eq!(s1.len(), s.len());
        assert!(s1.find("R").is_none());
        assert_eq!(s1.arity(s1.rel("R_1")), 2);
    }

    #[test]
    fn union_translates_ids() {
        let s = sigma();
        let t = Schema::new([("T", 3)]);
        let (u, map) = s.union(&t);
        assert_eq!(u.len(), 4);
        assert_eq!(map, vec![RelId(3)]);
        assert_eq!(u.name(map[0]), "T");
        assert_eq!(u.find("R"), s.find("R"));
    }

    #[test]
    fn schema_equality_is_structural() {
        assert_eq!(sigma(), sigma());
        assert_ne!(sigma(), Schema::new([("R", 2)]));
    }

    #[test]
    fn parse_compact_notation() {
        let s = Schema::parse("R/2, P/1").unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.arity(s.rel("R")), 2);
        assert!(Schema::parse("R/x").is_err());
        assert!(Schema::parse("/2").is_err());
        assert!(Schema::parse("R/1, R/2").is_err());
        assert!(Schema::parse("").unwrap().is_empty());
    }

    #[test]
    fn empty_schema() {
        let e = Schema::empty();
        assert!(e.is_empty());
        assert_eq!(e.max_arity(), 0);
    }
}

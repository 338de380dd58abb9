//! Database instances.
//!
//! An [`Instance`] over a schema `σ` associates a [`Relation`] of the right
//! arity with each symbol of `σ` (Section 2). All instances are finite; the
//! "unrestricted" results of the paper are exercised through the finite
//! certificates their proofs reduce to, never through actual infinite
//! objects.
//!
//! The operations here mirror the vocabulary the paper uses constantly:
//! *active domain* (`adom`), *extension* (`D' ⊇ D` with `D'` restricted to
//! `adom(D)` equal to `D`), *restriction* to a value set, unions, renamings,
//! and equality of view images.

use crate::relation::{Relation, Tuple};
use crate::schema::{RelId, Schema};
use crate::value::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A finite database instance over a fixed schema.
///
/// Ordering and hashing look at the relation contents only (instances over
/// different schemas are never meaningfully compared; equality still checks
/// the schema structurally).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Instance {
    schema: Schema,
    relations: Vec<Relation>,
}

impl PartialOrd for Instance {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Instance {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.relations.cmp(&other.relations)
    }
}

impl std::hash::Hash for Instance {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.relations.hash(state);
    }
}

impl Instance {
    /// The empty instance over `schema`.
    pub fn empty(schema: &Schema) -> Self {
        let relations = schema.iter().map(|(_, d)| Relation::new(d.arity)).collect();
        Instance { schema: schema.clone(), relations }
    }

    /// The instance's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Read access to one relation.
    pub fn rel(&self, rel: RelId) -> &Relation {
        &self.relations[rel.idx()]
    }

    /// Mutable access to one relation.
    pub fn rel_mut(&mut self, rel: RelId) -> &mut Relation {
        &mut self.relations[rel.idx()]
    }

    /// Read access by relation name.
    ///
    /// # Panics
    /// Panics if the schema lacks the symbol.
    pub fn rel_named(&self, name: &str) -> &Relation {
        self.rel(self.schema.rel(name))
    }

    /// Inserts a tuple into `rel`, returning whether it was new.
    pub fn insert(&mut self, rel: RelId, tuple: Tuple) -> bool {
        self.relations[rel.idx()].insert(tuple)
    }

    /// Inserts a tuple by relation name (test/example convenience).
    pub fn insert_named(&mut self, name: &str, tuple: Tuple) -> bool {
        let rel = self.schema.rel(name);
        self.insert(rel, tuple)
    }

    /// Total number of tuples across all relations.
    pub fn total_tuples(&self) -> usize {
        self.relations.iter().map(Relation::len).sum()
    }

    /// Whether every relation is empty.
    pub fn is_empty(&self) -> bool {
        self.relations.iter().all(Relation::is_empty)
    }

    /// The active domain: every value occurring in some tuple.
    pub fn adom(&self) -> BTreeSet<Value> {
        let mut out = BTreeSet::new();
        for r in &self.relations {
            r.collect_values(&mut out);
        }
        out
    }

    /// `adom` as a sorted vector (handy for indexing-based algorithms).
    pub fn adom_vec(&self) -> Vec<Value> {
        self.adom().into_iter().collect()
    }

    /// Whether any relation contains a labelled null.
    pub fn has_nulls(&self) -> bool {
        self.relations.iter().any(Relation::has_nulls)
    }

    /// Componentwise subset test (`D ⊆ D'` tuple-wise, same schema).
    pub fn is_subinstance_of(&self, other: &Instance) -> bool {
        self.schema == other.schema
            && self.relations.iter().zip(&other.relations).all(|(a, b)| a.is_subset(b))
    }

    /// The paper's *extension* relation (Section 3): `other` extends `self`
    /// iff `adom(self) ⊆ adom(other)` and the restriction of `other` to
    /// `adom(self)` equals `self`.
    pub fn is_extension_of(&self, base: &Instance) -> bool {
        if self.schema != base.schema {
            return false;
        }
        let base_adom = base.adom();
        if !base_adom.iter().all(|v| {
            // adom(base) ⊆ adom(self): every base value must occur in self.
            // (Computing adom(self) lazily would also work; this keeps the
            // common failure cheap.)
            self.adom_contains(*v)
        }) {
            return false;
        }
        &self.restrict_to(&base_adom) == base
    }

    fn adom_contains(&self, v: Value) -> bool {
        self.relations.iter().any(|r| r.iter().any(|t| t.contains(&v)))
    }

    /// The restriction of this instance to tuples using only values in `keep`.
    pub fn restrict_to(&self, keep: &BTreeSet<Value>) -> Instance {
        let mut out = Instance::empty(&self.schema);
        for (rel, _) in self.schema.iter() {
            for t in self.rel(rel).iter() {
                if t.iter().all(|v| keep.contains(v)) {
                    out.insert(rel, t.clone());
                }
            }
        }
        out
    }

    /// In-place componentwise union (`self := self ∪ other`).
    ///
    /// # Panics
    /// Panics if the schemas differ.
    pub fn union_with(&mut self, other: &Instance) {
        assert_eq!(self.schema, other.schema, "union of instances over different schemas");
        for (mine, theirs) in self.relations.iter_mut().zip(&other.relations) {
            mine.union_with(theirs);
        }
    }

    /// Componentwise union, returning a new instance.
    pub fn union(&self, other: &Instance) -> Instance {
        let mut out = self.clone();
        out.union_with(other);
        out
    }

    /// Applies a value map to every tuple of every relation (used to apply
    /// homomorphisms and domain permutations). Unmapped values are kept.
    pub fn map_values(&self, f: &BTreeMap<Value, Value>) -> Instance {
        Instance {
            schema: self.schema.clone(),
            relations: self
                .relations
                .iter()
                .map(|r| r.map_values(|v| f.get(&v).copied()))
                .collect(),
        }
    }

    /// The instance with all tuples containing labelled nulls removed
    /// (`null-free part` — the shape of certain-answer outputs).
    pub fn null_free(&self) -> Instance {
        Instance {
            schema: self.schema.clone(),
            relations: self.relations.iter().map(Relation::null_free).collect(),
        }
    }

    /// Re-targets this instance onto `target` schema using `mapping`, where
    /// `mapping[i]` is the symbol of `target` receiving relation `RelId(i)`.
    ///
    /// Used to move instances between a schema and its disjoint copies
    /// (Proposition 4.1, Theorem 4.5 constructions).
    ///
    /// # Panics
    /// Panics if arities disagree.
    pub fn transport(&self, target: &Schema, mapping: &[RelId]) -> Instance {
        assert_eq!(mapping.len(), self.schema.len());
        let mut out = Instance::empty(target);
        for (rel, _) in self.schema.iter() {
            let dst = mapping[rel.idx()];
            assert_eq!(self.schema.arity(rel), target.arity(dst), "transport arity mismatch");
            for t in self.rel(rel).iter() {
                out.insert(dst, t.clone());
            }
        }
        out
    }

    /// Replaces every labelled null with a fresh *named* constant starting
    /// from `first_fresh_name`, returning the frozen instance and the
    /// null→constant map. Freezing turns a chase result into an ordinary
    /// instance so it can be fed back to machinery that expects constants.
    pub fn freeze_nulls(&self, first_fresh_name: u32) -> (Instance, BTreeMap<Value, Value>) {
        let mut map = BTreeMap::new();
        let mut next = first_fresh_name;
        for v in self.adom() {
            if v.is_null() {
                map.insert(v, Value::Named(next));
                next += 1;
            }
        }
        (self.map_values(&map), map)
    }

    /// Renders the instance using human-readable constant names where
    /// available.
    pub fn render(&self, names: &impl crate::value::NameLookup) -> String {
        let mut out = String::new();
        for (i, (rel, d)) in self.schema.iter().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            out.push_str(&d.name);
            out.push_str(" = ");
            if d.arity == 0 {
                out.push_str(if self.rel(rel).truth() { "true" } else { "false" });
            } else {
                self.rel(rel).render_into(names, &mut out);
            }
        }
        out
    }

    /// Iterates `(RelId, &Relation)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (RelId, &Relation)> {
        self.relations.iter().enumerate().map(|(i, r)| (RelId(i as u32), r))
    }
}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (rel, d) in self.schema.iter() {
            if !first {
                writeln!(f)?;
            }
            first = false;
            if d.arity == 0 {
                write!(f, "{} = {}", d.name, self.rel(rel).truth())?;
            } else {
                write!(f, "{} = {}", d.name, self.rel(rel))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{named, null};

    fn schema() -> Schema {
        Schema::new([("R", 2), ("P", 1)])
    }

    fn v(i: u32) -> Value {
        named(i)
    }

    #[test]
    fn empty_and_insert() {
        let s = schema();
        let mut d = Instance::empty(&s);
        assert!(d.is_empty());
        assert!(d.insert_named("R", vec![v(0), v(1)]));
        assert!(!d.insert_named("R", vec![v(0), v(1)]));
        assert!(d.insert_named("P", vec![v(2)]));
        assert_eq!(d.total_tuples(), 2);
        assert_eq!(d.rel_named("R").len(), 1);
    }

    #[test]
    fn adom_collects_all_positions() {
        let s = schema();
        let mut d = Instance::empty(&s);
        d.insert_named("R", vec![v(0), v(1)]);
        d.insert_named("P", vec![v(5)]);
        let adom = d.adom();
        assert_eq!(adom.len(), 3);
        assert!(adom.contains(&v(5)));
        assert_eq!(d.adom_vec(), vec![v(0), v(1), v(5)]);
    }

    #[test]
    fn subinstance_and_union() {
        let s = schema();
        let mut d1 = Instance::empty(&s);
        d1.insert_named("R", vec![v(0), v(1)]);
        let mut d2 = d1.clone();
        d2.insert_named("P", vec![v(0)]);
        assert!(d1.is_subinstance_of(&d2));
        assert!(!d2.is_subinstance_of(&d1));
        let u = d1.union(&d2);
        assert_eq!(u, d2);
    }

    #[test]
    fn extension_semantics() {
        let s = schema();
        let mut base = Instance::empty(&s);
        base.insert_named("R", vec![v(0), v(1)]);

        // Adding a tuple with a *new* value is an extension.
        let mut ext = base.clone();
        ext.insert_named("R", vec![v(1), v(2)]);
        assert!(ext.is_extension_of(&base));

        // Adding a tuple entirely over old values is NOT an extension
        // (the restriction to adom(base) would differ from base).
        let mut not_ext = base.clone();
        not_ext.insert_named("R", vec![v(1), v(0)]);
        assert!(!not_ext.is_extension_of(&base));

        // Every instance extends itself and the empty instance.
        assert!(base.is_extension_of(&base));
        assert!(base.is_extension_of(&Instance::empty(&s)));
    }

    #[test]
    fn restrict_to_keeps_only_inside_tuples() {
        let s = schema();
        let mut d = Instance::empty(&s);
        d.insert_named("R", vec![v(0), v(1)]);
        d.insert_named("R", vec![v(1), v(2)]);
        let keep: BTreeSet<Value> = [v(0), v(1)].into_iter().collect();
        let r = d.restrict_to(&keep);
        assert_eq!(r.rel_named("R").len(), 1);
        assert!(r.rel_named("R").contains(&[v(0), v(1)]));
    }

    #[test]
    fn map_values_applies_partial_map() {
        let s = schema();
        let mut d = Instance::empty(&s);
        d.insert_named("R", vec![null(0), v(1)]);
        let mut m = BTreeMap::new();
        m.insert(null(0), v(7));
        let d2 = d.map_values(&m);
        assert!(d2.rel_named("R").contains(&[v(7), v(1)]));
    }

    #[test]
    fn freeze_nulls_is_injective() {
        let s = schema();
        let mut d = Instance::empty(&s);
        d.insert_named("R", vec![null(0), null(3)]);
        d.insert_named("P", vec![v(0)]);
        let (frozen, map) = d.freeze_nulls(100);
        assert!(!frozen.has_nulls());
        assert_eq!(map.len(), 2);
        let targets: BTreeSet<_> = map.values().collect();
        assert_eq!(targets.len(), 2);
        assert!(frozen.rel_named("P").contains(&[v(0)]));
    }

    #[test]
    fn transport_between_schema_copies() {
        let s = schema();
        let s1 = s.renamed(|n| format!("{n}_1"));
        let mut d = Instance::empty(&s);
        d.insert_named("R", vec![v(0), v(1)]);
        let mapping: Vec<RelId> = s.rel_ids().collect(); // same layout
        let d1 = d.transport(&s1, &mapping);
        assert!(d1.rel_named("R_1").contains(&[v(0), v(1)]));
    }

    #[test]
    fn null_free_part() {
        let s = schema();
        let mut d = Instance::empty(&s);
        d.insert_named("R", vec![v(0), null(0)]);
        d.insert_named("R", vec![v(0), v(1)]);
        let nf = d.null_free();
        assert_eq!(nf.rel_named("R").len(), 1);
    }

    #[test]
    fn render_with_names() {
        let mut names = crate::value::DomainNames::new();
        let a = names.intern("ann");
        let s = schema();
        let mut d = Instance::empty(&s);
        d.insert_named("P", vec![a]);
        assert!(d.render(&names).contains("P = {(ann)}"));
    }

    #[test]
    fn display_shows_propositions_as_truth() {
        let s = Schema::new([("p", 0)]);
        let mut d = Instance::empty(&s);
        assert_eq!(d.to_string(), "p = false");
        d.rel_mut(s.rel("p")).set_truth(true);
        assert_eq!(d.to_string(), "p = true");
    }
}

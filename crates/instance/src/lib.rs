//! # vqd-instance — the relational substrate
//!
//! Finite relational database instances, exactly as defined in Section 2 of
//! Segoufin & Vianu, *Views and Queries: Determinacy and Rewriting* (PODS
//! 2005): schemas are finite sets of relation symbols with arities,
//! instances assign finite relations over a fixed infinite domain, and
//! queries (built in the sibling crates) are generic computable mappings
//! between instances.
//!
//! This crate supplies everything the determinacy/rewriting machinery
//! assumes about its data model:
//!
//! * [`value`] — domain constants and the labelled nulls invented by the
//!   chase, plus fresh-null allocation;
//! * [`schema`] — interned relation symbols, schema unions, disjoint copies;
//! * [`relation`] / [`instance`] — canonical-ordered tuple sets, active
//!   domains, extensions, restrictions, value maps;
//! * [`indexed`] — an owned, incrementally maintained per-relation /
//!   per-column index over an instance, shared by every engine's hot loop;
//! * [`small`] — inline small-tuple storage for the index arena (arity ≤ 3
//!   without heap allocation, spill above);
//! * [`iso`] — isomorphism, automorphism and canonical-form machinery used
//!   by genericity checks (Proposition 4.3) and the semantic determinacy
//!   checker;
//! * [`gen`] — exhaustive enumeration of all instances over a bounded
//!   domain, and random sampling, the raw material of finite determinacy
//!   checking.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gen;
pub mod indexed;
pub mod instance;
pub mod iso;
pub mod relation;
pub mod schema;
pub mod small;
pub mod value;

pub use indexed::{index_stats, IndexMaintenance, IndexStats, IndexedInstance};
pub use instance::Instance;
pub use relation::{Relation, Tuple};
pub use schema::{RelDecl, RelId, Schema};
pub use small::{SmallTuple, INLINE_ARITY};
pub use value::{named, null, DomainNames, NameLookup, NameTable, NullGen, Value};

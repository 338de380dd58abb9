//! Inline small-tuple storage for the index arena.
//!
//! Almost every tuple in this codebase has arity ≤ 3 (binary edge
//! relations plus the occasional unary predicate), yet the index arena
//! historically heap-allocated a `Vec<Value>` per tuple — one allocation
//! on every incremental insert and every fresh build. [`SmallTuple`]
//! stores up to [`INLINE_ARITY`] values inline ([`Value`] is `Copy` and
//! word-sized) and spills to a heap `Vec` only above that, removing the
//! per-tuple allocation from both paths.
//!
//! The split is observable through the [`Metric::TupleInline`] /
//! [`Metric::TupleSpilled`] counters, so benches can report the
//! allocation delta. All comparison, hashing and `Debug` go through
//! [`as_slice`](SmallTuple::as_slice), which keeps ordering and the
//! canonical index fingerprint identical to the `Vec` representation —
//! the fingerprint property tests pin this.
//!
//! [`Metric::TupleInline`]: vqd_obs::Metric::TupleInline
//! [`Metric::TupleSpilled`]: vqd_obs::Metric::TupleSpilled

use crate::value::{named, Value};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use vqd_obs::Metric;

/// Largest arity stored without a heap allocation.
pub const INLINE_ARITY: usize = 3;

/// A tuple of [`Value`]s, inline up to arity [`INLINE_ARITY`], heap above.
#[derive(Clone)]
pub enum SmallTuple {
    /// Up to [`INLINE_ARITY`] values held in place; slots past `len` are
    /// padding and never observed.
    Inline {
        /// Number of live values in `vals`.
        len: u8,
        /// Value storage; only `vals[..len]` is meaningful.
        vals: [Value; INLINE_ARITY],
    },
    /// Arity above [`INLINE_ARITY`]: ordinary heap storage.
    Heap(Vec<Value>),
}

impl SmallTuple {
    /// Copies a slice into the inline form when it fits, else the heap,
    /// and counts the copy as an arena tuple.
    pub fn from_slice(t: &[Value]) -> SmallTuple {
        let small = SmallTuple::copy_of(t);
        small.count_stored();
        small
    }

    /// Converts an owned `Vec`, reusing its allocation on the spill path.
    pub fn from_vec(t: Vec<Value>) -> SmallTuple {
        let small = if t.len() <= INLINE_ARITY {
            SmallTuple::copy_of(&t)
        } else {
            SmallTuple::Heap(t)
        };
        small.count_stored();
        small
    }

    /// [`SmallTuple::from_slice`] without counting: for a copy that may
    /// be dropped before it reaches an arena.
    pub(crate) fn copy_of(t: &[Value]) -> SmallTuple {
        if t.len() <= INLINE_ARITY {
            let mut vals = [named(0); INLINE_ARITY];
            vals[..t.len()].copy_from_slice(t);
            SmallTuple::Inline { len: t.len() as u8, vals }
        } else {
            SmallTuple::Heap(t.to_vec())
        }
    }

    /// Counts this tuple as stored in an arena, inline or spilled.
    pub(crate) fn count_stored(&self) {
        let metric = match self {
            SmallTuple::Inline { .. } => Metric::TupleInline,
            SmallTuple::Heap(_) => Metric::TupleSpilled,
        };
        vqd_obs::count(metric, 1);
    }

    /// The tuple's values.
    pub fn as_slice(&self) -> &[Value] {
        match self {
            SmallTuple::Inline { len, vals } => &vals[..*len as usize],
            SmallTuple::Heap(v) => v,
        }
    }

    /// Copies out to an ordinary `Vec`.
    pub fn to_vec(&self) -> Vec<Value> {
        self.as_slice().to_vec()
    }

    /// Tuple arity.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }
}

impl Deref for SmallTuple {
    type Target = [Value];

    fn deref(&self) -> &[Value] {
        self.as_slice()
    }
}

impl PartialEq for SmallTuple {
    fn eq(&self, other: &SmallTuple) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for SmallTuple {}

impl PartialOrd for SmallTuple {
    fn partial_cmp(&self, other: &SmallTuple) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SmallTuple {
    fn cmp(&self, other: &SmallTuple) -> Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for SmallTuple {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for SmallTuple {
    /// Renders exactly like `Vec<Value>`'s `Debug` (a `[..]` list), so
    /// index fingerprints are unchanged by the representation switch.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl From<Vec<Value>> for SmallTuple {
    fn from(t: Vec<Value>) -> SmallTuple {
        SmallTuple::from_vec(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::null;
    use vqd_obs::{local_snapshot, Metric};

    #[test]
    fn inline_and_heap_agree_with_vec_semantics() {
        for arity in 0..=5 {
            let t: Vec<Value> = (0..arity as u32).map(named).collect();
            let s = SmallTuple::from_slice(&t);
            assert_eq!(s.as_slice(), t.as_slice());
            assert_eq!(s.len(), t.len());
            assert_eq!(s.to_vec(), t);
            assert_eq!(format!("{s:?}"), format!("{t:?}"));
            assert!(matches!(&s, SmallTuple::Inline { .. }) == (arity <= INLINE_ARITY));
        }
    }

    #[test]
    fn ordering_matches_slice_ordering() {
        let mut tuples = [
            SmallTuple::from_slice(&[named(2), named(0)]),
            SmallTuple::from_slice(&[named(0), null(5)]),
            SmallTuple::from_slice(&[named(0), named(1), named(2), named(3)]),
            SmallTuple::from_slice(&[named(0)]),
        ];
        let mut vecs: Vec<Vec<Value>> = tuples.iter().map(SmallTuple::to_vec).collect();
        tuples.sort();
        vecs.sort();
        assert_eq!(tuples.iter().map(SmallTuple::to_vec).collect::<Vec<_>>(), vecs);
    }

    #[test]
    fn construction_reports_the_allocation_split() {
        let before = local_snapshot();
        let _a = SmallTuple::from_slice(&[named(0), named(1)]);
        let _b = SmallTuple::from_vec(vec![named(0); 4]);
        let _c = SmallTuple::from_vec(vec![named(9)]);
        let delta = local_snapshot().diff(&before);
        assert_eq!(delta.get(Metric::TupleInline), 2);
        assert_eq!(delta.get(Metric::TupleSpilled), 1);
    }
}

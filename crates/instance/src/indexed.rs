//! An owned, incrementally maintained index over an [`Instance`].
//!
//! The homomorphism engine, the Datalog saturator, the chase and every
//! determinacy search built on top of them all want the same accelerator:
//! per relation, per column, a value → tuple-list map (plus a flat
//! all-tuples list for unbound atoms). Historically that accelerator was a
//! borrowed `InstanceIndex<'a>` rebuilt from scratch at every call site —
//! including once *per round* inside the semi-naive fixpoint, where the
//! borrow had to be dropped before the instance could be mutated and was
//! therefore reconstructed from the full instance on every iteration.
//!
//! [`IndexedInstance`] inverts the ownership: it *owns* the instance and
//! keeps the index up to date as tuples are inserted or merged, so a
//! fixpoint loop pays O(Δ) index maintenance per round instead of O(db).
//! A [generation counter](IndexedInstance::generation) increases on every
//! effective mutation, so callers that cache anything derived from the
//! index can detect staleness instead of silently using a stale view.
//!
//! The [`IndexMaintenance`] policy is a DESIGN.md-style ablation knob: the
//! [`Rebuild`](IndexMaintenance::Rebuild) mode reproduces the historical
//! rebuild-per-round cost (inserts leave the index dirty; [`refresh`]
//! rebuilds it wholesale), which is what the `fixpoint` bench records as
//! its baseline.
//!
//! [`refresh`]: IndexedInstance::refresh

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::{BuildHasherDefault, Hasher};

use crate::instance::Instance;
use crate::relation::Tuple;
use crate::schema::{RelId, Schema};
use crate::small::SmallTuple;
use crate::value::Value;
use vqd_obs::Metric;

/// A multiplicative hasher for posting-map keys.
///
/// A [`Value`] hashes as a flavour tag plus one interned `u32` id, so
/// SipHash's per-key setup dominates every probe. This hasher folds
/// each word in with one rotate, xor and multiply. It is not
/// collision-resistant, and need not be: interned ids and null labels
/// are handed out sequentially by the parser and the chase, never
/// chosen by a client, so an adversary cannot aim keys at one bucket.
#[derive(Clone, Copy, Default)]
struct ValueHasher(u64);

impl ValueHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for ValueHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    /// The interned id or null label.
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    /// The derived `Hash` writes the enum discriminant as an `isize`.
    fn write_isize(&mut self, n: isize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// value → arena ids of the tuples holding it, for one column.
type Postings = HashMap<Value, Vec<u32>, BuildHasherDefault<ValueHasher>>;

/// Index maintenance policy — an ablation knob for the fixpoint engines.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum IndexMaintenance {
    /// Maintain the index incrementally on every insert (the default):
    /// saturation loops never rebuild.
    #[default]
    Incremental,
    /// Let inserts leave the index dirty and rebuild it wholesale on
    /// [`IndexedInstance::refresh`] — the historical rebuild-per-round
    /// behaviour, kept as the honest baseline for `BENCH_engine.json`.
    Rebuild,
}

/// Snapshot of the per-thread index maintenance counters.
///
/// The counters are thread-local so a server worker (one request per
/// thread at a time) can diff two snapshots around a request and report
/// exactly the index work that request caused.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct IndexStats {
    /// Full index builds (fresh constructions plus dirty rebuilds).
    pub builds: u64,
    /// Tuples applied to an index incrementally (no rebuild).
    pub delta_tuples: u64,
}

/// Returns the current thread's cumulative index-maintenance counters.
///
/// Compatibility wrapper over the [`vqd_obs`] engine counters
/// ([`Metric::IndexBuilds`] / [`Metric::IndexDeltaTuples`]), where the
/// counts now live alongside every other engine metric; pre-obs call
/// sites (the server's wire `index_builds`/`index_tuples` fields, the
/// fixpoint bench, the governance sweeps) keep diffing these snapshots
/// unchanged.
pub fn index_stats() -> IndexStats {
    IndexStats {
        builds: vqd_obs::metric_value(Metric::IndexBuilds),
        delta_tuples: vqd_obs::metric_value(Metric::IndexDeltaTuples),
    }
}

fn note_build() {
    vqd_obs::count(Metric::IndexBuilds, 1);
}

fn note_delta(n: u64) {
    vqd_obs::count(Metric::IndexDeltaTuples, n);
}

/// An [`Instance`] together with a maintained search accelerator: per
/// relation an arena of its tuples, and per column a value → arena-id map.
///
/// Tuple identifiers are arena positions (`u32`), stable for the lifetime
/// of the index; [`probe`](Self::probe) returns ids and
/// [`tuple`](Self::tuple) resolves them. A fresh build enumerates each
/// relation in its canonical (sorted) order, so one-shot uses behave
/// exactly like the historical borrowed index; incremental inserts append.
#[derive(Clone, Debug)]
pub struct IndexedInstance {
    instance: Instance,
    /// `arena[rel]` — owned copies of the relation's tuples, in index
    /// order; arity ≤ [`crate::small::INLINE_ARITY`] stored inline.
    arena: Vec<Vec<SmallTuple>>,
    /// `by_col[rel][col][value]` — arena ids of tuples with `value` at `col`.
    by_col: Vec<Vec<Postings>>,
    generation: u64,
    maintenance: IndexMaintenance,
    dirty: bool,
}

impl IndexedInstance {
    /// An indexed empty instance over `schema`.
    pub fn empty(schema: &Schema) -> Self {
        Self::new(Instance::empty(schema))
    }

    /// Takes ownership of `instance` and builds its index (one pass).
    pub fn new(instance: Instance) -> Self {
        let mut idx = IndexedInstance {
            instance,
            arena: Vec::new(),
            by_col: Vec::new(),
            generation: 0,
            maintenance: IndexMaintenance::Incremental,
            dirty: false,
        };
        idx.rebuild();
        idx
    }

    /// Builds an index over a clone of `instance`.
    pub fn from_instance(instance: &Instance) -> Self {
        Self::new(instance.clone())
    }

    /// Sets the maintenance policy (builder style). Under
    /// [`IndexMaintenance::Rebuild`], mutations mark the index dirty and
    /// [`refresh`](Self::refresh) rebuilds it from scratch.
    pub fn with_maintenance(mut self, maintenance: IndexMaintenance) -> Self {
        self.maintenance = maintenance;
        self
    }

    /// The underlying instance.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// Unwraps the underlying instance, discarding the index.
    pub fn into_instance(self) -> Instance {
        self.instance
    }

    /// The generation counter: increases by one for every tuple that
    /// actually entered the instance. Unchanged by no-op mutations,
    /// rebuilds and refreshes.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Rebuilds the whole index from the instance (counts as a build).
    fn rebuild(&mut self) {
        self.arena.clear();
        self.by_col.clear();
        for (rel, decl) in self.instance.schema().iter() {
            let mut cols: Vec<Postings> = (0..decl.arity).map(|_| Postings::default()).collect();
            let mut tuples = Vec::with_capacity(self.instance.rel(rel).len());
            for t in self.instance.rel(rel).iter() {
                let id = tuples.len() as u32;
                for (c, &v) in t.iter().enumerate() {
                    cols[c].entry(v).or_default().push(id);
                }
                tuples.push(SmallTuple::from_slice(t));
            }
            self.arena.push(tuples);
            self.by_col.push(cols);
        }
        self.dirty = false;
        note_build();
    }

    /// Brings the index up to date. A no-op under
    /// [`IndexMaintenance::Incremental`] (the index is never stale); under
    /// [`IndexMaintenance::Rebuild`] this is the per-round full rebuild the
    /// historical engines paid.
    pub fn refresh(&mut self) {
        if self.dirty {
            self.rebuild();
        }
    }

    /// Records `tuple` (already inserted into the instance) in the index.
    fn index_tuple(&mut self, rel: RelId, tuple: SmallTuple) {
        let r = rel.idx();
        let id = self.arena[r].len() as u32;
        for (c, &v) in tuple.iter().enumerate() {
            self.by_col[r][c].entry(v).or_default().push(id);
        }
        tuple.count_stored();
        self.arena[r].push(tuple);
        note_delta(1);
    }

    /// Inserts a tuple, maintaining the index; returns `true` iff the
    /// tuple was new. Bumps the generation on effective inserts only.
    ///
    /// The arena copy is taken from the slice before the `Vec` moves
    /// into the instance, so at inline arity an insert allocates nothing
    /// beyond the caller's `Vec`; past it, the arena spill is the one
    /// extra allocation.
    pub fn insert(&mut self, rel: RelId, tuple: Tuple) -> bool {
        let copy = match self.maintenance {
            IndexMaintenance::Incremental => Some(SmallTuple::copy_of(&tuple)),
            IndexMaintenance::Rebuild => None,
        };
        if !self.instance.insert(rel, tuple) {
            return false;
        }
        self.generation += 1;
        match copy {
            Some(copy) => self.index_tuple(rel, copy),
            None => self.dirty = true,
        }
        true
    }

    /// Inserts by relation name (panics if the name is unknown).
    pub fn insert_named(&mut self, name: &str, tuple: Tuple) -> bool {
        let rel = self.instance.schema().rel(name);
        self.insert(rel, tuple)
    }

    /// Merges every tuple of `delta` (same schema) into the instance,
    /// maintaining the index; returns how many tuples were new.
    pub fn apply_delta(&mut self, delta: &Instance) -> u64 {
        assert_eq!(self.instance.schema(), delta.schema(), "apply_delta requires matching schemas");
        let mut added = 0;
        for (rel, r) in delta.iter() {
            for t in r.iter() {
                if self.insert(rel, t.clone()) {
                    added += 1;
                }
            }
        }
        added
    }

    /// All tuples of `rel`, in index (arena) order.
    pub fn scan(&self, rel: RelId) -> &[SmallTuple] {
        debug_assert!(!self.dirty, "IndexedInstance read while dirty; call refresh()");
        &self.arena[rel.idx()]
    }

    /// Arena ids of the tuples of `rel` holding `v` at column `col`.
    pub fn probe(&self, rel: RelId, col: usize, v: Value) -> &[u32] {
        debug_assert!(!self.dirty, "IndexedInstance read while dirty; call refresh()");
        self.by_col[rel.idx()][col].get(&v).map_or(&[], Vec::as_slice)
    }

    /// Resolves an arena id from [`probe`](Self::probe) to its tuple.
    pub fn tuple(&self, rel: RelId, id: u32) -> &SmallTuple {
        &self.arena[rel.idx()][id as usize]
    }

    /// Converts into a shared, immutable handle.
    ///
    /// The cross-request cache hands the same built index to many
    /// concurrent readers; `Arc` makes the sharing explicit and the
    /// read-only API (`scan`/`probe`/`tuple`/`fingerprint`) is all that
    /// remains reachable through it without cloning.
    pub fn into_shared(self) -> std::sync::Arc<IndexedInstance> {
        std::sync::Arc::new(self)
    }

    /// Approximate resident bytes of the instance plus its index.
    ///
    /// Used for byte-bounded cache accounting, so it only needs to be
    /// stable and monotone in the data size, not exact: it counts tuple
    /// payloads (instance set + arena copies, including heap spills past
    /// [`crate::small::INLINE_ARITY`]) and per-column posting entries at
    /// `size_of` cost, ignoring allocator slack and map bucket overhead.
    pub fn approx_bytes(&self) -> u64 {
        use std::mem::size_of;
        let value = size_of::<Value>() as u64;
        let mut bytes = size_of::<Self>() as u64;
        for (rel, decl) in self.instance.schema().iter() {
            let r = rel.idx();
            let rows = self.arena[r].len() as u64;
            // Instance-side BTreeSet tuples: one Vec<Value> per row.
            bytes += rows * (size_of::<Tuple>() as u64 + decl.arity as u64 * value);
            // Arena copies: inline slots are part of SmallTuple; spilled
            // rows additionally own a heap Vec of the full arity.
            bytes += rows * size_of::<SmallTuple>() as u64;
            if decl.arity > crate::small::INLINE_ARITY {
                bytes += rows * decl.arity as u64 * value;
            }
            for col in &self.by_col[r] {
                for ids in col.values() {
                    bytes += value + size_of::<Vec<u32>>() as u64;
                    bytes += ids.len() as u64 * size_of::<u32>() as u64;
                }
            }
        }
        bytes
    }

    /// A canonical rendering of the *index structure* (not just the
    /// instance): per relation the sorted arena contents, per column the
    /// sorted value → sorted-tuple-list map, with ids resolved to tuples so
    /// arena order is irrelevant. Two indexes over the same instance —
    /// one built fresh, one maintained through any insert/merge history —
    /// must produce identical fingerprints; the property tests rely on it.
    pub fn fingerprint(&self) -> String {
        let mut out = String::new();
        for (rel, decl) in self.instance.schema().iter() {
            let r = rel.idx();
            let mut tuples: Vec<&SmallTuple> = self.arena[r].iter().collect();
            tuples.sort();
            let _ = writeln!(out, "rel {} arity {} arena {:?}", decl.name, decl.arity, tuples);
            for (c, col) in self.by_col[r].iter().enumerate() {
                let mut entries: Vec<(Value, Vec<&SmallTuple>)> = col
                    .iter()
                    .map(|(v, ids)| {
                        let mut ts: Vec<&SmallTuple> =
                            ids.iter().map(|&id| &self.arena[r][id as usize]).collect();
                        ts.sort();
                        (*v, ts)
                    })
                    .collect();
                entries.sort();
                let _ = writeln!(out, "  col {c}: {entries:?}");
            }
        }
        out
    }
}

impl From<Instance> for IndexedInstance {
    fn from(instance: Instance) -> Self {
        Self::new(instance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::named;

    fn schema() -> Schema {
        Schema::new([("E", 2), ("P", 1)])
    }

    #[test]
    fn maintained_matches_fresh() {
        let s = schema();
        let mut idx = IndexedInstance::empty(&s);
        for (a, b) in [(3, 1), (0, 2), (1, 1), (3, 1)] {
            idx.insert_named("E", vec![named(a), named(b)]);
        }
        idx.insert_named("P", vec![named(2)]);
        let fresh = IndexedInstance::from_instance(idx.instance());
        assert_eq!(idx.fingerprint(), fresh.fingerprint());
    }

    #[test]
    fn generation_counts_effective_inserts() {
        let s = schema();
        let mut idx = IndexedInstance::empty(&s);
        assert_eq!(idx.generation(), 0);
        assert!(idx.insert_named("E", vec![named(0), named(1)]));
        assert_eq!(idx.generation(), 1);
        // Duplicate: no-op, generation unchanged.
        assert!(!idx.insert_named("E", vec![named(0), named(1)]));
        assert_eq!(idx.generation(), 1);
        let mut delta = Instance::empty(&s);
        delta.insert_named("E", vec![named(0), named(1)]);
        delta.insert_named("E", vec![named(1), named(2)]);
        assert_eq!(idx.apply_delta(&delta), 1);
        assert_eq!(idx.generation(), 2);
    }

    #[test]
    fn probe_and_scan_agree_with_instance() {
        let s = schema();
        let mut idx = IndexedInstance::empty(&s);
        idx.insert_named("E", vec![named(0), named(1)]);
        idx.insert_named("E", vec![named(1), named(2)]);
        idx.insert_named("E", vec![named(0), named(2)]);
        let e = idx.instance().schema().rel("E");
        assert_eq!(idx.scan(e).len(), 3);
        let hits = idx.probe(e, 0, named(0));
        assert_eq!(hits.len(), 2);
        for &id in hits {
            assert_eq!(idx.tuple(e, id)[0], named(0));
        }
        assert!(idx.probe(e, 1, named(9)).is_empty());
    }

    #[test]
    fn approx_bytes_grows_with_data_and_shared_handle_reads() {
        let s = schema();
        let empty = IndexedInstance::empty(&s);
        let base = empty.approx_bytes();
        let mut idx = IndexedInstance::empty(&s);
        for i in 0..16 {
            idx.insert_named("E", vec![named(i), named(i + 1)]);
        }
        let small = idx.approx_bytes();
        assert!(small > base, "data must cost bytes: {small} vs {base}");
        for i in 16..64 {
            idx.insert_named("E", vec![named(i), named(i + 1)]);
        }
        assert!(idx.approx_bytes() > small, "more data must cost more bytes");

        let fp = idx.fingerprint();
        let shared = idx.into_shared();
        let reader = std::sync::Arc::clone(&shared);
        let e = reader.instance().schema().rel("E");
        assert_eq!(reader.scan(e).len(), 64);
        assert_eq!(shared.fingerprint(), fp);
    }

    #[test]
    fn rebuild_mode_goes_dirty_then_refreshes() {
        let s = schema();
        let mut idx = IndexedInstance::empty(&s).with_maintenance(IndexMaintenance::Rebuild);
        idx.insert_named("E", vec![named(0), named(1)]);
        idx.refresh();
        let e = idx.instance().schema().rel("E");
        assert_eq!(idx.scan(e).len(), 1);
        let fresh = IndexedInstance::from_instance(idx.instance());
        assert_eq!(idx.fingerprint(), fresh.fingerprint());
    }
}

//! Cross-request instance cache: sharded, LRU, capacity- and
//! byte-bounded.
//!
//! Workers historically rebuilt every `IndexedInstance` from the wire
//! payload, even when consecutive requests chased the same extent — the
//! repeat-workload shape of view-based access control, where one fixed
//! extent is queried many times. The cache closes that gap with three
//! entry kinds sharing one bounded store:
//!
//! * **handle entries** (`h<seq>`), registered by `put_instance`: the
//!   extent's *source text* plus a name-sensitive fingerprint. On a
//!   derived miss the source is parsed into the request's local
//!   [`DomainNames`], so a handle request interns constants exactly as
//!   the inline form would — which is what makes hit and miss replies
//!   byte-identical;
//! * **derived entries** (`d:…`), inserted by the engine on a miss: a
//!   [`Derived`] holding a shared [`Arc<IndexedInstance>`] and the
//!   *render table* of the request that built it — its [`DomainNames`]
//!   after the views, the query and the extent were parsed, frozen into
//!   a compact [`NameTable`] — and the pair's compiled
//!   [`CertainPlan`] or the [`PlanFallback`] that sends it to the
//!   chase. Its [`DerivedKind`] says which certain-answer route the
//!   index feeds: the extent itself for a pair with a plan, the chased
//!   canonical database `V_∅^{-1}(E)` otherwise. The entry is keyed by
//!   the request context (schema, views, query sources) plus the extent
//!   fingerprint, and the table and the plan are pure functions of that
//!   key. A later request with the same key evaluates over the cached
//!   index with **zero** index builds and no plan compile, and renders
//!   from the cached table, so the handle's source is **not
//!   re-parsed**. Plans live only here, so their bytes count against
//!   [`CacheConfig::max_bytes`] and they are evicted with their entry.
//!   A hit on an entry without a table or a plan (a disk record: plans
//!   are never written to disk, and old records carry no table) fills
//!   in what is missing — parsing the extent only for the table,
//!   compiling only for the plan, never chasing — and re-inserts it;
//! * **pair entries** (`p:…`), inserted by the engine after a definitive
//!   `decide_unrestricted`/`rewrite` decision: a [`PairVerdict`] holding
//!   the pair's fragment, the verdict, the rendered rewriting and the
//!   steps and tuples the deciding run spent. The decision reads only
//!   the pair, never data, so the entry is keyed by the request context
//!   alone (the same hash [`derived_key`] starts with), and decide and
//!   rewrite requests share it. A later request whose budget admits the
//!   recorded work ([`Budget::admits`]) is answered from the entry
//!   without parsing; any other request decides afresh. Pair entries
//!   are never spilled to disk: an evicted one is dropped.
//!
//! A handle is a cache *reference*, not a lease: under entry or byte
//! pressure the LRU policy may evict it, and the client re-puts on an
//! `unknown-handle` error. Explicit `evict_instance` removes only the
//! named handle; derived entries age out via LRU.
//!
//! Counters (`cache.hits`/`cache.misses` for derived lookups,
//! `cache.pair_hits`/`cache.pair_misses` for pair lookups,
//! `cache.evictions`/`cache.puts`) and gauges
//! (`cache.entries`/`cache.bytes`) live in the server's observability
//! [`Registry`], registered once when the cache is built; `stats`,
//! `metrics_prom` and `cache_stats` all read them there.
//!
//! With [`CacheConfig::disk`] set, a crash-only [`DiskTier`] backs the
//! RAM LRU: every `insert_derived` writes through to an append-only
//! segment, a RAM miss falls back to a verified disk load that is
//! promoted back into the LRU, the handle table snapshots atomically on
//! every mutation, and startup warm-restores both — so a restarted server
//! answers its first handle request with zero index builds. Every disk
//! failure (torn write, truncation, bit flip, I/O error, fingerprint
//! mismatch) degrades to a counted clean miss; see [`crate::disk`].
//!
//! [`DomainNames`]: vqd_instance::DomainNames
//! [`NameTable`]: vqd_instance::NameTable
//! [`CertainPlan`]: vqd_core::certain::CertainPlan
//! [`PlanFallback`]: vqd_core::certain::PlanFallback
//! [`Budget::admits`]: vqd_budget::Budget::admits

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use vqd_budget::{Budget, WorkStats};
use vqd_core::certain::{CertainPlan, PlanFallback};
use vqd_instance::{IndexedInstance, NameTable};
use vqd_obs::{Counter, Gauge, Registry};
use vqd_router::Fragment;

use crate::disk::{DiskConfig, DiskTier};

/// Sizing knobs for the cross-request instance cache. Lives inside
/// [`crate::server::ServerCaps`] so existing `ServerConfig` literals
/// keep compiling.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Lock shards. Keys hash to a shard; bounds are split evenly.
    pub shards: usize,
    /// Total entry cap across shards (handles, derived and pair entries).
    pub max_entries: usize,
    /// Total approximate-byte cap across shards.
    pub max_bytes: u64,
    /// Optional crash-only persistent tier (see [`crate::disk`]).
    /// `None` keeps the cache purely in-memory, exactly as before.
    pub disk: Option<DiskConfig>,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig { shards: 4, max_entries: 128, max_bytes: 64 << 20, disk: None }
    }
}

/// A registered extent: everything needed to replay it into a request's
/// local interning context.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HandleEntry {
    /// Schema spec the extent was validated against at put time.
    pub schema: String,
    /// The extent source text, re-parsed per request.
    pub extent: String,
    /// Name-sensitive fingerprint (see [`crate::engine`]): equal
    /// fingerprints under one request context mean identical chases.
    pub fingerprint: String,
    /// Ground tuples in the extent.
    pub tuples: u64,
}

/// Which certain-answer route a derived entry's index feeds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DerivedKind {
    /// The chased canonical database `V_∅^{-1}(E)`, evaluated by the
    /// query and filtered for nulls (the chase route).
    Chased,
    /// The extent itself, evaluated by the pair's prepared plan (the
    /// plan route).
    Extent,
}

/// A pair's certain-answer plan, or why it takes the chase route.
pub type PlanLookup = Result<Arc<CertainPlan>, PlanFallback>;

/// A derived entry: an index for one certain-answer route and, once a
/// request has served through it, that request's name table and the
/// pair's plan lookup.
#[derive(Clone, Debug)]
pub struct Derived {
    /// The indexed instance: see [`Derived::kind`].
    pub index: Arc<IndexedInstance>,
    /// The render table of the request that built it (see the module
    /// docs); `None` for entries inserted through
    /// [`InstanceCache::insert_index`] or restored from a record that
    /// predates stored tables.
    pub names: Option<Arc<NameTable>>,
    /// Which route `index` feeds.
    pub kind: DerivedKind,
    /// The pair's compiled plan or its fallback reason. Every entry a
    /// request builds holds one; `None` for entries inserted through
    /// [`InstanceCache::insert_index`] or restored from disk, which
    /// stores no plans.
    pub plan: Option<PlanLookup>,
}

impl Derived {
    /// Approximate bytes held, the name table and the plan included.
    pub fn approx_bytes(&self) -> u64 {
        let plan = match &self.plan {
            Some(Ok(plan)) => plan.approx_bytes(),
            _ => 0,
        };
        self.index.approx_bytes() + self.names.as_ref().map_or(0, |n| n.approx_bytes()) + plan
    }
}

/// A pair entry: a definitive decide/rewrite verdict for one
/// `(schema, views, query)` and what deciding it cost.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PairVerdict {
    /// The fragment the decision routed on.
    pub fragment: Fragment,
    /// Whether the views determine the query.
    pub determined: bool,
    /// The rendered rewriting, when one exists.
    pub rewriting: Option<String>,
    /// The steps and tuples the deciding run spent (`elapsed` is zero).
    pub cost: WorkStats,
}

impl PairVerdict {
    /// Approximate bytes held.
    pub fn approx_bytes(&self) -> u64 {
        (std::mem::size_of::<PairVerdict>() + self.rewriting.as_ref().map_or(0, String::len)) as u64
    }
}

enum Slot {
    Handle(HandleEntry),
    Derived(Derived),
    Pair(PairVerdict),
}

struct Entry {
    slot: Slot,
    bytes: u64,
    /// LRU stamp from the cache-wide clock; smallest = evict first.
    stamp: u64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<String, Entry>,
}

/// Point-in-time cache counters (served by the `cache_stats` op).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Live entries (handles, derived and pair entries).
    pub entries: u64,
    /// Approximate bytes held.
    pub bytes: u64,
    /// Derived-entry lookups that found a cached entry.
    pub hits: u64,
    /// Derived-entry lookups that had to build and insert one.
    pub misses: u64,
    /// Entries removed — LRU pressure plus explicit evicts.
    pub evictions: u64,
    /// `put_instance` registrations.
    pub puts: u64,
    /// Disk loads that returned a verified record (0 without a tier).
    pub disk_hits: u64,
    /// Disk lookups that found nothing usable (0 without a tier).
    pub disk_misses: u64,
    /// Records appended to the segment (0 without a tier).
    pub disk_spills: u64,
    /// Disk hits promoted back into the RAM LRU (0 without a tier).
    pub disk_promotions: u64,
    /// Records dropped for bad framing/checksum/fingerprint.
    pub disk_corrupt_dropped: u64,
    /// Disk I/O failures demoted to clean misses.
    pub disk_io_errors: u64,
    /// Live segment bytes (0 without a tier).
    pub disk_bytes: u64,
}

/// The sharded LRU described in the module docs.
pub struct InstanceCache {
    shards: Vec<Mutex<Shard>>,
    config: CacheConfig,
    tier: Option<Arc<DiskTier>>,
    clock: AtomicU64,
    next_handle: AtomicU64,
    /// Bumped after every handle-table mutation; see
    /// [`snapshot_handles`](Self::snapshot_handles).
    handle_gen: AtomicU64,
    /// The handle-table generation the newest on-disk snapshot covers.
    /// Its mutex is the single writer every snapshot goes through.
    snapshot_gen: Mutex<u64>,
    entries: Arc<Gauge>,
    bytes: Arc<Gauge>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    pair_hits: Arc<Counter>,
    pair_misses: Arc<Counter>,
    evictions: Arc<Counter>,
    puts: Arc<Counter>,
}

fn hash64(parts: &[&str]) -> u64 {
    let mut h = DefaultHasher::new();
    for p in parts {
        p.hash(&mut h);
    }
    h.finish()
}

/// Locks a shard. Cache state stays consistent across a poisoned lock
/// (plain maps + saturating totals), so recover rather than wedge.
fn lock_recovering(shard: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    match shard.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Hash of a request context: the schema, views and query *sources*.
fn context_hash(schema: &str, views: &str, query: &str) -> u64 {
    hash64(&[schema, views, query])
}

/// Stable derived-entry key for one `(request context, extent)` pair.
/// The context hash covers the sources because the request-local
/// constant interning (and therefore the cached index's value ids and
/// the rendered answer order) depends on them.
pub fn derived_key(schema: &str, views: &str, query: &str, fingerprint: &str) -> String {
    format!("d:{:016x}:{fingerprint}", context_hash(schema, views, query))
}

/// Stable pair-entry key for one request context. It hashes the
/// sources, not the parsed pair, because a hit must be found before
/// anything is parsed.
pub fn pair_key(schema: &str, views: &str, query: &str) -> String {
    format!("p:{:016x}", context_hash(schema, views, query))
}

impl InstanceCache {
    /// A cache counting into `registry`. With a disk
    /// config, opens (or recovers) the persistent tier and
    /// warm-restores the handle table plus the newest derived entries
    /// that fit the RAM budget — the index rebuilds happen *here*, at
    /// startup, so the first post-restart request is a pure RAM hit
    /// with zero index builds in its work envelope.
    pub fn new(config: CacheConfig, registry: Arc<Registry>) -> InstanceCache {
        let shards = config.shards.max(1);
        let tier = config.disk.clone().map(|d| Arc::new(DiskTier::open(d, Arc::clone(&registry))));
        let cache = InstanceCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            config,
            tier,
            clock: AtomicU64::new(0),
            next_handle: AtomicU64::new(0),
            handle_gen: AtomicU64::new(0),
            snapshot_gen: Mutex::new(0),
            entries: registry.gauge("cache.entries"),
            bytes: registry.gauge("cache.bytes"),
            hits: registry.counter("cache.hits"),
            misses: registry.counter("cache.misses"),
            pair_hits: registry.counter("cache.pair_hits"),
            pair_misses: registry.counter("cache.pair_misses"),
            evictions: registry.counter("cache.evictions"),
            puts: registry.counter("cache.puts"),
        };
        cache.warm_restore();
        cache
    }

    /// The sizing this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The persistent tier, when configured (tests arm faults on it).
    pub fn disk(&self) -> Option<&Arc<DiskTier>> {
        self.tier.as_ref()
    }

    /// Rehydrates RAM state from the disk tier (no-op without one):
    /// handle table + `next_handle` from the snapshot, then derived
    /// entries newest-spill-first into the room each shard has left,
    /// inserted oldest-first so recency order survives the restart.
    fn warm_restore(&self) {
        let Some(tier) = self.tier.clone() else { return };
        if let Some((handles, next_handle)) = tier.restore_handles() {
            self.next_handle.store(next_handle, Ordering::Relaxed);
            for (handle, entry) in handles {
                let bytes =
                    (entry.schema.len() + entry.extent.len() + entry.fingerprint.len()) as u64;
                self.insert(handle, Slot::Handle(entry), bytes);
            }
        }
        // Only the room each shard has left after the handle table:
        // `insert` enforces per-shard budgets, so a record admitted
        // against global room could evict a restored handle in its shard,
        // and restored handles must never be evicted by the entries they
        // anchor. The first record that does not fit closes its shard;
        // older spills there stay disk-resident and are promoted on a miss.
        let (max_entries, max_bytes) = self.shard_budget();
        let mut room: Vec<(u64, u64)> = self
            .shards
            .iter()
            .map(|shard| {
                let shard = lock_recovering(shard);
                let bytes: u64 = shard.map.values().map(|e| e.bytes).sum();
                (
                    max_entries.saturating_sub(shard.map.len() as u64),
                    max_bytes.saturating_sub(bytes),
                )
            })
            .collect();
        let mut picked = Vec::new();
        for key in tier.keys_newest_first() {
            if room.iter().all(|&(entries, _)| entries == 0) {
                break;
            }
            let (entries, bytes) = &mut room[self.shard_index(&key)];
            if *entries == 0 {
                continue;
            }
            let Some(derived) = tier.load(&key) else { continue };
            if derived.approx_bytes() > *bytes {
                *entries = 0;
                continue;
            }
            *entries -= 1;
            *bytes -= derived.approx_bytes();
            picked.push((key, derived));
        }
        for (key, derived) in picked.into_iter().rev() {
            let bytes = derived.approx_bytes();
            self.insert(key, Slot::Derived(derived), bytes);
        }
    }

    fn shard_index(&self, key: &str) -> usize {
        (hash64(&[key]) as usize) % self.shards.len()
    }

    fn shard(&self, key: &str) -> &Mutex<Shard> {
        &self.shards[self.shard_index(key)]
    }

    fn lock(&self, key: &str) -> MutexGuard<'_, Shard> {
        lock_recovering(self.shard(key))
    }

    /// Per-shard `(entries, bytes)` budgets: the totals split evenly, at
    /// least one entry so a hot shard can always hold its newest value.
    fn shard_budget(&self) -> (u64, u64) {
        let shards = self.shards.len() as u64;
        ((self.config.max_entries as u64 / shards).max(1), (self.config.max_bytes / shards).max(1))
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Registers an extent, returning its fresh handle (`h<seq>`).
    pub fn put(&self, entry: HandleEntry) -> String {
        let handle = format!("h{}", self.next_handle.fetch_add(1, Ordering::Relaxed) + 1);
        let bytes = (entry.schema.len() + entry.extent.len() + entry.fingerprint.len()) as u64;
        self.insert(handle.clone(), Slot::Handle(entry), bytes);
        self.puts.inc();
        self.handle_gen.fetch_add(1, Ordering::SeqCst);
        self.snapshot_handles();
        handle
    }

    /// Looks up a handle, refreshing its LRU stamp.
    pub fn get_handle(&self, handle: &str) -> Option<HandleEntry> {
        let stamp = self.tick();
        let mut shard = self.lock(handle);
        let entry = shard.map.get_mut(handle)?;
        entry.stamp = stamp;
        match &entry.slot {
            Slot::Handle(h) => Some(h.clone()),
            Slot::Derived(_) | Slot::Pair(_) => None, // nor are other keys
        }
    }

    /// Removes a handle explicitly. Counts as an eviction when it
    /// existed. (Its derived entries age out via LRU: they are keyed by
    /// fingerprint, so another live handle may still be using them.)
    pub fn evict_handle(&self, handle: &str) -> bool {
        let removed = {
            let mut shard = self.lock(handle);
            match shard.map.get(handle) {
                Some(Entry { slot: Slot::Handle(_), .. }) => shard.map.remove(handle),
                _ => None,
            }
        };
        match removed {
            Some(entry) => {
                self.note_removed(&entry);
                self.evictions.inc();
                self.handle_gen.fetch_add(1, Ordering::SeqCst);
                self.snapshot_handles();
                true
            }
            None => false,
        }
    }

    /// Fetches a cached derived entry, counting a RAM hit or miss. On a
    /// RAM miss with a disk tier, falls back to a verified disk load
    /// and promotes the record back into the LRU — the caller skips the
    /// chase either way, but the promotion's index rebuild is honestly
    /// charged to the requesting worker's profile (a cheaper miss, not
    /// a free hit).
    pub fn get_derived(&self, key: &str) -> Option<Derived> {
        let stamp = self.tick();
        let found = {
            let mut shard = self.lock(key);
            shard.map.get_mut(key).and_then(|entry| {
                entry.stamp = stamp;
                match &entry.slot {
                    Slot::Derived(d) => Some(d.clone()),
                    Slot::Handle(_) | Slot::Pair(_) => None,
                }
            })
        };
        if found.is_some() {
            self.hits.inc();
            return found;
        }
        self.misses.inc();
        let tier = self.tier.as_ref()?;
        let derived = tier.load(key)?;
        tier.note_promotion();
        self.insert(key.to_owned(), Slot::Derived(derived.clone()), derived.approx_bytes());
        Some(derived)
    }

    /// Stores a derived entry under its [`derived_key`], replacing any
    /// entry already there, and writes it through to the disk tier
    /// (spill-then-index on disk; a no-op when the key is already
    /// segment-resident — derived keys are content-addressed, so equal
    /// keys mean equal indexes and equal name tables. A record spilled
    /// without a table therefore keeps none on disk, and its entry gets
    /// the table again after each restart; the plan is never written,
    /// and is compiled again after each restart).
    pub fn insert_derived(&self, key: String, derived: Derived) {
        let bytes = derived.approx_bytes();
        if let Some(tier) = &self.tier {
            tier.spill(&key, &derived);
        }
        self.insert(key, Slot::Derived(derived), bytes);
    }

    /// [`get_derived`](Self::get_derived) without the name table, kind
    /// or plan.
    pub fn get_index(&self, key: &str) -> Option<Arc<IndexedInstance>> {
        self.get_derived(key).map(|d| d.index)
    }

    /// [`insert_derived`](Self::insert_derived) of a chased entry
    /// without a name table or plan.
    pub fn insert_index(&self, key: String, index: Arc<IndexedInstance>) {
        let derived = Derived { index, names: None, kind: DerivedKind::Chased, plan: None };
        self.insert_derived(key, derived);
    }

    /// Fetches the pair entry under `key` (a [`pair_key`]) when `budget`
    /// admits the work it records, counting `cache.pair_hits`; an absent
    /// entry or one the budget does not admit counts `cache.pair_misses`.
    /// Pair lookups never touch the disk tier or the derived
    /// `hits`/`misses` counters.
    pub fn get_pair(&self, key: &str, budget: &Budget) -> Option<PairVerdict> {
        let stamp = self.tick();
        let found = {
            let mut shard = self.lock(key);
            shard.map.get_mut(key).and_then(|entry| {
                entry.stamp = stamp;
                match &entry.slot {
                    Slot::Pair(p) if budget.admits(&p.cost) => Some(p.clone()),
                    _ => None,
                }
            })
        };
        if found.is_some() { &self.pair_hits } else { &self.pair_misses }.inc();
        found
    }

    /// Stores a pair entry under its [`pair_key`], replacing any entry
    /// already there. RAM only: it is never written to the disk tier.
    pub fn insert_pair(&self, key: String, verdict: PairVerdict) {
        let bytes = verdict.approx_bytes();
        self.insert(key, Slot::Pair(verdict), bytes);
    }

    /// Current counters (disk fields all zero without a tier).
    pub fn stats(&self) -> CacheCounters {
        let disk = self.tier.as_ref().map(|t| t.counters()).unwrap_or_default();
        CacheCounters {
            entries: self.entries.get(),
            bytes: self.bytes.get(),
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            puts: self.puts.get(),
            disk_hits: disk.hits,
            disk_misses: disk.misses,
            disk_spills: disk.spills,
            disk_promotions: disk.promotions,
            disk_corrupt_dropped: disk.corrupt_dropped,
            disk_io_errors: disk.io_errors,
            disk_bytes: disk.bytes,
        }
    }

    fn note_removed(&self, entry: &Entry) {
        self.entries.sub(1);
        self.bytes.sub(entry.bytes);
    }

    fn insert(&self, key: String, slot: Slot, bytes: u64) {
        let stamp = self.tick();
        let (max_entries, max_bytes) = self.shard_budget();
        let mut victims: Vec<(String, Entry)> = Vec::new();
        {
            let mut shard = self.lock(&key);
            if let Some(old) = shard.map.remove(&key) {
                self.note_removed(&old);
            }
            shard.map.insert(key, Entry { slot, bytes, stamp });
            self.entries.add(1);
            self.bytes.add(bytes);
            // Evict LRU entries until this shard fits its budgets. The
            // newest entry (max stamp) is never evicted even when it
            // alone exceeds the byte budget — an oversized instance gets
            // cached and becomes the next victim instead of thrashing.
            loop {
                let shard_bytes: u64 = shard.map.values().map(|e| e.bytes).sum();
                if shard.map.len() as u64 <= max_entries && shard_bytes <= max_bytes {
                    break;
                }
                let Some(victim) =
                    shard.map.iter().min_by_key(|(_, e)| e.stamp).map(|(k, _)| k.clone())
                else {
                    break;
                };
                let is_newest = shard.map.get(&victim).is_some_and(|e| e.stamp == stamp);
                if is_newest {
                    break;
                }
                if let Some(old) = shard.map.remove(&victim) {
                    self.note_removed(&old);
                    victims.push((victim, old));
                }
            }
        }
        self.evictions.add(victims.len() as u64);
        // Disk work happens strictly after the shard lock is released:
        // the shard and tier locks are never held together (the lock
        // ordering invariant that keeps promote-on-hit deadlock-free).
        if let Some(tier) = &self.tier {
            let mut lost_handle = false;
            for (victim_key, victim) in &victims {
                match &victim.slot {
                    // Write-through makes this a cheap no-op for keys
                    // already segment-resident; it is the safety net
                    // that keeps "evicted ⇒ on disk" true regardless of
                    // how the entry got into RAM.
                    Slot::Derived(derived) => tier.spill(victim_key, derived),
                    Slot::Handle(_) => lost_handle = true,
                    Slot::Pair(_) => {}
                }
            }
            if lost_handle {
                self.handle_gen.fetch_add(1, Ordering::SeqCst);
                self.snapshot_handles();
            }
        }
    }

    /// Atomically snapshots the current handle table into the disk tier
    /// (no-op without one). Callers bump `handle_gen` after their
    /// mutation and then call this.
    ///
    /// Concurrent callers are serialized on `snapshot_gen`, and each one
    /// collects the table *after* reading the generation it will record.
    /// A snapshot recorded at generation `g` therefore contains every
    /// mutation that bumped the generation to `g` or below, so a caller
    /// whose own generation is already covered skips the write, and no
    /// older table is ever renamed over a newer one. Shard locks are
    /// taken one at a time under the writer mutex; the mutation paths
    /// never hold a shard lock while waiting for it.
    fn snapshot_handles(&self) {
        let Some(tier) = &self.tier else { return };
        let wanted = self.handle_gen.load(Ordering::SeqCst);
        let mut written = match self.snapshot_gen.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        if *written >= wanted {
            return; // a snapshot taken after our mutation already covers it
        }
        let generation = self.handle_gen.load(Ordering::SeqCst);
        let mut handles: Vec<(String, HandleEntry)> = Vec::new();
        for shard in &self.shards {
            let guard = lock_recovering(shard);
            for (key, entry) in guard.map.iter() {
                if let Slot::Handle(h) = &entry.slot {
                    handles.push((key.clone(), h.clone()));
                }
            }
        }
        handles.sort_by(|a, b| a.0.cmp(&b.0));
        if tier.snapshot_handles(&handles, self.next_handle.load(Ordering::SeqCst)) {
            *written = generation;
        }
    }

    /// Test hook: poisons the shard holding `key` by panicking a scoped
    /// thread that owns its lock, so suites can prove every public
    /// operation recovers instead of wedging.
    #[doc(hidden)]
    pub fn poison_shard_for_tests(&self, key: &str) {
        let shard = self.shard(key);
        let _ = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = shard.lock().unwrap();
                    panic!("poisoning shard for tests");
                })
                .join()
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqd_instance::{named, Instance, Schema};

    fn cache(config: CacheConfig) -> InstanceCache {
        InstanceCache::new(config, Arc::new(Registry::new()))
    }

    fn handle_entry(tag: &str) -> HandleEntry {
        HandleEntry {
            schema: "V/2".into(),
            extent: format!("V({tag},B)."),
            fingerprint: format!("fp-{tag}"),
            tuples: 1,
        }
    }

    fn small_index(n: u32) -> Arc<IndexedInstance> {
        let s = Schema::new([("E", 2)]);
        let mut d = Instance::empty(&s);
        for i in 0..n {
            d.insert_named("E", vec![named(i), named(i + 1)]);
        }
        IndexedInstance::from_instance(&d).into_shared()
    }

    #[test]
    fn put_get_evict_round_trip() {
        let c = cache(CacheConfig::default());
        let e = handle_entry("A");
        let h = c.put(e.clone());
        assert_eq!(c.get_handle(&h), Some(e));
        assert!(c.evict_handle(&h));
        assert_eq!(c.get_handle(&h), None);
        assert!(!c.evict_handle(&h), "second evict finds nothing");
        let st = c.stats();
        assert_eq!(st.puts, 1);
        assert_eq!(st.evictions, 1);
        assert_eq!(st.entries, 0);
        assert_eq!(st.bytes, 0);
    }

    #[test]
    fn derived_lookups_count_hits_and_misses() {
        let c = cache(CacheConfig::default());
        let key = derived_key("E/2", "V(x,y) :- E(x,y).", "Q(x) :- E(x,y).", "fp");
        assert!(c.get_index(&key).is_none());
        c.insert_index(key.clone(), small_index(3));
        assert!(c.get_index(&key).is_some());
        let st = c.stats();
        assert_eq!((st.hits, st.misses), (1, 1));
        assert!(st.bytes > 0);
    }

    #[test]
    fn entry_pressure_evicts_least_recently_used() {
        let c = cache(CacheConfig { shards: 1, max_entries: 2, ..CacheConfig::default() });
        let h1 = c.put(handle_entry("A"));
        let h2 = c.put(handle_entry("B"));
        assert!(c.get_handle(&h1).is_some()); // refresh h1: h2 is now LRU
        let h3 = c.put(handle_entry("C"));
        assert!(c.get_handle(&h2).is_none(), "LRU entry must be evicted");
        assert!(c.get_handle(&h1).is_some());
        assert!(c.get_handle(&h3).is_some());
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().entries, 2);
    }

    #[test]
    fn byte_pressure_evicts_but_keeps_the_newest() {
        let big = small_index(64);
        let budget = big.approx_bytes() + big.approx_bytes() / 2;
        let c = cache(CacheConfig { shards: 1, max_entries: 1024, max_bytes: budget, disk: None });
        c.insert_index("d:1".into(), small_index(64));
        c.insert_index("d:2".into(), small_index(64)); // over budget: d:1 goes
        assert!(c.get_index("d:1").is_none());
        assert!(c.get_index("d:2").is_some());
        assert!(c.stats().evictions >= 1);
        assert!(c.stats().bytes <= budget);
        // An entry larger than the whole budget still lands (and is the
        // sole survivor) instead of thrashing forever.
        let c = cache(CacheConfig { shards: 1, max_entries: 1024, max_bytes: 8, disk: None });
        c.insert_index("d:big".into(), small_index(64));
        assert!(c.get_index("d:big").is_some());
        assert_eq!(c.stats().entries, 1);
    }

    #[test]
    fn derived_bytes_count_the_plan() {
        let schema = Schema::new([("E", 2)]);
        let mut names = vqd_instance::DomainNames::new();
        let prog = vqd_query::parse_program(&schema, &mut names, "V(x,y) :- E(x,y).").unwrap();
        let views = vqd_chase::CqViews::new(vqd_query::ViewSet::new(&schema, prog.defs));
        let q = vqd_query::parse_query(&schema, &mut names, "Q(x,z) :- E(x,y), E(y,z).")
            .unwrap()
            .as_cq()
            .unwrap()
            .clone();
        let plan = Arc::new(CertainPlan::compile(&views, &q).unwrap());
        let bare =
            Derived { index: small_index(4), names: None, kind: DerivedKind::Extent, plan: None };
        let fallback = Derived { plan: Some(Err(PlanFallback::SizeBound)), ..bare.clone() };
        let planned = Derived { plan: Some(Ok(Arc::clone(&plan))), ..bare.clone() };
        assert_eq!(fallback.approx_bytes(), bare.approx_bytes());
        assert_eq!(planned.approx_bytes(), bare.approx_bytes() + plan.approx_bytes());
        assert!(planned.approx_bytes() > bare.approx_bytes());
    }

    #[test]
    fn derived_keys_separate_contexts_and_fingerprints() {
        let a = derived_key("E/2", "V(x,y) :- E(x,y).", "Q(x) :- E(x,y).", "fp");
        let b = derived_key("E/2", "V(x,y) :- E(x,y).", "Q(x,z) :- E(x,z).", "fp");
        let c = derived_key("E/2", "V(x,y) :- E(x,y).", "Q(x) :- E(x,y).", "fp2");
        assert_ne!(a, b, "query source is part of the context");
        assert_ne!(a, c, "fingerprint is part of the key");
        assert_eq!(a, derived_key("E/2", "V(x,y) :- E(x,y).", "Q(x) :- E(x,y).", "fp"));
    }

    #[test]
    fn warm_restore_keeps_every_snapshotted_handle() {
        let dir =
            std::env::temp_dir().join(format!("vqd-cache-restore-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = CacheConfig {
            shards: 4,
            max_entries: 24,
            disk: Some(DiskConfig::at(&dir)),
            ..CacheConfig::default()
        };
        let live: Vec<String> = {
            let c = cache(config.clone());
            for i in 0..40 {
                c.insert_index(format!("d:{i}"), small_index(2 + i % 5));
            }
            let handles: Vec<String> =
                (0..15).map(|i| c.put(handle_entry(&format!("H{i}")))).collect();
            handles.into_iter().filter(|h| c.get_handle(h).is_some()).collect()
        };
        assert!(live.len() >= 10, "most handles fit before the restart");
        let c = cache(config);
        for h in &live {
            assert!(c.get_handle(h).is_some(), "{h} was snapshotted and must be restored");
        }
        assert_eq!(c.stats().evictions, 0, "the restore evicts nothing");
        assert!(c.stats().entries > live.len() as u64, "derived records fill the room left");
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn verdict(steps: u64) -> PairVerdict {
        PairVerdict {
            fragment: Fragment::PathQuery,
            determined: true,
            rewriting: Some("R(x,z) :- V(x,y), V(y,z).".into()),
            cost: WorkStats { steps, tuples: 2, ..WorkStats::default() },
        }
    }

    #[test]
    fn pair_lookups_admit_only_the_recorded_work() {
        let registry = Arc::new(Registry::new());
        let c = InstanceCache::new(CacheConfig::default(), Arc::clone(&registry));
        let key = pair_key("E/2", "V(x,y) :- E(x,y).", "Q(x,z) :- E(x,y), E(y,z).");
        assert!(c.get_pair(&key, &Budget::unlimited()).is_none());
        c.insert_pair(key.clone(), verdict(7));
        assert_eq!(c.get_pair(&key, &Budget::unlimited()), Some(verdict(7)));
        assert_eq!(c.get_pair(&key, &Budget::unlimited().with_step_limit(7)), Some(verdict(7)));
        assert!(c.get_pair(&key, &Budget::unlimited().with_step_limit(6)).is_none());
        assert!(c.get_pair(&key, &Budget::unlimited().with_tuple_limit(1)).is_none());
        let registry = registry.snapshot();
        assert_eq!(registry.counter("cache.pair_hits"), 2);
        assert_eq!(registry.counter("cache.pair_misses"), 3);
        let st = c.stats();
        assert_eq!((st.hits, st.misses, st.entries), (0, 0, 1));
        assert_eq!(st.bytes, verdict(7).approx_bytes());
        assert_ne!(key, derived_key("E/2", "V(x,y) :- E(x,y).", "Q(x,z) :- E(x,y), E(y,z).", ""));
    }

    #[test]
    fn pair_entries_are_never_spilled_or_restored() {
        let dir = std::env::temp_dir().join(format!("vqd-cache-pair-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = CacheConfig {
            shards: 1,
            max_entries: 2,
            disk: Some(DiskConfig::at(&dir)),
            ..CacheConfig::default()
        };
        {
            let c = cache(config.clone());
            for i in 0..5 {
                c.insert_pair(format!("p:{i}"), verdict(i));
            }
            let st = c.stats();
            assert_eq!((st.entries, st.evictions, st.disk_spills), (2, 3, 0));
            assert!(c.get_pair("p:4", &Budget::unlimited()).is_some());
        }
        let c = cache(config);
        assert_eq!(c.stats().entries, 0);
        assert!(c.get_pair("p:4", &Budget::unlimited()).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn handles_and_derived_keys_never_cross_resolve() {
        let c = cache(CacheConfig::default());
        let h = c.put(handle_entry("A"));
        assert!(c.get_index(&h).is_none(), "a handle is not a derived index");
        c.insert_index("d:x".into(), small_index(2));
        assert!(c.get_handle("d:x").is_none(), "a derived key is not a handle");
        assert!(c.get_pair("d:x", &Budget::unlimited()).is_none(), "nor a pair key");
        c.insert_pair("p:x".into(), verdict(1));
        assert!(c.get_handle("p:x").is_none() && c.get_index("p:x").is_none());
    }
}

//! Crash-only persistent tier for the instance cache.
//!
//! Derived entries (chased canonical databases, or extents indexed for
//! a prepared plan) spill to an append-only segment file; an in-memory
//! offset index maps derived keys to record offsets; the handle table
//! snapshots to a sibling file written atomically (tmp + rename).
//! Everything is `std`-only, matching the workspace shim policy.
//!
//! ## Record format
//!
//! ```text
//! record   := magic(u32 LE) | len(u32 LE) | crc(u64 LE) | payload
//! crc      := FNV-1a 64 over payload
//! payload  := kind(u8) | body
//! kind 1   := chased entry: key | fp64 | instance [| names]
//! kind 3   := extent entry: key | fp64 | instance [| names]
//! names    := count(u32 LE) | name…          (name := len(u32 LE) | utf-8)
//! kind 2   := handle snapshot: next_handle | count | handles…
//! ```
//!
//! A derived payload carries the derived key, a 64-bit digest of the
//! index's canonical [`IndexedInstance::fingerprint`], and the indexed
//! instance itself (schema declarations + raw tuple values —
//! `Named`/`Null` flavour bit plus interned id, which is exactly what
//! the deterministic per-request interning contract makes portable).
//! The kind byte is the entry's [`DerivedKind`]: kind 1 holds a chased
//! canonical database and feeds the chase route, kind 3 holds the
//! extent itself and feeds the prepared-plan route. Both share one
//! body layout; kind 3 is new with the plan route, and every kind-1
//! record written before it still loads as a chased entry.
//!
//! The optional `names` trailer is the entry's render table (see
//! [`crate::cache`]): the interned names in id order. A record that
//! ends after the instance has no table — every record written before
//! tables were stored — and still loads; a restored entry then gets
//! its table from the first request that renders through it. Bytes
//! after the instance that do not decode to exactly one table make the
//! record corrupt. No record holds the entry's certain-answer plan: a
//! restored entry gets it from the first request that serves through
//! it, which compiles it once.
//!
//! ## Crash-only invariants
//!
//! The tier is a *pure cache*: the only recovery action is "re-chase on
//! the next miss", so nothing here can ever turn wrong bytes into a
//! wrong answer. Concretely:
//!
//! * **spill-then-index**: a record is fully appended before its key
//!   enters the offset index, so a crash mid-append loses at most the
//!   tail record;
//! * **startup scan**: a record with a bad magic, an implausible length
//!   frame, a bad checksum, or an undecodable payload is silently
//!   dropped (checksum-bad records are skipped individually — the
//!   length frame still delimits them; frame-level damage drops the
//!   tail from that point);
//! * **load verification**: a loaded record must decode, rebuild, and
//!   reproduce both its stored key and its stored fingerprint digest,
//!   or it is dropped and the lookup degrades to a counted clean miss;
//! * **failure demotion**: any I/O error on read or write drops the
//!   affected record from the index and counts `disk_io_errors`; the
//!   RAM tier and the serving path never observe the failure.
//!
//! ## Fault injection
//!
//! [`DiskFault`] is modeled on [`vqd_budget::Budget::trip_after`]: arm a
//! fault to fire on the Nth subsequent I/O of its class. Short writes,
//! read errors, post-write truncation (a torn tail), and single-bit
//! flips are all injectable, so the test suite can prove every failure
//! class degrades to a clean miss.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use vqd_instance::{IndexedInstance, Instance, NameTable, Schema, Value};
use vqd_obs::{Counter, Gauge, Registry};

use crate::cache::{Derived, DerivedKind, HandleEntry};

/// Segment file holding spilled derived entries.
pub const SEGMENT_FILE: &str = "cache.seg";
/// Atomic snapshot of the handle table.
pub const HANDLES_FILE: &str = "handles.snap";

const RECORD_MAGIC: u32 = 0x5651_4452; // "VQDR"
const RECORD_HEADER_BYTES: u64 = 16;
/// Sanity cap on a single record's payload; anything larger is treated
/// as frame damage (the RAM tier's byte budget keeps real entries far
/// below this).
const MAX_RECORD_BYTES: u32 = 1 << 30;

const KIND_CHASED: u8 = 1;
const KIND_HANDLES: u8 = 2;
const KIND_EXTENT: u8 = 3;

/// The record kind byte of a derived entry.
fn kind_byte(kind: DerivedKind) -> u8 {
    match kind {
        DerivedKind::Chased => KIND_CHASED,
        DerivedKind::Extent => KIND_EXTENT,
    }
}

/// The derived entry kind a record kind byte stands for, if any.
fn derived_kind(byte: u8) -> Option<DerivedKind> {
    match byte {
        KIND_CHASED => Some(DerivedKind::Chased),
        KIND_EXTENT => Some(DerivedKind::Extent),
        _ => None,
    }
}

/// Sizing/location knobs for the disk tier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiskConfig {
    /// Directory holding the segment file and handle snapshot. Created
    /// on first use.
    pub dir: PathBuf,
    /// Compaction threshold for the segment file: when the live segment
    /// grows past this, it is rewritten keeping the newest live records
    /// that fit in three quarters of the budget.
    pub max_bytes: u64,
}

impl DiskConfig {
    /// A disk tier rooted at `dir` with the default byte budget.
    pub fn at(dir: impl Into<PathBuf>) -> DiskConfig {
        DiskConfig { dir: dir.into(), max_bytes: 256 << 20 }
    }
}

/// Injectable disk failure classes (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiskFault {
    /// The write persists only half the record frame, then errors.
    ShortWrite,
    /// The read fails outright with an I/O error.
    ReadError,
    /// The write reports success but the file is truncated mid-record
    /// afterwards (a torn tail, as a crash between syscalls would leave).
    Truncate,
    /// One bit of the read buffer is flipped at a key-sampled offset.
    BitFlip,
}

/// Trip-after-Nth-operation fault plan, one counter per class. `0`
/// means disarmed; arming with `n` fires on the nth subsequent I/O of
/// that class, once.
#[derive(Default)]
struct FaultPlan {
    short_write: AtomicU64,
    read_error: AtomicU64,
    truncate: AtomicU64,
    bit_flip: AtomicU64,
}

impl FaultPlan {
    fn slot(&self, fault: DiskFault) -> &AtomicU64 {
        match fault {
            DiskFault::ShortWrite => &self.short_write,
            DiskFault::ReadError => &self.read_error,
            DiskFault::Truncate => &self.truncate,
            DiskFault::BitFlip => &self.bit_flip,
        }
    }

    /// Decrements the class counter; true exactly when it hits zero.
    fn fires(&self, fault: DiskFault) -> bool {
        let slot = self.slot(fault);
        loop {
            let cur = slot.load(Ordering::Relaxed);
            if cur == 0 {
                return false;
            }
            if slot.compare_exchange(cur, cur - 1, Ordering::Relaxed, Ordering::Relaxed).is_ok() {
                return cur == 1;
            }
        }
    }
}

/// Point-in-time disk-tier counters, read off the registry's
/// `cache.disk_*` series (and merged into
/// [`crate::cache::CacheCounters`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DiskCounters {
    /// Loads that returned a verified record.
    pub hits: u64,
    /// Lookups that found nothing usable (absent, corrupt, or failed).
    pub misses: u64,
    /// Records appended to the segment.
    pub spills: u64,
    /// Disk hits promoted back into the RAM LRU.
    pub promotions: u64,
    /// Records dropped for bad framing, checksum, or fingerprint.
    pub corrupt_dropped: u64,
    /// Read/write failures demoted to clean misses.
    pub io_errors: u64,
    /// Live segment bytes.
    pub bytes: u64,
}

struct State {
    /// Next append offset == logical end of the segment (bytes past it
    /// are torn garbage from a failed append, overwritten next time).
    tail: u64,
    /// key → (record offset, whole-frame length).
    index: HashMap<String, (u64, u64)>,
    /// Append order of keys (duplicates allowed; the index holds the
    /// authoritative offset). Drives newest-first restore + compaction.
    order: Vec<String>,
}

/// The crash-only disk tier described in the module docs.
pub struct DiskTier {
    config: DiskConfig,
    state: Mutex<State>,
    faults: FaultPlan,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    spills: Arc<Counter>,
    promotions: Arc<Counter>,
    corrupt_dropped: Arc<Counter>,
    io_errors: Arc<Counter>,
    /// The segment's logical end, set under the state lock whenever
    /// `tail` moves.
    bytes: Arc<Gauge>,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// --- little-endian payload codec -------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }

    fn str(&mut self) -> Option<String> {
        self.str_ref().map(str::to_owned)
    }

    fn str_ref(&mut self) -> Option<&'a str> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).ok()
    }

    fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// 64-bit digest of a canonical [`IndexedInstance::fingerprint`] — the
/// stored form of "which chased database these bytes claim to be".
pub fn fingerprint_digest(index: &IndexedInstance) -> u64 {
    fnv1a(index.fingerprint().as_bytes())
}

fn encode_instance(buf: &mut Vec<u8>, instance: &Instance) {
    let schema = instance.schema();
    put_u32(buf, schema.len() as u32);
    for (rel, decl) in schema.iter() {
        put_str(buf, &decl.name);
        put_u32(buf, decl.arity as u32);
        let relation = instance.iter().find(|(r, _)| *r == rel).map(|(_, relation)| relation);
        let tuples: Vec<_> = relation.map(|r| r.iter().collect()).unwrap_or_default();
        put_u32(buf, tuples.len() as u32);
        for tuple in tuples {
            for &v in tuple {
                match v {
                    Value::Named(i) => {
                        buf.push(0);
                        put_u32(buf, i);
                    }
                    Value::Null(i) => {
                        buf.push(1);
                        put_u32(buf, i);
                    }
                }
            }
        }
    }
}

fn decode_instance(c: &mut Cursor<'_>) -> Option<Instance> {
    let nrels = c.u32()?;
    if nrels > 1 << 16 {
        return None;
    }
    let mut decls: Vec<(String, usize)> = Vec::with_capacity(nrels as usize);
    let mut tuples: Vec<Vec<Vec<Value>>> = Vec::with_capacity(nrels as usize);
    for _ in 0..nrels {
        let name = c.str()?;
        let arity = c.u32()? as usize;
        let count = c.u32()? as usize;
        let mut rel_tuples = Vec::with_capacity(count.min(1 << 16));
        for _ in 0..count {
            let mut tuple = Vec::with_capacity(arity);
            for _ in 0..arity {
                let tag = c.u8()?;
                let id = c.u32()?;
                tuple.push(match tag {
                    0 => Value::Named(id),
                    1 => Value::Null(id),
                    _ => return None,
                });
            }
            rel_tuples.push(tuple);
        }
        decls.push((name, arity));
        tuples.push(rel_tuples);
    }
    let schema = Schema::new(decls.iter().map(|(n, a)| (n.as_str(), *a)));
    let mut instance = Instance::empty(&schema);
    for ((name, _), rel_tuples) in decls.iter().zip(tuples) {
        let rel = schema.find(name)?;
        for tuple in rel_tuples {
            instance.insert(rel, tuple);
        }
    }
    Some(instance)
}

/// Encodes a chased (kind 1) record payload without a name table.
/// Public so the persist suite can frame payloads with a deliberately
/// wrong digest and prove the fingerprint check drops them.
pub fn encode_derived_payload(key: &str, fp64: u64, instance: &Instance) -> Vec<u8> {
    encode_payload(DerivedKind::Chased, key, fp64, instance)
}

fn encode_payload(kind: DerivedKind, key: &str, fp64: u64, instance: &Instance) -> Vec<u8> {
    let mut payload = Vec::new();
    payload.push(kind_byte(kind));
    put_str(&mut payload, key);
    put_u64(&mut payload, fp64);
    encode_instance(&mut payload, instance);
    payload
}

fn encode_names(buf: &mut Vec<u8>, names: &NameTable) {
    put_u32(buf, names.len() as u32);
    for name in names.names() {
        put_str(buf, name);
    }
}

/// The optional trailer: `None` when the payload ends here.
fn decode_names(c: &mut Cursor<'_>) -> Option<Option<NameTable>> {
    if c.is_empty() {
        return Some(None);
    }
    let count = c.u32()? as usize;
    let mut names = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        names.push(c.str_ref()?);
    }
    c.is_empty().then(|| Some(NameTable::from_names(names)))
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_HEADER_BYTES as usize + payload.len());
    put_u32(&mut out, RECORD_MAGIC);
    put_u32(&mut out, payload.len() as u32);
    put_u64(&mut out, fnv1a(payload));
    out.extend_from_slice(payload);
    out
}

impl DiskTier {
    /// Opens (or creates) the tier at `config.dir`, scanning the segment
    /// and dropping damaged records per the crash-only rules. Open never
    /// fails hard: an unusable directory degrades to an empty tier with
    /// `disk_io_errors` counted.
    pub fn open(config: DiskConfig, registry: Arc<Registry>) -> DiskTier {
        let tier = DiskTier {
            config,
            state: Mutex::new(State { tail: 0, index: HashMap::new(), order: Vec::new() }),
            faults: FaultPlan::default(),
            hits: registry.counter("cache.disk_hits"),
            misses: registry.counter("cache.disk_misses"),
            spills: registry.counter("cache.disk_spills"),
            promotions: registry.counter("cache.disk_promotions"),
            corrupt_dropped: registry.counter("cache.disk_corrupt_dropped"),
            io_errors: registry.counter("cache.disk_io_errors"),
            bytes: registry.gauge("cache.disk_bytes"),
        };
        if std::fs::create_dir_all(&tier.config.dir).is_err() {
            tier.note_io_error();
            return tier;
        }
        tier.scan();
        tier
    }

    /// The tier's segment file path (tests corrupt it in place).
    pub fn segment_path(&self) -> PathBuf {
        self.config.dir.join(SEGMENT_FILE)
    }

    /// The handle snapshot path.
    pub fn handles_path(&self) -> PathBuf {
        self.config.dir.join(HANDLES_FILE)
    }

    /// Arms `fault` to fire on the `nth` subsequent I/O of its class
    /// (1 = the very next one), once. Modeled on
    /// [`vqd_budget::Budget::trip_after`].
    pub fn arm_fault(&self, fault: DiskFault, nth: u64) {
        self.faults.slot(fault).store(nth, Ordering::Relaxed);
    }

    /// Point-in-time counters.
    pub fn counters(&self) -> DiskCounters {
        DiskCounters {
            hits: self.hits.get(),
            misses: self.misses.get(),
            spills: self.spills.get(),
            promotions: self.promotions.get(),
            corrupt_dropped: self.corrupt_dropped.get(),
            io_errors: self.io_errors.get(),
            bytes: self.bytes.get(),
        }
    }

    /// Counts a promotion (the RAM tier reinstalled a disk hit).
    pub fn note_promotion(&self) {
        self.promotions.inc();
    }

    /// Whether `key` has a live record on disk.
    pub fn contains(&self, key: &str) -> bool {
        self.lock().index.contains_key(key)
    }

    /// Live derived keys, newest append first (drives warm restore).
    pub fn keys_newest_first(&self) -> Vec<String> {
        let state = self.lock();
        let mut seen = std::collections::HashSet::new();
        let mut keys = Vec::new();
        for key in state.order.iter().rev() {
            if state.index.contains_key(key) && seen.insert(key.clone()) {
                keys.push(key.clone());
            }
        }
        keys
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        // The state is a plain offset index over an append-only file;
        // every mutation leaves it consistent, so recover rather than
        // wedge the whole cache behind a poisoned lock.
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn note_io_error(&self) {
        self.io_errors.inc();
        // A degrading disk tier is exactly when the recent-request
        // context matters; the dump is rate-limited so a sick disk
        // cannot firehose stderr.
        vqd_obs::flight_dump_throttled("disk_fault");
    }

    // --- spill (write path) ------------------------------------------

    /// Appends a derived entry as a record of its kind, its name table
    /// (when it has one) as the trailer. Failures demote to counted
    /// no-ops; the key is indexed only after the record is fully on disk
    /// (spill-then-index). A key already in the segment is not encoded
    /// again: records are append-only and content-addressed.
    pub fn spill(&self, key: &str, derived: &Derived) {
        if self.lock().index.contains_key(key) {
            return;
        }
        let index = &derived.index;
        let fp64 = fingerprint_digest(index);
        let mut payload = encode_payload(derived.kind, key, fp64, index.instance());
        if let Some(names) = &derived.names {
            encode_names(&mut payload, names);
        }
        self.append_payload(key, &payload);
    }

    /// Test/fault-injection hook: [`DiskTier::spill`] with an explicit
    /// fingerprint digest, so the suite can plant records whose frame is
    /// valid but whose content does not match its claim.
    #[doc(hidden)]
    pub fn spill_with_digest(&self, key: &str, index: &IndexedInstance, fp64: u64) {
        let payload = encode_derived_payload(key, fp64, index.instance());
        self.append_payload(key, &payload);
    }

    fn append_payload(&self, key: &str, payload: &[u8]) {
        let bytes = frame(payload);
        let mut state = self.lock();
        if state.index.contains_key(key) {
            return; // already persisted; append-only means no rewrite
        }
        let offset = state.tail;
        match self.write_frame(offset, &bytes) {
            Ok(()) => {
                state.tail = offset + bytes.len() as u64;
                state.index.insert(key.to_owned(), (offset, bytes.len() as u64));
                state.order.push(key.to_owned());
                self.spills.inc();
                if state.tail > self.config.max_bytes {
                    self.compact(&mut state);
                }
                self.bytes.set(state.tail);
            }
            Err(_) => {
                // Torn bytes (if any) sit past `tail` and are overwritten
                // by the next append; a restart's scan drops them too.
                self.note_io_error();
            }
        }
    }

    fn write_frame(&self, offset: u64, bytes: &[u8]) -> io::Result<()> {
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(self.segment_path())?;
        file.seek(SeekFrom::Start(offset))?;
        if self.faults.fires(DiskFault::ShortWrite) {
            let half = bytes.len() / 2;
            file.write_all(&bytes[..half])?;
            return Err(io::Error::other("injected short write"));
        }
        file.write_all(bytes)?;
        if self.faults.fires(DiskFault::Truncate) {
            // The writer believes the append succeeded; the tail of the
            // record never reaches the disk — a crash between syscalls.
            let cut = offset + (bytes.len() as u64) / 2;
            file.set_len(cut)?;
        }
        Ok(())
    }

    // --- load (read path) --------------------------------------------

    /// Loads and verifies a derived entry, rebuilding its index. Any
    /// failure drops the record from the offset index and returns `None`
    /// — a clean miss (re-chase on the caller's side re-spills).
    pub fn load(&self, key: &str) -> Option<Derived> {
        // Open the segment while the offset is still valid: a compaction
        // may rename a rewritten segment over the path as soon as the
        // lock is released, but the open descriptor keeps reading the
        // file the offset belongs to (appends never move records).
        let found = {
            let state = self.lock();
            state.index.get(key).map(|&loc| (loc, File::open(self.segment_path())))
        };
        let Some(((offset, len), file)) = found else {
            self.misses.inc();
            return None;
        };
        match self.read_and_verify(key, file, offset, len) {
            Ok((kind, index, names)) => {
                self.hits.inc();
                let index = index.into_shared();
                Some(Derived { index, names: names.map(Arc::new), kind, plan: None })
            }
            Err(corrupt) => {
                if corrupt {
                    self.corrupt_dropped.inc();
                } else {
                    self.note_io_error();
                }
                self.lock().index.remove(key);
                self.misses.inc();
                None
            }
        }
    }

    /// `Err(true)` = corrupt record, `Err(false)` = I/O failure.
    fn read_and_verify(
        &self,
        key: &str,
        file: io::Result<File>,
        offset: u64,
        len: u64,
    ) -> Result<(DerivedKind, IndexedInstance, Option<NameTable>), bool> {
        let mut buf = vec![0u8; len as usize];
        let read = (|| -> io::Result<()> {
            let mut file = file?;
            file.seek(SeekFrom::Start(offset))?;
            if self.faults.fires(DiskFault::ReadError) {
                return Err(io::Error::other("injected read error"));
            }
            file.read_exact(&mut buf)
        })();
        read.map_err(|_| false)?;
        if self.faults.fires(DiskFault::BitFlip) {
            // Key-sampled offset inside the payload region, so the flip
            // is deterministic per key and lands past the header.
            let body = buf.len().saturating_sub(RECORD_HEADER_BYTES as usize);
            if body > 0 {
                let pos = RECORD_HEADER_BYTES as usize + (fnv1a(key.as_bytes()) as usize) % body;
                buf[pos] ^= 1 << (fnv1a(key.as_bytes()) % 8);
            }
        }
        let (payload, _) = Self::check_frame(&buf).ok_or(true)?;
        let mut c = Cursor::new(payload);
        let kind = c.u8().and_then(derived_kind).ok_or(true)?;
        let stored_key = c.str().ok_or(true)?;
        let stored_fp64 = c.u64().ok_or(true)?;
        let instance = decode_instance(&mut c).ok_or(true)?;
        let names = decode_names(&mut c).ok_or(true)?;
        let rebuilt = IndexedInstance::new(instance);
        // The key and fingerprint must both match the record's claim:
        // a record under the wrong key, or whose content does not
        // reproduce its digest, is re-chase material, not an answer.
        if stored_key != key || fingerprint_digest(&rebuilt) != stored_fp64 {
            return Err(true);
        }
        Ok((kind, rebuilt, names))
    }

    /// Validates one framed record at the start of `buf`; returns the
    /// payload and the whole-frame length.
    fn check_frame(buf: &[u8]) -> Option<(&[u8], u64)> {
        let mut c = Cursor::new(buf);
        if c.u32()? != RECORD_MAGIC {
            return None;
        }
        let len = c.u32()?;
        if len > MAX_RECORD_BYTES {
            return None;
        }
        let crc = c.u64()?;
        let payload = c.take(len as usize)?;
        if fnv1a(payload) != crc {
            return None;
        }
        Some((payload, RECORD_HEADER_BYTES + u64::from(len)))
    }

    // --- startup scan ------------------------------------------------

    fn scan(&self) {
        let bytes = match std::fs::read(self.segment_path()) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return,
            Err(_) => {
                self.note_io_error();
                return;
            }
        };
        let mut state = self.lock();
        let mut offset = 0u64;
        while (offset + RECORD_HEADER_BYTES) <= bytes.len() as u64 {
            let at = offset as usize;
            let mut c = Cursor::new(&bytes[at..]);
            let magic = c.u32().unwrap_or(0);
            let len = c.u32().unwrap_or(u32::MAX);
            if magic != RECORD_MAGIC || len > MAX_RECORD_BYTES {
                // Frame-level damage: the boundary is unknowable, so the
                // rest of the file is torn tail. Drop it.
                self.corrupt_dropped.inc();
                break;
            }
            let frame_len = RECORD_HEADER_BYTES + u64::from(len);
            if offset + frame_len > bytes.len() as u64 {
                // Torn tail: the length frame points past EOF.
                self.corrupt_dropped.inc();
                break;
            }
            match Self::check_frame(&bytes[at..at + frame_len as usize]) {
                Some((payload, _)) => {
                    let mut p = Cursor::new(payload);
                    if p.u8().and_then(derived_kind).is_some() {
                        if let Some(key) = p.str() {
                            // Later records win: same key re-spilled
                            // after a drop supersedes the old offset.
                            state.index.insert(key.clone(), (offset, frame_len));
                            state.order.push(key);
                        } else {
                            self.corrupt_dropped.inc();
                        }
                    } else {
                        self.corrupt_dropped.inc();
                    }
                }
                // Bad checksum with an intact length frame: skip this
                // record alone and resync at the next boundary.
                None => self.corrupt_dropped.inc(),
            }
            offset += frame_len;
        }
        state.tail = offset;
        self.bytes.set(offset);
    }

    // --- compaction --------------------------------------------------

    /// Rewrites the segment keeping the newest live records that fit in
    /// 3/4 of the byte budget (oldest spill first to go — mirroring the
    /// RAM tier's LRU bias toward recency). Uses tmp + rename so a crash
    /// mid-compaction leaves either the old or the new segment intact.
    fn compact(&self, state: &mut MutexGuard<'_, State>) {
        let target = (self.config.max_bytes / 4).saturating_mul(3).max(1);
        let mut seen = std::collections::HashSet::new();
        let mut keep: Vec<(String, u64, u64)> = Vec::new();
        let mut kept_bytes = 0u64;
        for key in state.order.clone().iter().rev() {
            let Some(&(offset, len)) = state.index.get(key) else { continue };
            if !seen.insert(key.clone()) {
                continue;
            }
            if kept_bytes + len > target && !keep.is_empty() {
                continue; // too old and too big: dropped (re-chase later)
            }
            keep.push((key.clone(), offset, len));
            kept_bytes += len;
        }
        keep.reverse(); // oldest kept record first, preserving order
        type Rebuilt = (HashMap<String, (u64, u64)>, Vec<String>, u64);
        let result = (|| -> io::Result<Rebuilt> {
            let mut old = File::open(self.segment_path())?;
            let tmp_path = self.config.dir.join(format!("{SEGMENT_FILE}.tmp"));
            let mut tmp = File::create(&tmp_path)?;
            let mut index = HashMap::new();
            let mut order = Vec::new();
            let mut tail = 0u64;
            for (key, offset, len) in &keep {
                let mut buf = vec![0u8; *len as usize];
                old.seek(SeekFrom::Start(*offset))?;
                old.read_exact(&mut buf)?;
                tmp.write_all(&buf)?;
                index.insert(key.clone(), (tail, *len));
                order.push(key.clone());
                tail += len;
            }
            tmp.sync_all().ok();
            drop(tmp);
            std::fs::rename(&tmp_path, self.segment_path())?;
            Ok((index, order, tail))
        })();
        match result {
            Ok((index, order, tail)) => {
                state.index = index;
                state.order = order;
                state.tail = tail;
            }
            Err(_) => self.note_io_error(), // old segment stays authoritative
        }
    }

    // --- handle snapshot ---------------------------------------------

    /// Atomically snapshots the handle table (tmp + rename), so a
    /// restarted server resolves pre-restart handles and never reissues
    /// a live handle name. Failures demote to counted no-ops; returns
    /// whether the snapshot was published.
    ///
    /// All writers share one tmp path, so concurrent calls must be
    /// serialized by the caller (the instance cache funnels them through
    /// one writer).
    pub fn snapshot_handles(&self, handles: &[(String, HandleEntry)], next_handle: u64) -> bool {
        let mut payload = Vec::new();
        payload.push(KIND_HANDLES);
        put_u64(&mut payload, next_handle);
        put_u32(&mut payload, handles.len() as u32);
        for (handle, entry) in handles {
            put_str(&mut payload, handle);
            put_str(&mut payload, &entry.schema);
            put_str(&mut payload, &entry.extent);
            put_str(&mut payload, &entry.fingerprint);
            put_u64(&mut payload, entry.tuples);
        }
        let bytes = frame(&payload);
        let tmp = self.config.dir.join(format!("{HANDLES_FILE}.tmp"));
        let result = (|| -> io::Result<()> {
            let mut f = File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all().ok();
            drop(f);
            std::fs::rename(&tmp, self.handles_path())
        })();
        if result.is_err() {
            self.note_io_error();
        }
        result.is_ok()
    }

    /// Restores the handle table snapshot, or `None` when absent or
    /// damaged (damage counts `disk_corrupt_dropped`; the table starts
    /// empty and clients re-put — the handle contract already covers
    /// this exact degradation).
    pub fn restore_handles(&self) -> Option<(Vec<(String, HandleEntry)>, u64)> {
        let bytes = match std::fs::read(self.handles_path()) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return None,
            Err(_) => {
                self.note_io_error();
                return None;
            }
        };
        let Some((payload, _)) = Self::check_frame(&bytes) else {
            self.corrupt_dropped.inc();
            return None;
        };
        let mut c = Cursor::new(payload);
        let parsed = (|| {
            if c.u8()? != KIND_HANDLES {
                return None;
            }
            let next_handle = c.u64()?;
            let count = c.u32()?;
            if count > 1 << 20 {
                return None;
            }
            let mut handles = Vec::with_capacity(count as usize);
            for _ in 0..count {
                let handle = c.str()?;
                let schema = c.str()?;
                let extent = c.str()?;
                let fingerprint = c.str()?;
                let tuples = c.u64()?;
                handles.push((handle, HandleEntry { schema, extent, fingerprint, tuples }));
            }
            Some((handles, next_handle))
        })();
        if parsed.is_none() {
            self.corrupt_dropped.inc();
        }
        parsed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;
    use std::sync::atomic::AtomicU32;

    static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    fn temp_dir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "vqd-disk-test-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tier(dir: &Path) -> DiskTier {
        DiskTier::open(DiskConfig::at(dir), Arc::new(Registry::new()))
    }

    fn sample_index(n: u32) -> IndexedInstance {
        let schema = Schema::new([("E", 2usize), ("P", 1usize)]);
        let mut instance = Instance::empty(&schema);
        let e = schema.find("E").unwrap();
        let p = schema.find("P").unwrap();
        for i in 0..n {
            instance.insert(e, vec![Value::Named(i), Value::Null(i + 1)]);
        }
        instance.insert(p, vec![Value::Named(0)]);
        IndexedInstance::new(instance)
    }

    fn sample(n: u32) -> Derived {
        let index = sample_index(n).into_shared();
        Derived { index, names: None, kind: DerivedKind::Chased, plan: None }
    }

    #[test]
    fn spill_load_round_trip_preserves_fingerprint() {
        let dir = temp_dir();
        let t = tier(&dir);
        let idx = sample(5);
        t.spill("d:k1", &idx);
        let loaded = t.load("d:k1").expect("hit");
        assert_eq!(loaded.index.fingerprint(), idx.index.fingerprint());
        assert!(loaded.names.is_none(), "no table was spilled");
        let c = t.counters();
        assert_eq!((c.spills, c.hits, c.misses), (1, 1, 0));
        assert!(c.bytes > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn name_tables_round_trip_and_old_records_still_load() {
        let dir = temp_dir();
        let names = NameTable::from_names(["A", "", "N5", "ünï"]);
        {
            let t = tier(&dir);
            let with = Derived { names: Some(Arc::new(names.clone())), ..sample(4) };
            t.spill("d:with", &with);
            // A record in the format that predates tables.
            let idx = sample_index(3);
            t.spill_with_digest("d:without", &idx, fingerprint_digest(&idx));
        }
        let t = tier(&dir);
        let with = t.load("d:with").expect("table record loads");
        assert_eq!(with.names.as_deref(), Some(&names));
        assert_eq!(with.index.fingerprint(), sample_index(4).fingerprint());
        let without = t.load("d:without").expect("table-less record loads");
        assert!(without.names.is_none());
        assert_eq!(t.counters().corrupt_dropped, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn extent_records_load_as_extent_entries_across_restarts() {
        let dir = temp_dir();
        let names = Arc::new(NameTable::from_names(["A", "B"]));
        {
            let t = tier(&dir);
            let extent =
                Derived { names: Some(names.clone()), kind: DerivedKind::Extent, ..sample(3) };
            t.spill("d:extent", &extent);
            t.spill("d:chased", &sample(2));
        }
        let t = tier(&dir);
        let extent = t.load("d:extent").expect("kind-3 record loads");
        assert_eq!(extent.kind, DerivedKind::Extent);
        assert_eq!(extent.names, Some(names));
        assert_eq!(extent.index.fingerprint(), sample_index(3).fingerprint());
        assert_eq!(t.load("d:chased").expect("kind-1 record loads").kind, DerivedKind::Chased);
        assert_eq!(t.counters().corrupt_dropped, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_trailer_that_does_not_decode_is_corrupt() {
        let idx = sample_index(2);
        let mut payload = encode_derived_payload("d:k", fingerprint_digest(&idx), idx.instance());
        encode_names(&mut payload, &NameTable::from_names(["A", "B"]));
        let decode = |payload: &[u8]| {
            let mut c = Cursor::new(payload);
            c.u8();
            c.str();
            c.u64();
            decode_instance(&mut c).expect("instance");
            decode_names(&mut c)
        };
        assert_eq!(decode(&payload), Some(Some(NameTable::from_names(["A", "B"]))));
        assert_eq!(decode(&payload[..payload.len() - 1]), None, "truncated name");
        let mut extra = payload.clone();
        extra.push(0);
        assert_eq!(decode(&extra), None, "bytes past the table");
    }

    #[test]
    fn reopen_recovers_spilled_records() {
        let dir = temp_dir();
        {
            let t = tier(&dir);
            t.spill("d:a", &sample(3));
            t.spill("d:b", &sample(7));
        }
        let t = tier(&dir);
        assert_eq!(t.keys_newest_first(), vec!["d:b".to_owned(), "d:a".to_owned()]);
        assert!(t.load("d:a").is_some());
        assert!(t.load("d:b").is_some());
        assert_eq!(t.counters().corrupt_dropped, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn absent_key_is_a_counted_miss() {
        let dir = temp_dir();
        let t = tier(&dir);
        assert!(t.load("d:nope").is_none());
        assert_eq!(t.counters().misses, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn short_write_degrades_to_counted_io_error() {
        let dir = temp_dir();
        let t = tier(&dir);
        t.arm_fault(DiskFault::ShortWrite, 1);
        t.spill("d:torn", &sample(4));
        let c = t.counters();
        assert_eq!(c.io_errors, 1);
        assert!(!t.contains("d:torn"), "failed spill must not be indexed");
        // The very next append overwrites the torn bytes and works.
        t.spill("d:ok", &sample(4));
        assert!(t.load("d:ok").is_some());
        // Reopen: scan must not see the torn prefix as damage (the good
        // record was written over it).
        drop(t);
        let t = tier(&dir);
        assert!(t.load("d:ok").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_error_drops_the_record_and_misses_clean() {
        let dir = temp_dir();
        let t = tier(&dir);
        t.spill("d:x", &sample(4));
        t.arm_fault(DiskFault::ReadError, 1);
        assert!(t.load("d:x").is_none());
        let c = t.counters();
        assert_eq!((c.io_errors, c.hits), (1, 0));
        assert!(c.misses >= 1);
        // The record was dropped from the index: the next lookup is a
        // plain miss (re-chase territory), not a retry loop.
        assert!(t.load("d:x").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_is_detected_by_the_checksum() {
        let dir = temp_dir();
        let t = tier(&dir);
        t.spill("d:x", &sample(4));
        t.arm_fault(DiskFault::BitFlip, 1);
        assert!(t.load("d:x").is_none());
        assert_eq!(t.counters().corrupt_dropped, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncate_fault_loses_only_the_tail_record() {
        let dir = temp_dir();
        let t = tier(&dir);
        t.spill("d:good", &sample(3));
        t.arm_fault(DiskFault::Truncate, 1);
        t.spill("d:torn", &sample(6)); // believes it succeeded
        drop(t);
        let t = tier(&dir);
        assert!(t.load("d:good").is_some(), "records before the tear survive");
        assert!(t.load("d:torn").is_none(), "the torn tail is gone");
        assert!(t.counters().corrupt_dropped >= 1, "the scan counted the tear");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_checksum_record_is_skipped_with_resync() {
        let dir = temp_dir();
        let t = tier(&dir);
        t.arm_fault(DiskFault::Truncate, 1);
        t.spill("d:torn", &sample(6));
        // Appending after the tear back-fills the gap (zeros), leaving a
        // record with an intact length frame but a bad checksum.
        t.spill("d:after", &sample(3));
        drop(t);
        let t = tier(&dir);
        assert!(t.load("d:torn").is_none());
        assert!(t.load("d:after").is_some(), "scan must resync past the bad record");
        assert!(t.counters().corrupt_dropped >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_mismatch_is_corrupt_not_an_answer() {
        let dir = temp_dir();
        let t = tier(&dir);
        let idx = sample_index(4);
        t.spill_with_digest("d:liar", &idx, fingerprint_digest(&idx) ^ 0xdead_beef);
        assert!(t.load("d:liar").is_none(), "a wrong digest can never load");
        assert_eq!(t.counters().corrupt_dropped, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_indexes_records_under_their_stored_key() {
        let dir = temp_dir();
        let t = tier(&dir);
        let idx = sample_index(4);
        let payload = encode_derived_payload("d:other", fingerprint_digest(&idx), idx.instance());
        let bytes = frame(&payload);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(t.segment_path(), &bytes).unwrap();
        drop(t);
        // The scan trusts only the payload's own key claim, so a
        // hand-written segment resolves under the stored key and under
        // nothing else (the load-time key==stored_key check is the
        // belt to this suspender).
        let t = tier(&dir);
        assert!(t.load("d:other").is_some());
        assert!(t.load("d:else").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn handle_snapshot_round_trip_and_corrupt_snapshot_degrades() {
        let dir = temp_dir();
        let t = tier(&dir);
        let entry = HandleEntry {
            schema: "V/2".into(),
            extent: "V(A,B).".into(),
            fingerprint: "fp".into(),
            tuples: 1,
        };
        t.snapshot_handles(&[("h1".into(), entry.clone())], 7);
        let (handles, next) = t.restore_handles().expect("snapshot restored");
        assert_eq!(next, 7);
        assert_eq!(handles, vec![("h1".to_owned(), entry)]);
        // Flip one byte: the restore must degrade to an empty table.
        let mut bytes = std::fs::read(t.handles_path()).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(t.handles_path(), &bytes).unwrap();
        assert!(t.restore_handles().is_none());
        assert!(t.counters().corrupt_dropped >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_keeps_newest_records_under_budget() {
        let dir = temp_dir();
        let registry = Arc::new(Registry::new());
        // Budget small enough that ~2 records overflow it.
        let probe = {
            let t = tier(&dir);
            t.spill("d:probe", &sample(8));
            t.counters().bytes
        };
        let _ = std::fs::remove_dir_all(&dir);
        let t = DiskTier::open(
            DiskConfig { dir: dir.clone(), max_bytes: probe * 2 + probe / 2 },
            registry,
        );
        for i in 0..6 {
            t.spill(&format!("d:k{i}"), &sample(8));
        }
        let c = t.counters();
        assert!(c.bytes <= probe * 2 + probe / 2, "segment must shrink under budget");
        assert!(t.contains("d:k5"), "the newest record always survives");
        assert!(!t.contains("d:k0"), "the oldest spill goes first");
        assert!(t.load("d:k5").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn loads_racing_compaction_never_fail() {
        use std::sync::atomic::AtomicBool;
        let dir = temp_dir();
        let probe = {
            let t = tier(&dir);
            t.spill("d:probe", &sample(8));
            t.counters().bytes
        };
        let _ = std::fs::remove_dir_all(&dir);
        // A budget of about three records: every third spill compacts,
        // renaming a rewritten segment over the one loads are reading.
        let t = DiskTier::open(
            DiskConfig { dir: dir.clone(), max_bytes: probe * 3 },
            Arc::new(Registry::new()),
        );
        let spilled = AtomicU32::new(0);
        let done = AtomicBool::new(false);
        let hits: u64 = std::thread::scope(|scope| {
            scope.spawn(|| {
                for i in 0..1000u32 {
                    t.spill(&format!("d:k{i}"), &sample(8));
                    spilled.store(i + 1, Ordering::Release);
                }
                done.store(true, Ordering::Release);
            });
            // More loaders than cores, so a loader is regularly
            // descheduled between finding an offset and reading it.
            let loaders: Vec<_> = (0..3)
                .map(|_| {
                    scope.spawn(|| {
                        let mut hits = 0u64;
                        while !done.load(Ordering::Acquire) {
                            // The newest key always survives compaction;
                            // older ones are dropped as clean misses.
                            let newest = spilled.load(Ordering::Acquire);
                            for i in newest.saturating_sub(3)..newest {
                                if let Some(loaded) = t.load(&format!("d:k{i}")) {
                                    assert_eq!(loaded.index.instance().total_tuples(), 9);
                                    hits += 1;
                                }
                            }
                        }
                        hits
                    })
                })
                .collect();
            loaders.into_iter().map(|l| l.join().expect("loader thread")).sum()
        });
        let c = t.counters();
        assert_eq!(c.io_errors, 0, "a load must never read a renamed-over segment");
        assert_eq!(c.corrupt_dropped, 0, "a load must never land on another record");
        assert!(hits > 0, "the loader must have raced real loads");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

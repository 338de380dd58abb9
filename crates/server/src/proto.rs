//! The `vqd-server` wire protocol.
//!
//! Newline-delimited JSON over TCP: each request is one [`Envelope`] on
//! one line, each reply one [`Response`] on one line, in order. The
//! envelope carries a protocol version, a client-chosen correlation id,
//! the client's *requested* resource [`Limits`] (the server clamps them
//! against its own caps via [`vqd_budget::Budget::min_of`]), and one
//! [`Request`] naming an effective procedure from the paper.
//!
//! Every reply states how the request ended ([`Outcome`]) plus the
//! [`WireStats`] the budget observed, so clients can distinguish:
//!
//! * `ok` — the procedure ran to completion; the verdict is inside;
//! * `exhausted` — a resource limit tripped ([`Outcome::Exhausted`]
//!   carries the reason and the partial-progress description);
//! * `overloaded` — admission control rejected the request *before*
//!   doing any work ([`Outcome::Overloaded`] reports the queue state);
//! * `error` — the request itself was bad ([`ErrorKind`] taxonomy).
//!
//! Queries, views, schemas, and instances travel as source text in the
//! workspace's surface syntax (`Q(x,z) :- E(x,y), E(y,z).`), which keeps
//! the protocol stable across internal representation changes.
//!
//! **Pipelining.** A client may write any number of request lines
//! before reading a reply; the server answers them in request order on
//! that connection — the n-th reply line always answers the n-th
//! request line, whatever order the work completed in, and whether the
//! outcome is `ok`, `exhausted`, `overloaded`, or `error`. The
//! correlation id therefore stays a convenience for the client, not a
//! requirement for matching ([`crate::Client::call_many`] still checks
//! it). Nothing about the framing changed to allow this: one envelope
//! per line, one reply per line, in order, as in v1.
//!
//! **The schema table.** Every wire key is declared once, in the table
//! near the end of this module (DESIGN.md §21). A row names a Rust
//! field, its wire key, its type, and its rule: when it is written
//! (always, or only when it differs from its default) and what its
//! absence means (an error with a fixed text, or a default). The
//! encoders ([`Envelope::to_json`], [`Response::to_json`]), the decoders
//! ([`Envelope::from_json`], [`Response::from_json`]), [`Request::op`],
//! [`ErrorKind::as_str`], the [`Timeline`] codec and
//! [`Envelope::from_fields`] (the `vqd-cli` flag reader) are all
//! generated from it. One decoding rule holds everywhere: an absent
//! optional field takes its default, and a present field of the wrong
//! type is a `protocol` error that names the field and keeps the id.

use std::cell::Cell;

use serde::json::{self, Value};
use vqd_budget::WorkStats;
use vqd_obs::{MetricsSnapshot, RegistrySnapshot};

/// Version tag carried in every envelope and response. Servers reject
/// other versions with [`ErrorKind::Version`] rather than guessing.
pub const PROTOCOL_VERSION: u64 = 1;

/// Client-requested resource limits. `None` means "no preference" —
/// the server still applies its own caps.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Limits {
    /// Wall-clock limit in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Checkpoint (work-step) limit.
    pub step_limit: Option<u64>,
    /// Materialized-tuple limit.
    pub tuple_limit: Option<u64>,
}

impl Limits {
    /// No client-side preferences.
    pub fn none() -> Limits {
        Limits::default()
    }

    /// Builds the client-side [`vqd_budget::Budget`] these limits ask for.
    pub fn to_budget(&self) -> vqd_budget::Budget {
        let mut b = vqd_budget::Budget::unlimited();
        if let Some(ms) = self.deadline_ms {
            b = b.with_deadline(std::time::Duration::from_millis(ms));
        }
        if let Some(steps) = self.step_limit {
            b = b.with_step_limit(steps);
        }
        if let Some(tuples) = self.tuple_limit {
            b = b.with_tuple_limit(tuples);
        }
        b
    }
}

/// One effective procedure, as a service request. Query/view/instance
/// payloads are source text parsed server-side.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Unrestricted CQ determinacy (Theorem 3.7 chase test) plus the
    /// canonical rewriting when determined.
    Decide {
        /// Schema spec, e.g. `"E/2,P/1"`.
        schema: String,
        /// View definitions (one or more rules).
        views: String,
        /// The query (one rule).
        query: String,
    },
    /// Canonical rewriting extraction: like `Decide` but the answer is
    /// the (minimized) rewriting itself.
    Rewrite {
        /// Schema spec.
        schema: String,
        /// View definitions.
        views: String,
        /// The query.
        query: String,
    },
    /// Certain answers under sound views on a concrete view extent.
    Certain {
        /// Schema spec.
        schema: String,
        /// View definitions.
        views: String,
        /// The query.
        query: String,
        /// Ground facts over the *view output* schema, e.g. `"V(a,b)."`.
        extent: String,
    },
    /// [`Request::Certain`] whose extent is a cached instance handle
    /// (from [`Request::PutInstance`]) instead of inline facts. Same
    /// wire op: the `extent` field carries `{"handle": "..."}` instead
    /// of a string, so v1 servers reject it cleanly as a protocol error
    /// and v1 clients never produce it.
    CertainHandle {
        /// Schema spec.
        schema: String,
        /// View definitions.
        views: String,
        /// The query.
        query: String,
        /// Handle returned by a prior `put_instance`.
        handle: String,
    },
    /// Registers a view extent in the server's cross-request cache and
    /// returns a handle naming it. The handle is a cache reference, not
    /// a lease: it may be evicted under pressure, and later requests
    /// then fail with [`ErrorKind::UnknownHandle`] (re-put to recover).
    PutInstance {
        /// Schema spec for the *view output* schema the facts live in.
        schema: String,
        /// Ground facts, e.g. `"V(a,b). V(b,c)."`.
        extent: String,
    },
    /// Drops a cached instance handle.
    EvictInstance {
        /// Handle returned by a prior `put_instance`.
        handle: String,
    },
    /// Snapshot of the cross-request cache counters.
    CacheStats,
    /// Syntactic fragment classification of a (views, query) pair:
    /// which decidability fragment it falls in and how a determinacy
    /// request over it would be routed. Purely structural — never
    /// parses instances, never chases, never consumes budget beyond
    /// parsing.
    Classify {
        /// Schema spec.
        schema: String,
        /// View definitions.
        views: String,
        /// The query.
        query: String,
    },
    /// Bounded semantic containment `q1 ⊆ q2` by exhaustive search.
    Containment {
        /// Schema spec.
        schema: String,
        /// Left query.
        q1: String,
        /// Right query.
        q2: String,
        /// Largest active-domain size to search.
        max_domain: u64,
        /// Cap on enumerated instances.
        space_limit: u64,
    },
    /// Finite determinacy: sound positive via the chase, bounded
    /// counterexample search, `open` otherwise.
    Finite {
        /// Schema spec.
        schema: String,
        /// View definitions.
        views: String,
        /// The query.
        query: String,
        /// Largest active-domain size to search.
        max_domain: u64,
        /// Cap on enumerated instances.
        space_limit: u64,
    },
    /// One exhaustive semantic determinacy scan at a fixed domain size.
    Semantic {
        /// Schema spec.
        schema: String,
        /// View definitions.
        views: String,
        /// The query.
        query: String,
        /// The active-domain size to scan.
        domain: u64,
        /// Cap on enumerated instances.
        space_limit: u64,
    },
    /// Server metrics snapshot.
    Stats,
    /// The flight recorder's current window: the last N request digests
    /// (op, outcome, fragment, phase timings, work stats) as JSONL.
    Flight,
    /// The full metrics registry rendered as a Prometheus text-exposition
    /// document (counters, gauges, cumulative-bucket histograms).
    MetricsProm,
    /// Asks the server to drain and stop.
    Shutdown,
    /// Deliberately panics the worker (containment tests). Servers
    /// reply `unsupported` unless started with `enable_debug_ops`.
    DebugPanic,
}

impl Request {
    /// Every wire op name, in schema-table order (`certain_sound` appears
    /// once per extent form).
    pub const OPS: &'static [&'static str] = <Request as Variants>::NAMES;

    /// The wire name of this operation.
    pub fn op(&self) -> &'static str {
        self.name()
    }
}

/// One request on the wire: version, correlation id, limits, operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope {
    /// Protocol version ([`PROTOCOL_VERSION`]).
    pub version: u64,
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: String,
    /// Requested resource limits.
    pub limits: Limits,
    /// Ask the server to attach a per-request execution profile (engine
    /// counter deltas) to the reply. Additive: absent on the wire means
    /// `false`, so v1 peers interoperate unchanged.
    pub profile: bool,
    /// Ask the server to record span events while executing this
    /// request and attach them to the reply as JSONL. Additive like
    /// `profile`: absent on the wire means `false`.
    pub trace: bool,
    /// Requested intra-request parallelism. Still decoded and encoded,
    /// so older clients keep working, but the server ignores it: every
    /// request runs on the one worker thread that dequeued it, and the
    /// reply is byte-identical to the same request without the field.
    pub parallelism: Option<u64>,
    /// The operation.
    pub request: Request,
}

impl Envelope {
    /// Wraps a request in a current-version envelope.
    pub fn new(id: impl Into<String>, limits: Limits, request: Request) -> Envelope {
        Envelope {
            version: PROTOCOL_VERSION,
            id: id.into(),
            limits,
            profile: false,
            trace: false,
            parallelism: None,
            request,
        }
    }

    /// Requests a per-request execution profile in the reply.
    pub fn with_profile(mut self, profile: bool) -> Envelope {
        self.profile = profile;
        self
    }

    /// Requests a span trace of the execution in the reply.
    pub fn with_trace(mut self, trace: bool) -> Envelope {
        self.trace = trace;
        self
    }

    /// Sets the envelope's `parallelism` field, which the server
    /// ignores.
    pub fn with_parallelism(mut self, parallelism: u64) -> Envelope {
        self.parallelism = Some(parallelism);
        self
    }
}

/// Resource accounting echoed with every response.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Checkpoints passed.
    pub steps: u64,
    /// Tuples charged.
    pub tuples: u64,
    /// Wall-clock time in milliseconds.
    pub elapsed_ms: u64,
    /// Full index (re)builds performed while serving the request.
    pub index_builds: u64,
    /// Tuples indexed incrementally (delta maintenance, no rebuild).
    pub index_tuples: u64,
    /// Widest engine fan-out the request used. The server runs every
    /// request on one thread, so it always replies 0, which is not
    /// encoded; a nonzero value from an older server still decodes.
    pub threads_used: u64,
}

/// Per-request phase timeline: the additive `timeline` reply section.
///
/// The server stamps six lifecycle points per request — frame-complete,
/// admission-enqueue, worker-start, worker-end, reorder-release,
/// write-drained — and reports the five intervals between them here, in
/// microseconds. Attached on the wire only when the envelope asked for a
/// profile; absent keys decode to `None`, so v1 peers interoperate
/// unchanged.
///
/// Latency semantics note: the per-op `op.{op}.latency_ms` registry
/// histogram measures **execution time only** (worker-start →
/// worker-end, the same interval as [`Timeline::exec_us`]); framing,
/// queue wait, reorder wait, and write drain are *not* in it. The
/// client-observable end-to-end latency (frame-complete →
/// write-drained) is recorded separately in the `server.e2e_ms`
/// histogram, and each interval feeds its own
/// `server.phase.{frame,queue,exec,reorder,write}_ms` histogram.
///
/// Non-exhaustive: only the server builds timelines, and a new phase
/// stays an additive change for readers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct Timeline {
    /// frame-complete → admission-enqueue (decode + admission), µs.
    pub frame_us: u64,
    /// admission-enqueue → worker-start (bounded-queue wait), µs.
    pub queue_us: u64,
    /// worker-start → worker-end (execution), µs.
    pub exec_us: u64,
    /// worker-end → reorder-release (pipelining reorder-buffer wait
    /// until every earlier sequence on the connection is serialized), µs.
    pub reorder_us: u64,
    /// reorder-release → write-drained, µs. Always 0 on the wire: a
    /// reply is serialized *at* release, so its own drain completes
    /// after encoding. The measured drain feeds `server.phase.write_ms`
    /// and the slow-request log instead; at loopback it is ~0.
    pub write_us: u64,
}

impl Timeline {
    /// Sum of the phase intervals, µs (what should approximate the
    /// client-measured round-trip minus network/client time).
    pub fn total_us(&self) -> u64 {
        self.frame_us + self.queue_us + self.exec_us + self.reorder_us + self.write_us
    }

    /// Encodes the wire form.
    pub fn to_json(&self) -> Value {
        self.enc()
    }

    /// Decodes [`to_json`](Self::to_json); `None` on shape mismatch.
    pub fn from_json(v: &Value) -> Option<Timeline> {
        Timeline::dec(v)
    }
}

impl From<WorkStats> for WireStats {
    fn from(w: WorkStats) -> WireStats {
        WireStats {
            steps: w.steps,
            tuples: w.tuples,
            elapsed_ms: w.elapsed.as_millis().min(u128::from(u64::MAX)) as u64,
            index_builds: 0,
            index_tuples: 0,
            threads_used: 0,
        }
    }
}

/// The error taxonomy for `error` responses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// The line was not a valid protocol envelope (bad JSON, missing
    /// fields, unknown op).
    Protocol,
    /// The envelope's version is not [`PROTOCOL_VERSION`].
    Version,
    /// A query/view/schema/instance payload failed to parse.
    Parse,
    /// Structurally invalid input (non-CQ view, arity clash, …).
    InvalidInput,
    /// Two payloads that must share a schema do not.
    SchemaMismatch,
    /// The operation is not supported by this server.
    Unsupported,
    /// The named instance handle is not in the cache (never existed, or
    /// was evicted). Recoverable: `put_instance` again and retry.
    UnknownHandle,
    /// The connection exceeded a server-side I/O deadline (e.g. a
    /// partial request line that never completed). The server drops the
    /// connection after this reply; reconnect to recover.
    Timeout,
    /// The request died inside the engine (a bug server-side; the worker
    /// survived and the connection stays usable).
    Internal,
}

/// A rendered determinacy counterexample: two instances with equal view
/// images and different query answers.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WireCounterexample {
    /// First instance.
    pub d1: String,
    /// Second instance.
    pub d2: String,
    /// The shared view image.
    pub image: String,
    /// `Q(d1)`.
    pub q1: String,
    /// `Q(d2)`.
    pub q2: String,
}

/// Server metrics snapshot on the wire.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireMetrics {
    /// Requests admitted into the queue.
    pub accepted: u64,
    /// Requests that produced an `ok` outcome.
    pub completed_ok: u64,
    /// Requests whose budget tripped (`exhausted` outcomes).
    pub exhausted: u64,
    /// Requests rejected by admission control.
    pub rejected: u64,
    /// `error`-status responses (protocol + engine errors).
    pub errors: u64,
    /// Requests currently queued (not yet picked up by a worker).
    pub queue_depth: u64,
    /// High-water mark of `queue_depth`.
    pub max_queue_depth: u64,
    /// Connections currently open.
    pub connections_open: u64,
    /// Connections accepted since start.
    pub connections_total: u64,
    /// Worker threads serving the queue.
    pub workers: u64,
}

impl WireMetrics {
    /// The registry counters behind the flat totals. [`Outcome`]'s
    /// `Display` prints them in its header, so a listing of the
    /// registry's counters can skip them.
    pub const COUNTERS: [&'static str; 6] = [
        "server.accepted",
        "server.completed_ok",
        "server.exhausted",
        "server.rejected",
        "server.errors",
        "server.connections_total",
    ];

    /// The flat fields, read off the registry's `server.*` series.
    pub fn from_registry(r: &RegistrySnapshot) -> WireMetrics {
        WireMetrics {
            accepted: r.counter("server.accepted"),
            completed_ok: r.counter("server.completed_ok"),
            exhausted: r.counter("server.exhausted"),
            rejected: r.counter("server.rejected"),
            errors: r.counter("server.errors"),
            queue_depth: r.gauge("server.queue_depth"),
            max_queue_depth: r.gauge("server.queue_depth_hwm"),
            connections_open: r.gauge("server.conns_open"),
            connections_total: r.counter("server.connections_total"),
            workers: r.gauge("server.workers"),
        }
    }
}

/// How a request ended, with its payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Reply to [`Request::Ping`].
    Pong,
    /// Verdict of the unrestricted chase test.
    Decided {
        /// Whether `V` determines `Q` over unrestricted instances.
        determined: bool,
        /// The minimized exact rewriting over `σ_V`, when determined.
        rewriting: Option<String>,
    },
    /// Verdict of rewriting extraction.
    Rewritten {
        /// Whether an exact rewriting exists (over unrestricted
        /// instances; Theorem 3.3 makes this language-independent).
        exists: bool,
        /// The rewriting, when it exists.
        rewriting: Option<String>,
    },
    /// Certain answers under sound views.
    CertainAnswers {
        /// Rendered answer relation, e.g. `{(a,b), (b,c)}`.
        answers: String,
        /// Number of certain tuples.
        count: u64,
    },
    /// Reply to [`Request::PutInstance`]: the extent is cached.
    InstancePut {
        /// Cache handle to pass as `{"handle": ...}` extents.
        handle: String,
        /// Fingerprint of the registered extent: equal fingerprints
        /// (under one schema/views/query context) share cached indexes.
        fingerprint: String,
        /// Ground tuples registered.
        tuples: u64,
    },
    /// Reply to [`Request::EvictInstance`].
    Evicted {
        /// The handle that was asked about.
        handle: String,
        /// Whether it was present (and is now gone).
        existed: bool,
    },
    /// Reply to [`Request::CacheStats`].
    CacheStatsSnapshot {
        /// Live cache entries (handles + derived indexes).
        entries: u64,
        /// Approximate bytes held.
        bytes: u64,
        /// Derived-index hits.
        hits: u64,
        /// Derived-index misses.
        misses: u64,
        /// Entries evicted (LRU pressure + explicit).
        evictions: u64,
        /// `put_instance` registrations served.
        puts: u64,
        /// Configured entry cap.
        max_entries: u64,
        /// Configured byte cap.
        max_bytes: u64,
        /// Disk-tier loads that returned a verified record. All
        /// `disk_*` fields are additive: old clients never see the keys
        /// and new clients decode absent keys as 0 (no-tier servers).
        disk_hits: u64,
        /// Disk-tier lookups that found nothing usable.
        disk_misses: u64,
        /// Records appended to the segment file.
        disk_spills: u64,
        /// Disk hits promoted back into the RAM LRU.
        disk_promotions: u64,
        /// Records dropped for bad framing/checksum/fingerprint.
        disk_corrupt_dropped: u64,
        /// Disk I/O failures demoted to clean misses.
        disk_io_errors: u64,
        /// Live segment bytes.
        disk_bytes: u64,
    },
    /// Reply to [`Request::Classify`]: the syntactic fragment of the
    /// pair and how determinacy requests over it are routed.
    Classified {
        /// Fragment tag: `"project-select"`, `"path"`, or `"general"`.
        fragment: String,
        /// Whether a terminating decision procedure exists for the
        /// fragment (`false` for `general` — determinacy there is
        /// undecidable and only the budgeted semi-decision runs).
        decidable: bool,
        /// One-line description of the route taken by `decide`-family
        /// requests in this fragment.
        route: String,
    },
    /// Verdict of the bounded containment check.
    Contained {
        /// `"no-counterexample"`, `"refuted"`, or `"too-large"`.
        verdict: String,
        /// Searched bound (for `no-counterexample`).
        bound: Option<u64>,
        /// Rendered witness instance (for `refuted`).
        witness: Option<String>,
    },
    /// Verdict of the finite determinacy procedure.
    FiniteOutcome {
        /// `"determined"`, `"not-determined"`, or `"open"`.
        verdict: String,
        /// The exact rewriting (for `determined`).
        rewriting: Option<String>,
        /// Largest domain exhaustively searched (for `open`).
        searched_up_to: Option<u64>,
        /// The witness pair (for `not-determined`).
        counterexample: Option<WireCounterexample>,
    },
    /// Verdict of one exhaustive semantic scan.
    SemanticOutcome {
        /// `"no-counterexample"`, `"not-determined"`, or `"too-large"`.
        verdict: String,
        /// The scanned bound (for `no-counterexample`).
        bound: Option<u64>,
        /// The witness pair (for `not-determined`).
        counterexample: Option<WireCounterexample>,
    },
    /// Metrics snapshot.
    StatsSnapshot {
        /// Flat server counters (kept for v1 compatibility).
        metrics: WireMetrics,
        /// Full registry snapshot: per-op counters, gauges, and latency
        /// histograms. Additive; old peers ignore it, old servers send an
        /// empty one.
        registry: RegistrySnapshot,
    },
    /// Reply to [`Request::Flight`]: the flight recorder's window.
    FlightSnapshot {
        /// One JSON digest per line, oldest first; empty when nothing
        /// has been recorded yet.
        jsonl: String,
    },
    /// Reply to [`Request::MetricsProm`]: the registry rendered as a
    /// Prometheus text-exposition document.
    MetricsText {
        /// The exposition document (`# HELP`/`# TYPE` + samples).
        text: String,
    },
    /// The server acknowledged [`Request::Shutdown`] and is draining.
    ShuttingDown,
    /// A resource limit tripped before the procedure finished.
    Exhausted {
        /// Which limit (`"deadline exceeded"`, `"canceled"`, …).
        reason: String,
        /// Human-readable partial progress.
        partial: String,
    },
    /// Admission control rejected the request; no work was done. Retry
    /// against a less loaded server (or later).
    Overloaded {
        /// Queue occupancy observed at rejection time.
        queue_depth: u64,
        /// The bounded queue's capacity.
        queue_capacity: u64,
    },
    /// The request was invalid.
    Error {
        /// Taxonomy bucket.
        kind: ErrorKind,
        /// Explanation.
        message: String,
    },
}

impl Outcome {
    /// The wire `status` field for this outcome.
    pub fn status(&self) -> &'static str {
        match self {
            Outcome::Exhausted { .. } => "exhausted",
            Outcome::Overloaded { .. } => "overloaded",
            Outcome::Error { .. } => "error",
            _ => "ok",
        }
    }
}

/// One reply on the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// Protocol version.
    pub version: u64,
    /// Correlation id echoed from the envelope (empty when the envelope
    /// was too malformed to recover one).
    pub id: String,
    /// How the request ended.
    pub outcome: Outcome,
    /// Budget accounting for the work performed server-side.
    pub work: WireStats,
    /// Per-request execution profile: engine counter deltas attributable
    /// to this request alone. Present only when the envelope asked for it.
    pub profile: Option<MetricsSnapshot>,
    /// Span events recorded while executing this request, as JSONL (one
    /// span per line). Present only when the envelope set `trace`.
    pub trace: Option<String>,
    /// Fragment attribution for determinacy-family requests: the honest
    /// routing note (`"project-select"`, `"path"`, or
    /// `"undecidable-in-general"`). Additive — absent for other ops and
    /// from pre-router servers, and absent keys decode to `None`.
    pub fragment: Option<String>,
    /// Per-request phase timeline. Additive like `fragment`: present on
    /// the wire only for profiled requests served through the event
    /// loop; absent keys decode to `None`.
    pub timeline: Option<Timeline>,
}

impl Response {
    /// Builds a current-version response.
    pub fn new(id: impl Into<String>, outcome: Outcome, work: WireStats) -> Response {
        Response {
            version: PROTOCOL_VERSION,
            id: id.into(),
            outcome,
            work,
            profile: None,
            trace: None,
            fragment: None,
            timeline: None,
        }
    }

    /// Attaches a per-request execution profile.
    pub fn with_profile(mut self, profile: MetricsSnapshot) -> Response {
        self.profile = Some(profile);
        self
    }

    /// Attaches a span trace (JSONL).
    pub fn with_trace(mut self, trace: impl Into<String>) -> Response {
        self.trace = Some(trace.into());
        self
    }

    /// Attaches the fragment-routing note (determinacy-family ops).
    pub fn with_fragment(mut self, fragment: impl Into<String>) -> Response {
        self.fragment = Some(fragment.into());
        self
    }

    /// Attaches the per-request phase timeline.
    pub fn with_timeline(mut self, timeline: Timeline) -> Response {
        self.timeline = Some(timeline);
        self
    }

    /// An `error` response with zero work.
    pub fn error(id: impl Into<String>, kind: ErrorKind, message: impl Into<String>) -> Response {
        Response::new(id, Outcome::Error { kind, message: message.into() }, WireStats::default())
    }
}

// ---------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------

impl Envelope {
    /// Encodes the envelope as one compact JSON document (no newline).
    pub fn to_json(&self) -> Value {
        self.enc()
    }

    /// Decodes an envelope from parsed JSON. `Err` carries the error
    /// kind and message (plus whatever correlation id was recoverable).
    pub fn from_json(v: &Value) -> Result<Envelope, (ErrorKind, String, String)> {
        Envelope::take_fields(Src::wire(v), Scope::Top).map_err(|(kind, message)| {
            let id = v.get(ID).and_then(Value::as_str).unwrap_or_default();
            (kind, message, id.to_owned())
        })
    }

    /// Parses an envelope from one wire line.
    pub fn from_line(line: &str) -> Result<Envelope, (ErrorKind, String, String)> {
        let v =
            json::parse(line).map_err(|e| (ErrorKind::Protocol, e.to_string(), String::new()))?;
        Envelope::from_json(&v)
    }

    /// Builds an envelope from text values named by Rust field, the way
    /// `vqd-cli request` reads `--max-domain 3` as `max_domain`. `op`
    /// picks the [`Request`] variant; every other name is a field of
    /// [`Envelope`], [`Limits`] or that variant. The schema table decodes
    /// them as it decodes the wire: numbers parse from text, an empty
    /// value is `true`, and absent fields take the table's defaults. The
    /// version is always [`PROTOCOL_VERSION`]. `Err` names the first
    /// missing or malformed field, or a name the op does not use.
    pub fn from_fields(fields: &[(String, String)]) -> Result<Envelope, String> {
        let obj =
            Value::Obj(fields.iter().map(|(k, v)| (k.clone(), Value::from(v.as_str()))).collect());
        let used = Cell::new(0);
        let src = Src { obj: &obj, used: Some(&used) };
        let envelope = Envelope::take_fields(src, Scope::Top).map_err(|(_, message)| message)?;
        match (0..fields.len()).find(|&i| used.get() & 1 << i.min(63) == 0) {
            Some(i) => {
                Err(format!("op `{}` takes no field `{}`", envelope.request.op(), fields[i].0))
            }
            None => Ok(envelope),
        }
    }
}

impl Response {
    /// Encodes the response as one compact JSON document (no newline).
    pub fn to_json(&self) -> Value {
        self.enc()
    }

    /// Decodes a response from parsed JSON.
    pub fn from_json(v: &Value) -> Result<Response, String> {
        Response::take_fields(Src::wire(v), Scope::Top).map_err(|(_, message)| message)
    }

    /// Parses a response from one wire line.
    pub fn from_line(line: &str) -> Result<Response, String> {
        let v = json::parse(line).map_err(|e| e.to_string())?;
        Response::from_json(&v)
    }
}

// ---------------------------------------------------------------------
// Schema machinery: leaf codecs, row rules, and the table macros
// ---------------------------------------------------------------------

/// A JSON object under construction, in key order.
type Obj = Vec<(String, Value)>;

/// A decode failure: the taxonomy bucket and the message.
type Fail = (ErrorKind, String);

fn protocol(message: String) -> Fail {
    (ErrorKind::Protocol, message)
}

/// Where a row sits, which decides how its error texts read.
#[derive(Clone, Copy)]
enum Scope {
    Top,
    Op(&'static str),
    Kind(&'static str),
}

impl Scope {
    /// The text for an absent (or wrong-typed) required field.
    fn required(self, key: &str, noun: &str) -> String {
        match self {
            Scope::Top => format!("missing `{key}`"),
            Scope::Op(op) => format!("op `{op}` needs {noun} field `{key}`"),
            Scope::Kind(kind) => format!("result kind `{kind}` needs {noun} `{key}`"),
        }
    }

    /// The text for a present optional field of the wrong type.
    fn wrong(self, key: &str, noun: &str) -> String {
        match self {
            Scope::Top => format!("field `{key}` must be a {noun}"),
            Scope::Op(op) => format!("op `{op}` field `{key}` must be a {noun}"),
            Scope::Kind(kind) => format!("result kind `{kind}` field `{key}` must be a {noun}"),
        }
    }
}

/// What a decoder reads. On the wire it is a JSON object keyed by wire
/// keys. For [`Envelope::from_fields`] it is one flat object of text
/// values keyed by Rust field names, and `used` marks each field read.
#[derive(Clone, Copy)]
struct Src<'a> {
    obj: &'a Value,
    used: Option<&'a Cell<u64>>,
}

impl<'a> Src<'a> {
    fn wire(obj: &'a Value) -> Src<'a> {
        Src { obj, used: None }
    }

    fn text(self) -> bool {
        self.used.is_some()
    }

    /// The value under `key` (`field` for text); the last duplicate wins.
    fn get(self, key: &str, field: &str) -> Option<&'a Value> {
        let Value::Obj(fields) = self.obj else { return None };
        let name = if self.text() { field } else { key };
        let i = fields.iter().rposition(|(k, _)| k == name)?;
        if let Some(used) = self.used {
            // The 64th text field onward share one bit.
            used.set(used.get() | 1 << i.min(63));
        }
        Some(&fields[i].1)
    }

    /// `Ok(None)` when absent, `Err(())` when present with the wrong type.
    fn leaf<T: Leaf>(self, key: &str, field: &str) -> Result<Option<T>, ()> {
        let Some(v) = self.get(key, field) else { return Ok(None) };
        let text = || v.as_str().filter(|_| self.text()).and_then(T::from_text);
        T::dec(v).or_else(text).map(Some).ok_or(())
    }
}

/// A value that travels as one JSON value.
trait Leaf: Sized {
    /// What the value is, for error texts.
    const NOUN: &'static str;
    fn enc(&self) -> Value;
    /// `None` when `v` has the wrong type.
    fn dec(v: &Value) -> Option<Self>;
    /// Parses a command-line value ([`Envelope::from_fields`]).
    fn from_text(_: &str) -> Option<Self> {
        None
    }
}

/// `leaf!(Type, noun, |x| encode, |json| decode [, |text| parse])`.
macro_rules! leaf {
    ($T:ty, $noun:literal, |$x:ident| $enc:expr, |$v:ident| $dec:expr $(, |$s:ident| $text:expr)?) => {
        impl Leaf for $T {
            const NOUN: &'static str = $noun;
            fn enc(&self) -> Value {
                let $x = self;
                $enc
            }
            fn dec($v: &Value) -> Option<$T> {
                $dec
            }
            $( fn from_text($s: &str) -> Option<$T> {
                $text
            } )?
        }
    };
}

// Up to 2^64, not just 2^53: the writer rounds a large `u64` (a `u64::MAX`
// cap) to the nearest `f64`, and it must read back, saturated.
leaf!(
    u64,
    "non-negative integer",
    |n| Value::from(*n),
    |v| match v.as_f64() {
        Some(n) if n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64 => Some(n as u64),
        _ => None,
    },
    |s| s.parse().ok()
);
leaf!(bool, "boolean", |b| Value::from(*b), |v| v.as_bool(), |s| match s {
    // A bare switch (`--profile`) is `true`.
    "" | "true" => Some(true),
    "false" => Some(false),
    _ => None,
});
leaf!(String, "string", |s| Value::from(s.as_str()), |v| v.as_str().map(str::to_owned), |s| {
    Some(s.to_owned())
});
// Unknown names read as `internal`, so a newer server's kinds still read
// as errors.
leaf!(ErrorKind, "string", |k| Value::from(k.as_str()), |v| {
    v.as_str().map(|s| ErrorKind::from_wire(s).unwrap_or(ErrorKind::Internal))
});
leaf!(MetricsSnapshot, "counter object", |m| m.to_json(), |v| MetricsSnapshot::from_json(v));
leaf!(RegistrySnapshot, "registry object", |r| r.to_json(), |v| RegistrySnapshot::from_json(v));

impl<T: Leaf> Leaf for Option<T> {
    const NOUN: &'static str = T::NOUN;
    fn enc(&self) -> Value {
        self.as_ref().map_or(Value::Null, T::enc)
    }
    fn dec(v: &Value) -> Option<Option<T>> {
        T::dec(v).map(Some)
    }
    fn from_text(s: &str) -> Option<Option<T>> {
        T::from_text(s).map(Some)
    }
}

/// A struct whose fields are rows ([`wire_record!`]).
trait Record: Sized {
    fn put_fields(&self, out: &mut Obj);
    fn take_fields(src: Src, scope: Scope) -> Result<Self, Fail>;
    #[cfg(test)]
    fn probes(&self, path: &[&'static str], scope: Scope, out: &mut Vec<Probe>);
}

/// An enum whose variants are named row lists ([`wire_enum!`]).
trait Variants: Sized {
    /// The key holding the variant name.
    const TAG: &'static str;
    /// Variant names, in table order.
    const NAMES: &'static [&'static str];
    fn name(&self) -> &'static str;
    fn put_fields(&self, out: &mut Obj);
    /// `None` when no variant has this name.
    fn take_variant(name: &str, src: Src) -> Option<Result<Self, Fail>>;
    fn unknown(name: &str) -> Fail;
    #[cfg(test)]
    fn probes(&self, path: &[&'static str], out: &mut Vec<Probe>);
}

/// How one row is written and read.
trait Rule<T> {
    fn put(&self, key: &str, v: &T, out: &mut Obj);
    fn take(self, src: Src, key: &str, field: &str, scope: Scope) -> Result<T, Fail>;
    /// What deleting the key, or giving it a wrong-typed value, decodes to.
    #[cfg(test)]
    fn probe(
        &self,
        key: &'static str,
        v: &T,
        scope: Scope,
        path: &[&'static str],
        out: &mut Vec<Probe>,
    );
}

/// A leaf row. Without a default it is required: absent or wrong-typed
/// is an error, worded by its scope (or "missing `key`" when `bare`).
/// With one, absent decodes as the default, wrong-typed is an error, and
/// `skip` leaves the key off when the value is the default.
struct Row<T> {
    default: Option<T>,
    skip: bool,
    bare: bool,
}

fn req<T>() -> Row<T> {
    Row { default: None, skip: false, bare: false }
}

fn missing<T>() -> Row<T> {
    Row { bare: true, ..req() }
}

fn or<T>(default: T) -> Row<T> {
    Row { default: Some(default), ..req() }
}

fn skip<T>(default: T) -> Row<T> {
    Row { skip: true, ..or(default) }
}

impl<T: Leaf + PartialEq> Rule<T> for Row<T> {
    fn put(&self, key: &str, v: &T, out: &mut Obj) {
        if !self.skip || self.default.as_ref() != Some(v) {
            out.push((key.to_owned(), v.enc()));
        }
    }
    fn take(self, src: Src, key: &str, field: &str, scope: Scope) -> Result<T, Fail> {
        let got = src.leaf(key, field);
        match self.default {
            Some(default) => match got {
                Ok(v) => Ok(v.unwrap_or(default)),
                Err(()) => Err(protocol(scope.wrong(key, T::NOUN))),
            },
            None => {
                let scope = if self.bare { Scope::Top } else { scope };
                got.ok().flatten().ok_or_else(|| protocol(scope.required(key, T::NOUN)))
            }
        }
    }
    #[cfg(test)]
    fn probe(
        &self,
        key: &'static str,
        _: &T,
        scope: Scope,
        path: &[&'static str],
        out: &mut Vec<Probe>,
    ) {
        out.push(match &self.default {
            Some(default) => {
                let mut written = Vec::new();
                self.put(key, default, &mut written);
                Probe::new(path, key, Ok(written), scope.wrong(key, T::NOUN))
            }
            None => {
                let scope = if self.bare { Scope::Top } else { scope };
                Probe::required(path, key, scope.required(key, T::NOUN))
            }
        });
    }
}

/// The field's own rows, inlined into the enclosing object.
struct Flat;

fn flat() -> Flat {
    Flat
}

impl<T: Record> Rule<T> for Flat {
    fn put(&self, _: &str, v: &T, out: &mut Obj) {
        v.put_fields(out);
    }
    fn take(self, src: Src, _: &str, _: &str, scope: Scope) -> Result<T, Fail> {
        T::take_fields(src, scope)
    }
    #[cfg(test)]
    fn probe(
        &self,
        _: &'static str,
        v: &T,
        scope: Scope,
        path: &[&'static str],
        out: &mut Vec<Probe>,
    ) {
        v.probes(path, scope, out);
    }
}

/// A nested object: its tag key names the variant, the rest are the
/// variant's rows. Text fields are flat, so there the rows share one
/// object.
struct Tagged;

fn tagged() -> Tagged {
    Tagged
}

impl<T: Variants> Rule<T> for Tagged {
    fn put(&self, key: &str, v: &T, out: &mut Obj) {
        let mut inner = vec![(T::TAG.to_owned(), Value::from(v.name()))];
        v.put_fields(&mut inner);
        out.push((key.to_owned(), Value::Obj(inner)));
    }
    fn take(self, src: Src, key: &str, field: &str, _: Scope) -> Result<T, Fail> {
        let inner = if src.text() {
            src
        } else {
            let obj = src.get(key, field).ok_or_else(|| protocol(format!("missing `{key}`")))?;
            Src::wire(obj)
        };
        let Some(name) = inner.get(T::TAG, T::TAG).and_then(Value::as_str) else {
            return Err(protocol(format!("missing `{key}.{}`", T::TAG)));
        };
        T::take_variant(name, inner).unwrap_or_else(|| Err(T::unknown(name)))
    }
    #[cfg(test)]
    fn probe(
        &self,
        key: &'static str,
        v: &T,
        _: Scope,
        path: &[&'static str],
        out: &mut Vec<Probe>,
    ) {
        let wrong = format!("missing `{key}.{}`", T::TAG);
        out.push(Probe::new(path, key, Err(format!("missing `{key}`")), wrong));
        v.probes(&[path, &[key]].concat(), out);
    }
}

/// The protocol version: required, and equal to [`PROTOCOL_VERSION`].
struct Version;

fn version() -> Version {
    Version
}

impl Rule<u64> for Version {
    fn put(&self, key: &str, v: &u64, out: &mut Obj) {
        out.push((key.to_owned(), v.enc()));
    }
    fn take(self, src: Src, key: &str, field: &str, _: Scope) -> Result<u64, Fail> {
        if src.text() {
            return Ok(PROTOCOL_VERSION);
        }
        match src.get(key, field).and_then(Value::as_u64) {
            Some(PROTOCOL_VERSION) => Ok(PROTOCOL_VERSION),
            Some(v) => Err((
                ErrorKind::Version,
                format!("unsupported protocol version {v} (expected {PROTOCOL_VERSION})"),
            )),
            None => Err(protocol(format!("missing or non-numeric `{key}`"))),
        }
    }
    #[cfg(test)]
    fn probe(
        &self,
        key: &'static str,
        _: &u64,
        _: Scope,
        path: &[&'static str],
        out: &mut Vec<Probe>,
    ) {
        out.push(Probe::required(path, key, format!("missing or non-numeric `{key}`")));
    }
}

/// A required handle reference, `{"handle": "..."}` on the wire. Its
/// error text is the inline string form's, since the two share an op.
struct HandleRef;

fn handle_ref() -> HandleRef {
    HandleRef
}

impl HandleRef {
    const KEY: &'static str = "handle";
}

impl Rule<String> for HandleRef {
    fn put(&self, key: &str, v: &String, out: &mut Obj) {
        out.push((key.to_owned(), Value::object([(HandleRef::KEY, v.enc())])));
    }
    fn take(self, src: Src, key: &str, field: &str, scope: Scope) -> Result<String, Fail> {
        let v = src.get(key, field);
        let handle = if src.text() { v } else { v.and_then(|e| e.get(HandleRef::KEY)) };
        let text = || protocol(scope.required(key, String::NOUN));
        handle.and_then(String::dec).ok_or_else(text)
    }
    #[cfg(test)]
    fn probe(
        &self,
        key: &'static str,
        _: &String,
        scope: Scope,
        path: &[&'static str],
        out: &mut Vec<Probe>,
    ) {
        out.push(Probe::required(path, key, scope.required(key, String::NOUN)));
    }
}

/// One row's expected behaviour, for the generated row test.
#[cfg(test)]
struct Probe {
    /// Keys from the record's top to the object holding the row.
    path: Vec<&'static str>,
    key: &'static str,
    /// Deleting the key: what re-encoding writes in its place, or the error.
    absent: Result<Obj, String>,
    /// The error for a wrong-typed value.
    wrong: String,
}

#[cfg(test)]
impl Probe {
    fn new(
        path: &[&'static str],
        key: &'static str,
        absent: Result<Obj, String>,
        wrong: String,
    ) -> Probe {
        Probe { path: path.to_vec(), key, absent, wrong }
    }

    fn required(path: &[&'static str], key: &'static str, text: String) -> Probe {
        Probe::new(path, key, Err(text.clone()), text)
    }
}

/// A row's wire key: the field name unless the row gives one.
macro_rules! key {
    ($field:ident []) => {
        stringify!($field)
    };
    ($field:ident [$key:tt]) => {
        $key
    };
}

/// One record row's code: `@put`, `@take` or `@probe`.
macro_rules! row {
    (@put $this:ident $out:ident (field $field:ident [$($key:tt)?] $ty:ty, $rule:expr)) => {
        Rule::<$ty>::put(&$rule, key!($field [$($key)?]), &$this.$field, $out)
    };
    (@put $this:ident $out:ident (derived $key:tt $field:ident $method:ident)) => {
        $out.push(($key.to_owned(), Value::from($this.$field.$method())))
    };
    (@take $src:ident $scope:ident (field $field:ident [$($key:tt)?] $ty:ty, $rule:expr)) => {
        let $field = Rule::<$ty>::take($rule, $src, key!($field [$($key)?]), stringify!($field), $scope)?;
    };
    (@probe $this:ident $path:ident $scope:ident $out:ident (field $field:ident [$($key:tt)?] $ty:ty, $rule:expr)) => {
        Rule::<$ty>::probe(&$rule, key!($field [$($key)?]), &$this.$field, $scope, $path, $out)
    };
    (@$what:ident $($ident:ident)* (derived $($rest:tt)*)) => {};
}

/// Implements [`Record`] and [`Leaf`] for a struct from its rows; a row
/// `@ KEY = field.method,` is written from `self.field.method()` only.
macro_rules! wire_record {
    ($T:ident, $noun:literal, { $($rows:tt)* }) => {
        wire_record!(@munch $T $noun [] [] $($rows)*);
    };
    (@munch $T:ident $noun:literal [$($row:tt)*] [$($name:ident)*]
        @ $key:tt = $field:ident . $method:ident, $($rest:tt)*) => {
        wire_record!(@munch $T $noun [$($row)* (derived $key $field $method)] [$($name)*] $($rest)*);
    };
    (@munch $T:ident $noun:literal [$($row:tt)*] [$($name:ident)*]
        $field:ident $(as $key:tt)? : $ty:ty = $rule:expr, $($rest:tt)*) => {
        wire_record!(@munch $T $noun [$($row)* (field $field [$($key)?] $ty, $rule)]
            [$($name)* $field] $($rest)*);
    };
    (@munch $T:ident $noun:literal [$($row:tt)*] [$($name:ident)*]) => {
        impl Record for $T {
            fn put_fields(&self, out: &mut Obj) {
                let this = self;
                $( row!(@put this out $row); )*
            }
            fn take_fields(src: Src, scope: Scope) -> Result<$T, Fail> {
                $( row!(@take src scope $row); )*
                Ok($T { $($name),* })
            }
            #[cfg(test)]
            fn probes(&self, path: &[&'static str], scope: Scope, out: &mut Vec<Probe>) {
                let this = self;
                $( row!(@probe this path scope out $row); )*
            }
        }

        impl Leaf for $T {
            const NOUN: &'static str = $noun;
            fn enc(&self) -> Value {
                let mut out = Vec::new();
                self.put_fields(&mut out);
                Value::Obj(out)
            }
            fn dec(v: &Value) -> Option<$T> {
                let Value::Obj(_) = v else { return None };
                $T::take_fields(Src::wire(v), Scope::Top).ok()
            }
        }
    };
}

/// Implements [`Variants`] for an enum: one named row list per variant.
/// Variants sharing a name are tried in order; when none decodes, the
/// last one's error is the reply.
macro_rules! wire_enum {
    ($E:ident, tag $tag:literal, $scope:ident, unknown($kind:expr, $what:literal), {
        $( $V:ident $name:literal { $( $field:ident $(as $key:tt)? : $ty:ty = $rule:expr ),* $(,)? } )*
    }) => {
        impl Variants for $E {
            const TAG: &'static str = $tag;
            const NAMES: &'static [&'static str] = &[$($name),*];

            fn name(&self) -> &'static str {
                match self {
                    $( $E::$V { .. } => $name, )*
                }
            }

            fn put_fields(&self, out: &mut Obj) {
                match self {
                    $( $E::$V { $($field),* } => {
                        $( Rule::<$ty>::put(&$rule, key!($field [$($key)?]), $field, out); )*
                    } )*
                }
            }

            #[allow(unused_labels)]
            fn take_variant(name: &str, src: Src) -> Option<Result<$E, Fail>> {
                let mut last = None;
                $( if name == $name {
                    let tried: Result<$E, Fail> = 'variant: {
                        $( let $field = match Rule::<$ty>::take(
                            $rule, src, key!($field [$($key)?]), stringify!($field), Scope::$scope($name),
                        ) {
                            Ok(v) => v,
                            Err(e) => break 'variant Err(e),
                        }; )*
                        Ok($E::$V { $($field),* })
                    };
                    match tried {
                        Ok(v) => return Some(Ok(v)),
                        Err(e) => last = Some(Err(e)),
                    }
                } )*
                last
            }

            fn unknown(name: &str) -> Fail {
                ($kind, format!("{} `{name}`", $what))
            }

            #[cfg(test)]
            fn probes(&self, path: &[&'static str], out: &mut Vec<Probe>) {
                match self {
                    $( $E::$V { $($field),* } => {
                        $( Rule::<$ty>::probe(
                            &$rule, key!($field [$($key)?]), $field, Scope::$scope($name), path, out,
                        ); )*
                    } )*
                }
            }
        }
    };
}

/// The wire names of a fieldless enum, both ways.
macro_rules! wire_names {
    ($E:ident { $($V:ident $name:literal),* $(,)? }) => {
        impl $E {
            /// Wire name.
            pub fn as_str(self) -> &'static str {
                match self {
                    $( $E::$V => $name, )*
                }
            }

            /// Inverse of [`as_str`](Self::as_str).
            pub fn from_wire(s: &str) -> Option<$E> {
                [$($E::$V),*].into_iter().find(|k| k.as_str() == s)
            }
        }
    };
}

// ---------------------------------------------------------------------
// The wire schema table
// ---------------------------------------------------------------------
//
// One row per wire field, `field [as KEY]: Type = rule,`, in wire key
// order; the key is the field name unless the row gives one. `req()` and
// `missing()` are required, `or(d)` reads an absent field as `d`, and
// `skip(d)` also leaves `d` off the wire. The other rules are described
// where they are defined, and all of them in DESIGN.md §21. A row
// `@ KEY = field.method,` is written from `self.field.method()` only.

/// The version's key, a row of both envelopes and replies.
const V: &str = "v";
/// The correlation id's key: a row of both envelopes and replies, and
/// the error path's source for the id of an envelope that fails to decode.
const ID: &str = "id";
/// Largest active-domain size a bounded search covers by default.
const MAX_DOMAIN: u64 = 3;
/// Default cap on instances a bounded search enumerates.
const SPACE_LIMIT: u64 = 1 << 22;

wire_record!(Envelope, "envelope object", {
    version as V: u64 = version(),
    id as ID: String = or(String::new()),
    limits: Limits = flat(),
    profile: bool = skip(false),
    trace: bool = skip(false),
    parallelism: Option<u64> = skip(None),
    request: Request = tagged(),
});

wire_record!(Limits, "limits object", {
    deadline_ms: Option<u64> = skip(None),
    step_limit: Option<u64> = skip(None),
    tuple_limit: Option<u64> = skip(None),
});

wire_enum!(Request, tag "op", Op, unknown(ErrorKind::Unsupported, "unknown op"), {
    Ping "ping" {}
    Decide "decide_unrestricted" { schema: String = req(), views: String = req(), query: String = req() }
    Rewrite "rewrite" { schema: String = req(), views: String = req(), query: String = req() }
    // Tried before `Certain`; when both fail, `Certain`'s error is the reply.
    CertainHandle "certain_sound" {
        schema: String = req(),
        views: String = req(),
        query: String = req(),
        handle as "extent": String = handle_ref(),
    }
    Certain "certain_sound" {
        schema: String = req(),
        views: String = req(),
        query: String = req(),
        extent: String = req(),
    }
    PutInstance "put_instance" { schema: String = req(), extent: String = req() }
    EvictInstance "evict_instance" { handle: String = req() }
    CacheStats "cache_stats" {}
    Classify "classify" { schema: String = req(), views: String = req(), query: String = req() }
    Containment "containment" {
        schema: String = req(),
        q1: String = req(),
        q2: String = req(),
        max_domain: u64 = or(MAX_DOMAIN),
        space_limit: u64 = or(SPACE_LIMIT),
    }
    Finite "decide_finite" {
        schema: String = req(),
        views: String = req(),
        query: String = req(),
        max_domain: u64 = or(MAX_DOMAIN),
        space_limit: u64 = or(SPACE_LIMIT),
    }
    Semantic "check_exhaustive" {
        schema: String = req(),
        views: String = req(),
        query: String = req(),
        domain: u64 = or(2),
        space_limit: u64 = or(SPACE_LIMIT),
    }
    Stats "stats" {}
    Flight "flight" {}
    MetricsProm "metrics_prom" {}
    Shutdown "shutdown" {}
    DebugPanic "debug_panic" {}
});

wire_record!(Response, "reply object", {
    version as V: u64 = req(),
    id as ID: String = req(),
    @ "status" = outcome.status,
    work: WireStats = or(WireStats::default()),
    profile: Option<MetricsSnapshot> = skip(None),
    trace: Option<String> = skip(None),
    fragment: Option<String> = skip(None),
    timeline: Option<Timeline> = skip(None),
    outcome as "result": Outcome = tagged(),
});

wire_record!(WireStats, "work object", {
    steps: u64 = or(0),
    tuples: u64 = or(0),
    elapsed_ms: u64 = or(0),
    index_builds: u64 = or(0),
    index_tuples: u64 = or(0),
    threads_used: u64 = skip(0),
});

wire_record!(Timeline, "timeline object", {
    frame_us: u64 = req(),
    queue_us: u64 = req(),
    exec_us: u64 = req(),
    reorder_us: u64 = or(0),
    write_us: u64 = or(0),
});

wire_record!(WireCounterexample, "counterexample object", {
    d1: String = req(),
    d2: String = req(),
    image: String = req(),
    q1: String = req(),
    q2: String = req(),
});

wire_record!(WireMetrics, "metrics object", {
    accepted: u64 = or(0),
    completed_ok: u64 = or(0),
    exhausted: u64 = or(0),
    rejected: u64 = or(0),
    errors: u64 = or(0),
    queue_depth: u64 = or(0),
    max_queue_depth: u64 = or(0),
    connections_open: u64 = or(0),
    connections_total: u64 = or(0),
    workers: u64 = or(0),
});

wire_enum!(Outcome, tag "kind", Kind, unknown(ErrorKind::Protocol, "unknown result kind"), {
    Pong "pong" {}
    Decided "decided" { determined: bool = missing(), rewriting: Option<String> = skip(None) }
    Rewritten "rewritten" { exists: bool = missing(), rewriting: Option<String> = skip(None) }
    CertainAnswers "certain" { answers: String = req(), count: u64 = or(0) }
    InstancePut "put" { handle: String = req(), fingerprint: String = req(), tuples: u64 = or(0) }
    Evicted "evicted" { handle: String = req(), existed: bool = or(false) }
    CacheStatsSnapshot "cache-stats" {
        entries: u64 = or(0),
        bytes: u64 = or(0),
        hits: u64 = or(0),
        misses: u64 = or(0),
        evictions: u64 = or(0),
        puts: u64 = or(0),
        max_entries: u64 = or(0),
        max_bytes: u64 = or(0),
        disk_hits: u64 = or(0),
        disk_misses: u64 = or(0),
        disk_spills: u64 = or(0),
        disk_promotions: u64 = or(0),
        disk_corrupt_dropped: u64 = or(0),
        disk_io_errors: u64 = or(0),
        disk_bytes: u64 = or(0),
    }
    Classified "classified" { fragment: String = req(), decidable: bool = or(false), route: String = req() }
    Contained "containment" {
        verdict: String = req(),
        bound: Option<u64> = skip(None),
        witness: Option<String> = skip(None),
    }
    FiniteOutcome "finite" {
        verdict: String = req(),
        rewriting: Option<String> = skip(None),
        searched_up_to: Option<u64> = skip(None),
        counterexample: Option<WireCounterexample> = skip(None),
    }
    SemanticOutcome "semantic" {
        verdict: String = req(),
        bound: Option<u64> = skip(None),
        counterexample: Option<WireCounterexample> = skip(None),
    }
    StatsSnapshot "stats" { metrics: WireMetrics = flat(), registry: RegistrySnapshot = or(RegistrySnapshot::default()) }
    FlightSnapshot "flight" { jsonl: String = req() }
    MetricsText "metrics-text" { text: String = req() }
    ShuttingDown "shutting-down" {}
    Exhausted "exhausted" { reason: String = req(), partial: String = req() }
    Overloaded "overloaded" { queue_depth: u64 = or(0), queue_capacity: u64 = or(0) }
    Error "error" { kind as "error_kind": ErrorKind = or(ErrorKind::Internal), message: String = req() }
});

wire_names!(ErrorKind {
    Protocol "protocol",
    Version "version",
    Parse "parse",
    InvalidInput "invalid-input",
    SchemaMismatch "schema-mismatch",
    Unsupported "unsupported",
    UnknownHandle "unknown-handle",
    Timeout "timeout",
    Internal "internal",
});

impl std::fmt::Display for Outcome {
    /// Human-oriented one-to-few-line rendering (used by `vqd request`).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Outcome::Pong => write!(f, "pong"),
            Outcome::Decided { determined: true, rewriting } => {
                write!(f, "V DETERMINES Q (unrestricted)")?;
                if let Some(r) = rewriting {
                    write!(f, "\nrewriting: {r}")?;
                }
                Ok(())
            }
            Outcome::Decided { determined: false, .. } => {
                write!(f, "V does NOT determine Q (unrestricted)")
            }
            Outcome::Rewritten { exists: true, rewriting } => {
                write!(f, "exact rewriting: {}", rewriting.as_deref().unwrap_or("<none>"))
            }
            Outcome::Rewritten { exists: false, .. } => {
                write!(f, "no exact rewriting exists (in any language)")
            }
            Outcome::CertainAnswers { answers, count } => {
                write!(f, "certain answers ({count}): {answers}")
            }
            Outcome::InstancePut { handle, fingerprint, tuples } => {
                write!(f, "put: handle {handle} ({tuples} tuples, fingerprint {fingerprint})")
            }
            Outcome::Evicted { handle, existed: true } => write!(f, "evicted {handle}"),
            Outcome::Evicted { handle, existed: false } => {
                write!(f, "handle {handle} was not cached")
            }
            Outcome::CacheStatsSnapshot {
                entries,
                bytes,
                hits,
                misses,
                evictions,
                puts,
                max_entries,
                max_bytes,
                disk_hits,
                disk_misses,
                disk_spills,
                disk_promotions,
                disk_corrupt_dropped,
                disk_io_errors,
                disk_bytes,
            } => {
                // The RAM section's wording is load-bearing: CI greps
                // for its substrings, so the disk section only appends.
                write!(
                    f,
                    "cache: {entries}/{max_entries} entries, {bytes}/{max_bytes} bytes | \
                     hits {hits} | misses {misses} | evictions {evictions} | puts {puts} | \
                     disk: {disk_bytes} bytes, disk_hits {disk_hits}, \
                     disk_misses {disk_misses}, disk_spills {disk_spills}, \
                     disk_promotions {disk_promotions}, \
                     disk_corrupt_dropped {disk_corrupt_dropped}, \
                     disk_io_errors {disk_io_errors}"
                )
            }
            Outcome::Classified { fragment, decidable, route } => {
                write!(
                    f,
                    "fragment: {fragment} ({}) — {route}",
                    if *decidable { "decidable" } else { "undecidable-in-general" }
                )
            }
            Outcome::Contained { verdict, bound, witness } => {
                write!(f, "containment: {verdict}")?;
                if let Some(b) = bound {
                    write!(f, " (searched domains ≤ {b})")?;
                }
                if let Some(w) = witness {
                    write!(f, "\nwitness:\n{w}")?;
                }
                Ok(())
            }
            Outcome::FiniteOutcome { verdict, rewriting, searched_up_to, counterexample } => {
                write!(f, "finite determinacy: {verdict}")?;
                if let Some(r) = rewriting {
                    write!(f, "\nrewriting: {r}")?;
                }
                if let Some(n) = searched_up_to {
                    write!(f, " (no counterexample with ≤ {n} values)")?;
                }
                if let Some(c) = counterexample {
                    write!(f, "\nD1:\n{}\nD2:\n{}", c.d1, c.d2)?;
                }
                Ok(())
            }
            Outcome::SemanticOutcome { verdict, bound, counterexample } => {
                write!(f, "semantic scan: {verdict}")?;
                if let Some(b) = bound {
                    write!(f, " (domain {b})")?;
                }
                if let Some(c) = counterexample {
                    write!(f, "\nD1:\n{}\nD2:\n{}", c.d1, c.d2)?;
                }
                Ok(())
            }
            Outcome::StatsSnapshot { metrics: m, registry } => {
                write!(
                    f,
                    "accepted {} | ok {} | exhausted {} | rejected {} | errors {} | \
                     queue {} (max {}) | conns {} open / {} total | {} workers",
                    m.accepted,
                    m.completed_ok,
                    m.exhausted,
                    m.rejected,
                    m.errors,
                    m.queue_depth,
                    m.max_queue_depth,
                    m.connections_open,
                    m.connections_total,
                    m.workers
                )?;
                let uptime = registry.gauge("server.uptime_ms");
                if uptime > 0 {
                    write!(f, "\nuptime: {:.1}s", uptime as f64 / 1000.0)?;
                }
                // One line per op that has served traffic, with latency
                // quantiles read off the histogram bucket bounds.
                for (name, h) in &registry.histograms {
                    let Some(op) =
                        name.strip_prefix("op.").and_then(|s| s.strip_suffix(".latency_ms"))
                    else {
                        continue;
                    };
                    if h.count == 0 {
                        continue;
                    }
                    let q = |q: f64| match h.quantile(q) {
                        u64::MAX => ">5000".to_owned(),
                        v => format!("≤{v}"),
                    };
                    write!(
                        f,
                        "\n{op}: {} requests, latency_ms p50 {} p95 {} p99 {}",
                        h.count,
                        q(0.5),
                        q(0.95),
                        q(0.99)
                    )?;
                }
                Ok(())
            }
            Outcome::FlightSnapshot { jsonl } if jsonl.is_empty() => {
                write!(f, "(flight recorder empty)")
            }
            Outcome::FlightSnapshot { jsonl } => write!(f, "{}", jsonl.trim_end()),
            Outcome::MetricsText { text } => write!(f, "{}", text.trim_end()),
            Outcome::ShuttingDown => write!(f, "server is draining and shutting down"),
            Outcome::Exhausted { reason, partial } => {
                write!(f, "exhausted ({reason}): {partial}")
            }
            Outcome::Overloaded { queue_depth, queue_capacity } => {
                write!(f, "overloaded: queue {queue_depth}/{queue_capacity} — retry later")
            }
            Outcome::Error { kind, message } => {
                write!(f, "error [{}]: {message}", kind.as_str())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limits_build_matching_budgets() {
        let l = Limits { deadline_ms: Some(5), step_limit: Some(9), tuple_limit: Some(2) };
        let b = l.to_budget();
        assert_eq!(b.remaining_steps(), Some(9));
        assert_eq!(b.remaining_tuples(), Some(2));
        assert!(b.remaining_time().is_some());
        assert!(!Limits::none().to_budget().is_limited());
    }

    #[test]
    fn a_u64_max_cap_reads_back_saturated() {
        let stats = Outcome::Overloaded { queue_depth: u64::MAX, queue_capacity: 1 << 60 };
        let r = Response::new("m", stats, WireStats::default());
        assert_eq!(Response::from_line(&r.to_json().to_string()), Ok(r));
    }

    #[test]
    fn timelines_sum_and_round_trip() {
        let tl = sample_timeline();
        assert_eq!(tl.total_us(), 15);
        assert_eq!(Timeline::from_json(&tl.to_json()), Some(tl));
    }

    /// The object at `path` (keys from the top).
    fn obj_at<'a>(v: &'a mut Value, path: &[&str]) -> &'a mut Obj {
        let mut v = v;
        for key in path {
            let Value::Obj(fields) = v else { panic!("{path:?} is not an object") };
            v = &mut fields.iter_mut().find(|(k, _)| k == key).expect("path key").1;
        }
        let Value::Obj(fields) = v else { panic!("{path:?} is not an object") };
        fields
    }

    /// `sample` round-trips, and for every schema row it writes: deleting
    /// the key decodes to the row's default (re-encoding writes exactly what the row writes
    /// for it) or to its required-field error, and a wrong-typed value is
    /// a `protocol` error naming the field. Returns the rows checked.
    fn check_rows<T: Record + PartialEq + std::fmt::Debug>(sample: &T) -> usize {
        let encode = |t: &T| {
            let mut out = Vec::new();
            t.put_fields(&mut out);
            Value::Obj(out)
        };
        let decode = |v: &Value| T::take_fields(Src::wire(v), Scope::Top).map(|t| encode(&t));
        let json = encode(sample);
        let line = json.to_string();
        assert!(!line.contains('\n'), "wire lines are single lines");
        let back = T::take_fields(Src::wire(&json::parse(&line).expect("json")), Scope::Top);
        assert_eq!(back.as_ref(), Ok(sample), "the sample round-trips");
        let mut probes = Vec::new();
        sample.probes(&[], Scope::Top, &mut probes);
        for p in &probes {
            let at = |v: &mut Value| {
                let i = obj_at(v, &p.path).iter().position(|(k, _)| k == p.key);
                i.unwrap_or_else(|| panic!("the sample writes no `{}` at {:?}", p.key, p.path))
            };
            let mut cut = json.clone();
            let i = at(&mut cut);
            obj_at(&mut cut, &p.path).remove(i);
            let want = match &p.absent {
                Ok(written) => {
                    let mut w = cut.clone();
                    obj_at(&mut w, &p.path).splice(i..i, written.iter().cloned());
                    Ok(w)
                }
                Err(text) => Err((ErrorKind::Protocol, text.clone())),
            };
            assert_eq!(decode(&cut), want, "absent `{}` at {:?}", p.key, p.path);
            let mut bad = json.clone();
            let i = at(&mut bad);
            obj_at(&mut bad, &p.path)[i].1 = Value::Num(-1.5);
            let want = Err((ErrorKind::Protocol, p.wrong.clone()));
            assert_eq!(decode(&bad), want, "wrong-typed `{}` at {:?}", p.key, p.path);
        }
        probes.len()
    }

    /// One request object per variant, every optional field set.
    const REQUESTS: &[&str] = &[
        r#"{"op":"ping"}"#,
        r#"{"op":"decide_unrestricted","schema":"E/2","views":"V(x) :- E(x,y).","query":"Q"}"#,
        r#"{"op":"rewrite","schema":"E/2","views":"V(x) :- E(x,y).","query":"Q(x) :- E(x,x)."}"#,
        r#"{"op":"certain_sound","schema":"E/2","views":"V","query":"Q","extent":{"handle":"h1"}}"#,
        r#"{"op":"certain_sound","schema":"E/2","views":"V","query":"Q","extent":"V(A,B)."}"#,
        r#"{"op":"put_instance","schema":"V/2","extent":"V(A,B)."}"#,
        r#"{"op":"evict_instance","handle":"h1"}"#,
        r#"{"op":"cache_stats"}"#,
        r#"{"op":"classify","schema":"E/2","views":"V","query":"Q"}"#,
        r#"{"op":"containment","schema":"E/2","q1":"Q","q2":"Q","max_domain":4,"space_limit":9}"#,
        r#"{"op":"decide_finite","schema":"E/2","views":"V","query":"Q","max_domain":4,"space_limit":9}"#,
        r#"{"op":"check_exhaustive","schema":"E/2","views":"V","query":"Q","domain":4,"space_limit":9}"#,
        r#"{"op":"stats"}"#,
        r#"{"op":"flight"}"#,
        r#"{"op":"metrics_prom"}"#,
        r#"{"op":"shutdown"}"#,
        r#"{"op":"debug_panic"}"#,
    ];

    /// One result object per outcome variant, every optional field set.
    const RESULTS: &[&str] = &[
        r#"{"kind":"pong"}"#,
        r#"{"kind":"decided","determined":true,"rewriting":"R(x) :- V(x)."}"#,
        r#"{"kind":"rewritten","exists":true,"rewriting":"R(x) :- V(x)."}"#,
        r#"{"kind":"certain","answers":"{(A)}","count":1}"#,
        r#"{"kind":"put","handle":"h1","fingerprint":"ab","tuples":2}"#,
        r#"{"kind":"evicted","handle":"h1","existed":true}"#,
        r#"{"kind":"cache-stats","entries":1,"bytes":2,"hits":3,"misses":4,"evictions":5,"puts":6,
            "max_entries":7,"max_bytes":8,"disk_hits":9,"disk_misses":10,"disk_spills":11,
            "disk_promotions":12,"disk_corrupt_dropped":13,"disk_io_errors":14,"disk_bytes":15}"#,
        r#"{"kind":"classified","fragment":"path","decidable":true,"route":"r"}"#,
        r#"{"kind":"containment","verdict":"refuted","bound":2,"witness":"P(A)."}"#,
        r#"{"kind":"finite","verdict":"not-determined","rewriting":"R","searched_up_to":3,
            "counterexample":{"d1":"E(A,B).","d2":"E(A,A).","image":"{}","q1":"{}","q2":"{(A)}"}}"#,
        r#"{"kind":"semantic","verdict":"not-determined","bound":2,
            "counterexample":{"d1":"E(A,B).","d2":"E(A,A).","image":"{}","q1":"{}","q2":"{(A)}"}}"#,
        r#"{"kind":"stats","accepted":1,"completed_ok":2,"exhausted":3,"rejected":4,"errors":5,
            "queue_depth":6,"max_queue_depth":7,"connections_open":8,"connections_total":9,
            "workers":10,"registry":{"counters":{"c":1},"gauges":{},"histograms":{}}}"#,
        r#"{"kind":"flight","jsonl":"{}"}"#,
        r#"{"kind":"metrics-text","text":"x_total 1"}"#,
        r#"{"kind":"shutting-down"}"#,
        r#"{"kind":"exhausted","reason":"deadline exceeded","partial":"p"}"#,
        r#"{"kind":"overloaded","queue_depth":1,"queue_capacity":2}"#,
        r#"{"kind":"error","error_kind":"parse","message":"m"}"#,
    ];

    fn sample_timeline() -> Timeline {
        Timeline { frame_us: 1, queue_us: 2, exec_us: 3, reorder_us: 4, write_us: 5 }
    }

    fn sample_work() -> WireStats {
        WireStats {
            steps: 1,
            tuples: 2,
            elapsed_ms: 3,
            index_builds: 4,
            index_tuples: 5,
            threads_used: 6,
        }
    }

    #[test]
    fn every_schema_row_honours_its_absent_and_wrong_type_rules() {
        let mut rows = 0;
        for request in REQUESTS {
            let line = format!(
                r#"{{"v":1,"id":"e","deadline_ms":5,"step_limit":6,"tuple_limit":7,"profile":true,
                "trace":true,"parallelism":2,"request":{request}}}"#
            );
            rows += check_rows(&Envelope::from_line(&line).expect(request));
        }
        let sections = format!(
            r#""work":{},"profile":{{"chase_rounds":4}},"trace":"{{}}","fragment":"path","timeline":{}"#,
            sample_work().enc(),
            sample_timeline().enc()
        );
        for result in RESULTS {
            let line = format!(r#"{{"v":1,"id":"r",{sections},"result":{result}}}"#);
            rows += check_rows(&Response::from_line(&line).expect(result));
        }
        rows += check_rows(&sample_timeline());
        rows += check_rows(&sample_work());
        rows += check_rows(&WireCounterexample::default());
        assert_eq!(rows, 406, "rows checked");
    }

    #[test]
    fn wrong_typed_envelope_fields_are_protocol_errors_that_keep_the_id() {
        let cases = [
            ("deadline_ms", r#""50""#),
            ("step_limit", "-3"),
            ("tuple_limit", "1.5"),
            ("parallelism", "true"),
            ("profile", r#""yes""#),
            ("trace", "1"),
            ("id", "7"),
        ];
        for (field, value) in cases {
            let line = format!(r#"{{"v":1,"id":"w","{field}":{value},"request":{{"op":"ping"}}}}"#);
            let (kind, message, id) = Envelope::from_line(&line).unwrap_err();
            assert_eq!(kind, ErrorKind::Protocol, "{line}");
            assert!(message.contains(&format!("`{field}`")), "{line}: {message}");
            if field != "id" {
                assert_eq!(id, "w", "{line}");
            }
        }
    }

    #[test]
    fn fields_build_requests_with_the_table_defaults() {
        let build = |pairs: &[(&str, &str)]| {
            let fields: Vec<(String, String)> =
                pairs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
            Envelope::from_fields(&fields)
        };
        let q = "Q(x) :- P(x).";
        let e = build(&[
            ("op", "containment"),
            ("schema", "P/1"),
            ("q1", q),
            ("q2", q),
            ("deadline_ms", "50"),
            ("profile", ""),
        ])
        .unwrap();
        let containment = Request::Containment {
            schema: "P/1".into(),
            q1: q.into(),
            q2: q.into(),
            max_domain: 3,
            space_limit: 1 << 22,
        };
        let limits = Limits { deadline_ms: Some(50), ..Limits::none() };
        assert_eq!(e, Envelope::new("", limits, containment).with_profile(true));
        let certain = [("op", "certain_sound"), ("schema", "E/2"), ("views", q), ("query", q)];
        let by_handle = build(&[&certain[..], &[("handle", "h1")]].concat()).unwrap();
        assert!(matches!(by_handle.request, Request::CertainHandle { .. }));
        let inline = build(&[&certain[..], &[("extent", "V(A).")]].concat()).unwrap();
        assert!(matches!(inline.request, Request::Certain { .. }));
        let no_extent = build(&certain).unwrap_err();
        assert_eq!(no_extent, "op `certain_sound` needs string field `extent`");
        let unused = build(&[("op", "ping"), ("schema", "E/2")]).unwrap_err();
        assert_eq!(unused, "op `ping` takes no field `schema`");
        assert_eq!(build(&[("op", "frobnicate")]).unwrap_err(), "unknown op `frobnicate`");
        let semantic = [("op", "check_exhaustive"), ("schema", "E/2"), ("views", q), ("query", q)];
        let bad_domain = build(&[&semantic[..], &[("domain", "x")]].concat()).unwrap_err();
        assert_eq!(
            bad_domain,
            "op `check_exhaustive` field `domain` must be a non-negative integer"
        );
    }
}

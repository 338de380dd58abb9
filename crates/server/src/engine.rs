//! Request execution: one [`Request`] + one clamped [`Budget`] in, one
//! [`Outcome`] out.
//!
//! Every path is budgeted and fallible: parse failures, hypothesis
//! violations, and schema mismatches come back as structured
//! [`Outcome::Error`]s; budget trips come back as
//! [`Outcome::Exhausted`] with the engine's own partial-progress
//! message. Workers additionally wrap [`execute`] in `catch_unwind`, so
//! even a server-side bug degrades to an `internal` error instead of a
//! dead worker.

// The helpers below use `Result<_, Outcome>` so `?` can short-circuit
// straight to the wire reply; the Err is the reply itself, built once
// and returned once, so its size is not worth boxing over.
#![allow(clippy::result_large_err)]

use crate::cache::{derived_key, CacheConfig, Derived, HandleEntry, InstanceCache};
use crate::metrics::Metrics;
use crate::proto::{ErrorKind, Outcome, Request, WireCounterexample};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;
use vqd_budget::{Budget, CancelToken, VqdError};
use vqd_obs::Registry;
use vqd_chase::CqViews;
use vqd_core::certain::{canonical_database_budgeted, certain_from_canonical, certain_sound_ctx};
use vqd_core::determinacy::{
    check_exhaustive_ctx, decide_finite_budgeted, decide_unrestricted_budgeted, Counterexample,
    FiniteVerdict, SemanticVerdict,
};
use vqd_eval::{contained_bounded_budgeted, BoundedContainment};
use vqd_exec::{ExecCtx, ExecPool};
use vqd_instance::{DomainNames, NameTable, Schema};
use vqd_query::{parse_instance, parse_program, parse_query, Cq, CqLang, QueryExpr, ViewSet};
use vqd_router::Fragment;

/// What the engine can reach besides the request itself: the shared
/// metrics (for [`Request::Stats`]) and the server's shutdown token
/// (for [`Request::Shutdown`]).
#[derive(Clone)]
pub struct EngineCtx {
    /// Service counters.
    pub metrics: Arc<Metrics>,
    /// Server-wide observability registry: per-op request counters,
    /// latency histograms, and folded engine counters.
    pub registry: Arc<Registry>,
    /// When the server started (drives the uptime gauge).
    pub started: Instant,
    /// Cross-request instance cache: put handles + derived chases.
    pub cache: Arc<InstanceCache>,
    /// Tripping this token starts a server drain.
    pub shutdown: CancelToken,
    /// Whether `debug_panic` is live (worker-containment tests only).
    pub debug_ops: bool,
    /// The engine's shard pool for intra-request parallelism — distinct
    /// from the per-request worker pool, shared by every worker. Its
    /// size caps the `parallelism` any envelope may request.
    pub exec: Arc<ExecPool>,
}

impl EngineCtx {
    /// A fresh context with its own metrics/registry (used by tests and
    /// embedded setups; [`crate::server::spawn`] builds the real one).
    pub fn new(shutdown: CancelToken) -> EngineCtx {
        EngineCtx::with_cache_config(shutdown, CacheConfig::default())
    }

    /// [`EngineCtx::new`] with explicit cache sizing.
    pub fn with_cache_config(shutdown: CancelToken, cache: CacheConfig) -> EngineCtx {
        let registry = Arc::new(Registry::new());
        EngineCtx {
            metrics: Arc::new(Metrics::new()),
            cache: Arc::new(InstanceCache::new(cache, Arc::clone(&registry))),
            registry,
            started: Instant::now(),
            shutdown,
            debug_ops: false,
            exec: Arc::clone(ExecPool::global()),
        }
    }

    /// Replaces the engine's shard pool (the server wires its
    /// `--engine-threads` pool through here).
    pub fn with_engine_pool(mut self, exec: Arc<ExecPool>) -> EngineCtx {
        self.exec = exec;
        self
    }
}

/// Shorthand for building an error outcome.
fn err(kind: ErrorKind, message: impl Into<String>) -> Outcome {
    Outcome::Error { kind, message: message.into() }
}

/// Maps an engine-level [`VqdError`] onto the wire taxonomy.
fn vqd_error(e: VqdError) -> Outcome {
    match e {
        VqdError::Exhausted(ex) => Outcome::Exhausted {
            reason: ex.reason.to_string(),
            partial: ex.partial.clone(),
        },
        VqdError::Parse(msg) => err(ErrorKind::Parse, msg),
        e @ VqdError::SchemaMismatch { .. } => err(ErrorKind::SchemaMismatch, e.to_string()),
        e @ VqdError::InvalidInput { .. } => err(ErrorKind::InvalidInput, e.to_string()),
        e @ VqdError::NotStratifiable(_) => err(ErrorKind::InvalidInput, e.to_string()),
    }
}

/// Parsed views + query context shared by most operations.
struct ParsedPair {
    names: DomainNames,
    views: ViewSet,
    query: QueryExpr,
}

fn parse_pair(schema: &str, views: &str, query: &str) -> Result<ParsedPair, Outcome> {
    let schema = Schema::parse(schema)
        .map_err(|e| err(ErrorKind::Parse, format!("schema: {e}")))?;
    let mut names = DomainNames::new();
    let prog = parse_program(&schema, &mut names, views)
        .map_err(|e| err(ErrorKind::Parse, format!("views: {e}")))?;
    if prog.defs.is_empty() {
        return Err(err(ErrorKind::InvalidInput, "views: at least one view is required"));
    }
    for (i, (name, _)) in prog.defs.iter().enumerate() {
        if prog.defs[..i].iter().any(|(n, _)| n == name) {
            return Err(err(
                ErrorKind::InvalidInput,
                format!("views: duplicate view name `{name}`"),
            ));
        }
    }
    let views = ViewSet::new(&schema, prog.defs);
    let query = parse_query(&schema, &mut names, query)
        .map_err(|e| err(ErrorKind::Parse, format!("query: {e}")))?;
    Ok(ParsedPair { names, views, query })
}

/// The Section 3 hypotheses: plain-CQ views and a plain-CQ query.
fn require_cq(pair: &ParsedPair) -> Result<(CqViews, Cq), Outcome> {
    let views = CqViews::try_new(pair.views.clone()).map_err(vqd_error)?;
    let q = pair
        .query
        .as_cq()
        .filter(|q| q.language() == CqLang::Cq)
        .ok_or_else(|| {
            err(
                ErrorKind::InvalidInput,
                "this operation requires a plain CQ query (no =, ≠, ¬, FO)",
            )
        })?;
    Ok((views, q.clone()))
}

fn render_counterexample(c: &Counterexample, names: &DomainNames) -> WireCounterexample {
    WireCounterexample {
        d1: c.d1.render(names),
        d2: c.d2.render(names),
        image: c.image.render(names),
        q1: c.q1.render(names),
        q2: c.q2.render(names),
    }
}

/// Folds a classified fragment into the registry and produces the
/// reply's additive `fragment` note. `routed` is true for the decide
/// family (where the classification actually picked an execution path),
/// false for `classify` itself (purely structural, nothing routed).
fn attribute(fragment: Option<Fragment>, ctx: &EngineCtx, routed: bool) -> Option<&'static str> {
    let fragment = fragment?;
    ctx.registry.counter(&format!("router.fragment.{}", fragment.tag())).inc();
    if routed {
        let hit = fragment == Fragment::ProjectSelect;
        ctx.registry
            .counter(if hit { "router.fastpath.hits" } else { "router.fastpath.misses" })
            .inc();
    }
    Some(fragment.wire_note())
}

/// Executes one request under `budget`, sequentially. Never panics on
/// bad input; may panic only on a genuine engine bug (callers wrap in
/// `catch_unwind`).
///
/// The sequential, outcome-only form of [`execute_attributed_ctx`];
/// embedded callers and most tests only care about the outcome.
pub fn execute(request: &Request, budget: &Budget, ctx: &EngineCtx) -> Outcome {
    execute_attributed_ctx(request, &ExecCtx::sequential(budget.clone()), ctx).0
}

/// Executes one request under an execution context, with the router's
/// per-request fragment attribution: the second component is the
/// additive `fragment` wire note
/// (`project-select` / `path` / `undecidable-in-general`) for the ops
/// the router classifies, `None` otherwise. The note is attached even
/// when the outcome is an error or exhaustion — a `general` request
/// that runs out of budget still tells the client *why* no definite
/// verdict was possible.
///
/// The execution context carries both the request's clamped budget and
/// its (clamped) parallelism: the certain-answer and semantic-scan ops
/// fan out on the engine pool when `exec.is_parallel()`, with
/// byte-identical outcomes either way.
pub fn execute_attributed_ctx(
    request: &Request,
    exec: &ExecCtx,
    ctx: &EngineCtx,
) -> (Outcome, Option<&'static str>) {
    let budget = exec.budget();
    match request {
        Request::Decide { schema, views, query } => {
            let (res, fragment) = run_decide(schema, views, query, budget);
            let note = attribute(fragment, ctx, true);
            let outcome = match res {
                Ok((determined, rewriting)) => Outcome::Decided { determined, rewriting },
                Err(o) => o,
            };
            (outcome, note)
        }
        Request::Rewrite { schema, views, query } => {
            let (res, fragment) = run_decide(schema, views, query, budget);
            let note = attribute(fragment, ctx, true);
            let outcome = match res {
                Ok((determined, rewriting)) => Outcome::Rewritten { exists: determined, rewriting },
                Err(o) => o,
            };
            (outcome, note)
        }
        Request::Classify { schema, views, query } => run_classify(schema, views, query, ctx),
        other => (execute_unattributed(other, exec, ctx), None),
    }
}

/// The ops the router does not classify.
fn execute_unattributed(request: &Request, exec: &ExecCtx, ctx: &EngineCtx) -> Outcome {
    let budget = exec.budget();
    match request {
        Request::Ping => Outcome::Pong,
        Request::Stats => {
            let metrics = ctx.metrics.snapshot();
            // Refresh the point-in-time gauges so the registry snapshot
            // is self-contained.
            ctx.registry
                .gauge("server.uptime_ms")
                .set(ctx.started.elapsed().as_millis() as u64);
            ctx.registry.gauge("server.queue_depth").set(metrics.queue_depth);
            ctx.registry
                .gauge("server.queue_depth_hwm")
                .raise_to(metrics.max_queue_depth);
            ctx.registry
                .gauge("server.connections_open")
                .set(metrics.connections_open);
            Outcome::StatsSnapshot { metrics, registry: ctx.registry.snapshot() }
        }
        Request::Flight => Outcome::FlightSnapshot { jsonl: vqd_obs::flight_jsonl() },
        Request::MetricsProm => {
            // Same point-in-time gauge refresh as `stats`, so a scrape
            // sees current depth/uptime rather than last-request values.
            let metrics = ctx.metrics.snapshot();
            ctx.registry
                .gauge("server.uptime_ms")
                .set(ctx.started.elapsed().as_millis() as u64);
            ctx.registry.gauge("server.queue_depth").set(metrics.queue_depth);
            ctx.registry
                .gauge("server.queue_depth_hwm")
                .raise_to(metrics.max_queue_depth);
            ctx.registry
                .gauge("server.connections_open")
                .set(metrics.connections_open);
            Outcome::MetricsText { text: vqd_obs::render_prometheus(&ctx.registry.snapshot()) }
        }
        Request::Shutdown => {
            ctx.shutdown.cancel();
            Outcome::ShuttingDown
        }
        Request::Decide { .. } | Request::Rewrite { .. } | Request::Classify { .. } => {
            unreachable!("attributed ops are handled by execute_attributed_ctx")
        }
        Request::Certain { schema, views, query, extent } => {
            run_certain(schema, views, query, extent, exec)
        }
        Request::CertainHandle { schema, views, query, handle } => {
            run_certain_handle(schema, views, query, handle, exec, ctx)
        }
        Request::PutInstance { schema, extent } => run_put_instance(schema, extent, ctx),
        Request::EvictInstance { handle } => Outcome::Evicted {
            handle: handle.clone(),
            existed: ctx.cache.evict_handle(handle),
        },
        Request::CacheStats => {
            let s = ctx.cache.stats();
            let config = ctx.cache.config();
            Outcome::CacheStatsSnapshot {
                entries: s.entries,
                bytes: s.bytes,
                hits: s.hits,
                misses: s.misses,
                evictions: s.evictions,
                puts: s.puts,
                max_entries: config.max_entries as u64,
                max_bytes: config.max_bytes,
                disk_hits: s.disk_hits,
                disk_misses: s.disk_misses,
                disk_spills: s.disk_spills,
                disk_promotions: s.disk_promotions,
                disk_corrupt_dropped: s.disk_corrupt_dropped,
                disk_io_errors: s.disk_io_errors,
                disk_bytes: s.disk_bytes,
            }
        }
        Request::DebugPanic => {
            if ctx.debug_ops {
                panic!("debug_panic: injected worker panic");
            }
            err(
                ErrorKind::Unsupported,
                "debug_panic requires a server started with enable_debug_ops",
            )
        }
        Request::Containment { schema, q1, q2, max_domain, space_limit } => {
            run_containment(schema, q1, q2, *max_domain, *space_limit, budget)
        }
        Request::Finite { schema, views, query, max_domain, space_limit } => {
            run_finite(schema, views, query, *max_domain, *space_limit, budget)
        }
        Request::Semantic { schema, views, query, domain, space_limit } => {
            run_semantic(schema, views, query, *domain, *space_limit, exec)
        }
    }
}

/// Verdict + optional rendered rewriting, or a ready-made error outcome.
type DecideResult = Result<(bool, Option<String>), Outcome>;

/// Decide/rewrite with fragment attribution. The fragment is classified
/// *before* the (possibly exhausting) decision runs, so it survives the
/// `Err` path: an exhausted `general` request still reports its
/// fragment. Pre-classification failures (parse errors, non-CQ input)
/// carry no fragment — nothing was classified.
fn run_decide(
    schema: &str,
    views: &str,
    query: &str,
    budget: &Budget,
) -> (DecideResult, Option<Fragment>) {
    let pair = match parse_pair(schema, views, query) {
        Ok(p) => p,
        Err(o) => return (Err(o), None),
    };
    let (cq_views, q) = match require_cq(&pair) {
        Ok(v) => v,
        Err(o) => return (Err(o), None),
    };
    let fragment = vqd_router::classify(&cq_views, &q);
    let res = decide_unrestricted_budgeted(&cq_views, &q, budget)
        .map(|out| (out.determined, out.rewriting.map(|r| r.render("R"))))
        .map_err(vqd_error);
    (res, Some(fragment))
}

/// Purely structural: parse, classify, answer. Never chases, never
/// builds an index; the only budget this op could spend is parsing,
/// which is not budgeted, so the work envelope comes back all-zero.
fn run_classify(
    schema: &str,
    views: &str,
    query: &str,
    ctx: &EngineCtx,
) -> (Outcome, Option<&'static str>) {
    let pair = match parse_pair(schema, views, query) {
        Ok(p) => p,
        Err(o) => return (o, None),
    };
    // Unlike the decide family, classification accepts *any* parsed
    // pair: non-CQ views or queries are simply `general`.
    let fragment = vqd_router::classify_pair(&pair.views, &pair.query);
    let note = attribute(Some(fragment), ctx, false);
    (
        Outcome::Classified {
            fragment: fragment.tag().to_owned(),
            decidable: fragment.is_decidable(),
            route: fragment.route().to_owned(),
        },
        note,
    )
}

fn run_certain(schema: &str, views: &str, query: &str, extent: &str, exec: &ExecCtx) -> Outcome {
    let pair = match parse_pair(schema, views, query) {
        Ok(p) => p,
        Err(o) => return o,
    };
    let (cq_views, q) = match require_cq(&pair) {
        Ok(v) => v,
        Err(o) => return o,
    };
    let mut names = pair.names;
    let extent = match parse_instance(cq_views.as_view_set().output_schema(), &mut names, extent)
    {
        Ok(i) => i,
        Err(e) => return err(ErrorKind::Parse, format!("extent: {e}")),
    };
    match certain_sound_ctx(&cq_views, &q, &extent, exec) {
        Ok(rel) => Outcome::CertainAnswers {
            count: rel.len() as u64,
            answers: rel.render(&names),
        },
        Err(e) => vqd_error(e),
    }
}

/// Name-sensitive extent fingerprint. Two extents with equal
/// fingerprints parse to identical instances under *any* identical
/// pre-seeded [`DomainNames`]: the fresh-names rendering captures both
/// the fact set and the first-occurrence order of constants, which is
/// all request-time interning depends on. That makes the fingerprint
/// safe to use in [`derived_key`]: equal key ⟹ identical chase ⟹
/// byte-identical answers.
fn extent_fingerprint(schema: &str, rendered: &str) -> String {
    let mut h = DefaultHasher::new();
    schema.hash(&mut h);
    rendered.hash(&mut h);
    format!("{:016x}", h.finish())
}

fn run_put_instance(schema: &str, extent: &str, ctx: &EngineCtx) -> Outcome {
    let parsed_schema = match Schema::parse(schema) {
        Ok(s) => s,
        Err(e) => return err(ErrorKind::Parse, format!("schema: {e}")),
    };
    let mut names = DomainNames::new();
    let instance = match parse_instance(&parsed_schema, &mut names, extent) {
        Ok(i) => i,
        Err(e) => return err(ErrorKind::Parse, format!("extent: {e}")),
    };
    let fingerprint = extent_fingerprint(schema, &instance.render(&names));
    let tuples = instance.total_tuples() as u64;
    let handle = ctx.cache.put(HandleEntry {
        schema: schema.to_owned(),
        extent: extent.to_owned(),
        fingerprint: fingerprint.clone(),
        tuples,
    });
    Outcome::InstancePut { handle, fingerprint, tuples }
}

/// [`run_certain`] with the extent read from the cache. A hit on the
/// derived entry evaluates over the cached canonical database with zero
/// index builds and renders through the entry's name table, without
/// parsing the extent. A miss parses the extent, chases once, and caches
/// the chase with the request's names for the next request with the
/// same (schema, views, query, extent) key; a hit on an entry without a
/// table takes the same path but skips the chase. The table is the
/// request-local interning an inline request would build, so every
/// route renders byte-identically to the inline form modulo the work
/// envelope.
fn run_certain_handle(
    schema: &str,
    views: &str,
    query: &str,
    handle: &str,
    exec: &ExecCtx,
    ctx: &EngineCtx,
) -> Outcome {
    let Some(entry) = ctx.cache.get_handle(handle) else {
        return err(
            ErrorKind::UnknownHandle,
            format!("unknown instance handle `{handle}` (never put, or evicted): re-put and retry"),
        );
    };
    let key = derived_key(schema, views, query, &entry.fingerprint);
    let pair = match parse_pair(schema, views, query) {
        Ok(p) => p,
        Err(o) => return o,
    };
    let (cq_views, q) = match require_cq(&pair) {
        Ok(v) => v,
        Err(o) => return o,
    };
    let (chased, names) = match ctx.cache.get_derived(&key) {
        Some(Derived { index, names: Some(names) }) => (index, names),
        cached => {
            let mut names = pair.names;
            let out_schema = cq_views.as_view_set().output_schema();
            let extent = match parse_instance(out_schema, &mut names, &entry.extent) {
                Ok(i) => i,
                Err(e) => return err(ErrorKind::Parse, format!("extent (handle {handle}): {e}")),
            };
            let index = match cached {
                Some(hit) => hit.index,
                None => match canonical_database_budgeted(&cq_views, &extent, exec) {
                    Ok(chased) => chased.into_shared(),
                    Err(e) => return vqd_error(e),
                },
            };
            let names = Arc::new(NameTable::new(&names));
            let derived = Derived { index: Arc::clone(&index), names: Some(Arc::clone(&names)) };
            ctx.cache.insert_derived(key, derived);
            (index, names)
        }
    };
    match certain_from_canonical(&q, &chased, exec) {
        Ok(rel) => Outcome::CertainAnswers {
            count: rel.len() as u64,
            answers: rel.render(&*names),
        },
        Err(e) => vqd_error(e),
    }
}

fn run_containment(
    schema: &str,
    q1: &str,
    q2: &str,
    max_domain: u64,
    space_limit: u64,
    budget: &Budget,
) -> Outcome {
    let schema = match Schema::parse(schema) {
        Ok(s) => s,
        Err(e) => return err(ErrorKind::Parse, format!("schema: {e}")),
    };
    let mut names = DomainNames::new();
    let parse_cq = |names: &mut DomainNames, label: &str, src: &str| {
        let q = parse_query(&schema, names, src)
            .map_err(|e| err(ErrorKind::Parse, format!("{label}: {e}")))?;
        q.as_cq().cloned().ok_or_else(|| {
            err(ErrorKind::InvalidInput, format!("{label}: containment requires a CQ"))
        })
    };
    let q1 = match parse_cq(&mut names, "q1", q1) {
        Ok(q) => q,
        Err(o) => return o,
    };
    let q2 = match parse_cq(&mut names, "q2", q2) {
        Ok(q) => q,
        Err(o) => return o,
    };
    if q1.arity() != q2.arity() {
        return err(
            ErrorKind::InvalidInput,
            format!("arity mismatch: q1/{} vs q2/{}", q1.arity(), q2.arity()),
        );
    }
    match contained_bounded_budgeted(
        &q1,
        &q2,
        max_domain as usize,
        u128::from(space_limit),
        budget,
    ) {
        BoundedContainment::NoCounterexampleUpTo(n) => Outcome::Contained {
            verdict: "no-counterexample".into(),
            bound: Some(n as u64),
            witness: None,
        },
        BoundedContainment::Refuted(d) => Outcome::Contained {
            verdict: "refuted".into(),
            bound: None,
            witness: Some(d.render(&names)),
        },
        BoundedContainment::TooLarge => Outcome::Contained {
            verdict: "too-large".into(),
            bound: None,
            witness: None,
        },
        BoundedContainment::Exhausted(e) => Outcome::Exhausted {
            reason: e.reason.to_string(),
            partial: e.partial.clone(),
        },
    }
}

fn run_finite(
    schema: &str,
    views: &str,
    query: &str,
    max_domain: u64,
    space_limit: u64,
    budget: &Budget,
) -> Outcome {
    let pair = match parse_pair(schema, views, query) {
        Ok(p) => p,
        Err(o) => return o,
    };
    let (cq_views, q) = match require_cq(&pair) {
        Ok(v) => v,
        Err(o) => return o,
    };
    match decide_finite_budgeted(
        &cq_views,
        &q,
        max_domain as usize,
        u128::from(space_limit),
        budget,
    ) {
        Ok(FiniteVerdict::Determined(r)) => Outcome::FiniteOutcome {
            verdict: "determined".into(),
            rewriting: Some(r.render("R")),
            searched_up_to: None,
            counterexample: None,
        },
        Ok(FiniteVerdict::NotDetermined(c)) => Outcome::FiniteOutcome {
            verdict: "not-determined".into(),
            rewriting: None,
            searched_up_to: None,
            counterexample: Some(render_counterexample(&c, &pair.names)),
        },
        Ok(FiniteVerdict::Open { searched_up_to }) => Outcome::FiniteOutcome {
            verdict: "open".into(),
            rewriting: None,
            searched_up_to: Some(searched_up_to as u64),
            counterexample: None,
        },
        Ok(FiniteVerdict::Exhausted(e)) => Outcome::Exhausted {
            reason: e.reason.to_string(),
            partial: e.partial.clone(),
        },
        Err(e) => vqd_error(e),
    }
}

fn run_semantic(
    schema: &str,
    views: &str,
    query: &str,
    domain: u64,
    space_limit: u64,
    exec: &ExecCtx,
) -> Outcome {
    let pair = match parse_pair(schema, views, query) {
        Ok(p) => p,
        Err(o) => return o,
    };
    match check_exhaustive_ctx(
        &pair.views,
        &pair.query,
        domain as usize,
        u128::from(space_limit),
        exec,
    ) {
        Ok(SemanticVerdict::NoCounterexampleUpTo(n)) => Outcome::SemanticOutcome {
            verdict: "no-counterexample".into(),
            bound: Some(n as u64),
            counterexample: None,
        },
        Ok(SemanticVerdict::NotDetermined(c)) => Outcome::SemanticOutcome {
            verdict: "not-determined".into(),
            bound: None,
            counterexample: Some(render_counterexample(&c, &pair.names)),
        },
        Ok(SemanticVerdict::TooLarge { .. }) => Outcome::SemanticOutcome {
            verdict: "too-large".into(),
            bound: None,
            counterexample: None,
        },
        Ok(SemanticVerdict::Exhausted(e)) => Outcome::Exhausted {
            reason: e.reason.to_string(),
            partial: e.partial.clone(),
        },
        Err(e) => vqd_error(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> EngineCtx {
        EngineCtx::new(CancelToken::new())
    }

    fn decide_req(views: &str, query: &str) -> Request {
        Request::Decide {
            schema: "E/2,P/1".into(),
            views: views.into(),
            query: query.into(),
        }
    }

    #[test]
    fn decide_path_pair_is_determined_with_rewriting() {
        let out = execute(
            &decide_req("V(x,y) :- E(x,y).", "Q(x,z) :- E(x,y), E(y,z)."),
            &Budget::unlimited(),
            &ctx(),
        );
        match out {
            Outcome::Decided { determined: true, rewriting: Some(r) } => {
                assert!(r.contains("V("), "rewriting must be over σ_V, got {r}");
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn parse_failures_are_structured_errors() {
        let out = execute(
            &decide_req("V(x,y) :- E(x,y).", "Q(x :- garbage"),
            &Budget::unlimited(),
            &ctx(),
        );
        match out {
            Outcome::Error { kind: ErrorKind::Parse, message } => {
                assert!(message.contains("query"));
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        let out = execute(
            &Request::Decide {
                schema: "E/bad".into(),
                views: String::new(),
                query: String::new(),
            },
            &Budget::unlimited(),
            &ctx(),
        );
        assert!(matches!(out, Outcome::Error { kind: ErrorKind::Parse, .. }));
    }

    #[test]
    fn non_cq_views_are_invalid_input() {
        let out = execute(
            &decide_req("V(x) :- E(x,y), !P(y).", "Q(x) :- P(x)."),
            &Budget::unlimited(),
            &ctx(),
        );
        assert!(
            matches!(out, Outcome::Error { kind: ErrorKind::InvalidInput, .. }),
            "got {out:?}"
        );
    }

    #[test]
    fn exhaustion_is_an_outcome_not_an_error() {
        let out = execute(
            &Request::Finite {
                schema: "E/2".into(),
                views: "V(x,y) :- E(x,z), E(z,y).".into(),
                query: "Q(x,y) :- E(x,a), E(a,b), E(b,y).".into(),
                max_domain: 3,
                space_limit: 1 << 22,
            },
            &Budget::unlimited().with_step_limit(2),
            &ctx(),
        );
        match out {
            Outcome::Exhausted { reason, partial } => {
                assert_eq!(reason, "step limit reached");
                assert!(!partial.is_empty());
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn containment_reports_witnesses() {
        let out = run_containment(
            "E/2,P/1",
            "Q(x) :- P(x).",
            "Q(x) :- P(x), E(x,x).",
            2,
            1 << 16,
            &Budget::unlimited(),
        );
        match out {
            Outcome::Contained { verdict, witness: Some(w), .. } => {
                assert_eq!(verdict, "refuted");
                assert!(w.contains("P"));
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        let out = run_containment(
            "E/2,P/1",
            "Q(x) :- P(x), E(x,x).",
            "Q(x) :- P(x).",
            2,
            1 << 16,
            &Budget::unlimited(),
        );
        assert!(
            matches!(out, Outcome::Contained { ref verdict, .. } if verdict == "no-counterexample"),
            "got {out:?}"
        );
    }

    #[test]
    fn certain_answers_on_identity_views() {
        let out = execute(
            &Request::Certain {
                schema: "E/2".into(),
                views: "V(x,y) :- E(x,y).".into(),
                query: "Q(x,z) :- E(x,y), E(y,z).".into(),
                extent: "V(A,B). V(B,C).".into(),
            },
            &Budget::unlimited(),
            &ctx(),
        );
        match out {
            Outcome::CertainAnswers { answers, count } => {
                assert_eq!(count, 1);
                assert!(answers.contains('A') && answers.contains('C'), "{answers}");
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn handle_extents_answer_identically_to_inline_and_then_hit() {
        let c = ctx();
        let put = execute(
            &Request::PutInstance { schema: "V/2".into(), extent: "V(A,B). V(B,C).".into() },
            &Budget::unlimited(),
            &c,
        );
        let Outcome::InstancePut { handle, tuples: 2, .. } = put else {
            panic!("unexpected put outcome {put:?}");
        };
        let certain = |extent_handle: Option<&str>| match extent_handle {
            None => Request::Certain {
                schema: "E/2".into(),
                views: "V(x,y) :- E(x,y).".into(),
                query: "Q(x,z) :- E(x,y), E(y,z).".into(),
                extent: "V(A,B). V(B,C).".into(),
            },
            Some(h) => Request::CertainHandle {
                schema: "E/2".into(),
                views: "V(x,y) :- E(x,y).".into(),
                query: "Q(x,z) :- E(x,y), E(y,z).".into(),
                handle: h.into(),
            },
        };
        let inline = execute(&certain(None), &Budget::unlimited(), &c);
        let miss = execute(&certain(Some(&handle)), &Budget::unlimited(), &c);
        let hit = execute(&certain(Some(&handle)), &Budget::unlimited(), &c);
        assert_eq!(inline, miss, "handle answers must match inline answers");
        assert_eq!(miss, hit, "cache hits must not change the verdict");
        let stats = c.cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn unknown_handles_are_typed_errors_and_evict_reports_absence() {
        let c = ctx();
        let out = execute(
            &Request::CertainHandle {
                schema: "E/2".into(),
                views: "V(x,y) :- E(x,y).".into(),
                query: "Q(x) :- E(x,y).".into(),
                handle: "h999".into(),
            },
            &Budget::unlimited(),
            &c,
        );
        assert!(
            matches!(out, Outcome::Error { kind: ErrorKind::UnknownHandle, .. }),
            "got {out:?}"
        );
        let out = execute(
            &Request::EvictInstance { handle: "h999".into() },
            &Budget::unlimited(),
            &c,
        );
        assert_eq!(out, Outcome::Evicted { handle: "h999".into(), existed: false });
    }

    #[test]
    fn parallel_context_answers_identically_and_reports_fan_out() {
        let c = ctx();
        let req = Request::Certain {
            schema: "E/2".into(),
            views: "V(x,y) :- E(x,y).".into(),
            query: "Q(x,z) :- E(x,y), E(y,z).".into(),
            extent: "V(A,B). V(B,C). V(C,D).".into(),
        };
        let seq = execute(&req, &Budget::unlimited(), &c);
        let exec = ExecCtx::with_parallelism(Budget::unlimited(), 4);
        let par = execute_attributed_ctx(&req, &exec, &c).0;
        assert_eq!(seq, par, "parallel outcomes must be byte-identical");
        assert_eq!(exec.threads_used(), 4, "the certain eval must fan out");
        // The semantic scan fans out too, with the same verdict.
        let sem = Request::Semantic {
            schema: "E/2".into(),
            views: "V(x,y) :- E(x,y).".into(),
            query: "Q(x,z) :- E(x,y), E(y,z).".into(),
            domain: 2,
            space_limit: 1 << 20,
        };
        let seq = execute(&sem, &Budget::unlimited(), &c);
        let exec = ExecCtx::with_parallelism(Budget::unlimited(), 2);
        assert_eq!(seq, execute_attributed_ctx(&sem, &exec, &c).0);
        assert_eq!(exec.threads_used(), 2);
    }

    #[test]
    fn shutdown_trips_the_token() {
        let c = ctx();
        assert!(!c.shutdown.is_canceled());
        let out = execute(&Request::Shutdown, &Budget::unlimited(), &c);
        assert_eq!(out, Outcome::ShuttingDown);
        assert!(c.shutdown.is_canceled());
    }
}

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

use crate::cache::{
    derived_key, pair_key, CacheConfig, Derived, DerivedKind, HandleEntry, InstanceCache,
    PairVerdict, PlanLookup,
};
use crate::metrics::ServerSeries;
use crate::proto::{ErrorKind, Outcome, Request, WireCounterexample, WireMetrics};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;
use vqd_budget::{Budget, CancelToken, Exhausted, VqdError, WorkStats};
use vqd_chase::CqViews;
use vqd_core::certain::{
    canonical_database_budgeted, certain_from_canonical, certain_sound_ctx, CertainPlan,
};
use vqd_core::determinacy::{
    check_exhaustive_ctx, decide_finite_budgeted, decide_unrestricted_budgeted, Counterexample,
    FiniteVerdict, SemanticVerdict,
};
use vqd_eval::{contained_bounded_budgeted, BoundedContainment};
use vqd_instance::{DomainNames, IndexedInstance, NameLookup, NameTable, Relation, Schema};
use vqd_obs::{Registry, RegistrySnapshot};
use vqd_query::{parse_instance, parse_program, parse_query, Cq, CqLang, QueryExpr, ViewSet};
use vqd_router::Fragment;

/// What the engine can reach besides the request itself: the registry
/// (for [`Request::Stats`]) and the server's shutdown token (for
/// [`Request::Shutdown`]).
#[derive(Clone)]
pub struct EngineCtx {
    /// Server-wide observability registry: the server's totals and
    /// levels, per-op request counters, latency histograms, and folded
    /// engine counters.
    pub registry: Arc<Registry>,
    /// Handles onto the registry's `server.*` totals and levels.
    pub(crate) series: Arc<ServerSeries>,
    /// When the server started (drives the uptime gauge).
    pub started: Instant,
    /// Cross-request instance cache: put handles + derived indexes.
    pub cache: Arc<InstanceCache>,
    /// Tripping this token starts a server drain.
    pub shutdown: CancelToken,
    /// Whether `debug_panic` is live (worker-containment tests only).
    pub debug_ops: bool,
}

impl EngineCtx {
    /// A fresh context with its own registry (used by tests and
    /// embedded setups; [`crate::server::spawn`] builds the real one).
    pub fn new(shutdown: CancelToken) -> EngineCtx {
        EngineCtx::with_cache_config(shutdown, CacheConfig::default())
    }

    /// [`EngineCtx::new`] with explicit cache sizing.
    pub fn with_cache_config(shutdown: CancelToken, cache: CacheConfig) -> EngineCtx {
        let registry = Arc::new(Registry::new());
        EngineCtx {
            series: Arc::new(ServerSeries::new(&registry)),
            cache: Arc::new(InstanceCache::new(cache, Arc::clone(&registry))),
            registry,
            started: Instant::now(),
            shutdown,
            debug_ops: false,
        }
    }
}

/// The pair's plan, or why it takes the chase route; `None` when the
/// request's deadline passed or it was canceled mid-compile, which says
/// nothing about the pair: that request takes the chase and nothing is
/// stored. A pair failing [`CertainPlan::check`] is never compiled.
/// Compilation runs under [`CertainPlan::compile_budgeted`]'s side
/// budget of `budget` and is not charged to the calling request's
/// engine counters (see [`vqd_obs::uncharged`]). A handle request
/// stores the lookup on the derived entry it serves through, so each
/// derived build pays it once; an inline request pays it every time.
fn plan_lookup(
    cq_views: &CqViews,
    q: &Cq,
    budget: &Budget,
    registry: &Registry,
) -> Option<PlanLookup> {
    if let Err(why) = CertainPlan::check(cq_views, q) {
        return Some(Err(why));
    }
    registry.counter("certain.plan.compiles").inc();
    match vqd_obs::uncharged(|| CertainPlan::compile_budgeted(cq_views, q, budget)) {
        Ok(lookup) => Some(lookup.map(Arc::new)),
        Err(_) => {
            registry.counter("certain.plan.compile_trips").inc();
            None
        }
    }
}

/// Counts a certain-answer request on the plan route.
fn count_plan_route(ctx: &EngineCtx) {
    ctx.registry.counter("certain.route.plan").inc();
}

/// Counts a certain-answer request on the chase route and, when the pair
/// has no plan, the fallback and its reason. `None` is a compile the
/// request's budget cut short ([`plan_lookup`]): no fallback is counted.
fn count_chase_route(ctx: &EngineCtx, plan: Option<&PlanLookup>) {
    ctx.registry.counter("certain.route.chase").inc();
    if let Some(Err(why)) = plan {
        ctx.registry.counter("certain.plan.fallbacks").inc();
        ctx.registry.counter(&format!("certain.plan.fallback.{}", why.tag())).inc();
    }
}

/// Shorthand for building an error outcome.
fn err(kind: ErrorKind, message: impl Into<String>) -> Outcome {
    Outcome::Error { kind, message: message.into() }
}

/// A budget trip, with the engine's own partial-progress message.
fn exhausted(e: &Exhausted) -> Outcome {
    Outcome::Exhausted { reason: e.reason.to_string(), partial: e.partial.clone() }
}

/// Maps an engine-level [`VqdError`] onto the wire taxonomy.
fn vqd_error(e: VqdError) -> Outcome {
    match e {
        VqdError::Exhausted(ex) => exhausted(&ex),
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
    let schema =
        Schema::parse(schema).map_err(|e| err(ErrorKind::Parse, format!("schema: {e}")))?;
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

/// [`parse_pair`] under the Section 3 hypotheses: plain-CQ views and a
/// plain-CQ query.
fn parse_cq_pair(
    schema: &str,
    views: &str,
    query: &str,
) -> Result<(DomainNames, CqViews, Cq), Outcome> {
    let pair = parse_pair(schema, views, query)?;
    let views = CqViews::try_new(pair.views).map_err(vqd_error)?;
    let q = pair.query.as_cq().filter(|q| q.language() == CqLang::Cq).ok_or_else(|| {
        err(ErrorKind::InvalidInput, "this operation requires a plain CQ query (no =, ≠, ¬, FO)")
    })?;
    Ok((pair.names, views, q.clone()))
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

/// Executes one request under `budget` on the calling thread. Never
/// panics on bad input; may panic only on a genuine engine bug (callers
/// wrap in `catch_unwind`).
///
/// The outcome-only form of [`execute_attributed`]; embedded callers
/// and most tests only care about the outcome.
pub fn execute(request: &Request, budget: &Budget, ctx: &EngineCtx) -> Outcome {
    execute_attributed(request, budget, ctx).0
}

/// What the engine reports about a request besides its outcome.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Attribution {
    /// The router's additive `fragment` wire note
    /// (`project-select` / `path` / `undecidable-in-general`) for the
    /// ops it classifies. Attached even when the outcome is an error or
    /// exhaustion — a `general` request that runs out of budget still
    /// tells the client *why* no definite verdict was possible.
    pub fragment: Option<&'static str>,
    /// Whether the request was served from the cache entry it looked
    /// up: for `certain_sound` by handle, the derived entry (an indexed
    /// extent or chase), so building it was skipped; for
    /// `decide_unrestricted`/`rewrite`, the pair entry, so the pair was
    /// neither parsed nor decided. `None` for ops that consult no cache
    /// entry.
    pub cache_hit: Option<bool>,
}

/// [`execute`] with the request's [`Attribution`].
pub fn execute_attributed(
    request: &Request,
    budget: &Budget,
    ctx: &EngineCtx,
) -> (Outcome, Attribution) {
    let mut attribution = Attribution::default();
    let outcome = match request {
        Request::Decide { schema, views, query } | Request::Rewrite { schema, views, query } => {
            let (res, fragment, hit) = run_decide(schema, views, query, budget, ctx);
            attribution.fragment = attribute(fragment, ctx, true);
            attribution.cache_hit = Some(hit);
            match res {
                Ok((determined, rewriting)) if matches!(request, Request::Decide { .. }) => {
                    Outcome::Decided { determined, rewriting }
                }
                Ok((exists, rewriting)) => Outcome::Rewritten { exists, rewriting },
                Err(o) => o,
            }
        }
        Request::Classify { schema, views, query } => {
            let (outcome, fragment) = run_classify(schema, views, query, ctx);
            attribution.fragment = fragment;
            outcome
        }
        Request::CertainHandle { schema, views, query, handle } => {
            let (outcome, hit) = run_certain_handle(schema, views, query, handle, budget, ctx);
            attribution.cache_hit = Some(hit);
            outcome
        }
        Request::Ping => Outcome::Pong,
        Request::Stats => {
            let registry = stamped_snapshot(ctx);
            Outcome::StatsSnapshot { metrics: WireMetrics::from_registry(&registry), registry }
        }
        Request::Flight => Outcome::FlightSnapshot { jsonl: vqd_obs::flight_jsonl() },
        Request::MetricsProm => {
            Outcome::MetricsText { text: vqd_obs::render_prometheus(&stamped_snapshot(ctx)) }
        }
        Request::Shutdown => {
            ctx.shutdown.cancel();
            Outcome::ShuttingDown
        }
        Request::Certain { schema, views, query, extent } => {
            run_certain(schema, views, query, extent, budget, ctx)
        }
        Request::PutInstance { schema, extent } => run_put_instance(schema, extent, ctx),
        Request::EvictInstance { handle } => {
            Outcome::Evicted { handle: handle.clone(), existed: ctx.cache.evict_handle(handle) }
        }
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
            run_semantic(schema, views, query, *domain, *space_limit, budget)
        }
    };
    (outcome, attribution)
}

/// A registry snapshot for `stats` or a Prometheus scrape, with the
/// uptime gauge stamped first. `server.connections_open` is an older
/// name for `server.conns_open`, copied here so both keep reading.
fn stamped_snapshot(ctx: &EngineCtx) -> RegistrySnapshot {
    let reg = &ctx.registry;
    reg.gauge("server.uptime_ms").set(ctx.started.elapsed().as_millis() as u64);
    reg.gauge("server.connections_open").set(ctx.series.conns_open.get());
    reg.snapshot()
}

/// Verdict + optional rendered rewriting, or a ready-made error outcome.
type DecideResult = Result<(bool, Option<String>), Outcome>;

/// Decide/rewrite with fragment attribution, and whether the pair entry
/// answered it.
///
/// A pair entry whose recorded work `budget` admits answers without a
/// parse, a classify or engine work: a fresh run would pass the same
/// checkpoints and charges, so it would reach the same verdict. Any
/// other request decides afresh, and a definitive decision is stored
/// for the repeats. The decision reports the fragment it routed on;
/// when it fails instead (an exhausted `general` request, say), the
/// pair is classified here, so the fragment survives the `Err` path.
/// Pre-classification failures (parse errors, non-CQ input) carry no
/// fragment — nothing was classified.
fn run_decide(
    schema: &str,
    views: &str,
    query: &str,
    budget: &Budget,
    ctx: &EngineCtx,
) -> (DecideResult, Option<Fragment>, bool) {
    let key = pair_key(schema, views, query);
    if let Some(pair) = ctx.cache.get_pair(&key, budget) {
        return (Ok((pair.determined, pair.rewriting)), Some(pair.fragment), true);
    }
    let (_, cq_views, q) = match parse_cq_pair(schema, views, query) {
        Ok(p) => p,
        Err(o) => return (Err(o), None, false),
    };
    let (steps, tuples) = (budget.steps(), budget.tuples());
    match decide_unrestricted_budgeted(&cq_views, &q, budget) {
        Ok(out) => {
            let cost = WorkStats {
                steps: budget.steps() - steps,
                tuples: budget.tuples() - tuples,
                ..WorkStats::default()
            };
            let rewriting = out.rewriting.map(|r| r.render("R"));
            let pair = PairVerdict {
                fragment: out.fragment,
                determined: out.determined,
                rewriting: rewriting.clone(),
                cost,
            };
            ctx.cache.insert_pair(key, pair);
            (Ok((out.determined, rewriting)), Some(out.fragment), false)
        }
        Err(e) => (Err(vqd_error(e)), Some(vqd_router::classify(&cq_views, &q)), false),
    }
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

/// The reply for a certain-answer evaluation.
fn certain_outcome(answers: Result<Relation, VqdError>, names: &impl NameLookup) -> Outcome {
    match answers {
        Ok(rel) => Outcome::CertainAnswers { count: rel.len() as u64, answers: rel.render(names) },
        Err(e) => vqd_error(e),
    }
}

/// Inline certain answers: the extent is parsed for this one request.
/// A pair with a plan compiles it ([`plan_lookup`]; there is no cache
/// entry to keep it on), builds the extent's index and evaluates the
/// plan over it, and a traced request shows a `certain.plan.eval` span.
/// A pair without one, or whose compile the request's deadline or
/// cancel cut short, chases the extent as [`certain_sound_ctx`] does,
/// so an unproducible extent tuple still replies `invalid-input`. Both
/// routes render through the request's own names, byte-identically to
/// each other and to [`run_certain_handle`].
fn run_certain(
    schema: &str,
    views: &str,
    query: &str,
    extent: &str,
    budget: &Budget,
    ctx: &EngineCtx,
) -> Outcome {
    let (mut names, cq_views, q) = match parse_cq_pair(schema, views, query) {
        Ok(p) => p,
        Err(o) => return o,
    };
    let extent = match parse_instance(cq_views.as_view_set().output_schema(), &mut names, extent) {
        Ok(i) => i,
        Err(e) => return err(ErrorKind::Parse, format!("extent: {e}")),
    };
    let answers = match plan_lookup(&cq_views, &q, budget, &ctx.registry) {
        Some(Ok(plan)) => {
            count_plan_route(ctx);
            plan.eval(&IndexedInstance::new(extent), budget)
        }
        plan => {
            count_chase_route(ctx, plan.as_ref());
            certain_sound_ctx(&cq_views, &q, &extent, budget)
        }
    };
    certain_outcome(answers, &names)
}

/// Name-sensitive extent fingerprint. Two extents with equal
/// fingerprints parse to identical instances under *any* identical
/// pre-seeded [`DomainNames`]: the fresh-names rendering captures both
/// the fact set and the first-occurrence order of constants, which is
/// all request-time interning depends on. That makes the fingerprint
/// safe to use in [`derived_key`]: equal key ⟹ identical derived index
/// ⟹ byte-identical answers.
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

/// [`run_certain`] with the extent read from the cache. The derived
/// entry under the request's key holds the extent's index for a pair
/// with a plan, the chased canonical database for any other pair, and
/// the pair's plan lookup; its [`DerivedKind`] picks the route, so a
/// chased record written before plans existed still answers through
/// the chase.
///
/// A hit on a complete entry evaluates over the cached index with zero
/// index builds and no compile, and renders through the entry's name
/// table without parsing the extent. Any other lookup completes the
/// entry and re-inserts it: it parses the extent only for a missing
/// table, compiles only for a missing plan lookup, and builds the index
/// its route needs (the extent's own, or the chase) only on a miss. The
/// table is the request-local interning an inline request would build,
/// so every route renders byte-identically to the inline form modulo
/// the work envelope. A compile the request's deadline or cancel cut
/// short serves this request through the chase and re-inserts nothing.
///
/// The flag is the cache lookup's answer: whether a derived entry for
/// the key was found, so the request skipped building it.
fn run_certain_handle(
    schema: &str,
    views: &str,
    query: &str,
    handle: &str,
    budget: &Budget,
    ctx: &EngineCtx,
) -> (Outcome, bool) {
    let Some(entry) = ctx.cache.get_handle(handle) else {
        let message =
            format!("unknown instance handle `{handle}` (never put, or evicted): re-put and retry");
        return (err(ErrorKind::UnknownHandle, message), false);
    };
    let key = derived_key(schema, views, query, &entry.fingerprint);
    let (names, cq_views, q) = match parse_cq_pair(schema, views, query) {
        Ok(p) => p,
        Err(o) => return (o, false),
    };
    let cached = ctx.cache.get_derived(&key);
    let hit = cached.is_some();
    let (index, kind, names, plan) = match cached {
        Some(Derived { index, names: Some(names), kind, plan: Some(plan) }) => {
            (index, kind, names, Some(plan))
        }
        cached => {
            let plan = cached
                .as_ref()
                .and_then(|d| d.plan.clone())
                .or_else(|| plan_lookup(&cq_views, &q, budget, &ctx.registry));
            let (index, kind, names) = match cached {
                Some(Derived { index, kind, names: Some(names), .. }) => (index, kind, names),
                cached => {
                    let mut names = names;
                    let out_schema = cq_views.as_view_set().output_schema();
                    let extent = match parse_instance(out_schema, &mut names, &entry.extent) {
                        Ok(i) => i,
                        Err(e) => {
                            let message = format!("extent (handle {handle}): {e}");
                            return (err(ErrorKind::Parse, message), hit);
                        }
                    };
                    let (index, kind) = match cached {
                        Some(derived) => (derived.index, derived.kind),
                        None if matches!(plan, Some(Ok(_))) => {
                            (IndexedInstance::new(extent).into_shared(), DerivedKind::Extent)
                        }
                        None => match canonical_database_budgeted(&cq_views, &extent, budget) {
                            Ok(chased) => (chased.into_shared(), DerivedKind::Chased),
                            Err(e) => {
                                count_chase_route(ctx, plan.as_ref());
                                return (vqd_error(e), false);
                            }
                        },
                    };
                    (index, kind, Arc::new(NameTable::new(&names)))
                }
            };
            // A compile the request's budget cut short stores nothing.
            if let Some(plan) = &plan {
                let derived = Derived {
                    index: Arc::clone(&index),
                    names: Some(Arc::clone(&names)),
                    kind,
                    plan: Some(plan.clone()),
                };
                ctx.cache.insert_derived(key, derived);
            }
            (index, kind, names, plan)
        }
    };
    let answers = match (kind, &plan) {
        (DerivedKind::Extent, Some(Ok(plan))) => {
            count_plan_route(ctx);
            plan.eval(&index, budget)
        }
        (DerivedKind::Chased, _) => {
            count_chase_route(ctx, plan.as_ref());
            certain_from_canonical(&q, &index, budget)
        }
        // An extent entry for a pair with no plan (one compiled under
        // other bounds) or whose compile this request's budget cut
        // short: chase the stored extent.
        (DerivedKind::Extent, _) => {
            count_chase_route(ctx, plan.as_ref());
            canonical_database_budgeted(&cq_views, index.instance(), budget)
                .and_then(|chased| certain_from_canonical(&q, &chased, budget))
        }
    };
    (certain_outcome(answers, &*names), hit)
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
    match contained_bounded_budgeted(&q1, &q2, max_domain as usize, u128::from(space_limit), budget)
    {
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
        BoundedContainment::TooLarge => {
            Outcome::Contained { verdict: "too-large".into(), bound: None, witness: None }
        }
        BoundedContainment::Exhausted(e) => exhausted(&e),
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
    let (names, cq_views, q) = match parse_cq_pair(schema, views, query) {
        Ok(p) => p,
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
            counterexample: Some(render_counterexample(&c, &names)),
        },
        Ok(FiniteVerdict::Open { searched_up_to }) => Outcome::FiniteOutcome {
            verdict: "open".into(),
            rewriting: None,
            searched_up_to: Some(searched_up_to as u64),
            counterexample: None,
        },
        Ok(FiniteVerdict::Exhausted(e)) => exhausted(&e),
        Err(e) => vqd_error(e),
    }
}

fn run_semantic(
    schema: &str,
    views: &str,
    query: &str,
    domain: u64,
    space_limit: u64,
    budget: &Budget,
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
        budget,
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
        Ok(SemanticVerdict::Exhausted(e)) => exhausted(&e),
        Err(e) => vqd_error(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqd_core::certain::PlanFallback;

    fn ctx() -> EngineCtx {
        EngineCtx::new(CancelToken::new())
    }

    fn decide_req(views: &str, query: &str) -> Request {
        Request::Decide { schema: "E/2,P/1".into(), views: views.into(), query: query.into() }
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
            &Request::Decide { schema: "E/bad".into(), views: String::new(), query: String::new() },
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
        assert!(matches!(out, Outcome::Error { kind: ErrorKind::InvalidInput, .. }), "got {out:?}");
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
        let out =
            execute(&Request::EvictInstance { handle: "h999".into() }, &Budget::unlimited(), &c);
        assert_eq!(out, Outcome::Evicted { handle: "h999".into(), existed: false });
    }

    /// Puts `extent` under `schema`; returns its handle.
    fn put(c: &EngineCtx, schema: &str, extent: &str) -> String {
        let request = Request::PutInstance { schema: schema.into(), extent: extent.into() };
        match execute(&request, &Budget::unlimited(), c) {
            Outcome::InstancePut { handle, .. } => handle,
            other => panic!("unexpected put outcome {other:?}"),
        }
    }

    /// Certain answers of `(views, query)` over `handle`, with the
    /// derived entry the request left in the cache.
    fn certain_by_handle(
        c: &EngineCtx,
        views: &str,
        query: &str,
        handle: &str,
    ) -> (Outcome, Derived) {
        let request = Request::CertainHandle {
            schema: "E/2".into(),
            views: views.into(),
            query: query.into(),
            handle: handle.into(),
        };
        let out = execute(&request, &Budget::unlimited(), c);
        assert!(matches!(out, Outcome::CertainAnswers { .. }), "{out:?}");
        let entry = c.cache.get_handle(handle).expect("live handle");
        let key = derived_key("E/2", views, query, &entry.fingerprint);
        (out, c.cache.get_derived(&key).expect("a derived entry"))
    }

    fn compiles(c: &EngineCtx) -> u64 {
        c.registry.snapshot().counter("certain.plan.compiles")
    }

    const EDGE: &str = "V(x,y) :- E(x,y).";

    #[test]
    fn pairs_failing_the_plan_checks_are_never_compiled() {
        let c = ctx();
        let h = put(&c, "V/2", "V(A,B). V(B,C).");
        for _ in 0..2 {
            let (_, derived) = certain_by_handle(&c, EDGE, "Q(x) :- E(x,C).", &h);
            assert_eq!(derived.kind, DerivedKind::Chased);
            assert_eq!(derived.plan.unwrap().unwrap_err(), PlanFallback::Constant);
        }
        assert_eq!(compiles(&c), 0);
        assert_eq!(c.registry.snapshot().counter("certain.plan.fallback.constant"), 2);
    }

    #[test]
    fn search_size_bounds_are_stored_on_the_chased_entry() {
        let c = ctx();
        let twelve: String = (0..12).map(|i| format!("V{i}(x,y) :- E(x,y).\n")).collect();
        let path = "Q(a) :- E(a,b), E(b,c), E(c,d), E(d,e), E(e,f), E(f,g), E(g,h), E(h,i).";
        let h = put(&c, "V0/2", "V0(A,B). V0(B,A).");
        for _ in 0..2 {
            let (_, derived) = certain_by_handle(&c, &twelve, path, &h);
            assert_eq!(derived.kind, DerivedKind::Chased);
            assert_eq!(derived.plan.unwrap().unwrap_err(), PlanFallback::SizeBound);
            // The search ran on the miss only: the hit read its result.
            assert_eq!(compiles(&c), 1);
        }
        assert_eq!(c.registry.snapshot().counter("certain.plan.fallback.size_bound"), 2);
    }

    /// A pair whose MiniCon search passes only about a hundred steps but
    /// assembles its 32 allowed combinations, each about a millisecond
    /// of containment checks, before it falls back with `size_bound`:
    /// about 25 ms of compile in a release build. The deadline check
    /// every 64th step alone would notice a passed deadline only about
    /// 10 ms in.
    const SLOW_SCHEMA: &str = "E/2,P/1,T/3";
    const SLOW_VIEWS: &str = "V0(x1) :- P(x1).\n\
        V1(x2,x3,x4,x5,x0,x1,x6,x7) :- P(x1), T(x2,x2,x1), T(x4,x1,x1), E(x3,x5), T(x4,x1,x1), \
        T(x2,x1,x0), T(x1,x4,x6), E(x4,x6), P(x6), E(x6,x7), E(x1,x0).";
    const SLOW_QUERY: &str = "Q() :- E(x0,x5), E(x0,x4), T(x2,x4,x0), T(x1,x0,x5), E(x3,x3), \
        E(x1,x3), T(x5,x1,x3), T(x2,x4,x3).";

    #[test]
    fn a_deadline_cuts_a_slow_compile_short_and_stores_nothing() {
        let c = ctx();
        let (_, views, q) = parse_cq_pair(SLOW_SCHEMA, SLOW_VIEWS, SLOW_QUERY).expect("parses");
        let started = Instant::now();
        assert_eq!(CertainPlan::compile(&views, &q).unwrap_err(), PlanFallback::SizeBound);
        let full = started.elapsed();
        let deadline = || Budget::unlimited().with_deadline(std::time::Duration::from_millis(1));
        let extent = "V0(A). V1(A,B,C,D,A,B,C,D).";
        let inline = Request::Certain {
            schema: SLOW_SCHEMA.into(),
            views: SLOW_VIEWS.into(),
            query: SLOW_QUERY.into(),
            extent: extent.into(),
        };
        let started = Instant::now();
        let out = execute(&inline, &deadline(), &c);
        let took = started.elapsed();
        // The chase then runs under the same passed deadline: it may
        // finish this small extent before its first deadline check.
        assert!(
            matches!(out, Outcome::CertainAnswers { .. } | Outcome::Exhausted { .. }),
            "{out:?}"
        );
        assert!(took < full / 4, "replied after {took:?}; the whole compile takes {full:?}");
        let counter = |name: &str| c.registry.snapshot().counter(name);
        assert_eq!(counter("certain.plan.compile_trips"), 1);
        assert_eq!(counter("certain.route.chase"), 1);
        assert_eq!(counter("certain.plan.fallbacks"), 0, "a trip says nothing about the pair");

        // By handle, a cut-short compile stores no derived entry; an
        // unhurried one stores its `size_bound` fallback.
        let handle = put(&c, "V0/1,V1/8", extent);
        let by_handle = Request::CertainHandle {
            schema: SLOW_SCHEMA.into(),
            views: SLOW_VIEWS.into(),
            query: SLOW_QUERY.into(),
            handle: handle.clone(),
        };
        let fingerprint = c.cache.get_handle(&handle).expect("live handle").fingerprint;
        let key = derived_key(SLOW_SCHEMA, SLOW_VIEWS, SLOW_QUERY, &fingerprint);
        execute(&by_handle, &deadline(), &c);
        assert_eq!(counter("certain.plan.compile_trips"), 2);
        assert!(c.cache.get_derived(&key).is_none(), "nothing is stored");
        let out = execute(&by_handle, &Budget::unlimited(), &c);
        assert!(matches!(out, Outcome::CertainAnswers { .. }), "{out:?}");
        let derived = c.cache.get_derived(&key).expect("a derived entry");
        assert_eq!(derived.plan.unwrap().unwrap_err(), PlanFallback::SizeBound);
    }

    #[test]
    fn derived_hits_compile_nothing() {
        let c = ctx();
        let h = put(&c, "V/2", "V(A,B). V(B,C).");
        let query = "Q(x,z) :- E(x,y), E(y,z).";
        let (miss, derived) = certain_by_handle(&c, EDGE, query, &h);
        assert_eq!(derived.kind, DerivedKind::Extent);
        assert!(derived.plan.unwrap().is_ok());
        assert_eq!(compiles(&c), 1);
        for _ in 0..3 {
            assert_eq!(certain_by_handle(&c, EDGE, query, &h).0, miss);
        }
        assert_eq!(compiles(&c), 1);
        assert_eq!(c.registry.snapshot().counter("certain.route.plan"), 4);
    }

    /// A fresh temporary directory, removed on drop.
    struct TempDir(std::path::PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let dir = std::env::temp_dir().join(format!("vqd-engine-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            TempDir(dir)
        }

        fn ctx(&self, max_bytes: u64) -> EngineCtx {
            let config = CacheConfig {
                shards: 1,
                max_entries: 1024,
                max_bytes,
                disk: Some(crate::disk::DiskConfig::at(&self.0)),
            };
            EngineCtx::with_cache_config(CancelToken::new(), config)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn restored_extent_entries_compile_their_plan_once() {
        let dir = TempDir::new("restore");
        let query = "Q(x,z) :- E(x,y), E(y,z).";
        let (h, want) = {
            let c = dir.ctx(u64::MAX);
            let h = put(&c, "V/2", "V(A,B). V(B,C).");
            (h.clone(), certain_by_handle(&c, EDGE, query, &h).0)
        };
        let c = dir.ctx(u64::MAX);
        let mut seen = vec![compiles(&c)];
        for _ in 0..3 {
            let (out, derived) = certain_by_handle(&c, EDGE, query, &h);
            assert_eq!(out, want);
            assert_eq!(derived.kind, DerivedKind::Extent);
            assert!(derived.plan.unwrap().is_ok());
            seen.push(compiles(&c));
        }
        assert_eq!(seen, [0, 1, 1, 1]);
        assert_eq!(c.cache.stats().misses, 0, "every lookup hit the restored entry");
    }

    #[test]
    fn plans_count_against_the_cache_byte_budget() {
        let dir = TempDir::new("budget");
        let max_bytes = 32 << 10;
        let c = dir.ctx(max_bytes);
        let h = put(&c, "V/2", "V(A,B). V(B,C). V(C,A).");
        let handle_bytes = c.cache.stats().bytes;
        let long = "y".repeat(1950);
        for i in 0..64 {
            // About 4 KiB of source text per pair, all of it distinct.
            let query = format!("Q(x) :- E(x,{long}{i}), E({long}{i},z{i}).");
            let before = c.cache.stats().bytes;
            let (_, derived) = certain_by_handle(&c, EDGE, &query, &h);
            let Some(Ok(plan)) = &derived.plan else { panic!("pair {i} has a plan") };
            let table = derived.names.as_ref().map_or(0, |n| n.approx_bytes());
            let bytes = derived.approx_bytes();
            assert!(plan.approx_bytes() > 0);
            assert_eq!(bytes, derived.index.approx_bytes() + table + plan.approx_bytes());
            if i == 0 {
                assert_eq!(c.cache.stats().bytes, before + bytes, "the cache charges the plan");
            }
            assert!(
                c.cache.stats().bytes <= max_bytes + bytes,
                "pair {i}: {} bytes held against a budget of {max_bytes}",
                c.cache.stats().bytes
            );
        }
        let stats = c.cache.stats();
        assert!(stats.evictions > 0, "the flood evicted derived entries");
        assert!(c.cache.get_handle(&h).is_some(), "the handle in use stays");
        assert!(stats.bytes >= handle_bytes);
    }

    #[test]
    fn pair_entries_stay_within_the_cache_bounds() {
        let (max_entries, max_bytes) = (6, 512);
        let config = CacheConfig { shards: 1, max_entries, max_bytes, disk: None };
        let c = EngineCtx::with_cache_config(CancelToken::new(), config);
        let long = "y".repeat(1950);
        for i in 0..64 {
            // Even pairs carry about 4 KiB of source text, all of it
            // distinct; odd pairs are short.
            let var = if i % 2 == 0 { format!("{long}{i}") } else { format!("y{i}") };
            let query = format!("Q(x) :- E(x,{var}), E({var},z{i}).");
            let out = execute(&decide_req(EDGE, &query), &Budget::unlimited(), &c);
            assert!(matches!(out, Outcome::Decided { determined: true, .. }), "{out:?}");
            let key = pair_key("E/2,P/1", EDGE, &query);
            let newest = c.cache.get_pair(&key, &Budget::unlimited()).expect("the newest entry");
            assert!(newest.approx_bytes() < 256, "pair {i}: the entry holds no source text");
            let stats = c.cache.stats();
            assert!(
                stats.bytes <= max_bytes + newest.approx_bytes(),
                "pair {i}: {} bytes held against a budget of {max_bytes}",
                stats.bytes
            );
            assert!(stats.entries <= max_entries as u64, "pair {i}: {} entries", stats.entries);
        }
        let stats = c.cache.stats();
        assert!(stats.evictions > 0, "the flood evicted pair entries");
        assert_eq!((stats.hits, stats.misses), (0, 0), "no derived lookups");
        let registry = c.registry.snapshot();
        assert_eq!(registry.counter("cache.pair_misses"), 64);
        assert_eq!(registry.counter("cache.pair_hits"), 64, "one per newest-entry check");
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

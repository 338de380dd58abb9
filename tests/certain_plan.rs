//! The prepared-plan route answers certain queries exactly like the
//! chase route.
//!
//! * **Generated triples.** Over 200 seeded constant-free
//!   `(views, query, extent)` triples, written as source text and parsed
//!   the way the server parses a request. Each one is answered at engine
//!   widths 1 and 2 by [`CertainPlan::eval`] over the extent's index and
//!   by `canonical_database_budgeted` + `certain_from_canonical`; the
//!   two must give the same `Relation` and the same rendering. The
//!   corpus covers several views, self-joins, zero-ary heads, heads of
//!   arity five and more, and pairs whose MCR is empty. Two fixed pairs
//!   need every MCD closure and a head-variable merge across MCDs.
//! * **The certain-hot queries.** The six path queries over 2-path
//!   views minimize to at most one disjunct and answer like the chase.
//! * **Inline requests.** Every generated triple, the constant pair and
//!   the repeated-head pair sent inline through `engine::execute` reply
//!   exactly what the chase route renders through the same names, and
//!   `certain.route.plan` counts exactly the triples in the plan's scope.
//! * **A server round.** One pair with a plan and one without answer
//!   byte-identically inline, on a handle miss, on a handle hit and on a
//!   hit after a restart; the `certain.route.*` and `certain.plan.*`
//!   counters say which route ran, with one fallback for each reason
//!   (constant, repeated head variable, size bound).

use serde::json::Value;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;
use vqd::budget::{Budget, CancelToken};
use vqd::chase::CqViews;
use vqd::core::certain::{
    canonical_database_budgeted, certain_from_canonical, certain_sound_ctx, CertainPlan,
    PlanFallback,
};
use vqd::exec::ExecCtx;
use vqd::instance::{named, DomainNames, IndexedInstance, Instance, Schema};
use vqd::obs::RegistrySnapshot;
use vqd::query::{parse_instance, parse_program, parse_query, Cq, ViewSet};
use vqd::server::engine::{self, EngineCtx};
use vqd::server::{
    self, CacheConfig, Client, DiskConfig, Envelope, Limits, Outcome, Request, Response,
    ServerCaps, ServerConfig,
};

const TRIPLES: usize = 240;
const MIN_COMPARED: usize = 200;
const WIDTHS: [usize; 2] = [1, 2];
const BASE: [(&str, usize); 3] = [("E", 2), ("P", 1), ("T", 3)];
const CONSTS: [&str; 6] = ["A", "B", "N5", "C", "7", "D"];

/// The views and queries of the certain-hot benchmark workload.
const HOT_VIEWS: &str = "V(x,z) :- E(x,y), E(y,z).";
const HOT_QUERIES: [&str; 6] = [
    "Q(x,z) :- E(x,y), E(y,z).",
    "Q(x) :- E(x,y), E(y,z).",
    "Q(x,w) :- E(x,y), E(y,z), E(z,w).",
    "Q(x,v) :- E(x,y), E(y,z), E(z,w), E(w,v).",
    "Q(z) :- E(x,y), E(y,z), E(z,w), E(w,v).",
    "Q(x,z,v) :- E(x,y), E(y,z), E(z,w), E(w,v).",
];

/// SplitMix64: a self-contained generator, so the corpus does not
/// depend on any RNG crate's stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A constant-free body of `atoms` atoms over `rels`, its variables
/// drawn from `x0..x{pool}`; returns the atoms and the variables used,
/// in first-use order.
fn body(
    rng: &mut Rng,
    rels: &[(&str, usize)],
    atoms: u64,
    pool: u64,
) -> (Vec<String>, Vec<String>) {
    let mut used: Vec<String> = Vec::new();
    let mut out = Vec::new();
    for _ in 0..atoms {
        let (rel, arity) = rels[rng.below(rels.len() as u64) as usize];
        let args: Vec<String> = (0..arity)
            .map(|_| {
                let v = format!("x{}", rng.below(pool));
                if !used.contains(&v) {
                    used.push(v.clone());
                }
                v
            })
            .collect();
        out.push(format!("{rel}({})", args.join(",")));
    }
    (out, used)
}

struct Triple {
    views: String,
    query: String,
    extent: String,
    n_views: u64,
    self_join: bool,
    query_arity: usize,
}

/// One triple in the plan's scope: view heads are distinct variables,
/// so every extent tuple is one its view can produce, and the extent is
/// any set of such tuples (sound views).
fn triple(rng: &mut Rng) -> Triple {
    let domain = &CONSTS[..2 + rng.below(5) as usize];
    let n_views = 1 + rng.below(3);
    let mut views = Vec::new();
    let mut facts = Vec::new();
    for i in 0..n_views {
        let (n_atoms, pool) = (1 + rng.below(3), 3 + rng.below(4));
        let (atoms, vars) = body(rng, &BASE, n_atoms, pool);
        // Distinct head variables: a random subset, in random order.
        let mut pool = vars;
        let arity = rng.below(pool.len().min(5) as u64 + 1) as usize;
        let mut head = Vec::new();
        for _ in 0..arity {
            head.push(pool.remove(rng.below(pool.len() as u64) as usize));
        }
        views.push(format!("V{i}({}) :- {}.", head.join(","), atoms.join(", ")));
        for _ in 0..1 + rng.below(10) {
            let args: Vec<&str> =
                (0..arity).map(|_| domain[rng.below(domain.len() as u64) as usize]).collect();
            facts.push(format!("V{i}({}).", args.join(",")));
        }
    }
    // The query joins relations the views expose, so most triples have
    // answers.
    let exposed: Vec<(&str, usize)> = BASE
        .into_iter()
        .filter(|(rel, _)| views.iter().any(|v| v.contains(&format!(" {rel}("))))
        .collect();
    let n_atoms = 1 + rng.below(4);
    let (atoms, vars) = body(rng, &exposed, n_atoms, 5);
    let self_join = atoms.iter().enumerate().any(|(i, a)| {
        let rel = &a[..a.find('(').unwrap()];
        atoms[..i].iter().any(|b| b.starts_with(&format!("{rel}(")))
    });
    let query_arity = match rng.below(10) {
        0 => 0,
        1 => 5,
        2 => 6,
        n => (n as usize - 2).min(4),
    };
    let head: Vec<&str> =
        (0..query_arity).map(|_| vars[rng.below(vars.len() as u64) as usize].as_str()).collect();
    Triple {
        views: views.join("\n"),
        query: format!("Q({}) :- {}.", head.join(","), atoms.join(", ")),
        extent: facts.join(" "),
        n_views,
        self_join,
        query_arity,
    }
}

struct Parsed {
    names: DomainNames,
    views: CqViews,
    query: Cq,
    extent: Instance,
}

/// Parses like the server: views, then the query, then the extent, all
/// into one `DomainNames`.
fn parse(schema: &Schema, views: &str, query: &str, extent: &str) -> Parsed {
    let mut names = DomainNames::new();
    let prog = parse_program(schema, &mut names, views).expect("views parse");
    let views = CqViews::try_new(ViewSet::new(schema, prog.defs)).expect("CQ views");
    let query = parse_query(schema, &mut names, query).expect("query parses");
    let query = query.as_cq().expect("a CQ").clone();
    let extent = parse_instance(views.as_view_set().output_schema(), &mut names, extent)
        .expect("extent parses");
    Parsed { names, views, query, extent }
}

fn exec(width: usize) -> ExecCtx {
    if width == 1 {
        ExecCtx::sequential(Budget::unlimited())
    } else {
        ExecCtx::with_parallelism(Budget::unlimited(), width)
    }
}

/// Answers `p` both ways at every width and requires equal relations and
/// renderings; returns the plan and the answer count.
fn compare(p: &Parsed, what: &str) -> (CertainPlan, usize) {
    let plan = CertainPlan::compile(&p.views, &p.query)
        .unwrap_or_else(|why| panic!("{what}: no plan ({why:?})"));
    let index = IndexedInstance::new(p.extent.clone());
    let chased = canonical_database_budgeted(&p.views, &p.extent, &Budget::unlimited())
        .unwrap_or_else(|e| panic!("{what}: chase failed: {e}"));
    let mut count = 0;
    for width in WIDTHS {
        let (plan_cx, chase_cx) = (exec(width), exec(width));
        let via_plan = plan.eval(&index, &plan_cx).expect("plan evaluates");
        let via_chase = certain_from_canonical(&p.query, &chased, &chase_cx).expect("chase route");
        let at = format!("{what} at width {width}");
        assert_eq!(via_plan, via_chase, "{at}");
        assert_eq!(via_plan.render(&p.names), via_chase.render(&p.names), "{at}");
        // Both routes report the clamped width, except an empty plan,
        // which evaluates nothing and so fans nothing out.
        let fanned = if width > 1 { width as u64 } else { 0 };
        assert_eq!(chase_cx.threads_used(), fanned, "{at}");
        let plan_fanned = if plan.disjuncts().is_empty() { 0 } else { fanned };
        assert_eq!(plan_cx.threads_used(), plan_fanned, "{at}");
        count = via_plan.len();
    }
    (plan, count)
}

#[test]
fn plan_route_equals_chase_route_on_generated_triples() {
    let schema = Schema::new(BASE);
    let mut rng = Rng(0x00c0_ffee_5eed);
    let (mut compared, mut multi_view, mut self_joins, mut boolean, mut wide) = (0, 0, 0, 0, 0);
    let (mut empty_mcr, mut answered, mut multi_disjunct) = (0, 0, 0);
    for case in 0..TRIPLES {
        let t = triple(&mut rng);
        let views = t.views.replace('\n', " ");
        let what = format!("case {case}: {views} / {} / {}", t.query, t.extent);
        let p = parse(&schema, &t.views, &t.query, &t.extent);
        if let Err(why) = CertainPlan::compile(&p.views, &p.query) {
            assert_eq!(why, PlanFallback::SizeBound, "{what}: only the bounds may refuse");
            continue;
        }
        let (plan, answers) = compare(&p, &what);
        compared += 1;
        multi_view += usize::from(t.n_views > 1);
        self_joins += usize::from(t.self_join);
        boolean += usize::from(t.query_arity == 0);
        wide += usize::from(t.query_arity >= 5);
        empty_mcr += usize::from(plan.disjuncts().is_empty());
        multi_disjunct += usize::from(plan.disjuncts().len() > 1);
        answered += usize::from(answers > 0);
    }
    assert!(compared >= MIN_COMPARED, "only {compared} triples compared");
    for (shape, n) in [
        ("several views", multi_view),
        ("a self-join", self_joins),
        ("a zero-ary head", boolean),
        ("a head of arity 5 or more", wide),
        ("an empty MCR", empty_mcr),
        ("a non-empty answer", answered),
        ("more than one disjunct", multi_disjunct),
    ] {
        assert!(n >= 5, "{n} compared triples with {shape}");
    }
}

#[test]
fn hot_queries_minimize_to_one_disjunct_and_answer_like_the_chase() {
    let schema = Schema::new([("E", 2)]);
    // A chain and a small random graph, as 2-path view extents.
    let mut chain = String::new();
    for i in 0..40 {
        chain.push_str(&format!("V(N{i},N{}). ", i + 2));
    }
    let mut rng = Rng(7);
    let mut graph = String::new();
    for _ in 0..60 {
        graph.push_str(&format!("V(N{},N{}). ", rng.below(24), rng.below(24)));
    }
    for query in HOT_QUERIES {
        for extent in [&chain, &graph] {
            let p = parse(&schema, HOT_VIEWS, query, extent);
            let (plan, _) = compare(&p, query);
            assert!(plan.disjuncts().len() <= 1, "{query}: {:?}", plan.disjuncts());
        }
    }
    // The odd path has no contained rewriting: nothing is certain.
    let p = parse(&schema, HOT_VIEWS, HOT_QUERIES[2], &chain);
    assert!(CertainPlan::compile(&p.views, &p.query).unwrap().disjuncts().is_empty());
    // A plan answers over any extent of its views: one compiled plan,
    // two extents.
    let plan = CertainPlan::compile(&p.views, &p.query).unwrap();
    let empty = Instance::empty(p.views.as_view_set().output_schema());
    assert!(plan.eval(&empty, &Budget::unlimited()).unwrap().is_empty());
    let mut one = Instance::empty(p.views.as_view_set().output_schema());
    one.insert_named("V", vec![named(0), named(1)]);
    assert!(plan.eval(&one, &Budget::unlimited()).unwrap().is_empty());
}

/// Pairs whose MCR needs every MCD closure and every head-variable
/// merge MiniCon can make, with their certain answers.
const FIXED: [(&str, &str, &str, &str); 2] = [
    // `b` goes to the existential `y`, so both atoms leaving `b` join
    // the MCD and each lands on either view atom leaving `y`: four
    // closures, four rewritings, none contained in another.
    (
        "V(x,u,w) :- E(x,y), E(y,u), E(y,w).",
        "Q(a,c,d) :- E(a,b), E(b,c), E(b,d).",
        "V(A,B,C).",
        "{(A,B,B), (A,B,C), (A,C,B), (A,C,C)}",
    ),
    // The `V2` MCD sends `x` and `y` onto one head variable, so the
    // rewriting must equate them in the `V1` atom as well.
    (
        "V1(a,b) :- E(a,b).\nV2(c) :- T(c,c,z).",
        "Q(x,y) :- E(x,y), T(x,y,z).",
        "V1(A,A). V1(A,B). V2(A). V2(B).",
        "{(A,A)}",
    ),
];

#[test]
fn every_mcd_closure_and_head_merge_keeps_its_answers() {
    let schema = Schema::new(BASE);
    for (views, query, extent, want) in FIXED {
        let p = parse(&schema, views, query, extent);
        compare(&p, query);
        let plan = CertainPlan::compile(&p.views, &p.query).unwrap();
        let answers = plan.eval(&p.extent, &Budget::unlimited()).unwrap();
        assert_eq!(answers.render(&p.names), want, "{views} / {query}");
    }
}

/// The engine's reply to the triple sent inline, and the chase route's
/// answer to it rendered through the same names.
fn inline_and_chase(
    ctx: &EngineCtx,
    schema: &str,
    views: &str,
    query: &str,
    extent: &str,
) -> (Outcome, Outcome) {
    let request = Request::Certain {
        schema: schema.into(),
        views: views.into(),
        query: query.into(),
        extent: extent.into(),
    };
    let reply = engine::execute(&request, &Budget::unlimited(), ctx);
    let p = parse(&Schema::parse(schema).expect("schema"), views, query, extent);
    let chased = certain_sound_ctx(&p.views, &p.query, &p.extent, &Budget::unlimited());
    let chased = chased.map_or_else(
        |e| panic!("{views} / {query}: chase failed: {e}"),
        |rel| Outcome::CertainAnswers { count: rel.len() as u64, answers: rel.render(&p.names) },
    );
    (reply, chased)
}

#[test]
fn inline_requests_answer_like_the_chase_and_count_the_plan_route() {
    let ctx = EngineCtx::new(CancelToken::new());
    let mut rng = Rng(0x00c0_ffee_5eed);
    let mut in_scope = 0;
    for case in 0..TRIPLES {
        let t = triple(&mut rng);
        let (reply, chased) = inline_and_chase(&ctx, "E/2,P/1,T/3", &t.views, &t.query, &t.extent);
        assert_eq!(reply, chased, "case {case}: {} / {} / {}", t.views, t.query, t.extent);
        let p = parse(&Schema::new(BASE), &t.views, &t.query, &t.extent);
        in_scope += u64::from(CertainPlan::compile(&p.views, &p.query).is_ok());
    }
    for (views, query, extent) in [CONSTANT_PAIR, REPEATED_PAIR] {
        let (reply, chased) = inline_and_chase(&ctx, "E/2", views, query, extent);
        assert_eq!(reply, chased, "{views} / {query} / {extent}");
    }
    let registry = ctx.registry.snapshot();
    assert!(in_scope >= MIN_COMPARED as u64, "only {in_scope} triples in scope");
    assert_eq!(registry.counter("certain.route.plan"), in_scope);
    assert_eq!(registry.counter("certain.route.chase"), TRIPLES as u64 + 2 - in_scope);
    assert_eq!(registry.counter("certain.plan.fallback.constant"), 1);
    assert_eq!(registry.counter("certain.plan.fallback.repeated_head_variable"), 1);
}

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new() -> TempDir {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "vqd-certain-plan-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn spawn(dir: &TempDir) -> server::ServerHandle {
    server::spawn(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_depth: 64,
        caps: ServerCaps {
            cache: CacheConfig {
                shards: 1,
                max_entries: 128,
                max_bytes: u64::MAX,
                disk: Some(DiskConfig::at(dir.0.clone())),
            },
            ..ServerCaps::default()
        },
    })
    .expect("spawn server")
}

fn client(handle: &server::ServerHandle) -> Client {
    let c = Client::connect(handle.addr()).expect("connect");
    c.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    c
}

/// `(views, query, extent)` with an `E/2` base schema and a `V/2` view.
type Pair = (&'static str, &'static str, &'static str);

const EXTENT: &str = "V(A,B). V(B,C). V(C,A). V(C,C). V(D,B).";
/// Has a plan: 2-path views, 4-path query.
const PLAN_PAIR: Pair = (HOT_VIEWS, "Q(x,v) :- E(x,y), E(y,z), E(z,w), E(w,v).", EXTENT);
/// Falls back: the query mentions a constant.
const CONSTANT_PAIR: Pair = (HOT_VIEWS, "Q(x) :- E(x,y), E(y,z), E(z,w), E(w,C).", EXTENT);
/// Falls back: the view head repeats `x` (the extent is producible).
const REPEATED_PAIR: Pair = ("V(x,x) :- E(x,y).", "Q(x) :- E(x,y).", "V(A,A). V(B,B).");
/// Falls back: nine query atoms, past the plan's bound of eight.
const SIZE_PAIR: Pair = (
    "V(x,y) :- E(x,y).",
    "Q(a,j) :- E(a,b), E(b,c), E(c,d), E(d,e), E(e,f), E(f,g), E(g,h), E(h,i), E(i,j).",
    "V(A,B). V(B,A).",
);

fn inline((views, query, extent): Pair) -> Request {
    Request::Certain {
        schema: "E/2".into(),
        views: views.into(),
        query: query.into(),
        extent: extent.into(),
    }
}

fn by_handle((views, query, _): Pair, handle: &str) -> Request {
    Request::CertainHandle {
        schema: "E/2".into(),
        views: views.into(),
        query: query.into(),
        handle: handle.into(),
    }
}

/// Sends `request` under a pinned correlation id; returns the reply.
fn send(c: &mut Client, request: &Request) -> Response {
    let line = Envelope::new("pinned", Limits::none(), request.clone()).to_json();
    let reply = c.call_raw(&line.to_string()).expect("reply");
    assert!(matches!(reply.outcome, Outcome::CertainAnswers { .. }), "{reply:?}");
    reply
}

/// The reply without its `work` envelope.
fn result(reply: &Response) -> String {
    match reply.to_json() {
        Value::Obj(fields) => {
            Value::Obj(fields.into_iter().filter(|(k, _)| k != "work").collect()).to_string()
        }
        other => other.to_string(),
    }
}

const SERIES: [&str; 8] = [
    "certain.route.plan",
    "certain.route.chase",
    "certain.plan.compiles",
    "certain.plan.fallbacks",
    "certain.plan.fallback.constant",
    "certain.plan.fallback.repeated_head_variable",
    "certain.plan.fallback.size_bound",
    "certain.plan.fallback.not_plain_cq",
];

fn counters(c: &mut Client) -> [u64; 8] {
    let (_, registry): (_, RegistrySnapshot) = c.stats_full().expect("stats");
    SERIES.map(|name| registry.counter(name))
}

#[test]
fn server_routes_answer_byte_identically_and_count_their_route() {
    let dir = TempDir::new();
    let srv = spawn(&dir);
    let mut c = client(&srv);
    let mut handles = Vec::new();
    let mut wants = Vec::new();
    for pair in [PLAN_PAIR, CONSTANT_PAIR] {
        let want = result(&send(&mut c, &inline(pair)));
        let (handle, _) = c.put_instance("V/2", pair.2).expect("put");
        let miss = send(&mut c, &by_handle(pair, &handle));
        assert_eq!(result(&miss), want, "miss: {pair:?}");
        assert!(miss.work.index_builds > 0, "a miss builds its route's index");
        let hit = send(&mut c, &by_handle(pair, &handle));
        assert_eq!(result(&hit), want, "hit: {pair:?}");
        assert_eq!(hit.work.index_builds, 0, "a hit reuses the cached index");
        handles.push(handle);
        wants.push(want);
    }
    // [plan, chase, compiles, fallbacks, constant, repeated, size, not plain]
    // Inline requests count their route and fallback like handle ones.
    // Only the plan pair is compiled, inline and on its handle miss: the
    // constant pair fails the cheap checks, which run before any compile.
    assert_eq!(counters(&mut c), [3, 3, 2, 3, 3, 0, 0, 0]);
    for pair in [REPEATED_PAIR, SIZE_PAIR] {
        let want = result(&send(&mut c, &inline(pair)));
        let (handle, _) = c.put_instance("V/2", pair.2).expect("put");
        assert_eq!(result(&send(&mut c, &by_handle(pair, &handle))), want, "{pair:?}");
    }
    assert_eq!(counters(&mut c), [3, 7, 2, 7, 3, 2, 2, 0]);
    let prom = c.metrics_prom().expect("metrics_prom");
    for line in ["certain_route_plan 3", "certain_route_chase 7", "certain_plan_compiles 2"] {
        assert!(prom.lines().any(|l| l == line), "no `{line}` in:\n{prom}");
    }
    srv.shutdown();

    // A restart restores both derived entries from disk: the plan pair's
    // extent record feeds the plan, the other's chased record the chase.
    let srv = spawn(&dir);
    let mut c = client(&srv);
    for ((pair, handle), want) in [PLAN_PAIR, CONSTANT_PAIR].into_iter().zip(&handles).zip(&wants) {
        let reply = send(&mut c, &by_handle(pair, handle));
        assert_eq!(&result(&reply), want, "after restart: {pair:?}");
        assert_eq!(reply.work.index_builds, 0, "served from the restored entry");
    }
    assert_eq!(counters(&mut c), [1, 1, 1, 1, 1, 0, 0, 0]);
    match c.cache_stats().expect("cache_stats") {
        Outcome::CacheStatsSnapshot { hits, misses, .. } => assert_eq!((hits, misses), (2, 0)),
        other => panic!("unexpected {other:?}"),
    }
    srv.shutdown();
}

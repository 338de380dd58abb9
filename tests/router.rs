//! Integration suite for the fragment router: the syntactic classifier,
//! the project-select fast path, and the server-side routing contract.
//!
//! Covers, end to end:
//!
//! * the `classify` wire op tags each fragment correctly and never does
//!   chase work;
//! * a project-select `decide` takes the direct fast path — definite
//!   verdict with `chase_rounds: 0` and `index_builds: 0` in the
//!   profile/work envelope;
//! * a path-fragment `decide` still routes through the chase;
//! * a general-fragment `decide` carries the honest
//!   `fragment: "undecidable-in-general"` attribution, on success *and*
//!   on exhaustion;
//! * the `fragment` reply field is additive: absent on non-determinacy
//!   ops and strippable back to the pre-router reply bytes;
//! * classifier soundness, determinism, and purity on a seeded corpus;
//! * fast-path/chase agreement (verdict and rewriting, byte for byte)
//!   on a seeded corpus of random project-select pairs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vqd::budget::Budget;
use vqd::chase::CqViews;
use vqd::core::determinacy::decide_unrestricted_chase_budgeted;
use vqd::instance::{DomainNames, Schema};
use vqd::obs::Metric;
use vqd::query::{parse_program, parse_query, Cq, QueryExpr, ViewSet};
use vqd::router::{classify, classify_pair, decide_project_select, Fragment};
use vqd::server::{
    self, Client, Envelope, Limits, Outcome, Request, Response, ServerCaps, ServerConfig,
};
use vqd_bench::genq::{random_cq, CqGen};

fn schema() -> Schema {
    Schema::new([("E", 2), ("P", 1)])
}

/// Parses `views_src`/`q_src` over `E/2,P/1` into the CQ pipeline types.
fn setup(views_src: &str, q_src: &str) -> (CqViews, Cq) {
    let s = schema();
    let mut names = DomainNames::new();
    let prog = parse_program(&s, &mut names, views_src).expect("views parse");
    let views = CqViews::try_new(ViewSet::new(&s, prog.defs)).expect("CQ views");
    let q = match parse_query(&s, &mut names, q_src).expect("query parse") {
        QueryExpr::Cq(q) => q,
        other => panic!("expected a CQ, got {other:?}"),
    };
    (views, q)
}

fn spawn_server() -> server::ServerHandle {
    server::spawn(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_depth: 16,
        caps: ServerCaps::default(),
    })
    .expect("spawn server")
}

fn decide_req(views: &str, query: &str) -> Request {
    Request::Decide {
        schema: "E/2,P/1".to_owned(),
        views: views.to_owned(),
        query: query.to_owned(),
    }
}

fn classify_req(views: &str, query: &str) -> Request {
    Request::Classify {
        schema: "E/2,P/1".to_owned(),
        views: views.to_owned(),
        query: query.to_owned(),
    }
}

/// Issues `request` with profiling on and returns the full response.
fn call_profiled(client: &mut Client, request: Request) -> Response {
    let envelope = Envelope::new("t", Limits::none(), request).with_profile(true);
    client.call_raw(&envelope.to_json().to_string()).expect("call")
}

// ---------------------------------------------------------------------
// Wire contract
// ---------------------------------------------------------------------

#[test]
fn classify_tags_each_fragment_over_the_wire() {
    let handle = spawn_server();
    let mut client = Client::connect(handle.addr()).expect("connect");
    // (views, query, expected tag, expected decidable)
    let table = [
        ("V(x,y) :- E(x,y).", "Q(y,x) :- E(x,y).", "project-select", true),
        ("V(x,z) :- E(x,y), E(y,z).", "Q(x,z) :- E(x,y), E(y,z).", "path", true),
        ("V(x,y) :- E(x,y), E(y,x).", "Q(x,z) :- E(x,y), E(y,z).", "general", false),
    ];
    for (views, query, tag, decidable) in table {
        let reply = client.call(Limits::none(), classify_req(views, query)).expect("classify call");
        match &reply.outcome {
            Outcome::Classified { fragment, decidable: d, route } => {
                assert_eq!(fragment, tag, "views {views}");
                assert_eq!(*d, decidable, "views {views}");
                assert!(!route.is_empty());
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        // Classification is purely structural: no chase, no index, no
        // budgeted steps anywhere in the work envelope.
        assert_eq!(reply.work.steps, 0, "classify must not spend budget");
        assert_eq!(reply.work.index_builds, 0, "classify must not build indexes");
        // The reply-level attribution rides along and uses the honest
        // wire note for the general fragment.
        let note = if decidable { tag } else { "undecidable-in-general" };
        assert_eq!(reply.fragment.as_deref(), Some(note));
    }
    handle.shutdown();
}

#[test]
fn project_select_decide_takes_the_fast_path() {
    let handle = spawn_server();
    let mut client = Client::connect(handle.addr()).expect("connect");
    let reply = call_profiled(&mut client, decide_req("V(x,y) :- E(x,y).", "Q(y,x) :- E(x,y)."));
    match &reply.outcome {
        Outcome::Decided { determined: true, rewriting: Some(r) } => {
            assert!(r.contains("V("), "rewriting must be over the view schema, got {r}");
        }
        other => panic!("unexpected outcome {other:?}"),
    }
    assert_eq!(reply.fragment.as_deref(), Some("project-select"));
    // The acceptance bar: a definite verdict with zero chase rounds and
    // zero index builds — the whole point of the fast path.
    let profile = reply.profile.as_ref().expect("profile requested");
    assert_eq!(profile.get(Metric::ChaseRounds), 0, "fast path must not chase");
    assert_eq!(reply.work.index_builds, 0, "fast path must not build indexes");
    // A refuted project-select pair is equally definite and equally cheap.
    let reply = call_profiled(&mut client, decide_req("W(x) :- E(x,x).", "Q(x,y) :- E(x,y)."));
    assert!(
        matches!(&reply.outcome, Outcome::Decided { determined: false, rewriting: None }),
        "got {:?}",
        reply.outcome
    );
    assert_eq!(reply.fragment.as_deref(), Some("project-select"));
    assert_eq!(reply.profile.as_ref().expect("profile").get(Metric::ChaseRounds), 0);
    assert_eq!(reply.work.index_builds, 0);
    handle.shutdown();
}

#[test]
fn path_decide_still_routes_through_the_chase() {
    let handle = spawn_server();
    let mut client = Client::connect(handle.addr()).expect("connect");
    let reply = call_profiled(
        &mut client,
        decide_req("V(x,z) :- E(x,y), E(y,z).", "Q(x0,x3) :- E(x0,x1), E(x1,x2), E(x2,x3)."),
    );
    // 2-path views vs the 3-path query (2 ∤ 3): chased, refuted.
    assert_eq!(reply.fragment.as_deref(), Some("path"));
    assert!(matches!(&reply.outcome, Outcome::Decided { .. }), "got {:?}", reply.outcome);
    // The determined 2|4 case, through the same route.
    let reply = call_profiled(
        &mut client,
        decide_req(
            "V(x,z) :- E(x,y), E(y,z).",
            "Q(x0,x4) :- E(x0,x1), E(x1,x2), E(x2,x3), E(x3,x4).",
        ),
    );
    assert_eq!(reply.fragment.as_deref(), Some("path"));
    match &reply.outcome {
        Outcome::Decided { determined: true, rewriting: Some(_) } => {}
        other => panic!("unexpected outcome {other:?}"),
    }
    let profile = reply.profile.as_ref().expect("profile requested");
    assert!(profile.get(Metric::ChaseRounds) > 0, "path fragment must chase");
    handle.shutdown();
}

#[test]
fn general_decide_is_honestly_attributed_even_when_exhausted() {
    let handle = spawn_server();
    let mut client = Client::connect(handle.addr()).expect("connect");
    // Mixed-arity three-atom views/query: neither single-atom nor a
    // chain, and the view image of the frozen query is non-empty, so
    // the semi-decision does real (tuple-charged) chase work.
    let general =
        || decide_req("V(x,z) :- E(x,y), E(y,z), P(y).", "Q(x,z) :- E(x,y), E(y,z), P(y).");
    // Unlimited: the semi-decision happens to terminate here, but the
    // reply must still say the fragment gives no guarantee.
    let reply = client.call(Limits::none(), general()).expect("call");
    assert!(matches!(&reply.outcome, Outcome::Decided { .. }), "got {:?}", reply.outcome);
    assert_eq!(reply.fragment.as_deref(), Some("undecidable-in-general"));
    assert!(reply.work.tuples > 1, "the starvation probe below needs > 1 charged tuples");
    // Starved: the attribution must survive the exhausted reply — that
    // is exactly when the client needs to know why there is no verdict.
    let limits = Limits { tuple_limit: Some(1), ..Limits::none() };
    let reply = client.call(limits, general()).expect("call");
    assert!(matches!(&reply.outcome, Outcome::Exhausted { .. }), "got {:?}", reply.outcome);
    assert_eq!(reply.fragment.as_deref(), Some("undecidable-in-general"));
    handle.shutdown();
}

#[test]
fn fragment_field_is_additive_and_absent_on_other_ops() {
    let handle = spawn_server();
    let mut client = Client::connect(handle.addr()).expect("connect");
    // Non-determinacy ops carry no attribution at all: the raw reply
    // line has no `fragment` key, so pre-router clients see v1 bytes.
    let reply = client.call(Limits::none(), Request::Ping).expect("ping");
    assert_eq!(reply.fragment, None);
    assert!(!reply.to_json().to_string().contains("\"fragment\""));
    // Determinacy replies differ from their unattributed form only in
    // the additive key: stripping it restores the v1 encoding.
    let reply = client
        .call(Limits::none(), decide_req("V(x,y) :- E(x,y).", "Q(y,x) :- E(x,y)."))
        .expect("decide");
    let line = reply.to_json().to_string();
    let mut stripped = reply.clone();
    stripped.fragment = None;
    assert_eq!(line.replace(r#","fragment":"project-select""#, ""), stripped.to_json().to_string());
    // And the stripped line still decodes (absent → None), so old
    // replies remain readable by new clients and vice versa.
    let back = Response::from_line(&stripped.to_json().to_string()).expect("decode");
    assert_eq!(back.fragment, None);
    handle.shutdown();
}

#[test]
fn router_counters_show_up_in_the_registry() {
    let handle = spawn_server();
    let mut client = Client::connect(handle.addr()).expect("connect");
    for _ in 0..2 {
        client
            .call(Limits::none(), decide_req("V(x,y) :- E(x,y).", "Q(y,x) :- E(x,y)."))
            .expect("decide");
    }
    client
        .call(Limits::none(), decide_req("V(x,y) :- E(x,y), E(y,x).", "Q(x,z) :- E(x,y), E(y,z)."))
        .expect("decide");
    client
        .call(Limits::none(), classify_req("V(x,y) :- E(x,y).", "Q(x) :- E(x,x)."))
        .expect("classify");
    let snapshot = handle.registry().snapshot();
    assert_eq!(snapshot.counter("router.fragment.project-select"), 3);
    assert_eq!(snapshot.counter("router.fragment.general"), 1);
    assert_eq!(snapshot.counter("router.fastpath.hits"), 2);
    assert_eq!(snapshot.counter("router.fastpath.misses"), 1);
    // `classify` is served like any other op, so the pool's per-op
    // latency histogram covers it with no extra plumbing.
    assert_eq!(snapshot.counter("op.classify.requests"), 1);
    assert!(snapshot.histogram("op.classify.latency_ms").is_some());
    handle.shutdown();
}

// ---------------------------------------------------------------------
// Classifier properties (seeded corpus)
// ---------------------------------------------------------------------

/// Random views source with `n` views of at most `atoms` atoms each.
fn random_views_src(rng: &mut StdRng, n: usize, atoms: usize) -> String {
    let s = schema();
    (0..n)
        .map(|i| {
            let p =
                CqGen { atoms: rng.gen_range(1..=atoms), vars: rng.gen_range(1..=3), max_head: 2 };
            random_cq(&s, p, rng).render(&format!("V{i}"))
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn classifier_is_sound_deterministic_and_pure_on_seeded_corpus() {
    let s = schema();
    let mut rng = StdRng::seed_from_u64(0x5e60_0f1e);
    for _ in 0..300 {
        let nviews = rng.gen_range(1..=3);
        let views_src = random_views_src(&mut rng, nviews, 3);
        let p = CqGen { atoms: rng.gen_range(1..=3), vars: rng.gen_range(1..=3), max_head: 2 };
        let q = random_cq(&s, p, &mut rng);
        let (views, _) = setup(&views_src, &q.render("Q"));
        let before = (views.as_view_set().to_string(), q.render("Q"));
        let fragment = classify(&views, &q);
        // Purity: classification reads, never rewrites.
        assert_eq!(before, (views.as_view_set().to_string(), q.render("Q")));
        // Determinism: same pair, same fragment, every time.
        assert_eq!(fragment, classify(&views, &q));
        // Soundness: the tag implies the structural property that makes
        // the routed procedure correct, checked here independently.
        match fragment {
            Fragment::ProjectSelect => {
                assert_eq!(q.atoms.len(), 1, "project-select query must be one atom");
                for i in 0..views.len() {
                    assert_eq!(views.cq(i).atoms.len(), 1, "project-select views: one atom");
                }
            }
            Fragment::PathQuery => {
                let all = (0..views.len()).map(|i| views.cq(i)).chain(std::iter::once(&q));
                for cq in all {
                    assert_eq!(cq.arity(), 2, "chain CQs expose (first, last)");
                    for atom in &cq.atoms {
                        assert_eq!(atom.args.len(), 2, "chain atoms are binary");
                    }
                }
            }
            Fragment::General => {}
        }
    }
}

#[test]
fn classify_pair_sends_non_cq_input_to_general() {
    let s = schema();
    let mut names = DomainNames::new();
    let prog = parse_program(&s, &mut names, "V(x) :- E(x,y), !P(y).").expect("views parse");
    let views = ViewSet::new(&s, prog.defs);
    let q = parse_query(&s, &mut names, "Q(x) :- P(x).").expect("query parse");
    assert_eq!(classify_pair(&views, &q), Fragment::General);
}

#[test]
fn fast_path_agrees_with_chase_on_seeded_project_select_corpus() {
    let s = schema();
    let mut rng = StdRng::seed_from_u64(0xfa57_bead);
    let mut determined = 0usize;
    for i in 0..200 {
        // Single-atom views and query: always project-select.
        let nviews = rng.gen_range(1..=3);
        let views_src = random_views_src(&mut rng, nviews, 1);
        let p = CqGen { atoms: 1, vars: rng.gen_range(1..=3), max_head: 2 };
        let q = random_cq(&s, p, &mut rng);
        let (views, q) = setup(&views_src, &q.render("Q"));
        assert_eq!(classify(&views, &q), Fragment::ProjectSelect, "corpus pair {i}");
        let fast = decide_project_select(&views, &q, &Budget::unlimited())
            .unwrap_or_else(|e| panic!("fast path failed on pair {i}: {e}"));
        let chase = decide_unrestricted_chase_budgeted(&views, &q, &Budget::unlimited())
            .unwrap_or_else(|e| panic!("chase failed on pair {i}: {e}"));
        assert_eq!(
            fast.determined,
            chase.determined,
            "verdict disagreement on pair {i}: views\n{views_src}\nquery {}",
            q.render("Q")
        );
        assert_eq!(
            fast.rewriting.as_ref().map(|r| r.render("R")),
            chase.rewriting.as_ref().map(|r| r.render("R")),
            "rewriting disagreement on pair {i}"
        );
        determined += usize::from(fast.determined);
    }
    // The corpus must exercise both verdicts or the agreement check is
    // vacuous on one side.
    assert!(determined > 0, "no determined pairs in the corpus");
    assert!(determined < 200, "no refuted pairs in the corpus");
}

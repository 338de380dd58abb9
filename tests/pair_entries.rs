//! Pair entries (DESIGN.md §12): a repeated `decide_unrestricted` or
//! `rewrite` request is answered from the verdict its pair left in the
//! instance cache, and the answer equals a fresh decision under every
//! step and tuple limit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vqd::budget::{Budget, CancelToken};
use vqd::instance::Schema;
use vqd::server::engine::{execute_attributed, EngineCtx};
use vqd::server::{Outcome, Request};
use vqd_bench::genq::{random_cq, CqGen};

/// A random CQ pair over `E/2,P/1` as a decide or rewrite request.
fn random_request(rng: &mut StdRng) -> Request {
    let s = Schema::new([("E", 2), ("P", 1)]);
    let views = (0..rng.gen_range(1..=3usize))
        .map(|i| {
            let p = CqGen { atoms: rng.gen_range(1..=3), vars: rng.gen_range(1..=3), max_head: 2 };
            random_cq(&s, p, rng).render(&format!("V{i}"))
        })
        .collect::<Vec<_>>()
        .join("\n");
    let p = CqGen { atoms: rng.gen_range(1..=3), vars: rng.gen_range(1..=3), max_head: 2 };
    let query = random_cq(&s, p, rng).render("Q");
    with_kind(rng.gen_bool(0.5), "E/2,P/1".to_owned(), views, query)
}

fn with_kind(decide: bool, schema: String, views: String, query: String) -> Request {
    if decide {
        Request::Decide { schema, views, query }
    } else {
        Request::Rewrite { schema, views, query }
    }
}

/// The same pair as the other request kind: decide and rewrite share
/// one pair entry.
fn other_kind(request: &Request) -> Request {
    match request.clone() {
        Request::Decide { schema, views, query } => with_kind(false, schema, views, query),
        Request::Rewrite { schema, views, query } => with_kind(true, schema, views, query),
        other => panic!("not a decide-family request: {other:?}"),
    }
}

/// Outcome and fragment attribution of `request` on a fresh context: a
/// server that has never seen the pair.
fn fresh(request: &Request, budget: &Budget) -> (Outcome, Option<&'static str>) {
    let (outcome, attribution) =
        execute_attributed(request, budget, &EngineCtx::new(CancelToken::new()));
    (outcome, attribution.fragment)
}

#[test]
fn pair_entries_answer_like_a_fresh_decision_at_every_limit() {
    let shared = EngineCtx::new(CancelToken::new());
    let mut rng = StdRng::seed_from_u64(0x9a1e_5eed);
    let (mut hits, mut misses, mut exhausted) = (0u64, 0u64, 0u64);
    for i in 0..150 {
        let first = random_request(&mut rng);
        let unlimited = Budget::unlimited();
        fresh(&first, &unlimited);
        let cost = unlimited.work_done();
        for round in 0..6 {
            let request = if rng.gen_bool(0.5) { first.clone() } else { other_kind(&first) };
            // Round 0 is unlimited; later rounds draw a step or a tuple
            // limit around what the decision costs, on both sides of it.
            let limit = match (round, rng.gen_bool(0.5)) {
                (0, _) => None,
                (_, steps) => {
                    let spent = if steps { cost.steps } else { cost.tuples };
                    Some((steps, rng.gen_range(0..spent + 2)))
                }
            };
            let limited = || match limit {
                None => Budget::unlimited(),
                Some((true, n)) => Budget::unlimited().with_step_limit(n),
                Some((false, n)) => Budget::unlimited().with_tuple_limit(n),
            };
            let budget = limited();
            let (outcome, attribution) = execute_attributed(&request, &budget, &shared);
            let expected = fresh(&request, &limited());
            assert_eq!(
                (&outcome, attribution.fragment),
                (&expected.0, expected.1),
                "pair {i}, round {round}: {request:?} under {budget:?}"
            );
            match attribution.cache_hit {
                Some(true) => {
                    hits += 1;
                    assert_eq!(budget.work_done().steps, 0, "a hit does no engine work");
                    assert_eq!(budget.work_done().tuples, 0, "a hit charges nothing");
                }
                Some(false) => misses += 1,
                None => panic!("decide-family requests report their pair lookup"),
            }
            exhausted += u64::from(matches!(outcome, Outcome::Exhausted { .. }));
        }
    }
    let registry = shared.registry.snapshot();
    assert_eq!(registry.counter("cache.pair_hits"), hits);
    assert_eq!(registry.counter("cache.pair_misses"), misses);
    assert!(hits > 150, "repeats must be answered from the entry: {hits} hits");
    assert!(misses > 150, "every first request and every refused repeat misses: {misses}");
    assert!(exhausted > 0, "some limits must trip the decision");
    let stats = shared.cache.stats();
    assert_eq!((stats.hits, stats.misses), (0, 0), "derived counters stay derived-only");
}

//! Semantic caching: answer new queries from cached query results
//! without touching the base data (the paper's second motivation).
//!
//! The cache holds the materialized answers of previously-run queries;
//! these *are* a view set. A newly arrived query is served from the
//! cache iff the cached queries determine it — and then the rewriting is
//! the cache-lookup plan.
//!
//! ```sh
//! cargo run --example semantic_caching
//! ```

use vqd::chase::CqViews;
use vqd::core::determinacy::unrestricted::decide_unrestricted;
use vqd::eval::{apply_views, eval_cq};
use vqd::instance::{DomainNames, Schema};
use vqd::query::{parse_instance, parse_program, parse_query, Cq, ViewSet};

struct Cache {
    views: CqViews,
    materialized: vqd::instance::Instance,
    hits: usize,
    misses: usize,
}

impl Cache {
    fn new(views: CqViews, db: &vqd::instance::Instance) -> Self {
        let materialized = apply_views(views.as_view_set(), db);
        Cache { views, materialized, hits: 0, misses: 0 }
    }

    /// Serves `q` from the cache if the cached queries determine it.
    fn answer(&mut self, q: &Cq, db: &vqd::instance::Instance) -> vqd::instance::Relation {
        let outcome = decide_unrestricted(&self.views, q);
        match outcome.rewriting {
            Some(plan) => {
                self.hits += 1;
                println!("  cache HIT  — plan: {}", plan.render("Plan"));
                eval_cq(&plan, &self.materialized)
            }
            None => {
                self.misses += 1;
                println!("  cache MISS — going to the base data");
                eval_cq(q, db)
            }
        }
    }
}

fn main() {
    let schema = Schema::new([("Orders", 2), ("Ships", 2)]);
    let mut names = DomainNames::new();
    let db = parse_instance(
        &schema,
        &mut names,
        "Orders(Ann, Widget). Orders(Bo, Widget). Orders(Cy, Gadget).\n\
         Ships(Widget, Berlin). Ships(Gadget, Oslo).",
    )
    .expect("facts parse");

    // Two queries were answered earlier and their results cached.
    let prog = parse_program(
        &schema,
        &mut names,
        "CachedDest(c, t)  :- Orders(c, p), Ships(p, t).\n\
         CachedItems(p)    :- Orders(c, p).",
    )
    .expect("cached queries parse");
    let mut cache = Cache::new(CqViews::new(ViewSet::new(&schema, prog.defs)), &db);
    println!("cached query results:\n{}\n", cache.materialized.render(&names));

    let workload = [
        // Served from cache: customers sharing a shipping destination.
        "Q(c, d) :- Orders(c, p), Ships(p, t), Orders(d, q), Ships(q, t).",
        // Served from cache trivially: the cached destinations again.
        "Q(c, t) :- Orders(c, p), Ships(p, t).",
        // Not determined: the raw Orders relation is finer than any cache
        // entry (the join hides which product was ordered).
        "Q(c, p) :- Orders(c, p).",
    ];
    for src in workload {
        println!("query: {src}");
        let q = parse_query(&schema, &mut names, src).expect("parses").as_cq().expect("CQ").clone();
        let answer = cache.answer(&q, &db);
        println!("  answer: {}", answer.render(&names));
        // The cache must never be wrong, only unavailable.
        assert_eq!(answer, eval_cq(&q, &db));
        println!();
    }
    println!("cache stats: {} hits, {} misses", cache.hits, cache.misses);
    assert_eq!(cache.hits, 2);
    assert_eq!(cache.misses, 1);
}

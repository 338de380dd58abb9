//! Local-as-view data integration (the paper's motivating setting).
//!
//! Data sources are described as views over a virtual global schema; a
//! user query against the global schema is answered by rewriting it over
//! the sources — *if* the sources determine it. When they don't, the
//! system falls back to certain answers.
//!
//! ```sh
//! cargo run --example data_integration
//! ```

use vqd::chase::CqViews;
use vqd::core::answering::chase_preimage;
use vqd::core::certain::certain_sound;
use vqd::core::determinacy::unrestricted::decide_unrestricted;
use vqd::eval::{apply_views, eval_cq};
use vqd::instance::{DomainNames, Schema};
use vqd::query::{parse_instance, parse_program, parse_query, ViewSet};

fn main() {
    // Global schema: flights and airline operators.
    let schema = Schema::new([("Flight", 2), ("Operates", 2)]);
    let mut names = DomainNames::new();

    // Source descriptions (LAV): source S1 lists one-stop connections;
    // source S2 lists which airline operates out of which airport.
    let prog = parse_program(
        &schema,
        &mut names,
        "S1(x,z) :- Flight(x,y), Flight(y,z).\n\
         S2(a,x) :- Operates(a,x).",
    )
    .expect("sources parse");
    let sources = CqViews::new(ViewSet::new(&schema, prog.defs));
    println!("source descriptions:\n{}\n", sources.as_view_set());

    // Query 1: two-stop connections — rewritable over S1 (compose it).
    let q1 = parse_query(
        &schema,
        &mut names,
        "Q(x,w) :- Flight(x,y), Flight(y,z), Flight(z,u), Flight(u,w).",
    )
    .unwrap()
    .as_cq()
    .unwrap()
    .clone();
    let out1 = decide_unrestricted(&sources, &q1);
    println!("Q1 (4-leg trips) determined: {}", out1.determined);
    println!("   plan over sources: {}\n", out1.rewriting.expect("rewritable").render("Plan"));

    // Query 2: direct flights — NOT determined by one-stop views.
    let q2 = parse_query(&schema, &mut names, "Q(x,y) :- Flight(x,y).")
        .unwrap()
        .as_cq()
        .unwrap()
        .clone();
    let out2 = decide_unrestricted(&sources, &q2);
    println!("Q2 (direct flights) determined: {}", out2.determined);
    assert!(!out2.determined);

    // Fall back to certain answers over the source extent.
    let global = parse_instance(
        &schema,
        &mut names,
        "Flight(SFO, DEN). Flight(DEN, JFK). Operates(Acme, SFO).",
    )
    .unwrap();
    let extent = apply_views(sources.as_view_set(), &global);
    println!("\nsource extent:\n{}\n", extent.render(&names));
    let cert = certain_sound(&sources, &q2, &extent);
    println!("certain direct flights from the sources alone: {cert}");
    println!(
        "(every one-stop connection proves *some* legs exist, but no specific leg is certain)"
    );
    assert!(cert.is_empty());

    // The chase still reconstructs a representative global database.
    let witness = chase_preimage(&sources, &extent);
    match witness {
        Some(d) => println!("\na representative global database:\n{}", d.render(&names)),
        None => println!(
            "\n(no exact preimage reconstructible by the chase — extent is a strict join image)"
        ),
    }

    // Sanity: the rewriting for Q1 gives the right answer on the extent.
    let plan = decide_unrestricted(&sources, &q1).rewriting.unwrap();
    assert_eq!(eval_cq(&q1, &global), eval_cq(&plan, &extent));
    println!("\n✓ Q1 answered exactly from the sources; Q2 degraded to certain answers");
}

//! Explore the Theorem 3.3 counterexample tower interactively.
//!
//! When the chase test refutes determinacy, the proof of Theorem 3.3
//! builds two chains of instances whose view images converge while the
//! query keeps them apart. This example materializes the chains for the
//! classic pair (2-path views vs. 3-path query) and prints each level,
//! machine-checking the Proposition 3.6 invariants along the way.
//!
//! ```sh
//! cargo run --example tower_explorer [levels]
//! ```

use vqd::chase::{CqViews, Tower};
use vqd::core::determinacy::unrestricted::decide_unrestricted;
use vqd::instance::{DomainNames, Schema};
use vqd::query::{parse_program, parse_query, ViewSet};

fn main() {
    let levels: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(3);

    let schema = Schema::new([("E", 2)]);
    let mut names = DomainNames::new();
    let prog = parse_program(&schema, &mut names, "V(x,y) :- E(x,z), E(z,y).").unwrap();
    let views = CqViews::new(ViewSet::new(&schema, prog.defs));
    let q = parse_query(&schema, &mut names, "Q(x,y) :- E(x,a), E(a,b), E(b,y).")
        .unwrap()
        .as_cq()
        .unwrap()
        .clone();

    println!("views:  {}", views.as_view_set());
    println!("query:  {}", q.render("Q"));
    let out = decide_unrestricted(&views, &q);
    println!("\nunrestricted determinacy: {}", out.determined);
    assert!(!out.determined, "the classic pair must fail the chase test");

    println!("\nbuilding the Theorem 3.3 tower to {levels} levels…\n");
    let mut tower = Tower::new(&views, &q);
    tower.grow_to(&views, levels + 1);
    for k in 0..levels {
        let inv = tower.check_invariants(k);
        let (in_d, in_dp) = tower.separation(&q, k);
        println!("── level {k} ──");
        println!("D_{k}  ({} tuples): {}", tower.d[k].total_tuples(), tower.d[k]);
        println!("D'_{k} ({} tuples): {}", tower.d_prime[k].total_tuples(), tower.d_prime[k]);
        println!("image gap |S_{k} \\ S'_{k}|: {}", tower.image_gap(k));
        println!("x̄ ∈ Q(D_{k}): {in_d}    x̄ ∈ Q(D'_{k}): {in_dp}");
        println!(
            "Proposition 3.6 invariants: {}",
            if inv.all_hold() { "all hold" } else { "VIOLATED" }
        );
        assert!(inv.all_hold());
        assert!(in_d && !in_dp);
        println!();
    }
    println!(
        "In the limit D_∞ = ∪D_k and D'_∞ = ∪D'_k have equal view images,\n\
         yet x̄ ∈ Q(D_∞) \\ Q(D'_∞): the views do not determine the query."
    );
}

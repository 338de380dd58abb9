//! Privacy auditing: verify that published views do **not** determine a
//! secret query (the paper's security motivation, "in reverse").
//!
//! A hospital publishes aggregate-ish views of an admissions database and
//! wants to be sure the views cannot reconstruct who was treated in the
//! psychiatric ward. Determinacy is exactly the wrong property to have
//! here — the auditor *wants* a refutation, and our checker produces a
//! concrete pair of databases the adversary cannot distinguish.
//!
//! ```sh
//! cargo run --example privacy_audit
//! ```

use vqd::core::determinacy::semantic::{check_exhaustive, SemanticVerdict};
use vqd::instance::{DomainNames, Schema};
use vqd::query::{parse_program, parse_query, ViewSet};

fn main() {
    // Treated(patient, ward); Staffed(doctor, ward).
    let schema = Schema::new([("Treated", 2), ("Staffed", 2)]);
    let mut names = DomainNames::new();

    // Published views: which wards are active (have some patient), and
    // which doctors work with some patient (join through the ward) — no
    // view mentions patients and wards together in the clear.
    let prog = parse_program(
        &schema,
        &mut names,
        "ActiveWard(w)   :- Treated(p, w).\n\
         SeenBy(p, d)    :- Treated(p, w), Staffed(d, w).\n\
         Roster(d, w)    :- Staffed(d, w).",
    )
    .expect("views parse");
    let views = ViewSet::new(&schema, prog.defs);
    println!("published views:\n{views}\n");

    // The secret: which patients were treated in which ward.
    let secret =
        parse_query(&schema, &mut names, "Secret(p, w) :- Treated(p, w).").expect("query parses");

    println!("auditing: do the published views determine the secret?");
    match check_exhaustive(&views, &secret, 3, 1 << 24) {
        SemanticVerdict::NotDetermined(cex) => {
            println!("✓ SAFE: the views do not determine the secret.\n");
            println!("indistinguishable pair (same view image, different secrets):");
            println!("--- world A ---\n{}", cex.d1);
            println!("--- world B ---\n{}", cex.d2);
            println!("--- common view image ---\n{}", cex.image);
            println!("\nsecret in world A: {}", cex.q1);
            println!("secret in world B: {}", cex.q2);
        }
        SemanticVerdict::NoCounterexampleUpTo(n) => {
            println!(
                "⚠ no leak witnessed with ≤ {n} individuals — the views may still \
                 determine the secret (finite determinacy is undecidable in general; \
                 rerun with a larger bound or restructure the views)"
            );
        }
        SemanticVerdict::TooLarge { domain, space } => {
            println!("search space too large at domain {domain}: {space:?}");
        }
        SemanticVerdict::Exhausted(e) => {
            println!("audit stopped by resource budget: {e}");
        }
    }

    // Contrast: a careless extra view that leaks.
    let prog2 = parse_program(
        &schema,
        &mut names,
        "ActiveWard(w)   :- Treated(p, w).\n\
         SeenBy(p, d)    :- Treated(p, w), Staffed(d, w).\n\
         Roster(d, w)    :- Staffed(d, w).\n\
         Oops(p, w)      :- Treated(p, w), Treated(p, v).",
    )
    .expect("views parse");
    let leaky = ViewSet::new(&schema, prog2.defs);
    println!("\nre-auditing with the extra view `Oops(p,w) :- Treated(p,w), Treated(p,v).`");
    match check_exhaustive(&leaky, &secret, 3, 1 << 24) {
        SemanticVerdict::NotDetermined(_) => {
            println!("✓ still safe (unexpectedly)");
        }
        _ => {
            println!("✗ LEAK: no distinguishing pair exists — `Oops` is the secret itself");
        }
    }
}

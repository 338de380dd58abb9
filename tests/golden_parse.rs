//! Golden corpus for the text parser.
//!
//! Two things about the parser are contracts other layers rely on, and
//! this table pins both:
//!
//! * the exact `ParseError` Display string (message, line and column) a
//!   malformed input produces — clients see these verbatim in `parse`
//!   error replies;
//! * the order in which `parse_instance` and `parse_query` intern new
//!   constants into a pre-seeded [`DomainNames`] table: first occurrence
//!   wins. Handle fingerprints and the server's derived cache keys
//!   depend on that interning being deterministic.
//!
//! The table lives in `tests/golden/parse.txt`. To regenerate it after
//! an intended change, run
//!
//! ```text
//! VQD_GOLDEN_RECORD=1 cargo test --test golden_parse
//! ```

use std::fmt::Write as _;
use vqd::instance::{named, DomainNames, Schema};
use vqd::query::{parse_instance, parse_program, parse_query};

const TABLE: &str = "tests/golden/parse.txt";

fn schema() -> Schema {
    Schema::new([("R", 2), ("P", 1), ("T", 3), ("p0", 0)])
}

/// Malformed (and a few well-formed) instance texts.
const INSTANCES: &[&str] = &[
    // Unknown relation.
    "Z(A).",
    "R(A,B). Zz(C).",
    // Arity mismatch.
    "R(A).",
    "P(A,B).",
    "T(A,B).",
    "p0(A).",
    // Non-ground facts.
    "P(x).",
    "R(A,y).",
    "R(A,B). T(A,_b,C).",
    // Bad characters.
    "P(A) ; P(B).",
    "P(@).",
    "R(A,B).\n  P(#).",
    "P(A).\r\nP(\u{e9}).",
    // A lone colon, and the other half-operators.
    "P(A) : P(B).",
    "P(A). :",
    "P(A) - P(B).",
    "P(A) <- P(B).",
    "P(A) <-",
    // Truncated input.
    "P(A",
    "R(A,",
    "R(A,B)",
    "R(",
    "R",
    "",
    "   % only a comment",
    // Structural errors.
    "P(A)) .",
    "P A.",
    "(A).",
    "P(A) P(B).",
    "P(A),",
    "R(A,,B).",
    // Well-formed, including numbers and primes.
    "R(A,B). P(1). p0(). T(X',Y_1,007).",
];

/// Malformed query and program texts.
const QUERIES: &[&str] = &[
    "Q(x) :- Z(x).",
    "Q(x) :- R(x).",
    "Q(x) := R(x,y).",
    "Q(x) :- R(x,y)",
    "Q(x) :- R(x,y) P(y).",
    "Q(x) : R(x,y).",
    "Q(x) :- R(x,@).",
    "Q(x) :- x.",
    "Q(x) :- x = .",
    "Q(x, A) := P(x).",
    "Q(x) := forall . P(x).",
    "Q(x) := forall A. P(x).",
    "Q(x) := (P(x).",
    "Q(x) := P(x) <- P(x).",
    "Q(x) :- P(x).\nQ2(x) :- P(x).",
    "Q(",
    "",
];

fn record_errors(out: &mut String) {
    let s = schema();
    for src in INSTANCES {
        let mut names = DomainNames::new();
        let outcome = match parse_instance(&s, &mut names, src) {
            Ok(d) => format!("ok {} tuples", d.total_tuples()),
            Err(e) => e.to_string(),
        };
        let _ = writeln!(out, "instance {src:?} => {outcome}");
    }
    for src in QUERIES {
        let mut names = DomainNames::new();
        let outcome = match parse_query(&s, &mut names, src) {
            Ok(q) => format!("ok arity {}", q.arity()),
            Err(e) => e.to_string(),
        };
        let _ = writeln!(out, "query {src:?} => {outcome}");
    }
}

fn table_order(names: &DomainNames) -> String {
    (0..names.len() as u32)
        .map(|i| names.name_of(named(i)).unwrap_or("?").to_owned())
        .collect::<Vec<_>>()
        .join(" ")
}

fn record_interning(out: &mut String) {
    let s = schema();
    let mut names = DomainNames::new();
    for seed in ["B", "Z", "7"] {
        names.intern(seed);
    }
    let _ = writeln!(out, "seeded: {}", table_order(&names));
    let extents = [
        "R(A,B). R(C,A). P(1). P(Z). T(D,C,E).",
        "P(F). R(E,G). R(G,F).",
        "% repeats only\nR(A,B). P(Z).",
        "T(H',I_2,010). P(J).",
    ];
    for src in extents {
        let d = parse_instance(&s, &mut names, src).expect("well-formed extent");
        let _ = writeln!(out, "after instance {src:?}: {}", table_order(&names));
        let _ = writeln!(out, "  tuples {d}");
    }
    let q = parse_query(&s, &mut names, "Q(x, K) :- R(x, L), P(A), x != M.").expect("query");
    let _ = writeln!(out, "after query: {} ({})", table_order(&names), q.arity());
    let prog =
        parse_program(&s, &mut names, "V1(x) :- R(x, N).\nV2(y) :- P(y), y = O.").expect("program");
    let _ = writeln!(out, "after program: {} ({} defs)", table_order(&names), prog.defs.len());
    // A failing parse may still have interned the constants it read
    // before the error: pin that too.
    let err = parse_instance(&s, &mut names, "P(Q1). R(Q2, y).").unwrap_err();
    let _ = writeln!(out, "after failed instance: {} ({err})", table_order(&names));
}

fn corpus() -> String {
    let mut out = String::new();
    record_errors(&mut out);
    record_interning(&mut out);
    out
}

#[test]
fn parser_matches_the_golden_corpus() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(TABLE);
    let actual = corpus();
    if std::env::var_os("VQD_GOLDEN_RECORD").is_some() {
        std::fs::create_dir_all(path.parent().expect("table dir")).expect("create golden dir");
        std::fs::write(&path, &actual).expect("write golden table");
        return;
    }
    let expected = std::fs::read_to_string(&path).expect("golden table is checked in");
    for (line, (want, got)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(got, want, "parser corpus diverges at line {}", line + 1);
    }
    assert_eq!(actual.lines().count(), expected.lines().count(), "corpus length differs");
}

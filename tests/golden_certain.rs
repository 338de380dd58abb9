//! Golden corpus for sound-view certain answers.
//!
//! About 150 seeded `(views, query, extent)` triples, written as source
//! text and parsed the way the server parses a request: views, then the
//! query, then the extent, all into one [`DomainNames`]. Each triple is
//! answered at engine widths 1, 2 and 3 through
//! `canonical_database_budgeted` + `certain_from_canonical`, and the
//! table records the rendered answers, the `CertainTuplesChecked` /
//! `CertainAnswersKept` deltas, the budget steps, the relation
//! `eval_cq` evaluates on the chased database (nulls included), and
//! the `partial` text of a step-limit trip placed halfway through the
//! null filter. The generator covers constants in views and queries,
//! zero-ary heads, heads of arity five and six, and evaluations where
//! labelled nulls sort among constants.
//!
//! The table lives in `tests/golden/certain.txt`. To regenerate it
//! after an intended change, run
//!
//! ```text
//! VQD_GOLDEN_RECORD=1 cargo test --test golden_certain
//! ```

use std::fmt::Write as _;
use vqd::budget::{Budget, VqdError};
use vqd::chase::CqViews;
use vqd::core::certain::{canonical_database_budgeted, certain_from_canonical};
use vqd::eval::eval_cq;
use vqd::exec::ExecCtx;
use vqd::instance::{DomainNames, Schema};
use vqd::obs::{local_snapshot, Metric};
use vqd::query::{parse_instance, parse_program, parse_query, ViewSet};

const CASES: usize = 150;
const WIDTHS: [usize; 3] = [1, 2, 3];
const TABLE: &str = "tests/golden/certain.txt";
const BASE: [(&str, usize); 3] = [("E", 2), ("P", 1), ("T", 3)];
/// Constant spellings; integers and multi-letter names intern like any
/// other constant.
const CONSTS: [&str; 8] = ["A", "B", "N5", "C", "7", "D", "N7", "K"];

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

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len() as u64) as usize]
    }
}

/// The shape of one generated rule.
struct Shape {
    atoms: u64,
    /// Body variables are drawn from `x0..x{pool}`, so they repeat.
    pool: u64,
    arity: usize,
    const_pct: u64,
}

/// One rule `name(head) :- body.` over `rels`: `const_pct` of the body
/// terms are constants from `domain`. The head draws `arity` terms from
/// the variables the body used (with repetition), occasionally a
/// constant; the head terms are returned next to the rule text.
fn rule(
    rng: &mut Rng,
    name: &str,
    rels: &[(&'static str, usize)],
    domain: &[&str],
    shape: Shape,
) -> (String, Vec<String>) {
    let Shape { atoms, pool, arity, const_pct } = shape;
    let mut used: Vec<String> = Vec::new();
    let mut body = Vec::new();
    for _ in 0..atoms {
        let (rel, rel_arity) = rels[rng.below(rels.len() as u64) as usize];
        let args: Vec<String> = (0..rel_arity)
            .map(|_| {
                if rng.chance(const_pct) {
                    rng.pick(domain).to_owned()
                } else {
                    let v = format!("x{}", rng.below(pool));
                    if !used.contains(&v) {
                        used.push(v.clone());
                    }
                    v
                }
            })
            .collect();
        body.push(format!("{rel}({})", args.join(",")));
    }
    if used.is_empty() {
        // An all-constant body still needs a variable for a safe head.
        used.push("x0".to_owned());
        body.push("P(x0)".to_owned());
    }
    let head: Vec<String> = (0..arity)
        .map(|_| {
            if rng.chance(8) {
                rng.pick(domain).to_owned()
            } else {
                used[rng.below(used.len() as u64) as usize].clone()
            }
        })
        .collect();
    (format!("{name}({}) :- {}.", head.join(","), body.join(", ")), head)
}

struct Triple {
    views: String,
    query: String,
    extent: String,
}

fn triple(rng: &mut Rng) -> Triple {
    let domain = &CONSTS[..2 + rng.below(6) as usize];
    let n_views = 1 + rng.below(3);
    let mut views = Vec::new();
    let mut heads = Vec::new();
    for i in 0..n_views {
        let arity = rng.below(4) as usize;
        let atoms = 1 + rng.below(3);
        let (text, head) = rule(
            rng,
            &format!("V{i}"),
            &BASE,
            domain,
            Shape { atoms, pool: 4, arity, const_pct: 10 },
        );
        views.push(text);
        heads.push(head);
    }
    let arity = match rng.below(10) {
        0 => 0,
        1 => 5,
        2 => 6,
        n => (n as usize - 2).min(4),
    };
    // The query joins relations the views expose, so most triples have
    // answers to filter.
    let exposed: Vec<(&str, usize)> = BASE
        .into_iter()
        .filter(|(rel, _)| views.iter().any(|v| v.contains(&format!(" {rel}("))))
        .collect();
    let atoms = 1 + rng.below(3);
    let (query, _) =
        rule(rng, "Q", &exposed, domain, Shape { atoms, pool: 5, arity, const_pct: 12 });
    // Facts the views can produce: a head constant stays itself and a
    // repeated head variable repeats its value.
    let mut facts = Vec::new();
    for (i, head) in heads.iter().enumerate() {
        for _ in 0..2 + rng.below(11) {
            let mut bound: Vec<(&str, &str)> = Vec::new();
            let args: Vec<&str> = head
                .iter()
                .map(|term| {
                    if !term.starts_with('x') {
                        return term.as_str();
                    }
                    if let Some(&(_, v)) = bound.iter().find(|(var, _)| var == term) {
                        return v;
                    }
                    let v = rng.pick(domain);
                    bound.push((term, v));
                    v
                })
                .collect();
            facts.push(format!("V{i}({}).", args.join(",")));
        }
    }
    Triple { views: views.join("\n"), query, extent: facts.join(" ") }
}

fn deltas_since(before: &vqd::obs::MetricsSnapshot) -> (u64, u64) {
    let d = local_snapshot().diff(before);
    (d.get(Metric::CertainTuplesChecked), d.get(Metric::CertainAnswersKept))
}

fn record_case(out: &mut String, case: usize, rng: &mut Rng) {
    let t = triple(rng);
    let _ = writeln!(out, "case {case}");
    let _ = writeln!(out, "  views {}", t.views.replace('\n', " "));
    let _ = writeln!(out, "  query {}", t.query);
    let _ = writeln!(out, "  extent {}", t.extent);
    let schema = Schema::new(BASE);
    let mut names = DomainNames::new();
    let prog = match parse_program(&schema, &mut names, &t.views) {
        Ok(p) => p,
        Err(e) => {
            let _ = writeln!(out, "  views error: {e}");
            return;
        }
    };
    let views = match CqViews::try_new(ViewSet::new(&schema, prog.defs)) {
        Ok(v) => v,
        Err(e) => {
            let _ = writeln!(out, "  views error: {e}");
            return;
        }
    };
    let q = match parse_query(&schema, &mut names, &t.query) {
        Ok(q) => q.as_cq().expect("generated queries are CQs").clone(),
        Err(e) => {
            let _ = writeln!(out, "  query error: {e}");
            return;
        }
    };
    let extent = match parse_instance(views.as_view_set().output_schema(), &mut names, &t.extent) {
        Ok(i) => i,
        Err(e) => {
            let _ = writeln!(out, "  extent error: {e}");
            return;
        }
    };
    for width in WIDTHS {
        let cx = ExecCtx::with_parallelism(Budget::unlimited(), width);
        let before = local_snapshot();
        let chased = canonical_database_budgeted(&views, &extent, &cx).expect("unlimited chase");
        if width == 1 {
            let _ = writeln!(out, "  eval {}", eval_cq(&q, &chased).render(&names));
        }
        let answers = certain_from_canonical(&q, &chased, &cx).expect("unlimited filter");
        let (checked, kept) = deltas_since(&before);
        let steps = cx.budget().steps();
        let _ = writeln!(
            out,
            "  width {width}: {} checked={checked} kept={kept} steps={steps}",
            answers.render(&names)
        );
        if checked == 0 {
            continue;
        }
        // Trip at the checkpoint of the middle evaluated tuple: the
        // filter spends exactly one step per evaluated tuple.
        let limit = steps - checked + checked / 2;
        let cx = ExecCtx::with_parallelism(Budget::unlimited().with_step_limit(limit), width);
        let tripped = canonical_database_budgeted(&views, &extent, &cx)
            .and_then(|chased| certain_from_canonical(&q, &chased, &cx));
        match tripped {
            Err(VqdError::Exhausted(ex)) => {
                let _ = writeln!(
                    out,
                    "    trip limit={limit}: {} steps={} partial={:?}",
                    ex.reason, ex.work_done.steps, ex.partial
                );
            }
            other => {
                let _ = writeln!(out, "    trip limit={limit}: no trip {other:?}");
            }
        }
    }
}

fn corpus() -> String {
    let mut out = String::new();
    let mut rng = Rng(0x5eed_0000_0000_0013);
    for case in 0..CASES {
        record_case(&mut out, case, &mut rng);
    }
    out
}

#[test]
fn certain_answers_match_the_golden_corpus() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(TABLE);
    let actual = corpus();
    if std::env::var_os("VQD_GOLDEN_RECORD").is_some() {
        std::fs::create_dir_all(path.parent().expect("table dir")).expect("create golden dir");
        std::fs::write(&path, &actual).expect("write golden table");
        return;
    }
    let expected = std::fs::read_to_string(&path).expect("golden table is checked in");
    if actual != expected {
        let (line, (want, got)) = expected
            .lines()
            .zip(actual.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .unwrap_or((0, ("<length differs>", "<length differs>")));
        panic!("certain corpus diverges at line {}:\n  want: {want}\n  got:  {got}", line + 1);
    }
}

#[test]
fn corpus_covers_the_required_shapes() {
    // Guards the generator itself: the seeded cases must keep hitting
    // every shape the corpus exists to pin.
    let table = corpus();
    let queries: Vec<&str> = table.lines().filter_map(|l| l.strip_prefix("  query ")).collect();
    let head_arity = |q: &str| {
        let head = &q[2..q.find(')').expect("head")];
        if head.is_empty() {
            0
        } else {
            head.split(',').count()
        }
    };
    assert!(queries.iter().any(|q| head_arity(q) == 0), "corpus lacks a zero-ary head");
    assert!(queries.iter().any(|q| head_arity(q) >= 5), "corpus lacks a head of arity >= 5");
    let has_const = |src: &str| {
        CONSTS.iter().any(|c| src.contains(&format!("({c}")) || src.contains(&format!(",{c}")))
    };
    assert!(queries.iter().any(|q| has_const(q)), "corpus lacks a query constant");
    assert!(
        table.lines().filter_map(|l| l.strip_prefix("  views ")).any(has_const),
        "corpus lacks a view constant"
    );
    // Nulls sorting among constants: an evaluated relation whose sorted
    // tuples put a null before a later tuple's constant in one column.
    assert!(
        table.lines().filter_map(|l| l.strip_prefix("  eval ")).any(|r| r.contains("_n")
            && r.matches('(').count() > 1
            && r.rfind("_n") < r.rfind(|c: char| c.is_ascii_uppercase())),
        "corpus lacks nulls sorting among constants"
    );
    assert!(table.contains("    trip limit="), "corpus lacks a mid-filter trip");
    assert!(table.contains("partial=\"filtering certain answers"), "trips must land in the filter");
    assert!(table.matches("\ncase ").count() + 1 == CASES);
}

//! Golden corpus for the view-inverse chase `V_D^{-1}(S')`.
//!
//! About 150 seeded `(views, base, extent)` cases, written as source
//! text and parsed into one [`DomainNames`]. Each case is chased
//! through `v_inverse_indexed`, and the table records the rendered
//! chased instance, the arena (`scan`) order of every relation, the
//! next null label, the chase / index / arena counter deltas, the
//! budget steps and tuples, and the `partial` text (plus the next null
//! label) of a step-limit trip and of a tuple-limit trip, each placed
//! halfway through the chase.
//!
//! The generator covers constants in view heads and bodies, repeated
//! body atoms, multi-relation bodies, Boolean views, relations of arity
//! five and six (past the arena's inline cap), null generators that do
//! not start at zero, and non-empty bases whose view image already
//! holds some of the extent's tuples (those tuples must not trigger).
//!
//! The table lives in `tests/golden/chase.txt`. To regenerate it after
//! an intended change, run
//!
//! ```text
//! VQD_GOLDEN_RECORD=1 cargo test --test golden_chase
//! ```

use std::fmt::Write as _;
use vqd::budget::{Budget, VqdError};
use vqd::chase::{v_inverse_indexed, CqViews};
use vqd::instance::{DomainNames, IndexedInstance, Instance, NullGen, Schema};
use vqd::obs::{local_snapshot, Metric, MetricsSnapshot};
use vqd::query::{parse_instance, parse_program, ViewSet};

const CASES: usize = 150;
const TABLE: &str = "tests/golden/chase.txt";
const BASE: [(&str, usize); 5] = [("E", 2), ("P", 1), ("T", 3), ("W", 5), ("U", 6)];
const CONSTS: [&str; 7] = ["A", "B", "N5", "C", "7", "D", "K"];
/// The counters one chase moves, in table order.
const COUNTERS: [(Metric, &str); 7] = [
    (Metric::ChaseRounds, "rounds"),
    (Metric::ChaseTriggersFired, "triggers"),
    (Metric::ChaseNullsCreated, "nulls_created"),
    (Metric::IndexBuilds, "builds"),
    (Metric::IndexDeltaTuples, "delta"),
    (Metric::TupleInline, "inline"),
    (Metric::TupleSpilled, "spilled"),
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

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len() as u64) as usize]
    }
}

/// One view `name(head) :- body.`: body terms are constants from
/// `domain` or variables from `x0..x3`, an atom is sometimes repeated
/// verbatim, and the head draws from the body's variables (with
/// repetition) or, now and then, a constant. Returns the rule text and
/// its head terms.
fn view(rng: &mut Rng, name: &str, domain: &[&str]) -> (String, Vec<String>) {
    let mut used: Vec<String> = Vec::new();
    let mut body: Vec<String> = Vec::new();
    for _ in 0..1 + rng.below(3) {
        if !body.is_empty() && rng.chance(15) {
            let again = body[rng.below(body.len() as u64) as usize].clone();
            body.push(again);
            continue;
        }
        // Wide relations are rarer, so most bodies stay small.
        let (rel, arity) = match rng.below(10) {
            0 => BASE[3],
            1 => BASE[4],
            n => BASE[(n % 3) as usize],
        };
        let args: Vec<String> = (0..arity)
            .map(|_| {
                if rng.chance(12) {
                    rng.pick(domain).to_owned()
                } else {
                    let v = format!("x{}", rng.below(4));
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
        used.push("x0".to_owned());
        body.push("P(x0)".to_owned());
    }
    let arity = match rng.below(8) {
        0 => 0,
        n => (n as usize).min(4),
    };
    let head: Vec<String> = (0..arity)
        .map(|_| {
            if rng.chance(10) {
                rng.pick(domain).to_owned()
            } else {
                used[rng.below(used.len() as u64) as usize].clone()
            }
        })
        .collect();
    (
        format!("{name}({}) :- {}.", head.join(","), body.join(", ")),
        head,
    )
}

struct Case {
    views: String,
    base: String,
    extent: String,
    /// Keep every other tuple of `V(base)` in the extent.
    keep_image: bool,
    first_null: u32,
}

fn case(rng: &mut Rng) -> Case {
    let domain = &CONSTS[..2 + rng.below(6) as usize];
    let mut views = Vec::new();
    let mut facts = Vec::new();
    for i in 0..1 + rng.below(3) {
        let (text, head) = view(rng, &format!("V{i}"), domain);
        views.push(text);
        // Facts the view can produce: a head constant stays itself and
        // a repeated head variable repeats its value.
        for _ in 0..1 + rng.below(8) {
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
    let mut base = Vec::new();
    if rng.chance(40) {
        for _ in 0..2 + rng.below(10) {
            let (rel, arity) = BASE[rng.below(3) as usize];
            let args: Vec<&str> = (0..arity).map(|_| rng.pick(domain)).collect();
            base.push(format!("{rel}({}).", args.join(",")));
        }
    }
    let keep_image = !base.is_empty() && rng.chance(75);
    let first_null = if rng.chance(25) { 1 + rng.below(40) as u32 } else { 0 };
    Case {
        views: views.join("\n"),
        base: base.join(" "),
        extent: facts.join(" "),
        keep_image,
        first_null,
    }
}

fn counter_line(before: &MetricsSnapshot) -> String {
    let d = local_snapshot().diff(before);
    COUNTERS
        .iter()
        .map(|&(m, label)| format!("{label}={}", d.get(m)))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Every relation's tuples in arena order, values rendered by name.
fn scan_order(chased: &IndexedInstance, names: &DomainNames) -> String {
    let mut out = String::new();
    for (rel, decl) in chased.instance().schema().iter() {
        let tuples = chased.scan(rel);
        if tuples.is_empty() {
            continue;
        }
        let _ = write!(out, " {}[", decl.name);
        for (i, t) in tuples.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            let vals: Vec<String> = t.iter().map(|&v| names.render(v)).collect();
            let _ = write!(out, "({})", vals.join(","));
        }
        out.push(']');
    }
    out
}

/// One parsed case, ready to chase.
struct Inputs {
    views: CqViews,
    base: Instance,
    extent: Instance,
    first_null: u32,
}

impl Inputs {
    /// Chases under `budget`; returns the result and the null generator.
    fn chase(&self, budget: &Budget) -> (Result<IndexedInstance, VqdError>, NullGen) {
        let mut nulls = NullGen::starting_at(self.first_null);
        let out = v_inverse_indexed(&self.views, &self.base, &self.extent, &mut nulls, budget);
        (out, nulls)
    }
}

fn trip_line(out: &mut String, label: &str, limit: u64, budget: Budget, inputs: &Inputs) {
    match inputs.chase(&budget) {
        (Err(VqdError::Exhausted(ex)), nulls) => {
            let _ = writeln!(
                out,
                "    {label} trip limit={limit}: {} steps={} tuples={} next_null={} partial={:?}",
                ex.reason,
                ex.work_done.steps,
                ex.work_done.tuples,
                nulls.peek(),
                ex.partial
            );
        }
        (other, _) => {
            let _ = writeln!(out, "    {label} trip limit={limit}: no trip {:?}", other.err());
        }
    }
}

fn record_case(out: &mut String, n: usize, rng: &mut Rng) {
    let c = case(rng);
    let _ = writeln!(out, "case {n}");
    let _ = writeln!(out, "  views {}", c.views.replace('\n', " "));
    let schema = Schema::new(BASE);
    let mut names = DomainNames::new();
    let prog = match parse_program(&schema, &mut names, &c.views) {
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
    let base = parse_instance(&schema, &mut names, &c.base).expect("generated base parses");
    let mut extent = parse_instance(views.as_view_set().output_schema(), &mut names, &c.extent)
        .expect("generated extent parses");
    if c.keep_image {
        let image = views.apply(&base);
        for (rel, r) in image.iter() {
            for t in r.iter().step_by(2) {
                extent.insert(rel, t.clone());
            }
        }
    }
    if !base.is_empty() {
        let _ = writeln!(out, "  base {}", base.render(&names).replace('\n', "; "));
    }
    let _ = writeln!(out, "  extent {}", extent.render(&names).replace('\n', "; "));
    let _ = writeln!(out, "  first_null {}", c.first_null);

    let inputs = Inputs {
        views,
        base,
        extent,
        first_null: c.first_null,
    };
    let budget = Budget::unlimited();
    let before = local_snapshot();
    let (chased, nulls) = inputs.chase(&budget);
    let chased = chased.expect("unlimited chase of producible tuples");
    let counters = counter_line(&before);
    let _ = writeln!(
        out,
        "  chased {}",
        chased.instance().render(&names).replace('\n', "; ")
    );
    let _ = writeln!(out, "  scan{}", scan_order(&chased, &names));
    let (steps, tuples) = (budget.steps(), budget.tuples());
    let _ = writeln!(
        out,
        "  next_null={} {counters} steps={steps} tuples={tuples}",
        nulls.peek()
    );
    if steps >= 2 {
        let limit = steps / 2;
        let budget = Budget::unlimited().with_step_limit(limit);
        trip_line(out, "step", limit, budget, &inputs);
    }
    if tuples >= 2 {
        let limit = tuples / 2;
        let budget = Budget::unlimited().with_tuple_limit(limit);
        trip_line(out, "tuple", limit, budget, &inputs);
    }
}

fn corpus() -> String {
    let mut out = String::new();
    let mut rng = Rng(0x5eed_0000_0000_0014);
    for n in 0..CASES {
        record_case(&mut out, n, &mut rng);
    }
    out
}

#[test]
fn chase_matches_the_golden_corpus() {
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
        panic!(
            "chase corpus diverges at line {}:\n  want: {want}\n  got:  {got}",
            line + 1
        );
    }
}

#[test]
fn corpus_covers_the_required_shapes() {
    // Guards the generator itself: the seeded cases must keep hitting
    // every shape the corpus exists to pin.
    let table = corpus();
    let views: Vec<&str> = table
        .lines()
        .filter_map(|l| l.strip_prefix("  views "))
        .collect();
    let rules = || views.iter().flat_map(|v| v.split(". ")).map(|r| r.trim_end_matches('.'));
    let has_const = |src: &str| {
        CONSTS
            .iter()
            .any(|c| src.contains(&format!("({c}")) || src.contains(&format!(",{c}")))
    };
    assert!(
        rules().any(|r| has_const(r.split(" :- ").next().expect("head"))),
        "corpus lacks a head constant"
    );
    assert!(
        rules().any(|r| has_const(r.split(" :- ").nth(1).expect("body"))),
        "corpus lacks a body constant"
    );
    assert!(
        rules().any(|r| {
            let atoms: Vec<&str> = r.split(" :- ").nth(1).expect("body").split("), ").collect();
            atoms.iter().enumerate().any(|(i, a)| atoms[..i].contains(a))
        }),
        "corpus lacks a repeated body atom"
    );
    assert!(
        rules().any(|r| {
            let body = r.split(" :- ").nth(1).expect("body");
            let first = &body[..1];
            body.split(", ").any(|a| !a.starts_with(first))
        }),
        "corpus lacks a multi-relation body"
    );
    assert!(rules().any(|r| r.contains("() :- ")), "corpus lacks a Boolean view");
    assert!(rules().any(|r| r.contains(" W(")), "corpus lacks an arity-5 atom");
    assert!(rules().any(|r| r.contains(" U(")), "corpus lacks an arity-6 atom");
    assert!(
        table.lines().any(|l| l.contains(" spilled=") && !l.contains(" spilled=0 ")),
        "corpus lacks spilled arena tuples"
    );
    assert!(
        table.lines().any(|l| l.starts_with("  first_null ") && l != "  first_null 0"),
        "corpus lacks a null generator past zero"
    );
    // A non-empty base whose image already holds an extent tuple: the
    // case chases fewer tuples than its extent lists.
    let blocks: Vec<&str> = table.split("\ncase ").collect();
    assert!(
        blocks.iter().any(|b| {
            let extent = b
                .lines()
                .find_map(|l| l.strip_prefix("  extent "))
                .unwrap_or("");
            let listed = extent.matches('(').count() + extent.matches("= true").count();
            let fired = b
                .split(" triggers=")
                .nth(1)
                .and_then(|s| s.split(' ').next())
                .and_then(|s| s.parse::<usize>().ok());
            b.contains("\n  base ") && fired.is_some_and(|f| f < listed)
        }),
        "corpus lacks a base whose image holds extent tuples"
    );
    assert!(table.contains("    step trip limit="), "corpus lacks a step trip");
    assert!(table.contains("    tuple trip limit="), "corpus lacks a tuple trip");
    assert!(
        table.contains(": step limit reached") && table.contains(": tuple limit reached"),
        "trips must land mid-chase"
    );
    assert!(!table.contains("no trip"), "every placed trip must fire");
    assert_eq!(blocks.len(), CASES);
}

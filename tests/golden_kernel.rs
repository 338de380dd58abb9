//! Golden corpus for the homomorphism kernel.
//!
//! About 200 seeded `(pattern, instance)` pairs, each run under one
//! atom ordering, an optional non-empty `fixed` assignment and a shard
//! stride of 1–4. For every shard the table records the number of
//! homomorphisms, the `HomCandidatesTried`/`HomBacktracks`/`HomPruneHits`
//! deltas of the search, the relation `eval_cq_sharded` evaluates, and
//! the first homomorphism `find_hom` returns with its own deltas. The
//! corpus pins the search tree itself: any change to atom selection,
//! candidate order or counter accounting shows up as a diff.
//!
//! The table lives in `tests/golden/kernel.txt`. To regenerate it after
//! an intended change, run
//!
//! ```text
//! VQD_GOLDEN_RECORD=1 cargo test --test golden_kernel
//! ```

use std::fmt::Write as _;
use vqd::eval::{eval_cq_sharded, find_hom, for_each_hom_sharded, Assignment, Ordering};
use vqd::instance::{named, null, IndexedInstance, Instance, Schema, Value};
use vqd::obs::{local_snapshot, Metric};
use vqd::query::{Cq, Term, VarId};

const CASES: usize = 200;
const TABLE: &str = "tests/golden/kernel.txt";

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
}

const RELS: [(&str, usize); 3] = [("E", 2), ("P", 1), ("T", 3)];

fn schema() -> Schema {
    Schema::new(RELS)
}

fn value(rng: &mut Rng, domain: u64) -> Value {
    // Mostly named constants, with some labelled nulls so the posting
    // maps hold both flavours.
    let i = rng.below(domain) as u32;
    if rng.chance(15) {
        null(i)
    } else {
        named(i)
    }
}

fn instance(rng: &mut Rng, domain: u64) -> Instance {
    let s = schema();
    let mut d = Instance::empty(&s);
    for (name, arity) in RELS {
        let max = match arity {
            1 => 6,
            2 => 18,
            _ => 10,
        };
        for _ in 0..rng.below(max + 1) {
            let t: Vec<Value> = (0..arity).map(|_| value(rng, domain)).collect();
            d.insert_named(name, t);
        }
    }
    d
}

/// A random pattern over a small variable pool (so variables repeat
/// within and across atoms), with occasional constants; the head is a
/// subset of the body variables, so `eval_cq` accepts it.
fn pattern(rng: &mut Rng, domain: u64) -> Cq {
    let s = schema();
    let mut q = Cq::new(&s);
    let pool = 1 + rng.below(5) as usize;
    let vars: Vec<VarId> = (0..pool).map(|i| q.var(&format!("x{i}"))).collect();
    let atoms = rng.below(5);
    let mut used = Vec::new();
    for _ in 0..atoms {
        let (name, arity) = RELS[rng.below(RELS.len() as u64) as usize];
        let args: Vec<Term> = (0..arity)
            .map(|_| {
                if rng.chance(15) {
                    Term::Const(named(rng.below(domain) as u32))
                } else {
                    let v = vars[rng.below(pool as u64) as usize];
                    if !used.contains(&v) {
                        used.push(v);
                    }
                    Term::Var(v)
                }
            })
            .collect();
        q.atom(name, args);
    }
    q.head = used.iter().filter(|_| rng.chance(60)).map(|&v| Term::Var(v)).collect();
    q
}

fn counters_since(before: &vqd::obs::MetricsSnapshot) -> String {
    let d = local_snapshot().diff(before);
    format!(
        "cand={} bt={} prune={}",
        d.get(Metric::HomCandidatesTried),
        d.get(Metric::HomBacktracks),
        d.get(Metric::HomPruneHits)
    )
}

fn record_case(out: &mut String, case: usize, rng: &mut Rng) {
    let domain = 2 + rng.below(6);
    let d = instance(rng, domain);
    let q = pattern(rng, domain);
    let ordering = if rng.chance(50) { Ordering::MostConstrained } else { Ordering::Static };
    let mut fixed = Assignment::new();
    if rng.chance(30) {
        // Fix a pool variable (possibly one the body never mentions).
        fixed.insert(VarId(rng.below(5) as u32), value(rng, domain));
    }
    let shards = 1 + rng.below(4) as usize;
    let index = IndexedInstance::from_instance(&d);
    let _ = writeln!(out, "case {case}: {ordering:?} shards={shards} fixed={fixed:?}");
    let _ = writeln!(out, "  pattern {:?}", q.atoms);
    let _ = writeln!(out, "  head {:?}", q.head);
    let _ = writeln!(out, "  instance {}", d.to_string().replace('\n', " ; "));
    for shard in 0..shards {
        let before = local_snapshot();
        let mut homs = 0u64;
        for_each_hom_sharded(&q.atoms, &index, &fixed, ordering, shard, shards, |_| {
            homs += 1;
            true
        });
        let search = counters_since(&before);
        let before = local_snapshot();
        let evaluated = eval_cq_sharded(&q, &index, shard, shards);
        let eval = counters_since(&before);
        let _ = writeln!(out, "  shard {shard}: homs={homs} {search}");
        let _ = writeln!(out, "    eval {evaluated} {eval}");
    }
    let before = local_snapshot();
    let first = find_hom(&q.atoms, &index, &fixed);
    let _ = writeln!(out, "  find {first:?} {}", counters_since(&before));
}

fn corpus() -> String {
    let mut out = String::new();
    let mut rng = Rng(0x5eed_0000_0000_0012);
    for case in 0..CASES {
        record_case(&mut out, case, &mut rng);
    }
    out
}

#[test]
fn kernel_matches_the_golden_corpus() {
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
        panic!("kernel corpus diverges at line {}:\n  want: {want}\n  got:  {got}", line + 1);
    }
}

#[test]
fn corpus_covers_the_required_shapes() {
    // Guards the generator itself: the seeded cases must keep hitting
    // every shape the corpus exists to pin.
    let table = corpus();
    for needle in [
        "MostConstrained",
        "Static",
        "fixed={VarId(",
        "fixed={}",
        "Const(",
        "pattern []",
        "shards=1",
        "shards=2",
        "shards=3",
        "shards=4",
        "Null(",
    ] {
        assert!(table.contains(needle), "corpus lacks {needle}");
    }
    // Repeated variables: some atom mentions one variable twice.
    assert!(
        table.lines().filter(|l| l.starts_with("  pattern")).any(|l| {
            l.split("Atom").skip(1).any(|atom| {
                let vars: Vec<&str> = atom.split("Var(VarId(").skip(1).map(|s| &s[..1]).collect();
                (1..vars.len()).any(|i| vars[..i].contains(&vars[i]))
            })
        }),
        "corpus lacks a repeated variable"
    );
}

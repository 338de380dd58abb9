//! engine-batch: in-process library calls on one thread, no server. An
//! engine gain shows here and in the served workloads; a serving-layer
//! gain (event loop, protocol, worker pool) shows no change here.

use crate::gen::{
    is_light, path_rule, random_pair, random_rule, Deck, CERTAIN_VIEWS, HOT_QUERIES, POOL_SEED,
};
use crate::trace::Tracer;
use crate::workload::Scale;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::Arc;
use vqd_budget::Budget;
use vqd_chase::CqViews;
use vqd_core::certain::{canonical_database_budgeted, certain_from_canonical};
use vqd_core::determinacy::{check_exhaustive_ctx, decide_unrestricted_budgeted, SemanticVerdict};
use vqd_datalog::{eval_program_with, Program, Strategy};
use vqd_eval::cq_contained;
use vqd_exec::{ExecCtx, ExecPool};
use vqd_instance::{named, DomainNames, IndexMaintenance, Instance, Relation, Schema};
use vqd_query::{parse_instance, parse_program, parse_query, Cq, QueryExpr, ViewSet};
use vqd_server::Request;

/// One library call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `decide_unrestricted_budgeted` on decide pair `i`.
    Decide(usize),
    /// `check_exhaustive_ctx` at domain 3 on semantic pair `i`.
    Semantic(usize),
    /// Semi-naive transitive closure with `eval_program_with`.
    Fixpoint,
    /// `certain_sound_ctx` on the extent, at this parallelism (1 or 2).
    Certain(usize),
    /// `cq_contained` on containment pair `i`.
    Contained(usize),
}

struct DecideCase {
    views: CqViews,
    query: Cq,
    want: (bool, Option<String>),
    project_select: bool,
}

struct SemanticCase {
    views: ViewSet,
    query: QueryExpr,
    want: String,
}

/// The engine-batch inputs with every expected result.
pub struct Batch {
    decide: Vec<DecideCase>,
    semantic: Vec<SemanticCase>,
    tc: (Program, Instance, usize),
    certain: (CqViews, Cq, Instance, Relation),
    contained: Vec<(Cq, Cq, bool)>,
    /// One engine thread: with the calling thread, a 2-way fan-out.
    pool: Arc<ExecPool>,
    budget: Budget,
}

fn views_of(schema: &Schema, names: &mut DomainNames, src: &str) -> ViewSet {
    let prog = parse_program(schema, names, src).expect("generated views parse");
    ViewSet::new(schema, prog.defs)
}

fn query_of(schema: &Schema, names: &mut DomainNames, src: &str) -> QueryExpr {
    parse_query(schema, names, src).expect("generated query parses")
}

fn cq_of(q: &QueryExpr) -> Cq {
    q.as_cq().expect("generated queries are CQs").clone()
}

fn verdict_tag(v: &SemanticVerdict) -> String {
    match v {
        SemanticVerdict::NoCounterexampleUpTo(n) => format!("no-counterexample@{n}"),
        SemanticVerdict::NotDetermined(_) => "not-determined".to_owned(),
        SemanticVerdict::TooLarge { .. } => "too-large".to_owned(),
        SemanticVerdict::Exhausted(_) => "exhausted".to_owned(),
    }
}

impl Batch {
    /// Builds the pools (from [`POOL_SEED`]: their items differ widely in
    /// cost) and computes every expected result.
    pub fn new(scale: &Scale) -> Batch {
        let mut rng = StdRng::seed_from_u64(POOL_SEED ^ 0xba7c4);
        let graph = Schema::parse("E/2").expect("schema");
        let graph_p = Schema::parse("E/2,P/1").expect("schema");
        let budget = Budget::unlimited();
        let mut names = DomainNames::new();

        // The F2 path sweep, then random CQ pairs.
        let mut decide_src: Vec<(&Schema, String, String)> = Vec::new();
        for k in 2..=4usize {
            for m in k + 1..=12 {
                decide_src.push((&graph, path_rule("V", k), path_rule("Q", m)));
            }
        }
        while decide_src.len() < 64 {
            let (views, query) = random_pair(&mut rng);
            let request = Request::Decide {
                schema: "E/2,P/1".to_owned(),
                views,
                query,
            };
            if is_light(&request) {
                let Request::Decide { views, query, .. } = request else {
                    unreachable!()
                };
                decide_src.push((&graph_p, views, query));
            }
        }
        let decide = decide_src
            .into_iter()
            .map(|(schema, v, q)| {
                let views = CqViews::try_new(views_of(schema, &mut names, &v)).expect("CQ views");
                let query = cq_of(&query_of(schema, &mut names, &q));
                let out = decide_unrestricted_budgeted(&views, &query, &budget).expect("decides");
                let want = (out.determined, out.rewriting.map(|r| r.render("R")));
                let project_select = out.fragment == vqd_router::Fragment::ProjectSelect;
                DecideCase {
                    views,
                    query,
                    want,
                    project_select,
                }
            })
            .collect();

        let semantic = (0..8)
            .map(|i| {
                let v = if i % 2 == 0 {
                    path_rule("V", 1 + i % 3)
                } else {
                    random_rule("V", &[("E", 2)], 2, 3, 2, &mut rng)
                };
                let views = views_of(&graph, &mut names, &v);
                let query = query_of(&graph, &mut names, &path_rule("Q", 2 + i % 2));
                let exec = ExecCtx::sequential(budget.clone());
                let verdict =
                    check_exhaustive_ctx(&views, &query, 3, 1 << 12, &exec).expect("scans");
                SemanticCase {
                    views,
                    query,
                    want: verdict_tag(&verdict),
                }
            })
            .collect();

        let tc_schema = Schema::parse("E/2,T/2").expect("schema");
        let program = Program::parse(
            &tc_schema,
            &mut names,
            "T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).",
        )
        .expect("TC program parses");
        let mut edb = Instance::empty(&tc_schema);
        for i in 0..scale.tc_nodes {
            edb.insert_named("E", vec![named(i), named(i + 1)]);
        }
        let closure = eval_program_with(
            &program,
            &edb,
            Strategy::SemiNaive,
            IndexMaintenance::Incremental,
            &budget,
        )
        .expect("TC saturates");
        let tc = (program, edb, closure.total_tuples());

        let views =
            CqViews::try_new(views_of(&graph, &mut names, CERTAIN_VIEWS)).expect("CQ views");
        let query = cq_of(&query_of(&graph, &mut names, HOT_QUERIES[3]));
        let n = scale.batch_tuples;
        let mut seen = HashSet::new();
        let mut facts = String::new();
        while seen.len() < n {
            let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if a != b && seen.insert((a, b)) {
                facts.push_str(&format!("V(N{a},N{b}). "));
            }
        }
        let extent = parse_instance(views.as_view_set().output_schema(), &mut names, &facts)
            .expect("extent parses");
        let chased = canonical_database_budgeted(&views, &extent, &budget).expect("chases");
        let answers = certain_from_canonical(&query, &chased, &budget).expect("evaluates");
        let certain = (views, query, extent, answers);

        let contained = (0..32)
            .map(|_| loop {
                let a = rng.gen_range(2..=4);
                let b = rng.gen_range(1..=3);
                let q1 = cq_of(&query_of(
                    &graph,
                    &mut names,
                    &random_rule("Q", &[("E", 2)], a, 3, 2, &mut rng),
                ));
                let q2 = cq_of(&query_of(
                    &graph,
                    &mut names,
                    &random_rule("Q", &[("E", 2)], b, 3, 2, &mut rng),
                ));
                if q1.arity() == q2.arity() {
                    let want = cq_contained(&q1, &q2);
                    break (q1, q2, want);
                }
            })
            .collect();

        Batch {
            decide,
            semantic,
            tc,
            certain,
            contained,
            pool: Arc::new(ExecPool::new(1)),
            budget,
        }
    }

    /// Whether decide pair `i` takes the router's project-select path.
    pub fn is_project_select(&self, i: usize) -> bool {
        self.decide[i].project_select
    }

    /// The op sequence for `seed`: 30 % decide, 30 % containment, 10 %
    /// each of semantic, fixpoint, certain at parallelism 1 and at 2.
    /// Kinds and pool items are dealt from [`Deck`]s, so every seed runs
    /// the same mix in a different order.
    pub fn ops(&self, seed: u64) -> impl Iterator<Item = Op> + '_ {
        let mut rng = StdRng::seed_from_u64(seed);
        let uniform = |n: usize| Deck::new(&vec![1.0; n], n);
        let mut kinds = Deck::new(&[3.0, 3.0, 1.0, 1.0, 1.0, 1.0], 10);
        let (mut decide, mut contained, mut semantic) = (
            uniform(self.decide.len()),
            uniform(self.contained.len()),
            uniform(self.semantic.len()),
        );
        std::iter::repeat_with(move || match kinds.draw(&mut rng) {
            0 => Op::Decide(decide.draw(&mut rng)),
            1 => Op::Contained(contained.draw(&mut rng)),
            2 => Op::Semantic(semantic.draw(&mut rng)),
            3 => Op::Fixpoint,
            4 => Op::Certain(1),
            _ => Op::Certain(2),
        })
    }

    /// Runs one op and checks its result. With a tracer, each call into
    /// a layer runs inside a span. Returns the fan-out the op used.
    pub fn run(&self, op: Op, mut tracer: Option<&mut Tracer>) -> Result<u64, String> {
        let mut step = |name: &'static str, f: &mut dyn FnMut()| match tracer.as_deref_mut() {
            Some(t) => t.span(name, |_| f()),
            None => f(),
        };
        match op {
            Op::Decide(i) => {
                let case = &self.decide[i];
                step("router.classify", &mut || {
                    std::hint::black_box(vqd_router::classify(&case.views, &case.query));
                });
                let mut got = None;
                step("determinacy.decide", &mut || {
                    got = Some(decide_unrestricted_budgeted(
                        &case.views,
                        &case.query,
                        &self.budget,
                    ));
                });
                let out = got.expect("ran").map_err(|e| e.to_string())?;
                let got = (out.determined, out.rewriting.map(|r| r.render("R")));
                (got == case.want)
                    .then_some(0)
                    .ok_or_else(|| format!("decide {i}: {got:?}"))
            }
            Op::Semantic(i) => {
                let case = &self.semantic[i];
                let exec = ExecCtx::sequential(self.budget.clone());
                let mut got = None;
                step("determinacy.semantic", &mut || {
                    got = Some(check_exhaustive_ctx(
                        &case.views,
                        &case.query,
                        3,
                        1 << 12,
                        &exec,
                    ));
                });
                let tag = verdict_tag(&got.expect("ran").map_err(|e| e.to_string())?);
                (tag == case.want)
                    .then_some(0)
                    .ok_or_else(|| format!("semantic {i}: {tag}"))
            }
            Op::Fixpoint => {
                let (program, edb, want) = &self.tc;
                let mut got = None;
                step("datalog.fixpoint", &mut || {
                    got = Some(eval_program_with(
                        program,
                        edb,
                        Strategy::SemiNaive,
                        IndexMaintenance::Incremental,
                        &self.budget,
                    ));
                });
                let tuples = got.expect("ran").map_err(|e| e.to_string())?.total_tuples();
                (tuples == *want)
                    .then_some(0)
                    .ok_or_else(|| format!("fixpoint: {tuples} tuples"))
            }
            Op::Certain(parallelism) => {
                let (views, query, extent, want) = &self.certain;
                let exec =
                    ExecCtx::on_pool(self.budget.clone(), parallelism, Arc::clone(&self.pool));
                let mut chased = None;
                step("chase.canonical", &mut || {
                    chased = Some(canonical_database_budgeted(views, extent, &exec));
                });
                let chased = chased.expect("ran").map_err(|e| e.to_string())?;
                let mut got = None;
                step("hom.eval", &mut || {
                    got = Some(certain_from_canonical(query, &chased, &exec))
                });
                let got = got.expect("ran").map_err(|e| e.to_string())?;
                (got == *want).then(|| exec.threads_used()).ok_or_else(|| {
                    format!(
                        "certain at parallelism {parallelism}: {} answers",
                        got.len()
                    )
                })
            }
            Op::Contained(i) => {
                let (q1, q2, want) = &self.contained[i];
                let mut got = false;
                step("eval.containment", &mut || got = cq_contained(q1, q2));
                (got == *want)
                    .then_some(0)
                    .ok_or_else(|| format!("containment {i}: {got}"))
            }
        }
    }
}

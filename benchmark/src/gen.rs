//! Seeded request generation for the served workloads, and the expected
//! outcome of every request template, computed in process with
//! `vqd_server::engine::execute` before any timing starts.

use crate::workload::{Scale, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use vqd_budget::{Budget, CancelToken};
use vqd_server::engine::{execute, EngineCtx};
use vqd_server::{Envelope, Limits, Outcome, Request, Response, WireStats};

/// Seed of the decide-mix pool. Pools whose items differ widely in cost
/// are drawn from this constant rather than from `--seed`: under Zipf
/// traffic the top few items carry a large share of the load, so a
/// seed-dependent pool would move throughput between runs by more than
/// any bound. `--seed` drives which items are requested, and when.
pub const POOL_SEED: u64 = 0x005e_ed0f_b00c;

/// Views of both certain-answer workloads: 2-paths, so the chase invents
/// one labelled null per extent tuple and some query answers are not
/// certain.
pub const CERTAIN_VIEWS: &str = "V(x,z) :- E(x,y), E(y,z).";

/// certain-hot's six queries: 2- to 4-paths with varied heads.
pub const HOT_QUERIES: [&str; 6] = [
    "Q(x,z) :- E(x,y), E(y,z).",
    "Q(x) :- E(x,y), E(y,z).",
    "Q(x,w) :- E(x,y), E(y,z), E(z,w).",
    "Q(x,v) :- E(x,y), E(y,z), E(z,w), E(w,v).",
    "Q(z) :- E(x,y), E(y,z), E(z,w), E(w,v).",
    "Q(x,z,v) :- E(x,y), E(y,z), E(z,w), E(w,v).",
];

/// certain-churn's queries (a subset of certain-hot's).
const CHURN_QUERIES: [&str; 4] = [
    HOT_QUERIES[0],
    HOT_QUERIES[1],
    HOT_QUERIES[3],
    HOT_QUERIES[4],
];

/// Handles a certain-churn query picks from: the most recent puts.
const CHURN_WINDOW: usize = 48;

/// A churn handle query only picks a put issued at least this many
/// requests earlier. The open-loop sender keeps at most
/// [`crate::load::WINDOW`] requests in flight per connection on two
/// connections, so such a put has always been answered by the time the
/// query is sent, and the query never waits for its handle.
const HANDLE_LAG: usize = 40;

/// Extents certain-churn registers on the server whose cache directory
/// the measured server then restores.
const CHURN_PRELOAD: usize = 16;

/// One fixed request, encoded once, with the reply it must produce.
pub struct Template {
    /// The request.
    pub request: Request,
    /// Its envelope line (newline-terminated), without and with
    /// `profile: true`.
    pub line: [String; 2],
    /// The outcome `engine::execute` produced in process.
    pub expected: Outcome,
    /// The tail every correct reply line ends with: the encoded
    /// `result` section, which is the reply's last key.
    pub suffix: String,
}

/// An extent registered by handle.
pub struct Extent {
    /// Ground facts over the view output schema.
    pub text: String,
    /// Its `put_instance` envelope line, without and with `profile`.
    pub put_line: [String; 2],
    /// The fingerprint a correct `put_instance` reply reports.
    pub fingerprint: String,
    /// Tuples a correct `put_instance` reply reports.
    pub tuples: u64,
}

/// Everything a served workload sends, with expectations.
pub struct Plan {
    /// Which workload.
    pub workload: Workload,
    /// Fixed requests.
    pub templates: Vec<Template>,
    /// Extents addressed by handle (certain workloads only).
    pub extents: Vec<Extent>,
    /// `inline[e][q]`: the template answering query `q` on extent `e`
    /// inline. A handle request must reply exactly as it does.
    pub inline: Vec<Vec<usize>>,
    /// Extents put during set-up, before measured traffic.
    pub preload: usize,
}

/// One generated request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Item {
    /// `plan.templates[i]`.
    Fixed(usize),
    /// `put_instance` of `plan.extents[i]`.
    Put(usize),
    /// `certain_sound` on the current handle of `extent`.
    ByHandle {
        /// Extent index.
        extent: usize,
        /// Query index.
        query: usize,
    },
}

impl Plan {
    /// Generates the workload's inputs and computes every expectation.
    pub fn new(workload: Workload, seed: u64, scale: &Scale) -> Plan {
        let ctx = EngineCtx::new(CancelToken::new());
        let mut plan = Plan {
            workload,
            templates: Vec::new(),
            extents: Vec::new(),
            inline: Vec::new(),
            preload: 0,
        };
        match workload {
            Workload::DecideMix => {
                let mut rng = StdRng::seed_from_u64(POOL_SEED);
                for request in decide_pool(scale.decide_pool, &mut rng) {
                    plan.add_template(request, &ctx);
                }
            }
            Workload::CertainHot => {
                let mut rng = StdRng::seed_from_u64(seed ^ 0x4077);
                let n = scale.hot_tuples;
                let mut texts = vec![chain_extent(n)];
                texts.extend((0..3).map(|_| random_extent(n, n, &mut rng)));
                plan.add_extents(texts, &HOT_QUERIES, &ctx);
                plan.preload = plan.extents.len();
            }
            Workload::CertainChurn => {
                let mut rng = StdRng::seed_from_u64(seed ^ 0xc4u64);
                let (lo, hi) = scale.churn_tuples;
                let count = scale.churn_extents;
                // Evenly spaced sizes, shuffled: the mean extent size is
                // the same for every seed.
                let mut sizes: Vec<usize> = (0..count)
                    .map(|i| lo + (hi - lo) * i / (count - 1).max(1))
                    .collect();
                shuffle(&mut sizes, &mut rng);
                let texts = sizes
                    .iter()
                    .map(|&n| random_extent(n, n, &mut rng))
                    .collect();
                plan.add_extents(texts, &CHURN_QUERIES, &ctx);
                plan.preload = CHURN_PRELOAD.min(count);
            }
            Workload::EngineBatch => unreachable!("engine-batch has no wire plan"),
        }
        plan
    }

    fn add_template(&mut self, request: Request, ctx: &EngineCtx) -> usize {
        let expected = execute(&request, &Budget::unlimited(), ctx);
        let idx = self.templates.len();
        let line =
            [false, true].map(|profile| envelope_line(&format!("t{idx}"), &request, profile));
        let suffix = result_suffix(&expected);
        self.templates.push(Template {
            request,
            line,
            expected,
            suffix,
        });
        idx
    }

    fn add_extents(&mut self, texts: Vec<String>, queries: &[&str], ctx: &EngineCtx) {
        for (e, text) in texts.into_iter().enumerate() {
            let put = Request::PutInstance {
                schema: "V/2".to_owned(),
                extent: text.clone(),
            };
            let Outcome::InstancePut {
                fingerprint,
                tuples,
                ..
            } = execute(&put, &Budget::unlimited(), ctx)
            else {
                panic!("generated extent {e} does not parse");
            };
            let put_line = [false, true].map(|p| envelope_line(&format!("p{e}"), &put, p));
            let row = queries
                .iter()
                .map(|q| self.add_template(certain_inline(q, &text), ctx))
                .collect();
            self.inline.push(row);
            self.extents.push(Extent {
                text,
                put_line,
                fingerprint,
                tuples,
            });
        }
    }

    /// Number of queries per extent (certain workloads).
    pub fn queries(&self) -> usize {
        self.inline.first().map_or(0, Vec::len)
    }

    /// The `certain_sound` request for query `q` by `handle`.
    pub fn by_handle(&self, query: usize, handle: &str) -> Request {
        match &self.templates[self.inline[0][query]].request {
            Request::Certain {
                schema,
                views,
                query,
                ..
            } => Request::CertainHandle {
                schema: schema.clone(),
                views: views.clone(),
                query: query.clone(),
                handle: handle.to_owned(),
            },
            other => unreachable!("inline template is {other:?}"),
        }
    }
}

/// The deterministic request sequence of one client of a plan.
pub struct Stream<'a> {
    plan: &'a Plan,
    rng: StdRng,
    /// decide-mix: template ranks; certain-hot: `(extent, query)` pairs;
    /// certain-churn: request kinds.
    deck: Deck,
    /// certain-churn: inline templates.
    inline: Deck,
    issued: usize,
    /// `(extent, position)` of every put so far, oldest first; set-up
    /// puts sit at position 0.
    puts: Vec<(usize, usize)>,
    next_put: usize,
}

/// Cards per decide-mix deck: every one of the 400 Zipf ranks holds at
/// least one card.
const ZIPF_DECK: usize = 4000;

/// certain-churn request kinds per ten: two puts, four handle queries,
/// four inline queries.
const CHURN_KINDS: [f64; 3] = [2.0, 4.0, 4.0];

impl<'a> Stream<'a> {
    /// A stream over `plan` drawn from `seed`.
    pub fn new(plan: &'a Plan, seed: u64) -> Stream<'a> {
        let pairs = plan.extents.len() * plan.queries();
        let deck = match plan.workload {
            Workload::DecideMix => {
                let zipf: Vec<f64> = (1..=plan.templates.len()).map(|r| 1.0 / r as f64).collect();
                Deck::new(&zipf, ZIPF_DECK)
            }
            Workload::CertainHot => Deck::new(&vec![1.0; pairs], pairs),
            _ => Deck::new(&CHURN_KINDS, 10),
        };
        Stream {
            plan,
            rng: StdRng::seed_from_u64(seed),
            deck,
            inline: Deck::new(&vec![1.0; pairs], pairs),
            // Positions start past HANDLE_LAG so set-up puts are
            // eligible for the very first handle query.
            issued: HANDLE_LAG,
            puts: (0..plan.preload).map(|e| (e, 0)).collect(),
            next_put: plan.preload,
        }
    }
}

impl Iterator for Stream<'_> {
    type Item = Item;

    fn next(&mut self) -> Option<Item> {
        let plan = self.plan;
        self.issued += 1;
        let card = self.deck.draw(&mut self.rng);
        let item = match plan.workload {
            Workload::DecideMix => Item::Fixed(card),
            Workload::CertainHot => Item::ByHandle {
                extent: card / plan.queries(),
                query: card % plan.queries(),
            },
            Workload::CertainChurn => match card {
                0 => {
                    let extent = self.next_put % plan.extents.len();
                    self.next_put += 1;
                    self.puts.push((extent, self.issued));
                    Item::Put(extent)
                }
                1 => {
                    let eligible: Vec<usize> = self
                        .puts
                        .iter()
                        .rev()
                        .filter(|&&(_, at)| at + HANDLE_LAG <= self.issued)
                        .take(CHURN_WINDOW)
                        .map(|&(e, _)| e)
                        .collect();
                    Item::ByHandle {
                        extent: eligible[self.rng.gen_range(0..eligible.len())],
                        query: self.rng.gen_range(0..plan.queries()),
                    }
                }
                _ => {
                    let pair = self.inline.draw(&mut self.rng);
                    Item::Fixed(plan.inline[pair / plan.queries()][pair % plan.queries()])
                }
            },
            Workload::EngineBatch => unreachable!("engine-batch has no wire plan"),
        };
        Some(item)
    }
}

/// Draws choices in shuffled decks that hold each choice in its exact
/// proportion: every deck has the same composition and the seed only
/// sets the order. Independent draws would let a run's mix of cheap and
/// expensive requests — and so its throughput and tail — wander with
/// the seed.
#[derive(Clone, Debug)]
pub struct Deck {
    cards: Vec<usize>,
    next: usize,
}

impl Deck {
    /// `size` cards apportioned to the choices by `weights` (largest
    /// remainder), each choice with at least one card.
    pub fn new(weights: &[f64], size: usize) -> Deck {
        let total: f64 = weights.iter().sum();
        let quotas: Vec<f64> = weights.iter().map(|w| w / total * size as f64).collect();
        let mut counts: Vec<usize> = quotas.iter().map(|q| (q.floor() as usize).max(1)).collect();
        let mut by_remainder: Vec<usize> = (0..weights.len()).collect();
        by_remainder.sort_by(|&a, &b| quotas[b].fract().total_cmp(&quotas[a].fract()));
        let short = size.saturating_sub(counts.iter().sum());
        for &i in by_remainder.iter().cycle().take(short) {
            counts[i] += 1;
        }
        let cards = counts
            .iter()
            .enumerate()
            .flat_map(|(i, &n)| std::iter::repeat_n(i, n))
            .collect();
        Deck { cards, next: 0 }
    }

    /// The next card; a fresh shuffle starts every deck.
    pub fn draw(&mut self, rng: &mut StdRng) -> usize {
        if self.next == 0 {
            shuffle(&mut self.cards, rng);
        }
        let card = self.cards[self.next];
        self.next = (self.next + 1) % self.cards.len();
        card
    }
}

/// Encodes one envelope line, newline-terminated.
pub fn envelope_line(id: &str, request: &Request, profile: bool) -> String {
    let mut line = Envelope::new(id, Limits::none(), request.clone())
        .with_profile(profile)
        .to_json()
        .to_string();
    line.push('\n');
    line
}

/// `"result":{…}}` — the tail of any reply carrying `outcome`.
fn result_suffix(outcome: &Outcome) -> String {
    let reply = Response::new("", outcome.clone(), WireStats::default()).to_json();
    let result = reply
        .get("result")
        .expect("every response encodes a result");
    format!("\"result\":{result}}}")
}

fn certain_inline(query: &str, extent: &str) -> Request {
    Request::Certain {
        schema: "E/2".to_owned(),
        views: CERTAIN_VIEWS.to_owned(),
        query: query.to_owned(),
        extent: extent.to_owned(),
    }
}

/// `V(N0,N1). V(N1,N2). …` with `n` tuples.
fn chain_extent(n: usize) -> String {
    (0..n).map(|i| format!("V(N{i},N{}). ", i + 1)).collect()
}

/// `tuples` distinct non-loop `V` facts over `nodes` constants.
fn random_extent(tuples: usize, nodes: usize, rng: &mut StdRng) -> String {
    let mut seen = HashSet::new();
    let mut out = String::new();
    while seen.len() < tuples {
        let (a, b) = (rng.gen_range(0..nodes), rng.gen_range(0..nodes));
        if a != b && seen.insert((a, b)) {
            out.push_str(&format!("V(N{a},N{b}). "));
        }
    }
    out
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// `name(x0,xk) :- E(x0,x1), …, E(x{k-1},xk).`
pub fn path_rule(name: &str, k: usize) -> String {
    let body: Vec<String> = (0..k).map(|i| format!("E(x{i},x{})", i + 1)).collect();
    format!("{name}(x0,x{k}) :- {}.", body.join(", "))
}

/// A random plain CQ over `rels` (`(name, arity)`): `atoms` body atoms
/// over `vars` variables, and a head of `head` variables that occur in
/// the body (fewer when the body uses fewer).
pub fn random_rule(
    name: &str,
    rels: &[(&str, usize)],
    atoms: usize,
    vars: usize,
    head: usize,
    rng: &mut StdRng,
) -> String {
    let mut used: Vec<usize> = Vec::new();
    let body: Vec<String> = (0..atoms)
        .map(|_| {
            let (rel, arity) = rels[rng.gen_range(0..rels.len())];
            let args: Vec<String> = (0..arity)
                .map(|_| {
                    let v = rng.gen_range(0..vars);
                    if !used.contains(&v) {
                        used.push(v);
                    }
                    format!("x{v}")
                })
                .collect();
            format!("{rel}({})", args.join(","))
        })
        .collect();
    let head: Vec<String> = used
        .iter()
        .take(head.min(used.len()))
        .map(|v| format!("x{v}"))
        .collect();
    format!("{name}({}) :- {}.", head.join(","), body.join(", "))
}

/// Number of head variables of a rule produced by [`random_rule`].
fn head_arity(rule: &str) -> usize {
    let head = &rule[rule.find('(').map_or(0, |i| i + 1)..rule.find(')').unwrap_or(0)];
    head.split(',').filter(|v| !v.is_empty()).count()
}

const GRAPH: &[(&str, usize)] = &[("E", 2)];
const GRAPH_P: &[(&str, usize)] = &[("E", 2), ("P", 1)];

/// One single-atom rule: selections by constants and repeated
/// variables, projection by the head.
fn project_select_rule(name: &str, rng: &mut StdRng) -> String {
    let (rel, arity) = GRAPH_P[usize::from(rng.gen_bool(0.3))];
    let mut vars: Vec<&str> = Vec::new();
    let args: Vec<&str> = (0..arity)
        .map(|_| match rng.gen_range(0..8u32) {
            0 => "A",
            1 => "B",
            r => {
                let v = ["x", "y", "z"][r as usize % 3];
                if !vars.contains(&v) {
                    vars.push(v);
                }
                v
            }
        })
        .collect();
    let keep = rng.gen_range(0..=vars.len());
    format!(
        "{name}({}) :- {rel}({}).",
        vars[..keep].join(","),
        args.join(",")
    )
}

/// A random CQ pair over `E/2,P/1`: 2–3 views of 1–3 atoms and a query
/// of 3–6 atoms.
pub fn random_pair(rng: &mut StdRng) -> (String, String) {
    let views: Vec<String> = (0..rng.gen_range(2..=3usize))
        .map(|v| {
            let atoms = rng.gen_range(1..=3);
            random_rule(&format!("V{v}"), GRAPH_P, atoms, atoms + 1, 2, rng)
        })
        .collect();
    let atoms = rng.gen_range(3..=6);
    (
        views.join("\n"),
        random_rule("Q", GRAPH_P, atoms, atoms, 2, rng),
    )
}

/// Homomorphism candidates a random pair's decision may try. A few
/// draws (disconnected bodies of unary atoms) cost hundreds of times
/// the rest; under Zipf traffic one such item would dominate the mix,
/// so they are redrawn. The count is deterministic, so the pool is too.
const MAX_HOM_CANDIDATES: u64 = 2000;

/// Whether `request`'s in-process decision stays under
/// [`MAX_HOM_CANDIDATES`].
pub fn is_light(request: &Request) -> bool {
    let ctx = EngineCtx::new(CancelToken::new());
    let before = vqd_obs::local_snapshot();
    execute(request, &Budget::unlimited(), &ctx);
    let tried = vqd_obs::local_snapshot()
        .diff(&before)
        .get(vqd_obs::Metric::HomCandidatesTried);
    tried <= MAX_HOM_CANDIDATES
}

/// The decide-mix pool in rank order: 30 % path pairs, 20 %
/// project-select, 10 % general, 30 % random CQ pairs, 5 % containment
/// and 5 % semantic requests at domain 3.
fn decide_pool(n: usize, rng: &mut StdRng) -> Vec<Request> {
    let decide = |rng: &mut StdRng, schema: &str, views: String, query: String| {
        let schema = schema.to_owned();
        if rng.gen_bool(0.5) {
            Request::Decide {
                schema,
                views,
                query,
            }
        } else {
            Request::Rewrite {
                schema,
                views,
                query,
            }
        }
    };
    let mut pool: Vec<Request> = (0..n)
        .map(|i| match i % 20 {
            0..=5 => {
                let k = rng.gen_range(2..=4usize);
                let m = rng.gen_range(k + 1..=12);
                decide(rng, "E/2", path_rule("V", k), path_rule("Q", m))
            }
            6..=9 => {
                let views: Vec<String> = (0..rng.gen_range(1..=3usize))
                    .map(|v| project_select_rule(&format!("V{v}"), rng))
                    .collect();
                let query = project_select_rule("Q", rng);
                decide(rng, "E/2,P/1", views.join("\n"), query)
            }
            10..=11 => {
                let (views, query) = match rng.gen_range(0..3u32) {
                    0 => (
                        "V(x,y) :- E(x,y), E(y,x).".to_owned(),
                        path_rule("Q", rng.gen_range(2..=4)),
                    ),
                    1 => (
                        "V(x,y) :- E(x,y), E(y,z), E(z,x).".to_owned(),
                        path_rule("Q", rng.gen_range(2..=3)),
                    ),
                    _ => (
                        "V(x) :- E(x,y), E(x,z).\nW(x,y) :- E(x,y).".to_owned(),
                        random_rule("Q", GRAPH, rng.gen_range(2..=3), 3, 2, rng),
                    ),
                };
                decide(rng, "E/2", views, query)
            }
            12..=17 => loop {
                let (views, query) = random_pair(rng);
                let request = decide(rng, "E/2,P/1", views, query);
                if is_light(&request) {
                    break request;
                }
            },
            18 => {
                let side = |rng: &mut StdRng| {
                    let atoms = rng.gen_range(2..=3);
                    random_rule("Q", GRAPH, atoms, 3, 2, rng)
                };
                // Containment needs equal arities; redraw until they are.
                let (q1, q2) = loop {
                    let (q1, q2) = (side(rng), side(rng));
                    if head_arity(&q1) == head_arity(&q2) {
                        break (q1, q2);
                    }
                };
                Request::Containment {
                    schema: "E/2".to_owned(),
                    q1,
                    q2,
                    max_domain: 3,
                    space_limit: 1 << 12,
                }
            }
            _ => {
                let views = if rng.gen_bool(0.5) {
                    path_rule("V", rng.gen_range(1..=2))
                } else {
                    random_rule("V", GRAPH, 2, 3, 2, rng)
                };
                Request::Semantic {
                    schema: "E/2".to_owned(),
                    views,
                    query: path_rule("Q", rng.gen_range(2..=3)),
                    domain: 3,
                    space_limit: 1 << 12,
                }
            }
        })
        .collect();
    shuffle(&mut pool, rng);
    pool
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_per_seed() {
        for w in [
            Workload::DecideMix,
            Workload::CertainHot,
            Workload::CertainChurn,
        ] {
            let a = Plan::new(w, 7, &Scale::SMOKE);
            let b = Plan::new(w, 7, &Scale::SMOKE);
            let lines = |p: &Plan| {
                p.templates
                    .iter()
                    .map(|t| t.line[0].clone())
                    .collect::<Vec<_>>()
            };
            assert_eq!(lines(&a), lines(&b), "{}", w.name());
            let sa: Vec<Item> = Stream::new(&a, 3).take(200).collect();
            let sb: Vec<Item> = Stream::new(&b, 3).take(200).collect();
            assert_eq!(sa, sb, "{}", w.name());
        }
    }

    #[test]
    fn decks_hold_exact_proportions() {
        let deck = Deck::new(&[2.0, 4.0, 4.0], 10);
        let count = |c: usize| deck.cards.iter().filter(|&&x| x == c).count();
        assert_eq!((count(0), count(1), count(2)), (2, 4, 4));
        let zipf: Vec<f64> = (1..=400).map(|r| 1.0 / r as f64).collect();
        let deck = Deck::new(&zipf, ZIPF_DECK);
        assert_eq!(deck.cards.len(), ZIPF_DECK);
        assert!(
            (0..400).all(|c| deck.cards.contains(&c)),
            "every rank has a card"
        );
        let mut rng = StdRng::seed_from_u64(1);
        let mut d = Deck::new(&[1.0, 3.0], 4);
        let mut drawn: Vec<usize> = (0..8).map(|_| d.draw(&mut rng)).collect();
        drawn.sort_unstable();
        assert_eq!(drawn, [0, 0, 1, 1, 1, 1, 1, 1]);
    }

    #[test]
    fn generated_requests_never_fail_in_process() {
        for w in [
            Workload::DecideMix,
            Workload::CertainHot,
            Workload::CertainChurn,
        ] {
            let plan = Plan::new(w, 11, &Scale::SMOKE);
            for t in &plan.templates {
                assert_eq!(t.expected.status(), "ok", "{}: {:?}", w.name(), t.request);
            }
        }
    }

    #[test]
    fn churn_handle_queries_only_pick_settled_recent_puts() {
        let plan = Plan::new(Workload::CertainChurn, 5, &Scale::SMOKE);
        let mut stream = Stream::new(&plan, 9);
        let mut put_at: Vec<(usize, usize)> = (0..plan.preload).map(|e| (e, 0)).collect();
        for i in 1..=2000usize {
            match stream.next().expect("endless") {
                Item::Put(e) => put_at.push((e, i)),
                Item::ByHandle { extent, .. } => {
                    let recent: Vec<usize> = put_at
                        .iter()
                        .rev()
                        .filter(|&&(_, at)| at == 0 || at + HANDLE_LAG <= i)
                        .take(CHURN_WINDOW)
                        .map(|&(e, _)| e)
                        .collect();
                    assert!(recent.contains(&extent), "request {i}: extent {extent}");
                }
                Item::Fixed(_) => {}
            }
        }
    }
}

//! The traced in-process replay of a served workload: the first
//! generated requests run on one thread through the same public calls
//! `vqd_server::engine` makes, in the same order, each call inside a
//! span. Every replayed outcome must equal the outcome the wire replies
//! were checked against.

use crate::gen::{envelope_line, Item, Plan, Stream};
use crate::trace::Tracer;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use vqd_budget::{Budget, VqdError};
use vqd_chase::CqViews;
use vqd_core::certain::{canonical_database_budgeted, certain_from_canonical};
use vqd_core::determinacy::{check_exhaustive_ctx, decide_unrestricted_budgeted, SemanticVerdict};
use vqd_eval::{contained_bounded_budgeted, BoundedContainment};
use vqd_exec::ExecCtx;
use vqd_instance::{DomainNames, Schema};
use vqd_obs::Registry;
use vqd_query::{parse_instance, parse_program, parse_query, Cq, CqLang, QueryExpr, ViewSet};
use vqd_router::Fragment;
use vqd_server::cache::derived_key;
use vqd_server::{
    CacheConfig, Envelope, ErrorKind, HandleEntry, InstanceCache, Outcome, Request, Response,
    WireCounterexample, WireStats,
};

/// What the replay saw besides its spans.
#[derive(Default)]
pub struct ReplayStats {
    /// Logical requests replayed.
    pub requests: usize,
    /// Decide-family requests classified, and how many were
    /// project-select (routed to the fast path).
    pub classified: u64,
    /// Project-select classifications.
    pub fastpath: u64,
    /// Mean encoded reply size, bytes.
    pub reply_bytes: f64,
    /// Replayed outcomes that differ from the checked expectation.
    pub mismatches: Vec<String>,
}

struct Pair {
    names: DomainNames,
    views: ViewSet,
    query: QueryExpr,
}

fn parse_pair(schema: &str, views: &str, query: &str) -> Result<Pair, String> {
    let schema = Schema::parse(schema)?;
    let mut names = DomainNames::new();
    let prog = parse_program(&schema, &mut names, views).map_err(|e| e.to_string())?;
    let views = ViewSet::new(&schema, prog.defs);
    let query = parse_query(&schema, &mut names, query).map_err(|e| e.to_string())?;
    Ok(Pair {
        names,
        views,
        query,
    })
}

fn require_cq(pair: &Pair) -> Result<(CqViews, Cq), String> {
    let views = CqViews::try_new(pair.views.clone()).map_err(|e| e.to_string())?;
    let q = pair
        .query
        .as_cq()
        .filter(|q| q.language() == CqLang::Cq)
        .ok_or("not a plain CQ")?;
    Ok((views, q.clone()))
}

fn wire_error(e: VqdError) -> Outcome {
    match e {
        VqdError::Exhausted(ex) => Outcome::Exhausted {
            reason: ex.reason.to_string(),
            partial: ex.partial.clone(),
        },
        other => Outcome::Error {
            kind: ErrorKind::Internal,
            message: other.to_string(),
        },
    }
}

fn invalid(message: String) -> Outcome {
    Outcome::Error {
        kind: ErrorKind::InvalidInput,
        message,
    }
}

/// The engine's extent fingerprint: a hash of the schema and the
/// extent's fresh-names rendering.
fn fingerprint(schema: &str, rendered: &str) -> String {
    let mut h = DefaultHasher::new();
    schema.hash(&mut h);
    rendered.hash(&mut h);
    format!("{:016x}", h.finish())
}

/// Replays the first `count` requests of `plan`'s stream for `seed` on
/// this thread, against a cache of `cache_entries` entries holding the
/// set-up extents.
pub fn replay(
    plan: &Plan,
    seed: u64,
    count: usize,
    cache_entries: usize,
    tracer: &mut Tracer,
) -> ReplayStats {
    let mut r = Replayer {
        plan,
        cache: InstanceCache::new(
            CacheConfig {
                max_entries: cache_entries,
                ..CacheConfig::default()
            },
            Arc::new(Registry::new()),
        ),
        handles: vec![None; plan.extents.len()],
        budget: Budget::unlimited(),
        stats: ReplayStats::default(),
    };
    // Set-up, untraced: the preloaded extents, and one answer per query
    // for each so the derived entries are warm.
    let mut scratch = Tracer::new();
    for e in 0..plan.preload {
        r.put(e, &mut scratch);
        for q in 0..plan.queries() {
            r.by_handle(e, q, &mut scratch);
        }
    }
    let mut bytes = 0usize;
    for (seq, item) in Stream::new(plan, seed).take(count).enumerate() {
        tracer.begin("replay", seq as u64);
        let (outcome, want, encoded) = tracer.span("request", |t| r.request(item, t));
        bytes += encoded;
        if outcome != want {
            r.stats
                .mismatches
                .push(format!("request {seq} ({item:?}): {outcome}"));
        }
    }
    r.stats.requests = count;
    r.stats.reply_bytes = bytes as f64 / count.max(1) as f64;
    r.stats
}

struct Replayer<'a> {
    plan: &'a Plan,
    cache: InstanceCache,
    handles: Vec<Option<String>>,
    budget: Budget,
    stats: ReplayStats,
}

impl Replayer<'_> {
    /// One logical request: returns its outcome, the outcome it must
    /// equal, and its encoded reply size.
    fn request(&mut self, item: Item, t: &mut Tracer) -> (Outcome, Outcome, usize) {
        match item {
            Item::Fixed(i) => {
                let template = &self.plan.templates[i];
                let (outcome, bytes) = self.exchange(&template.request, t);
                (outcome, template.expected.clone(), bytes)
            }
            Item::Put(e) => {
                let (outcome, bytes) = self.put(e, t);
                // The handle name is the cache's choice; the rest is not.
                let handle = match &outcome {
                    Outcome::InstancePut { handle, .. } => handle.clone(),
                    _ => String::new(),
                };
                let want = Outcome::InstancePut {
                    handle,
                    fingerprint: self.plan.extents[e].fingerprint.clone(),
                    tuples: self.plan.extents[e].tuples,
                };
                (outcome, want, bytes)
            }
            Item::ByHandle { extent, query } => {
                let want = self.plan.templates[self.plan.inline[extent][query]]
                    .expected
                    .clone();
                let (outcome, bytes) = self.by_handle(extent, query, t);
                (outcome, want, bytes)
            }
        }
    }

    fn put(&mut self, e: usize, t: &mut Tracer) -> (Outcome, usize) {
        let request = Request::PutInstance {
            schema: "V/2".to_owned(),
            extent: self.plan.extents[e].text.clone(),
        };
        let (outcome, bytes) = self.exchange(&request, t);
        if let Outcome::InstancePut { handle, .. } = &outcome {
            self.handles[e] = Some(handle.clone());
        }
        (outcome, bytes)
    }

    /// A handle request with the client's re-put-and-retry on eviction.
    fn by_handle(&mut self, e: usize, q: usize, t: &mut Tracer) -> (Outcome, usize) {
        let mut total = 0;
        for _ in 0..3 {
            let handle = match &self.handles[e] {
                Some(h) => h.clone(),
                None => {
                    total += self.put(e, t).1;
                    continue;
                }
            };
            let (outcome, bytes) = self.exchange(&self.plan.by_handle(q, &handle), t);
            total += bytes;
            match outcome {
                Outcome::Error {
                    kind: ErrorKind::UnknownHandle,
                    ..
                } => {
                    total += self.put(e, t).1;
                }
                other => return (other, total),
            }
        }
        (invalid("handle evicted on every retry".to_owned()), total)
    }

    /// One wire exchange, in process: decode the envelope, execute,
    /// encode the reply, decode it as the client would.
    fn exchange(&mut self, request: &Request, t: &mut Tracer) -> (Outcome, usize) {
        let line = envelope_line("r", request, false);
        let envelope = t.span("proto.decode", |_| Envelope::from_line(line.trim_end()));
        let Ok(envelope) = envelope else {
            return (invalid("envelope does not decode".to_owned()), 0);
        };
        let outcome = self.execute(&envelope.request, t);
        let encoded = t.span("proto.encode", |_| {
            Response::new(envelope.id.clone(), outcome.clone(), WireStats::default())
                .to_json()
                .to_string()
        });
        let decoded = t.span("client.decode", |_| Response::from_line(&encoded));
        match decoded {
            Ok(reply) => (reply.outcome, encoded.len() + 1),
            Err(e) => (
                invalid(format!("reply does not decode: {e}")),
                encoded.len() + 1,
            ),
        }
    }

    /// `engine::execute_attributed_ctx`, call for call, for the ops the
    /// workloads send.
    fn execute(&mut self, request: &Request, t: &mut Tracer) -> Outcome {
        let result = match request {
            Request::Decide {
                schema,
                views,
                query,
            }
            | Request::Rewrite {
                schema,
                views,
                query,
            } => self
                .decide(schema, views, query, t)
                .map(|(determined, rewriting)| {
                    if matches!(request, Request::Decide { .. }) {
                        Outcome::Decided {
                            determined,
                            rewriting,
                        }
                    } else {
                        Outcome::Rewritten {
                            exists: determined,
                            rewriting,
                        }
                    }
                }),
            Request::Containment {
                schema,
                q1,
                q2,
                max_domain,
                space_limit,
            } => self.containment(schema, q1, q2, *max_domain, *space_limit, t),
            Request::Semantic {
                schema,
                views,
                query,
                domain,
                space_limit,
            } => self.semantic(schema, views, query, *domain, *space_limit, t),
            Request::Certain {
                schema,
                views,
                query,
                extent,
            } => self.certain(schema, views, query, extent, None, t),
            Request::CertainHandle {
                schema,
                views,
                query,
                handle,
            } => {
                let entry = t.span("cache.lookup", |_| self.cache.get_handle(handle));
                match entry {
                    None => Ok(Outcome::Error {
                        kind: ErrorKind::UnknownHandle,
                        message: format!("unknown instance handle `{handle}`"),
                    }),
                    Some(entry) => {
                        self.certain(schema, views, query, &entry.extent, Some(&entry), t)
                    }
                }
            }
            Request::PutInstance { schema, extent } => {
                let parsed = Schema::parse(schema).and_then(|s| {
                    let mut names = DomainNames::new();
                    t.span("parse.extent", |_| parse_instance(&s, &mut names, extent))
                        .map(|i| (i, names))
                        .map_err(|e| e.to_string())
                });
                parsed.map(|(instance, names)| {
                    let fingerprint = fingerprint(schema, &instance.render(&names));
                    let tuples = instance.total_tuples() as u64;
                    let entry = HandleEntry {
                        schema: schema.clone(),
                        extent: extent.clone(),
                        fingerprint: fingerprint.clone(),
                        tuples,
                    };
                    let handle = t.span("cache.insert", |_| self.cache.put(entry));
                    Outcome::InstancePut {
                        handle,
                        fingerprint,
                        tuples,
                    }
                })
            }
            other => Err(format!("op {} is not replayed", other.op())),
        };
        result.unwrap_or_else(invalid)
    }

    fn decide(
        &mut self,
        schema: &str,
        views: &str,
        query: &str,
        t: &mut Tracer,
    ) -> Result<(bool, Option<String>), String> {
        let (views, q) = t.span("parse.query", |_| {
            parse_pair(schema, views, query).and_then(|p| require_cq(&p))
        })?;
        let fragment = t.span("router.classify", |_| vqd_router::classify(&views, &q));
        self.stats.classified += 1;
        self.stats.fastpath += u64::from(fragment == Fragment::ProjectSelect);
        t.span("determinacy.decide", |_| {
            decide_unrestricted_budgeted(&views, &q, &self.budget)
        })
        .map(|out| (out.determined, out.rewriting.map(|r| r.render("R"))))
        .map_err(|e| e.to_string())
    }

    fn containment(
        &mut self,
        schema: &str,
        q1: &str,
        q2: &str,
        max_domain: u64,
        space_limit: u64,
        t: &mut Tracer,
    ) -> Result<Outcome, String> {
        let (q1, q2, names) = t.span("parse.query", |_| {
            let schema = Schema::parse(schema)?;
            let mut names = DomainNames::new();
            let mut cq = |src: &str| {
                parse_query(&schema, &mut names, src)
                    .map_err(|e| e.to_string())?
                    .as_cq()
                    .cloned()
                    .ok_or_else(|| "containment requires a CQ".to_owned())
            };
            let (q1, q2) = (cq(q1)?, cq(q2)?);
            Ok::<_, String>((q1, q2, names))
        })?;
        let verdict = t.span("eval.containment", |_| {
            contained_bounded_budgeted(
                &q1,
                &q2,
                max_domain as usize,
                u128::from(space_limit),
                &self.budget,
            )
        });
        Ok(match verdict {
            BoundedContainment::NoCounterexampleUpTo(n) => Outcome::Contained {
                verdict: "no-counterexample".into(),
                bound: Some(n as u64),
                witness: None,
            },
            BoundedContainment::Refuted(d) => Outcome::Contained {
                verdict: "refuted".into(),
                bound: None,
                witness: Some(d.render(&names)),
            },
            BoundedContainment::TooLarge => Outcome::Contained {
                verdict: "too-large".into(),
                bound: None,
                witness: None,
            },
            BoundedContainment::Exhausted(e) => Outcome::Exhausted {
                reason: e.reason.to_string(),
                partial: e.partial.clone(),
            },
        })
    }

    fn semantic(
        &mut self,
        schema: &str,
        views: &str,
        query: &str,
        domain: u64,
        space_limit: u64,
        t: &mut Tracer,
    ) -> Result<Outcome, String> {
        let pair = t.span("parse.query", |_| parse_pair(schema, views, query))?;
        let exec = ExecCtx::sequential(self.budget.clone());
        let verdict = t.span("determinacy.semantic", |_| {
            check_exhaustive_ctx(
                &pair.views,
                &pair.query,
                domain as usize,
                u128::from(space_limit),
                &exec,
            )
        });
        let render = |c: &vqd_core::determinacy::Counterexample| WireCounterexample {
            d1: c.d1.render(&pair.names),
            d2: c.d2.render(&pair.names),
            image: c.image.render(&pair.names),
            q1: c.q1.render(&pair.names),
            q2: c.q2.render(&pair.names),
        };
        Ok(match verdict {
            Ok(SemanticVerdict::NoCounterexampleUpTo(n)) => Outcome::SemanticOutcome {
                verdict: "no-counterexample".into(),
                bound: Some(n as u64),
                counterexample: None,
            },
            Ok(SemanticVerdict::NotDetermined(c)) => Outcome::SemanticOutcome {
                verdict: "not-determined".into(),
                bound: None,
                counterexample: Some(render(&c)),
            },
            Ok(SemanticVerdict::TooLarge { .. }) => Outcome::SemanticOutcome {
                verdict: "too-large".into(),
                bound: None,
                counterexample: None,
            },
            Ok(SemanticVerdict::Exhausted(e)) => Outcome::Exhausted {
                reason: e.reason.to_string(),
                partial: e.partial.clone(),
            },
            Err(e) => wire_error(e),
        })
    }

    /// Inline (`entry` is `None`) or by-handle certain answers; the
    /// handle path consults the derived-index cache exactly as the
    /// engine does.
    fn certain(
        &mut self,
        schema: &str,
        views: &str,
        query: &str,
        extent: &str,
        entry: Option<&HandleEntry>,
        t: &mut Tracer,
    ) -> Result<Outcome, String> {
        let (pair, (cq_views, q)) = t.span("parse.query", |_| {
            let pair = parse_pair(schema, views, query)?;
            let cq = require_cq(&pair)?;
            Ok::<_, String>((pair, cq))
        })?;
        let mut names = pair.names;
        let instance = t
            .span("parse.extent", |_| {
                parse_instance(cq_views.as_view_set().output_schema(), &mut names, extent)
            })
            .map_err(|e| e.to_string())?;
        let exec = ExecCtx::sequential(self.budget.clone());
        let answers = match entry {
            None => t
                .span("chase.canonical", |_| {
                    canonical_database_budgeted(&cq_views, &instance, &exec)
                })
                .and_then(|chased| {
                    t.span("hom.eval", |_| certain_from_canonical(&q, &chased, &exec))
                }),
            Some(entry) => {
                let key = derived_key(schema, views, query, &entry.fingerprint);
                match t.span("cache.lookup", |_| self.cache.get_index(&key)) {
                    Some(chased) => {
                        t.span("hom.eval", |_| certain_from_canonical(&q, &chased, &exec))
                    }
                    None => t
                        .span("chase.canonical", |_| {
                            canonical_database_budgeted(&cq_views, &instance, &exec)
                        })
                        .and_then(|chased| {
                            let shared = chased.into_shared();
                            t.span("cache.insert", |_| {
                                self.cache.insert_index(key, Arc::clone(&shared))
                            });
                            t.span("hom.eval", |_| certain_from_canonical(&q, &shared, &exec))
                        }),
                }
            }
        };
        Ok(match answers {
            Ok(rel) => t.span("certain.render", |_| Outcome::CertainAnswers {
                count: rel.len() as u64,
                answers: rel.render(&names),
            }),
            Err(e) => wire_error(e),
        })
    }
}

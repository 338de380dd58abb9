//! F4 — exhaustive semantic determinacy: the exponential wall that makes
//! the effective procedures worth having, plus the grouping-vs-pairwise
//! ablation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::collections::HashMap;
use vqd_bench::genq::{path_query, path_views};
use vqd_core::determinacy::semantic::check_exhaustive;
use vqd_eval::{apply_views, eval_cq};
use vqd_instance::gen::InstanceEnumerator;
use vqd_instance::Schema;
use vqd_query::QueryExpr;

fn bench_bruteforce(c: &mut Criterion) {
    let s = Schema::new([("E", 2)]);
    let views = path_views(&s, 2);
    let q = path_query(&s, 4);
    let qe = QueryExpr::Cq(q.clone());

    let mut group = c.benchmark_group("F4/exhaustive-by-domain");
    group.sample_size(10);
    for n in [1usize, 2, 3] {
        group.bench_with_input(BenchmarkId::new("grouped", n), &n, |b, &n| {
            b.iter(|| check_exhaustive(views.as_view_set(), &qe, n, u128::MAX))
        });
    }
    // Ablation: naive pairwise comparison instead of one-pass grouping.
    for n in [1usize, 2] {
        group.bench_with_input(BenchmarkId::new("pairwise", n), &n, |b, &n| {
            b.iter(|| {
                let all: Vec<_> = InstanceEnumerator::new(&s, n).collect();
                let images: Vec<_> = all
                    .iter()
                    .map(|d| (apply_views(views.as_view_set(), d), eval_cq(&q, d)))
                    .collect();
                let mut violations = 0u32;
                for i in 0..images.len() {
                    for j in i + 1..images.len() {
                        if images[i].0 == images[j].0 && images[i].1 != images[j].1 {
                            violations += 1;
                        }
                    }
                }
                violations
            })
        });
    }
    // And the grouped one-pass as implemented (HashMap) for the same n,
    // to compare apples to apples on raw loops.
    for n in [1usize, 2] {
        group.bench_with_input(BenchmarkId::new("grouped-raw", n), &n, |b, &n| {
            b.iter(|| {
                let mut seen: HashMap<_, _> = HashMap::new();
                let mut violations = 0u32;
                for d in InstanceEnumerator::new(&s, n) {
                    let img = apply_views(views.as_view_set(), &d);
                    let out = eval_cq(&q, &d);
                    if let Some(prev) = seen.insert(img, out.clone()) {
                        if prev != out {
                            violations += 1;
                        }
                    }
                }
                violations
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_bruteforce);
criterion_main!(benches);

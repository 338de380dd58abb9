//! F8 — rewriting minimization: greedy core computation vs. exhaustive
//! sub-query search on canonical rewritings (who wins, and where the
//! exhaustive baseline falls off a cliff).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use vqd_bench::genq::{path_query, path_views};
use vqd_chase::canonical;
use vqd_core::determinacy::unrestricted::decide_unrestricted;
use vqd_core::minicon::minicon_equivalent_rewriting;
use vqd_eval::{minimize_cq, minimize_cq_exhaustive};
use vqd_instance::Schema;

fn bench_rewriting(c: &mut Criterion) {
    let s = Schema::new([("E", 2)]);
    let views = path_views(&s, 2);
    let mut group = c.benchmark_group("F8/minimize-canonical-rewriting");
    group.sample_size(10);
    for k in [4usize, 6, 8] {
        let q = path_query(&s, k);
        let can = canonical(&views, &q);
        group.bench_with_input(BenchmarkId::new("greedy-core", k), &k, |b, _| {
            b.iter(|| minimize_cq(&can.q_v))
        });
        if can.q_v.atoms.len() <= 14 {
            group.bench_with_input(BenchmarkId::new("exhaustive", k), &k, |b, _| {
                b.iter(|| minimize_cq_exhaustive(&can.q_v))
            });
        }
    }
    group.finish();

    // Who wins on rewriting *existence*: the chase test vs MiniCon.
    let mut group = c.benchmark_group("F8/existence-chase-vs-minicon");
    group.sample_size(10);
    for k in [4usize, 6, 8] {
        let q = path_query(&s, k);
        group.bench_with_input(BenchmarkId::new("chase", k), &k, |b, _| {
            b.iter(|| decide_unrestricted(&views, &q).rewriting.is_some())
        });
        group.bench_with_input(BenchmarkId::new("minicon", k), &k, |b, _| {
            b.iter(|| minicon_equivalent_rewriting(&views, &q).is_ok_and(|r| r.is_some()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_rewriting);
criterion_main!(benches);

//! Criterion bench: baselines head-to-head (the quantitative backbone of
//! Table 4's comparisons) — index build and query costs for the proposed
//! method, Fogaras-Racz fingerprints, and the index-free surfer-pair
//! estimator.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use srs_baselines::fogaras::{FingerprintIndex, FogarasParams};
use srs_baselines::surfer::{self, SurferParams};
use srs_bench::cache;
use srs_search::topk::QueryContext;
use srs_search::{QueryOptions, SimRankParams, TopKIndex};

fn bench_baselines(c: &mut Criterion) {
    let mut group = c.benchmark_group("baselines");
    group.sample_size(10);
    let spec = srs_graph::datasets::by_name("web-Stanford").unwrap();
    let g = cache::graph(spec, 0.01, 3);
    let n = g.num_vertices();
    let params = SimRankParams::default();
    let fr_params = FogarasParams::default();

    group.bench_function(BenchmarkId::new("build_proposed", n), |b| {
        b.iter(|| TopKIndex::build(&g, &params, 1));
    });
    group.bench_function(BenchmarkId::new("build_fogaras", n), |b| {
        b.iter(|| FingerprintIndex::build(&g, &fr_params, 1, u64::MAX).unwrap());
    });

    let index = TopKIndex::build(&g, &params, 1);
    let fr = FingerprintIndex::build(&g, &fr_params, 1, u64::MAX).unwrap();
    let queries = srs_graph::stats::sample_query_vertices(&g, 16, 9);
    group.bench_function(BenchmarkId::new("top20_proposed", n), |b| {
        let mut ctx = QueryContext::new(&g, &index);
        let mut i = 0;
        b.iter(|| {
            i += 1;
            ctx.query(queries[i % queries.len()], 20, &QueryOptions::sampled())
        });
    });
    group.bench_function(BenchmarkId::new("top20_fogaras", n), |b| {
        let mut i = 0;
        b.iter(|| {
            i += 1;
            fr.top_k(queries[i % queries.len()], 20)
        });
    });
    group.bench_function(BenchmarkId::new("single_pair_surfer_R1000", n), |b| {
        let p = SurferParams { samples: 1_000, ..Default::default() };
        let mut s = 0u64;
        b.iter(|| {
            s += 1;
            surfer::single_pair(&g, 1, 2, &p, s)
        });
    });
    group.finish();
    cache::clear();
}

criterion_group!(benches, bench_baselines);
criterion_main!(benches);

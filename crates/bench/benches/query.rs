//! Criterion bench: the top-k query (Table 4 "Query" column) and the
//! paper's §8.1 claim that query time tracks graph *structure*, not size —
//! web graphs answer faster than social graphs of comparable size.
//!
//! Two shapes per dataset: `top20` is the single-query latency through a
//! sequential [`QueryContext`], `batch32` pushes the same workload through
//! the parallel [`ServingEngine`] (pooled scratch state, all cores), i.e.
//! the serving-layer throughput. A wave-width ablation (1/8/32/128 on
//! copying_web(100k), 4 threads) measures what batching the adaptive
//! scan's walk work buys — results are bit-identical at every width, so
//! the ablation is pure throughput. All batch measurements are written to
//! `BENCH_query.json` at the repo root — QPS plus p50/p95/p99 per-query
//! latency (skipped in `-- --test` smoke mode, which also shrinks the
//! fixtures so CI just checks the harness).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use srs_bench::cache;
use srs_bench::querybench::{QueryBenchEntry, QueryBenchReport};
use srs_search::topk::QueryContext;
use srs_search::{Dataset, QueryOptions, ServingEngine, SimRankParams, TopKIndex};

fn bench_query(c: &mut Criterion) {
    let smoke = criterion::smoke_mode();
    let mut group = c.benchmark_group("query");
    group.sample_size(20);
    let params = SimRankParams::default();
    // The paper's method: Algorithm 5, whose scan the wave ablation varies.
    let opts = QueryOptions::sampled();
    let mut report = QueryBenchReport::new();
    // One web and one social analogue at comparable edge counts.
    let scale_down = if smoke { 0.1 } else { 1.0 };
    for (name, scale) in [("web-BerkStan", 0.01), ("soc-Epinions1", 0.1), ("wiki-Vote", 0.5)] {
        let spec = srs_graph::datasets::by_name(name).unwrap();
        let g = cache::graph(spec, scale * scale_down, 5);
        let index = TopKIndex::build(&g, &params, 9);
        let queries = srs_graph::stats::sample_query_vertices(&g, 32, 13);
        let label = format!("{name}_m{}", g.num_edges());
        let dataset = Dataset::from_arcs(g.clone(), index.clone().into()).unwrap();
        group.bench_function(BenchmarkId::new("top20", &label), |b| {
            let mut ctx = QueryContext::new(&g, &index);
            let mut i = 0usize;
            b.iter(|| {
                i += 1;
                ctx.query(queries[i % queries.len()], 20, &opts)
            });
        });
        group.bench_function(BenchmarkId::new("batch32_top20", &label), |b| {
            let engine = ServingEngine::new(dataset.clone());
            let mut out = srs_search::BatchResult::new();
            b.iter(|| {
                engine.query_batch_into(&queries, 20, &opts, &mut out);
                out.totals
            });
        });

        // One measured batch for the JSON artifact: QPS + tail latency
        // from the engine's own per-query latency summary.
        let engine = ServingEngine::new(dataset);
        let workload = srs_graph::stats::sample_query_vertices(&g, if smoke { 16 } else { 256 }, 13);
        let batch = engine.query_batch(&workload, 20, &opts);
        let entry = QueryBenchEntry {
            dataset: format!("{name}(n={}, m={})", g.num_vertices(), g.num_edges()),
            queries: workload.len() as u64,
            threads: engine.threads(),
            k: 20,
            wave_width: opts.wave_width,
            elapsed_secs: batch.elapsed.as_secs_f64(),
            p50_us: batch.latency.p50.as_secs_f64() * 1e6,
            p95_us: batch.latency.p95.as_secs_f64() * 1e6,
            p99_us: batch.latency.p99.as_secs_f64() * 1e6,
        };
        println!("  batch256 {label}: {:.0} queries/s (p99 {:.0} µs)", entry.queries_per_sec(), entry.p99_us);
        report.push(entry);
    }

    // Wave-width ablation: same graph, same queries, same (bit-identical)
    // answers — only the scan's walk batching varies. 4 threads pins the
    // acceptance configuration. The workload extends each candidate set
    // with the distance-2 ball (`--ball 2` on the CLI): the default
    // index-only candidate list is ~10 vertices per query, which makes
    // batch queries enumerate-bound and leaves the scan — the stage the
    // wave actually batches — with nothing to do. The ball workload is
    // scan-bound (~13k scored candidates per query), so the ablation
    // measures the kernel it varies.
    let n = if smoke { 2_000 } else { 100_000 };
    let g = srs_graph::gen::copying_web(n, 5, 0.8, 7);
    let index = TopKIndex::build(&g, &params, 9);
    let engine = ServingEngine::with_threads(Dataset::new(g.clone(), index).unwrap(), 4);
    let queries = srs_graph::stats::sample_query_vertices(&g, 32, 13);
    let workload = srs_graph::stats::sample_query_vertices(&g, if smoke { 16 } else { 256 }, 13);
    for width in [1u32, 8, 32, 128] {
        let wopts = QueryOptions { wave_width: width, candidate_ball: Some(2), ..QueryOptions::sampled() };
        group.bench_function(BenchmarkId::new("wave_width", width), |b| {
            let mut out = srs_search::BatchResult::new();
            b.iter(|| {
                engine.query_batch_into(&queries, 20, &wopts, &mut out);
                out.totals
            });
        });
        // Best-of-3 for the JSON artifact: single-shot wall times on a
        // busy host swing ±15-20%, which would drown the width effect.
        let batch = (0..3)
            .map(|_| engine.query_batch(&workload, 20, &wopts))
            .min_by(|a, b| a.elapsed.cmp(&b.elapsed))
            .unwrap();
        let entry = QueryBenchEntry {
            dataset: format!("copying_web(n={}, m={}, ball=2)", g.num_vertices(), g.num_edges()),
            queries: workload.len() as u64,
            threads: engine.threads(),
            k: 20,
            wave_width: width,
            elapsed_secs: batch.elapsed.as_secs_f64(),
            p50_us: batch.latency.p50.as_secs_f64() * 1e6,
            p95_us: batch.latency.p95.as_secs_f64() * 1e6,
            p99_us: batch.latency.p99.as_secs_f64() * 1e6,
        };
        println!(
            "  wave_width={width}: {:.0} queries/s (p99 {:.0} µs)",
            entry.queries_per_sec(),
            entry.p99_us
        );
        report.push(entry);
    }
    group.finish();
    cache::clear();
    if !smoke {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_query.json");
        report.write(path).expect("write BENCH_query.json");
        println!("wrote {path}");
    }
}

criterion_group!(benches, bench_query);
criterion_main!(benches);

//! "Related pages" on a web graph — the paper's motivating workload.
//!
//! Demonstrates the full production flow: generate (or load) a large web
//! graph, preprocess once, persist the index to disk, reload it, and serve
//! a batch of queries through the parallel [`ServingEngine`], printing
//! aggregate pruning statistics and latency percentiles that show why web
//! graphs are the method's best case (§8.1: query cost tracks structure,
//! not size).
//!
//! ```sh
//! cargo run --release --example web_graph_search
//! ```

use simrank_search::graph::{datasets, stats};
use simrank_search::search::{persist, Dataset, QueryOptions, ServingEngine, SimRankParams, TopKIndex};
use std::time::Instant;

fn main() {
    // The web-Stanford analogue at 1/20 scale (~14k pages, ~115k links).
    let spec = datasets::by_name("web-Stanford").expect("registry dataset");
    let g = spec.generate(0.05, 1);
    println!("web graph: {} pages, {} links", g.num_vertices(), g.num_edges());

    // Preprocess and persist.
    let params = SimRankParams::default();
    let t0 = Instant::now();
    let index = TopKIndex::build(&g, &params, 99);
    println!("preprocess: {:.2?} ({} bytes of index)", t0.elapsed(), index.memory_bytes());

    let path = std::env::temp_dir().join("web_graph_search.idx");
    persist::save(&index, std::fs::File::create(&path).expect("create index file")).expect("save index");
    let index = persist::load(std::fs::File::open(&path).expect("open index file")).expect("load index");
    println!("index persisted + reloaded from {}", path.display());

    // Serve a batch of queries through the parallel engine. Scores are
    // bit-identical to sequential queries for any thread count: the
    // randomness is seeded per query, never per worker.
    let queries = stats::sample_query_vertices(&g, 64, 4);
    let engine = ServingEngine::new(Dataset::new(g, index).expect("index built for this graph"));
    let opts = QueryOptions::default();
    let batch = engine.query_batch(&queries, 20, &opts);
    let t = &batch.totals;
    println!(
        "\nbatch of {} queries on {} threads: {:.2?} ({:.0} queries/s)",
        queries.len(),
        engine.threads(),
        batch.elapsed,
        batch.queries_per_second()
    );
    println!(
        "pruning totals: {} candidates, {} pruned by bounds, {} coarse-pruned, {} refined",
        t.candidates,
        t.pruned_distance + t.pruned_bounds,
        t.pruned_coarse,
        t.refined
    );
    let l = &batch.latency;
    println!(
        "latency: mean {:.2?} | p50 {:.2?} | p95 {:.2?} | p99 {:.2?} | max {:.2?}",
        l.mean, l.p50, l.p95, l.p99, l.max
    );
    for (&u, res) in queries.iter().zip(&batch.results).take(3) {
        println!("\nrelated pages for {u}:");
        for hit in res.hits.iter().take(5) {
            println!("  page {:<8} s ≈ {:.4}", hit.vertex, hit.score);
        }
    }
    std::fs::remove_file(&path).ok();
}

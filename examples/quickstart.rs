//! Quickstart: build a graph, preprocess once, answer top-k queries.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use simrank_search::graph::gen;
use simrank_search::search::topk::QueryContext;
use simrank_search::search::{QueryOptions, SimRankParams, TopKIndex};

fn main() {
    // A copying-model web graph: 2000 pages, ~5 links each, 80% of links
    // copied from a prototype page (that copying is what creates pages
    // with high SimRank similarity).
    let g = gen::copying_web(2_000, 5, 0.8, 42);
    println!("graph: {} vertices, {} edges", g.num_vertices(), g.num_edges());

    // Preprocess (the paper's Algorithm 4): O(n) time and space.
    let params = SimRankParams::default(); // c=0.6, T=11, R=100, P=10, Q=5, θ=0.01
    let index = TopKIndex::build(&g, &params, 7);
    println!(
        "index built: {} candidate edges, {} bytes",
        index.candidate_index().num_edges(),
        index.memory_bytes()
    );

    // Query phase (Algorithm 5): candidates → bound pruning → adaptive
    // Monte-Carlo estimation.
    let mut ctx = QueryContext::new(&g, &index);
    let opts = QueryOptions::default();
    for u in [3u32, 100, 999] {
        let res = ctx.query(u, 10, &opts);
        println!(
            "\ntop-10 similar to vertex {u} (of {} candidates, {} refined):",
            res.stats.candidates, res.stats.refined
        );
        if res.hits.is_empty() {
            println!("  (no vertex above θ = {})", params.theta);
        }
        for hit in &res.hits {
            println!("  v={:<6} s ≈ {:.4}", hit.vertex, hit.score);
        }
    }
}

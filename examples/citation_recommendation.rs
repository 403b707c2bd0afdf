//! Citation recommendation: "papers similar to this one".
//!
//! Uses a citation-network analogue and compares three ways to score
//! similarity for one query paper:
//!
//! 1. the scalable Monte-Carlo top-k search (what you would deploy),
//! 2. the deterministic linearized single-source pass (exact up to
//!    truncation, `O(Tm)`),
//! 3. the Fogaras–Rácz fingerprint baseline.
//!
//! ```sh
//! cargo run --release --example citation_recommendation
//! ```

use simrank_search::baselines::fogaras::{FingerprintIndex, FogarasParams};
use simrank_search::exact::{diagonal, linearized, ExactParams};
use simrank_search::graph::datasets;
use simrank_search::search::{QueryOptions, SimRankParams, TopKIndex};

fn main() {
    let spec = datasets::by_name("Cora-direct").expect("registry dataset");
    let g = spec.generate(0.01, 3); // ~2.2k papers
    let n = g.num_vertices();
    println!("citation graph: {n} papers, {} citations", g.num_edges());

    let query = simrank_search::graph::stats::sample_query_vertices(&g, 1, 8)[0];
    println!("query paper: {query}\n");

    // 1. The scalable search.
    let params = SimRankParams::default();
    let index = TopKIndex::build(&g, &params, 5);
    let res = index.query(&g, query, 10, &QueryOptions::sampled());
    println!("proposed top-k search:");
    for h in &res.hits {
        println!("  paper {:<7} s ≈ {:.4}", h.vertex, h.score);
    }

    // 2. Deterministic single-source (the ranking the estimator chases).
    let ep = ExactParams::default();
    let d = diagonal::uniform(n as usize, ep.c);
    let scores = linearized::single_source(&g, query, &ep, &d);
    let mut order: Vec<(f64, u32)> = scores
        .iter()
        .enumerate()
        .filter(|&(v, &s)| v as u32 != query && s > 0.0)
        .map(|(v, &s)| (s, v as u32))
        .collect();
    order.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite"));
    println!("\ndeterministic linearized single-source (top 10):");
    for (s, v) in order.iter().take(10) {
        println!("  paper {v:<7} s = {s:.4}");
    }

    // 3. Fogaras-Racz baseline.
    let fr = FingerprintIndex::build(&g, &FogarasParams::default(), 11, u64::MAX)
        .expect("graph small enough for the fingerprint index");
    println!("\nFogaras-Racz fingerprints (top 10):");
    for (v, s) in fr.top_k(query, 10) {
        println!("  paper {v:<7} s ≈ {s:.4}");
    }

    // Agreement summary — compare against the deterministic vertices the
    // search is actually asked to find (score above its threshold θ).
    let above: Vec<u32> =
        order.iter().take(10).filter(|&&(s, _)| s >= params.theta).map(|&(_, v)| v).collect();
    let got: Vec<u32> = res.hits.iter().map(|h| h.vertex).collect();
    let overlap = above.iter().filter(|v| got.contains(v)).count();
    println!(
        "\nproposed search recovered {overlap}/{} of the deterministic results above θ = {}",
        above.len(),
        params.theta
    );
}

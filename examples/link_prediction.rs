//! Link prediction with SimRank top-k — one of the applications the
//! paper's introduction motivates (Liben-Nowell & Kleinberg style).
//!
//! Protocol: generate a collaboration network, hide a random 10% of its
//! undirected edges, preprocess the remaining graph, and ask: do the
//! hidden partners of a vertex appear among its top-k most SimRank-similar
//! vertices? Reports hits@k against a random-guess baseline.
//!
//! ```sh
//! cargo run --release --example link_prediction
//! ```

use simrank_search::graph::{gen, Graph, GraphBuilder};
use simrank_search::search::topk::QueryContext;
use simrank_search::search::{QueryOptions, SimRankParams, TopKIndex};

fn main() {
    let full = gen::collaboration(3_000, 4, 0.5, 77);
    println!("collaboration graph: {} authors, {} edges", full.num_vertices(), full.num_edges());

    // Hide 10% of undirected edges (both directions), deterministically.
    let (train, hidden) = split_edges(&full, 0.10, 99);
    println!("training graph: {} edges; {} hidden undirected pairs", train.num_edges(), hidden.len());

    let params = SimRankParams::default();
    let index = TopKIndex::build(&train, &params, 13);
    let mut ctx = QueryContext::new(&train, &index);
    // Recommendation differs from the paper's search workload in two ways:
    // the interesting scores sit far below the paper's θ = 0.01 (a missing
    // co-authorship is weak evidence), and the partner is often just
    // outside the walk-index candidates — so lower θ and add the distance-2
    // ball extension.
    let opts = QueryOptions { candidate_ball: Some(2), theta: Some(1e-4), ..QueryOptions::sampled() };

    let k = 20;
    let mut hits = 0usize;
    let mut total = 0usize;
    // Stride-sample the hidden pairs: they are sorted by source id and the
    // low ids are preferential-attachment hubs, which would bias the
    // sample toward the hardest (most diluted) queries.
    let stride = (hidden.len() / 200).max(1);
    for &(u, v) in hidden.iter().step_by(stride).take(200) {
        let res = ctx.query(u, k, &opts);
        total += 1;
        if res.hits.iter().any(|h| h.vertex == v) {
            hits += 1;
        }
    }
    let rate = hits as f64 / total.max(1) as f64;
    // Random guessing would pick the right partner with p ≈ k / n.
    let random = k as f64 / full.num_vertices() as f64;
    println!("\nhits@{k}: {hits}/{total} = {rate:.3} (random baseline ≈ {random:.4})");
    println!("lift over random: {:.0}x", rate / random);
}

/// Removes a deterministic `fraction` of undirected edge pairs from `g`;
/// returns the training graph and the hidden `(u, v)` pairs.
fn split_edges(g: &Graph, fraction: f64, seed: u64) -> (Graph, Vec<(u32, u32)>) {
    let mut hidden = Vec::new();
    let mut b = GraphBuilder::with_capacity(g.num_vertices(), g.num_edges() as usize);
    for (u, v) in g.edges() {
        if u < v && g.has_edge(v, u) {
            // Undirected pair: decide once per pair.
            let roll = simrank_search::graph::hash::mix_seed(&[seed, u as u64, v as u64]) % 1000;
            if (roll as f64) < fraction * 1000.0 {
                hidden.push((u, v));
                continue;
            }
            b.add_undirected_edge(u, v);
        } else if !g.has_edge(v, u) {
            b.add_edge(u, v);
        }
    }
    (b.build().expect("edge subset of a valid graph"), hidden)
}

//! Incremental index maintenance on a growing graph.
//!
//! Simulates a web crawl that keeps discovering pages: the index is built
//! once, then extended as batches of new pages arrive, at a fraction of
//! the rebuild cost. Shows the staleness-depth trade-off: depth 0 is
//! cheapest, full depth (`T − 1`) is bit-identical to a rebuild.
//!
//! ```sh
//! cargo run --release --example incremental_updates
//! ```

use simrank_search::graph::{gen, Graph, GraphBuilder};
use simrank_search::search::extend::extend_delta;
use simrank_search::search::{QueryOptions, SimRankParams, TopKIndex};
use std::time::Instant;

fn main() {
    // Initial crawl: 20k pages.
    let old = gen::copying_web(20_000, 5, 0.8, 7);
    let params = SimRankParams::default();
    let t0 = Instant::now();
    let index = TopKIndex::build(&old, &params, 3);
    println!("initial build: n={} in {:.2?}", old.num_vertices(), t0.elapsed());

    // The crawl discovers 1 000 new pages linking into the existing web.
    let new = grow(&old, 1_000, 5, 99);
    println!("crawl grew the graph to n={} m={}", new.num_vertices(), new.num_edges());

    for depth in [0u32, 2, params.t - 1] {
        let t = Instant::now();
        let out = extend_delta(&index, &old, &new, depth, 2).expect("append-only growth");
        let (extended, stats) = (out.index, out.stats);
        println!(
            "extend depth={depth}: {:.2?} (appended {}, recomputed {}, reused {})",
            t.elapsed(),
            stats.appended,
            stats.dirty,
            stats.reused
        );
        let res = extended.query(&new, 20_500, 5, &QueryOptions::sampled());
        println!("  query on a new page returns {} hits", res.hits.len());
    }

    let t = Instant::now();
    let rebuilt = TopKIndex::build(&new, &params, 3);
    println!("full rebuild for comparison: {:.2?}", t.elapsed());
    let exact = extend_delta(&index, &old, &new, params.t - 1, 2).expect("append-only growth").index;
    let same = exact.memory_bytes() == rebuilt.memory_bytes();
    println!("full-depth extension identical to rebuild: {same}");
}

/// Appends `extra` vertices, each linking to `deg` random existing pages.
fn grow(old: &Graph, extra: u32, deg: u32, seed: u64) -> Graph {
    let n_old = old.num_vertices();
    let n = n_old + extra;
    let mut b = GraphBuilder::with_capacity(n, old.num_edges() as usize + (extra * deg) as usize);
    for (u, v) in old.edges() {
        b.add_edge(u, v);
    }
    for i in 0..extra {
        let u = n_old + i;
        for j in 0..deg {
            let h = simrank_search::graph::hash::mix_seed(&[seed, u as u64, j as u64]);
            b.add_edge(u, (h % n_old as u64) as u32);
        }
    }
    b.build().expect("valid growth edges")
}

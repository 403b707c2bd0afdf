//! Top-k similarity search for **all** vertices (§2.2 of the paper).
//!
//! The all-vertices problem is embarrassingly parallel: each query is
//! independent, which is the paper's "distributed computing friendly"
//! argument (`O(n²/M)` on `M` machines). It is one big batch, so this is
//! a thin driver over [`ServingEngine`]: every vertex id becomes a query,
//! and results land in a dense `Vec` indexed by vertex.

use crate::engine::ServingEngine;
use crate::snapshot::Dataset;
use crate::topk::{Hit, QueryOptions, QueryStats};
use srs_graph::VertexId;

/// Aggregated counters over an all-vertices run.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllVerticesStats {
    /// Sum of per-query counters.
    pub totals: QueryStats,
    /// Number of queries executed (= n).
    pub queries: u64,
}

/// Runs a top-k query for every vertex, `threads`-way parallel
/// through a [`ServingEngine`]. Returns per-vertex hit lists
/// (index = vertex id) and aggregate stats.
pub fn all_topk(
    dataset: &Dataset,
    k: usize,
    opts: &QueryOptions,
    threads: usize,
) -> (Vec<Vec<Hit>>, AllVerticesStats) {
    assert!(threads >= 1);
    let engine = ServingEngine::with_threads(dataset.clone(), threads);
    let queries: Vec<VertexId> = (0..dataset.graph().num_vertices()).collect();
    let batch = engine.query_batch(&queries, k, opts);
    let stats = AllVerticesStats { totals: batch.totals, queries: queries.len() as u64 };
    (batch.results.into_iter().map(|r| r.hits).collect(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topk::TopKIndex;
    use crate::{Diagonal, SimRankParams};
    use srs_graph::{gen, Graph};

    fn dataset(g: Graph) -> Dataset {
        let params = SimRankParams { r_bounds: 500, ..Default::default() };
        let idx = TopKIndex::build_with(&g, &params, Diagonal::paper_default(params.c), 7, 2);
        Dataset::new(g, idx).unwrap()
    }

    #[test]
    fn covers_every_vertex_and_matches_single_queries() {
        let ds = dataset(gen::copying_web(120, 4, 0.8, 6));
        let opts = QueryOptions::default();
        let (all, stats) = all_topk(&ds, 5, &opts, 4);
        assert_eq!(all.len(), 120);
        assert_eq!(stats.queries, 120);
        for u in [0u32, 17, 63, 119] {
            let single = ds.index().query(ds.graph(), u, 5, &opts);
            assert_eq!(all[u as usize], single.hits, "u={u}");
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let ds = dataset(gen::copying_web(80, 4, 0.8, 2));
        for opts in [QueryOptions::default(), QueryOptions::sampled()] {
            let (a, _) = all_topk(&ds, 3, &opts, 1);
            let (b, _) = all_topk(&ds, 3, &opts, 4);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn aggregate_stats_accumulate() {
        let ds = dataset(gen::copying_web(60, 4, 0.8, 3));
        let (_, stats) = all_topk(&ds, 3, &QueryOptions::sampled(), 2);
        let t = stats.totals;
        assert!(t.fates_accounted(), "candidate fates must account for every candidate: {t:?}");
        assert!(t.walk_steps > 0, "refinement must have taken walk steps");
        let (_, stats) = all_topk(&ds, 3, &QueryOptions::default(), 2);
        let t = stats.totals;
        assert!(t.fates_accounted(), "head fates must account for its whole support: {t:?}");
        assert!(t.push_edges > 0 && t.walk_steps == 0, "the head pushes and never walks: {t:?}");
    }
}

//! The wave-batching semantics contract, pinned end to end: for every
//! wave width and every engine thread count, a query's hits, stats, and
//! full explain trace are bit-identical to the width-1 scan, which
//! estimates one candidate at a time.
//!
//! Every candidate is decided once against θ, and a wave estimates
//! exactly the candidates the width-1 scan estimates, so the work
//! counters (`walk_steps`, `zero_screened`) match as well. Only `waves`
//! differs: it counts the wide kernel's waves, 0 at width 1.

use srs_graph::{gen, VertexId};
use srs_search::{Dataset, Diagonal, QueryOptions, QueryStats, ServingEngine, SimRankParams, TopKIndex};

fn assert_wave_invariant(opts_base: QueryOptions, label: &str) {
    let params = SimRankParams { r_bounds: 2_000, ..Default::default() };
    assert_wave_invariant_with(opts_base, params, label);
}

fn assert_wave_invariant_with(opts_base: QueryOptions, params: SimRankParams, label: &str) {
    let g = gen::copying_web(800, 5, 0.8, 51);
    let idx = TopKIndex::build_with(&g, &params, Diagonal::paper_default(params.c), 7, 2);
    let queries: Vec<VertexId> = srs_graph::stats::sample_query_vertices(&g, 24, 19);
    let dataset = Dataset::new(g, idx).unwrap();
    let engine = |threads| ServingEngine::with_threads(dataset.clone(), threads);
    // Width 1 is the scalar scan — the reference.
    let scalar_opts = QueryOptions { wave_width: 1, explain: true, ..opts_base.clone() };
    let reference = engine(1).query_batch(&queries, 10, &scalar_opts);
    assert!(reference.results.iter().any(|r| !r.hits.is_empty()), "{label}: degenerate fixture");
    for width in [1u32, 4, 32, 128] {
        for threads in [1usize, 2, 8] {
            let opts = QueryOptions { wave_width: width, explain: true, ..opts_base.clone() };
            let batch = engine(threads).query_batch(&queries, 10, &opts);
            for (i, (a, b)) in reference.results.iter().zip(&batch.results).enumerate() {
                let u = queries[i];
                let ctx = format!("{label}: u={u} width={width} threads={threads}");
                assert_eq!(a.hits, b.hits, "{ctx}: hits diverged");
                assert_eq!(a.stats, QueryStats { waves: 0, ..b.stats }, "{ctx}: stats diverged");
                // The full trace — per-candidate fate, decision value, and
                // threshold — must replay exactly.
                assert_eq!(a.explain, b.explain, "{ctx}: explain trace diverged");
                assert!(b.stats.fates_accounted(), "{ctx}: {:?}", b.stats);
                if width == 1 {
                    assert_eq!(b.stats.waves, 0, "{ctx}: scalar scan must not form waves");
                }
            }
        }
    }
}

#[test]
fn hits_and_fates_identical_across_wave_widths_and_threads() {
    assert_wave_invariant(QueryOptions::default(), "default");
}

#[test]
fn wave_invariant_holds_without_adaptive_sampling() {
    assert_wave_invariant(QueryOptions { adaptive: false, ..Default::default() }, "non-adaptive");
}

#[test]
fn wave_invariant_holds_with_candidate_ball() {
    assert_wave_invariant(QueryOptions { candidate_ball: Some(2), ..Default::default() }, "candidate_ball");
}

#[test]
fn wave_invariant_holds_in_sort_merge_regime() {
    // `r_refine` above the SIMD compare threshold drives the wave's
    // refine steps through the sort-and-merge counting layout; the
    // bit-identity contract must hold there too.
    let params = SimRankParams { r_refine: 200, r_bounds: 1_000, ..Default::default() };
    assert_wave_invariant_with(QueryOptions::default(), params, "sort-merge regime");
}

#[test]
fn per_vertex_diagonal_routes_to_scalar_scan() {
    // The wave path is gated to uniform diagonals; a per-vertex diagonal
    // must fall back to the scalar scan at any width (waves == 0) and
    // stay width-invariant trivially.
    let g = gen::copying_web(300, 4, 0.8, 33);
    let params = SimRankParams { r_bounds: 1_000, ..Default::default() };
    let d = vec![1.0 - params.c; g.num_vertices() as usize];
    let diag = Diagonal::PerVertex(std::sync::Arc::new(d));
    let idx = TopKIndex::build_with(&g, &params, diag, 3, 2);
    let wide = idx.query(&g, 5, 10, &QueryOptions { wave_width: 32, ..Default::default() });
    let narrow = idx.query(&g, 5, 10, &QueryOptions { wave_width: 1, ..Default::default() });
    assert_eq!(wide.hits, narrow.hits);
    assert_eq!(wide.stats, narrow.stats);
    assert_eq!(wide.stats.waves, 0, "per-vertex diagonal must not take the wave path");
}

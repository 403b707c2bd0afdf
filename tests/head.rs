//! The exact two-step head, the default query, checked end to end against
//! the deterministic solver on generated social and web graphs.
//!
//! `srs_exact::linearized::single_source` with `T = 3` is the head itself
//! (`Σ_{t≤2} cᵗ⟨Pᵗe_u, D Pᵗe_v⟩`), and with `T = 11` the score the head
//! bounds from below. At θ = 0 and `k = n` a head query reports its whole
//! support, which is how these tests read every head value.

use simrank_search::exact::{diagonal, linearized, ExactParams};
use simrank_search::graph::{gen, stats, Graph, VertexId};
use simrank_search::search::{Diagonal, Hit, QueryContext, QueryOptions, SimRankParams, TopKIndex};
use std::sync::Arc;

/// The generated graphs (`srs generate --family social` / `web` shapes)
/// and a small walk budget, which only the unused index build reads.
fn graphs() -> [(&'static str, Graph); 2] {
    [
        ("social", gen::preferential_attachment_windowed(800, 6, 100, 42)),
        ("web", gen::copying_web(800, 4, 0.8, 42)),
    ]
}

fn params() -> SimRankParams {
    SimRankParams { index_reps: 2, r_bounds: 200, ..Default::default() }
}

/// A per-vertex diagonal in `[0.2, 0.8]`, deterministic in the vertex.
fn per_vertex(n: usize) -> Vec<f64> {
    (0..n).map(|w| 0.2 + 0.6 * ((w * 37 % 11) as f64 / 10.0)).collect()
}

/// Every head query's answer at θ = 0 and `k = n`: the support with its
/// head values.
fn whole_support(ctx: &mut QueryContext<'_>, u: VertexId, n: usize) -> Vec<(VertexId, f64)> {
    let opts = QueryOptions { theta: Some(0.0), ..Default::default() };
    ctx.query(u, n, &opts).hits.iter().map(|h| (h.vertex, h.score)).collect()
}

#[test]
fn head_equals_the_exact_solver_at_three_terms_under_both_diagonals() {
    let params = params();
    let mut compared = 0;
    for (name, g) in graphs() {
        let n = g.num_vertices() as usize;
        let uniform = diagonal::uniform(n, params.c);
        let per = per_vertex(n);
        for (dense, diag) in
            [(uniform, Diagonal::paper_default(params.c)), (per.clone(), Diagonal::PerVertex(Arc::new(per)))]
        {
            let idx = TopKIndex::build_with(&g, &params, diag, 3, 2);
            let mut ctx = QueryContext::new(&g, &idx);
            for u in stats::sample_query_vertices(&g, 60, 7) {
                let exact = linearized::single_source(&g, u, &ExactParams::new(params.c, 3), &dense);
                let mut head = vec![0.0; n];
                for (v, s) in whole_support(&mut ctx, u, n) {
                    assert_ne!(v, u, "{name} u={u}: the query vertex is no answer");
                    head[v as usize] = s;
                }
                for v in (0..n as VertexId).filter(|&v| v != u) {
                    let (got, want) = (head[v as usize], exact[v as usize]);
                    assert!((got - want).abs() <= 1e-12, "{name} u={u} v={v}: head {got}, exact {want}");
                    compared += usize::from(want > 0.0);
                }
            }
        }
    }
    assert!(compared > 10_000, "only {compared} positive heads compared");
}

#[test]
fn every_reported_hit_is_a_true_hit_scored_from_below() {
    let params = params();
    let mut hits = 0;
    for (name, g) in graphs() {
        let n = g.num_vertices() as usize;
        let dense = diagonal::uniform(n, params.c);
        let idx = TopKIndex::build_with(&g, &params, Diagonal::paper_default(params.c), 3, 2);
        let mut ctx = QueryContext::new(&g, &idx);
        for u in stats::sample_query_vertices(&g, 80, 11) {
            let exact = linearized::single_source(&g, u, &ExactParams::new(params.c, params.t), &dense);
            let res = ctx.query(u, 20, &QueryOptions::default());
            for h in &res.hits {
                let s = exact[h.vertex as usize];
                assert!(h.score >= params.theta, "{name} u={u}: {h:?} below θ");
                assert!(s >= h.score, "{name} u={u}: exact {s} below its head {h:?}");
                hits += 1;
            }
        }
    }
    assert!(hits > 100, "only {hits} hits checked");
}

#[test]
fn the_bound_answers_empty_only_when_no_head_reaches_theta() {
    let params = params();
    let mut empty = 0;
    for (name, g) in graphs() {
        let n = g.num_vertices() as usize;
        let dense = diagonal::uniform(n, params.c);
        let idx = TopKIndex::build_with(&g, &params, Diagonal::paper_default(params.c), 3, 2);
        let mut ctx = QueryContext::new(&g, &idx);
        // A high θ makes the bound fire on most queries, not only on hubs
        // and vertices without in-links.
        for theta in [params.theta, 0.05] {
            let opts = QueryOptions { theta: Some(theta), ..Default::default() };
            for u in 0..n as VertexId {
                let res = ctx.query(u, 20, &opts);
                if res.stats.head_empty == 0 {
                    continue;
                }
                empty += 1;
                assert!(res.hits.is_empty(), "{name} u={u}");
                assert_eq!(res.stats.candidates, 0, "{name} u={u}: {:?}", res.stats);
                let exact = linearized::single_source(&g, u, &ExactParams::new(params.c, 3), &dense);
                let max = (0..n).filter(|&v| v != u as usize).map(|v| exact[v]).fold(0.0, f64::max);
                assert!(max < theta, "{name} u={u} θ={theta}: the bound answered empty, max head {max}");
            }
        }
    }
    assert!(empty > 100, "the bound answered only {empty} queries");
}

#[test]
fn at_theta_zero_the_answer_is_the_support() {
    // The head's support is every v ≠ u with a positive head; at θ = 0 the
    // bound never fires and every member is reported.
    let params = params();
    for (name, g) in graphs() {
        let n = g.num_vertices() as usize;
        let dense = diagonal::uniform(n, params.c);
        let idx = TopKIndex::build_with(&g, &params, Diagonal::paper_default(params.c), 3, 2);
        let mut ctx = QueryContext::new(&g, &idx);
        for u in stats::sample_query_vertices(&g, 60, 5) {
            let exact = linearized::single_source(&g, u, &ExactParams::new(params.c, 3), &dense);
            let mut want: Vec<VertexId> =
                (0..n as VertexId).filter(|&v| v != u && exact[v as usize] > 0.0).collect();
            let opts = QueryOptions { theta: Some(0.0), ..Default::default() };
            let res = ctx.query(u, n, &opts);
            let mut got: Vec<VertexId> = res.hits.iter().map(|h| h.vertex).collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "{name} u={u}");
            let s = res.stats;
            assert_eq!(
                (s.candidates, s.reported, s.refined, s.head_empty),
                (got.len() as u64, got.len() as u64, 0, 0)
            );
            let ranked = |a: &Hit, b: &Hit| a.score > b.score || (a.score == b.score && a.vertex < b.vertex);
            assert!(res.hits.windows(2).all(|w| ranked(&w[0], &w[1])), "{name} u={u}: rank order");
        }
    }
}

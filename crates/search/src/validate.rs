//! Answer validation against the deterministic solver.
//!
//! Both estimators trade exactness for scale: the exact head drops the
//! series' tail, Algorithm 5 samples. On any graph small enough to run the
//! `O(Tm)`-per-query linearized solver, this module measures exactly what
//! was traded: recall of the deterministic top-k and score error of the
//! returned hits. Useful after tuning parameters (`R`, `P`, `Q`, θ under
//! [`crate::Estimator::Sampled`]; θ for the head) on a sample of a
//! production graph, and exposed through `srs validate` in the CLI (the
//! default options, so the served answers).

use crate::topk::{QueryContext, QueryOptions, TopKIndex};
use crate::SimRankParams;
use srs_graph::{Graph, VertexId};

/// Aggregate validation outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationReport {
    /// Queries evaluated.
    pub queries: usize,
    /// Mean recall of the deterministic top-k restricted to scores ≥ θ.
    pub recall: f64,
    /// Mean absolute score error over returned hits (head or MC estimate
    /// vs deterministic value).
    pub mean_abs_error: f64,
    /// Largest absolute score error observed.
    pub max_abs_error: f64,
    /// Mean number of hits returned per query.
    pub mean_hits: f64,
}

/// Validates `index` on `queries` by comparing [`QueryContext::query`]
/// output against `srs_exact::linearized::single_source` with the same
/// uniform diagonal, `k`, and threshold.
///
/// ```
/// use srs_search::{SimRankParams, TopKIndex, QueryOptions};
/// use srs_search::validate::validate_index;
///
/// let g = srs_graph::gen::copying_web(200, 4, 0.8, 1);
/// let params = SimRankParams { r_bounds: 200, ..Default::default() };
/// let index = TopKIndex::build(&g, &params, 7);
/// let queries = srs_graph::stats::sample_query_vertices(&g, 5, 2);
/// let report = validate_index(&g, &index, &queries, 10, &QueryOptions::default());
/// assert!(report.mean_abs_error < 0.1);
/// ```
pub fn validate_index(
    g: &Graph,
    index: &TopKIndex,
    queries: &[VertexId],
    k: usize,
    opts: &QueryOptions,
) -> ValidationReport {
    let params: &SimRankParams = index.params();
    let ep = srs_exact::ExactParams::new(params.c, params.t);
    let d = srs_exact::diagonal::uniform(g.num_vertices() as usize, params.c);
    let theta = opts.theta.unwrap_or(params.theta);
    let mut ctx = QueryContext::new(g, index);
    let mut recall_sum = 0.0;
    let mut recall_n = 0usize;
    let mut err_sum = 0.0;
    let mut err_n = 0usize;
    let mut err_max = 0.0f64;
    let mut hits_sum = 0usize;
    for &u in queries {
        let exact = srs_exact::linearized::single_source(g, u, &ep, &d);
        let res = ctx.query(u, k, opts);
        hits_sum += res.hits.len();
        for h in &res.hits {
            let e = (h.score - exact[h.vertex as usize]).abs();
            err_sum += e;
            err_max = err_max.max(e);
            err_n += 1;
        }
        let mut truth: Vec<(f64, VertexId)> = exact
            .iter()
            .enumerate()
            .filter(|&(v, &s)| v as VertexId != u && s >= theta)
            .map(|(v, &s)| (s, v as VertexId))
            .collect();
        truth.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite").then(a.1.cmp(&b.1)));
        truth.truncate(k);
        if truth.is_empty() {
            continue;
        }
        let got: Vec<VertexId> = res.hits.iter().map(|h| h.vertex).collect();
        let found = truth.iter().filter(|(_, v)| got.contains(v)).count();
        recall_sum += found as f64 / truth.len() as f64;
        recall_n += 1;
    }
    ValidationReport {
        queries: queries.len(),
        recall: if recall_n == 0 { 1.0 } else { recall_sum / recall_n as f64 },
        mean_abs_error: if err_n == 0 { 0.0 } else { err_sum / err_n as f64 },
        max_abs_error: err_max,
        mean_hits: if queries.is_empty() { 0.0 } else { hits_sum as f64 / queries.len() as f64 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Diagonal;
    use srs_graph::gen;

    #[test]
    fn healthy_index_validates_well() {
        let g = gen::copying_web(300, 5, 0.8, 9);
        let params = SimRankParams { r_bounds: 1_000, ..Default::default() };
        let index = TopKIndex::build_with(&g, &params, Diagonal::paper_default(params.c), 3, 2);
        let queries = srs_graph::stats::sample_query_vertices(&g, 20, 4);
        for opts in [QueryOptions::sampled(), QueryOptions::default()] {
            let report = validate_index(&g, &index, &queries, 10, &opts);
            assert_eq!(report.queries, 20);
            assert!(report.recall >= 0.6, "{report:?}");
            assert!(report.mean_abs_error < 0.05, "{report:?}");
            assert!(report.max_abs_error < 0.3, "{report:?}");
        }
    }

    #[test]
    fn starved_walk_budget_shows_up_as_error() {
        // With absurdly few walks the score error must visibly grow.
        let g = gen::copying_web(300, 5, 0.8, 9);
        let rich = SimRankParams { r_bounds: 500, ..Default::default() };
        let poor = SimRankParams { r_refine: 2, r_coarse: 1, r_bounds: 500, ..Default::default() };
        let queries = srs_graph::stats::sample_query_vertices(&g, 20, 4);
        let d = Diagonal::paper_default(0.6);
        let rich_idx = TopKIndex::build_with(&g, &rich, d.clone(), 3, 2);
        let poor_idx = TopKIndex::build_with(&g, &poor, d, 3, 2);
        let r1 = validate_index(&g, &rich_idx, &queries, 10, &QueryOptions::sampled());
        let r2 = validate_index(&g, &poor_idx, &queries, 10, &QueryOptions::sampled());
        assert!(r2.max_abs_error > r1.max_abs_error, "poor {r2:?} should err more than rich {r1:?}");
    }

    #[test]
    fn empty_query_set() {
        let g = gen::fixtures::claw();
        let params = SimRankParams::default();
        let index = TopKIndex::build_with(&g, &params, Diagonal::paper_default(params.c), 1, 1);
        let report = validate_index(&g, &index, &[], 5, &QueryOptions::default());
        assert_eq!(report.queries, 0);
        assert_eq!(report.recall, 1.0);
        assert_eq!(report.mean_hits, 0.0);
    }
}

//! Table 3 — accuracy of high-score retrieval vs Fogaras–Rácz.
//!
//! Protocol (§8.2): for each query vertex `u`, the *exact* method defines
//! the truth set `{v : s(u,v) ≥ θ}` for thresholds θ ∈ {0.04, …, 0.07}.
//! Each algorithm then reports its own high-score vertices, and the metric
//! is `|found ∩ truth| / |truth|`, averaged over queries.
//!
//! * Truth: true SimRank from the partial-sums solver.
//! * Proposed: Algorithm 5 with the query threshold set to θ and `k`
//!   unbounded (the paper: "our algorithm can be easily modified so that
//!   we only output high SimRank score vertices"). Reported twice:
//!   with the paper's `D = (1−c) I` (whose scores sit on a *different
//!   scale* than true SimRank — Figure 1's offset slope-one line — so an
//!   absolute threshold undershoots), and with the exact diagonal
//!   correction (Proposition 1), under which the same estimator is
//!   unbiased for true SimRank.
//! * Fogaras–Rácz: fingerprints with `R′ = 100` (§8.3's parameter),
//!   thresholding its single-source estimates at θ.

use super::Report;
use crate::{cache, metrics, ReproConfig};
use srs_baselines::fogaras::{FingerprintIndex, FogarasParams};
use srs_exact::{partial_sums, ExactParams};
use srs_graph::VertexId;
use srs_search::{QueryOptions, SimRankParams, TopKIndex};

/// The thresholds of Table 3.
pub const THRESHOLDS: [f64; 4] = [0.04, 0.05, 0.06, 0.07];

/// The datasets of Table 3.
pub const DATASETS: [&str; 4] = ["ca-GrQc", "as20000102", "wiki-Vote", "ca-HepTh"];

/// One accuracy row.
#[derive(Debug, Clone)]
pub struct AccuracyRow {
    /// Dataset name.
    pub dataset: &'static str,
    /// Threshold θ.
    pub threshold: f64,
    /// Proposed method's containment with the exact diagonal correction.
    pub proposed_exact_d: f64,
    /// Proposed method's containment with the paper's `D = (1−c) I`.
    pub proposed_uniform_d: f64,
    /// Fogaras–Rácz containment.
    pub fogaras: f64,
    /// Queries with a non-empty truth set.
    pub queries: usize,
}

/// Runs the full Table 3 grid.
pub fn run(cfg: &ReproConfig) -> Report {
    let mut r = Report::new("Table 3 — accuracy (fraction of exact high-score vertices recovered)");
    r.line(format!(
        "{:<14} {:>10} {:>16} {:>18} {:>14} {:>9}",
        "dataset", "threshold", "prop (exact D)", "prop (D=(1-c)I)", "Fogaras-Racz", "queries"
    ));
    r.line("-".repeat(90));
    let mut csv = String::from("dataset,threshold,proposed_exact_d,proposed_uniform_d,fogaras,queries\n");
    for rows in DATASETS.iter().map(|d| compute_one(cfg, d)) {
        for row in rows {
            r.line(format!(
                "{:<14} {:>10.2} {:>16.4} {:>18.4} {:>14.4} {:>9}",
                row.dataset,
                row.threshold,
                row.proposed_exact_d,
                row.proposed_uniform_d,
                row.fogaras,
                row.queries
            ));
            csv.push_str(&format!(
                "{},{},{:.5},{:.5},{:.5},{}\n",
                row.dataset,
                row.threshold,
                row.proposed_exact_d,
                row.proposed_uniform_d,
                row.fogaras,
                row.queries
            ));
        }
    }
    r.line(String::new());
    r.line("The D=(1-c)I column shows the absolute-threshold penalty of the paper's");
    r.line("approximation (its scores are uniformly smaller than true SimRank — the");
    r.line("Figure 1 offset); with the exact diagonal the same search matches the");
    r.line("paper's reported accuracy regime.");
    r.csv.push(("table3_accuracy.csv".into(), csv));
    r
}

/// Computes the four threshold rows of one dataset.
pub fn compute_one(cfg: &ReproConfig, name: &'static str) -> Vec<AccuracyRow> {
    let spec = srs_graph::datasets::by_name(name).expect("registry dataset");
    // The exact solver is O(n²): keep n in the low thousands.
    let scale = cfg.effective_scale(spec.paper_n).min(2_000.0 / spec.paper_n as f64);
    let g = cache::graph(spec, scale, cfg.seed);
    let n = g.num_vertices();
    let threads = std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1);

    // Ground truth: true SimRank.
    let ep = ExactParams::default();
    let exact = partial_sums::all_pairs(&g, &ep, threads);

    // Proposed, twice: the paper's uniform diagonal, and the exact
    // correction (Proposition 1) under which the estimator targets true
    // SimRank directly.
    let params = SimRankParams::default();
    let index_uniform = TopKIndex::build(&g, &params, cfg.seed ^ 0x7A);
    let d_exact = srs_exact::diagonal::estimate(&g, &ep, 1e-4, 100)
        .expect("diagonal system solvable on the accuracy graphs");
    let index_exact = TopKIndex::build_with(
        &g,
        &params,
        srs_search::Diagonal::PerVertex(std::sync::Arc::new(d_exact)),
        cfg.seed ^ 0x7A,
        threads,
    );

    // Fogaras-Racz: R' = 100 as in §8.3.
    let fr = FingerprintIndex::build(&g, &FogarasParams::default(), cfg.seed ^ 0x7B, u64::MAX)
        .expect("small graph fits any budget");

    let queries = srs_graph::stats::sample_query_vertices(&g, cfg.accuracy_queries, cfg.seed ^ 0x7C);
    let mut ctx_uniform = srs_search::topk::QueryContext::new(&g, &index_uniform);
    let mut ctx_exact = srs_search::topk::QueryContext::new(&g, &index_exact);
    THRESHOLDS
        .iter()
        .map(|&theta| {
            let mut exact_acc = Vec::new();
            let mut uniform_acc = Vec::new();
            let mut fr_acc = Vec::new();
            for &u in &queries {
                let truth: Vec<VertexId> =
                    (0..n).filter(|&v| v != u && exact.get(u as usize, v as usize) >= theta).collect();
                if truth.is_empty() {
                    continue;
                }
                // Proposed: threshold-θ query, k unbounded.
                let opts = QueryOptions { theta: Some(theta), ..QueryOptions::sampled() };
                for (ctx, acc) in [(&mut ctx_exact, &mut exact_acc), (&mut ctx_uniform, &mut uniform_acc)] {
                    let res = ctx.query(u, n as usize, &opts);
                    let found: Vec<VertexId> = res.hits.iter().map(|h| h.vertex).collect();
                    acc.push(metrics::containment(&truth, &found));
                }
                // Fogaras-Racz: threshold its single-source estimates.
                let fr_scores = fr.single_source(u);
                let fr_found: Vec<VertexId> =
                    (0..n).filter(|&v| v != u && fr_scores[v as usize] >= theta).collect();
                fr_acc.push(metrics::containment(&truth, &fr_found));
            }
            AccuracyRow {
                dataset: name,
                threshold: theta,
                proposed_exact_d: metrics::mean(&exact_acc),
                proposed_uniform_d: metrics::mean(&uniform_acc),
                fogaras: metrics::mean(&fr_acc),
                queries: fr_acc.len(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_in_paper_range_on_collaboration_graph() {
        let cfg = ReproConfig { max_vertices: 900, accuracy_queries: 30, ..Default::default() };
        let rows = compute_one(&cfg, "ca-GrQc");
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert!(row.queries > 0, "{row:?}");
            // The paper reports 0.92–0.995 on these graphs; allow the
            // scaled-down analogue some noise but demand "high" with the
            // exact diagonal, and at least moderate with D = (1-c)I
            // (whose scores undershoot the absolute threshold).
            assert!(row.proposed_exact_d >= 0.75, "exact-D accuracy too low: {row:?}");
            assert!(row.proposed_uniform_d >= 0.4, "uniform-D accuracy too low: {row:?}");
            assert!(row.fogaras >= 0.6, "fogaras accuracy too low: {row:?}");
            assert!(row.proposed_exact_d <= 1.0 && row.fogaras <= 1.0);
        }
        crate::cache::clear();
    }
}

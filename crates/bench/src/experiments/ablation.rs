//! Ablations of the design choices (DESIGN.md §4).
//!
//! The paper argues each ingredient earns its keep: the L1 bound for
//! low-degree queries, the L2 bound for high-degree queries, the adaptive
//! two-stage sampling, and the candidate index (vs scanning the distance
//! ball). This experiment measures query time and retained recall for each
//! configuration on a web graph and a social graph, against the
//! everything-off configuration as the recall reference.
//!
//! The query path does not run the L2 bound (Algorithm 3), so it has no
//! row of its own. Instead each dataset builds its own [`GammaTable`] and
//! reports the share of the full-paper run's enumerated candidates whose
//! L2 bound falls below θ — the candidates Algorithm 3 could prune at
//! best. Its `t = 0` term `√(D_u D_v) ≥ 1 − c` keeps that share at 0
//! under the paper's diagonal for any `θ < 1 − c`.
//!
//! "L1 only" measures the L1 bound as the query path runs it: the
//! per-query table is built only when the candidate count lets it pay for
//! its walks (`|C| · 2 · r_refine > r_bounds` without adaptive sampling,
//! more than 50 candidates at the defaults), so smaller queries run that
//! row with the distance bound alone.

use super::Report;
use crate::{cache, metrics, ReproConfig};
use srs_graph::VertexId;
use srs_search::bounds::GammaTable;
use srs_search::{Diagonal, QueryOptions, SimRankParams, TopKIndex};

/// One ablation configuration.
#[derive(Debug, Clone)]
pub struct Variant {
    /// Display name.
    pub name: &'static str,
    /// The options it runs with.
    pub opts: QueryOptions,
}

/// The sweep grid.
pub fn variants() -> Vec<Variant> {
    let base = QueryOptions::default();
    vec![
        Variant { name: "full (paper)", opts: base.clone() },
        Variant {
            name: "no pruning at all",
            opts: QueryOptions { use_distance_bound: false, use_l1: false, adaptive: false, ..base.clone() },
        },
        Variant {
            name: "only c^d bound",
            opts: QueryOptions { use_l1: false, adaptive: false, ..base.clone() },
        },
        Variant { name: "L1 only", opts: QueryOptions { adaptive: false, ..base.clone() } },
        Variant {
            name: "ball-augmented (ext.)",
            opts: QueryOptions { candidate_ball: Some(2), ..base.clone() },
        },
        // The pair that shows when pruning pays: with the distance-2 ball
        // the candidate set is large, and bounds + adaptive sampling are
        // what keep the query cheap.
        Variant {
            name: "ball, no pruning",
            opts: QueryOptions {
                candidate_ball: Some(2),
                use_distance_bound: false,
                use_l1: false,
                adaptive: false,
                ..base
            },
        },
    ]
}

/// One measured ablation row.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Dataset name.
    pub dataset: &'static str,
    /// Variant name.
    pub variant: &'static str,
    /// Mean query time.
    pub query: std::time::Duration,
    /// Jaccard overlap of the returned top-k with the no-pruning variant.
    pub agreement: f64,
    /// Mean candidates refined per query.
    pub refined: f64,
}

/// How far Algorithm 3 reaches on one dataset: the full-paper run's
/// enumerated candidates, and how many of them have an L2 bound below θ.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct L2Reach {
    /// Candidates enumerated by the full-paper variant over all queries.
    pub candidates: u64,
    /// Of those, the ones with `Σ_t cᵗ γ(u,t) γ(v,t) < θ`.
    pub below_theta: u64,
}

/// Runs the grid on a web and a social analogue.
pub fn run(cfg: &ReproConfig) -> Report {
    let mut r = Report::new("Ablation — pruning & sampling design choices");
    r.line(format!(
        "{:<18} {:<22} {:>12} {:>12} {:>10}",
        "dataset", "variant", "query time", "agreement", "refined"
    ));
    r.line("-".repeat(80));
    let mut csv = String::from("dataset,variant,query_s,agreement,refined_per_query\n");
    let mut reach = Vec::new();
    for dataset in ["web-Stanford", "soc-Epinions1"] {
        let (rows, l2) = compute_one(cfg, dataset);
        let share = l2.below_theta as f64 / l2.candidates.max(1) as f64;
        reach.push(format!(
            "{dataset:<18} L2 bound below θ: {} of {} full-paper candidates ({share:.4})",
            l2.below_theta, l2.candidates
        ));
        for row in rows {
            r.line(format!(
                "{:<18} {:<22} {:>12} {:>12.3} {:>10.1}",
                row.dataset,
                row.variant,
                metrics::fmt_duration(row.query),
                row.agreement,
                row.refined
            ));
            csv.push_str(&format!(
                "{},{},{:.6},{:.4},{:.2}\n",
                row.dataset,
                row.variant,
                row.query.as_secs_f64(),
                row.agreement,
                row.refined
            ));
        }
        cache::clear();
    }
    r.line("-".repeat(80));
    for line in reach {
        r.line(line);
    }
    r.csv.push(("ablation.csv".into(), csv));
    r
}

/// Measures every variant on one dataset, and how far the L2 bound
/// would reach on the full-paper variant's candidates.
pub fn compute_one(cfg: &ReproConfig, name: &'static str) -> (Vec<AblationRow>, L2Reach) {
    let spec = srs_graph::datasets::by_name(name).expect("registry dataset");
    let scale = cfg.effective_scale(spec.paper_n).min(20_000.0 / spec.paper_n as f64);
    let g = cache::graph(spec, scale, cfg.seed);
    let params = SimRankParams::default();
    let index = TopKIndex::build(&g, &params, cfg.seed ^ 0x5A);
    let queries = srs_graph::stats::sample_query_vertices(&g, cfg.timing_queries.max(5), cfg.seed ^ 0x5B);
    let mut ctx = srs_search::topk::QueryContext::new(&g, &index);
    let k = 20;

    // Reference: the unpruned result per query.
    let reference: Vec<Vec<VertexId>> = {
        let open = variants()[1].opts.clone();
        queries.iter().map(|&u| ctx.query(u, k, &open).hits.iter().map(|h| h.vertex).collect()).collect()
    };

    // Algorithm 3 on the side: every candidate the full-paper scan
    // enumerates (the explain trace lists each once) against its L2 bound.
    let threads = std::thread::available_parallelism().map_or(1, |v| v.get());
    let gamma = GammaTable::build(&g, &params, &Diagonal::paper_default(params.c), cfg.seed ^ 0x5C, threads);
    let explain = QueryOptions { explain: true, ..variants()[0].opts.clone() };
    let mut l2 = L2Reach::default();
    for &u in &queries {
        for rec in ctx.query(u, k, &explain).explain.expect("explain requested").records {
            l2.candidates += 1;
            l2.below_theta += (gamma.l2_bound(u, rec.vertex, params.c) < params.theta) as u64;
        }
    }

    let rows = variants()
        .into_iter()
        .map(|variant| {
            let mut refined = 0u64;
            let mut agreement = Vec::new();
            let (results, total) = metrics::timed(|| {
                queries.iter().map(|&u| ctx.query(u, k, &variant.opts)).collect::<Vec<_>>()
            });
            for (res, truth) in results.iter().zip(&reference) {
                refined += res.stats.refine_calls();
                let got: Vec<VertexId> = res.hits.iter().map(|h| h.vertex).collect();
                agreement.push(metrics::containment(truth, &got));
            }
            AblationRow {
                dataset: name,
                variant: variant.name,
                query: total / queries.len().max(1) as u32,
                agreement: metrics::mean(&agreement),
                refined: refined as f64 / queries.len().max(1) as f64,
            }
        })
        .collect();
    (rows, l2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_bounds() {
        let v = variants();
        assert!(v.len() >= 6);
        assert!(v.iter().any(|x| x.name.contains("L1 only")));
        // Algorithm 3 is reported as its own line, one per dataset.
        let cfg = ReproConfig { max_vertices: 1_000, timing_queries: 5, ..Default::default() };
        let report = run(&cfg).render();
        for dataset in ["web-Stanford", "soc-Epinions1"] {
            let line = report
                .lines()
                .find(|l| l.starts_with(dataset) && l.contains("L2 bound below θ"))
                .unwrap_or_else(|| panic!("no L2 line for {dataset}:\n{report}"));
            assert!(!line.contains(" 0 of 0 "), "no candidates enumerated: {line}");
        }
    }

    #[test]
    fn pruned_variants_agree_with_reference() {
        let cfg = ReproConfig { max_vertices: 2_000, timing_queries: 5, ..Default::default() };
        let (rows, _) = compute_one(&cfg, "web-Stanford");
        for row in &rows {
            // Pruning is supposed to be (nearly) lossless.
            assert!(row.agreement >= 0.75, "{row:?}");
        }
        // Full pruning should refine no more candidates than no pruning.
        let full = rows.iter().find(|r| r.variant == "full (paper)").unwrap();
        let open = rows.iter().find(|r| r.variant == "no pruning at all").unwrap();
        assert!(full.refined <= open.refined + 1e-9, "{full:?} vs {open:?}");
        crate::cache::clear();
    }
}

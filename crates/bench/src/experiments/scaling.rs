//! Scaling sweep — the paper's §2.2/§8.1 claims, measured directly:
//!
//! * preprocess time grows **linearly** in `n`;
//! * index size grows **linearly** in `n` (`O(n)` claim, Table 1);
//! * query time is governed by structure, **not** size (flat-ish in `n`);
//! * the all-vertices driver parallelizes near-linearly in threads
//!   ("if there are M machines, the running time is reduced by M").

use super::Report;
use crate::{cache, metrics, ReproConfig};
use srs_search::{Dataset, QueryOptions, ServingEngine, SimRankParams, TopKIndex};
use std::time::Duration;

/// One size point of the sweep.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Vertices.
    pub n: u32,
    /// Edges.
    pub m: u64,
    /// Preprocess wall time.
    pub preprocess: Duration,
    /// Mean query time (k = 20).
    pub query: Duration,
    /// Index bytes.
    pub index_bytes: u64,
}

/// Sweeps the web-Google analogue over a geometric size ladder.
pub fn sweep(cfg: &ReproConfig, sizes: &[f64]) -> Vec<ScalePoint> {
    let spec = srs_graph::datasets::by_name("web-Google").expect("registry dataset");
    sizes
        .iter()
        .map(|&scale| {
            let g = cache::graph(spec, scale, cfg.seed);
            let params = SimRankParams::default();
            let (index, preprocess) = metrics::timed(|| TopKIndex::build(&g, &params, cfg.seed));
            let index_bytes = index.memory_bytes();
            let queries = srs_graph::stats::sample_query_vertices(&g, cfg.timing_queries, cfg.seed ^ 1);
            let dataset = Dataset::from_arcs(g.clone(), index.into()).expect("index built for this graph");
            // Single engine worker: the sweep charts per-query latency
            // against n, so parallel throughput would only obscure it.
            let engine = ServingEngine::with_threads(dataset, 1);
            let batch = engine.query_batch(&queries, 20, &QueryOptions::sampled());
            ScalePoint {
                n: g.num_vertices(),
                m: g.num_edges(),
                preprocess,
                query: batch.latency.mean,
                index_bytes,
            }
        })
        .collect()
}

/// Thread-scaling of the all-vertices driver on one mid-size graph.
pub fn thread_sweep(cfg: &ReproConfig, threads: &[usize]) -> Vec<(usize, Duration)> {
    let spec = srs_graph::datasets::by_name("web-Stanford").expect("registry dataset");
    let g = cache::graph(spec, cfg.effective_scale(spec.paper_n).min(0.02), cfg.seed);
    let params = SimRankParams::default();
    let index = TopKIndex::build(&g, &params, cfg.seed);
    let dataset = Dataset::from_arcs(g, index.into()).expect("index built for this graph");
    threads
        .iter()
        .map(|&t| {
            let (_, d) = metrics::timed(|| {
                srs_search::all_vertices::all_topk(&dataset, 20, &QueryOptions::sampled(), t)
            });
            (t, d)
        })
        .collect()
}

/// Runs both sweeps and renders the report.
pub fn run(cfg: &ReproConfig) -> Report {
    let mut r = Report::new("Scaling — preprocess O(n), flat queries, parallel all-vertices");
    let sizes = [0.005, 0.01, 0.02, 0.04];
    let points = sweep(cfg, &sizes);
    r.line(format!("{:>10} {:>12} {:>12} {:>12} {:>12}", "n", "m", "preprocess", "query", "index"));
    r.line("-".repeat(64));
    let mut csv = String::from("n,m,preprocess_s,query_s,index_bytes\n");
    for p in &points {
        r.line(format!(
            "{:>10} {:>12} {:>12} {:>12} {:>12}",
            p.n,
            p.m,
            metrics::fmt_duration(p.preprocess),
            metrics::fmt_duration(p.query),
            metrics::fmt_bytes(p.index_bytes)
        ));
        csv.push_str(&format!(
            "{},{},{:.5},{:.6},{}\n",
            p.n,
            p.m,
            p.preprocess.as_secs_f64(),
            p.query.as_secs_f64(),
            p.index_bytes
        ));
    }
    r.line(String::new());
    let cores = std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1);
    let ladder: Vec<usize> = [1usize, 2, 4, 8].iter().copied().filter(|&t| t <= cores).collect();
    r.line("all-vertices top-20, threads vs wall time:");
    let mut prev: Option<Duration> = None;
    for (t, d) in thread_sweep(cfg, &ladder) {
        let speedup = prev.map(|p| p.as_secs_f64() / d.as_secs_f64());
        r.line(format!(
            "  threads={t:<3} {:<10} {}",
            metrics::fmt_duration(d),
            speedup.map(|s| format!("(x{s:.2} vs previous)")).unwrap_or_default()
        ));
        if prev.is_none() {
            prev = Some(d);
        }
        csv.push_str(&format!("threads_{t},,{:.5},,\n", d.as_secs_f64()));
    }
    r.csv.push(("scaling.csv".into(), csv));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_size_grows_linearly() {
        let cfg = ReproConfig { timing_queries: 4, ..Default::default() };
        let points = sweep(&cfg, &[0.002, 0.008]);
        assert_eq!(points.len(), 2);
        let (a, b) = (&points[0], &points[1]);
        let n_ratio = b.n as f64 / a.n as f64;
        // Index size scales linearly (±2x slack for per-vertex variance).
        let idx_ratio = b.index_bytes as f64 / a.index_bytes as f64;
        assert!(
            idx_ratio < n_ratio * 2.0 && idx_ratio > n_ratio / 2.0,
            "index ratio {idx_ratio} vs n ratio {n_ratio}"
        );
        crate::cache::clear();
    }
}

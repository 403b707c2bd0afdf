//! Per-layer timings taken by calling the layers' public functions on
//! the same inputs the workload feeds the `srs` binary, plus the exact
//! ground truth recall is scored against. Nothing here is on an
//! end-to-end clock.

use crate::stats::median;
use srs_graph::{Graph, GraphDelta, VertexId};
use srs_search::bounds::GammaTable;
use srs_search::index::CandidateIndex;
use srs_search::{snapshot, Dataset, Diagonal, SimRankParams};
use std::path::Path;
use std::time::Instant;

/// Repetitions per layer timing; the median is reported.
const REPS: usize = 3;

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Setup layers of the graph `g` the workload generated: the two
/// preprocess stages (on one thread, with the seeds `srs preprocess`
/// derives), packing and loading. Generation is timed as the `srs
/// generate` process itself, by the caller.
pub fn setup(g: &Graph, index_seed: u64, snap: &Path) -> Vec<(String, f64)> {
    let params = SimRankParams::default();
    let diag = Diagonal::paper_default(params.c);
    let mut gamma_ms = Vec::new();
    let mut index_ms = Vec::new();
    let mut pack_ms = Vec::new();
    let mut load_ms = Vec::new();
    let (ds, _) = Dataset::load(snap).expect("the workload's snapshot loads");
    for _ in 0..REPS {
        let t = Instant::now();
        let seed = srs_graph::hash::mix_seed(&[index_seed, 1]);
        std::hint::black_box(GammaTable::build(g, &params, &diag, seed, 1));
        gamma_ms.push(ms_since(t));
        let t = Instant::now();
        let seed = srs_graph::hash::mix_seed(&[index_seed, 2]);
        std::hint::black_box(CandidateIndex::build(g, &params, seed, 1));
        index_ms.push(ms_since(t));
        let t = Instant::now();
        std::hint::black_box(snapshot::pack_to_bytes(ds.graph(), ds.index()));
        pack_ms.push(ms_since(t));
        let t = Instant::now();
        std::hint::black_box(
            snapshot::load_snapshot(snap, &Default::default()).expect("the workload's snapshot loads"),
        );
        load_ms.push(ms_since(t));
    }
    vec![
        ("search.gamma_build_ms".into(), median(&gamma_ms)),
        ("search.index_build_ms".into(), median(&index_ms)),
        ("search.pack_ms".into(), median(&pack_ms)),
        ("search.load_ms".into(), median(&load_ms)),
        ("search.index_bytes".into(), ds.index().memory_bytes() as f64),
    ]
}

/// One edit batch's ingest layers, replayed in-process (medians of
/// [`REPS`] repetitions).
#[derive(Debug, Clone, Copy)]
pub struct IngestTiming {
    pub apply_ms: f64,
    pub extend_ms: f64,
    /// `build_delta` minus its apply and extend: the delta encoding. A
    /// difference of medians, so it can dip below 0 when encoding is
    /// cheaper than the noise in the other two.
    pub encode_ms: f64,
    pub dirty_rows: u32,
}

/// Replays `batches` in order from the snapshot at `snap`, the way the
/// server's ingest does: apply, repair at `depth` on one thread, encode.
pub fn ingest(snap: &Path, batches: &[String], depth: u32) -> Vec<IngestTiming> {
    let (mut ds, _) = Dataset::load(snap).expect("the workload's snapshot loads");
    let mut out = Vec::with_capacity(batches.len());
    for text in batches {
        let batch = GraphDelta::parse_text(text).expect("generated batches parse");
        let (mut apply, mut extend, mut build) = (Vec::new(), Vec::new(), Vec::new());
        let mut dirty_rows = 0;
        let mut next = None;
        for _ in 0..REPS {
            let t = Instant::now();
            let new = batch.apply(ds.graph()).expect("generated batches apply");
            apply.push(ms_since(t));
            let t = Instant::now();
            let ext =
                srs_search::extend_delta(ds.index(), ds.graph(), &new, depth, 1).expect("append-only batch");
            extend.push(ms_since(t));
            dirty_rows = ext.stats.dirty;
            let t = Instant::now();
            next = Some(srs_search::build_delta(&ds, &batch, depth, 1, 0).expect("delta builds"));
            build.push(ms_since(t));
        }
        let (apply_ms, extend_ms) = (median(&apply), median(&extend));
        out.push(IngestTiming {
            apply_ms,
            extend_ms,
            encode_ms: median(&build) - apply_ms - extend_ms,
            dirty_rows,
        });
        ds = next.expect("at least one repetition").dataset;
    }
    out
}

/// The graph after applying `batches` to `g` in order.
pub fn apply_all(g: &Graph, batches: &[String]) -> Graph {
    batches.iter().fold(g.clone(), |cur, text| {
        GraphDelta::parse_text(text).expect("generated batches parse").apply(&cur).expect("applies")
    })
}

/// Exact top-`k` (linearized solver, same `c` and `T` as the index)
/// among vertices scoring at least θ — the set a correct answer should
/// report. Computed once per run, off every clock.
pub fn exact_topk(g: &Graph, u: VertexId, k: usize) -> Vec<VertexId> {
    let params = SimRankParams::default();
    let ep = srs_exact::ExactParams::new(params.c, params.t);
    let d = srs_exact::diagonal::uniform(g.num_vertices() as usize, params.c);
    let scores = srs_exact::linearized::single_source(g, u, &ep, &d);
    let mut truth: Vec<(f64, VertexId)> = scores
        .iter()
        .enumerate()
        .filter(|&(v, &s)| v as VertexId != u && s >= params.theta)
        .map(|(v, &s)| (s, v as VertexId))
        .collect();
    truth.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    truth.truncate(k);
    truth.into_iter().map(|(_, v)| v).collect()
}

/// Mean recall of `answers` (`(query, reported vertices)`) against the
/// exact top-`k`, over queries whose exact set is non-empty. Returns the
/// recall and the number of queries it averages. The exact solves are
/// the slowest part of a run's checks, so they are split over up to two
/// threads (the host's vCPUs; nothing is timed meanwhile).
pub fn recall(g: &Graph, answers: &[(VertexId, Vec<VertexId>)], k: usize) -> (f64, usize) {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()).min(2);
    let per_thread = answers.len().div_ceil(threads).max(1);
    let parts: Vec<(f64, usize)> = std::thread::scope(|s| {
        let handles: Vec<_> = answers
            .chunks(per_thread)
            .map(|part| {
                s.spawn(move || {
                    let mut sum = 0.0;
                    let mut scored = 0;
                    for (u, got) in part {
                        let truth = exact_topk(g, *u, k);
                        if truth.is_empty() {
                            continue;
                        }
                        sum += truth.iter().filter(|v| got.contains(v)).count() as f64 / truth.len() as f64;
                        scored += 1;
                    }
                    (sum, scored)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("recall thread panicked")).collect()
    });
    let (sum, scored) = parts.iter().fold((0.0, 0), |acc, p| (acc.0 + p.0, acc.1 + p.1));
    (if scored == 0 { 1.0 } else { sum / scored as f64 }, scored)
}

#[cfg(test)]
mod tests {
    use super::*;
    use srs_graph::gen;

    #[test]
    fn exact_answers_score_full_recall() {
        let g = gen::copying_web(400, 5, 0.8, 9);
        let answers: Vec<(VertexId, Vec<VertexId>)> =
            (0..20).filter(|&u| g.in_degree(u) > 0).map(|u| (u, exact_topk(&g, u, 20))).collect();
        let (r, scored) = recall(&g, &answers, 20);
        assert!(scored > 0);
        assert_eq!(r, 1.0);
        let empty: Vec<(VertexId, Vec<VertexId>)> = answers.iter().map(|(u, _)| (*u, vec![])).collect();
        assert_eq!(recall(&g, &empty, 20).0, 0.0);
    }
}

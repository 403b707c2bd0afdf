//! Whole-pipeline determinism: identical seeds must give bit-identical
//! results regardless of thread count, build order, or persistence
//! round-trips. Reproducible experiments — and debuggable incidents —
//! depend on this property, so it gets its own suite.

use simrank_search::baselines::fogaras::{FingerprintIndex, FogarasParams};
use simrank_search::graph::gen;
use simrank_search::graph::Graph;
use simrank_search::search::{Dataset, Diagonal, QueryOptions, ServingEngine, SimRankParams, TopKIndex};

fn params() -> SimRankParams {
    SimRankParams { r_bounds: 200, ..Default::default() }
}

/// A serving engine over copies of `g` and `idx`.
fn engine(g: &Graph, idx: &TopKIndex, threads: usize) -> ServingEngine {
    ServingEngine::with_threads(Dataset::new(g.clone(), idx.clone()).unwrap(), threads)
}

#[test]
fn build_is_deterministic_across_thread_counts() {
    let g = gen::copying_web(400, 4, 0.8, 11);
    let p = params();
    let d = Diagonal::paper_default(p.c);
    let a = TopKIndex::build_with(&g, &p, d.clone(), 77, 1);
    let b = TopKIndex::build_with(&g, &p, d.clone(), 77, 3);
    let c = TopKIndex::build_with(&g, &p, d, 77, 8);
    assert_eq!(a.candidate_index(), b.candidate_index());
    assert_eq!(b.candidate_index(), c.candidate_index());
}

#[test]
fn queries_identical_after_save_load_cycles() {
    let g = gen::preferential_attachment_windowed(500, 5, 200, 3);
    let p = params();
    let idx = TopKIndex::build_with(&g, &p, Diagonal::paper_default(p.c), 5, 2);
    // Two serialize/deserialize cycles.
    let mut buf1 = Vec::new();
    simrank_search::search::persist::save(&idx, &mut buf1).unwrap();
    let r1 = simrank_search::search::persist::load(&buf1[..]).unwrap();
    let mut buf2 = Vec::new();
    simrank_search::search::persist::save(&r1, &mut buf2).unwrap();
    assert_eq!(buf1, buf2, "persistence must be byte-stable");
    let r2 = simrank_search::search::persist::load(&buf2[..]).unwrap();
    for u in [0u32, 100, 499] {
        let q0 = idx.query(&g, u, 10, &QueryOptions::default());
        let q2 = r2.query(&g, u, 10, &QueryOptions::default());
        assert_eq!(q0.hits, q2.hits, "u={u}");
        assert_eq!(q0.stats, q2.stats, "u={u}");
    }
}

#[test]
fn batch_engine_bit_identical_across_thread_counts() {
    // The tentpole guarantee of the serving layer: for a fixed index seed,
    // ServingEngine::query_batch returns bit-identical hits and stats on 1,
    // 2, and 8 threads, and each of them equals the sequential
    // TopKIndex::query answer — randomness is per query, never per worker.
    let g = gen::copying_web(350, 4, 0.8, 13);
    let p = params();
    let idx = TopKIndex::build_with(&g, &p, Diagonal::paper_default(p.c), 21, 2);
    let queries: Vec<u32> = (0..60).map(|i| i * 5 % 350).collect();
    let opts = QueryOptions::default();
    let batches: Vec<_> = [1usize, 2, 8]
        .into_iter()
        .map(|threads| engine(&g, &idx, threads).query_batch(&queries, 10, &opts))
        .collect();
    for batch in &batches[1..] {
        for (a, b) in batches[0].results.iter().zip(&batch.results) {
            assert_eq!(a.hits, b.hits);
            assert_eq!(a.stats, b.stats);
        }
        assert_eq!(batches[0].totals, batch.totals);
    }
    for (&u, res) in queries.iter().zip(&batches[0].results) {
        let seq = idx.query(&g, u, 10, &opts);
        assert_eq!(seq.hits, res.hits, "u={u}");
        assert_eq!(seq.stats, res.stats, "u={u}");
    }
}

#[test]
fn batch_engine_pool_reuse_does_not_perturb_results() {
    // Scratch states recycled through the pool (and reused output buffers)
    // must answer later batches exactly as a cold engine would.
    let g = gen::copying_web(250, 4, 0.8, 7);
    let p = params();
    let idx = TopKIndex::build_with(&g, &p, Diagonal::paper_default(p.c), 9, 2);
    let opts = QueryOptions { candidate_ball: Some(2), ..Default::default() };
    let warm = engine(&g, &idx, 4);
    let queries: Vec<u32> = (0..40).collect();
    // Warm the pool on an unrelated workload first.
    let warmup: Vec<u32> = (200..250).collect();
    let mut out = simrank_search::search::BatchResult::new();
    warm.query_batch_into(&warmup, 7, &opts, &mut out);
    warm.query_batch_into(&queries, 7, &opts, &mut out);
    let cold = engine(&g, &idx, 4).query_batch(&queries, 7, &opts);
    for ((a, b), &u) in cold.results.iter().zip(&out.results).zip(&queries) {
        assert_eq!(a.hits, b.hits, "u={u}");
        assert_eq!(a.stats, b.stats, "u={u}");
    }
    assert_eq!(cold.totals, out.totals);
}

#[test]
fn generators_stable_across_repeated_invocations() {
    // A registry dataset generated twice in different order with other
    // generators interleaved must not change.
    let spec = simrank_search::graph::datasets::by_name("web-Stanford").unwrap();
    let first = spec.generate(0.003, 9);
    let _noise = gen::erdos_renyi(100, 300, 1);
    let _noise2 = gen::collaboration(50, 3, 0.5, 2);
    let second = spec.generate(0.003, 9);
    assert_eq!(first, second);
}

#[test]
fn fogaras_deterministic_and_independent_of_query_order() {
    let g = gen::copying_web(200, 4, 0.8, 5);
    let p = FogarasParams { r_prime: 50, ..Default::default() };
    let idx = FingerprintIndex::build(&g, &p, 31, u64::MAX).unwrap();
    let forward: Vec<f64> = (0..200u32).map(|v| idx.single_pair(7, v)).collect();
    let backward: Vec<f64> = (0..200u32).rev().map(|v| idx.single_pair(7, v)).collect();
    let backward_fixed: Vec<f64> = backward.into_iter().rev().collect();
    assert_eq!(forward, backward_fixed);
}

#[test]
fn mc_estimates_do_not_depend_on_prior_estimator_use() {
    // Estimator state (reused buffers) must not leak between calls.
    let g = gen::copying_web(300, 4, 0.8, 2);
    let p = params();
    let d = Diagonal::paper_default(p.c);
    let mut fresh = simrank_search::search::SinglePairEstimator::new(&g, d.clone());
    let clean = fresh.estimate(10, 20, &p, 100, 42);
    let mut warmed = simrank_search::search::SinglePairEstimator::new(&g, d);
    for v in 0..50u32 {
        warmed.estimate(5, v, &p, 10, v as u64);
    }
    assert_eq!(warmed.estimate(10, 20, &p, 100, 42), clean);
}

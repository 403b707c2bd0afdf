//! Scatter-gather serving over a [`ShardedDataset`]: one
//! [`ServingEngine`] per vertex-range shard behind a single
//! hot-swappable handle, merging per-shard top-k lists bit-identically
//! to an unsharded scan.
//!
//! # Why the merge is exact
//!
//! Shards partition only the *inverted* candidate map by vertex range
//! (see [`crate::snapshot::pack_sharded`]): every shard shares the
//! graph, γ table, diagonal, and forward candidate map, so for one
//! query vertex `u` the shards enumerate **disjoint** candidate sets
//! whose union is exactly the unsharded candidate set. The sharded
//! engine forces [`QueryOptions::kth_prune`] off, which makes every
//! per-candidate decision a pure function of `(u, v, θ)` — independent
//! of scan order and of which other candidates share the shard — and
//! every estimate seed is already per-pair (`mix_seed(seed, u, v)`).
//! Each shard therefore reports exactly its slice of "all candidates
//! with refined score ≥ θ", retaining its top k under the engine's
//! total order (score, then vertex id). The global top k under that
//! order is a subset of the union of per-shard top k's, so re-selecting
//! k from the concatenation reproduces the unsharded hit list bit for
//! bit. The CI pin compares `--hits-out` across shard counts to keep
//! this argument honest.
//!
//! The optional candidate ball ([`QueryOptions::candidate_ball`]) keeps
//! the partition too: each shard adds only the ball vertices in its own
//! range ([`crate::index::CandidateIndex::holds`]).
//!
//! What is *not* partition-invariant: each shard runs its own query BFS
//! and wave formation. The BFS stops once the shard's own candidates
//! have distances (and the candidate ball is complete), so a shard
//! visits about as much of the graph as an unsharded query with its
//! candidate subset would — the shards' `bfs_visited` overlap near the
//! query vertex, and the merged sum lies between one unsharded run and
//! `N×` it; `waves` is likewise per shard (the fate counters —
//! pruned/refined/reported — do sum exactly). The deterministic fast
//! tier scores vertices without consulting the inverted map, so it is
//! forced off under sharding, as are explain traces (they would
//! interleave per-shard scans).

use crate::engine::{ServingEngine, WaveOutcome, WaveQuery};
use crate::obs::ServingMetrics;
use crate::persist::PersistError;
use crate::snapshot::{Dataset, Loaded, ShardedDataset};
use crate::topk::{FastTier, Hit, QueryOptions, TopKResult};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One installed generation of a sharded engine: the per-shard engines
/// (each pinning its shard's dataset and scratch pool) plus the
/// generation number they were installed as.
struct ShardedState {
    engines: Vec<ServingEngine>,
    generation: u64,
}

/// A hot-swappable scatter-gather engine over a [`ShardedDataset`].
///
/// Mirrors [`ServingEngine`]'s serving surface (waves in, merged
/// results out, atomic [`ShardedEngine::swap`]) but fans each wave out
/// to every shard and k-way merges the per-shard hit lists. Per-shard
/// engines run with metrics disabled; the sharded engine owns the one
/// [`ServingMetrics`] instance and records merged per-request
/// observations, so scrapes see request-level numbers, not `N` copies.
///
/// There is no result cache at this level ([`set_cache_capacity`] is a
/// no-op): per-shard caches would key on the transformed options and
/// the merge is cheap relative to the scans.
///
/// [`set_cache_capacity`]: ShardedEngine::set_cache_capacity
pub struct ShardedEngine {
    current: Mutex<Arc<ShardedState>>,
    threads: usize,
    metrics: Arc<ServingMetrics>,
    metrics_on: bool,
    generation: AtomicU64,
}

impl ShardedEngine {
    /// An engine using all available parallelism.
    pub fn new(dataset: ShardedDataset) -> Self {
        let threads = std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1);
        Self::with_threads(dataset, threads)
    }

    /// An engine splitting a total worker budget of `threads` across the
    /// shards (each shard engine gets `max(1, threads / shards)` — the
    /// shards themselves run concurrently per wave).
    pub fn with_threads(dataset: ShardedDataset, threads: usize) -> Self {
        let threads = threads.max(1);
        let metrics = Arc::new(ServingMetrics::new());
        let engine = ShardedEngine {
            current: Mutex::new(Self::build_state(&dataset, threads, 1)),
            threads,
            metrics,
            metrics_on: true,
            generation: AtomicU64::new(1),
        };
        engine.set_dataset_gauges(&dataset);
        engine
    }

    fn build_state(dataset: &ShardedDataset, threads: usize, generation: u64) -> Arc<ShardedState> {
        let per_shard = (threads / dataset.shards().len().max(1)).max(1);
        let engines = dataset
            .shards()
            .iter()
            .map(|d| {
                let mut e = ServingEngine::with_threads(d.clone(), per_shard);
                e.set_metrics_enabled(false);
                e
            })
            .collect();
        Arc::new(ShardedState { engines, generation })
    }

    fn set_dataset_gauges(&self, dataset: &ShardedDataset) {
        let g = dataset.graph();
        self.metrics.graph_vertices.set(g.num_vertices() as u64);
        self.metrics.graph_edges.set(g.num_edges());
        // Index bytes across all shards, shared arrays counted once:
        // the dataset-wide profile minus the graph's own arrays.
        let total = dataset.memory_profile().total();
        self.metrics.index_bytes.set(total.saturating_sub(dataset.graph().memory_profile().total()));
        let shards = dataset.shards().len().max(1);
        self.metrics.engine_threads.set(((self.threads / shards).max(1) * shards) as u64);
    }

    fn state(&self) -> Arc<ShardedState> {
        self.current.lock().clone()
    }

    /// The total worker-thread budget (split across shards).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of shards in the current generation.
    pub fn num_shards(&self) -> u32 {
        self.state().engines.len() as u32
    }

    /// The shared graph + shard-0 index (callers wanting dataset-level
    /// facts: vertex/edge counts, parameters).
    pub fn dataset(&self) -> Dataset {
        self.state().engines[0].dataset()
    }

    /// The engine's metric cells.
    pub fn metrics(&self) -> &ServingMetrics {
        &self.metrics
    }

    /// A clonable handle to the metric cells.
    pub fn metrics_handle(&self) -> Arc<ServingMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Enables or disables merged metric collection.
    pub fn set_metrics_enabled(&mut self, on: bool) {
        self.metrics_on = on;
    }

    /// The current dataset generation: 1 initially, +1 per
    /// [`ShardedEngine::swap`].
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Atomically replaces every shard's dataset. In-flight waves drain
    /// against the old state (their entry-time `Arc` keeps it alive);
    /// the new shard count may differ from the old one.
    pub fn swap(&self, dataset: ShardedDataset) {
        self.set_dataset_gauges(&dataset);
        let mut current = self.current.lock();
        let generation = current.generation + 1;
        *current = Self::build_state(&dataset, self.threads, generation);
        self.generation.store(generation, Ordering::Relaxed);
        drop(current);
        self.metrics.dataset_swaps.inc();
    }

    /// Answers one coalesced wave by scattering it to every shard
    /// concurrently and gathering per-request merged results. The whole
    /// wave runs against one generation, pinned at entry. Options are
    /// transformed once per distinct options object: `kth_prune`,
    /// `fast_tier`, and `explain` are forced off (see the module doc).
    pub fn query_wave(&self, wave: &[WaveQuery]) -> WaveOutcome {
        let state = self.state();
        let shard_wave = sharded_wave(wave);
        let outcomes: Vec<WaveOutcome> = if state.engines.len() == 1 {
            vec![state.engines[0].query_wave(&shard_wave)]
        } else {
            std::thread::scope(|s| {
                let sw = &shard_wave;
                let handles: Vec<_> =
                    state.engines.iter().map(|e| s.spawn(move || e.query_wave(sw))).collect();
                handles.into_iter().map(|h| h.join().expect("shard wave worker panicked")).collect()
            })
        };
        let mut out = WaveOutcome {
            results: Vec::with_capacity(wave.len()),
            latencies: vec![Duration::ZERO; wave.len()],
            // Batch formation is identical on every shard (same groups);
            // report shard 0's split rather than an N-fold sum.
            batch_sizes: outcomes[0].batch_sizes.clone(),
            generation: state.generation,
            out_of_range: outcomes[0].out_of_range.clone(),
        };
        for (i, q) in wave.iter().enumerate() {
            let mut merged = TopKResult::default();
            let mut pool: Vec<Hit> = Vec::new();
            for oc in &outcomes {
                let r = &oc.results[i];
                pool.extend_from_slice(&r.hits);
                merged.stats.accumulate(&r.stats);
                for (t, s) in merged.timings.stages.iter_mut().zip(&r.timings.stages) {
                    *t += s;
                }
                merged.timings.fast_tier_ns += r.timings.fast_tier_ns;
                // The request's wall latency is the slowest shard's.
                out.latencies[i] = out.latencies[i].max(oc.latencies[i]);
            }
            merged.stats.walk_steps = outcomes.iter().map(|oc| oc.results[i].stats.walk_steps).sum();
            merged.hits = merge_hits(pool, q.k);
            out.results.push(merged);
        }
        if self.metrics_on {
            let m = &*self.metrics;
            m.batches.add(out.batch_sizes.len() as u64);
            for (i, r) in out.results.iter().enumerate() {
                if out.out_of_range[i] {
                    continue;
                }
                m.queries.inc();
                m.record_query_stats(&r.stats);
                m.latency.observe(out.latencies[i].as_nanos() as u64);
                m.candidates_per_query.observe(r.stats.candidates);
                m.hits_per_query.observe(r.hits.len() as u64);
            }
        }
        out
    }
}

/// Re-selects the global top `k` from concatenated per-shard hit lists.
///
/// Selection must replicate the scan heap's retention order — score,
/// then **larger** vertex id wins a score tie (a min-heap evicts the
/// smallest entry under that order) — while the presented list is
/// sorted score-descending with *ascending* vertex ids on ties, exactly
/// like [`TopKResult::hits`]. Shards partition candidates, so the pool
/// holds no duplicate vertices.
fn merge_hits(mut pool: Vec<Hit>, k: usize) -> Vec<Hit> {
    pool.sort_by(|a, b| {
        b.score.partial_cmp(&a.score).expect("scores are finite").then(b.vertex.cmp(&a.vertex))
    });
    pool.truncate(k);
    pool.sort_by(|a, b| {
        b.score.partial_cmp(&a.score).expect("scores are finite").then(a.vertex.cmp(&b.vertex))
    });
    pool
}

/// The wave every shard sees: same vertices and `k`, options transformed
/// to the partition-invariant form. Each distinct options object (by
/// `Arc` identity) is transformed once so the engines' per-batch
/// grouping still coalesces requests that shared options.
fn sharded_wave(wave: &[WaveQuery]) -> Vec<WaveQuery> {
    let mut seen: Vec<(*const QueryOptions, Arc<QueryOptions>)> = Vec::new();
    wave.iter()
        .map(|q| {
            let ptr = Arc::as_ptr(&q.opts);
            let opts = match seen.iter().find(|(p, _)| *p == ptr) {
                Some((_, o)) => Arc::clone(o),
                None => {
                    let transformed = Arc::new(QueryOptions {
                        kth_prune: false,
                        fast_tier: FastTier::Off,
                        explain: false,
                        ..(*q.opts).clone()
                    });
                    seen.push((ptr, Arc::clone(&transformed)));
                    transformed
                }
            };
            WaveQuery { vertex: q.vertex, k: q.k, opts }
        })
        .collect()
}

/// The serving layer's engine handle: one engine API over both shapes a
/// snapshot can load as, so the dispatcher and server never branch on
/// sharding themselves.
pub enum EngineHandle {
    /// An unsharded [`ServingEngine`].
    Single(ServingEngine),
    /// A scatter-gather [`ShardedEngine`].
    Sharded(ShardedEngine),
}

impl EngineHandle {
    /// Wraps whatever [`crate::snapshot::load_snapshot`] produced, with
    /// an explicit total thread budget.
    pub fn with_threads(loaded: Loaded, threads: usize) -> Self {
        match loaded {
            Loaded::Single(d) => EngineHandle::Single(ServingEngine::with_threads(d, threads)),
            Loaded::Sharded(s) => EngineHandle::Sharded(ShardedEngine::with_threads(s, threads)),
        }
    }

    /// Answers one coalesced wave (see [`ServingEngine::query_wave`] /
    /// [`ShardedEngine::query_wave`]).
    pub fn query_wave(&self, wave: &[WaveQuery]) -> WaveOutcome {
        match self {
            EngineHandle::Single(e) => e.query_wave(wave),
            EngineHandle::Sharded(e) => e.query_wave(wave),
        }
    }

    /// Answers one query. On a single engine this is the cached
    /// [`ServingEngine::query`] path; on a sharded engine it is a
    /// one-entry wave (an out-of-range vertex answers empty).
    pub fn query(&self, u: srs_graph::VertexId, k: usize, opts: &QueryOptions) -> TopKResult {
        match self {
            EngineHandle::Single(e) => e.query(u, k, opts),
            EngineHandle::Sharded(e) => {
                let wave = [WaveQuery { vertex: u, k, opts: Arc::new(opts.clone()) }];
                e.query_wave(&wave).results.remove(0)
            }
        }
    }

    /// The current dataset generation.
    pub fn generation(&self) -> u64 {
        match self {
            EngineHandle::Single(e) => e.generation(),
            EngineHandle::Sharded(e) => e.generation(),
        }
    }

    /// The engine's metric cells.
    pub fn metrics(&self) -> &ServingMetrics {
        match self {
            EngineHandle::Single(e) => e.metrics(),
            EngineHandle::Sharded(e) => e.metrics(),
        }
    }

    /// A clonable handle to the metric cells.
    pub fn metrics_handle(&self) -> Arc<ServingMetrics> {
        match self {
            EngineHandle::Single(e) => e.metrics_handle(),
            EngineHandle::Sharded(e) => e.metrics_handle(),
        }
    }

    /// Sets the result-cache capacity. No-op on a sharded engine (it
    /// has no request-level cache — see [`ShardedEngine`]).
    pub fn set_cache_capacity(&self, capacity: usize) {
        if let EngineHandle::Single(e) = self {
            e.set_cache_capacity(capacity);
        }
    }

    /// The configured result-cache capacity (0 for a sharded engine,
    /// which caches nothing at the request level).
    pub fn cache_capacity(&self) -> usize {
        match self {
            EngineHandle::Single(e) => e.cache_capacity(),
            EngineHandle::Sharded(_) => 0,
        }
    }

    /// The worker-thread budget.
    pub fn threads(&self) -> usize {
        match self {
            EngineHandle::Single(e) => e.threads(),
            EngineHandle::Sharded(e) => e.threads(),
        }
    }

    /// Shard count (1 for an unsharded engine).
    pub fn shards(&self) -> u32 {
        match self {
            EngineHandle::Single(_) => 1,
            EngineHandle::Sharded(e) => e.num_shards(),
        }
    }

    /// A dataset handle for dataset-level facts (graph size, params).
    /// For a sharded engine this is shard 0's view — the graph and all
    /// global arrays are shared, only its inverted slice is partial.
    pub fn dataset(&self) -> Dataset {
        match self {
            EngineHandle::Single(e) => e.dataset(),
            EngineHandle::Sharded(e) => e.dataset(),
        }
    }

    /// Applies a batch of graph edits in place (see
    /// [`ServingEngine::apply_delta`]). Only an unsharded engine can
    /// ingest online — a sharded engine partitions the inverted
    /// candidate map per shard, so an incremental extension would have
    /// to re-partition every shard (that is a repack, not a delta).
    pub fn apply_delta(
        &self,
        batch: &srs_graph::GraphDelta,
        staleness_depth: u32,
        parent_fingerprint: u64,
    ) -> Result<crate::engine::AppliedDelta, PersistError> {
        match self {
            EngineHandle::Single(e) => e.apply_delta(batch, staleness_depth, parent_fingerprint),
            EngineHandle::Sharded(_) => Err(PersistError::Format(
                "online ingest requires an unsharded engine (delta chains do not shard)".into(),
            )),
        }
    }

    /// Atomically replaces the served dataset. The new load must have
    /// the same shape as the running engine (single vs sharded) —
    /// changing shape changes the serving topology, which a hot reload
    /// deliberately refuses (restart to re-shape). A sharded reload may
    /// change the shard *count*.
    pub fn swap(&self, loaded: Loaded) -> Result<(), PersistError> {
        match (self, loaded) {
            (EngineHandle::Single(e), Loaded::Single(d)) => {
                e.swap(d);
                Ok(())
            }
            (EngineHandle::Sharded(e), Loaded::Sharded(s)) => {
                e.swap(s);
                Ok(())
            }
            (EngineHandle::Single(_), Loaded::Sharded(_)) => Err(PersistError::Format(
                "reload shape mismatch: engine is unsharded, snapshot is sharded".into(),
            )),
            (EngineHandle::Sharded(_), Loaded::Single(_)) => Err(PersistError::Format(
                "reload shape mismatch: engine is sharded, snapshot is unsharded".into(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{load_snapshot, pack_sharded_to_bytes, LoadOptions};
    use crate::topk::TopKIndex;
    use crate::{Diagonal, SimRankParams};
    use srs_graph::{gen, Graph};

    fn build(n: u32, seed: u64) -> (Graph, TopKIndex) {
        let g = gen::copying_web(n, 4, 0.8, seed);
        let params = SimRankParams { r_bounds: 300, r_gamma: 25, ..Default::default() };
        let idx = TopKIndex::build_with(&g, &params, Diagonal::paper_default(params.c), seed, 2);
        (g, idx)
    }

    fn sharded(g: &Graph, idx: &TopKIndex, shards: u32) -> ShardedDataset {
        let bytes = pack_sharded_to_bytes(g, idx, shards).unwrap();
        let dir = std::env::temp_dir().join(format!("srs-sharded-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Tests run in parallel: every call gets its own file, so no
        // test's write or delete can race another's load.
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let call = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = dir.join(format!("s{shards}-{call}.srs"));
        std::fs::write(&path, &bytes).unwrap();
        let (loaded, _, _) = load_snapshot(&path, &LoadOptions::default()).unwrap();
        let _ = std::fs::remove_file(&path);
        match loaded {
            Loaded::Sharded(s) => s,
            other => panic!("expected sharded load, got {other:?}"),
        }
    }

    fn wave(vertices: &[u32], k: usize, opts: &Arc<QueryOptions>) -> Vec<WaveQuery> {
        vertices.iter().map(|&v| WaveQuery { vertex: v, k, opts: Arc::clone(opts) }).collect()
    }

    #[test]
    fn sharded_hits_match_theta_only_unsharded() {
        let (g, idx) = build(160, 21);
        let theta_only = QueryOptions { kth_prune: false, ..Default::default() };
        let reference = ServingEngine::with_threads(Dataset::new(g.clone(), idx.clone()).unwrap(), 2);
        let opts = Arc::new(QueryOptions::default());
        let vertices: Vec<u32> = (0..160).step_by(7).collect();
        let ref_out = reference.query_wave(&wave(&vertices, 8, &Arc::new(theta_only.clone())));
        for shards in [1u32, 3, 4] {
            let engine = ShardedEngine::with_threads(sharded(&g, &idx, shards), 4);
            // Submit with *default* options: the sharded engine itself
            // must force the partition-invariant form.
            let got = engine.query_wave(&wave(&vertices, 8, &opts));
            for (i, v) in vertices.iter().enumerate() {
                assert_eq!(ref_out.results[i].hits, got.results[i].hits, "u={v} shards={shards}");
            }
        }
    }

    #[test]
    fn sharded_fate_counters_sum_exactly() {
        let (g, idx) = build(120, 22);
        let reference = ServingEngine::with_threads(Dataset::new(g.clone(), idx.clone()).unwrap(), 1);
        let vertices: Vec<u32> = (0..120).step_by(11).collect();
        let engine = ShardedEngine::with_threads(sharded(&g, &idx, 3), 3);
        // A candidate ball must not be enumerated once per shard: each
        // shard adds only the ball vertices in its own range.
        for ball in [None, Some(1), Some(3)] {
            let theta_only =
                Arc::new(QueryOptions { kth_prune: false, candidate_ball: ball, ..Default::default() });
            let ref_out = reference.query_wave(&wave(&vertices, 6, &theta_only));
            let got = engine.query_wave(&wave(&vertices, 6, &theta_only));
            for (i, v) in vertices.iter().enumerate() {
                let (a, b) = (&ref_out.results[i].stats, &got.results[i].stats);
                assert_eq!(a.candidates, b.candidates, "u={v} ball={ball:?}");
                assert_eq!(a.pruned_distance, b.pruned_distance, "u={v} ball={ball:?}");
                assert_eq!(a.pruned_bounds, b.pruned_bounds, "u={v} ball={ball:?}");
                assert_eq!(a.pruned_coarse, b.pruned_coarse, "u={v} ball={ball:?}");
                assert_eq!(a.refined, b.refined, "u={v} ball={ball:?}");
                assert_eq!(a.reported, b.reported, "u={v} ball={ball:?}");
                assert_eq!(ref_out.results[i].hits, got.results[i].hits, "u={v} ball={ball:?}");
            }
        }
    }

    #[test]
    fn handle_swaps_in_shape_and_rejects_reshape() {
        let (g, idx) = build(80, 23);
        let handle = EngineHandle::Sharded(ShardedEngine::with_threads(sharded(&g, &idx, 2), 2));
        assert_eq!(handle.generation(), 1);
        assert_eq!(handle.shards(), 2);
        handle.swap(Loaded::Sharded(sharded(&g, &idx, 4))).unwrap();
        assert_eq!(handle.generation(), 2);
        assert_eq!(handle.shards(), 4);
        let err = handle.swap(Loaded::Single(Dataset::new(g.clone(), idx.clone()).unwrap())).unwrap_err();
        assert!(err.to_string().contains("shape mismatch"), "{err}");
        // Queries still answer after the reshape.
        let opts = Arc::new(QueryOptions::default());
        let out = handle.query_wave(&wave(&[1, 2, 3], 4, &opts));
        assert_eq!(out.results.len(), 3);
        assert_eq!(out.generation, 2);
    }

    #[test]
    fn out_of_range_flagged_not_paniced() {
        let (g, idx) = build(40, 24);
        let engine = ShardedEngine::with_threads(sharded(&g, &idx, 2), 2);
        let opts = Arc::new(QueryOptions::default());
        let out = engine.query_wave(&wave(&[3, 9999], 4, &opts));
        assert!(!out.out_of_range[0]);
        assert!(out.out_of_range[1]);
        assert!(out.results[1].hits.is_empty());
    }
}

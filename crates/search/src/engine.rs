//! The serving engine: parallel, cached, hot-swappable top-k serving
//! (the exact head or Algorithm 5) over one dataset.
//!
//! [`ServingEngine`] owns one dataset *generation* at a time: a
//! [`Dataset`] (a bundle of any shard count loads as one), one
//! [`QueryScratch`] pool, and one result cache. Every request flows the
//! same way — probe the cache, group by `(k, options)`, run each group
//! as one batch — and a batch is split into contiguous chunks across the
//! worker threads, each answering its chunk through a pooled scratch.
//!
//! # Determinism
//!
//! Every per-query seed is derived only from `(index seed, query vertex)`
//! — never from thread ids, scratch identity, or arrival order — so
//! results are bit-identical regardless of thread count, batch
//! composition, or how often a pool is reused; the partitioning only
//! decides *who* computes each answer, never *what* the answer is.
//! Steady state allocates nothing: scratches are recycled through the
//! pool, and [`ServingEngine::query_batch_into`] also recycles the output
//! buffers of a previous batch. The shard count of the loaded bundle
//! never enters a query: the candidate index reads the shards' inverted
//! slices in range order, which yields the unsharded holder lists
//! exactly, so hits, stats and explain traces match an unsharded bundle
//! under every option.

use crate::obs::{ServingMetrics, StageTimings};
use crate::snapshot::Dataset;
use crate::topk::{QueryOptions, QueryScratch, QueryStats, TopKResult};
use parking_lot::Mutex;
use srs_graph::hash::FxHashMap;
use srs_graph::VertexId;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Nearest-rank latency percentiles over one batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Mean per-query latency.
    pub mean: Duration,
    /// Median (50th percentile, nearest-rank).
    pub p50: Duration,
    /// 95th percentile (nearest-rank).
    pub p95: Duration,
    /// 99th percentile (nearest-rank).
    pub p99: Duration,
    /// Slowest query.
    pub max: Duration,
}

impl LatencySummary {
    /// Computes the summary from an unordered sample set, using `scratch`
    /// as sorting storage (cleared first).
    fn compute(samples: &[Duration], scratch: &mut Vec<Duration>) -> Self {
        if samples.is_empty() {
            return LatencySummary::default();
        }
        scratch.clear();
        scratch.extend_from_slice(samples);
        scratch.sort_unstable();
        let n = scratch.len();
        let rank = |p: f64| -> Duration {
            // Nearest-rank: the ⌈p·n⌉-th smallest sample.
            let idx = ((p * n as f64).ceil() as usize).clamp(1, n) - 1;
            scratch[idx]
        };
        LatencySummary {
            mean: scratch.iter().sum::<Duration>() / n as u32,
            p50: rank(0.50),
            p95: rank(0.95),
            p99: rank(0.99),
            max: scratch[n - 1],
        }
    }
}

/// Everything a finished batch produced. Reusable across batches via
/// [`ServingEngine::query_batch_into`] — the per-query result and latency
/// vectors keep their allocations.
#[derive(Debug, Default)]
pub struct BatchResult {
    /// Per-query results, in the order of the input batch.
    pub results: Vec<TopKResult>,
    /// Per-query wall-clock latencies, in the order of the input batch.
    pub latencies: Vec<Duration>,
    /// Aggregated pruning counters over the whole batch.
    pub totals: QueryStats,
    /// Latency percentiles over the whole batch.
    pub latency: LatencySummary,
    /// Wall-clock time for the whole batch (not the sum of latencies).
    pub elapsed: Duration,
    /// Queries answered by copying an identical in-batch query's result
    /// instead of recomputing it (in-batch dedup; results are
    /// deterministic per vertex, so the copy is exact).
    pub deduped: u64,
    /// Sorting storage for the percentile computation, kept for reuse.
    lat_scratch: Vec<Duration>,
    /// Dedup scratch (all reused across batches): vertex → unique slot,
    /// per-query unique index, and the unique-query working set.
    dedup_index: FxHashMap<VertexId, u32>,
    slot_of: Vec<u32>,
    uniq_queries: Vec<VertexId>,
    uniq_results: Vec<TopKResult>,
    uniq_latencies: Vec<Duration>,
    /// Result-cache scratch (only used with caching enabled): miss
    /// positions, the miss sub-batch, and the inner `BatchResult` the
    /// misses are computed into, all reused.
    cache_miss_idx: Vec<usize>,
    cache_miss_queries: Vec<VertexId>,
    cache_inner: Option<Box<BatchResult>>,
}

impl BatchResult {
    /// An empty result ready to be filled by
    /// [`ServingEngine::query_batch_into`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Batch throughput in queries per second.
    pub fn queries_per_second(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.results.len() as f64 / secs
        } else {
            0.0
        }
    }
}

/// What one batch needs: the pinned generation, the worker count, and
/// the engine's metric cells (scratch observations merge there).
struct ServeCtx<'a> {
    state: &'a EngineState,
    threads: usize,
    metrics: &'a ServingMetrics,
}

impl ServeCtx<'_> {
    fn take_scratch(&self) -> QueryScratch {
        self.state.pool.lock().pop().unwrap_or_else(|| QueryScratch::new(self.state.dataset.graph()))
    }

    fn put_scratch(&self, scratch: QueryScratch) {
        self.state.pool.lock().push(scratch);
    }
}

/// Answers a batch into an existing [`BatchResult`],
/// recycling its allocations: repeated vertices are answered once and
/// copied (answers are deterministic per vertex, so the copy is exact),
/// and `totals` counts every slot, copies included.
fn serve_batch_into(
    ctx: &ServeCtx<'_>,
    queries: &[VertexId],
    k: usize,
    opts: &QueryOptions,
    out: &mut BatchResult,
) {
    let started = Instant::now();
    let n = queries.len();
    out.results.resize_with(n, TopKResult::default);
    out.latencies.clear();
    out.latencies.resize(n, Duration::ZERO);
    out.totals = QueryStats::default();
    out.deduped = 0;
    if n == 0 {
        out.latency = LatencySummary::default();
        out.elapsed = started.elapsed();
        return;
    }
    out.dedup_index.clear();
    out.slot_of.clear();
    out.uniq_queries.clear();
    for &q in queries {
        let next = out.uniq_queries.len() as u32;
        let slot = *out.dedup_index.entry(q).or_insert(next);
        if slot == next {
            out.uniq_queries.push(q);
        }
        out.slot_of.push(slot);
    }
    let uniq = out.uniq_queries.len();
    if uniq == n {
        out.totals = run_workers(ctx, queries, &mut out.results, &mut out.latencies, k, opts);
    } else {
        out.deduped = (n - uniq) as u64;
        out.uniq_results.resize_with(uniq, TopKResult::default);
        out.uniq_latencies.clear();
        out.uniq_latencies.resize(uniq, Duration::ZERO);
        run_workers(ctx, &out.uniq_queries, &mut out.uniq_results, &mut out.uniq_latencies, k, opts);
        for (i, &slot) in out.slot_of.iter().enumerate() {
            let src = &out.uniq_results[slot as usize];
            let dst = &mut out.results[i];
            dst.hits.clear();
            dst.hits.extend_from_slice(&src.hits);
            dst.stats = src.stats;
            dst.explain = src.explain.clone();
            dst.timings = src.timings;
            // The copy's latency is the unique computation's latency:
            // a deduped slot reports what answering it cost, not the
            // (negligible) memcpy.
            out.latencies[i] = out.uniq_latencies[slot as usize];
        }
        for res in &out.results {
            out.totals.accumulate(&res.stats);
        }
    }
    out.latency = LatencySummary::compute(&out.latencies, &mut out.lat_scratch);
    out.elapsed = started.elapsed();
}

/// The parallel worker loop: answers `queries[i]` into `results[i]` /
/// `latencies[i]` across the context's threads and returns the summed
/// stats. All three slices have the same length.
fn run_workers(
    ctx: &ServeCtx<'_>,
    queries: &[VertexId],
    results: &mut [TopKResult],
    latencies: &mut [Duration],
    k: usize,
    opts: &QueryOptions,
) -> QueryStats {
    let n = queries.len();
    let (g, index) = (ctx.state.dataset.graph(), ctx.state.dataset.index());
    // Contiguous chunks, ⌈n/threads⌉ queries each. The split only
    // assigns work to workers; per-query seeding keeps the answers
    // independent of it.
    let threads = ctx.threads.min(n);
    let per = n.div_ceil(threads);
    crossbeam::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for ((q_chunk, r_chunk), l_chunk) in
            queries.chunks(per).zip(results.chunks_mut(per)).zip(latencies.chunks_mut(per))
        {
            handles.push(scope.spawn(move |_| {
                let mut scratch = ctx.take_scratch();
                let walk_base = srs_mc::obs::thread_counts();
                let mut local = QueryStats::default();
                for ((&u, slot), lat) in q_chunk.iter().zip(r_chunk).zip(l_chunk) {
                    let t0 = Instant::now();
                    scratch.query_into(g, index, u, k, opts, slot);
                    *lat = t0.elapsed();
                    local.accumulate(&slot.stats);
                }
                // Batch-end merge: this worker's stage timings and
                // walk-step class delta fold into the shared cells in
                // one lock-free pass (per worker, not per query).
                scratch.merge_obs_into(ctx.metrics);
                ctx.metrics.record_walk_steps(srs_mc::obs::thread_counts().since(&walk_base));
                ctx.put_scratch(scratch);
                local
            }));
        }
        let mut totals = QueryStats::default();
        for h in handles {
            totals.accumulate(&h.join().expect("query worker panicked"));
        }
        totals
    })
    .expect("query scope panicked")
}

/// Combines the per-query `k` with the options fingerprint into the
/// options component of a cache key / coalescing group key.
fn opts_key(k: usize, opts: &QueryOptions) -> u64 {
    opts.fingerprint() ^ (k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// A generation-keyed top-k result cache. The map lives inside an
/// [`EngineState`], so a snapshot hot-swap invalidates every entry for
/// free: the new generation starts with an empty cache and the old one is
/// dropped when its last in-flight batch drains. Keys are
/// `(vertex, opts_key(k, opts))`; on fingerprint match the stored options
/// are compared with `==` before a hit is declared, so a hash collision
/// can never return a result computed under different options. Eviction
/// is FIFO — answers are immutable per generation, so recency tracking
/// buys little over insertion order.
#[derive(Default)]
struct ResultCache {
    map: FxHashMap<(VertexId, u64), CachedResult>,
    order: VecDeque<(VertexId, u64)>,
}

struct CachedResult {
    k: usize,
    opts: QueryOptions,
    result: TopKResult,
}

impl ResultCache {
    fn get(&self, vertex: VertexId, key: u64, k: usize, opts: &QueryOptions) -> Option<TopKResult> {
        let slot = self.map.get(&(vertex, key))?;
        (slot.k == k && slot.opts == *opts).then(|| slot.result.clone())
    }

    fn insert(
        &mut self,
        vertex: VertexId,
        key: u64,
        k: usize,
        opts: &QueryOptions,
        result: &TopKResult,
        capacity: usize,
    ) {
        if capacity == 0 || self.map.contains_key(&(vertex, key)) {
            return;
        }
        while self.map.len() >= capacity {
            match self.order.pop_front() {
                Some(oldest) => {
                    self.map.remove(&oldest);
                }
                None => break,
            }
        }
        // A cache hit runs no stage, so its copy carries no stage timings:
        // a trace built from it must not tile spans that never ran.
        let result = TopKResult { timings: StageTimings::default(), ..result.clone() };
        self.map.insert((vertex, key), CachedResult { k, opts: opts.clone(), result });
        self.order.push_back((vertex, key));
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// One request inside a coalesced wave: a query vertex plus the `k` and
/// options it arrived with. Waves let a network front end funnel
/// concurrent single queries into the engine's batch path (where the
/// throughput lives) — see [`ServingEngine::query_wave`].
#[derive(Debug, Clone)]
pub struct WaveQuery {
    /// The query vertex.
    pub vertex: VertexId,
    /// How many results the request wants.
    pub k: usize,
    /// The request's query options (shared — many concurrent requests
    /// typically carry the same defaults).
    pub opts: Arc<QueryOptions>,
}

/// The engine's answer to one coalesced wave: per-request results in
/// input order plus how the wave split into engine batches.
#[derive(Debug, Default)]
pub struct WaveOutcome {
    /// Per-request results, in the order of the input wave.
    pub results: Vec<TopKResult>,
    /// Per-request compute latencies, in input order (cache hits report
    /// zero — the lookup is the work).
    pub latencies: Vec<Duration>,
    /// Size of each engine batch the wave was split into (one entry per
    /// `query_batch` submission; requests sharing `(k, options)` land in
    /// the same batch).
    pub batch_sizes: Vec<u32>,
    /// The dataset generation the whole wave ran against, pinned once at
    /// entry — a hot swap mid-wave never splits a wave across datasets.
    pub generation: u64,
    /// Per-request flags, in input order: `true` when the request's
    /// vertex does not exist in the pinned dataset (its result slot is
    /// empty). Submitters validate against the dataset *they* saw, which
    /// may be a generation older than the one the wave pins, so the wave
    /// re-validates instead of indexing out of range.
    pub out_of_range: Vec<bool>,
}

/// One dataset generation inside a [`ServingEngine`]: the dataset, the
/// scratch pool sized for its graph, and the result cache. The pool and
/// cache travel with the generation: scratches are allocated per vertex
/// count, so they never cross a hot swap, and swap-time cache
/// invalidation is free.
struct EngineState {
    dataset: Dataset,
    pool: Mutex<Vec<QueryScratch>>,
    /// The generation this state was installed as — travels with the
    /// dataset so a pinned state knows which generation it is without a
    /// racy second read of the engine's counter.
    generation: u64,
    cache: Mutex<ResultCache>,
}

impl EngineState {
    fn new(dataset: Dataset, generation: u64) -> Arc<Self> {
        Arc::new(EngineState {
            dataset,
            pool: Mutex::new(Vec::new()),
            generation,
            cache: Mutex::new(ResultCache::default()),
        })
    }
}

/// The outcome of [`ServingEngine::apply_delta`]: everything the caller
/// needs to persist the delta and chain the next one.
#[derive(Debug, Clone)]
pub struct AppliedDelta {
    /// The serialized delta snapshot (an `SRSBNDL1` delta bundle). Write
    /// it next to the base snapshot so a restart can replay the chain.
    pub bytes: Vec<u8>,
    /// How much work the incremental extension did (appended / dirty /
    /// reused vertex counts).
    pub stats: crate::extend::ExtendStats,
    /// The delta bundle's own container fingerprint — the
    /// `parent_fingerprint` for the *next* delta in the chain.
    pub fingerprint: u64,
    /// The engine generation now serving the edited graph.
    pub generation: u64,
}

/// The owned, hot-swappable serving engine over one dataset.
///
/// The engine holds `Arc`s and therefore has no lifetime — it can live in
/// a server struct, move across threads, and outlive the code that
/// loaded the snapshot it serves. It owns one [`ServingMetrics`] set;
/// every worker's scratch observations merge into it, and request-level
/// observations are recorded once per request.
///
/// [`ServingEngine::swap`] atomically replaces the dataset: every batch
/// clones the current generation's `Arc` once at entry, so in-flight
/// batches finish against the dataset they started with while new calls
/// see the new one. There is no torn state — a query never observes a
/// graph from one generation and an index from another. After a swap the
/// new generation warms its own pool and the old one is freed when the
/// last in-flight batch drains.
pub struct ServingEngine {
    current: Mutex<Arc<EngineState>>,
    threads: usize,
    metrics: Arc<ServingMetrics>,
    /// Dataset generation: 1 for the initial dataset, +1 per [`swap`].
    ///
    /// [`swap`]: ServingEngine::swap
    generation: AtomicU64,
    /// Result-cache capacity in entries; 0 (the default) disables caching.
    cache_capacity: AtomicUsize,
}

impl ServingEngine {
    /// An engine using all available parallelism.
    pub fn new(dataset: Dataset) -> Self {
        let threads = std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1);
        Self::with_threads(dataset, threads)
    }

    /// An engine with a worker budget of `threads` (≥ 1). Result caching
    /// is off (see [`ServingEngine::set_cache_capacity`]).
    pub fn with_threads(dataset: Dataset, threads: usize) -> Self {
        let engine = ServingEngine {
            current: Mutex::new(EngineState::new(dataset, 1)),
            threads: threads.max(1),
            metrics: Arc::new(ServingMetrics::new()),
            generation: AtomicU64::new(1),
            cache_capacity: AtomicUsize::new(0),
        };
        engine.set_dataset_gauges(&engine.state());
        engine
    }

    fn set_dataset_gauges(&self, state: &EngineState) {
        let m = &self.metrics;
        let ds = &state.dataset;
        m.graph_vertices.set(ds.graph().num_vertices() as u64);
        m.graph_edges.set(ds.graph().num_edges());
        m.index_bytes.set(ds.index().memory_bytes());
        m.engine_threads.set(self.threads as u64);
    }

    /// The current generation (cloned `Arc`, so the borrow ends here and
    /// swaps never wait on queries).
    fn state(&self) -> Arc<EngineState> {
        self.current.lock().clone()
    }

    /// The worker budget batches are split across.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The current generation's dataset.
    pub fn dataset(&self) -> Dataset {
        self.state().dataset.clone()
    }

    /// The engine's metric cells.
    pub fn metrics(&self) -> &ServingMetrics {
        &self.metrics
    }

    /// A clonable handle to the metric cells (e.g. for a scrape endpoint).
    pub fn metrics_handle(&self) -> Arc<ServingMetrics> {
        Arc::clone(&self.metrics)
    }

    /// How many scratch states the current generation's pool holds.
    pub fn pooled_states(&self) -> usize {
        self.state().pool.lock().len()
    }

    /// The current dataset generation: 1 for the dataset the engine was
    /// constructed with, incremented by every [`ServingEngine::swap`].
    /// Result-cache keys are implicitly generation-scoped (the cache
    /// lives and dies with its generation).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Sets the result-cache capacity (entries). `0` disables caching.
    /// Takes effect for subsequent queries; the current generation's
    /// existing entries stay until evicted or swapped away. Cached
    /// answers are exact copies of computed ones (queries are
    /// deterministic per vertex), so enabling the cache never changes a
    /// result — only where it comes from, observable via
    /// `srs_cache_hits_total` / `srs_cache_misses_total`.
    pub fn set_cache_capacity(&self, capacity: usize) {
        self.cache_capacity.store(capacity, Ordering::Relaxed);
    }

    /// The configured result-cache capacity (entries; 0 = disabled).
    pub fn cache_capacity(&self) -> usize {
        self.cache_capacity.load(Ordering::Relaxed)
    }

    /// How many results the current generation's cache holds.
    pub fn cached_results(&self) -> usize {
        self.state().cache.lock().len()
    }

    /// Atomically replaces the served dataset and returns the previous
    /// one. Batches already in flight complete against the old dataset
    /// (their entry-time `Arc` keeps it alive); calls arriving after
    /// `swap` returns see only the new one. Nothing is ever torn, and the
    /// result cache is invalidated wholesale (it belongs to the replaced
    /// generation).
    pub fn swap(&self, dataset: Dataset) -> Dataset {
        let mut current = self.current.lock();
        // The new state carries its generation number; storing the
        // counter while still holding the lock keeps `generation()` and
        // the installed state consistent with each other.
        let generation = current.generation + 1;
        let next = EngineState::new(dataset, generation);
        self.set_dataset_gauges(&next);
        let old = std::mem::replace(&mut *current, next);
        self.generation.store(generation, Ordering::Relaxed);
        drop(current);
        self.metrics.dataset_swaps.inc();
        old.dataset.clone()
    }

    /// Applies a batch of graph edits to the served dataset *in place*:
    /// builds the incrementally-extended dataset (recomputing only the
    /// dirty rows, on this engine's worker threads), serializes a delta
    /// snapshot chained to `parent_fingerprint`, and hot-swaps the new
    /// generation in. In-flight batches drain against the old dataset;
    /// no request is ever dropped or torn. The extension reads only the
    /// forward candidate map, so a dataset loaded from a bundle of any
    /// shard count ingests.
    ///
    /// Concurrent `apply_delta` calls are the caller's responsibility to
    /// serialize (the server holds its reload lock across the call) — two
    /// racing appliers would each extend the *same* base and the loser's
    /// edits would be swapped away.
    pub fn apply_delta(
        &self,
        batch: &srs_graph::GraphDelta,
        staleness_depth: u32,
        parent_fingerprint: u64,
    ) -> Result<AppliedDelta, crate::persist::PersistError> {
        let base = self.dataset();
        let t0 = Instant::now();
        let built =
            crate::chain::build_delta(&base, batch, staleness_depth, self.threads, parent_fingerprint)?;
        let elapsed_ns = t0.elapsed().as_nanos() as u64;
        self.swap(built.dataset);
        self.metrics.record_extend(&built.stats, elapsed_ns);
        Ok(AppliedDelta {
            bytes: built.bytes,
            stats: built.stats,
            fingerprint: built.fingerprint,
            generation: self.generation(),
        })
    }

    /// Answers one query as a one-slot batch. With caching enabled, a
    /// repeat of a `(vertex, k, options)` already answered in this
    /// generation returns the cached copy.
    pub fn query(&self, u: VertexId, k: usize, opts: &QueryOptions) -> TopKResult {
        let mut out = BatchResult::new();
        self.query_batch_into(&[u], k, opts, &mut out);
        out.results.pop().expect("a one-query batch has one result")
    }

    /// Answers a batch of queries in parallel. Results come back in input
    /// order; `BatchResult::totals` aggregates the pruning counters and
    /// `BatchResult::latency` summarizes per-query wall times.
    pub fn query_batch(&self, queries: &[VertexId], k: usize, opts: &QueryOptions) -> BatchResult {
        let mut out = BatchResult::new();
        self.query_batch_into(queries, k, opts, &mut out);
        out
    }

    /// [`ServingEngine::query_batch`] into an existing [`BatchResult`],
    /// recycling its allocations. The whole batch runs against one
    /// generation, pinned at entry.
    ///
    /// Repeated query vertices within the batch are answered once and the
    /// result copied into every occurrence, and with caching enabled,
    /// slots whose `(vertex, k, options)` were already answered this
    /// generation are filled from the cache (cached slots report zero
    /// latency and all-zero stage timings). Both copies are exact, so
    /// results are bit-identical to answering every slot afresh, and
    /// `BatchResult::totals` counts every slot either way.
    pub fn query_batch_into(
        &self,
        queries: &[VertexId],
        k: usize,
        opts: &QueryOptions,
        out: &mut BatchResult,
    ) {
        self.query_batch_pinned(&self.state(), queries, k, opts, out);
    }

    /// The batch path against an explicitly pinned generation — the
    /// caller decides how long the pin lasts (e.g. a whole wave).
    fn query_batch_pinned(
        &self,
        state: &EngineState,
        queries: &[VertexId],
        k: usize,
        opts: &QueryOptions,
        out: &mut BatchResult,
    ) {
        let capacity = self.cache_capacity();
        if capacity == 0 {
            self.compute_batch(state, queries, k, opts, out);
        } else {
            self.serve_batch_cached(state, capacity, queries, k, opts, out);
        }
    }

    /// Computes a batch (no cache) and records its request-level
    /// metrics.
    fn compute_batch(
        &self,
        state: &EngineState,
        queries: &[VertexId],
        k: usize,
        opts: &QueryOptions,
        out: &mut BatchResult,
    ) {
        serve_batch_into(
            &ServeCtx { state, threads: self.threads, metrics: &self.metrics },
            queries,
            k,
            opts,
            out,
        );
        if queries.is_empty() {
            return;
        }
        let m = &*self.metrics;
        m.batches.inc();
        m.queries.add(queries.len() as u64);
        m.deduped.add(out.deduped);
        m.record_query_stats(&out.totals);
        for (res, lat) in out.results.iter().zip(&out.latencies) {
            m.latency.observe(lat.as_nanos() as u64);
            m.candidates_per_query.observe(res.stats.candidates);
            m.hits_per_query.observe(res.hits.len() as u64);
        }
        m.pooled_scratches.set(state.pool.lock().len() as u64);
    }

    /// The cached batch path: probe every slot, compute the misses as one
    /// inner batch, insert them, and reassemble in input order.
    fn serve_batch_cached(
        &self,
        state: &EngineState,
        capacity: usize,
        queries: &[VertexId],
        k: usize,
        opts: &QueryOptions,
        out: &mut BatchResult,
    ) {
        let started = Instant::now();
        let n = queries.len();
        let key = opts_key(k, opts);
        out.results.resize_with(n, TopKResult::default);
        out.latencies.clear();
        out.latencies.resize(n, Duration::ZERO);
        out.totals = QueryStats::default();
        out.deduped = 0;
        out.cache_miss_idx.clear();
        {
            let cache = state.cache.lock();
            for (i, &q) in queries.iter().enumerate() {
                match cache.get(q, key, k, opts) {
                    Some(hit) => out.results[i] = hit,
                    None => out.cache_miss_idx.push(i),
                }
            }
        }
        let hits = (n - out.cache_miss_idx.len()) as u64;
        if !out.cache_miss_idx.is_empty() {
            out.cache_miss_queries.clear();
            out.cache_miss_queries.extend(out.cache_miss_idx.iter().map(|&i| queries[i]));
            let mut inner = out.cache_inner.take().unwrap_or_default();
            self.compute_batch(state, &out.cache_miss_queries, k, opts, &mut inner);
            let mut cache = state.cache.lock();
            for (j, &i) in out.cache_miss_idx.iter().enumerate() {
                let res = std::mem::take(&mut inner.results[j]);
                cache.insert(queries[i], key, k, opts, &res, capacity);
                out.latencies[i] = inner.latencies[j];
                out.results[i] = res;
            }
            out.deduped = inner.deduped;
            out.cache_inner = Some(inner);
        }
        for res in &out.results {
            out.totals.accumulate(&res.stats);
        }
        out.latency = LatencySummary::compute(&out.latencies, &mut out.lat_scratch);
        out.elapsed = started.elapsed();
        let m = &*self.metrics;
        m.cache_hits.add(hits);
        m.cache_misses.add(out.cache_miss_idx.len() as u64);
        // The inner batch already counted the missed slots; account the
        // cached slots here with the same per-slot semantics the in-batch
        // dedup uses (every slot counts, copies included).
        m.queries.add(hits);
        if out.cache_miss_idx.is_empty() && n > 0 {
            m.batches.inc();
        }
        let mut miss = out.cache_miss_idx.iter().copied().peekable();
        for (i, res) in out.results.iter().enumerate() {
            if miss.peek() == Some(&i) {
                miss.next();
                continue; // already recorded by the inner batch
            }
            m.record_query_stats(&res.stats);
            m.latency.observe(0);
            m.candidates_per_query.observe(res.stats.candidates);
            m.hits_per_query.observe(res.hits.len() as u64);
        }
    }

    /// Answers one **coalesced wave** of heterogeneous requests: requests
    /// sharing `(k, options)` are grouped into a single engine batch (the
    /// batch path is where the throughput lives), and every request's
    /// result comes back in input order. This is the submission surface a
    /// network front end drains its request queue through — see
    /// `srs-serve`'s dispatcher. Per-request answers are bit-identical to
    /// calling [`ServingEngine::query`] for each request alone: batching
    /// decides who computes together, never what the answer is.
    ///
    /// The whole wave runs against **one** generation, pinned at entry and
    /// reported in [`WaveOutcome::generation`]. Because the submitters may
    /// have validated their vertices against an older generation (a hot
    /// swap can land between submit and dispatch), every vertex is
    /// re-validated against the pinned graph here: out-of-range requests
    /// are flagged in [`WaveOutcome::out_of_range`] with an empty result
    /// slot instead of panicking the caller.
    pub fn query_wave(&self, wave: &[WaveQuery]) -> WaveOutcome {
        let state = self.state();
        let num_vertices = state.dataset.graph().num_vertices();
        let mut out = WaveOutcome {
            results: Vec::with_capacity(wave.len()),
            latencies: vec![Duration::ZERO; wave.len()],
            batch_sizes: Vec::new(),
            generation: state.generation,
            out_of_range: vec![false; wave.len()],
        };
        out.results.resize_with(wave.len(), TopKResult::default);
        // Group request positions by (k, options) — fingerprint as the
        // fast path, exact equality as the decider. Waves are small, so a
        // linear scan over the groups beats hashing the options twice.
        let mut groups: Vec<(u64, usize, Vec<usize>)> = Vec::new();
        for (i, q) in wave.iter().enumerate() {
            if q.vertex >= num_vertices {
                out.out_of_range[i] = true;
                continue;
            }
            let key = opts_key(q.k, &q.opts);
            match groups.iter_mut().find(|(gkey, first, _)| {
                *gkey == key && wave[*first].k == q.k && *wave[*first].opts == *q.opts
            }) {
                Some((_, _, members)) => members.push(i),
                None => groups.push((key, i, vec![i])),
            }
        }
        let mut batch = BatchResult::new();
        let mut queries = Vec::new();
        for (_, first, members) in &groups {
            queries.clear();
            queries.extend(members.iter().map(|&i| wave[i].vertex));
            let q = &wave[*first];
            self.query_batch_pinned(&state, &queries, q.k, &q.opts, &mut batch);
            out.batch_sizes.push(members.len() as u32);
            for (j, &i) in members.iter().enumerate() {
                out.results[i] = std::mem::take(&mut batch.results[j]);
                out.latencies[i] = batch.latencies[j];
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{load_snapshot, pack, LoadOptions};
    use crate::topk::{Estimator, QueryContext, TopKIndex};
    use crate::{Diagonal, SimRankParams};
    use srs_graph::{gen, Graph};

    fn build() -> (Graph, TopKIndex) {
        let g = gen::copying_web(200, 4, 0.8, 8);
        let params = SimRankParams { r_bounds: 2_000, ..Default::default() };
        let idx = TopKIndex::build_with(&g, &params, Diagonal::paper_default(params.c), 3, 2);
        (g, idx)
    }

    fn build_small(n: u32, seed: u64) -> (Graph, TopKIndex) {
        let g = gen::copying_web(n, 4, 0.8, seed);
        let params = SimRankParams { r_bounds: 300, ..Default::default() };
        let idx = TopKIndex::build_with(&g, &params, Diagonal::paper_default(params.c), seed, 2);
        (g, idx)
    }

    /// An engine over an in-memory graph + index.
    fn engine(g: &Graph, idx: &TopKIndex, threads: usize) -> ServingEngine {
        ServingEngine::with_threads(Dataset::new(g.clone(), idx.clone()).unwrap(), threads)
    }

    /// The dataset a `pack --shards N` bundle loads as.
    fn sharded(g: &Graph, idx: &TopKIndex, shards: u32) -> Dataset {
        let mut bytes = Vec::new();
        pack(g, idx, shards, &mut bytes).unwrap();
        let dir = std::env::temp_dir().join(format!("srs-engine-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Tests run in parallel: every call gets its own file, so no
        // test's write or delete can race another's load.
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let path = dir.join(format!("s{shards}-{}.srs", NEXT.fetch_add(1, Ordering::Relaxed)));
        std::fs::write(&path, &bytes).unwrap();
        let (loaded, info, _) = load_snapshot(&path, &LoadOptions::default()).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(info.shards, shards);
        loaded
    }

    fn wave(vertices: &[u32], k: usize, opts: &Arc<QueryOptions>) -> Vec<WaveQuery> {
        vertices.iter().map(|&v| WaveQuery { vertex: v, k, opts: Arc::clone(opts) }).collect()
    }

    #[test]
    fn batch_matches_sequential_context() {
        let (g, idx) = build();
        let engine = engine(&g, &idx, 4);
        let queries: Vec<VertexId> = (0..50).collect();
        let opts = QueryOptions { explain: true, ..Default::default() };
        let batch = engine.query_batch(&queries, 5, &opts);
        assert_eq!(batch.results.len(), queries.len());
        assert_eq!(batch.latencies.len(), queries.len());
        let mut ctx = QueryContext::new(&g, &idx);
        let mut expected_totals = QueryStats::default();
        for (&u, got) in queries.iter().zip(&batch.results) {
            let want = ctx.query(u, 5, &opts);
            assert_eq!(want.hits, got.hits, "u={u}");
            assert_eq!(want.stats, got.stats, "u={u}");
            assert_eq!(want.explain, got.explain, "u={u}");
            expected_totals.accumulate(&want.stats);
        }
        assert_eq!(batch.totals, expected_totals);
        assert_eq!(engine.query(7, 5, &opts).hits, batch.results[7].hits);
        let m = engine.metrics();
        assert_eq!(m.queries.get(), queries.len() as u64 + 1);
        assert_eq!(m.graph_vertices.get(), 200);
    }

    #[test]
    fn thread_count_invariant() {
        let (g, idx) = build();
        let queries: Vec<VertexId> = (0..40).collect();
        let reference = engine(&g, &idx, 1).query_batch(&queries, 8, &QueryOptions::default());
        for threads in [2, 3, 8] {
            let batch = engine(&g, &idx, threads).query_batch(&queries, 8, &QueryOptions::default());
            for (a, b) in reference.results.iter().zip(&batch.results) {
                assert_eq!(a.hits, b.hits);
                assert_eq!(a.stats, b.stats);
            }
            assert_eq!(reference.totals, batch.totals);
        }
    }

    #[test]
    fn pool_is_stable_after_warmup() {
        // Zero steady-state allocation proxy: the pool is a high-water
        // mark of batch concurrency — it can only grow toward the worker
        // count (how many workers raced a given batch is scheduling
        // noise), never past it, and reused pools and result buffers
        // never change an answer.
        let (g, idx) = build();
        let engine = engine(&g, &idx, 4);
        let queries: Vec<VertexId> = (0..32).collect();
        let mut out = BatchResult::new();
        engine.query_batch_into(&queries, 5, &QueryOptions::default(), &mut out);
        let mut warm = engine.pooled_states();
        assert!((1..=4).contains(&warm), "pool = {warm}");
        let first_hits: Vec<_> = out.results.iter().map(|r| r.hits.clone()).collect();
        for _ in 0..3 {
            engine.query_batch_into(&queries, 5, &QueryOptions::default(), &mut out);
            let now = engine.pooled_states();
            assert!((warm..=4).contains(&now), "pool must stay within [{warm}, 4], got {now}");
            warm = now;
            for (a, b) in first_hits.iter().zip(&out.results) {
                assert_eq!(a, &b.hits, "reused pool/result buffers changed answers");
            }
        }
    }

    #[test]
    fn batch_dedupes_repeated_queries_exactly() {
        // Duplicated query vertices are answered once and copied; output
        // (hits, stats, explain, totals) is bit-identical to answering
        // every occurrence independently.
        let (g, idx) = build();
        let queries: Vec<VertexId> = vec![5, 7, 5, 5, 9, 7, 12, 9, 5];
        let opts = QueryOptions { explain: true, ..Default::default() };
        let engine = engine(&g, &idx, 3);
        let batch = engine.query_batch(&queries, 5, &opts);
        assert_eq!(batch.deduped, 5, "9 queries, 4 unique → 4 computed, 5 copied");
        let mut ctx = QueryContext::new(&g, &idx);
        let mut expected_totals = QueryStats::default();
        for (&u, got) in queries.iter().zip(&batch.results) {
            let want = ctx.query(u, 5, &opts);
            assert_eq!(want.hits, got.hits, "u={u}");
            assert_eq!(want.stats, got.stats, "u={u}");
            assert_eq!(want.explain, got.explain, "u={u}");
            expected_totals.accumulate(&want.stats);
        }
        // Totals count every slot, duplicates included — same semantics as
        // the non-deduped path.
        assert_eq!(batch.totals, expected_totals);
        assert_eq!(batch.latencies.len(), queries.len());
        let m = engine.metrics();
        assert_eq!(m.deduped.get(), 5);
        assert_eq!(m.queries.get(), queries.len() as u64);
        // Duplicate slots share the unique computation's latency.
        assert_eq!(batch.latencies[0], batch.latencies[2]);
        assert_eq!(batch.latencies[0], batch.latencies[3]);
        let unique = engine.query_batch(&(0..20).collect::<Vec<_>>(), 5, &QueryOptions::default());
        assert_eq!(unique.deduped, 0);
        assert_eq!(m.deduped.get(), 5);
    }

    #[test]
    fn empty_batch_is_fine() {
        let (g, idx) = build();
        let batch = engine(&g, &idx, 4).query_batch(&[], 5, &QueryOptions::default());
        assert!(batch.results.is_empty());
        assert_eq!(batch.totals, QueryStats::default());
        assert_eq!(batch.latency, LatencySummary::default());
    }

    #[test]
    fn metrics_counters_match_batch_totals() {
        let (g, idx) = build();
        let engine = engine(&g, &idx, 3);
        let queries: Vec<VertexId> = (0..30).collect();
        let batch = engine.query_batch(&queries, 5, &QueryOptions::default());
        let t = &batch.totals;
        assert!(t.fates_accounted(), "fate identity must hold: {t:?}");
        let m = engine.metrics();
        assert_eq!(m.queries.get(), queries.len() as u64);
        assert_eq!(m.batches.get(), 1);
        assert_eq!(m.candidates.get(), t.candidates);
        let fates = [t.pruned_distance, t.pruned_bounds, t.pruned_coarse, t.refined, t.reported];
        for (cell, want) in m.fates.iter().zip(fates) {
            assert_eq!(cell.get(), want);
        }
        assert_eq!(m.bfs_visited.get(), t.bfs_visited);
        // Worker-level walk-class deltas must sum to the per-query deltas:
        // all walks in a batch happen inside some query.
        let by_class: u64 = m.walk_steps.iter().map(|c| c.get()).sum();
        assert_eq!(by_class, t.walk_steps);
        assert_eq!(m.latency.count(), queries.len() as u64);
        for h in &m.query_stages {
            assert_eq!(h.count(), queries.len() as u64);
        }
        let snap = m.snapshot();
        assert_eq!(snap.counter_total("srs_queries_total"), queries.len() as u64);
        assert_eq!(snap.counter_total("srs_query_candidates_total"), t.candidates);
    }

    #[test]
    fn swap_switches_datasets_atomically() {
        let (g1, idx1) = build();
        let g2 = gen::copying_web(150, 4, 0.8, 21);
        let params = SimRankParams { r_bounds: 2_000, ..Default::default() };
        let idx2 = TopKIndex::build_with(&g2, &params, Diagonal::paper_default(params.c), 9, 2);
        let want1 = idx1.query(&g1, 5, 4, &QueryOptions::default());
        let want2 = idx2.query(&g2, 5, 4, &QueryOptions::default());

        let engine = engine(&g1, &idx1, 2);
        assert_eq!(engine.query(5, 4, &QueryOptions::default()).hits, want1.hits);
        // Warm the pool, then swap: the new generation must not reuse
        // scratches sized for the old graph.
        engine.query_batch(&(0..20).collect::<Vec<_>>(), 4, &QueryOptions::default());
        assert!(engine.pooled_states() >= 1);

        let old = engine.swap(Dataset::new(g2, idx2).unwrap());
        assert_eq!(old.graph().num_vertices(), 200, "swap returns the replaced dataset");
        assert_eq!(engine.dataset().graph().num_vertices(), 150);
        assert_eq!(engine.pooled_states(), 0, "fresh generation starts with an empty pool");
        assert_eq!(engine.query(5, 4, &QueryOptions::default()).hits, want2.hits);
        assert_eq!(engine.metrics().dataset_swaps.get(), 1);
        assert_eq!(engine.metrics().graph_vertices.get(), 150);

        // The old dataset is still usable by whoever holds it.
        assert_eq!(old.index().query(old.graph(), 5, 4, &QueryOptions::default()).hits, want1.hits);
    }

    #[test]
    fn swap_may_change_the_shard_count() {
        let (g, idx) = build_small(80, 23);
        let slices = |e: &ServingEngine| e.dataset().index().candidate_index().inverted_slices();
        let opts = Arc::new(QueryOptions::default());
        let want = engine(&g, &idx, 2).query_wave(&wave(&[1, 2, 3], 4, &opts));
        let engine = ServingEngine::with_threads(sharded(&g, &idx, 2), 2);
        assert_eq!((engine.generation(), slices(&engine)), (1, 2));
        engine.swap(sharded(&g, &idx, 4));
        assert_eq!((engine.generation(), slices(&engine)), (2, 4));
        let out = engine.query_wave(&wave(&[1, 2, 3], 4, &opts));
        for (a, b) in want.results.iter().zip(&out.results) {
            assert_eq!((&a.hits, a.stats), (&b.hits, b.stats));
        }
        engine.swap(Dataset::new(g.clone(), idx.clone()).unwrap());
        assert_eq!((engine.generation(), slices(&engine)), (3, 1));
        let out = engine.query_wave(&wave(&[1, 2, 3], 4, &opts));
        assert_eq!(out.results.len(), 3);
        assert_eq!(out.generation, 3);
    }

    #[test]
    fn result_cache_hits_are_exact_and_counted() {
        let (g, idx) = build();
        let engine = engine(&g, &idx, 2);
        assert_eq!(engine.cache_capacity(), 0, "caching is off by default");
        engine.set_cache_capacity(64);
        let opts = QueryOptions::default();
        let cold = engine.query(7, 5, &opts);
        let warm = engine.query(7, 5, &opts);
        assert_eq!(cold.hits, warm.hits);
        assert_eq!(cold.stats, warm.stats);
        let m = engine.metrics();
        assert_eq!(m.cache_misses.get(), 1);
        assert_eq!(m.cache_hits.get(), 1);
        assert_eq!(m.queries.get(), 2, "cached answers still count as queries");
        assert_eq!(engine.cached_results(), 1);
        // Different k or options are different cache entries.
        let other_k = engine.query(7, 3, &opts);
        assert!(other_k.hits.len() <= 3);
        let other_opts = engine.query(7, 5, &QueryOptions { wave_width: 1, ..Default::default() });
        assert_eq!(other_opts.hits, cold.hits, "wave width never changes answers");
        assert_eq!(m.cache_misses.get(), 3);
        assert_eq!(engine.cached_results(), 3);
    }

    #[test]
    fn cached_answers_carry_no_stage_timings() {
        let (g, idx) = build();
        let engine = engine(&g, &idx, 1);
        engine.set_cache_capacity(8);
        for opts in [QueryOptions::default(), QueryOptions::sampled()] {
            let cold = engine.query(7, 5, &opts);
            let hits_before = engine.metrics().cache_hits.get();
            let warm = engine.query(7, 5, &opts);
            assert_eq!(engine.metrics().cache_hits.get(), hits_before + 1, "served from the cache");
            assert_eq!(cold.hits, warm.hits);
            assert!(cold.timings.total_ns() > 0, "a computed answer carries its stage timings");
            assert_eq!(warm.timings.total_ns(), 0, "a cached answer ran no stage");
        }
    }

    #[test]
    fn cached_batches_are_bit_identical_to_uncached() {
        let (g, idx) = build();
        let queries: Vec<VertexId> = (0..30).chain(5..15).collect();
        let opts = QueryOptions::default();
        let reference = engine(&g, &idx, 3).query_batch(&queries, 6, &opts);
        let engine = engine(&g, &idx, 3);
        engine.set_cache_capacity(256);
        // First pass computes everything, second pass is all cache hits —
        // and both must match the uncached engine slot for slot.
        for pass in 0..2 {
            let batch = engine.query_batch(&queries, 6, &opts);
            for (i, (a, b)) in reference.results.iter().zip(&batch.results).enumerate() {
                assert_eq!(a.hits, b.hits, "pass {pass} slot {i}");
                assert_eq!(a.stats, b.stats, "pass {pass} slot {i}");
            }
            assert_eq!(reference.totals, batch.totals, "pass {pass}");
        }
        let m = engine.metrics();
        // Pass 1: 30 unique misses + 10 duplicate-slot misses (the dedup
        // handles them); pass 2: all 40 slots hit.
        assert_eq!(m.cache_misses.get(), 40);
        assert_eq!(m.cache_hits.get(), 40);
        assert_eq!(m.queries.get(), 80);
        assert_eq!(engine.cached_results(), 30);
    }

    #[test]
    fn cache_evicts_fifo_and_caps_memory() {
        let (g, idx) = build();
        let engine = engine(&g, &idx, 2);
        engine.set_cache_capacity(4);
        let opts = QueryOptions::default();
        for u in 0..10 {
            engine.query(u, 5, &opts);
        }
        assert_eq!(engine.cached_results(), 4, "capacity bounds the cache");
        // The most recent inserts survive; vertex 0 was evicted long ago.
        engine.query(9, 5, &opts);
        assert_eq!(engine.metrics().cache_hits.get(), 1);
        engine.query(0, 5, &opts);
        assert_eq!(engine.metrics().cache_misses.get(), 11);
    }

    #[test]
    fn swap_invalidates_cache_for_free() {
        let (g1, idx1) = build();
        let g2 = gen::copying_web(150, 4, 0.8, 21);
        let params = SimRankParams { r_bounds: 2_000, ..Default::default() };
        let idx2 = TopKIndex::build_with(&g2, &params, Diagonal::paper_default(params.c), 9, 2);
        let want2 = idx2.query(&g2, 5, 4, &QueryOptions::default());
        let engine = engine(&g1, &idx1, 2);
        engine.set_cache_capacity(64);
        assert_eq!(engine.generation(), 1);
        engine.query(5, 4, &QueryOptions::default());
        engine.query(5, 4, &QueryOptions::default());
        assert_eq!(engine.cached_results(), 1);
        engine.swap(Dataset::new(g2, idx2).unwrap());
        assert_eq!(engine.generation(), 2);
        assert_eq!(engine.cached_results(), 0, "new generation starts cold");
        // The same key now answers from the new dataset, not a stale entry.
        assert_eq!(engine.query(5, 4, &QueryOptions::default()).hits, want2.hits);
    }

    #[test]
    fn query_wave_groups_by_options_and_matches_singles() {
        let (g, idx) = build();
        let engine = engine(&g, &idx, 2);
        let defaults = Arc::new(QueryOptions::default());
        let scalar = Arc::new(QueryOptions { wave_width: 1, ..Default::default() });
        let wave: Vec<WaveQuery> = vec![
            WaveQuery { vertex: 3, k: 5, opts: Arc::clone(&defaults) },
            WaveQuery { vertex: 9, k: 5, opts: Arc::clone(&defaults) },
            WaveQuery { vertex: 3, k: 2, opts: Arc::clone(&defaults) },
            WaveQuery { vertex: 11, k: 5, opts: Arc::clone(&scalar) },
            WaveQuery { vertex: 14, k: 5, opts: Arc::clone(&defaults) },
        ];
        let outcome = engine.query_wave(&wave);
        assert_eq!(outcome.results.len(), wave.len());
        // Three groups: (k=5, defaults) ×3, (k=2, defaults) ×1, (k=5, scalar) ×1.
        let mut sizes = outcome.batch_sizes.clone();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 1, 3]);
        for (q, got) in wave.iter().zip(&outcome.results) {
            let want = engine.query(q.vertex, q.k, &q.opts);
            assert_eq!(want.hits, got.hits, "vertex {} k {}", q.vertex, q.k);
            assert_eq!(want.stats, got.stats, "vertex {} k {}", q.vertex, q.k);
        }
        assert_eq!(outcome.latencies.len(), wave.len());
        assert_eq!(outcome.generation, 1, "wave reports the pinned generation");
        assert!(outcome.out_of_range.iter().all(|&r| !r));
        // An empty wave is a no-op.
        let empty = engine.query_wave(&[]);
        assert!(empty.results.is_empty() && empty.batch_sizes.is_empty());
    }

    #[test]
    fn query_wave_rejects_out_of_range_vertices_instead_of_panicking() {
        let (g, idx) = build();
        let n = g.num_vertices() as VertexId;
        let defaults = Arc::new(QueryOptions::default());
        // A submitter may have validated against an older, larger
        // generation — the wave must flag the stale vertex, not index out
        // of range, and still answer the valid requests around it.
        let queries = [3, n + 7, 9];
        for engine in [engine(&g, &idx, 2), ServingEngine::with_threads(sharded(&g, &idx, 2), 2)] {
            let outcome = engine.query_wave(&wave(&queries, 5, &defaults));
            assert_eq!(outcome.out_of_range, vec![false, true, false]);
            assert!(outcome.results[1].hits.is_empty(), "rejected slot stays empty");
            assert_eq!(outcome.results[0].hits, engine.query(3, 5, &defaults).hits);
            assert_eq!(outcome.results[2].hits, engine.query(9, 5, &defaults).hits);
            // The valid requests still coalesced into one engine batch.
            assert_eq!(outcome.batch_sizes, vec![2]);
        }
    }

    #[test]
    fn wave_generation_tracks_swaps() {
        let (g, idx) = build();
        let engine = engine(&g, &idx, 2);
        let wave = vec![WaveQuery { vertex: 1, k: 3, opts: Arc::new(QueryOptions::default()) }];
        assert_eq!(engine.query_wave(&wave).generation, 1);
        engine.swap(Dataset::new(g, idx).unwrap());
        assert_eq!(engine.generation(), 2);
        assert_eq!(engine.query_wave(&wave).generation, 2);
    }

    #[test]
    fn sharded_serving_records_stage_and_walk_metrics() {
        // Every worker's scratch observations land in the one metrics
        // set: the stage histograms sum to the per-query timings (the
        // same clock reads traces and benches use), and the walk-step
        // counters to the walk steps.
        let (g, idx) = build_small(160, 26);
        let queries: Vec<u32> = (0..160).step_by(3).collect();
        for opts in [QueryOptions::sampled(), QueryOptions::default()] {
            let engine = ServingEngine::with_threads(sharded(&g, &idx, 4), 4);
            let batch = engine.query_batch(&queries, 6, &opts);
            let m = engine.metrics();
            for (s, h) in m.query_stages.iter().enumerate() {
                let want: u64 = batch.results.iter().map(|r| r.timings.stages[s]).sum();
                assert_eq!(h.sum(), want, "stage {s}");
                assert_eq!(h.count(), queries.len() as u64, "one observation per query");
            }
            let by_class: u64 = m.walk_steps.iter().map(|c| c.get()).sum();
            assert_eq!(by_class, batch.totals.walk_steps);
            let t = &batch.totals;
            if opts.estimator == Estimator::Sampled {
                assert!(t.walk_steps > 0);
            } else {
                assert!(t.push_edges > 0 && t.walk_steps == 0, "{t:?}");
            }
            assert_eq!(m.push_edges.get(), t.push_edges);
            assert_eq!(m.head_empty.get(), t.head_empty);
            assert_eq!(m.queries.get(), queries.len() as u64);
            assert_eq!(m.latency.count(), queries.len() as u64);
            assert_eq!(m.candidates.get(), t.candidates);
        }
        let engine = ServingEngine::with_threads(sharded(&g, &idx, 4), 4);
        let m = engine.metrics();

        // Repeated vertices are answered once and copied.
        let repeated: Vec<u32> = vec![4, 8, 4, 4, 15, 8];
        let batch = engine.query_batch(&repeated, 6, &QueryOptions::default());
        assert_eq!(batch.deduped, 3);
        assert_eq!(m.deduped.get(), 3);
        assert_eq!(batch.results[0].hits, batch.results[2].hits);
    }

    #[test]
    fn opts_fingerprint_distinguishes_fields() {
        let base = QueryOptions::default();
        assert_eq!(base.fingerprint(), QueryOptions::default().fingerprint());
        // One input per field, so the hand-written `fingerprint()` is
        // pinned to every field `QueryOptions` has.
        let changed = [
            QueryOptions::sampled(),
            QueryOptions { use_distance_bound: false, ..Default::default() },
            QueryOptions { use_l1: false, ..Default::default() },
            QueryOptions { adaptive: false, ..Default::default() },
            QueryOptions { candidate_ball: Some(2), ..Default::default() },
            QueryOptions { theta: Some(0.05), ..Default::default() },
            QueryOptions { explain: true, ..Default::default() },
            QueryOptions { wave_width: 1, ..Default::default() },
        ];
        for c in &changed {
            assert_ne!(base.fingerprint(), c.fingerprint(), "{c:?}");
        }
        assert_ne!(opts_key(5, &base), opts_key(6, &base), "k is part of the key");
    }

    #[test]
    fn latency_summary_percentiles_ordered() {
        let samples: Vec<Duration> = (1..=100).map(Duration::from_micros).collect();
        let mut scratch = Vec::new();
        let s = LatencySummary::compute(&samples, &mut scratch);
        assert_eq!(s.p50, Duration::from_micros(50));
        assert_eq!(s.p95, Duration::from_micros(95));
        assert_eq!(s.p99, Duration::from_micros(99));
        assert_eq!(s.max, Duration::from_micros(100));
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
    }
}

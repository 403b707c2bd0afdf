//! Algorithm 5 — the top-k similarity query, plus the preprocess driver.
//!
//! [`TopKIndex::build`] runs the preprocess phase (the candidate index,
//! Algorithm 4) — `O(n PQ T)` time, `O(n)` space: the paper's §7.1
//! without Algorithm 3's γ table, whose L2 bound cannot prune at the
//! served θ (see [`crate::bounds`]). [`TopKIndex::query`] then answers a
//! top-k query (Algorithm 5):
//!
//! 1. enumerate candidates `S = {v : Γ(u) ∩ Γ(v) ≠ ∅}` from the index,
//!    plus the optional candidate ball, which is counted per BFS level
//!    and never listed;
//! 2. prune with the two upper bounds `c^d` and `β(u,d)` against θ. Both
//!    depend on the distance alone, so each distance is decided once,
//!    and a ball level is counted as a whole.
//!    The per-query β table (Algorithm 2, `r_bounds` walks) is built only
//!    when it can cost fewer walks than it could save,
//!    `|C| · 2 · R > r_bounds` (see `l1_table_pays`); otherwise β reads +∞;
//! 3. screen structural zeros (see [`crate::screen`]). Once `u`'s meet
//!    set `M(u)` is built, every survivor outside it scores exactly 0.0
//!    and, at θ > 0, is decided in bulk: only `M(u)`'s survivors become
//!    list entries. Without a meet set, or at θ = 0, every survivor does;
//! 4. sort the entries by undirected distance (the §2.2 "ascending order
//!    of distance" scan) and estimate them with adaptive sampling: coarse
//!    estimate with `R = 10` walks, refine the survivors with `R = 100`
//!    (§7.2);
//! 5. return the k highest refined scores.
//!
//! The threshold is θ throughout — the paper's `max(θ, kth − slack)`
//! k-th score floor is not applied — so every candidate's fate is
//! independent of scan order and of k: the answer is the first k rows of
//! the ranking (score, then lower vertex id) of all candidates whose
//! refined score reaches θ.
//!
//! Every pruning stage (the two bounds, adaptive sampling) can be
//! disabled through [`QueryOptions`] — that is what the ablation benches
//! sweep. The coarse cut is a fixed constant of the scan
//! (`COARSE_FRACTION`).

use crate::bounds::AlphaBeta;
use crate::index::{CandidateIndex, SeenStamps};
use crate::obs::{BuildObs, QueryLocalObs, ServingMetrics, StageTimings};
use crate::screen::ZeroScreen;
use crate::single_pair::{EstimatorBuffers, WaveEstimator};
use crate::{Diagonal, SimRankParams};
use srs_graph::bfs::{BfsBuffers, Direction, UNREACHED};
use srs_graph::hash::mix_seed;
use srs_graph::{Graph, VertexId};
use srs_mc::{WalkEngine, WalkPositions};
use srs_obs::{CandidateFate, CandidateRecord, ExplainTrace};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// One result row: a vertex and its estimated SimRank score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    /// The similar vertex.
    pub vertex: VertexId,
    /// Monte-Carlo estimate of `s(query, vertex)`.
    pub score: f64,
}

/// Query-time switches (all bounds on, adaptive sampling on, by default).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOptions {
    /// Prune with the trivial bound `s(u,v) ≤ c^d`.
    pub use_distance_bound: bool,
    /// Prune with the L1 bound `β(u, d)` (Algorithm 2, per query).
    pub use_l1: bool,
    /// Two-stage adaptive sampling (§7.2). When off, every surviving
    /// candidate is refined directly.
    pub adaptive: bool,
    /// Extension beyond the paper: additionally treat every vertex within
    /// this undirected distance of the query as a candidate. Raises recall
    /// on graphs where the random-walk index misses borderline pairs, at
    /// the cost of a deeper query BFS and more estimates; the ball is
    /// counted per BFS level, not listed. `None` (default) is the paper's
    /// pure Algorithm 5. A radius above the index's `d_max` acts as
    /// `d_max`: the query BFS never looks farther.
    pub candidate_ball: Option<u32>,
    /// Overrides the index's score threshold `θ` for this query (used by
    /// the Table 3 accuracy experiment, which sweeps thresholds).
    pub theta: Option<f64>,
    /// Record a per-candidate [`ExplainTrace`] into
    /// [`TopKResult::explain`]: every enumerated candidate's fate (which
    /// bound pruned it, or how its refinement scored) with the bound value
    /// vs. the threshold. Off by default — the trace allocates and
    /// is meant for interactive debugging, not the serving path. Scores
    /// and stats are unaffected either way.
    pub explain: bool,
    /// How many bound-surviving candidates the scan batches into one
    /// multi-source walk **wave** (see DESIGN.md §5g). A wave estimates
    /// its candidates through the wide kernel, which replays the scalar
    /// estimate bit for bit, and every candidate is decided once against
    /// θ, so hits, every stat but `waves`, and explain traces are
    /// identical for every width. `1` estimates one candidate at a time (the scalar
    /// estimator); per-vertex diagonals always use the scalar estimator.
    pub wave_width: u32,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions {
            use_distance_bound: true,
            use_l1: true,
            adaptive: true,
            candidate_ball: None,
            theta: None,
            explain: false,
            wave_width: 32,
        }
    }
}

impl QueryOptions {
    /// A stable 64-bit fingerprint over every field (floats hashed by bit
    /// pattern), used as the options component of result-cache keys and as
    /// a cheap pre-filter when coalescing requests into engine batches.
    /// Equal options always fingerprint equal; callers that must never
    /// confuse two option sets (the cache, the coalescer) additionally
    /// compare with `==` on fingerprint match, so a collision can cost a
    /// missed share but never a wrong answer.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = srs_graph::hash::FxHasher::default();
        self.use_distance_bound.hash(&mut h);
        self.use_l1.hash(&mut h);
        self.adaptive.hash(&mut h);
        self.candidate_ball.hash(&mut h);
        self.theta.map(f64::to_bits).hash(&mut h);
        self.explain.hash(&mut h);
        self.wave_width.hash(&mut h);
        h.finish()
    }
}

/// Counters describing how a query was answered (pruning effectiveness —
/// the quantities behind the paper's §8.1 discussion).
///
/// The five fate counters partition the enumerated candidates — the
/// accounting identity `candidates == pruned_distance + pruned_bounds +
/// pruned_coarse + refined + reported` ([`QueryStats::fates_accounted`])
/// holds for every query and is `debug_assert`ed on the query path, so
/// pruning counters can never silently drift.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Candidates enumerated: the index's, plus the candidate ball's
    /// members, each once.
    pub candidates: u64,
    /// Candidates discarded by the `c^d` bound (incl. out-of-horizon ones).
    pub pruned_distance: u64,
    /// Candidates discarded by the L1 bound.
    pub pruned_bounds: u64,
    /// Candidates discarded after the coarse pass.
    pub pruned_coarse: u64,
    /// Candidates refined with the full walk budget whose score landed
    /// below θ (refinement work that produced no hit).
    pub refined: u64,
    /// Candidates refined with the full walk budget whose score reached θ
    /// (offered to the top-k heap; lower scorers may still be evicted).
    pub reported: u64,
    /// Vertices visited by the query-time BFS: the ball around the query
    /// vertex complete through the depth that places every candidate
    /// (the candidate-ball radius at least), plus candidates one level
    /// deeper — not the whole `d_max` ball.
    pub bfs_visited: u64,
    /// Reverse walk steps performed answering the query (L1 table, coarse
    /// and refine estimates — everything the walk kernels stepped). Equal
    /// for every wave width: a wave estimates exactly the candidates the
    /// scalar scan would.
    pub walk_steps: u64,
    /// Algorithm 2 L1 tables built: 1 when the query paid for its table,
    /// 0 when it had no candidates, `use_l1` was off, or the table could
    /// not pay for itself (`|C| · 2 · R ≤ r_bounds`).
    pub l1_tables: u64,
    /// Candidates whose estimates the structural-zero screen set to 0.0
    /// without walking (their reverse layers never share a vertex at the
    /// same step; see DESIGN.md §5g). A work counter, not a fate: these
    /// candidates keep their coarse-pruned or refined fate. With the meet
    /// set built it is the survivors outside `M(u)`, counted in bulk at
    /// θ > 0. The same at every wave width.
    pub zero_screened: u64,
    /// Meet sets built by the structural-zero screen: 1 when the query
    /// built `M(u)` within its `|C| · 2 · R_coarse` edge-scan budget (`|C|`
    /// the candidates the bounds keep at θ) and decided every screened
    /// candidate with one bit test, 0 when no candidate can reach the
    /// screen, `T > 32`, or the build did not fit (the screen then decides
    /// each candidate from its own layers).
    pub meet_sets: u64,
    /// Walk waves estimated through the wide kernel: only waves with at
    /// least one lane count (0 on the scalar path). A wave fills its
    /// `wave_width` lanes from the list entries the screen does not prove
    /// 0.0, so when the meet set decides the zeros in bulk it is
    /// `⌈entries / wave_width⌉`; on the full list a run of `MAX_SPAN`
    /// zeros also closes a wave.
    pub waves: u64,
}

impl QueryStats {
    /// Adds `other`'s counters into `self` (used to aggregate per-worker
    /// totals in the batch engine and the all-vertices driver).
    pub fn accumulate(&mut self, other: &QueryStats) {
        self.candidates += other.candidates;
        self.pruned_distance += other.pruned_distance;
        self.pruned_bounds += other.pruned_bounds;
        self.pruned_coarse += other.pruned_coarse;
        self.refined += other.refined;
        self.reported += other.reported;
        self.bfs_visited += other.bfs_visited;
        self.walk_steps += other.walk_steps;
        self.l1_tables += other.l1_tables;
        self.zero_screened += other.zero_screened;
        self.meet_sets += other.meet_sets;
        self.waves += other.waves;
    }

    /// The checked accounting identity: every enumerated candidate has
    /// exactly one fate.
    pub fn fates_accounted(&self) -> bool {
        self.candidates
            == self.pruned_distance + self.pruned_bounds + self.pruned_coarse + self.refined + self.reported
    }

    /// Candidates that paid the full refinement budget, regardless of
    /// whether the score reached θ (the cost-side number callers report).
    pub fn refine_calls(&self) -> u64 {
        self.refined + self.reported
    }
}

/// A finished query: hits sorted by descending score, plus counters.
#[derive(Debug, Clone, Default)]
pub struct TopKResult {
    /// Up to `k` hits, best first.
    pub hits: Vec<Hit>,
    /// Pruning counters.
    pub stats: QueryStats,
    /// Per-candidate trace, present iff [`QueryOptions::explain`] was set.
    pub explain: Option<ExplainTrace>,
    /// Wall-clock stage durations for this query (observations, not
    /// results — see [`StageTimings`]). A cache-served answer carries
    /// the timings of the query that originally computed it.
    pub timings: StageTimings,
}

/// The preprocess artifact: the candidate index (+ parameters, diagonal and
/// the seed that keeps query-time randomness reproducible).
#[derive(Debug, Clone)]
pub struct TopKIndex {
    pub(crate) params: SimRankParams,
    pub(crate) diag: Diagonal,
    pub(crate) candidates: CandidateIndex,
    pub(crate) seed: u64,
}

impl TopKIndex {
    /// Runs the preprocess phase with the paper's default diagonal
    /// `D = (1−c) I`, using all available parallelism.
    pub fn build(g: &Graph, params: &SimRankParams, seed: u64) -> Self {
        let threads = std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1);
        Self::build_with(g, params, Diagonal::paper_default(params.c), seed, threads)
    }

    /// Full-control preprocess: explicit diagonal and thread count.
    pub fn build_with(g: &Graph, params: &SimRankParams, diag: Diagonal, seed: u64, threads: usize) -> Self {
        Self::build_observed(g, params, diag, seed, threads, &BuildObs::default())
    }

    /// [`TopKIndex::build_with`] with observation hooks: per-stage
    /// duration histograms (`srs_build_stage_ns`) and a vertices/sec
    /// progress reporter. The built index is bit-identical to the
    /// unobserved build — the hooks only read clocks and bump counters,
    /// never an RNG stream.
    pub fn build_observed(
        g: &Graph,
        params: &SimRankParams,
        diag: Diagonal,
        seed: u64,
        threads: usize,
        obs: &BuildObs<'_>,
    ) -> Self {
        params.validate();
        let candidates = CandidateIndex::build_observed(g, params, mix_seed(&[seed, 2]), threads, &[], obs);
        TopKIndex { params: params.clone(), diag, candidates, seed }
    }

    /// The parameters the index was built with.
    pub fn params(&self) -> &SimRankParams {
        &self.params
    }

    /// The candidate index (exposed for benches and tests).
    pub fn candidate_index(&self) -> &CandidateIndex {
        &self.candidates
    }

    /// Preprocess artifact size in bytes (the "Index" column of Table 4).
    pub fn memory_bytes(&self) -> u64 {
        self.candidates.memory_bytes()
    }

    /// Index bytes split by backing (heap-resident versus `mmap`-served).
    /// A per-vertex diagonal counts as resident — it is always decoded
    /// onto the heap.
    pub fn memory_profile(&self) -> srs_graph::MemoryProfile {
        let mut p = self.candidates.memory_profile();
        if let crate::Diagonal::PerVertex(v) = &self.diag {
            p.add_resident((v.len() * 8) as u64);
        }
        p
    }

    /// Answers a top-k query (Algorithm 5). Allocates fresh query state;
    /// for repeated queries prefer [`QueryContext`].
    pub fn query(&self, g: &Graph, u: VertexId, k: usize, opts: &QueryOptions) -> TopKResult {
        QueryContext::new(g, self).query(u, k, opts)
    }
}

/// Lifetime-free, reusable per-worker query state: every buffer Algorithm 5
/// touches, owned in one place so that a warm worker answers a query
/// without heap allocation. The graph and index are passed per call,
/// which lets the batch engine keep scratches in a `'static` pool.
///
/// [`QueryScratch::query_into`] is the staged pipeline: candidate
/// enumeration → per-query bound tables → bounded/adaptive scan → hit
/// collection. Results are bit-identical to the pre-split monolithic
/// query for the same `(graph, index, u, k, opts)` — each stage consumes
/// its own deterministic seed stream, so neither batching nor thread
/// count can perturb scores.
pub struct QueryScratch {
    /// Query-time BFS, stopped once every candidate has a distance.
    bfs: BfsBuffers,
    /// Depth through which the last query's BFS ball is complete.
    ball_depth: u32,
    /// The candidate ball's radius, clamped to the BFS: levels `1..=`this
    /// of the BFS are candidates, counted per level (0 without a ball).
    ball_radius: u32,
    /// Per-distance verdict of the `c^d` and L1 bounds for the last query:
    /// entry `d` for every BFS level, then one for unreachable candidates
    /// (see [`QueryScratch::bound_at`]). `None` keeps the distance.
    bounds: Vec<Option<(CandidateFate, f64)>>,
    /// Algorithm 2 L1 table storage (recomputed per query when enabled).
    l1: AlphaBeta,
    /// Walk-position buffer for the L1 table.
    walks: WalkPositions,
    /// Dense per-vertex position counts for the L1 table (grown to `n`
    /// on first use, all-zero between uses). The scan lends it to the
    /// structural-zero screen as its layer mask.
    l1_counts: Vec<u32>,
    /// Structural-zero screen of the candidate scan.
    screen: ZeroScreen,
    /// Candidate ids straight from the index.
    cand_ids: Vec<VertexId>,
    /// Candidate list entries keyed `(distance, vertex)`: after enumeration
    /// the index candidates outside the ball; the scan narrows them to the
    /// candidates it estimates (see [`QueryScratch::scan_candidates`]) and
    /// sorts them.
    cands: Vec<(u32, VertexId)>,
    /// Epoch-stamped dedup buffer for candidate enumeration (O(1) reset per
    /// query). The scan lends it to the structural-zero screen for the
    /// meet set's per-level dedup.
    seen: SeenStamps,
    /// Running top-k (min-heap on score).
    heap: BinaryHeap<Reverse<HeapHit>>,
    /// The scan's wave state and estimators.
    wave: WaveScratch,
    /// Stage-duration accumulators, drained by the engine at batch end.
    obs: QueryLocalObs,
    /// Fund no meet set, so the screen falls back and the scan walks the
    /// full list (the reference the bulk path is tested against).
    #[cfg(test)]
    withhold_meet: bool,
}

/// Scratch for the candidate scan: the current wave's lanes, their
/// estimates, and the two Algorithm 1 estimators.
#[derive(Default)]
struct WaveScratch {
    /// The wide multi-source kernel (uniform diagonal, width ≥ 2).
    wide: WaveEstimator,
    /// One pair at a time (width 1, or a per-vertex diagonal).
    scalar: EstimatorBuffers,
    /// The wave's lanes: vertices and per-candidate seeds, in scan order.
    targets: Vec<VertexId>,
    seeds: Vec<u64>,
    /// Coarse estimates, aligned with the lanes.
    coarse: Vec<f64>,
    /// The lanes picked for refinement: vertices, seeds, refined scores.
    refine_targets: Vec<VertexId>,
    refine_seeds: Vec<u64>,
    refined: Vec<f64>,
}

impl WaveScratch {
    /// Algorithm 1 for every lane (`refine` off: `r_coarse` walks into
    /// `coarse`) or every picked lane (`refine` on: `r_refine` walks into
    /// `refined`), through the wide kernel when `wide` is set and the
    /// diagonal is uniform, one pair at a time otherwise. Both routes draw
    /// each candidate's own seed, so the estimates are bit-identical.
    fn estimate(
        &mut self,
        engine: &WalkEngine<'_>,
        diag: &Diagonal,
        wide: bool,
        u: VertexId,
        params: &SimRankParams,
        refine: bool,
    ) {
        let (targets, seeds, out, r) = if refine {
            (&self.refine_targets, &self.refine_seeds, &mut self.refined, params.r_refine)
        } else {
            (&self.targets, &self.seeds, &mut self.coarse, params.r_coarse)
        };
        match *diag {
            Diagonal::Uniform(x) if wide && !targets.is_empty() => {
                self.wide.estimate_pairs_into(engine, x, u, targets, params, r, seeds, out)
            }
            _ => {
                out.clear();
                let scalar = &mut self.scalar;
                out.extend(
                    targets
                        .iter()
                        .zip(seeds)
                        .map(|(&v, &seed)| scalar.estimate(engine, diag, u, v, params, r, seed)),
                );
            }
        }
    }
}

/// Most list entries one wave examines. Screened zeros take no wave
/// lane, so without a cap one wave could screen the whole candidate list
/// before it estimates anything. Only the full list holds zeros: on the
/// bulk path every entry is in `M(u)`.
const MAX_SPAN: usize = 1024;

/// A candidate is refined when its coarse estimate reaches this fraction
/// of θ.
const COARSE_FRACTION: f64 = 0.5;

impl QueryScratch {
    /// Creates scratch state sized for `g`. Everything else grows on first
    /// use and is retained across queries.
    pub fn new(g: &Graph) -> Self {
        QueryScratch {
            bfs: BfsBuffers::new(g.num_vertices()),
            ball_depth: 0,
            ball_radius: 0,
            bounds: Vec::new(),
            l1: AlphaBeta::new_empty(),
            walks: WalkPositions::new(),
            l1_counts: Vec::new(),
            screen: ZeroScreen::default(),
            cand_ids: Vec::new(),
            cands: Vec::new(),
            seen: SeenStamps::new(),
            heap: BinaryHeap::new(),
            wave: WaveScratch::default(),
            obs: QueryLocalObs::new(),
            #[cfg(test)]
            withhold_meet: false,
        }
    }

    /// Drains this scratch's stage-duration accumulators into `m` (called
    /// by the engine once per batch, per worker).
    pub(crate) fn merge_obs_into(&mut self, m: &ServingMetrics) {
        self.obs.merge_into(m);
    }

    /// Algorithm 5 for query vertex `u`, writing into `out` (cleared
    /// first). `g` must be the graph `index` was built over and the one
    /// this scratch was sized for.
    pub fn query_into(
        &mut self,
        g: &Graph,
        index: &TopKIndex,
        u: VertexId,
        k: usize,
        opts: &QueryOptions,
        out: &mut TopKResult,
    ) {
        let theta = opts.theta.unwrap_or(index.params.theta);
        out.hits.clear();
        out.stats = QueryStats::default();
        out.explain = if opts.explain { Some(ExplainTrace::new(u, k, theta)) } else { None };
        out.timings = StageTimings::default();
        self.heap.clear();
        // Walk-step attribution: everything the kernels step between here
        // and the end of the scan belongs to this query (scratches never
        // migrate threads mid-query). Deterministic — the same query
        // performs the same walks regardless of thread count.
        let walk_base = srs_mc::obs::thread_counts().total();
        let t = Instant::now();
        self.enumerate_candidates(g, index, u, opts, &mut out.stats);
        let dt = t.elapsed().as_nanos() as u64;
        self.obs.stages[0].record(dt);
        out.timings.stages[0] = dt;
        let t = Instant::now();
        self.prepare_query_tables(g, index, u, opts, &mut out.stats);
        let dt = t.elapsed().as_nanos() as u64;
        self.obs.stages[1].record(dt);
        out.timings.stages[1] = dt;
        let t = Instant::now();
        self.scan_candidates(g, index, u, k, opts, theta, &mut out.stats, out.explain.as_mut());
        let dt = t.elapsed().as_nanos() as u64;
        self.obs.stages[2].record(dt);
        out.timings.stages[2] = dt;
        let t = Instant::now();
        out.hits.extend(self.heap.drain().map(|h| Hit { vertex: h.0.vertex, score: h.0.score }));
        out.hits.sort_by(|a, b| {
            b.score.partial_cmp(&a.score).expect("scores are finite").then(a.vertex.cmp(&b.vertex))
        });
        let dt = t.elapsed().as_nanos() as u64;
        self.obs.stages[3].record(dt);
        out.timings.stages[3] = dt;
        out.stats.walk_steps = srs_mc::obs::thread_counts().total() - walk_base;
        debug_assert!(out.stats.fates_accounted(), "fate counters drifted: {:?}", out.stats);
    }

    /// Stage 1 — candidate enumeration (line 2 of Algorithm 5, plus the
    /// optional candidate ball), then a BFS just deep enough to give every
    /// candidate its distance, leaving `self.ball_depth` set for the L1
    /// table. The ball is the BFS's levels `1..=self.ball_radius` and is
    /// only counted; the index candidates outside it are the list entries
    /// of `self.cands`, unsorted.
    fn enumerate_candidates(
        &mut self,
        g: &Graph,
        index: &TopKIndex,
        u: VertexId,
        opts: &QueryOptions,
        stats: &mut QueryStats,
    ) {
        // The stamp generation opened here (u and all index candidates
        // marked seen) carries over to the candidate-ball extension below.
        index.candidates.candidates_into_stamped(u, &mut self.cand_ids, &mut self.seen);

        // Distances from u (needed by the c^d and L1 bounds; undirected —
        // see DESIGN.md on Proposition 4), never past d_max. The BFS stops
        // once every index candidate has one and the candidate ball is
        // complete; a radius above d_max is clamped there by the BFS. With
        // more series terms than d_max + 1 the L1 table must tell
        // positions beyond d_max apart, which needs the full d_max ball.
        let params = &index.params;
        let mut min_depth = opts.candidate_ball.unwrap_or(0);
        if params.t > params.d_max.saturating_add(1) {
            min_depth = params.d_max;
        }
        self.ball_depth =
            self.bfs.run_targeted(g, u, Direction::Undirected, params.d_max, min_depth, &self.cand_ids);
        stats.bfs_visited = self.bfs.visited().len() as u64;

        // The BFS completes the ball through the radius, or through d_max
        // for a larger one, past which it visits nothing. Level 0 is u.
        self.ball_radius = opts.candidate_ball.map_or(0, |r| r.min(self.ball_depth));
        let (bfs, radius) = (&self.bfs, self.ball_radius);
        self.cands.clear();
        self.cands.extend(self.cand_ids.iter().map(|&v| (bfs.distance(v), v)).filter(|&(d, _)| d > radius));
        let ball: usize = (1..=radius).map(|d| bfs.level(d).len()).sum();
        stats.candidates = (ball + self.cands.len()) as u64;
    }

    /// Stage 2 — the per-query L1 table (Algorithm 2), into reused
    /// storage, built only when there are candidates to bound and the
    /// table can pay for itself ([`l1_table_pays`]). A skipped table is
    /// cleared, so every β reads +∞ and the scan falls back to the other
    /// bounds.
    fn prepare_query_tables(
        &mut self,
        g: &Graph,
        index: &TopKIndex,
        u: VertexId,
        opts: &QueryOptions,
        stats: &mut QueryStats,
    ) {
        let params = &index.params;
        let candidates = stats.candidates as usize;
        if opts.use_l1 && candidates > 0 && l1_table_pays(candidates, params, opts) {
            stats.l1_tables = 1;
            // Candidates sit at most one level past the complete ball, and
            // the table is exact through that distance.
            let bfs = &self.bfs;
            self.l1.compute_into(
                g,
                u,
                params,
                &index.diag,
                |w| bfs.distance(w),
                self.ball_depth.saturating_add(1),
                mix_seed(&[index.seed, 3, u as u64]),
                &mut self.walks,
                &mut self.l1_counts,
            );
        } else {
            self.l1.clear();
        }
    }

    /// Stage 3 — the bounded, adaptive candidate scan: distance bound →
    /// L1 bound → coarse pass → refine, all against θ, into the running
    /// top-k heap. [`QueryScratch::prune_by_bounds`] decides each distance
    /// once and counts the survivors `|C|`, which fund the structural-zero
    /// screen's meet set `M(u)`. With `M(u)` built and θ > 0,
    /// [`QueryScratch::keep_meet_members`] decides every survivor outside
    /// it in bulk, and the list holds only `M(u)`'s survivors. Otherwise —
    /// a fallback screen, whose credit depends on scan order, or θ = 0,
    /// where a 0.0 score is reported — the list holds every survivor. The
    /// list is sorted by `(distance, vertex)` (§2.2), and waves estimate
    /// and decide each entry once, in that order. When `explain` is given,
    /// every candidate gets exactly one [`CandidateRecord`], in scan order
    /// — fate counts in the trace reconcile with `stats` by construction.
    ///
    /// A wave is the next `wave_width` entries the structural-zero screen
    /// does not prove 0.0. With `wave_width ≥ 2` (and a uniform diagonal)
    /// its estimates run through the wide multi-source kernel, otherwise
    /// one pair at a time; either way the estimates are bit-identical, so
    /// hits, fates, work counters and explain traces are the same for
    /// every width.
    #[allow(clippy::too_many_arguments)]
    fn scan_candidates(
        &mut self,
        g: &Graph,
        index: &TopKIndex,
        u: VertexId,
        k: usize,
        opts: &QueryOptions,
        theta: f64,
        stats: &mut QueryStats,
        mut explain: Option<&mut ExplainTrace>,
    ) {
        let params = &index.params;
        // Move the candidate list out so the scan can borrow the other
        // scratch fields mutably; moved back below.
        let mut cands = std::mem::take(&mut self.cands);
        let survivors = self.prune_by_bounds(params, opts, theta, &mut cands, stats, explain.as_deref_mut());
        let mask = std::mem::take(&mut self.l1_counts);
        let funds = survivors;
        #[cfg(test)]
        let funds = if self.withhold_meet { 0 } else { funds };
        let meet = self.screen.begin(g, u, params, mask, funds, &mut self.seen);
        stats.meet_sets = u64::from(meet);
        if meet && theta > 0.0 {
            self.keep_meet_members(opts, theta, survivors, &mut cands, stats, explain.as_deref_mut());
        } else {
            for d in (1..=self.ball_radius).filter(|&d| self.bound_at(d).is_none()) {
                cands.extend(self.bfs.level(d).iter().map(|&v| (d, v)));
            }
        }
        // Ascending-distance scan order (§2.2). The (distance, vertex) key
        // is a total order, so the scan sequence is independent of the
        // enumeration order.
        cands.sort_unstable();
        let engine = WalkEngine::new(g);
        let width = opts.wave_width.max(1) as usize;
        // The wide kernel replays scalar estimates bit-for-bit only for a
        // uniform diagonal (its co-location sums are integers, which
        // commute); the per-vertex diagonal's f64 hash-order dot does not,
        // so it always takes the scalar estimator.
        let wide = width > 1 && matches!(index.diag, Diagonal::Uniform(_));
        let coarse_at = COARSE_FRACTION * theta;
        let mut start = 0;
        while start < cands.len() {
            // Form the wave: survivors in scan order until `width` lanes.
            // A structural zero takes no lane; its estimates are +0.0,
            // exactly what either estimator would return.
            let wave = &mut self.wave;
            wave.targets.clear();
            wave.seeds.clear();
            let mut end = start;
            while end < cands.len() && wave.targets.len() < width && end - start < MAX_SPAN {
                let v = cands[end].1;
                if !self.screen.is_zero(g, v) {
                    wave.targets.push(v);
                    wave.seeds.push(mix_seed(&[index.seed, 4, u as u64, v as u64]));
                }
                end += 1;
            }
            if wide && !wave.targets.is_empty() {
                stats.waves += 1;
                self.obs.wave_survivors.record(wave.targets.len() as u64);
            }
            // Estimate: coarse for every lane (adaptive sampling, §7.2),
            // then refine those whose coarse estimate reaches the cut.
            if opts.adaptive {
                wave.estimate(&engine, &index.diag, wide, u, params, false);
            }
            wave.refine_targets.clear();
            wave.refine_seeds.clear();
            for (lane, (&v, &seed)) in wave.targets.iter().zip(&wave.seeds).enumerate() {
                if !opts.adaptive || wave.coarse[lane] >= coarse_at {
                    wave.refine_targets.push(v);
                    wave.refine_seeds.push(seed);
                }
            }
            wave.estimate(&engine, &index.diag, wide, u, params, true);

            // Decide each candidate of the span once, in scan order.
            let (mut lane, mut picked) = (0, 0);
            for &(d, v) in &cands[start..end] {
                // A survivor without a lane is a structural zero.
                let zero = wave.targets.get(lane) != Some(&v);
                stats.zero_screened += u64::from(zero);
                let this = lane;
                lane += usize::from(!zero);
                if opts.adaptive {
                    let coarse = if zero { 0.0 } else { wave.coarse[this] };
                    if coarse < coarse_at {
                        stats.pruned_coarse += 1;
                        if let Some(tr) = explain.as_deref_mut() {
                            tr.push(record(v, d, CandidateFate::PrunedCoarse, coarse, coarse_at));
                        }
                        continue;
                    }
                }
                // Lanes reach this point in the order they were picked.
                let score = if zero { 0.0 } else { wave.refined[picked] };
                picked += usize::from(!zero);
                if score >= theta {
                    stats.reported += 1;
                    if let Some(tr) = explain.as_deref_mut() {
                        tr.push(record(v, d, CandidateFate::Reported, score, theta));
                    }
                    self.heap.push(Reverse(HeapHit { score, vertex: v }));
                    if self.heap.len() > k {
                        self.heap.pop();
                    }
                } else {
                    stats.refined += 1;
                    if let Some(tr) = explain.as_deref_mut() {
                        tr.push(record(v, d, CandidateFate::RefinedBelowTheta, score, theta));
                    }
                }
            }
            start = end;
        }
        self.l1_counts = self.screen.end();
        self.cands = cands;
        // Bound-pruned candidates were recorded ahead of the survivors;
        // (distance, vertex) is the scan order.
        if let Some(tr) = explain {
            tr.records.sort_unstable_by_key(|r| (r.distance, r.vertex));
        }
    }

    /// Decides every candidate's distance and L1 bounds against θ, once
    /// per distance, through the per-distance table `self.bounds`: counts
    /// (and, under `explain`, records) the pruned candidates — the ball's
    /// a whole level at a time — and keeps the surviving entries in
    /// `cands`. Returns `|C|`, the survivors: the ball's members at a kept
    /// distance plus the kept entries. They are exactly the candidates
    /// that can reach the structural-zero screen.
    fn prune_by_bounds(
        &mut self,
        params: &SimRankParams,
        opts: &QueryOptions,
        theta: f64,
        cands: &mut Vec<(u32, VertexId)>,
        stats: &mut QueryStats,
        mut explain: Option<&mut ExplainTrace>,
    ) -> usize {
        let l1 = &self.l1;
        self.bounds.clear();
        self.bounds.extend(
            (0..self.bfs.levels()).chain([UNREACHED]).map(|d| bound_verdict(params, opts, l1, theta, d)),
        );
        let mut survivors = 0;
        for d in 1..=self.ball_radius {
            let level = self.bfs.level(d);
            match self.bound_at(d) {
                None => survivors += level.len(),
                Some((fate, value)) => {
                    count_pruned(stats, fate, level.len() as u64);
                    if let Some(tr) = explain.as_deref_mut() {
                        tr.records.extend(level.iter().map(|&v| record(v, d, fate, value, theta)));
                    }
                }
            }
        }
        cands.retain(|&(d, v)| match self.bound_at(d) {
            None => true,
            Some((fate, value)) => {
                count_pruned(stats, fate, 1);
                if let Some(tr) = explain.as_deref_mut() {
                    tr.push(record(v, d, fate, value, theta));
                }
                false
            }
        });
        survivors + cands.len()
    }

    /// The bounds' verdict for distance `d` (a BFS level or [`UNREACHED`]):
    /// `Some((fate, bound))` when they prune it.
    #[inline]
    fn bound_at(&self, d: u32) -> Option<(CandidateFate, f64)> {
        // Every visited vertex sits at a distance below `levels()`, so a
        // larger `d` is UNREACHED (the last entry) or an empty ball level.
        self.bounds[(d as usize).min(self.bounds.len() - 1)]
    }

    /// The bulk path (meet set built, θ > 0). A survivor outside `M(u)` is
    /// a structural zero: its estimates are +0.0, below the coarse cut and
    /// θ alike, so it is decided here, counted once as zero-screened and
    /// once as coarse-pruned (refined without adaptive sampling), with no
    /// list entry. `cands` keeps its entries in `M(u)` and gains the ball's
    /// members of `M(u)` at a kept distance: the only survivors left to
    /// estimate. The counts and records are those the scan would give.
    fn keep_meet_members(
        &self,
        opts: &QueryOptions,
        theta: f64,
        survivors: usize,
        cands: &mut Vec<(u32, VertexId)>,
        stats: &mut QueryStats,
        mut explain: Option<&mut ExplainTrace>,
    ) {
        let (fate, cut) = if opts.adaptive {
            (CandidateFate::PrunedCoarse, COARSE_FRACTION * theta)
        } else {
            (CandidateFate::RefinedBelowTheta, theta)
        };
        let screen = &self.screen;
        cands.retain(|&(d, v)| {
            let keep = screen.in_meet(v);
            if let (false, Some(tr)) = (keep, explain.as_deref_mut()) {
                tr.push(record(v, d, fate, 0.0, cut));
            }
            keep
        });
        // u is a meet member whenever it has an in-link, but never a
        // candidate: level 0 is outside the ball.
        let kept = |d: u32| (1..=self.ball_radius).contains(&d) && self.bound_at(d).is_none();
        for &w in screen.meet_members() {
            let d = self.bfs.distance(w);
            if kept(d) {
                cands.push((d, w));
            }
        }
        let zeros = (survivors - cands.len()) as u64;
        stats.zero_screened += zeros;
        if opts.adaptive {
            stats.pruned_coarse += zeros;
        } else {
            stats.refined += zeros;
        }
        if let Some(tr) = explain {
            for d in (1..=self.ball_radius).filter(|&d| kept(d)) {
                let zero = self.bfs.level(d).iter().filter(|&&v| !screen.in_meet(v));
                tr.records.extend(zero.map(|&v| record(v, d, fate, 0.0, cut)));
            }
        }
    }
}

/// The `c^d` and L1 bounds' verdict on distance `d` against θ:
/// `Some((fate, bound))` when one prunes it. Trivial distance bound
/// `c^⌈d/2⌉` (sound for the undirected metric — see
/// [`SimRankParams::distance_bound`]) first, then `β(u, d)`. Undirected
/// unreachability implies the walks can never meet: `c^d` reads 0 there,
/// and β +∞ (as when it is off).
fn bound_verdict(
    params: &SimRankParams,
    opts: &QueryOptions,
    l1: &AlphaBeta,
    theta: f64,
    d: u32,
) -> Option<(CandidateFate, f64)> {
    let cd = if d == UNREACHED { 0.0 } else { params.distance_bound(d) };
    let l1b = if opts.use_l1 && d != UNREACHED { l1.beta(d) } else { f64::INFINITY };
    if opts.use_distance_bound && cd < theta {
        Some((CandidateFate::PrunedDistance, cd))
    } else if l1b < theta {
        Some((CandidateFate::PrunedL1, l1b))
    } else {
        None
    }
}

/// Adds `n` candidates pruned with `fate` (a bound's) to `stats`.
fn count_pruned(stats: &mut QueryStats, fate: CandidateFate, n: u64) {
    match fate {
        CandidateFate::PrunedDistance => stats.pruned_distance += n,
        _ => stats.pruned_bounds += n,
    }
}

/// Whether the per-query L1 table can cost fewer walk steps than it
/// could save. Algorithm 2 steps `r_bounds` walks of `T` steps; the most
/// a β can save is a candidate's first estimate, `2 · R` walks of `T`
/// steps (`R = r_coarse` under adaptive sampling, `r_refine` without).
/// So the table is built only when `|C| · 2 · R > r_bounds` — more than
/// 500 candidates at the defaults.
fn l1_table_pays(candidates: usize, params: &SimRankParams, opts: &QueryOptions) -> bool {
    let r = if opts.adaptive { params.r_coarse } else { params.r_refine };
    candidates as u64 * 2 * u64::from(r) > u64::from(params.r_bounds)
}

/// Shorthand for a scan-loop explain record.
fn record(v: VertexId, d: u32, fate: CandidateFate, value: f64, threshold: f64) -> CandidateRecord {
    CandidateRecord { vertex: v, distance: d, fate, value, threshold }
}

/// Reusable per-thread query state bound to one graph + index pair.
/// Queries through one context are sequential; for parallel batches use
/// [`crate::engine::ServingEngine`], which pools [`QueryScratch`] values
/// across workers.
pub struct QueryContext<'g> {
    g: &'g Graph,
    index: &'g TopKIndex,
    scratch: QueryScratch,
}

impl<'g> QueryContext<'g> {
    /// Creates query state for `index` over `g`.
    pub fn new(g: &'g Graph, index: &'g TopKIndex) -> Self {
        QueryContext { g, index, scratch: QueryScratch::new(g) }
    }

    /// Algorithm 5 for query vertex `u`.
    pub fn query(&mut self, u: VertexId, k: usize, opts: &QueryOptions) -> TopKResult {
        let mut out = TopKResult::default();
        self.query_into(u, k, opts, &mut out);
        out
    }

    /// Algorithm 5 writing into an existing result (cleared first), for
    /// callers that also want to recycle the output allocation.
    pub fn query_into(&mut self, u: VertexId, k: usize, opts: &QueryOptions, out: &mut TopKResult) {
        self.scratch.query_into(self.g, self.index, u, k, opts, out);
    }
}

/// Heap entry ordered by rank: the higher score ranks higher, and on a
/// tied score the lower vertex id — the order hits are reported in, so
/// the heap keeps exactly the first k rows of the full ranking.
#[derive(Debug, PartialEq)]
struct HeapHit {
    score: f64,
    vertex: VertexId,
}

impl Eq for HeapHit {}

impl PartialOrd for HeapHit {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapHit {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.score.partial_cmp(&other.score).expect("scores are finite").then(other.vertex.cmp(&self.vertex))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srs_exact::{diagonal, linearized, ExactParams};
    use srs_graph::gen::{self, fixtures};

    fn fast_params() -> SimRankParams {
        SimRankParams { r_bounds: 2_000, ..Default::default() }
    }

    #[test]
    fn claw_query_finds_sibling_leaves() {
        let g = fixtures::claw();
        let params = SimRankParams { c: 0.8, ..fast_params() };
        let idx = TopKIndex::build_with(&g, &params, Diagonal::paper_default(0.8), 1, 1);
        let res = idx.query(&g, 1, 2, &QueryOptions::default());
        let found: Vec<VertexId> = res.hits.iter().map(|h| h.vertex).collect();
        assert_eq!(found.len(), 2, "{res:?}");
        assert!(found.contains(&2) && found.contains(&3));
        for h in &res.hits {
            assert!(h.score > 0.2, "{h:?}");
        }
    }

    #[test]
    fn query_matches_exact_topk_on_web_graph() {
        let g = gen::copying_web(300, 5, 0.8, 21);
        let params = fast_params();
        let idx = TopKIndex::build_with(&g, &params, Diagonal::paper_default(params.c), 5, 2);
        let ep = ExactParams::new(params.c, params.t);
        let d = diagonal::uniform(300, params.c);
        let mut ctx = QueryContext::new(&g, &idx);
        let k = 10;
        let mut recall_sum = 0.0;
        let mut queries = 0;
        for u in srs_graph::stats::sample_query_vertices(&g, 15, 33) {
            let exact = linearized::single_source(&g, u, &ep, &d);
            // Exact "interesting" set: score ≥ 0.04 (Table 3's regime).
            let mut truth: Vec<(f64, VertexId)> = (0..300u32)
                .filter(|&v| v != u && exact[v as usize] >= 0.04)
                .map(|v| (exact[v as usize], v))
                .collect();
            truth.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
            truth.truncate(k);
            if truth.is_empty() {
                continue;
            }
            let res = ctx.query(u, k, &QueryOptions::default());
            let got: std::collections::HashSet<VertexId> = res.hits.iter().map(|h| h.vertex).collect();
            let hit = truth.iter().filter(|(_, v)| got.contains(v)).count();
            recall_sum += hit as f64 / truth.len() as f64;
            queries += 1;
        }
        assert!(queries > 0);
        let recall = recall_sum / queries as f64;
        // The paper's own Table 3 accuracy at these parameters ranges
        // 0.82–0.99; the walk-based candidate index is heuristic and misses
        // some borderline (≈ θ) pairs by design.
        assert!(recall >= 0.65, "recall = {recall}");
    }

    #[test]
    fn l1_table_matches_the_full_d_max_table_at_every_candidate() {
        // The targeted BFS leaves most of the graph without a distance;
        // the L1 table built from it must still give every candidate the
        // β of a table built from the whole d_max ball — including when
        // T − 1 > d_max, where walk positions beyond d_max are excluded.
        // r_bounds below 2 · r_coarse makes the table pay for a single
        // candidate, so every query with candidates builds it.
        let g = gen::preferential_attachment_windowed(400, 4, 60, 8);
        let mut full = BfsBuffers::new(g.num_vertices());
        let mut checked = 0;
        let small = SimRankParams { r_bounds: 19, ..Default::default() };
        for params in [small.clone(), SimRankParams { d_max: 3, ..small }] {
            let idx = TopKIndex::build_with(&g, &params, Diagonal::paper_default(params.c), 6, 2);
            let mut scratch = QueryScratch::new(&g);
            for ball in [None, Some(1)] {
                let opts = QueryOptions { candidate_ball: ball, ..Default::default() };
                for u in srs_graph::stats::sample_query_vertices(&g, 25, 2) {
                    let mut stats = QueryStats::default();
                    scratch.enumerate_candidates(&g, &idx, u, &opts, &mut stats);
                    scratch.prepare_query_tables(&g, &idx, u, &opts, &mut stats);
                    assert_eq!(stats.l1_tables, u64::from(stats.candidates > 0), "u={u}");
                    full.run(&g, u, Direction::Undirected, params.d_max);
                    let reference = AlphaBeta::compute(
                        &g,
                        u,
                        &params,
                        &idx.diag,
                        |w| full.distance(w),
                        mix_seed(&[idx.seed, 3, u as u64]),
                    );
                    for &(d, v) in &scratch.cands {
                        assert_eq!(d, full.distance(v), "u={u} v={v}");
                        if d != UNREACHED {
                            let (got, want) = (scratch.l1.beta(d), reference.beta(d));
                            assert_eq!(
                                got.to_bits(),
                                want.to_bits(),
                                "u={u} v={v} d={d} d_max={}",
                                params.d_max
                            );
                            checked += 1;
                        }
                    }
                }
            }
        }
        assert!(checked > 100, "{checked}");
    }

    #[test]
    fn l1_table_pays_only_past_its_walk_budget() {
        // Defaults: r_bounds = 10,000 walks against 2 · R per candidate.
        let params = SimRankParams::default();
        let adaptive = QueryOptions::default();
        assert!(!l1_table_pays(500, &params, &adaptive), "500 · 2 · 10 = r_bounds: no saving");
        assert!(l1_table_pays(501, &params, &adaptive));
        let refine_only = QueryOptions { adaptive: false, ..Default::default() };
        assert!(!l1_table_pays(50, &params, &refine_only), "50 · 2 · 100 = r_bounds: no saving");
        assert!(l1_table_pays(51, &params, &refine_only));
    }

    #[test]
    fn skipped_l1_table_reads_infinite_and_steps_no_walks() {
        let g = gen::copying_web(300, 4, 0.8, 5);
        // A small walk budget, so the table pays past 10 candidates.
        let params = SimRankParams { r_bounds: 200, ..Default::default() };
        let idx = TopKIndex::build_with(&g, &params, Diagonal::paper_default(params.c), 5, 2);
        let mut scratch = QueryScratch::new(&g);
        // Without adaptive sampling the table pays past one candidate.
        let refine_only = QueryOptions { adaptive: false, ..Default::default() };
        let (mut built, mut skipped) = (0, 0);
        for u in srs_graph::stats::sample_query_vertices(&g, 40, 3) {
            // Build a table first, so a skip must clear it rather than
            // leave this β behind.
            let mut stats = QueryStats::default();
            scratch.enumerate_candidates(&g, &idx, u, &refine_only, &mut stats);
            scratch.prepare_query_tables(&g, &idx, u, &refine_only, &mut stats);

            let opts = QueryOptions::default();
            let mut stats = QueryStats::default();
            scratch.enumerate_candidates(&g, &idx, u, &opts, &mut stats);
            let before = srs_mc::obs::thread_counts().total();
            scratch.prepare_query_tables(&g, &idx, u, &opts, &mut stats);
            let steps = srs_mc::obs::thread_counts().total() - before;
            let pays = stats.candidates as usize * 2 * params.r_coarse as usize > params.r_bounds as usize;
            if stats.candidates > 0 && pays {
                built += 1;
                assert_eq!(stats.l1_tables, 1, "u={u}");
                assert!(steps > 0, "u={u}: a built table steps walks");
            } else {
                skipped += 1;
                assert_eq!(stats.l1_tables, 0, "u={u}");
                assert_eq!(steps, 0, "u={u}: a skipped table steps no walk");
                assert_eq!(scratch.l1.horizon(), 0, "u={u}");
                for d in 0..=params.d_max + 1 {
                    assert_eq!(scratch.l1.beta(d), f64::INFINITY, "u={u} d={d}");
                }
                let res = idx.query(&g, u, 10, &QueryOptions { explain: true, ..opts.clone() });
                let trace = res.explain.expect("explain requested");
                assert_eq!(trace.count(CandidateFate::PrunedL1), 0, "u={u}");
            }
        }
        assert!(built > 0 && skipped > 0, "built {built}, skipped {skipped}");
    }

    #[test]
    fn candidate_ball_beyond_d_max_acts_as_d_max() {
        // The query BFS never looks past d_max, so a larger radius adds
        // no candidate: hits, fates and explain traces match radius d_max.
        let g = gen::copying_web(300, 4, 0.8, 9);
        let params = SimRankParams { t: 4, d_max: 3, ..fast_params() };
        let idx = TopKIndex::build_with(&g, &params, Diagonal::paper_default(params.c), 5, 2);
        let mut ctx = QueryContext::new(&g, &idx);
        let at = QueryOptions { candidate_ball: Some(params.d_max), explain: true, ..Default::default() };
        let beyond = QueryOptions { candidate_ball: Some(params.d_max + 5), ..at.clone() };
        let mut hits = 0;
        for u in srs_graph::stats::sample_query_vertices(&g, 12, 4) {
            let a = ctx.query(u, 10, &at);
            let b = ctx.query(u, 10, &beyond);
            assert_eq!(a.hits, b.hits, "u={u}");
            assert_eq!(a.stats, b.stats, "u={u}");
            assert_eq!(a.explain, b.explain, "u={u}");
            hits += a.hits.len();
        }
        assert!(hits > 0, "the comparison must cover non-empty answers");
    }

    #[test]
    fn candidate_ball_extension_raises_recall() {
        let g = gen::copying_web(300, 5, 0.8, 21);
        let params = fast_params();
        let idx = TopKIndex::build_with(&g, &params, Diagonal::paper_default(params.c), 5, 2);
        let ep = ExactParams::new(params.c, params.t);
        let d = diagonal::uniform(300, params.c);
        let mut ctx = QueryContext::new(&g, &idx);
        let with_ball = QueryOptions { candidate_ball: Some(3), ..Default::default() };
        let mut recall_sum = 0.0;
        let mut queries = 0;
        for u in srs_graph::stats::sample_query_vertices(&g, 15, 33) {
            let exact = linearized::single_source(&g, u, &ep, &d);
            let mut truth: Vec<(f64, VertexId)> = (0..300u32)
                .filter(|&v| v != u && exact[v as usize] >= 0.04)
                .map(|v| (exact[v as usize], v))
                .collect();
            truth.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
            truth.truncate(10);
            if truth.is_empty() {
                continue;
            }
            let res = ctx.query(u, 10, &with_ball);
            let got: std::collections::HashSet<VertexId> = res.hits.iter().map(|h| h.vertex).collect();
            recall_sum += truth.iter().filter(|(_, v)| got.contains(v)).count() as f64 / truth.len() as f64;
            queries += 1;
        }
        let recall = recall_sum / queries as f64;
        // Remaining misses are borderline-θ pairs whose Monte-Carlo
        // estimate lands under the output threshold, not coverage failures.
        assert!(recall >= 0.8, "ball-augmented recall = {recall}");
    }

    #[test]
    fn pruning_preserves_results() {
        // Everything-off vs everything-on must agree on the high scorers.
        let g = gen::copying_web(200, 4, 0.8, 8);
        let params = fast_params();
        let idx = TopKIndex::build_with(&g, &params, Diagonal::paper_default(params.c), 3, 2);
        let mut ctx = QueryContext::new(&g, &idx);
        let open =
            QueryOptions { use_distance_bound: false, use_l1: false, adaptive: false, ..Default::default() };
        let tight = QueryOptions::default();
        for u in srs_graph::stats::sample_query_vertices(&g, 10, 2) {
            let a = ctx.query(u, 5, &open);
            let b = ctx.query(u, 5, &tight);
            // Same estimator seeds → identical scores for shared vertices;
            // compare the clearly-above-threshold hits.
            let strong_a: Vec<_> = a.hits.iter().filter(|h| h.score > 0.1).collect();
            let bset: std::collections::HashSet<_> = b.hits.iter().map(|h| h.vertex).collect();
            for h in strong_a {
                assert!(bset.contains(&h.vertex), "u={u} lost strong hit {h:?} ({:?})", b.hits);
            }
        }
    }

    #[test]
    fn hits_at_k_are_the_first_k_rows_of_hits_at_a_larger_k() {
        // Every candidate is decided against θ alone and the heap keeps
        // the reported order (score, then vertex id), so a smaller k only
        // cuts the ranking shorter: no hit drops out, and tied scores keep
        // the lower vertex ids at every k.
        let social = gen::preferential_attachment_windowed(1200, 6, 144, 42);
        let web = gen::copying_web(1200, 4, 0.8, 42);
        let params = SimRankParams::default();
        let mut compared = 0;
        for g in [social, web] {
            let idx = TopKIndex::build_with(&g, &params, Diagonal::paper_default(params.c), 7, 2);
            let mut ctx = QueryContext::new(&g, &idx);
            for opts in
                [QueryOptions::default(), QueryOptions { candidate_ball: Some(2), ..Default::default() }]
            {
                for u in srs_graph::stats::sample_query_vertices(&g, 150, 3) {
                    let full = ctx.query(u, 20, &opts).hits;
                    for k in [1, 5] {
                        let short = ctx.query(u, k, &opts).hits;
                        assert_eq!(short[..], full[..full.len().min(k)], "u={u} k={k} {opts:?}");
                        compared += usize::from(full.len() > k);
                    }
                }
            }
        }
        assert!(compared > 100, "{compared}");
    }

    #[test]
    fn meet_set_is_funded_only_by_candidates_the_bounds_keep() {
        let g = gen::copying_web(200, 4, 0.8, 8);
        let params = fast_params();
        let idx = TopKIndex::build_with(&g, &params, Diagonal::paper_default(params.c), 3, 2);
        let mut ctx = QueryContext::new(&g, &idx);
        let ball = QueryOptions { candidate_ball: Some(2), ..Default::default() };
        // At θ = 0.99 even distance 1 is pruned (c^1 = 0.6): no candidate
        // can reach the screen, so none funds a meet set.
        let unreachable = QueryOptions { theta: Some(0.99), ..ball.clone() };
        let (mut built, mut candidates) = (0, 0);
        for u in 0..g.num_vertices() {
            let s = ctx.query(u, 10, &unreachable).stats;
            assert_eq!((s.meet_sets, s.zero_screened), (0, 0), "u={u}: {s:?}");
            candidates += s.candidates;
            built += ctx.query(u, 10, &ball).stats.meet_sets;
        }
        assert!(candidates > 0 && built > 0, "{candidates} candidates, {built} meet sets at the default θ");
    }

    #[test]
    fn stats_are_consistent() {
        let g = gen::copying_web(200, 4, 0.8, 8);
        let params = fast_params();
        let idx = TopKIndex::build_with(&g, &params, Diagonal::paper_default(params.c), 3, 2);
        let mut ctx = QueryContext::new(&g, &idx);
        let res = ctx.query(0, 10, &QueryOptions::default());
        let s = res.stats;
        assert!(s.fates_accounted(), "{s:?}");
        assert_eq!(s.refine_calls(), s.refined + s.reported);
        assert!(s.bfs_visited > 0);
        assert!(s.walk_steps > 0, "L1 table + estimates must step walks: {s:?}");
    }

    #[test]
    fn explain_trace_covers_every_candidate() {
        let g = gen::copying_web(200, 4, 0.8, 8);
        let params = fast_params();
        let idx = TopKIndex::build_with(&g, &params, Diagonal::paper_default(params.c), 3, 2);
        let mut ctx = QueryContext::new(&g, &idx);
        // The index's candidates alone, and with the ball counted in bulk;
        // at θ = 0 every candidate takes the full list.
        let ball = QueryOptions { candidate_ball: Some(2), ..Default::default() };
        let zero = |o: &QueryOptions| QueryOptions { theta: Some(0.0), ..o.clone() };
        let (mut bulk, mut meets) = (0, 0);
        for plain in [QueryOptions::default(), ball.clone(), zero(&QueryOptions::default()), zero(&ball)] {
            let explain = QueryOptions { explain: true, ..plain.clone() };
            for u in srs_graph::stats::sample_query_vertices(&g, 8, 14) {
                let a = ctx.query(u, 10, &plain);
                let b = ctx.query(u, 10, &explain);
                // The trace is pure observation: hits and stats, waves
                // included, are identical.
                assert_eq!(a.hits, b.hits, "u={u} {plain:?}");
                assert_eq!(a.stats, b.stats, "u={u} {plain:?}");
                assert!(a.explain.is_none());
                let tr = b.explain.expect("explain requested");
                // Every enumerated candidate appears exactly once.
                assert_eq!(tr.records.len() as u64, b.stats.candidates, "u={u} {plain:?}");
                let mut vertices: Vec<_> = tr.records.iter().map(|r| r.vertex).collect();
                vertices.sort_unstable();
                let before = vertices.len();
                vertices.dedup();
                assert_eq!(vertices.len(), before, "u={u}: duplicate candidate in trace");
                assert!(!vertices.contains(&u), "u={u}: the query vertex is no candidate");
                // Trace fates reconcile with the stats counters.
                use srs_obs::CandidateFate as F;
                assert_eq!(tr.count(F::PrunedDistance), b.stats.pruned_distance, "u={u} {plain:?}");
                assert_eq!(tr.count(F::PrunedL1), b.stats.pruned_bounds, "u={u} {plain:?}");
                assert_eq!(tr.count(F::PrunedCoarse), b.stats.pruned_coarse, "u={u} {plain:?}");
                assert_eq!(tr.count(F::RefinedBelowTheta), b.stats.refined, "u={u} {plain:?}");
                assert_eq!(tr.count(F::Reported), b.stats.reported, "u={u} {plain:?}");
                // Records come in scan order.
                let keys: Vec<_> = tr.records.iter().map(|r| (r.distance, r.vertex)).collect();
                assert!(keys.windows(2).all(|w| w[0] < w[1]), "u={u} {plain:?}");
                meets += b.stats.meet_sets;
                let zeros = b.stats.meet_sets > 0 && b.stats.zero_screened > 0;
                bulk += u64::from(zeros && plain.theta.is_none());
            }
        }
        assert!(meets > 0 && bulk > 0, "{meets} meet sets, {bulk} bulk-path queries");
    }

    #[test]
    fn theta_zero_reports_every_candidate() {
        // At θ = 0 no bound prunes and every 0.0 estimate is reported, so
        // with k past the candidate count each candidate is a hit.
        let g = gen::copying_web(200, 4, 0.8, 8);
        let params = fast_params();
        let idx = TopKIndex::build_with(&g, &params, Diagonal::paper_default(params.c), 3, 2);
        let mut ctx = QueryContext::new(&g, &idx);
        let k = g.num_vertices() as usize;
        let mut zeros = 0;
        for ball in [None, Some(1), Some(2)] {
            let opts = QueryOptions { candidate_ball: ball, theta: Some(0.0), ..Default::default() };
            for u in srs_graph::stats::sample_query_vertices(&g, 12, 5) {
                let res = ctx.query(u, k, &opts);
                let s = res.stats;
                assert_eq!(s.reported, s.candidates, "u={u} {ball:?}: {s:?}");
                assert_eq!(res.hits.len() as u64, s.candidates, "u={u} {ball:?}");
                zeros += res.hits.iter().filter(|h| h.score == 0.0).count();
            }
        }
        assert!(zeros > 0, "no 0.0 score was reported");
    }

    #[test]
    fn bulk_path_matches_the_full_list() {
        // With the meet set withheld, the screen falls back and the scan
        // walks the full list, screening or walking each candidate itself.
        // The bulk path must give the same hits, fates and traces.
        let social = gen::preferential_attachment_windowed(1200, 6, 144, 42);
        let web = gen::copying_web(1200, 4, 0.8, 42);
        let params = SimRankParams::default();
        let (mut bulk, mut zeros) = (0, 0);
        for g in [social, web] {
            let idx = TopKIndex::build_with(&g, &params, Diagonal::paper_default(params.c), 7, 2);
            let mut with = QueryContext::new(&g, &idx);
            let mut without = QueryContext::new(&g, &idx);
            without.scratch.withhold_meet = true;
            for adaptive in [true, false] {
                let opts =
                    QueryOptions { candidate_ball: Some(2), adaptive, explain: true, ..Default::default() };
                for u in srs_graph::stats::sample_query_vertices(&g, 40, 6) {
                    let (a, b) = (with.query(u, 20, &opts), without.query(u, 20, &opts));
                    let ctx = format!("u={u} adaptive={adaptive}");
                    assert_eq!(b.stats.meet_sets, 0, "{ctx}");
                    assert_eq!(a.hits, b.hits, "{ctx}");
                    // Only the work counters may differ.
                    let fates = |s: QueryStats| QueryStats {
                        walk_steps: 0,
                        zero_screened: 0,
                        meet_sets: 0,
                        waves: 0,
                        ..s
                    };
                    assert_eq!(fates(a.stats), fates(b.stats), "{ctx}");
                    assert_eq!(a.explain, b.explain, "{ctx}");
                    bulk += a.stats.meet_sets;
                    zeros += a.stats.zero_screened;
                }
            }
        }
        assert!(bulk > 20 && zeros > 1000, "{bulk} bulk-path queries, {zeros} zeros");
    }

    #[test]
    fn results_sorted_descending_and_k_respected() {
        let g = gen::copying_web(150, 5, 0.8, 4);
        let params = fast_params();
        let idx = TopKIndex::build_with(&g, &params, Diagonal::paper_default(params.c), 9, 2);
        let res = idx.query(&g, 3, 4, &QueryOptions::default());
        assert!(res.hits.len() <= 4);
        for w in res.hits.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn query_deterministic() {
        let g = gen::copying_web(150, 5, 0.8, 4);
        let params = fast_params();
        let idx = TopKIndex::build_with(&g, &params, Diagonal::paper_default(params.c), 9, 2);
        let a = idx.query(&g, 7, 10, &QueryOptions::default());
        let b = idx.query(&g, 7, 10, &QueryOptions::default());
        assert_eq!(a.hits, b.hits);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn isolated_vertex_returns_empty() {
        let mut b = srs_graph::GraphBuilder::new(10);
        for i in 0..8u32 {
            b.add_edge(i, (i + 1) % 8);
        }
        let g = b.build().unwrap(); // vertices 8, 9 isolated
        let params = fast_params();
        let idx = TopKIndex::build_with(&g, &params, Diagonal::paper_default(params.c), 2, 1);
        let res = idx.query(&g, 9, 5, &QueryOptions::default());
        assert!(res.hits.is_empty());
    }

    #[test]
    fn memory_is_linear_not_quadratic() {
        let params = SimRankParams { r_bounds: 100, ..Default::default() };
        let g1 = gen::copying_web(200, 4, 0.8, 1);
        let g2 = gen::copying_web(400, 4, 0.8, 1);
        let i1 = TopKIndex::build_with(&g1, &params, Diagonal::paper_default(params.c), 1, 2);
        let i2 = TopKIndex::build_with(&g2, &params, Diagonal::paper_default(params.c), 1, 2);
        let ratio = i2.memory_bytes() as f64 / i1.memory_bytes() as f64;
        assert!(ratio < 3.0, "doubling n should ~double the index, ratio = {ratio}");
    }
}

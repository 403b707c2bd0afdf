//! The serving pipeline's metric schema ([`ServingMetrics`]) and build
//! observation hooks ([`BuildObs`]).
//!
//! One [`ServingMetrics`] instance owns a [`Registry`] with every metric
//! family the engine, query path, walk kernels, and index build report
//! into. The merge discipline follows the srs-obs design rule: per-event
//! accounting stays in worker-local cells ([`QueryLocalObs`] inside each
//! `QueryScratch`, register accumulators inside the walk kernels) and is
//! folded into the shared atomic cells once per batch / kernel call, so
//! enabling metrics never adds shared-cache-line traffic to the per-
//! candidate hot loop and never touches an RNG stream.
//!
//! Metric families (all prefixed `srs_`):
//!
//! | family | kind | labels |
//! |---|---|---|
//! | `srs_queries_total` | counter | |
//! | `srs_query_batches_total` | counter | |
//! | `srs_query_candidates_total` | counter | |
//! | `srs_query_candidate_fates_total` | counter | `fate` |
//! | `srs_query_bfs_visited_total` | counter | |
//! | `srs_query_zero_screened_total` | counter | |
//! | `srs_query_l1_tables_total` | counter | |
//! | `srs_query_meet_sets_total` | counter | |
//! | `srs_query_waves_total` | counter | |
//! | `srs_query_head_empty_total` / `srs_query_push_edges_total` | counter | |
//! | `srs_query_wave_survivors` | histogram | |
//! | `srs_queries_deduped_total` | counter | |
//! | `srs_cache_hits_total` / `srs_cache_misses_total` | counter | |
//! | `srs_walk_steps_total` | counter | `class` |
//! | `srs_query_latency_ns` | histogram | |
//! | `srs_query_stage_ns` | histogram | `stage` |
//! | `srs_query_candidates` | histogram | |
//! | `srs_query_hits` | histogram | |
//! | `srs_build_stage_ns` | histogram | `stage` |
//! | `srs_graph_vertices` / `srs_graph_edges` | gauge | |
//! | `srs_index_bytes` / `srs_engine_threads` / `srs_engine_pooled_scratches` | gauge | |
//! | `srs_dataset_swaps_total` | counter | |
//! | `srs_snapshot_load_ns` / `srs_snapshot_bytes` / `srs_snapshot_sections_verified` | gauge | |
//! | `srs_snapshot_read_ns` / `srs_snapshot_checksum_ns` / `srs_snapshot_validate_ns` | gauge | |
//! | `srs_snapshot_resident_bytes` / `srs_snapshot_mapped_bytes` | gauge | |
//! | `srs_extend_applies_total` | counter | |
//! | `srs_extend_appended_vertices_total` / `srs_extend_dirty_vertices_total` / `srs_extend_reused_vertices_total` | counter | |
//! | `srs_extend_apply_ns` | histogram | |
//! | `srs_chain_depth` | gauge | |

use crate::topk::QueryStats;
use srs_mc::WalkStepCounts;
use srs_obs::{Counter, Gauge, Histogram, LocalHistogram, Progress, Registry, Snapshot};
use std::sync::Arc;

/// Named stages of `QueryScratch::query_into`, in pipeline order. Indexes
/// into [`ServingMetrics::query_stages`] and `QueryLocalObs::stages`.
pub const QUERY_STAGES: [&str; 4] = ["enumerate", "bounds", "scan", "collect"];

/// Trace span names of the [`QUERY_STAGES`], index for index — the one
/// table both trace exporters (the server's per-request trace and the
/// CLI's Chrome trace) name their stage spans from.
pub const STAGE_SPANS: [&str; 4] = ["stage:enumerate", "stage:bounds", "stage:scan", "stage:collect"];

/// Named stages of the preprocess build, in pipeline order. Indexes into
/// [`ServingMetrics::build_stages`].
pub const BUILD_STAGES: [&str; 3] = ["walk_generation", "coincidence_probe", "assemble"];

/// Wall-clock stage durations measured for one query, copied from the
/// same `Instant` reads that feed `srs_query_stage_ns` — so carrying
/// them costs nothing the metrics path did not already pay. They ride
/// on `TopKResult` for the serving layers to turn into trace spans.
///
/// Timings are *observations*, not results: they differ run to run and
/// are never part of the determinism contract (no test may compare
/// them; `TopKResult` deliberately does not derive `PartialEq`).
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimings {
    /// Per-stage ns, indexed like [`QUERY_STAGES`].
    pub stages: [u64; QUERY_STAGES.len()],
}

impl StageTimings {
    /// Sum of every stage's duration.
    pub fn total_ns(&self) -> u64 {
        self.stages.iter().sum()
    }
}

/// Walk-step descriptor classes, aligned with
/// [`srs_mc::WalkStepCounts`]'s `dead`/`unique`/`branch` fields.
pub const WALK_CLASSES: [&str; 3] = ["dead", "unique", "branch"];

/// `QueryStats` fate labels, aligned with the accounting identity
/// `candidates == pruned_distance + pruned_bounds + pruned_coarse +
/// refined + reported`.
pub const FATES: [&str; 5] = ["pruned_distance", "pruned_bounds", "pruned_coarse", "refined", "reported"];

/// All metric families of the serving pipeline, pre-registered on one
/// [`Registry`]. Handles are public so hot paths update cells directly
/// (no name lookups after construction).
pub struct ServingMetrics {
    registry: Registry,
    /// `srs_queries_total`.
    pub queries: Arc<Counter>,
    /// `srs_query_batches_total`.
    pub batches: Arc<Counter>,
    /// `srs_query_candidates_total`.
    pub candidates: Arc<Counter>,
    /// `srs_query_candidate_fates_total{fate=...}`, indexed by [`FATES`].
    pub fates: [Arc<Counter>; 5],
    /// `srs_query_bfs_visited_total`.
    pub bfs_visited: Arc<Counter>,
    /// `srs_query_zero_screened_total` (candidates whose estimates the
    /// structural-zero screen set to 0.0 without walking).
    pub zero_screened: Arc<Counter>,
    /// `srs_query_l1_tables_total` (Algorithm 2 L1 tables built, counted
    /// per answered query like the fate counters: 1 when the query built
    /// its table, 0 when the table could not pay for itself).
    pub l1_tables: Arc<Counter>,
    /// `srs_query_meet_sets_total` (structural-zero meet sets built, 1 per
    /// query that built its `M(u)` within budget, 0 otherwise).
    pub meet_sets: Arc<Counter>,
    /// `srs_query_waves_total` (walk waves with at least one lane formed
    /// by the batched scan).
    pub waves: Arc<Counter>,
    /// `srs_query_wave_survivors` (lanes per counted wave).
    pub wave_survivors: Arc<Histogram>,
    /// `srs_query_head_empty_total` (head queries the bound `B(u) < θ`
    /// answered empty before the backward push).
    pub head_empty: Arc<Counter>,
    /// `srs_query_push_edges_total` (edges scanned by head pushes).
    pub push_edges: Arc<Counter>,
    /// `srs_queries_deduped_total` (batch queries answered by copying an
    /// identical query's result instead of recomputing it).
    pub deduped: Arc<Counter>,
    /// `srs_cache_hits_total` (requests answered from the generation-keyed
    /// result cache; see `ServingEngine::set_cache_capacity`).
    pub cache_hits: Arc<Counter>,
    /// `srs_cache_misses_total` (cache probes that fell through to the
    /// engine).
    pub cache_misses: Arc<Counter>,
    /// `srs_walk_steps_total{class=...}`, indexed by [`WALK_CLASSES`].
    pub walk_steps: [Arc<Counter>; 3],
    /// `srs_query_latency_ns`.
    pub latency: Arc<Histogram>,
    /// `srs_query_stage_ns{stage=...}`, indexed by [`QUERY_STAGES`].
    pub query_stages: [Arc<Histogram>; 4],
    /// `srs_query_candidates` (per-query candidate count distribution).
    pub candidates_per_query: Arc<Histogram>,
    /// `srs_query_hits` (per-query hit count distribution).
    pub hits_per_query: Arc<Histogram>,
    /// `srs_build_stage_ns{stage=...}`, indexed by [`BUILD_STAGES`].
    pub build_stages: [Arc<Histogram>; 3],
    /// `srs_graph_vertices`.
    pub graph_vertices: Arc<Gauge>,
    /// `srs_graph_edges`.
    pub graph_edges: Arc<Gauge>,
    /// `srs_index_bytes`.
    pub index_bytes: Arc<Gauge>,
    /// `srs_engine_threads`.
    pub engine_threads: Arc<Gauge>,
    /// `srs_engine_pooled_scratches`.
    pub pooled_scratches: Arc<Gauge>,
    /// `srs_dataset_swaps_total` (hot swaps performed by a
    /// [`crate::engine::ServingEngine`]).
    pub dataset_swaps: Arc<Counter>,
    /// `srs_snapshot_load_ns` (wall time of the last snapshot load).
    pub snapshot_load_ns: Arc<Gauge>,
    /// `srs_snapshot_read_ns`, `srs_snapshot_checksum_ns` and
    /// `srs_snapshot_validate_ns`: the last load's read, checksum and
    /// validate stages (see [`crate::snapshot::SnapshotInfo`]); what they
    /// leave of `srs_snapshot_load_ns` is the unattributed residual.
    pub snapshot_stage_ns: [Arc<Gauge>; 3],
    /// `srs_snapshot_bytes` (size of the last loaded snapshot).
    pub snapshot_bytes: Arc<Gauge>,
    /// `srs_snapshot_sections_verified` (checksum-verified sections of
    /// the last loaded snapshot).
    pub snapshot_sections: Arc<Gauge>,
    /// `srs_snapshot_resident_bytes` (loaded structures living on the
    /// process heap — owned arrays, decoded fallbacks, per-vertex
    /// diagonals).
    pub snapshot_resident: Arc<Gauge>,
    /// `srs_snapshot_mapped_bytes` (loaded structures served through the
    /// `mmap` region: page cache, not heap; 0 for heap-backed loads).
    pub snapshot_mapped: Arc<Gauge>,
    /// `srs_extend_applies_total` (delta batches applied through
    /// [`crate::engine::ServingEngine::apply_delta`] or a chain load).
    pub extend_applies: Arc<Counter>,
    /// `srs_extend_appended_vertices_total` (vertices appended by applied
    /// deltas).
    pub extend_appended: Arc<Counter>,
    /// `srs_extend_dirty_vertices_total` (old vertices recomputed by
    /// applied deltas — the incremental work).
    pub extend_dirty: Arc<Counter>,
    /// `srs_extend_reused_vertices_total` (vertices whose artifacts were
    /// reused untouched — the rebuild work avoided).
    pub extend_reused: Arc<Counter>,
    /// `srs_extend_apply_ns` (wall time of one delta apply: graph build +
    /// dirty recompute + hot swap).
    pub extend_apply_ns: Arc<Histogram>,
    /// `srs_chain_depth` (delta bundles layered on the served base
    /// snapshot; 0 when serving a plain snapshot, reset by compaction or
    /// reload).
    pub chain_depth: Arc<Gauge>,
}

impl Default for ServingMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServingMetrics {
    /// Registers the full serving-pipeline schema on a fresh registry.
    pub fn new() -> Self {
        let r = Registry::new();
        let fates = std::array::from_fn(|i| {
            r.counter_with(
                "srs_query_candidate_fates_total",
                "Candidates by scan outcome",
                &[("fate", FATES[i])],
            )
        });
        let walk_steps = std::array::from_fn(|i| {
            r.counter_with(
                "srs_walk_steps_total",
                "Reverse walk steps by descriptor class",
                &[("class", WALK_CLASSES[i])],
            )
        });
        let query_stages = std::array::from_fn(|i| {
            r.histogram_with(
                "srs_query_stage_ns",
                "Per-stage query duration (ns)",
                &[("stage", QUERY_STAGES[i])],
            )
        });
        let build_stages = std::array::from_fn(|i| {
            r.histogram_with(
                "srs_build_stage_ns",
                "Per-stage preprocess duration (ns)",
                &[("stage", BUILD_STAGES[i])],
            )
        });
        ServingMetrics {
            queries: r.counter("srs_queries_total", "Top-k queries answered"),
            batches: r.counter("srs_query_batches_total", "Query batches served"),
            candidates: r.counter("srs_query_candidates_total", "Candidates enumerated"),
            fates,
            bfs_visited: r.counter(
                "srs_query_bfs_visited_total",
                "Vertices visited by the query BFS (it stops once every candidate is placed)",
            ),
            zero_screened: r.counter(
                "srs_query_zero_screened_total",
                "Candidates estimated as exactly 0 by the structural-zero screen, without walks",
            ),
            l1_tables: r.counter(
                "srs_query_l1_tables_total",
                "Per-query L1 bound tables built (skipped when they cannot pay for themselves)",
            ),
            meet_sets: r.counter(
                "srs_query_meet_sets_total",
                "Per-query structural-zero meet sets built (skipped when they exceed their edge-scan budget)",
            ),
            waves: r.counter("srs_query_waves_total", "Walk waves formed by the batched scan"),
            wave_survivors: r.histogram("srs_query_wave_survivors", "Bound-surviving candidates per wave"),
            head_empty: r.counter(
                "srs_query_head_empty_total",
                "Head queries the bound B(u) < theta answered empty before the backward push",
            ),
            push_edges: r.counter("srs_query_push_edges_total", "Edges scanned by exact-head pushes"),
            deduped: r.counter("srs_queries_deduped_total", "Batch queries answered via in-batch dedup"),
            cache_hits: r.counter("srs_cache_hits_total", "Queries answered from the result cache"),
            cache_misses: r.counter("srs_cache_misses_total", "Result-cache probes that missed"),
            walk_steps,
            latency: r.histogram("srs_query_latency_ns", "Per-query wall latency (ns)"),
            query_stages,
            candidates_per_query: r.histogram("srs_query_candidates", "Candidates enumerated per query"),
            hits_per_query: r.histogram("srs_query_hits", "Hits returned per query"),
            build_stages,
            graph_vertices: r.gauge("srs_graph_vertices", "Vertices in the served graph"),
            graph_edges: r.gauge("srs_graph_edges", "Edges in the served graph"),
            index_bytes: r.gauge("srs_index_bytes", "Preprocess artifact size in bytes"),
            engine_threads: r.gauge("srs_engine_threads", "Engine worker thread count"),
            pooled_scratches: r.gauge("srs_engine_pooled_scratches", "Scratch states currently pooled"),
            dataset_swaps: r.counter("srs_dataset_swaps_total", "Hot dataset swaps performed"),
            snapshot_load_ns: r.gauge("srs_snapshot_load_ns", "Wall time of the last snapshot load (ns)"),
            snapshot_stage_ns: [
                r.gauge("srs_snapshot_read_ns", "Read and table check of the last snapshot load (ns)"),
                r.gauge("srs_snapshot_checksum_ns", "Section checksums of the last snapshot load (ns)"),
                r.gauge("srs_snapshot_validate_ns", "Section validation of the last snapshot load (ns)"),
            ],
            snapshot_bytes: r.gauge("srs_snapshot_bytes", "Bytes mapped by the last snapshot load"),
            snapshot_sections: r
                .gauge("srs_snapshot_sections_verified", "Checksum-verified sections of the last load"),
            snapshot_resident: r
                .gauge("srs_snapshot_resident_bytes", "Snapshot bytes resident on the process heap"),
            snapshot_mapped: r
                .gauge("srs_snapshot_mapped_bytes", "Snapshot bytes served through the mmap region"),
            extend_applies: r
                .counter("srs_extend_applies_total", "Delta batches applied to the served index"),
            extend_appended: r
                .counter("srs_extend_appended_vertices_total", "Vertices appended by applied deltas"),
            extend_dirty: r
                .counter("srs_extend_dirty_vertices_total", "Vertices recomputed by applied deltas"),
            extend_reused: r
                .counter("srs_extend_reused_vertices_total", "Vertex artifacts reused across applied deltas"),
            extend_apply_ns: r.histogram("srs_extend_apply_ns", "Wall time of one delta apply (ns)"),
            chain_depth: r.gauge("srs_chain_depth", "Delta bundles layered on the served base snapshot"),
            registry: r,
        }
    }

    /// Records one snapshot load's statistics on the snapshot gauges.
    pub fn record_snapshot_load(&self, info: &crate::snapshot::SnapshotInfo) {
        self.snapshot_load_ns.set(info.load_time.as_nanos() as u64);
        for (gauge, stage) in
            self.snapshot_stage_ns.iter().zip([info.read_time, info.checksum_time, info.validate_time])
        {
            gauge.set(stage.as_nanos() as u64);
        }
        self.snapshot_bytes.set(info.bytes);
        self.snapshot_sections.set(info.sections_verified as u64);
        self.snapshot_resident.set(info.resident_bytes);
        self.snapshot_mapped.set(info.mapped_bytes);
    }

    /// Records one delta apply's counters: the [`crate::ExtendStats`]
    /// split plus the wall time of the whole apply.
    pub fn record_extend(&self, stats: &crate::ExtendStats, elapsed_ns: u64) {
        self.extend_applies.inc();
        self.extend_appended.add(stats.appended as u64);
        self.extend_dirty.add(stats.dirty as u64);
        self.extend_reused.add(stats.reused as u64);
        self.extend_apply_ns.observe(elapsed_ns);
    }

    /// The underlying registry (for registering extra app-level metrics
    /// alongside the pipeline's).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Snapshots every family for rendering.
    pub fn snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// Folds a query's (or an aggregated batch's) counters into the
    /// shared cells.
    pub fn record_query_stats(&self, s: &QueryStats) {
        self.candidates.add(s.candidates);
        self.fates[0].add(s.pruned_distance);
        self.fates[1].add(s.pruned_bounds);
        self.fates[2].add(s.pruned_coarse);
        self.fates[3].add(s.refined);
        self.fates[4].add(s.reported);
        self.bfs_visited.add(s.bfs_visited);
        self.zero_screened.add(s.zero_screened);
        self.l1_tables.add(s.l1_tables);
        self.meet_sets.add(s.meet_sets);
        self.waves.add(s.waves);
        self.head_empty.add(s.head_empty);
        self.push_edges.add(s.push_edges);
    }

    /// Folds a worker's walk-step class delta into the shared cells.
    pub fn record_walk_steps(&self, d: WalkStepCounts) {
        self.walk_steps[0].add(d.dead);
        self.walk_steps[1].add(d.unique);
        self.walk_steps[2].add(d.branch);
    }
}

/// Per-scratch stage-duration accumulators: each `QueryScratch` records
/// its stage timings here (plain `u64` cells) and the engine drains them
/// into [`ServingMetrics::query_stages`] once per batch.
#[derive(Debug, Default)]
pub struct QueryLocalObs {
    /// Stage-duration cells, indexed by [`QUERY_STAGES`].
    pub stages: [LocalHistogram; 4],
    /// Per-wave survivor counts from the batched scan.
    pub wave_survivors: LocalHistogram,
}

impl QueryLocalObs {
    /// Fresh accumulators with every stage empty.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drains every stage accumulator into the shared histograms.
    pub fn merge_into(&mut self, m: &ServingMetrics) {
        for (local, shared) in self.stages.iter_mut().zip(&m.query_stages) {
            local.drain_into(shared);
        }
        self.wave_survivors.drain_into(&m.wave_survivors);
    }
}

/// Optional observation hooks threaded through the preprocess build:
/// stage-duration histograms and a vertices/sec progress reporter. The
/// default (`BuildObs::default()`) observes nothing and adds no timing
/// calls to the build loop.
#[derive(Clone, Copy, Default)]
pub struct BuildObs<'a> {
    /// Destination for `srs_build_stage_ns` observations.
    pub metrics: Option<&'a ServingMetrics>,
    /// Per-vertex build progress (candidate-index vertices completed).
    pub progress: Option<&'a Progress>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_registers_expected_families() {
        let m = ServingMetrics::new();
        m.queries.add(3);
        m.record_query_stats(&QueryStats {
            candidates: 10,
            pruned_distance: 4,
            pruned_bounds: 2,
            pruned_coarse: 1,
            refined: 1,
            reported: 2,
            bfs_visited: 50,
            walk_steps: 123,
            zero_screened: 5,
            waves: 2,
            l1_tables: 1,
            meet_sets: 1,
            head_empty: 1,
            push_edges: 77,
        });
        m.record_walk_steps(WalkStepCounts { dead: 1, unique: 2, branch: 3 });
        m.record_extend(&crate::ExtendStats { appended: 3, dirty: 5, reused: 92 }, 1000);
        m.chain_depth.set(2);
        let snap = m.snapshot();
        for family in [
            "srs_queries_total",
            "srs_query_batches_total",
            "srs_query_candidates_total",
            "srs_query_candidate_fates_total",
            "srs_query_bfs_visited_total",
            "srs_query_zero_screened_total",
            "srs_query_l1_tables_total",
            "srs_query_meet_sets_total",
            "srs_query_waves_total",
            "srs_query_wave_survivors",
            "srs_query_head_empty_total",
            "srs_query_push_edges_total",
            "srs_queries_deduped_total",
            "srs_cache_hits_total",
            "srs_cache_misses_total",
            "srs_walk_steps_total",
            "srs_query_latency_ns",
            "srs_query_stage_ns",
            "srs_query_candidates",
            "srs_query_hits",
            "srs_build_stage_ns",
            "srs_graph_vertices",
            "srs_graph_edges",
            "srs_index_bytes",
            "srs_engine_threads",
            "srs_engine_pooled_scratches",
            "srs_dataset_swaps_total",
            "srs_snapshot_load_ns",
            "srs_snapshot_read_ns",
            "srs_snapshot_checksum_ns",
            "srs_snapshot_validate_ns",
            "srs_snapshot_bytes",
            "srs_snapshot_sections_verified",
            "srs_snapshot_resident_bytes",
            "srs_snapshot_mapped_bytes",
            "srs_extend_applies_total",
            "srs_extend_appended_vertices_total",
            "srs_extend_dirty_vertices_total",
            "srs_extend_reused_vertices_total",
            "srs_extend_apply_ns",
            "srs_chain_depth",
        ] {
            assert!(snap.family(family).is_some(), "missing family {family}");
        }
        assert_eq!(snap.counter_total("srs_queries_total"), 3);
        // The fate family sums to the candidate count (identity holds).
        assert_eq!(snap.counter_total("srs_query_candidate_fates_total"), 10);
        assert_eq!(snap.counter_total("srs_walk_steps_total"), 6);
        assert_eq!(snap.counter_total("srs_query_zero_screened_total"), 5);
        assert_eq!(snap.counter_total("srs_query_waves_total"), 2);
        assert_eq!(snap.counter_total("srs_query_l1_tables_total"), 1);
        assert_eq!(snap.counter_total("srs_query_meet_sets_total"), 1);
        assert_eq!(snap.counter_total("srs_query_head_empty_total"), 1);
        assert_eq!(snap.counter_total("srs_query_push_edges_total"), 77);
        assert_eq!(snap.family("srs_query_candidate_fates_total").unwrap().samples.len(), 5);
        assert_eq!(snap.family("srs_query_stage_ns").unwrap().samples.len(), 4);
        assert_eq!(snap.counter_total("srs_extend_applies_total"), 1);
        assert_eq!(snap.counter_total("srs_extend_dirty_vertices_total"), 5);
        assert_eq!(snap.counter_total("srs_extend_reused_vertices_total"), 92);
        assert_eq!(m.chain_depth.get(), 2);
    }

    #[test]
    fn stage_span_names_track_engine_stages() {
        for (span, stage) in STAGE_SPANS.iter().zip(QUERY_STAGES) {
            assert_eq!(*span, format!("stage:{stage}"), "span names must mirror QUERY_STAGES");
        }
    }

    #[test]
    fn snapshot_gauges_record_load_info() {
        let m = ServingMetrics::new();
        m.record_snapshot_load(&crate::snapshot::SnapshotInfo {
            bytes: 1234,
            sections_verified: 11,
            load_time: std::time::Duration::from_nanos(5678),
            read_time: std::time::Duration::from_nanos(1000),
            checksum_time: std::time::Duration::from_nanos(2000),
            validate_time: std::time::Duration::from_nanos(2500),
            graph_validate_time: std::time::Duration::from_nanos(1500),
            fingerprint: 0xfeed,
            resident_bytes: 200,
            mapped_bytes: 1000,
            shards: 4,
            mapped: true,
        });
        assert_eq!(m.snapshot_bytes.get(), 1234);
        assert_eq!(m.snapshot_sections.get(), 11);
        assert_eq!(m.snapshot_load_ns.get(), 5678);
        assert_eq!(m.snapshot_stage_ns.each_ref().map(|g| g.get()), [1000, 2000, 2500]);
        assert_eq!(m.snapshot_resident.get(), 200);
        assert_eq!(m.snapshot_mapped.get(), 1000);
    }

    #[test]
    fn local_obs_merges_and_drains() {
        let m = ServingMetrics::new();
        let mut local = QueryLocalObs::new();
        local.stages[0].record(100);
        local.stages[2].record(7);
        local.merge_into(&m);
        assert_eq!(m.query_stages[0].count(), 1);
        assert_eq!(m.query_stages[0].sum(), 100);
        assert_eq!(m.query_stages[2].count(), 1);
        assert_eq!(local.stages[0].count(), 0, "drained");
        local.merge_into(&m);
        assert_eq!(m.query_stages[0].count(), 1, "drained observations never merge twice");
    }
}

#![warn(missing_docs)]
// Index-style loops are the clearest form for the matrix/graph math here.
#![allow(clippy::needless_range_loop)]
//! # srs-search — scalable top-k SimRank similarity search
//!
//! The paper's contribution (Kusumoto, Maehara, Kawarabayashi; SIGMOD 2014),
//! implemented end to end:
//!
//! | Paper | Module |
//! |---|---|
//! | Algorithm 1 — Monte-Carlo single-pair SimRank | [`single_pair`] |
//! | Algorithm 2 — α/β computation (L1 bound) | [`bounds::AlphaBeta`] |
//! | Algorithm 3 — γ computation (L2 bound; built by the paper's experiments, not served) | [`bounds::GammaTable`] |
//! | Algorithm 4 — candidate index (bipartite graph `H`) | [`index::CandidateIndex`] |
//! | Algorithm 5 — pruned, adaptively-sampled top-k query | [`topk`] |
//! | parallel, cached, hot-swappable serving over one dataset | [`engine`] |
//! | §2.2 — similarity search for *all* vertices | [`all_vertices`] |
//! | the on-disk index layout (`O(n)` preprocess artifacts, 1..N shards) | [`persist`] |
//! | snapshot bundles (graph + index, zero-copy) | [`snapshot`] |
//! | incremental maintenance + delta snapshot chains | [`extend`], [`chain`] |
//! | validation against the deterministic solver | [`validate`] |
//! | serving metrics, stage timers, explain traces | [`obs`] |
//!
//! The usual flow is [`topk::TopKIndex::build`] once per graph (the
//! preprocess phase: Algorithm 4), then [`topk::TopKIndex::query`] per
//! query vertex (Algorithm 5, which internally runs Algorithms 1 and 2) —
//! or, for query streams, [`engine::ServingEngine::query_batch`], which
//! serves whole batches in parallel from pooled query state.

pub mod all_vertices;
pub mod bounds;
pub mod chain;
pub mod colocate;
pub mod engine;
pub mod extend;
pub mod index;
pub mod obs;
pub mod persist;
mod screen;
pub mod single_pair;
pub mod snapshot;
pub mod topk;
pub mod validate;

pub use chain::{build_delta, compact_chain, load_chain, BuiltDelta, ChainInfo, DeltaHeader};
pub use engine::{AppliedDelta, BatchResult, LatencySummary, ServingEngine, WaveOutcome, WaveQuery};
pub use extend::{extend_delta, ExtendError, ExtendOutcome, ExtendStats};
pub use index::SeenStamps;
pub use obs::{BuildObs, ServingMetrics, StageTimings};
pub use single_pair::{SinglePairEstimator, WaveEstimator};
pub use snapshot::{load_snapshot, Dataset, LoadOptions, SnapshotInfo, SnapshotVerifier};
pub use topk::{Hit, QueryContext, QueryOptions, QueryScratch, QueryStats, TopKIndex, TopKResult};

/// The diagonal correction matrix `D` used by the estimators.
///
/// The paper approximates `D = (1 − c) I` (§3.3) and argues this preserves
/// top-k rankings; the estimators nevertheless accept an arbitrary diagonal
/// ("our proposed method does not depend on the approximation").
#[derive(Debug, Clone)]
pub enum Diagonal {
    /// `D = x · I` (pass `x = 1 − c` for the paper's choice).
    Uniform(f64),
    /// Per-vertex weights, e.g. from `srs_exact::diagonal::estimate`.
    PerVertex(std::sync::Arc<Vec<f64>>),
}

impl Diagonal {
    /// The paper's `D = (1 − c) I`.
    pub fn paper_default(c: f64) -> Self {
        Diagonal::Uniform(1.0 - c)
    }

    /// Weight `D_ww`.
    #[inline]
    pub fn weight(&self, w: srs_graph::VertexId) -> f64 {
        match self {
            Diagonal::Uniform(x) => *x,
            Diagonal::PerVertex(v) => v[w as usize],
        }
    }

    /// Upper bound over all weights (used by conservative bound slack).
    pub fn max_weight(&self) -> f64 {
        match self {
            Diagonal::Uniform(x) => *x,
            Diagonal::PerVertex(v) => v.iter().copied().fold(0.0, f64::max),
        }
    }
}

/// Every tunable of the paper's method, defaulting to the §8 experiment
/// parameter set.
#[derive(Debug, Clone, PartialEq)]
pub struct SimRankParams {
    /// Decay factor `c` (§8 uses 0.6).
    pub c: f64,
    /// Series length / walk length `T` (§8 uses 11).
    pub t: u32,
    /// Walks per endpoint for refined single-pair estimates (Algorithm 1;
    /// §8 uses `R = 100`).
    pub r_refine: u32,
    /// Walks for the coarse adaptive-sampling pass (§7.2 uses `R = 10`).
    pub r_coarse: u32,
    /// Walks for the α/β (L1) tables (Algorithm 2; §8 uses `R = 10000`).
    pub r_bounds: u32,
    /// Walks per vertex for the γ (L2) table (Algorithm 3; §8 uses
    /// `R = 100`). Only the γ build in [`bounds`] reads it; the serving
    /// index keeps no γ table.
    pub r_gamma: u32,
    /// Index repetitions per vertex (`P = 10`, §7.1).
    pub index_reps: u32,
    /// Auxiliary walks per repetition (`Q = 5`, §7.1).
    pub index_walks: u32,
    /// Maximum distance considered (`d_max`; the paper sets `d_max = T`).
    pub d_max: u32,
    /// Score threshold `θ` below which candidates are never interesting
    /// (§8 uses 0.01).
    pub theta: f64,
}

impl Default for SimRankParams {
    fn default() -> Self {
        SimRankParams {
            c: 0.6,
            t: 11,
            r_refine: 100,
            r_coarse: 10,
            r_bounds: 10_000,
            r_gamma: 100,
            index_reps: 10,
            index_walks: 5,
            d_max: 11,
            theta: 0.01,
        }
    }
}

impl SimRankParams {
    /// Validates invariants (panics on programmer error; parameters are
    /// compile-time-ish configuration, not runtime input).
    pub fn validate(&self) {
        assert!(self.c > 0.0 && self.c < 1.0, "c must be in (0,1)");
        assert!(self.t >= 1, "need at least one series term");
        assert!(self.r_refine >= 1 && self.r_coarse >= 1 && self.r_gamma >= 1 && self.r_bounds >= 1);
        assert!(self.index_walks >= 2, "Q < 2 can never produce a coincidence");
        assert!(self.theta >= 0.0);
    }

    /// Non-panicking form of [`SimRankParams::validate`] for untrusted
    /// (deserialized) parameters. Also rejects NaNs.
    pub fn is_valid(&self) -> bool {
        self.c > 0.0
            && self.c < 1.0
            && self.t >= 1
            && self.r_refine >= 1
            && self.r_coarse >= 1
            && self.r_gamma >= 1
            && self.r_bounds >= 1
            && self.index_walks >= 2
            && self.theta >= 0.0
            && self.theta.is_finite()
    }

    /// Suggests a parameter set for a target accuracy on a graph of `n`
    /// vertices, using the paper's concentration bounds (Corollaries 1–3)
    /// with the empirical observation of §8 that Hoeffding is ~100x loose
    /// in practice (the paper runs R = 100 where theory asks for tens of
    /// thousands).
    ///
    /// `eps` is the per-score accuracy target, `delta` the failure
    /// probability. Walk budgets are clamped to practical ranges.
    pub fn recommend(n: u64, c: f64, eps: f64, delta: f64) -> SimRankParams {
        assert!(c > 0.0 && c < 1.0 && eps > 0.0 && eps < 1.0 && delta > 0.0 && delta < 1.0);
        let t = srs_exact::ExactParams::terms_for_accuracy(c, eps);
        let looseness = 100; // §8: theory/practice gap
        let r_theory = srs_mc::hoeffding::single_pair_samples(n, t, c, eps, delta);
        let r_refine = (r_theory / looseness).clamp(50, 10_000) as u32;
        let r_bounds = (srs_mc::hoeffding::alpha_beta_samples(n, t, t, eps, delta) / looseness)
            .clamp(1_000, 100_000) as u32;
        let r_gamma = (srs_mc::hoeffding::gamma_samples(n, eps, delta) / looseness).clamp(50, 2_000) as u32;
        SimRankParams {
            c,
            t,
            r_refine,
            r_coarse: (r_refine / 10).max(5),
            r_bounds,
            r_gamma,
            d_max: t,
            theta: eps,
            ..Default::default()
        }
    }

    /// The trivial distance bound for *undirected* distance `d`:
    /// `s(u,v) ≤ c^⌈d/2⌉`.
    ///
    /// The paper states `s(u,v) ≤ c^d` (start of §6) without fixing the
    /// metric; with the undirected distance this implementation measures,
    /// that form is false (two vertices pointing at a common target sit at
    /// undirected distance 2 yet meet after one reverse step, scoring `c`).
    /// A meeting at time `τ` certifies both endpoints within `τ` reverse
    /// steps of the meeting vertex, so `d ≤ 2τ` and `s = E[c^τ] ≤ c^⌈d/2⌉`.
    #[inline]
    pub fn distance_bound(&self, d: u32) -> f64 {
        self.c.powi(d.div_ceil(2) as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_section8() {
        let p = SimRankParams::default();
        assert_eq!(p.c, 0.6);
        assert_eq!(p.t, 11);
        assert_eq!(p.r_refine, 100);
        assert_eq!(p.r_bounds, 10_000);
        assert_eq!((p.index_reps, p.index_walks), (10, 5));
        assert_eq!(p.theta, 0.01);
        p.validate();
    }

    #[test]
    fn diagonal_variants() {
        let d = Diagonal::paper_default(0.6);
        assert!((d.weight(3) - 0.4).abs() < 1e-15);
        let pv = Diagonal::PerVertex(std::sync::Arc::new(vec![0.5, 0.9]));
        assert_eq!(pv.weight(1), 0.9);
        assert_eq!(pv.max_weight(), 0.9);
    }

    #[test]
    fn distance_bound_decays() {
        let p = SimRankParams::default();
        assert!(p.distance_bound(4) < p.distance_bound(2));
        assert!(p.distance_bound(3) <= p.distance_bound(2));
        // ⌈3/2⌉ = 2 → c² = 0.36
        assert!((p.distance_bound(3) - 0.36).abs() < 1e-12);
        // Soundness on the sibling pattern: undirected distance 2, true
        // score c.
        assert!(p.distance_bound(2) >= p.c - 1e-12);
    }

    #[test]
    fn recommend_scales_with_accuracy() {
        let loose = SimRankParams::recommend(100_000, 0.6, 0.05, 0.05);
        let tight = SimRankParams::recommend(100_000, 0.6, 0.005, 0.05);
        loose.validate();
        tight.validate();
        assert!(tight.t > loose.t, "tighter eps needs a longer series");
        assert!(tight.r_refine >= loose.r_refine);
        assert_eq!(loose.theta, 0.05);
    }

    #[test]
    #[should_panic(expected = "Q < 2")]
    fn validate_catches_bad_q() {
        let p = SimRankParams { index_walks: 1, ..Default::default() };
        p.validate();
    }
}

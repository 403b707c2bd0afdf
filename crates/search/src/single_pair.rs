//! Algorithm 1 — Monte-Carlo single-pair SimRank.
//!
//! Estimates `s⁽ᵀ⁾(u, v) = Σ_{t<T} cᵗ (Pᵗe_u)ᵀ D (Pᵗe_v)` from `R`
//! independent reverse random walks per endpoint. Each term is estimated by
//! the co-location count (equation (14)):
//!
//! ```text
//! cᵗ E[e_{u(t)}]ᵀ D E[e_{v(t)}] ≈ (cᵗ / R²) Σ_w D_ww · α(w) · β(w)
//! ```
//!
//! where `α(w)` / `β(w)` count the `u`-walks / `v`-walks at `w` at step
//! `t`. Because the two walk sets are independent, the product of the
//! empirical means is an unbiased estimator of the product of expectations.
//!
//! The cost is `O(T · R)` — independent of graph size, the property the
//! paper's scalability rests on (Section 4).
//!
//! Buffer ownership is split in two layers so the batch query engine can
//! pool state without borrowing the graph: [`EstimatorBuffers`] is the
//! lifetime-free scratch (walk positions + counters) that lives inside a
//! pooled `QueryScratch`, while [`SinglePairEstimator`] bundles it with a
//! [`WalkEngine`] and [`Diagonal`] for convenient standalone use. Either
//! way, a query evaluating hundreds of candidates allocates nothing after
//! the first call.
//!
//! There is one estimator, in two shapes: the scalar
//! [`EstimatorBuffers::estimate`] (the reference, used for width-1 scans
//! and per-vertex diagonals) and [`WaveEstimator::estimate_pairs_into`],
//! its batched twin, bit-identical per pair for a uniform diagonal.

use crate::colocate;
use crate::{Diagonal, SimRankParams};
use srs_graph::{Graph, VertexId};
use srs_mc::multiset::PositionCounter;
use srs_mc::{MultiFrontier, Pcg32, WalkEngine, DEAD};

/// Lifetime-free Algorithm 1 scratch: two walk-position buffers and two
/// position counters, reused across every estimate. The graph is passed
/// per call (as a [`WalkEngine`]) instead of being borrowed, so this can
/// sit in a pooled, `'static` query state.
#[derive(Default)]
pub struct EstimatorBuffers {
    pos_u: Vec<VertexId>,
    pos_v: Vec<VertexId>,
    count_u: PositionCounter,
    count_v: PositionCounter,
}

impl EstimatorBuffers {
    /// Empty buffers; they grow on first use and are reused after.
    pub fn new() -> Self {
        Self::default()
    }

    /// Estimates `s(u, v)` with `r` walks per endpoint, deterministically in
    /// `seed`. Returns exactly 1 for `u == v`.
    #[allow(clippy::too_many_arguments)] // graph state is per-call by design
    pub fn estimate(
        &mut self,
        engine: &WalkEngine<'_>,
        diag: &Diagonal,
        u: VertexId,
        v: VertexId,
        params: &SimRankParams,
        r: u32,
        seed: u64,
    ) -> f64 {
        if u == v {
            return 1.0;
        }
        let r = r as usize;
        self.pos_u.clear();
        self.pos_u.resize(r, u);
        self.pos_v.clear();
        self.pos_v.resize(r, v);
        let mut rng = Pcg32::from_parts(&[seed, u as u64, v as u64]);
        let r2 = (r * r) as f64;
        let mut sigma = 0.0;
        let mut ct = 1.0;
        // t = 0 contributes only when u == v (handled above). Each later
        // term is produced by one fused step+count pass per frontier; once
        // either frontier dies out every remaining term is zero.
        for _t in 1..params.t {
            ct *= params.c;
            engine.step_frontier_count(&mut self.pos_u, &mut rng, &mut self.count_u);
            engine.step_frontier_count(&mut self.pos_v, &mut rng, &mut self.count_v);
            sigma += ct * self.weighted_dot(diag) / r2;
            if self.pos_u.is_empty() || self.pos_v.is_empty() {
                break;
            }
        }
        sigma
    }

    /// `Σ_w D_ww · count_u(w) · count_v(w)` over the co-located vertices.
    fn weighted_dot(&self, diag: &Diagonal) -> f64 {
        match diag {
            Diagonal::Uniform(x) => *x * self.count_u.dot(&self.count_v) as f64,
            Diagonal::PerVertex(d) => {
                // Iterate the smaller table.
                let (a, b) = if self.count_u.distinct() <= self.count_v.distinct() {
                    (&self.count_u, &self.count_v)
                } else {
                    (&self.count_v, &self.count_u)
                };
                a.iter().map(|(w, cu)| d[w as usize] * cu as f64 * b.count(w) as f64).sum()
            }
        }
    }
}

/// Reusable Algorithm 1 estimator: [`EstimatorBuffers`] bundled with the
/// graph's walk engine and a diagonal, for standalone (non-pooled) use.
pub struct SinglePairEstimator<'g> {
    engine: WalkEngine<'g>,
    diag: Diagonal,
    buffers: EstimatorBuffers,
}

impl<'g> SinglePairEstimator<'g> {
    /// Creates an estimator over `g` with diagonal `diag` (use
    /// [`Diagonal::paper_default`] for `D = (1−c) I`).
    pub fn new(g: &'g Graph, diag: Diagonal) -> Self {
        SinglePairEstimator { engine: WalkEngine::new(g), diag, buffers: EstimatorBuffers::new() }
    }

    /// Estimates `s(u, v)` with `r` walks per endpoint, deterministically in
    /// `seed`. Returns exactly 1 for `u == v`.
    pub fn estimate(&mut self, u: VertexId, v: VertexId, params: &SimRankParams, r: u32, seed: u64) -> f64 {
        self.buffers.estimate(&self.engine, &self.diag, u, v, params, r, seed)
    }
}

/// Batched Algorithm 1: estimates `s(u, vᵢ)` for a whole **wave** of
/// candidates at once, stepping every candidate's walks through one
/// [`MultiFrontier`] instead of one narrow kernel call per candidate.
///
/// # Bit-identity contract
///
/// For a **uniform** diagonal, every estimate this produces is
/// bit-identical to the scalar reference [`EstimatorBuffers::estimate`]
/// called with the same `(u, vᵢ, params, r, seedᵢ)`:
///
/// * candidate `i` draws only from its own RNG, seeded exactly as the
///   scalar path seeds it, and the fused frontier replays each
///   candidate's draw sequence in scalar order (see [`MultiFrontier`]);
/// * the per-step inner product `Σ_w α(w)β(w)` is a `u64` sum, so
///   accumulating it walk-by-walk in whatever order the kernel emits
///   positions yields the same integer the scalar hash-table dot does;
/// * each step's floating-point term is then formed by the exact same
///   expression (`ct * (x * dot as f64) / r²`) in the same order.
///
/// A *per-vertex* diagonal has no such guarantee (its dot is an `f64`
/// sum over hash-table order), which is why the wave scan falls back to
/// the scalar path for `Diagonal::PerVertex` — the wave entry point
/// takes the uniform weight `x` directly.
#[derive(Default)]
pub struct WaveEstimator {
    front_u: MultiFrontier,
    front_v: MultiFrontier,
    rngs: Vec<Pcg32>,
    dots: Vec<u64>,
    sigma: Vec<f64>,
    /// This step's raw walk positions, one strided row per candidate
    /// (see [`MultiFrontier::step_strided`]). For small `r` the u-side
    /// rows are padded to a lane multiple with [`DEAD`] and compared by
    /// the SIMD kernel ([`colocate::count_matches_padded`]); for large
    /// `r` both sides are sorted and run-merged
    /// ([`colocate::count_matches_sorted`]). Either way the whole
    /// wave's positions are a few KB of contiguous memory and the exact
    /// integer counts match any other layout.
    u_pos: Vec<VertexId>,
    v_pos: Vec<VertexId>,
    u_len: Vec<u32>,
    v_len: Vec<u32>,
}

/// Pair waves with `r` at or below this compare [`DEAD`]-padded u-side
/// rows against each v position with the splat-and-compare SIMD kernel;
/// wider waves sort both rows and merge equal-value runs. The compare
/// is quadratic in `r` but runs 8 lanes per instruction over rows that
/// stay cache-resident, so it beats the two `O(r log r)` sorts (and the
/// hash table it replaced) up to about this width — `wave_micro`'s
/// kernel-only section puts the AVX2 crossover near `r = 128`, with the
/// SIMD compare 2–4× ahead in the `r ≤ 48` band (which contains the
/// coarse pass, `r = 10`) and still ~1.2× ahead at the refine width
/// (`r = 100`). Both paths produce the same exact integer
/// co-location counts — the switch changes layout, never values.
const SIMD_COUNT_MAX_R: usize = 128;

/// Position/RNG scratch above these many elements is released again
/// after any wave that needed less than the current capacity — one
/// oversized wave (huge `r·width`) must not pin memory for the life of
/// a pooled scratch. Below the threshold, buffers keep their capacity
/// forever (steady-state waves never reallocate).
const POS_SCRATCH_RETAIN: usize = 1 << 15;
const LANE_SCRATCH_RETAIN: usize = 1 << 10;

impl WaveEstimator {
    /// Empty buffers; they grow on first use and are reused after.
    pub fn new() -> Self {
        Self::default()
    }

    /// Estimates `s(u, vᵢ)` for every candidate in `targets` with `r`
    /// walks per endpoint, writing into `out` (cleared first; aligned
    /// with `targets`). `seeds[i]` is candidate `i`'s scalar-path seed;
    /// `x` the uniform diagonal weight. Bit-identical per candidate to
    /// [`EstimatorBuffers::estimate`].
    #[allow(clippy::too_many_arguments)] // graph state is per-call by design
    pub fn estimate_pairs_into(
        &mut self,
        engine: &WalkEngine<'_>,
        x: f64,
        u: VertexId,
        targets: &[VertexId],
        params: &SimRankParams,
        r: u32,
        seeds: &[u64],
        out: &mut Vec<f64>,
    ) {
        debug_assert_eq!(targets.len(), seeds.len());
        let m = targets.len();
        let rr = r as usize;
        let r2 = (rr * rr) as f64;
        self.reset(m);
        let flat = rr <= SIMD_COUNT_MAX_R;
        // Flat rows are DEAD-padded to a lane multiple so the SIMD
        // comparator scans full rows with no length checks; sorted rows
        // need no padding (lengths bound the merge).
        let stride = if flat { colocate::pad_stride(rr) } else { rr };
        let kernel = colocate::dispatch();
        self.u_pos.resize(m * stride, DEAD);
        self.v_pos.resize(m * rr, DEAD);
        self.u_len.resize(m, 0);
        self.v_len.resize(m, 0);
        for (i, (&v, &seed)) in targets.iter().zip(seeds).enumerate() {
            // Same stream the scalar estimate draws from for this pair.
            self.rngs.push(Pcg32::from_parts(&[seed, u as u64, v as u64]));
            let walks = if v == u { 0 } else { rr };
            self.front_u.push_source(u, walks);
            self.front_v.push_source(v, walks);
            if v == u {
                self.sigma[i] = 1.0; // s(u,u) = 1 exactly, no walks spent
            }
        }
        let mut ct = 1.0;
        for _t in 1..params.t {
            if self.front_u.is_empty() && self.front_v.is_empty() {
                break;
            }
            ct *= params.c;
            // u side first, then v side — the per-candidate draw order of
            // the scalar loop. Any counting layout produces the exact
            // integer co-location counts per pair that per-candidate
            // counters would, so the estimates cannot differ.
            if flat {
                self.u_pos[..m * stride].fill(DEAD);
            }
            self.u_len[..m].fill(0);
            self.front_u.step_strided(engine, &mut self.rngs, &mut self.u_pos, stride, &mut self.u_len);
            self.v_len[..m].fill(0);
            self.front_v.step_strided(engine, &mut self.rngs, &mut self.v_pos, rr, &mut self.v_len);
            if flat {
                for i in 0..m {
                    let vs = &self.v_pos[i * rr..i * rr + self.v_len[i] as usize];
                    if !vs.is_empty() {
                        let row = &self.u_pos[i * stride..(i + 1) * stride];
                        self.dots[i] += colocate::count_matches_padded(kernel, row, vs);
                    }
                }
            } else {
                for i in 0..m {
                    let (ul, vl) = (self.u_len[i] as usize, self.v_len[i] as usize);
                    if ul > 0 && vl > 0 {
                        let (us, vs) = (&mut self.u_pos[i * rr..], &mut self.v_pos[i * rr..]);
                        self.dots[i] += colocate::count_matches_sorted(&mut us[..ul], &mut vs[..vl]);
                    }
                }
            }
            for i in 0..m {
                self.sigma[i] += ct * (x * self.dots[i] as f64) / r2;
                self.dots[i] = 0;
                // Mirror the scalar early-break: once either side of a pair
                // dies out, all its later terms are zero — drop both sides
                // so neither steps (or draws) again.
                if self.front_u.live(i as u32) == 0 || self.front_v.live(i as u32) == 0 {
                    self.front_u.deactivate(i as u32);
                    self.front_v.deactivate(i as u32);
                }
            }
        }
        out.clear();
        out.extend_from_slice(&self.sigma[..m]);
        self.shrink_scratch();
    }

    /// Clears per-wave state for `m` candidates, keeping allocations.
    fn reset(&mut self, m: usize) {
        self.front_u.clear();
        self.front_v.clear();
        self.rngs.clear();
        self.dots.clear();
        self.dots.resize(m, 0);
        self.sigma.clear();
        self.sigma.resize(m, 0.0);
    }

    /// Releases scratch an oversized wave left behind: any buffer whose
    /// capacity exceeds both its retain threshold and what the wave just
    /// finished actually used is shrunk back to the larger of the two.
    /// Steady-state waves sit under the thresholds and never touch the
    /// allocator; one huge `r · width` wave gets its memory returned at
    /// the end of the *next* call instead of pinning it for the life of
    /// the pooled scratch.
    fn shrink_scratch(&mut self) {
        fn bound<T>(buf: &mut Vec<T>, retain: usize) {
            let target = retain.max(buf.len());
            if buf.capacity() > target {
                buf.shrink_to(target);
            }
        }
        bound(&mut self.u_pos, POS_SCRATCH_RETAIN);
        bound(&mut self.v_pos, POS_SCRATCH_RETAIN);
        bound(&mut self.rngs, LANE_SCRATCH_RETAIN);
        bound(&mut self.dots, LANE_SCRATCH_RETAIN);
        bound(&mut self.sigma, LANE_SCRATCH_RETAIN);
        bound(&mut self.u_len, LANE_SCRATCH_RETAIN);
        bound(&mut self.v_len, LANE_SCRATCH_RETAIN);
    }

    /// Bytes of scratch currently retained (position rows, RNG states,
    /// per-candidate lanes) — the quantity the shrink policy bounds.
    pub fn scratch_bytes(&self) -> usize {
        (self.u_pos.capacity() + self.v_pos.capacity()) * std::mem::size_of::<VertexId>()
            + self.rngs.capacity() * std::mem::size_of::<Pcg32>()
            + self.dots.capacity() * std::mem::size_of::<u64>()
            + self.sigma.capacity() * std::mem::size_of::<f64>()
            + (self.u_len.capacity() + self.v_len.capacity()) * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srs_graph::gen::{self, fixtures};

    fn mean_estimate(
        g: &Graph,
        u: VertexId,
        v: VertexId,
        params: &SimRankParams,
        r: u32,
        trials: u64,
    ) -> f64 {
        let mut est = SinglePairEstimator::new(g, Diagonal::paper_default(params.c));
        (0..trials).map(|s| est.estimate(u, v, params, r, 1000 + s)).sum::<f64>() / trials as f64
    }

    #[test]
    fn identical_vertices_score_one() {
        let g = fixtures::claw();
        let mut est = SinglePairEstimator::new(&g, Diagonal::paper_default(0.6));
        assert_eq!(est.estimate(2, 2, &SimRankParams::default(), 10, 1), 1.0);
    }

    #[test]
    fn deterministic_in_seed() {
        let g = gen::erdos_renyi(50, 200, 3);
        let params = SimRankParams::default();
        let mut est = SinglePairEstimator::new(&g, Diagonal::paper_default(params.c));
        let a = est.estimate(1, 2, &params, 50, 7);
        let b = est.estimate(1, 2, &params, 50, 7);
        assert_eq!(a, b);
        let c = est.estimate(1, 2, &params, 50, 8);
        // Different seed virtually always gives a different estimate here.
        assert_ne!(a, c);
    }

    #[test]
    fn matches_linearized_exact_on_claw() {
        // Claw, c = 0.8, uniform D: the walks from two leaves meet at the
        // hub deterministically at t = 1 (then spread), so even modest R
        // gives tight estimates.
        let g = fixtures::claw();
        let params = SimRankParams { c: 0.8, t: 11, ..Default::default() };
        let exact = srs_exact::linearized::single_pair(
            &g,
            1,
            2,
            &srs_exact::ExactParams::new(0.8, 11),
            &srs_exact::diagonal::uniform(4, 0.8),
        );
        let est = mean_estimate(&g, 1, 2, &params, 100, 64);
        assert!((est - exact).abs() < 0.02, "est={est} exact={exact}");
    }

    #[test]
    fn matches_linearized_exact_on_random_graph() {
        let g = gen::erdos_renyi(40, 200, 17);
        let params = SimRankParams::default();
        let ep = srs_exact::ExactParams::new(params.c, params.t);
        let d = srs_exact::diagonal::uniform(40, params.c);
        for (u, v) in [(0u32, 1u32), (5, 9), (12, 30)] {
            let exact = srs_exact::linearized::single_pair(&g, u, v, &ep, &d);
            let est = mean_estimate(&g, u, v, &params, 200, 48);
            assert!((est - exact).abs() < 0.015, "({u},{v}): est={est} exact={exact}");
        }
    }

    #[test]
    fn per_vertex_diagonal_supported() {
        let g = fixtures::claw();
        let params = SimRankParams { c: 0.8, t: 20, ..Default::default() };
        let d_exact =
            srs_exact::diagonal::estimate(&g, &srs_exact::ExactParams::new(0.8, 40), 1e-8, 100).unwrap();
        let diag = Diagonal::PerVertex(std::sync::Arc::new(d_exact.clone()));
        let mut est = SinglePairEstimator::new(&g, diag);
        let mean: f64 = (0..64).map(|s| est.estimate(1, 2, &params, 100, s)).sum::<f64>() / 64.0;
        // True SimRank s(1,2) = 0.8 (Example 1).
        assert!((mean - 0.8).abs() < 0.03, "mean={mean}");
    }

    #[test]
    fn wave_pair_estimates_bit_identical_to_scalar() {
        // The wave estimator's whole value rests on this: for a uniform
        // diagonal, each candidate's batched estimate equals the scalar
        // estimate bit for bit, for any batch composition or width.
        let g = gen::copying_web(250, 4, 0.8, 31);
        let params = SimRankParams::default();
        let engine = WalkEngine::new(&g);
        let x = 1.0 - params.c;
        let diag = Diagonal::Uniform(x);
        let mut scalar = EstimatorBuffers::new();
        let mut wave = WaveEstimator::new();
        let u = 9u32;
        // Mixed bag: far vertices, near vertices, a repeat, and u itself.
        let targets: Vec<VertexId> = vec![3, 200, 41, 3, u, 118, 77, 14];
        let seeds: Vec<u64> = targets.iter().map(|&v| 9000 + v as u64).collect();
        for r in [10u32, 100] {
            let mut got = Vec::new();
            wave.estimate_pairs_into(&engine, x, u, &targets, &params, r, &seeds, &mut got);
            assert_eq!(got.len(), targets.len());
            for (i, (&v, &seed)) in targets.iter().zip(&seeds).enumerate() {
                let want = scalar.estimate(&engine, &diag, u, v, &params, r, seed);
                assert!(got[i] == want, "r={r} v={v}: wave {} != scalar {want}", got[i]);
            }
            // Splitting the same candidates across two waves changes nothing.
            let (a, b) = targets.split_at(3);
            let (sa, sb) = seeds.split_at(3);
            let mut got_a = Vec::new();
            let mut got_b = Vec::new();
            wave.estimate_pairs_into(&engine, x, u, a, &params, r, sa, &mut got_a);
            wave.estimate_pairs_into(&engine, x, u, b, &params, r, sb, &mut got_b);
            got_a.extend_from_slice(&got_b);
            assert_eq!(got_a, got, "r={r}: wave split changed estimates");
        }
    }

    #[test]
    fn wave_pair_bit_identity_across_r_regimes() {
        // r values straddling every kernel regime: 1 (degenerate row),
        // 4/16 (one padded chunk), 17/32 (multi-chunk SIMD), 128/129
        // (the exact SIMD_COUNT_MAX_R edge), 300 (deep in the
        // sort-and-merge path).
        let g = gen::copying_web(250, 4, 0.8, 31);
        let params = SimRankParams::default();
        let engine = WalkEngine::new(&g);
        let x = 1.0 - params.c;
        let diag = Diagonal::Uniform(x);
        let mut scalar = EstimatorBuffers::new();
        let mut wave = WaveEstimator::new();
        let u = 9u32;
        let targets: Vec<VertexId> = vec![3, 200, 41, u, 118, 77, 14];
        let seeds: Vec<u64> = targets.iter().map(|&v| 31_000 + v as u64).collect();
        for r in [1u32, 4, 16, 17, 32, 128, 129, 300] {
            let mut got = Vec::new();
            wave.estimate_pairs_into(&engine, x, u, &targets, &params, r, &seeds, &mut got);
            for (i, (&v, &seed)) in targets.iter().zip(&seeds).enumerate() {
                let want = scalar.estimate(&engine, &diag, u, v, &params, r, seed);
                assert!(got[i] == want, "r={r} v={v}: wave {} != scalar {want}", got[i]);
            }
        }
    }

    #[test]
    fn oversized_wave_scratch_is_released() {
        let g = gen::copying_web(120, 4, 0.8, 9);
        let params = SimRankParams::default();
        let engine = WalkEngine::new(&g);
        let x = 1.0 - params.c;
        let mut wave = WaveEstimator::new();
        let small: Vec<VertexId> = vec![3, 7, 11, 19];
        let sseeds: Vec<u64> = small.iter().map(|&v| 100 + v as u64).collect();
        let mut first = Vec::new();
        wave.estimate_pairs_into(&engine, x, 5, &small, &params, 10, &sseeds, &mut first);
        let steady = wave.scratch_bytes();
        // One oversized wave (512 candidates × r = 300) blows the position
        // buffers far past the retain threshold...
        let big: Vec<VertexId> = (0..512).map(|i| (i % 120) as u32).collect();
        let bseeds: Vec<u64> = (0..512u64).map(|i| 7 * i + 1).collect();
        let mut out = Vec::new();
        wave.estimate_pairs_into(&engine, x, 5, &big, &params, 300, &bseeds, &mut out);
        let peak = wave.scratch_bytes();
        assert!(peak > steady.max(1) * 4, "oversized wave should grow scratch: {steady} -> {peak}");
        // ...and the next ordinary wave releases it (down to the retain
        // threshold) without changing any result.
        let mut again = Vec::new();
        wave.estimate_pairs_into(&engine, x, 5, &small, &params, 10, &sseeds, &mut again);
        assert_eq!(again, first, "shrink policy must not affect estimates");
        let settled = wave.scratch_bytes();
        assert!(settled < peak / 2, "scratch not released: peak {peak}, settled {settled}");
        let floor = 2 * POS_SCRATCH_RETAIN * std::mem::size_of::<VertexId>();
        assert!(settled <= floor + 64 * 1024, "settled {settled} above retain floor {floor}");
    }

    #[test]
    fn disconnected_pair_scores_zero() {
        let g = srs_graph::Graph::from_edges(4, vec![(0, 1), (2, 3)]).unwrap();
        let mut est = SinglePairEstimator::new(&g, Diagonal::paper_default(0.6));
        assert_eq!(est.estimate(1, 3, &SimRankParams::default(), 50, 3), 0.0);
    }

    #[test]
    fn estimates_bounded_below_by_zero() {
        let g = gen::preferential_attachment(60, 3, 4);
        let params = SimRankParams::default();
        let mut est = SinglePairEstimator::new(&g, Diagonal::paper_default(params.c));
        for s in 0..20 {
            let v = est.estimate(3, 7, &params, 20, s);
            assert!(v >= 0.0);
        }
    }
}

//! The L1 and L2 upper bounds on SimRank (Section 6 of the paper).
//!
//! Both bound `s(u,v) = Σ_t cᵗ (Pᵗe_u)ᵀ D (Pᵗe_v)` term by term:
//!
//! * **L1 bound** (Algorithm 2, [`AlphaBeta`]): by Hölder,
//!   `xᵀ D y ≤ max_{w∈supp(y)} xᵀ D e_w` for stochastic `y`. With
//!   `α(u,d,t) = max_{d(u,w)=d} (Pᵗe_u)ᵀ D e_w` and the triangle inequality
//!   confining `supp(Pᵗe_v)` to distances `[d−t, d+t]` from `u`, any vertex
//!   `v` at distance `d` satisfies `s(u,v) ≤ β(u,d) = Σ_t cᵗ
//!   max_{d−t≤d'≤d+t} α(u,d',t)` (Proposition 4). Effective for
//!   **low-degree** query vertices, whose `Pᵗe_u` stays sparse. Computed at
//!   query time for the query vertex only, and only when the query has
//!   enough candidates for the table's `r_bounds` walks to cost less than
//!   the estimates it could save (the gate in the `topk` scan; a skipped
//!   table is [`AlphaBeta::clear`]ed and reads +∞).
//!
//! * **L2 bound** (Algorithm 3, [`GammaTable`]): by Cauchy–Schwarz,
//!   `s(u,v) ≤ Σ_t cᵗ γ(u,t) γ(v,t)` with `γ(u,t) = ‖√D Pᵗe_u‖`
//!   (Proposition 6). The paper expects it to help **high-degree** query
//!   vertices, whose walk distribution spreads thin. But its `t = 0` term
//!   is `γ(u,0) γ(v,0) = √(D_u D_v)`, at least `1 − c` under the model's
//!   diagonal, so it never prunes at the served `θ`. Serving does not
//!   build it; the paper's experiments do (the ablation and Table 4),
//!   computing `γ` for *every* vertex — `O(n)` storage.
//!
//! Both estimators are Monte-Carlo; the γ estimator
//! `Σ_w D_ww (count_w/R)²` has *positive* bias
//! (`E[(count/R)²] = p² + p(1−p)/R`), which keeps the L2 bound conservative.
//! The α estimator is unbiased per entry, but the max over entries is again
//! positively biased — also conservative. The `topk` scan compares β with
//! θ as it is.

use crate::{Diagonal, SimRankParams};
use srs_graph::bfs::UNREACHED;
use srs_graph::{Graph, VertexId};
use srs_mc::multiset::PositionCounter;
use srs_mc::{Pcg32, WalkEngine, WalkPositions};

/// Precomputed `γ(u, t)` for all vertices (Algorithm 3 output), stored as
/// `f32` — `4 n T` bytes. Only the paper's experiments build it (see the
/// module docs for why serving does not).
#[derive(Debug, Clone, PartialEq)]
pub struct GammaTable {
    t: u32,
    /// Row-major: `gamma[u * t + step]`.
    gamma: Vec<f32>,
}

impl GammaTable {
    /// Runs Algorithm 3 for every vertex with `params.r_gamma` walks,
    /// splitting vertices across `threads` workers. Deterministic in
    /// `seed`: each vertex draws from its own `(seed, vertex)` stream, so
    /// the table does not depend on `threads`.
    pub fn build(g: &Graph, params: &SimRankParams, diag: &Diagonal, seed: u64, threads: usize) -> Self {
        params.validate();
        assert!(threads >= 1);
        let n = g.num_vertices() as usize;
        let t = params.t as usize;
        let mut gamma = vec![0.0f32; n * t];
        let per = n.div_ceil(threads).max(1);
        crossbeam::thread::scope(|scope| {
            for (k, chunk) in gamma.chunks_mut(per * t).enumerate() {
                scope.spawn(move |_| {
                    let engine = WalkEngine::new(g);
                    let r = params.r_gamma as usize;
                    let mut pos: Vec<VertexId> = Vec::with_capacity(r);
                    let mut counter = PositionCounter::new();
                    let verts = chunk.len() / t;
                    for i in 0..verts {
                        let u = (k * per + i) as VertexId;
                        let mut rng = Pcg32::from_parts(&[seed, 0xAA, u as u64]);
                        pos.clear();
                        pos.resize(r, u);
                        for step in 0..t {
                            if step > 0 {
                                engine.step_frontier_count(&mut pos, &mut rng, &mut counter);
                            } else {
                                counter.fill(&pos);
                            }
                            let mu: f64 = counter
                                .iter()
                                .map(|(w, c)| diag.weight(w) * (c as f64 / r as f64).powi(2))
                                .sum();
                            chunk[i * t + step] = mu.sqrt() as f32;
                            if pos.is_empty() {
                                // Every walk died: all later γ(u, ·) are
                                // exactly 0, which the rows already hold.
                                break;
                            }
                        }
                    }
                });
            }
        })
        .expect("worker thread panicked");
        GammaTable { t: params.t, gamma }
    }

    /// `γ(u, t)`.
    #[inline]
    pub fn gamma(&self, u: VertexId, step: u32) -> f64 {
        self.gamma[u as usize * self.t as usize + step as usize] as f64
    }

    /// The L2 bound `Σ_t cᵗ γ(u,t) γ(v,t)` (Proposition 6).
    pub fn l2_bound(&self, u: VertexId, v: VertexId, c: f64) -> f64 {
        let tu = u as usize * self.t as usize;
        let tv = v as usize * self.t as usize;
        let mut acc = 0.0;
        let mut ct = 1.0;
        for step in 0..self.t as usize {
            acc += ct * self.gamma[tu + step] as f64 * self.gamma[tv + step] as f64;
            ct *= c;
        }
        acc
    }

    /// Number of steps stored per vertex.
    pub fn steps(&self) -> u32 {
        self.t
    }

    /// Number of vertices covered.
    pub fn num_vertices(&self) -> usize {
        self.gamma.len() / self.t as usize
    }

    /// Bytes of the table (Table 4 index-size accounting).
    pub fn memory_bytes(&self) -> u64 {
        (self.gamma.len() * 4) as u64
    }
}

/// Query-time α/β tables for one query vertex (Algorithm 2 output).
///
/// The table is **horizon-limited**: it is built from a BFS ball that is
/// complete only through depth `horizon − 1` (the query BFS stops once
/// every candidate has a distance), and it answers `β(u, d)` exactly for
/// every `d ≤ horizon`:
///
/// * steps `t < horizon` keep the per-distance rows `α(u, d', t)` — a
///   `t`-step reverse walk stays within distance `t` of `u`, so every
///   position lies inside the complete ball and has its exact distance;
/// * steps `t ≥ horizon` keep one distance-free maximum over all
///   positions. For any `d ≤ horizon ≤ t` the β window `[d−t, d+t]`
///   starts at 0 and reaches past every position's distance, so the
///   windowed maximum *is* the distance-free maximum (`max` is exact on
///   `f64`, so β matches the full table bit for bit).
///
/// Positions farther than `d_max` are excluded, as in the full table;
/// at steps `t ≤ d_max` none exist, and beyond that the caller's ball
/// must be complete through `d_max` (see [`AlphaBeta::compute_into`]).
#[derive(Debug, Clone)]
pub struct AlphaBeta {
    /// Rows `t < horizon` hold per-distance values.
    horizon: u32,
    /// `near[t * horizon + d]` = `α(u, d, t)` for `t < min(horizon, T)`,
    /// `d < horizon` (zero for `d > t`: no walk gets that far).
    near: Vec<f64>,
    /// `far[t − horizon]` = `max_{d ≤ d_max} α(u, d, t)` for
    /// `horizon ≤ t < T`.
    far: Vec<f64>,
    /// `beta[d]` = `β(u, d)` (equation (18)) for `d ≤ min(horizon, d_max)`.
    beta: Vec<f64>,
}

impl AlphaBeta {
    /// An empty table (no allocation); fill it with
    /// [`AlphaBeta::compute_into`]. Until then `beta` returns +∞
    /// everywhere, i.e. the table is uninformative, never unsound.
    pub fn new_empty() -> Self {
        AlphaBeta { horizon: 0, near: Vec::new(), far: Vec::new(), beta: Vec::new() }
    }

    /// Empties the table in place, keeping its storage: afterwards it
    /// reads exactly like [`AlphaBeta::new_empty`] (`beta` is +∞
    /// everywhere). A query that skips Algorithm 2 clears the table, so
    /// no candidate is ever bounded by an earlier query's β.
    pub fn clear(&mut self) {
        self.horizon = 0;
        self.near.clear();
        self.far.clear();
        self.beta.clear();
    }

    /// Runs Algorithm 2 for query vertex `u` with `params.r_bounds` walks
    /// over the full `d_max` horizon. `dist(w)` must give the undirected
    /// BFS distance from `u` for every vertex within `d_max` (and
    /// [`UNREACHED`] or anything larger beyond it).
    pub fn compute(
        g: &Graph,
        u: VertexId,
        params: &SimRankParams,
        diag: &Diagonal,
        dist: impl Fn(VertexId) -> u32,
        seed: u64,
    ) -> Self {
        let mut ab = Self::new_empty();
        ab.compute_into(
            g,
            u,
            params,
            diag,
            dist,
            params.d_max.saturating_add(1),
            seed,
            &mut WalkPositions::new(),
            &mut Vec::new(),
        );
        ab
    }

    /// [`AlphaBeta::compute`] limited to `horizon`, into existing
    /// storage: `self`'s tables and the caller's walk buffer are reused,
    /// so a warm query worker recomputes the L1 bound without allocating.
    /// `counts` is a dense per-vertex count array; it is grown to `n`
    /// zeros on first use and handed back all-zero.
    ///
    /// `dist(w)` must be exact for every `w` within distance
    /// `horizon − 1` of `u` (a BFS ball complete through `horizon − 1`);
    /// other vertices may read anything. If `T − 1 > d_max`, the ball
    /// must also be complete through `d_max`, so that positions beyond
    /// `d_max` can be told apart and excluded. Then `beta(d)` is
    /// bit-identical to [`AlphaBeta::compute`]'s for every
    /// `d ≤ horizon`, and +∞ beyond.
    #[allow(clippy::too_many_arguments)]
    pub fn compute_into(
        &mut self,
        g: &Graph,
        u: VertexId,
        params: &SimRankParams,
        diag: &Diagonal,
        dist: impl Fn(VertexId) -> u32,
        horizon: u32,
        seed: u64,
        walks: &mut WalkPositions,
        counts: &mut Vec<u32>,
    ) {
        params.validate();
        let t_steps = params.t as usize;
        let d_max = params.d_max as usize;
        let horizon = horizon.min(params.d_max.saturating_add(1)).max(1);
        let h = horizon as usize;
        let near_steps = h.min(t_steps);
        self.horizon = horizon;
        self.near.clear();
        self.near.resize(near_steps * h, 0.0);
        self.far.clear();
        self.far.resize(t_steps - near_steps, 0.0);
        let engine = WalkEngine::new(g);
        let r = params.r_bounds as usize;
        let mut rng = Pcg32::from_parts(&[seed, 0xB0, u as u64]);
        walks.reset(u, r);
        if counts.len() < g.num_vertices() as usize {
            counts.resize(g.num_vertices() as usize, 0);
        }
        for t in 0..t_steps {
            let (near, far) = (&mut self.near, &mut self.far);
            let mut record = |w: VertexId, cnt: u32| {
                let a = diag.weight(w) * cnt as f64 / r as f64;
                if t < near_steps {
                    let d = dist(w) as usize;
                    debug_assert!(d <= t, "walk position outside the complete ball");
                    let slot = &mut near[t * h + d];
                    if a > *slot {
                        *slot = a;
                    }
                } else {
                    // Only positions beyond d_max are excluded, and none
                    // exist before step d_max + 1.
                    if t > d_max {
                        let d = dist(w);
                        if d == UNREACHED || d as usize > d_max {
                            return;
                        }
                    }
                    let slot = &mut far[t - near_steps];
                    if a > *slot {
                        *slot = a;
                    }
                }
            };
            if t == 0 {
                // Every walk starts at u: one count of r, no counting pass.
                if r > 0 {
                    record(u, r as u32);
                }
            } else {
                walks.step(&engine, &mut rng);
                for_each_count(walks.positions(), counts, record);
            }
            if walks.is_empty() {
                // All walks dead: every remaining α estimate is 0 (the
                // freshly-zeroed table rows), so the scan can stop.
                break;
            }
        }
        // β(u,d) = Σ_t cᵗ · max_{max(0,d−t) ≤ d' ≤ min(d_max, d+t)} α(d', t),
        // for d ≤ min(horizon, d_max). Near rows are zero past d' = t (and
        // t ≤ d_max there), so the window stops at t; far rows are the
        // whole window (d ≤ t).
        self.beta.clear();
        self.beta.resize(h.min(d_max) + 1, 0.0);
        for (d, slot) in self.beta.iter_mut().enumerate() {
            let mut acc = 0.0;
            let mut ct = 1.0;
            for t in 0..t_steps {
                let best = if t < near_steps {
                    let mut best = 0.0f64;
                    for dp in d.saturating_sub(t)..=t {
                        best = best.max(self.near[t * h + dp]);
                    }
                    best
                } else {
                    self.far[t - near_steps]
                };
                acc += ct * best;
                ct *= params.c;
            }
            *slot = acc;
        }
    }

    /// `β(u, d)` — the L1 bound for any `v` at distance `d` from `u`
    /// (Proposition 4). Beyond the horizon (or `d_max`) the table carries
    /// no information, so the bound degrades to +∞ (callers fall back to
    /// the other bounds); returning anything finite there would be
    /// unsound.
    #[inline]
    pub fn beta(&self, d: u32) -> f64 {
        if d as usize >= self.beta.len() {
            f64::INFINITY
        } else {
            self.beta[d as usize]
        }
    }

    /// The per-distance estimate `α(u, d, t)`, for the rows the table
    /// holds: `t < min(horizon, T)` and `d < horizon`. `None` for any
    /// other `(d, t)` — an empty table, or a step `t ≥ horizon`, where
    /// only the distance-free maximum is kept.
    pub fn alpha(&self, d: u32, t: u32) -> Option<f64> {
        let h = self.horizon as usize;
        let (d, t) = (d as usize, t as usize);
        if d < h && t * h < self.near.len() {
            Some(self.near[t * h + d])
        } else {
            None
        }
    }

    /// The horizon the table was computed for: `β(u, d)` is informative
    /// for `d ≤ horizon` (and `d ≤ d_max`). 0 for an empty table.
    pub fn horizon(&self) -> u32 {
        self.horizon
    }
}

/// Calls `f(w, count)` once per distinct vertex of `positions`, where
/// `count` is how many entries sit at `w`. `counts` must be all-zero over
/// the vertex range and is left all-zero: the positions are counted into
/// it, then re-walked, and each vertex is reported and reset at its first
/// occurrence. The report order is first-occurrence order; the L1 table
/// only takes maxima over it, which do not depend on order.
#[inline]
fn for_each_count(positions: &[VertexId], counts: &mut [u32], mut f: impl FnMut(VertexId, u32)) {
    for &w in positions {
        counts[w as usize] += 1;
    }
    for &w in positions {
        let c = std::mem::take(&mut counts[w as usize]);
        if c != 0 {
            f(w, c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srs_exact::{diagonal, linearized, ExactParams};
    use srs_graph::bfs::{BfsBuffers, Direction};
    use srs_graph::gen::{self, fixtures};
    use srs_mc::walker::reference;

    fn exact_scores(g: &Graph, u: VertexId, params: &SimRankParams) -> Vec<f64> {
        let ep = ExactParams::new(params.c, params.t);
        let d = diagonal::uniform(g.num_vertices() as usize, params.c);
        linearized::single_source(g, u, &ep, &d)
    }

    fn undirected_dist(g: &Graph, u: VertexId, depth: u32) -> BfsBuffers {
        let mut b = BfsBuffers::new(g.num_vertices());
        b.run(g, u, Direction::Undirected, depth);
        b
    }

    #[test]
    fn gamma_t0_is_sqrt_diag() {
        let g = fixtures::claw();
        let params = SimRankParams { r_gamma: 50, ..Default::default() };
        let gt = GammaTable::build(&g, &params, &Diagonal::paper_default(params.c), 1, 2);
        for u in 0..4 {
            assert!((gt.gamma(u, 0) - (0.4f64).sqrt()).abs() < 1e-6);
        }
        assert_eq!(gt.num_vertices(), 4);
        assert_eq!(gt.steps(), 11);
    }

    #[test]
    fn gamma_deterministic_and_parallel_consistent() {
        let g = gen::erdos_renyi(60, 240, 5);
        let params = SimRankParams { r_gamma: 40, ..Default::default() };
        let d = Diagonal::paper_default(params.c);
        let a = GammaTable::build(&g, &params, &d, 9, 1);
        let b = GammaTable::build(&g, &params, &d, 9, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn l2_bound_dominates_exact_scores() {
        let g = gen::copying_web(80, 4, 0.8, 3);
        let params = SimRankParams { r_gamma: 400, ..Default::default() };
        let diag = Diagonal::paper_default(params.c);
        let gt = GammaTable::build(&g, &params, &diag, 2, 2);
        let slack = 0.05; // Monte-Carlo noise allowance
        for u in [0u32, 10, 40] {
            let exact = exact_scores(&g, u, &params);
            for v in 0..80u32 {
                if v == u {
                    continue;
                }
                let bound = gt.l2_bound(u, v, params.c);
                assert!(
                    bound + slack >= exact[v as usize],
                    "u={u} v={v}: bound {bound} < exact {}",
                    exact[v as usize]
                );
            }
        }
    }

    #[test]
    fn l1_beta_dominates_exact_scores() {
        let g = gen::preferential_attachment(70, 3, 11);
        let params = SimRankParams { r_bounds: 20_000, ..Default::default() };
        let diag = Diagonal::paper_default(params.c);
        let slack = 0.03;
        for u in [1u32, 5, 33] {
            let bfs = undirected_dist(&g, u, params.d_max);
            let ab = AlphaBeta::compute(&g, u, &params, &diag, |w| bfs.distance(w), 4);
            let exact = exact_scores(&g, u, &params);
            for v in 0..70u32 {
                if v == u {
                    continue;
                }
                let d = bfs.distance(v);
                if d == UNREACHED {
                    continue;
                }
                assert!(
                    ab.beta(d) + slack >= exact[v as usize],
                    "u={u} v={v} d={d}: beta {} < exact {}",
                    ab.beta(d),
                    exact[v as usize]
                );
            }
        }
    }

    #[test]
    fn beta_uninformative_beyond_dmax() {
        let g = fixtures::path(5);
        let params = SimRankParams { r_bounds: 100, ..Default::default() };
        let bfs = undirected_dist(&g, 0, params.d_max);
        let ab =
            AlphaBeta::compute(&g, 0, &params, &Diagonal::paper_default(params.c), |w| bfs.distance(w), 1);
        assert_eq!(ab.beta(params.d_max + 5), f64::INFINITY);
        assert_eq!(ab.horizon(), params.d_max + 1);
    }

    /// The dense Algorithm 2 table over every distance `0..=d_max` and
    /// every step, from a complete `d_max` ball — the reference the
    /// horizon-limited table must reproduce bit for bit. Its walks are
    /// stepped by the scalar reference kernel (fixed slots, dead walks
    /// stay [`srs_mc::DEAD`]), which draws the same stream as the frontier
    /// kernel, and counted with a hash counter — so the comparison does not
    /// depend on the frontier kernel or the dense count under test.
    fn full_table_beta(
        g: &Graph,
        u: VertexId,
        params: &SimRankParams,
        diag: &Diagonal,
        dist: impl Fn(VertexId) -> u32,
        seed: u64,
    ) -> Vec<f64> {
        let (t_steps, d_max) = (params.t as usize, params.d_max as usize);
        let mut alpha = vec![0.0f64; (d_max + 1) * t_steps];
        let r = params.r_bounds as usize;
        let mut rng = Pcg32::from_parts(&[seed, 0xB0, u as u64]);
        let (mut slots, mut counter) = (vec![u; r], PositionCounter::new());
        for t in 0..t_steps {
            if t > 0 {
                reference::step_all(g, &mut slots, &mut rng);
            }
            counter.fill(&slots);
            for (w, cnt) in counter.iter() {
                let d = dist(w);
                if d == UNREACHED || d as usize > d_max {
                    continue;
                }
                let slot = &mut alpha[d as usize * t_steps + t];
                *slot = slot.max(diag.weight(w) * cnt as f64 / r as f64);
            }
            if counter.distinct() == 0 {
                break;
            }
        }
        (0..=d_max)
            .map(|d| {
                let (mut acc, mut ct) = (0.0, 1.0);
                for t in 0..t_steps {
                    let mut best = 0.0f64;
                    for dp in d.saturating_sub(t)..=(d + t).min(d_max) {
                        best = best.max(alpha[dp * t_steps + t]);
                    }
                    acc += ct * best;
                    ct *= params.c;
                }
                acc
            })
            .collect()
    }

    #[test]
    fn horizon_limited_beta_matches_full_table_bit_for_bit() {
        let graphs = [
            gen::preferential_attachment_windowed(300, 3, 40, 5),
            gen::copying_web(300, 3, 0.8, 6),
            gen::erdos_renyi(150, 200, 7), // several components
        ];
        let param_sets = [
            SimRankParams { r_bounds: 200, ..Default::default() },
            // T − 1 > d_max: positions beyond d_max stay excluded.
            SimRankParams { r_bounds: 200, t: 9, d_max: 3, ..Default::default() },
            SimRankParams { r_bounds: 200, t: 4, d_max: 6, ..Default::default() },
            // The served default: 10,000 walks, from hubs only (below).
            SimRankParams { r_bounds: 10_000, ..Default::default() },
        ];
        let mut walks = WalkPositions::new();
        let mut counts = Vec::new();
        let mut ab = AlphaBeta::new_empty();
        let mut checked = 0;
        for (gi, g) in graphs.iter().enumerate() {
            let n = g.num_vertices();
            let per_vertex: Vec<f64> = (0..n).map(|v| 0.3 + 0.1 * (v % 5) as f64).collect();
            let diags = [Diagonal::paper_default(0.6), Diagonal::PerVertex(std::sync::Arc::new(per_vertex))];
            let mut partial = BfsBuffers::new(n);
            let mut hubs: Vec<VertexId> = (0..n).collect();
            hubs.sort_by_key(|&v| std::cmp::Reverse(g.in_degree(v) + g.out_degree(v)));
            hubs.truncate(3);
            for params in &param_sets {
                let sources =
                    if params.r_bounds >= 10_000 { hubs.clone() } else { vec![0u32, 17, 101, n - 1] };
                for diag in &diags {
                    for &u in &sources {
                        let full = undirected_dist(g, u, params.d_max);
                        let reference = full_table_beta(g, u, params, diag, |w| full.distance(w), 9);
                        // Every min_depth the query BFS may stop at, with
                        // and without targets placed one level past it.
                        for min_depth in 0..=params.d_max {
                            let min_depth =
                                if params.t > params.d_max + 1 { params.d_max } else { min_depth };
                            let targets: Vec<VertexId> =
                                (0..n).filter(|&v| full.distance(v) == min_depth + 1).take(3).collect();
                            let h = partial.run_targeted(
                                g,
                                u,
                                Direction::Undirected,
                                params.d_max,
                                min_depth,
                                &targets,
                            );
                            ab.compute_into(
                                g,
                                u,
                                params,
                                diag,
                                |w| partial.distance(w),
                                h + 1,
                                9,
                                &mut walks,
                                &mut counts,
                            );
                            assert_eq!(ab.horizon(), (h + 1).min(params.d_max + 1));
                            for d in 0..=(h + 1).min(params.d_max) {
                                assert_eq!(
                                    ab.beta(d).to_bits(),
                                    reference[d as usize].to_bits(),
                                    "graph {gi} u {u} t {} d_max {} h {h} d {d}",
                                    params.t,
                                    params.d_max
                                );
                                checked += 1;
                            }
                            assert_eq!(ab.beta(h + 2), f64::INFINITY, "beyond the horizon");
                        }
                    }
                }
            }
        }
        assert!(checked > 500, "{checked}");
    }

    #[test]
    fn alpha_holds_only_the_per_distance_rows() {
        let empty = AlphaBeta::new_empty();
        assert_eq!(empty.alpha(0, 0), None);
        assert_eq!(empty.horizon(), 0);
        assert_eq!(empty.beta(0), f64::INFINITY);

        let g = fixtures::path(6);
        let params = SimRankParams { r_bounds: 50, ..Default::default() };
        let diag = Diagonal::paper_default(params.c);
        let bfs = undirected_dist(&g, 0, params.d_max);
        let mut ab = AlphaBeta::new_empty();
        let (mut walks, mut counts) = (WalkPositions::new(), Vec::new());
        ab.compute_into(&g, 0, &params, &diag, |w| bfs.distance(w), 3, 1, &mut walks, &mut counts);
        assert_eq!(ab.horizon(), 3);
        assert!((ab.alpha(0, 0).unwrap() - 0.4).abs() < 1e-12);
        assert_eq!(ab.alpha(2, 0), Some(0.0), "no walk is 2 hops out at step 0");
        assert_eq!(ab.alpha(3, 0), None, "distance past the held rows");
        assert_eq!(ab.alpha(0, 3), None, "step at the horizon keeps no per-distance row");
        assert_eq!(ab.beta(4), f64::INFINITY);

        // A cleared table is uninformative again but keeps its storage.
        let capacity = ab.beta.capacity();
        ab.clear();
        assert_eq!((ab.horizon(), ab.alpha(0, 0)), (0, None));
        assert!((0..=params.d_max + 1).all(|d| ab.beta(d) == f64::INFINITY));
        assert_eq!(ab.beta.capacity(), capacity);
    }

    #[test]
    fn alpha_at_origin() {
        // α(u, 0, 0) = D_uu (the walk starts at u with probability 1).
        let g = fixtures::claw();
        let params = SimRankParams { r_bounds: 100, ..Default::default() };
        let bfs = undirected_dist(&g, 0, params.d_max);
        let ab =
            AlphaBeta::compute(&g, 0, &params, &Diagonal::paper_default(params.c), |w| bfs.distance(w), 1);
        assert!((ab.alpha(0, 0).unwrap() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn l2_symmetric_in_uv() {
        let g = gen::erdos_renyi(40, 160, 8);
        let params = SimRankParams { r_gamma: 60, ..Default::default() };
        let gt = GammaTable::build(&g, &params, &Diagonal::paper_default(params.c), 3, 2);
        assert_eq!(gt.l2_bound(3, 17, params.c), gt.l2_bound(17, 3, params.c));
    }

    #[test]
    fn memory_accounting() {
        let g = gen::erdos_renyi(100, 300, 1);
        let params = SimRankParams { r_gamma: 10, ..Default::default() };
        let gt = GammaTable::build(&g, &params, &Diagonal::paper_default(params.c), 1, 2);
        assert_eq!(gt.memory_bytes(), 100 * 11 * 4);
    }
}

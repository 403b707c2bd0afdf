//! The exact **structural-zero screen** of the candidate scan.
//!
//! Algorithm 1 estimates `s(u, v)` from the co-locations of `u`'s and
//! `v`'s reverse walks at each step `1 ≤ t < T` (step 0 contributes only
//! when `u == v`). A walk from `u` at step `t` can only sit in the reverse
//! layer `L_t(u)`, the vertices `t` in-edge hops from `u`. If
//! `L_t(u) ∩ L_t(v) = ∅` for every such `t`, no RNG stream can co-locate
//! the two walk sets, so every per-step count is 0 and every term
//! `ct · (x · 0) / r²` is `+0.0`. The estimate is then exactly `+0.0` for
//! every seed, walk count and finite diagonal. The linearized score is
//! exactly 0 too, and a shared layer vertex makes it positive, so the
//! screen is exact, not a bound.
//! The scan uses `0.0` for such a pair instead of walking it.
//!
//! [`ZeroScreen::is_zero`] decides one candidate `v` of one query vertex
//! `u`:
//!
//! * **u side.** `u`'s layers are built lazily and kept for the whole
//!   scan, layer `t` as bit `t` of a dense per-vertex `u32` mask. The mask
//!   is the scan's L1 count array (all-zero between uses) and is handed
//!   back all-zero through a touched list. Layers at `t ≥ 32` have no bit
//!   and count as unknown.
//! * **v side.** `v`'s layers are expanded without dedup, at most
//!   `2 · R_coarse` in-list entries per candidate (checked before each
//!   list). A hit on `u`'s layer of the same step means the pair may meet.
//!   So do an exhausted budget and an unknown layer. An empty layer on
//!   either side means zero.
//! * **Self-funding credit.** Each checked candidate earns
//!   `2 · R_coarse · (T − 1)` edge scans of credit, the most walk work its
//!   coarse estimate could take. `u`'s next layer is built only when its
//!   exact cost, `Σ in_degree` over the previous layer, fits the credit
//!   earned so far. Per candidate the screen thus scans at most the walk
//!   steps its coarse estimate could take, plus its own `2 · R_coarse`
//!   budget, and it needs no tuning knob.
//!
//! Both sides decode adjacency through the walk kernels' own descriptor
//! decode ([`Graph::reverse_step_parts`] + [`Graph::in_source_at`]), not
//! [`Graph::in_neighbors`]. "Every walk position lies in a screened
//! layer" thus holds by construction, even for a forged but safe mmap
//! descriptor.

use crate::SimRankParams;
use srs_graph::{Graph, VertexId};

/// Mask bits per vertex: layers at or past this step are never built.
const MASK_BITS: u32 = u32::BITS;

/// Per-scan screen state for one query vertex (see the module docs).
#[derive(Default)]
pub(crate) struct ZeroScreen {
    /// Bit `t` of `mask[w]` is set iff `w ∈ L_t(u)`, for the built layers.
    mask: Vec<u32>,
    /// Vertices with a non-zero mask word, for the reset.
    touched: Vec<VertexId>,
    /// The last built layer of `u`: its step and its vertices.
    layer: u32,
    front: Vec<VertexId>,
    /// Exact edge-scan cost of building layer `layer + 1`, once summed.
    next_cost: Option<u64>,
    /// First step whose layer of `u` is empty (`u32::MAX` while none is
    /// known); every later layer is empty too.
    empty_from: u32,
    credit: u64,
    /// Credit each checked candidate earns.
    earn: u64,
    /// In-list entries a candidate's own expansion may scan.
    budget: usize,
    t_steps: u32,
    /// Layer buffers: `u`'s next layer, `v`'s current and next layer.
    grow: Vec<VertexId>,
    cur: Vec<VertexId>,
    next: Vec<VertexId>,
}

impl ZeroScreen {
    /// Starts screening candidates of `u`, taking over `mask` (all-zero;
    /// grown to `n` here) until [`ZeroScreen::end`] hands it back.
    pub(crate) fn begin(&mut self, g: &Graph, u: VertexId, params: &SimRankParams, mask: Vec<u32>) {
        // A scan that unwound never reached `end`: its mask is dropped here,
        // and its touched list with it.
        self.touched.clear();
        self.mask = mask;
        let n = g.num_vertices() as usize;
        if self.mask.len() < n {
            self.mask.resize(n, 0);
        }
        self.layer = 0;
        self.front.clear();
        self.front.push(u);
        self.next_cost = None;
        self.empty_from = u32::MAX;
        self.credit = 0;
        let r = params.r_coarse as u64;
        self.earn = 2 * r * u64::from(params.t.saturating_sub(1));
        self.budget = 2 * r as usize;
        self.t_steps = params.t;
    }

    /// Clears the mask and returns it all-zero.
    pub(crate) fn end(&mut self) -> Vec<u32> {
        for w in self.touched.drain(..) {
            self.mask[w as usize] = 0;
        }
        std::mem::take(&mut self.mask)
    }

    /// `true` when no step `1 ≤ t < T` has a vertex in both `L_t(u)` and
    /// `L_t(v)`: every estimate of the pair is then exactly `+0.0`.
    /// `false` when the layers share one, or when the candidate's budget,
    /// the credit or the mask runs out first. `v` must differ from `u`.
    pub(crate) fn is_zero(&mut self, g: &Graph, v: VertexId) -> bool {
        self.credit = self.credit.saturating_add(self.earn);
        let mut budget = self.budget;
        self.cur.clear();
        self.cur.push(v);
        for t in 1..self.t_steps {
            if t >= MASK_BITS {
                return false;
            }
            self.next.clear();
            for &w in &self.cur {
                let (len, payload) = g.reverse_step_parts(w);
                let len = len as usize;
                if len > budget {
                    return false;
                }
                budget -= len;
                match len {
                    0 => {}
                    1 => self.next.push(payload as VertexId),
                    _ => self.next.extend((0..len as u64).map(|i| g.in_source_at(payload + i))),
                }
            }
            if self.next.is_empty() {
                return true;
            }
            if !self.build_through(g, t) {
                return false;
            }
            if t >= self.empty_from {
                return true;
            }
            let bit = 1u32 << t;
            if self.next.iter().any(|&x| self.mask[x as usize] & bit != 0) {
                return false;
            }
            std::mem::swap(&mut self.cur, &mut self.next);
        }
        true
    }

    /// Builds `u`'s layers through step `t` (or until one is empty), as far
    /// as the credit pays for; `false` when it does not reach `t`.
    fn build_through(&mut self, g: &Graph, t: u32) -> bool {
        while self.layer < t && self.empty_from == u32::MAX {
            let front = &self.front;
            let cost = *self
                .next_cost
                .get_or_insert_with(|| front.iter().map(|&w| u64::from(g.reverse_step_parts(w).0)).sum());
            if cost > self.credit {
                return false;
            }
            self.credit -= cost;
            self.next_cost = None;
            self.layer += 1;
            let bit = 1u32 << self.layer;
            self.grow.clear();
            for &w in &self.front {
                let (len, payload) = g.reverse_step_parts(w);
                for i in 0..u64::from(len) {
                    let x = if len == 1 { payload as VertexId } else { g.in_source_at(payload + i) };
                    let m = &mut self.mask[x as usize];
                    if *m & bit == 0 {
                        if *m == 0 {
                            self.touched.push(x);
                        }
                        *m |= bit;
                        self.grow.push(x);
                    }
                }
            }
            std::mem::swap(&mut self.front, &mut self.grow);
            if self.front.is_empty() {
                self.empty_from = self.layer;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single_pair::EstimatorBuffers;
    use crate::Diagonal;
    use srs_exact::{diagonal, linearized, ExactParams};
    use srs_graph::gen::{self, fixtures};
    use srs_mc::WalkEngine;

    /// Checks every ordered pair `u ≠ v` of `g`. A zero verdict must mean
    /// an exact linearized 0.0 and a `+0.0` estimate at every seed and
    /// walk count; with `complete` layers (unbounded credit and budget) a
    /// non-zero verdict must mean a positive linearized score. Returns
    /// the (zero, non-zero) verdict counts.
    fn check_pairs(g: &Graph, params: &SimRankParams, credit: Option<u64>, complete: bool) -> (usize, usize) {
        let n = g.num_vertices();
        let ep = ExactParams::new(params.c, params.t);
        let d = diagonal::uniform(n as usize, params.c);
        let diag = Diagonal::paper_default(params.c);
        let engine = WalkEngine::new(g);
        let mut est = EstimatorBuffers::new();
        let mut screen = ZeroScreen::default();
        let mut mask = Vec::new();
        let (mut zeros, mut others) = (0, 0);
        for u in 0..n {
            let exact = linearized::single_source(g, u, &ep, &d);
            screen.begin(g, u, params, mask);
            if let Some(c) = credit {
                screen.earn = c;
            }
            if complete {
                screen.budget = usize::MAX;
            }
            for v in (0..n).filter(|&v| v != u) {
                let s = exact[v as usize];
                if screen.is_zero(g, v) {
                    zeros += 1;
                    assert_eq!(s, 0.0, "u={u} v={v}: screened zero, linearized {s}");
                    for r in [10, 100, 1000] {
                        for seed in [1, 2, 3] {
                            let e = est.estimate(&engine, &diag, u, v, params, r, seed);
                            assert_eq!(e.to_bits(), 0, "u={u} v={v} r={r} seed={seed}: estimate {e}");
                        }
                    }
                } else {
                    others += 1;
                    assert!(!complete || s > 0.0, "u={u} v={v}: complete layers missed a zero");
                }
            }
            mask = screen.end();
            assert!(mask.iter().all(|&m| m == 0), "u={u}: mask not handed back all-zero");
        }
        (zeros, others)
    }

    fn cyclic() -> Graph {
        // Two cycles (one through a self-loop), a vertex feeding both, a
        // chain into the first cycle, and an isolated vertex.
        let edges = vec![
            (0, 1),
            (1, 2),
            (2, 0),
            (3, 3),
            (3, 4),
            (4, 5),
            (5, 3),
            (6, 0),
            (6, 4),
            (7, 8),
            (8, 1),
            (2, 2),
        ];
        Graph::from_edges(10, edges).unwrap()
    }

    #[test]
    fn zero_verdicts_are_exact_zeros_and_complete_layers_decide_every_pair() {
        let params = SimRankParams::default();
        let graphs = [
            gen::erdos_renyi(40, 90, 5),
            gen::copying_web(60, 3, 0.8, 7),
            gen::preferential_attachment_windowed(50, 2, 10, 3),
            cyclic(),
            Graph::from_edges(8, Vec::new()).unwrap(),
            fixtures::claw(),
        ];
        let (mut zeros, mut meets) = (0, 0);
        for g in &graphs {
            let (z, m) = check_pairs(g, &params, Some(u64::MAX / 4), true);
            zeros += z;
            meets += m;
            // The scan's own budget and credit stay sound.
            check_pairs(g, &params, None, false);
        }
        assert!(zeros > 1000 && meets > 1000, "fixtures too one-sided: {zeros} zero, {meets} meet");
    }

    #[test]
    fn starved_credit_never_yields_a_wrong_zero() {
        let params = SimRankParams::default();
        for g in [gen::copying_web(60, 3, 0.8, 7), cyclic()] {
            let (zeros, _) = check_pairs(&g, &params, Some(0), false);
            // With no credit, only an in-degree-0 side decides a pair: v's
            // own first layer, or u's free empty one once v's first layer
            // fits v's budget.
            let deg = |v: VertexId| g.in_degree(v) as usize;
            let n = g.num_vertices();
            let budget = 2 * params.r_coarse as usize;
            let want: usize = (0..n)
                .map(|u| {
                    (0..n).filter(|&v| v != u && (deg(v) == 0 || (deg(u) == 0 && deg(v) <= budget))).count()
                })
                .sum();
            assert_eq!(zeros, want);
        }
    }

    #[test]
    fn steps_past_the_mask_are_never_zero() {
        // u = 0 and v = 41 head two reverse chains (i + 1 → i) whose 36th
        // hops both land on vertex 200, so their layers first meet at
        // step 36. The chain from 100 never meets u's.
        let mut edges = vec![(200, 35), (200, 41 + 35)];
        for i in 0..40u32 {
            edges.push((100 + i + 1, 100 + i));
            if i < 35 {
                edges.push((i + 1, i));
                edges.push((41 + i + 1, 41 + i));
            }
        }
        let g = Graph::from_edges(201, edges).unwrap();
        let mut screen = ZeroScreen::default();
        for (t, want) in [(30, true), (37, false)] {
            let params = SimRankParams { t, ..Default::default() };
            screen.begin(&g, 0, &params, Vec::new());
            screen.earn = u64::MAX / 4;
            screen.budget = usize::MAX;
            // Past step 31 the screen cannot tell a meeting (41) from
            // none (100), so neither may be screened.
            assert_eq!(screen.is_zero(&g, 41), want, "T={t}");
            assert_eq!(screen.is_zero(&g, 100), want, "T={t}");
            screen.end();
        }
    }
}

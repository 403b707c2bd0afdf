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
//! `w ∈ L_t(v)` holds exactly when `v` is `t` out-edge hops from `w`, so
//! the candidates that can meet `u` form `u`'s **meet set**
//! `M(u) = ⋃_{1 ≤ t < T} Out^t(L_t(u))` — the forward probe of ProbeSim
//! (Liu et al.), used here as an exact screen. [`ZeroScreen::begin`]
//! tries to build it once per query; [`ZeroScreen::is_zero`] then decides
//! a candidate with one bit test. The build also lists `M(u)`
//! ([`ZeroScreen::meet_members`]), so the scan can decide every candidate
//! outside it in bulk and list only the ones inside: a ball of thousands
//! of candidates shrinks to the few hundred `M(u)` holds. When the build
//! would cost too much, the screen falls back to deciding each candidate
//! from its own layers, in scan order.
//!
//! * **u side.** `u`'s layers are built (deduplicated) and kept for the
//!   whole scan, layer `t` as bit `t` of a dense per-vertex `u32` mask.
//!   The mask is the scan's L1 count array (all-zero between uses) and is
//!   handed back all-zero through a touched list. Layers at `t ≥ 32` have
//!   no bit and count as unknown.
//! * **Meet set.** With `T ≤ 32`, `begin` builds all of `u`'s layers, then
//!   walks them forward with one deduplicated set per level:
//!   `R_k = L_k(u) ∪ Out(R_{k+1})` from the deepest non-empty layer down
//!   to `k = 1`, and `M(u) = Out(R_1)`, marked as bit 0 of the mask (no
//!   layer uses it). `L_k(u)` is read back from the mask through the
//!   touched list, so no layer is stored twice. Each level's exact cost,
//!   `Σ in_degree` or `Σ out_degree` over the level it expands, is
//!   checked before it is expanded, and so is a floor on the forward
//!   pass, `Σ out_degree` over the layers built so far (each
//!   `R_k ⊇ L_k(u)`). The whole build
//!   may scan at most `|C| · 2 · R_coarse` edges, where `|C|` counts the
//!   candidates the distance and L1 bounds keep at θ: the fallback's
//!   per-candidate budget, summed over every candidate that can reach
//!   the screen. On overrun the build stops, and the layers it finished
//!   stay in the mask for the fallback.
//! * **Fallback, v side.** `v`'s layers are expanded without dedup, at
//!   most `2 · R_coarse` in-list entries per candidate (checked before
//!   each list). A hit on `u`'s layer of the same step means the pair may
//!   meet. So do an exhausted budget and an unknown layer. An empty layer
//!   on either side means zero.
//! * **Fallback, self-funding credit.** Each checked candidate earns
//!   `2 · R_coarse · (T − 1)` edge scans of credit, the most walk work its
//!   coarse estimate could take. `u`'s next layer is built only when its
//!   exact cost fits the credit earned so far. Per candidate the fallback
//!   thus scans at most the walk steps its coarse estimate could take,
//!   plus its own `2 · R_coarse` budget, and it needs no tuning knob.
//!
//! Reverse steps decode adjacency through the walk kernels' own
//! descriptor decode ([`Graph::reverse_step_parts`] +
//! [`Graph::in_source_at`]), not [`Graph::in_neighbors`], so "every walk
//! position lies in a screened layer" holds by construction. The meet
//! set's forward steps read the out-CSR, which a graph loaded at
//! [`srs_graph::ValidationLevel::Deep`] has proven to be the exact
//! transpose of the in-CSR. A forged out-CSR accepted at the `Safety`
//! level can therefore give wrong scores, never an out-of-range access.

use crate::index::SeenStamps;
use crate::SimRankParams;
use srs_graph::{Graph, VertexId};

/// Mask bits per vertex: layers at or past this step are never built.
const MASK_BITS: u32 = u32::BITS;

/// Mask bit marking `M(u)`; layer 0 (`{u}`) never takes a bit.
const MEET_BIT: u32 = 1;

/// Per-scan screen state for one query vertex (see the module docs).
#[derive(Default)]
pub(crate) struct ZeroScreen {
    /// Bit `t ≥ 1` of `mask[w]` is set iff `w ∈ L_t(u)`, for the built
    /// layers; bit 0 iff `w ∈ M(u)`, once the meet set is built.
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
    /// `M(u)` is complete: a candidate is zero iff its bit 0 is clear.
    meet: bool,
    /// The vertices of `M(u)`, in the order bit 0 was set (only when
    /// `meet`).
    members: Vec<VertexId>,
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
    /// grown to `n` here) until [`ZeroScreen::end`] hands it back, and
    /// tries to build `u`'s meet set for the `candidates` that can reach
    /// the screen, using `seen` for its per-level dedup. Returns whether
    /// the meet set was built.
    pub(crate) fn begin(
        &mut self,
        g: &Graph,
        u: VertexId,
        params: &SimRankParams,
        mask: Vec<u32>,
        candidates: usize,
        seen: &mut SeenStamps,
    ) -> bool {
        // A scan that unwound never reached `end`: its mask is dropped here,
        // and its touched list with it.
        self.touched.clear();
        self.members.clear();
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
        self.meet = candidates > 0
            && params.t <= MASK_BITS
            && self.build_meet(g, (candidates as u64).saturating_mul(self.budget as u64), seen);
        self.meet
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
    /// `false` when the layers share one, or, without a meet set, when the
    /// candidate's budget, the credit or the mask runs out first. `v` must
    /// differ from `u`.
    pub(crate) fn is_zero(&mut self, g: &Graph, v: VertexId) -> bool {
        if self.meet {
            return !self.in_meet(v);
        }
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

    /// Whether `v ∈ M(u)`; meaningful only once the meet set is built.
    #[inline]
    pub(crate) fn in_meet(&self, v: VertexId) -> bool {
        self.mask[v as usize] & MEET_BIT != 0
    }

    /// The vertices of `M(u)`, each once (empty unless the meet set is
    /// built). `u` itself is among them whenever it has an in-link.
    pub(crate) fn meet_members(&self) -> &[VertexId] {
        &self.members
    }

    /// Builds `M(u)` into bit 0 of the mask, scanning at most `funds`
    /// edges; `false` (with no bit 0 set) when a level does not fit. The
    /// layers built on the way stay, and the fallback's credit starts at 0.
    fn build_meet(&mut self, g: &Graph, mut funds: u64, seen: &mut SeenStamps) -> bool {
        // The forward pass expands every R_k ⊇ L_k(u), so it scans at least
        // `floor` edges, the out-degree sum over the layers built so far.
        let mut floor = 0u64;
        while self.layer + 1 < self.t_steps && self.empty_from == u32::MAX {
            let cost = self.next_layer_cost(g);
            if cost.saturating_add(floor) > funds {
                return false;
            }
            funds -= cost;
            self.push_layer(g);
            floor += self.front.iter().map(|&x| u64::from(g.out_degree(x))).sum::<u64>();
        }
        if floor > funds {
            return false;
        }
        // Layers past the deepest non-empty one are empty (layer 0 never is).
        let deepest = self.layer.min(self.empty_from - 1);
        // Every layer the scan can ask for is built, so the fallback never
        // reads `front` again: it holds R_{k+1} from here on, starting
        // with the empty R_{deepest+1}. Layer k is read back from the
        // mask through the touched list, which holds every layer vertex.
        self.front.clear();
        for k in (0..=deepest).rev() {
            let cost: u64 = self.front.iter().map(|&x| u64::from(g.out_degree(x))).sum();
            if cost > funds {
                return false;
            }
            funds -= cost;
            if k == 0 {
                for &x in &self.front {
                    for &y in g.out_neighbors(x) {
                        let m = &mut self.mask[y as usize];
                        if *m & MEET_BIT == 0 {
                            if *m == 0 {
                                self.touched.push(y);
                            }
                            *m |= MEET_BIT;
                            self.members.push(y);
                        }
                    }
                }
                break;
            }
            seen.begin(self.mask.len());
            self.grow.clear();
            let bit = 1u32 << k;
            for &x in &self.touched {
                if self.mask[x as usize] & bit != 0 {
                    seen.insert(x);
                    self.grow.push(x);
                }
            }
            for &x in &self.front {
                self.grow.extend(g.out_neighbors(x).iter().copied().filter(|&y| seen.insert(y)));
            }
            std::mem::swap(&mut self.front, &mut self.grow);
        }
        true
    }

    /// Builds `u`'s layers through step `t` (or until one is empty), as far
    /// as the credit pays for; `false` when it does not reach `t`.
    fn build_through(&mut self, g: &Graph, t: u32) -> bool {
        while self.layer < t && self.empty_from == u32::MAX {
            let cost = self.next_layer_cost(g);
            if cost > self.credit {
                return false;
            }
            self.credit -= cost;
            self.push_layer(g);
        }
        true
    }

    /// Exact edge-scan cost of building `u`'s layer `layer + 1`.
    fn next_layer_cost(&mut self, g: &Graph) -> u64 {
        let front = &self.front;
        *self
            .next_cost
            .get_or_insert_with(|| front.iter().map(|&w| u64::from(g.reverse_step_parts(w).0)).sum())
    }

    /// Builds `u`'s layer `layer + 1` from `front`, its cost paid.
    fn push_layer(&mut self, g: &Graph) {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single_pair::EstimatorBuffers;
    use crate::Diagonal;
    use srs_exact::{diagonal, linearized, ExactParams};
    use srs_graph::gen::{self, fixtures};
    use srs_mc::WalkEngine;

    /// How a test drives the screen for each query vertex.
    #[derive(Clone, Copy)]
    struct Setup {
        /// Candidate count funding the meet set (0: no meet set).
        candidates: usize,
        /// Per-candidate credit override of the fallback.
        earn: Option<u64>,
        /// Lift the fallback's per-candidate budget.
        complete: bool,
    }

    /// The scan's own budget and credit, without a meet set.
    const SCAN: Setup = Setup { candidates: 0, earn: None, complete: false };
    /// Complete layers on both sides, without a meet set.
    const COMPLETE: Setup = Setup { candidates: 0, earn: Some(u64::MAX / 4), complete: true };
    /// An unbounded meet set.
    const MEET: Setup = Setup { candidates: usize::MAX, earn: None, complete: false };

    /// The screen's verdict for every ordered pair `u ≠ v` of `g`, in
    /// `(u, v)` order, and the number of query vertices that built a meet
    /// set. Checks that every scan hands its mask back all-zero.
    fn verdicts(g: &Graph, params: &SimRankParams, setup: Setup) -> (Vec<bool>, usize) {
        let n = g.num_vertices();
        let mut screen = ZeroScreen::default();
        let mut seen = SeenStamps::new();
        let mut mask = Vec::new();
        let (mut out, mut meets) = (Vec::new(), 0);
        for u in 0..n {
            meets += usize::from(screen.begin(g, u, params, mask, setup.candidates, &mut seen));
            if let Some(c) = setup.earn {
                screen.earn = c;
            }
            if setup.complete {
                screen.budget = usize::MAX;
            }
            if screen.meet {
                // The member list is exactly M(u), each vertex once.
                let mut members = screen.meet_members().to_vec();
                members.sort_unstable();
                let marked: Vec<VertexId> = (0..n).filter(|&v| screen.in_meet(v)).collect();
                assert_eq!(members, marked, "u={u}");
            }
            out.extend((0..n).filter(|&v| v != u).map(|v| screen.is_zero(g, v)));
            mask = screen.end();
            assert!(mask.iter().all(|&m| m == 0), "u={u}: mask not handed back all-zero");
        }
        (out, meets)
    }

    /// Checks `verdicts` (as [`verdicts`] orders them). A zero verdict
    /// must mean an exact linearized 0.0 and a `+0.0` estimate at every
    /// seed and walk count; with `complete` verdicts a non-zero one must
    /// mean a positive linearized score. Returns the (zero, non-zero)
    /// verdict counts.
    fn check_pairs(g: &Graph, params: &SimRankParams, verdicts: &[bool], complete: bool) -> (usize, usize) {
        let n = g.num_vertices();
        let ep = ExactParams::new(params.c, params.t);
        let d = diagonal::uniform(n as usize, params.c);
        let diag = Diagonal::paper_default(params.c);
        let engine = WalkEngine::new(g);
        let mut est = EstimatorBuffers::new();
        let mut verdicts = verdicts.iter();
        let (mut zeros, mut others) = (0, 0);
        for u in 0..n {
            let exact = linearized::single_source(g, u, &ep, &d);
            for v in (0..n).filter(|&v| v != u) {
                let s = exact[v as usize];
                if *verdicts.next().expect("one verdict per pair") {
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

    fn fixture_graphs() -> [Graph; 6] {
        [
            gen::erdos_renyi(40, 90, 5),
            gen::copying_web(60, 3, 0.8, 7),
            gen::preferential_attachment_windowed(50, 2, 10, 3),
            cyclic(),
            Graph::from_edges(8, Vec::new()).unwrap(),
            fixtures::claw(),
        ]
    }

    #[test]
    fn zero_verdicts_are_exact_zeros_and_complete_layers_decide_every_pair() {
        let params = SimRankParams::default();
        let (mut zeros, mut meets) = (0, 0);
        for g in &fixture_graphs() {
            let (z, m) = check_pairs(g, &params, &verdicts(g, &params, COMPLETE).0, true);
            zeros += z;
            meets += m;
            // The scan's own budget and credit stay sound.
            check_pairs(g, &params, &verdicts(g, &params, SCAN).0, false);
        }
        assert!(zeros > 1000 && meets > 1000, "fixtures too one-sided: {zeros} zero, {meets} meet");
    }

    #[test]
    fn meet_set_verdicts_equal_complete_layer_verdicts() {
        let params = SimRankParams::default();
        for g in &fixture_graphs() {
            let (meet, built) = verdicts(g, &params, MEET);
            assert_eq!(built, g.num_vertices() as usize, "an unbounded meet set is always built");
            assert_eq!(meet, verdicts(g, &params, COMPLETE).0);
            check_pairs(g, &params, &meet, true);
        }
    }

    #[test]
    fn starved_credit_never_yields_a_wrong_zero() {
        let params = SimRankParams::default();
        for g in [gen::copying_web(60, 3, 0.8, 7), cyclic()] {
            let (verdicts, _) = verdicts(&g, &params, Setup { earn: Some(0), ..SCAN });
            let (zeros, _) = check_pairs(&g, &params, &verdicts, false);
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
    fn starved_meet_set_falls_back_without_a_wrong_zero() {
        let params = SimRankParams::default();
        for g in fixture_graphs() {
            let n = g.num_vertices() as usize;
            // One candidate funds 2 · R_coarse edge scans: some meet sets
            // fit, the rest fall back to per-candidate layers.
            let (verdicts, built) = verdicts(&g, &params, Setup { candidates: 1, ..SCAN });
            check_pairs(&g, &params, &verdicts, false);
            if g.num_edges() > 40 {
                assert!(0 < built && built < n, "{built} of {n} meet sets built");
            }
        }
        // An aborted build leaves the layers it finished for the fallback.
        let g = gen::copying_web(60, 3, 0.8, 7);
        let mut screen = ZeroScreen::default();
        let mut seen = SeenStamps::new();
        let kept = (0..g.num_vertices()).any(|u| {
            let built = screen.begin(&g, u, &params, Vec::new(), 1, &mut seen);
            let kept = !built && screen.layer >= 2;
            screen.end();
            kept
        });
        assert!(kept, "no aborted meet set kept its layers");

        // A hub 0 → 1..=30: u = 1's first layer {0} costs 1 edge scan, but
        // walking it forward costs at least out_degree(0) = 30. Funds of 20
        // stop at that floor, before the second layer; funds of 40 build
        // both layers (the second empty) and the meet set.
        let hub = Graph::from_edges(31, (1..=30).map(|v| (0, v))).unwrap();
        for (candidates, built, layers) in [(1, false, 1), (2, true, 2)] {
            assert_eq!(screen.begin(&hub, 1, &params, Vec::new(), candidates, &mut seen), built);
            assert_eq!(screen.layer, layers);
            assert!(!screen.is_zero(&hub, 2), "siblings meet at step 1");
            assert!(screen.is_zero(&hub, 0), "the hub has no in-links");
            screen.end();
        }
        // 2 → 0 → 1 and 2 → 3 → 4..=33: u = 1's layers {0}, {2} cost 2
        // edge scans and their out-degrees sum to 3, but R_1 = {0, 3}
        // costs 31 to walk forward. Funds of 20 stop the forward pass,
        // funds of 40 finish it; the verdicts agree.
        let fan = Graph::from_edges(34, [(0, 1), (2, 0), (2, 3)].into_iter().chain((4..34).map(|y| (3, y))))
            .unwrap();
        for (candidates, built) in [(1, false), (2, true)] {
            assert_eq!(screen.begin(&fan, 1, &params, Vec::new(), candidates, &mut seen), built);
            assert_eq!(screen.layer, 3, "every layer built (the third empty)");
            assert!(!screen.is_zero(&fan, 4), "4 meets 1 at step 2, through 2");
            assert!(screen.is_zero(&fan, 0), "0's second layer is empty");
            screen.end();
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
        let mut seen = SeenStamps::new();
        for (t, want) in [(30, true), (37, false)] {
            let params = SimRankParams { t, ..Default::default() };
            // Unbounded funds: the meet set is built wherever its layers
            // fit the mask, and only there.
            let built = screen.begin(&g, 0, &params, Vec::new(), usize::MAX, &mut seen);
            assert_eq!(built, want, "T={t}");
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

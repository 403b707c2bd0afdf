//! Reverse random-walk engine — the batched, cache-conscious kernel
//! every Monte-Carlo stage of the paper bottoms out in.
//!
//! All of the paper's Monte-Carlo algorithms simulate walks that start at a
//! vertex and repeatedly jump to a **uniformly random in-neighbour**
//! (equation (12): `Pᵗ e_u = E[e_{u(t)}]`). This module provides:
//!
//! * [`WalkEngine::step_frontier`] / [`WalkEngine::step_frontier_count`] —
//!   advance a compacted **live frontier** one step (dead walks leave the
//!   loop once instead of being re-branched every later step), optionally
//!   counting the new positions for the multisets of Algorithms 1–3;
//! * [`WalkEngine::step_all`] — advance a fixed slice of positions in
//!   place (dead entries stay [`DEAD`]; used where slot identity matters,
//!   e.g. the auxiliary walks of Algorithm 4);
//! * [`WalkEngine::walk`] / [`WalkEngine::walk_fill`] — record a full
//!   trajectory (used by the candidate index construction, Algorithm 4);
//! * [`MultiFrontier`] — one frontier holding many sources' walks, each
//!   drawing from its own RNG (the wave-batched candidate scan);
//! * [`WalkMatrix`] — `R × (T+1)` recorded trajectories from one source.
//!
//! # Fast paths and the RNG stream
//!
//! Every step resolves through the graph's one-word reverse-step
//! descriptor ([`srs_graph::ReverseStep`]): in-degree 0 kills the walk
//! with no CSR touch, in-degree 1 follows the unique in-neighbour with
//! **no RNG draw**, and only in-degree ≥ 2 draws and gathers from the
//! in-CSR. Because degree-0/1 steps consume no randomness, the RNG stream
//! differs from a naive `gen_range(len)`-per-step kernel: per-seed results
//! changed once when this kernel landed, but all determinism guarantees
//! (same seed → same result, thread-count invariance) are unaffected.
//!
//! # The split frontier kernel
//!
//! The single-source frontier step runs in three passes (resolve → draw
//! → gather, see `WalkEngine::advance_frontier`) so the serial PCG state
//! never waits on a descriptor or in-CSR load: the resolve pass decodes
//! every descriptor branch-free ([`srs_graph::Graph::reverse_step_parts`],
//! prefetched `PREFETCH_DIST` ahead) and lists the branch walks, the draw
//! pass is a bare `gen_range` chain over that list, and the gather pass's
//! loads are independent of each other. [`MultiFrontier`], whose walks
//! switch RNG per source, pipelines its gathers through a small ring
//! instead.
//!
//! A walk that reaches a vertex with no in-links **dies**: its position
//! becomes [`DEAD`] (in-place APIs) or is compacted out (frontier APIs).
//! Dead walks are how the substochastic rows of `P` are realized — they
//! simply stop contributing to any count.

use crate::multiset::PositionCounter;
use crate::obs;
use crate::rng::Pcg32;
use srs_graph::{Graph, ReverseStep, VertexId};
use std::cell::Cell;

/// Sentinel position of a dead walk (vertex with no in-links was reached).
pub const DEAD: VertexId = VertexId::MAX;

/// How many positions ahead the batched kernels prefetch the reverse-step
/// descriptor. Large enough to cover an L2 miss at typical step
/// throughput, small enough to stay inside any frontier worth batching.
pub const PREFETCH_DIST: usize = 16;

/// Depth of the [`MultiFrontier`] gather ring: how many in-CSR loads
/// (branch steps) are kept in flight before the oldest is consumed.
const GATHER_LANES: usize = 8;

/// A pending branch-step gather: the frontier slot awaiting its value and
/// the in-sources index it will be read from.
#[derive(Clone, Copy)]
struct PendingGather {
    slot: usize,
    src: u64,
}

/// How many branch walks late [`WalkEngine::step_frontier_count`] counts
/// a branch walk: a unique walk is counted when it is read, the j-th
/// branch walk of a step just before the (j + `OBSERVE_LAG`)-th is read,
/// and the last ≤ `OBSERVE_LAG` after the loop. This is the order of the
/// gather-ring kernel the split kernel replaced, kept so that
/// insertion-ordered counters iterate (and sum) exactly as before.
const OBSERVE_LAG: usize = 8;

/// One branch walk between the resolve and gather passes of the frontier
/// kernel: its compacted slot, in-degree, and in-sources offset (plus the
/// draw, after the draw pass).
#[derive(Clone, Copy, Default)]
struct BranchStep {
    slot: u32,
    len: u32,
    offset: u64,
}

thread_local! {
    /// Per-thread branch list reused by every frontier step on the thread.
    static BRANCH_LIST: Cell<Vec<BranchStep>> = const { Cell::new(Vec::new()) };
}

/// Runs `f` with this thread's reusable branch list. The list is taken
/// out of its cell for the call, so a nested use (an `observe` callback
/// that steps another frontier) gets a fresh list instead of a conflict.
#[inline]
fn with_branch_list(f: impl FnOnce(&mut Vec<BranchStep>)) {
    let mut list = BRANCH_LIST.with(Cell::take);
    f(&mut list);
    BRANCH_LIST.with(|c| c.set(list));
}

/// Replays a finished frontier step to `observe` in `OBSERVE_LAG`
/// order. `positions` is the compacted new frontier; `branches` lists the
/// branch walks' slots in ascending order.
fn observe_in_lag_order(positions: &[VertexId], branches: &[BranchStep], mut observe: impl FnMut(VertexId)) {
    let mut next = 0usize;
    for (slot, &w) in positions.iter().enumerate() {
        if next < branches.len() && branches[next].slot as usize == slot {
            if next >= OBSERVE_LAG {
                observe(positions[branches[next - OBSERVE_LAG].slot as usize]);
            }
            next += 1;
        } else {
            observe(w);
        }
    }
    for b in &branches[branches.len().saturating_sub(OBSERVE_LAG)..] {
        observe(positions[b.slot as usize]);
    }
}

/// Batched reverse random-walk stepping over one graph.
#[derive(Debug, Clone, Copy)]
pub struct WalkEngine<'g> {
    g: &'g Graph,
}

impl<'g> WalkEngine<'g> {
    /// Creates an engine over `g`.
    pub fn new(g: &'g Graph) -> Self {
        WalkEngine { g }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g Graph {
        self.g
    }

    /// Advances a single position one reverse step (or kills it).
    ///
    /// Not included in the [`crate::obs`] walk-step counters — this is the
    /// scalar primitive for caller-managed loops, and a TLS flush per step
    /// would dominate its cost. The batched kernels all count.
    #[inline]
    pub fn step_one(&self, pos: VertexId, rng: &mut Pcg32) -> VertexId {
        if pos == DEAD {
            return DEAD;
        }
        match self.g.reverse_step(pos) {
            ReverseStep::Dead => DEAD,
            ReverseStep::Unique(w) => w,
            ReverseStep::Branch { offset, len } => self.g.in_source_at(offset + rng.gen_range(len) as u64),
        }
    }

    /// [`WalkEngine::step_one`] with class accounting into a caller-held
    /// `[dead, unique, branch]` register array (flushed to the
    /// thread-local counters once per kernel call, never per step).
    #[inline]
    fn step_one_counted(&self, pos: VertexId, rng: &mut Pcg32, counts: &mut [u64; 3]) -> VertexId {
        if pos == DEAD {
            return DEAD;
        }
        match self.g.reverse_step(pos) {
            ReverseStep::Dead => {
                counts[0] += 1;
                DEAD
            }
            ReverseStep::Unique(w) => {
                counts[1] += 1;
                w
            }
            ReverseStep::Branch { offset, len } => {
                counts[2] += 1;
                self.g.in_source_at(offset + rng.gen_range(len) as u64)
            }
        }
    }

    /// Advances every position in `positions` one reverse step in place.
    /// Dead walks keep their slot (as [`DEAD`]) — use this where slot
    /// identity matters (e.g. the Algorithm 4 auxiliary walks); prefer
    /// [`WalkEngine::step_frontier`] for position-multiset workloads.
    ///
    /// No prefetch lookahead here on purpose: fixed-slot batches decay to
    /// mostly-[`DEAD`] slots, where a per-slot lookahead costs more than
    /// the hidden latency is worth. The frontier kernel, whose slots are
    /// all live, is where the prefetch pipeline pays.
    pub fn step_all(&self, positions: &mut [VertexId], rng: &mut Pcg32) {
        let mut counts = [0u64; 3];
        for p in positions {
            *p = self.step_one_counted(*p, rng, &mut counts);
        }
        obs::record(counts);
    }

    /// Advances a compacted live frontier one reverse step: every position
    /// is stepped, dying walks are removed (stably — survivors keep their
    /// relative order), and `positions` shrinks to the new live set.
    ///
    /// RNG draws happen in frontier order, for branch (in-degree ≥ 2)
    /// steps only, so the stream is deterministic and independent of how
    /// many walks have died.
    pub fn step_frontier(&self, positions: &mut Vec<VertexId>, rng: &mut Pcg32) {
        with_branch_list(|branches| {
            self.advance_frontier(positions, rng, branches);
        });
    }

    /// [`WalkEngine::step_frontier`] plus per-step counting: `counter` is
    /// cleared and filled with the multiset of the *new* positions. This
    /// is the kernel behind the `α(w)β(w)` tables of Algorithms 1–3.
    ///
    /// Positions are added in a fixed order — unique walks as they are
    /// read, each branch walk eight branch walks late — because the
    /// counter's iteration order depends on insertion order, and the γ
    /// build and the per-vertex-diagonal dot products sum `f64` in that
    /// order.
    pub fn step_frontier_count(
        &self,
        positions: &mut Vec<VertexId>,
        rng: &mut Pcg32,
        counter: &mut PositionCounter,
    ) {
        counter.clear();
        self.step_frontier_with(positions, rng, |v| counter.add(v));
    }

    /// [`WalkEngine::step_frontier`] reporting every new position to
    /// `observe`, in the fixed order [`WalkEngine::step_frontier_count`]
    /// documents.
    fn step_frontier_with(
        &self,
        positions: &mut Vec<VertexId>,
        rng: &mut Pcg32,
        observe: impl FnMut(VertexId),
    ) {
        with_branch_list(|branches| {
            let nb = self.advance_frontier(positions, rng, branches);
            observe_in_lag_order(positions, &branches[..nb], observe);
        });
    }

    /// The frontier kernel, in three passes so the serial PCG state never
    /// waits on a memory load:
    ///
    /// 1. **resolve** — decode every walk's descriptor (prefetched
    ///    [`PREFETCH_DIST`] ahead) with no class branch: the payload is
    ///    written to the walk's compacted slot (final for a unique step),
    ///    and a `(slot, len, offset)` entry is appended to `branches`,
    ///    which only advances past it for a branch step;
    /// 2. **draw** — one `gen_range(len)` per branch entry, in frontier
    ///    order, folded into the entry's offset;
    /// 3. **gather** — each branch slot reads its drawn in-source.
    ///
    /// Returns the number of branch entries; `branches[..nb]` lists the
    /// branch walks' slots in ascending order. `branches` only grows, so
    /// a warm caller pays no per-step fill.
    #[inline]
    fn advance_frontier(
        &self,
        positions: &mut Vec<VertexId>,
        rng: &mut Pcg32,
        branches: &mut Vec<BranchStep>,
    ) -> usize {
        let n = positions.len();
        assert!(n <= u32::MAX as usize, "frontier of {n} walks exceeds the u32 slot range");
        if branches.len() < n {
            branches.resize(n, BranchStep::default());
        }
        let (pos, list) = (&mut positions[..], &mut branches[..n]);
        let (mut write, mut nb) = (0usize, 0usize);
        for read in 0..n {
            if read + PREFETCH_DIST < n {
                self.g.prefetch_reverse_step(pos[read + PREFETCH_DIST]);
            }
            let (len, payload) = self.g.reverse_step_parts(pos[read]);
            // `write <= read`: the store never clobbers an unread walk. A
            // dead walk's store is overwritten by the next survivor (or
            // truncated away); a branch walk's is replaced by the gather.
            pos[write] = payload as VertexId;
            list[nb] = BranchStep { slot: write as u32, len, offset: payload };
            nb += (len >= 2) as usize;
            write += (len != 0) as usize;
        }
        let list = &mut list[..nb];
        for b in list.iter_mut() {
            b.offset += rng.gen_range(b.len) as u64;
        }
        for b in list.iter() {
            pos[b.slot as usize] = self.g.in_source_at(b.offset);
        }
        positions.truncate(write);
        obs::record([(n - write) as u64, (write - nb) as u64, nb as u64]);
        nb
    }

    /// Records a single trajectory of `t_max` steps from `start`
    /// (`out.len() == t_max + 1`, `out[0] == start`). Dead tail positions
    /// are [`DEAD`].
    ///
    /// ```
    /// use srs_mc::{WalkEngine, Pcg32, DEAD};
    /// use srs_graph::gen::fixtures;
    ///
    /// let g = fixtures::path(3);            // 0 → 1 → 2
    /// let engine = WalkEngine::new(&g);
    /// let mut out = Vec::new();
    /// engine.walk(2, 4, &mut Pcg32::new(1, 1), &mut out);
    /// assert_eq!(out, vec![2, 1, 0, DEAD, DEAD]); // dies at the source
    /// ```
    pub fn walk(&self, start: VertexId, t_max: usize, rng: &mut Pcg32, out: &mut Vec<VertexId>) {
        out.clear();
        out.resize(t_max + 1, DEAD);
        self.walk_fill(start, rng, out);
    }

    /// [`WalkEngine::walk`] into a fixed slice: records `out.len() - 1`
    /// steps from `start` (`out[0] == start`, dead tail [`DEAD`]). The
    /// index-build hot loop uses this to reuse one probe buffer with no
    /// per-call length bookkeeping. `out` must be non-empty.
    pub fn walk_fill(&self, start: VertexId, rng: &mut Pcg32, out: &mut [VertexId]) {
        out[0] = start;
        let mut counts = [0u64; 3];
        let mut cur = start;
        let mut i = 1;
        while i < out.len() {
            cur = self.step_one_counted(cur, rng, &mut counts);
            if cur == DEAD {
                // The tail stays dead; skip the per-step re-checks.
                out[i..].fill(DEAD);
                break;
            }
            out[i] = cur;
            i += 1;
        }
        obs::record(counts);
    }

    /// Records `r` independent trajectories of `t_max` steps from `start`.
    pub fn walk_matrix(&self, start: VertexId, r: usize, t_max: usize, rng: &mut Pcg32) -> WalkMatrix {
        let mut positions = vec![start; r * (t_max + 1)];
        for walk in 0..r {
            self.walk_fill(start, rng, &mut positions[walk * (t_max + 1)..(walk + 1) * (t_max + 1)]);
        }
        WalkMatrix { r, t_max, positions }
    }
}

/// The reference scalar kernel: semantically identical to the fast paths
/// above (same death rule, same no-draw convention for degree 1, same
/// Lemire draw for degree ≥ 2) but implemented directly over the CSR
/// adjacency slices with no descriptor table, no prefetch, no compaction
/// pipeline. The property tests pin the fast kernel against it; it is
/// also compiled under the `ref-kernel` feature for benchmarking.
#[cfg(any(test, feature = "ref-kernel"))]
pub mod reference {
    use super::{Pcg32, VertexId, DEAD};
    use srs_graph::Graph;

    /// Scalar reference step: read the in-neighbour slice, apply the
    /// degree rules directly.
    #[inline]
    pub fn step_one(g: &Graph, pos: VertexId, rng: &mut Pcg32) -> VertexId {
        if pos == DEAD {
            return DEAD;
        }
        let nb = g.in_neighbors(pos);
        match nb.len() {
            0 => DEAD,
            1 => nb[0],
            len => nb[rng.gen_range(len as u32) as usize],
        }
    }

    /// Scalar reference batch step (in place, dead slots stay [`DEAD`]).
    pub fn step_all(g: &Graph, positions: &mut [VertexId], rng: &mut Pcg32) {
        for p in positions {
            *p = step_one(g, *p, rng);
        }
    }

    /// Scalar reference trajectory.
    pub fn walk(g: &Graph, start: VertexId, t_max: usize, rng: &mut Pcg32) -> Vec<VertexId> {
        let mut out = vec![start];
        let mut cur = start;
        for _ in 0..t_max {
            cur = step_one(g, cur, rng);
            out.push(cur);
        }
        out
    }
}

/// Reusable batch of walk positions maintained as a **compacted live
/// frontier**: reset to `R` copies of a start vertex, then advanced in
/// place one step at a time; walks that die leave the buffer. The
/// streaming algorithms (Algorithms 1–3) only ever need the current
/// position *multiset*, so one of these per worker makes their walk
/// simulation allocation-free in the steady state — and the per-step cost
/// tracks the live count, not `R`.
#[derive(Debug, Clone, Default)]
pub struct WalkPositions {
    pos: Vec<VertexId>,
    /// Number of walks the batch was reset to (`R`), live or not.
    r: usize,
}

impl WalkPositions {
    /// Creates an empty buffer (first `reset` sizes it).
    pub fn new() -> Self {
        Self::default()
    }

    /// Restarts the batch: `r` walks, all at `start`. Reuses allocations.
    pub fn reset(&mut self, start: VertexId, r: usize) {
        self.pos.clear();
        self.pos.resize(r, start);
        self.r = r;
    }

    /// Advances every live walk one reverse step, compacting out deaths.
    #[inline]
    pub fn step(&mut self, engine: &WalkEngine, rng: &mut Pcg32) {
        engine.step_frontier(&mut self.pos, rng);
    }

    /// The current live positions (no [`DEAD`] entries).
    #[inline]
    pub fn positions(&self) -> &[VertexId] {
        &self.pos
    }

    /// Number of walks the batch was reset to (`R`), dead or alive — the
    /// estimator normalization constant.
    pub fn num_walks(&self) -> usize {
        self.r
    }

    /// Number of walks still alive.
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// Whether every walk has died (or the batch was never reset).
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }
}

/// A compacted live frontier holding walks from **many sources at once**,
/// each walk tagged with the id of the source that spawned it. One wide
/// [`MultiFrontier::step`] advances every source's walks through the same
/// prefetch + gather pipeline as [`WalkEngine::step_frontier`], instead of
/// one narrow kernel call per source — the batching move behind the
/// wave-scored candidate scan.
///
/// # Per-source bit-identity
///
/// Each source `id` draws randomness only from `rngs[id]`, and compaction
/// is stable, so the walks of one source keep their relative order and
/// consume their RNG stream in exactly the order a dedicated
/// single-source frontier would. Stepping sources `{a, b}` together is
/// therefore bit-identical, per source, to stepping each alone with its
/// own RNG — fusing frontiers changes *when* work happens, never what any
/// source's walks do.
///
/// `observe` sees every surviving walk exactly once per step, in
/// unspecified order — accumulate order-insensitively (integer counters).
///
/// A **deactivated** source ([`MultiFrontier::deactivate`]) has its
/// remaining walks dropped administratively at the start of the next
/// step: they take no descriptor step, draw nothing, and are not counted
/// in the walk-step class counters (they are abandoned, not simulated).
#[derive(Debug, Clone, Default)]
pub struct MultiFrontier {
    pos: Vec<VertexId>,
    /// `ids[i]` = source id of live slot `i` (always aligned with `pos`).
    ids: Vec<u32>,
    /// Live walk count per source id.
    live: Vec<u32>,
    /// Whether each source still participates (false after `deactivate`).
    active: Vec<bool>,
}

impl MultiFrontier {
    /// An empty frontier with no sources.
    pub fn new() -> Self {
        Self::default()
    }

    /// Removes every walk and source, keeping allocations for reuse.
    pub fn clear(&mut self) {
        self.pos.clear();
        self.ids.clear();
        self.live.clear();
        self.active.clear();
    }

    /// Adds a source with `r` walks at `start` and returns its id (ids
    /// are assigned 0, 1, 2, … in push order).
    pub fn push_source(&mut self, start: VertexId, r: usize) -> u32 {
        let id = self.live.len() as u32;
        self.pos.resize(self.pos.len() + r, start);
        self.ids.resize(self.ids.len() + r, id);
        self.live.push(r as u32);
        self.active.push(true);
        id
    }

    /// Number of sources pushed (active or not).
    pub fn num_sources(&self) -> usize {
        self.live.len()
    }

    /// Live walks of source `id` (0 once all died or after deactivation).
    #[inline]
    pub fn live(&self, id: u32) -> u32 {
        self.live[id as usize]
    }

    /// Marks a source as done: its live count drops to 0 and its walks
    /// are dropped (without stepping or drawing) on the next `step`.
    pub fn deactivate(&mut self, id: u32) {
        self.active[id as usize] = false;
        self.live[id as usize] = 0;
    }

    /// Total live walks across all sources (deactivated walks linger here
    /// until the next step physically drops them).
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// Whether no walks remain in the buffer.
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    /// Advances every active walk one reverse step through the pipelined
    /// kernel (descriptor prefetch, ring-buffered in-CSR gathers, stable
    /// compaction). `rngs[id]` supplies every draw of source `id`; see
    /// the type docs for the per-source bit-identity guarantee.
    pub fn step(&mut self, engine: &WalkEngine, rngs: &mut [Pcg32], mut observe: impl FnMut(u32, VertexId)) {
        debug_assert_eq!(rngs.len(), self.live.len(), "one RNG per source");
        let g = engine.graph();
        let n = self.pos.len();
        let mut ring = [PendingGather { slot: 0, src: 0 }; GATHER_LANES];
        let mut ring_head = 0usize;
        let mut ring_len = 0usize;
        let mut write = 0usize;
        let mut branches = 0u64;
        let mut dropped = 0usize;
        // Walks of one source stay contiguous (stable compaction), so the
        // source's RNG is kept in registers across the run instead of
        // being re-indexed per draw; the stream each source consumes is
        // unchanged.
        let mut cur_id = u32::MAX;
        let mut cur_rng = Pcg32::new(0, 0);
        for read in 0..n {
            if let Some(&ahead) = self.pos.get(read + PREFETCH_DIST) {
                g.prefetch_reverse_step(ahead);
            }
            let id = self.ids[read];
            if !self.active[id as usize] {
                // Administrative drop of a deactivated source's walk: no
                // descriptor step, no draw, no class accounting.
                dropped += 1;
                continue;
            }
            let pos = self.pos[read];
            match g.reverse_step(pos) {
                ReverseStep::Dead => {
                    self.live[id as usize] -= 1;
                }
                ReverseStep::Unique(w) => {
                    self.pos[write] = w;
                    self.ids[write] = id;
                    observe(id, w);
                    write += 1;
                }
                ReverseStep::Branch { offset, len } => {
                    branches += 1;
                    if id != cur_id {
                        if cur_id != u32::MAX {
                            rngs[cur_id as usize] = cur_rng.clone();
                        }
                        cur_id = id;
                        cur_rng = rngs[id as usize].clone();
                    }
                    let src = offset + cur_rng.gen_range(len) as u64;
                    g.prefetch_in_source(src);
                    if ring_len == GATHER_LANES {
                        let done = ring[ring_head];
                        ring_head = (ring_head + 1) % GATHER_LANES;
                        ring_len -= 1;
                        let w = g.in_source_at(done.src);
                        self.pos[done.slot] = w;
                        observe(self.ids[done.slot], w);
                    }
                    // The id is final at slot-assignment time even though
                    // the position lands later via the ring.
                    self.ids[write] = id;
                    ring[(ring_head + ring_len) % GATHER_LANES] = PendingGather { slot: write, src };
                    ring_len += 1;
                    write += 1;
                }
            }
        }
        if cur_id != u32::MAX {
            rngs[cur_id as usize] = cur_rng;
        }
        while ring_len > 0 {
            let done = ring[ring_head];
            ring_head = (ring_head + 1) % GATHER_LANES;
            ring_len -= 1;
            let w = g.in_source_at(done.src);
            self.pos[done.slot] = w;
            observe(self.ids[done.slot], w);
        }
        self.pos.truncate(write);
        self.ids.truncate(write);
        obs::record([(n - write - dropped) as u64, write as u64 - branches, branches]);
    }

    /// [`MultiFrontier::step`] with the wave kernels' strided emit
    /// layout: each surviving walk of source `id` lands at
    /// `rows[id * stride + lens[id]]` (then `lens[id]` is bumped), so a
    /// source's positions this step form the contiguous row
    /// `rows[id*stride .. id*stride + lens[id]]`. Callers size `rows` to
    /// `sources * stride` with `stride >=` the source's pushed walk
    /// count and zero `lens` beforehand; slots past `lens[id]` are never
    /// written, so pre-filling rows with [`DEAD`] (which no walk can
    /// occupy) yields fixed-width rows a SIMD comparator can scan
    /// without length checks.
    pub fn step_strided(
        &mut self,
        engine: &WalkEngine,
        rngs: &mut [Pcg32],
        rows: &mut [VertexId],
        stride: usize,
        lens: &mut [u32],
    ) {
        self.step(engine, rngs, |id, w| {
            let i = id as usize;
            rows[i * stride + lens[i] as usize] = w;
            lens[i] += 1;
        });
    }
}

/// `R` recorded reverse-walk trajectories of length `T` from one source.
/// Row-major: trajectory `i` occupies `positions[i*(T+1) .. (i+1)*(T+1)]`.
#[derive(Debug, Clone)]
pub struct WalkMatrix {
    r: usize,
    t_max: usize,
    positions: Vec<VertexId>,
}

impl WalkMatrix {
    /// Number of trajectories `R`.
    pub fn num_walks(&self) -> usize {
        self.r
    }

    /// Trajectory length `T` (number of steps; positions per row is `T+1`).
    pub fn t_max(&self) -> usize {
        self.t_max
    }

    /// Position of walk `walk` at step `t` (`t = 0` is the source).
    #[inline]
    pub fn at(&self, walk: usize, t: usize) -> VertexId {
        self.positions[walk * (self.t_max + 1) + t]
    }

    /// Full trajectory of one walk.
    pub fn row(&self, walk: usize) -> &[VertexId] {
        &self.positions[walk * (self.t_max + 1)..(walk + 1) * (self.t_max + 1)]
    }

    /// Iterates the `R` positions at step `t` (including [`DEAD`] entries).
    pub fn step_positions(&self, t: usize) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.r).map(move |w| self.at(w, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srs_graph::gen::{self, fixtures};

    #[test]
    fn walks_die_at_sources() {
        // Path 0→1→2→3: reverse walk from 3 deterministically reaches 0 and
        // then dies.
        let g = fixtures::path(4);
        let e = WalkEngine::new(&g);
        let mut rng = Pcg32::new(1, 1);
        let mut out = Vec::new();
        e.walk(3, 6, &mut rng, &mut out);
        assert_eq!(out, vec![3, 2, 1, 0, DEAD, DEAD, DEAD]);
    }

    #[test]
    fn step_all_advances_in_place() {
        let g = fixtures::cycle(5);
        let e = WalkEngine::new(&g);
        let mut rng = Pcg32::new(2, 2);
        let mut pos = vec![0, 1, 2, 3, 4];
        e.step_all(&mut pos, &mut rng);
        // On a cycle, the unique in-neighbour of i is i-1.
        assert_eq!(pos, vec![4, 0, 1, 2, 3]);
    }

    #[test]
    fn walk_matrix_layout() {
        let g = fixtures::cycle(4);
        let e = WalkEngine::new(&g);
        let mut rng = Pcg32::new(3, 3);
        let m = e.walk_matrix(2, 3, 5, &mut rng);
        assert_eq!(m.num_walks(), 3);
        assert_eq!(m.t_max(), 5);
        for w in 0..3 {
            assert_eq!(m.at(w, 0), 2);
            assert_eq!(m.row(w).len(), 6);
            // cycle walk is deterministic: position at t is (2 - t) mod 4
            for t in 0..=5usize {
                assert_eq!(m.at(w, t), ((2 + 4 * 2 - t as u32) % 4), "w={w} t={t}");
            }
        }
        assert_eq!(m.step_positions(1).collect::<Vec<_>>(), vec![1, 1, 1]);
    }

    #[test]
    fn claw_walks_from_hub_spread_uniformly() {
        let g = fixtures::claw();
        let e = WalkEngine::new(&g);
        let mut rng = Pcg32::new(4, 4);
        let mut counts = [0u32; 4];
        for _ in 0..30_000 {
            let p = e.step_one(0, &mut rng);
            counts[p as usize] += 1;
        }
        assert_eq!(counts[0], 0);
        for leaf in 1..4 {
            let c = counts[leaf];
            assert!((9_000..11_000).contains(&c), "leaf {leaf}: {c}");
        }
    }

    #[test]
    fn dead_walk_stays_dead() {
        let g = fixtures::path(2);
        let e = WalkEngine::new(&g);
        let mut rng = Pcg32::new(5, 5);
        let mut pos = vec![0];
        e.step_all(&mut pos, &mut rng);
        assert_eq!(pos[0], DEAD);
        e.step_all(&mut pos, &mut rng);
        assert_eq!(pos[0], DEAD);
    }

    #[test]
    fn uniform_choice_over_in_neighbors() {
        // Vertex 0 with in-links from 1..=4; verify each chosen ~uniformly.
        let g = srs_graph::Graph::from_edges(5, (1..5).map(|i| (i, 0))).unwrap();
        let e = WalkEngine::new(&g);
        let mut rng = Pcg32::new(6, 6);
        let mut counts = [0u32; 5];
        for _ in 0..40_000 {
            counts[e.step_one(0, &mut rng) as usize] += 1;
        }
        for i in 1..5 {
            assert!((9_000..11_000).contains(&counts[i]), "{:?}", counts);
        }
    }

    #[test]
    fn frontier_compacts_dead_walks() {
        // Path 0→1→2: walks at 1 survive one step (to 0) then die; walks
        // already at 0 die immediately.
        let g = fixtures::path(3);
        let e = WalkEngine::new(&g);
        let mut rng = Pcg32::new(7, 7);
        let mut pos = vec![2, 0, 1, 2, 0];
        e.step_frontier(&mut pos, &mut rng);
        assert_eq!(pos, vec![1, 0, 1]); // stable order, deaths removed
        e.step_frontier(&mut pos, &mut rng);
        assert_eq!(pos, vec![0, 0]);
        e.step_frontier(&mut pos, &mut rng);
        assert!(pos.is_empty());
    }

    #[test]
    fn frontier_count_fuses_multiset() {
        let g = fixtures::claw();
        let e = WalkEngine::new(&g);
        let mut rng = Pcg32::new(8, 8);
        let mut pos = vec![1, 2, 3, 0];
        let mut counter = PositionCounter::new();
        e.step_frontier_count(&mut pos, &mut rng, &mut counter);
        // The three leaves step to the hub; the hub steps to some leaf.
        assert_eq!(pos.len(), 4);
        assert_eq!(counter.count(0), 3);
        assert_eq!(counter.distinct(), 2);
        let mut sorted = pos.clone();
        sorted.sort_unstable();
        assert_eq!(&sorted[..3], &[0, 0, 0]);
    }

    #[test]
    fn frontier_matches_reference_step_all_exactly() {
        // Same RNG stream, same multiset of live positions — the pipelined
        // kernel must agree with the scalar reference bit for bit.
        for (gi, g) in [
            gen::copying_web(400, 4, 0.8, 3),
            gen::preferential_attachment(300, 3, 5),
            gen::erdos_renyi(200, 900, 9),
        ]
        .iter()
        .enumerate()
        {
            let e = WalkEngine::new(g);
            let n = g.num_vertices();
            let mut fast: Vec<VertexId> = (0..n).collect();
            let mut slow: Vec<VertexId> = (0..n).collect();
            let mut rng_fast = Pcg32::new(100 + gi as u64, 1);
            let mut rng_slow = rng_fast.clone();
            for step in 0..8 {
                e.step_frontier(&mut fast, &mut rng_fast);
                reference::step_all(g, &mut slow, &mut rng_slow);
                let mut live: Vec<VertexId> = slow.iter().copied().filter(|&p| p != DEAD).collect();
                let mut got = fast.clone();
                live.sort_unstable();
                got.sort_unstable();
                assert_eq!(got, live, "graph {gi} step {step}");
            }
        }
    }

    /// The gather-ring frontier kernel the split kernel replaced, kept
    /// (minus its prefetch hints) as the equivalence oracle: same
    /// compaction, same draws, same `observe` order. Returns the
    /// `[dead, unique, branch]` counts.
    fn ring_step(
        g: &Graph,
        positions: &mut Vec<VertexId>,
        rng: &mut Pcg32,
        mut observe: impl FnMut(VertexId),
    ) -> [u64; 3] {
        let n = positions.len();
        let mut ring = [PendingGather { slot: 0, src: 0 }; GATHER_LANES];
        let (mut ring_head, mut ring_len, mut write, mut branches) = (0usize, 0usize, 0usize, 0u64);
        for read in 0..n {
            match g.reverse_step(positions[read]) {
                ReverseStep::Dead => {}
                ReverseStep::Unique(w) => {
                    positions[write] = w;
                    observe(w);
                    write += 1;
                }
                ReverseStep::Branch { offset, len } => {
                    branches += 1;
                    let src = offset + rng.gen_range(len) as u64;
                    if ring_len == GATHER_LANES {
                        let done = ring[ring_head];
                        ring_head = (ring_head + 1) % GATHER_LANES;
                        ring_len -= 1;
                        let w = g.in_source_at(done.src);
                        positions[done.slot] = w;
                        observe(w);
                    }
                    ring[(ring_head + ring_len) % GATHER_LANES] = PendingGather { slot: write, src };
                    ring_len += 1;
                    write += 1;
                }
            }
        }
        while ring_len > 0 {
            let done = ring[ring_head];
            ring_head = (ring_head + 1) % GATHER_LANES;
            ring_len -= 1;
            let w = g.in_source_at(done.src);
            positions[done.slot] = w;
            observe(w);
        }
        positions.truncate(write);
        [(n - write) as u64, write as u64 - branches, branches]
    }

    #[test]
    fn split_kernel_matches_the_ring_kernel_step_for_step() {
        let graphs = [
            ("er", gen::erdos_renyi(500, 2_500, 3)),
            ("windowed-pa", gen::preferential_attachment_windowed(600, 3, 40, 4)),
            ("copying-web", gen::copying_web(700, 4, 0.8, 5)),
            ("edgeless", Graph::from_edges(50, Vec::<(VertexId, VertexId)>::new()).unwrap()),
        ];
        let mut checked_branches = 0u64;
        for (name, g) in &graphs {
            let e = WalkEngine::new(g);
            let n = g.num_vertices();
            for size in [0usize, 1, 10, 100, 10_000] {
                // A spread frontier and one that starts piled on a single
                // vertex (the L1 table's shape).
                for piled in [false, true] {
                    let start: Vec<VertexId> = (0..size)
                        .map(|i| if piled { n / 2 } else { (i as u32).wrapping_mul(7919) % n })
                        .collect();
                    let (mut plain, mut observed, mut ring) = (start.clone(), start.clone(), start);
                    let mut rng_plain = Pcg32::from_parts(&[31, size as u64, piled as u64]);
                    let (mut rng_observed, mut rng_ring) = (rng_plain.clone(), rng_plain.clone());
                    for step in 0..12 {
                        let ctx = format!("{name} size {size} piled {piled} step {step}");
                        let (mut seen, mut seen_ring) = (Vec::new(), Vec::new());
                        let base = obs::thread_counts();
                        e.step_frontier(&mut plain, &mut rng_plain);
                        let mid = obs::thread_counts();
                        e.step_frontier_with(&mut observed, &mut rng_observed, |w| seen.push(w));
                        let (c_plain, c_observed) = (mid.since(&base), obs::thread_counts().since(&mid));
                        let expect = ring_step(g, &mut ring, &mut rng_ring, |w| seen_ring.push(w));
                        assert_eq!(plain, ring, "{ctx}: positions");
                        assert_eq!(observed, ring, "{ctx}: positions (observed)");
                        assert_eq!(seen, seen_ring, "{ctx}: observe sequence");
                        for c in [c_plain, c_observed] {
                            assert_eq!([c.dead, c.unique, c.branch], expect, "{ctx}: class counters");
                        }
                        let next = rng_ring.clone().next_u32();
                        assert_eq!(rng_plain.clone().next_u32(), next, "{ctx}: next RNG output");
                        assert_eq!(
                            rng_observed.clone().next_u32(),
                            next,
                            "{ctx}: next RNG output (observed)"
                        );
                        checked_branches += expect[2];
                    }
                }
            }
        }
        assert!(checked_branches > 10_000, "{checked_branches}");
    }

    #[test]
    fn step_all_matches_reference_exactly() {
        let g = gen::copying_web(300, 4, 0.8, 11);
        let e = WalkEngine::new(&g);
        let mut fast: Vec<VertexId> = (0..300).collect();
        let mut slow = fast.clone();
        let mut rng_fast = Pcg32::new(42, 7);
        let mut rng_slow = rng_fast.clone();
        for _ in 0..10 {
            e.step_all(&mut fast, &mut rng_fast);
            reference::step_all(&g, &mut slow, &mut rng_slow);
            assert_eq!(fast, slow);
        }
    }

    #[test]
    fn walk_fill_matches_walk_and_reference() {
        let g = gen::preferential_attachment(200, 3, 13);
        let e = WalkEngine::new(&g);
        for u in [0u32, 17, 99, 150] {
            let mut rng_a = Pcg32::from_parts(&[9, u as u64]);
            let mut rng_b = rng_a.clone();
            let mut rng_c = rng_a.clone();
            let mut via_walk = Vec::new();
            e.walk(u, 9, &mut rng_a, &mut via_walk);
            let mut via_fill = vec![0; 10];
            e.walk_fill(u, &mut rng_b, &mut via_fill);
            let via_ref = reference::walk(&g, u, 9, &mut rng_c);
            assert_eq!(via_walk, via_fill, "u={u}");
            assert_eq!(via_walk, via_ref, "u={u}");
        }
    }

    #[test]
    fn multi_frontier_matches_independent_frontiers_per_source() {
        // Fusing many sources into one wide frontier must leave every
        // source's walks bit-identical to stepping that source alone with
        // its own RNG: same positions, same relative order, same live
        // counts, same RNG states afterwards.
        let g = gen::copying_web(300, 4, 0.8, 19);
        let e = WalkEngine::new(&g);
        let sources: Vec<(VertexId, usize)> = vec![(3, 10), (250, 1), (77, 25), (3, 10), (199, 0), (42, 7)];
        let mut multi = MultiFrontier::new();
        let mut rngs: Vec<Pcg32> = Vec::new();
        let mut solo: Vec<(Vec<VertexId>, Pcg32)> = Vec::new();
        for (i, &(start, r)) in sources.iter().enumerate() {
            let id = multi.push_source(start, r);
            assert_eq!(id as usize, i);
            let rng = Pcg32::from_parts(&[55, i as u64]);
            rngs.push(rng.clone());
            solo.push((vec![start; r], rng));
        }
        assert_eq!(multi.num_sources(), sources.len());
        let mut seen: Vec<Vec<(u32, VertexId)>> = vec![Vec::new(); sources.len()];
        for step in 0..8 {
            for s in &mut seen {
                s.clear();
            }
            multi.step(&e, &mut rngs, |id, w| seen[id as usize].push((id, w)));
            for (i, (pos, rng)) in solo.iter_mut().enumerate() {
                e.step_frontier(pos, rng);
                assert_eq!(multi.live(i as u32) as usize, pos.len(), "source {i} step {step}");
                assert_eq!(rngs[i], *rng, "source {i} step {step}: RNG streams diverged");
                // observe saw exactly the surviving positions (order within
                // a source is the stable frontier order).
                let observed: Vec<VertexId> = seen[i].iter().map(|&(_, w)| w).collect();
                let mut sorted_obs = observed.clone();
                let mut sorted_ref = pos.clone();
                sorted_obs.sort_unstable();
                sorted_ref.sort_unstable();
                assert_eq!(sorted_obs, sorted_ref, "source {i} step {step}");
            }
            // The compacted buffer holds each source's walks in stable
            // per-source order, matching the solo frontier exactly.
            let mut per_source: Vec<Vec<VertexId>> = vec![Vec::new(); sources.len()];
            for (slot, &id) in multi.ids.iter().enumerate() {
                per_source[id as usize].push(multi.pos[slot]);
            }
            for (i, (pos, _)) in solo.iter().enumerate() {
                assert_eq!(&per_source[i], pos, "source {i} step {step}");
            }
        }
    }

    #[test]
    fn multi_frontier_deactivation_drops_without_stepping() {
        let g = gen::copying_web(200, 4, 0.8, 23);
        let e = WalkEngine::new(&g);
        let mut multi = MultiFrontier::new();
        let a = multi.push_source(5, 16);
        let b = multi.push_source(9, 16);
        let mut rngs = vec![Pcg32::new(1, 1), Pcg32::new(2, 2)];
        multi.step(&e, &mut rngs, |_, _| {});
        let live_b = multi.live(b);
        multi.deactivate(a);
        assert_eq!(multi.live(a), 0);
        let rng_a_before = rngs[0].clone();
        let mut observed_a = 0u32;
        multi.step(&e, &mut rngs, |id, _| {
            if id == a {
                observed_a += 1;
            }
        });
        assert_eq!(observed_a, 0, "deactivated source must not be observed");
        assert_eq!(rngs[0], rng_a_before, "deactivated source must not draw");
        assert!(multi.live(b) <= live_b);
        assert!(multi.ids.iter().all(|&id| id == b), "a's walks were dropped");
        // clear() empties everything for reuse.
        multi.clear();
        assert!(multi.is_empty());
        assert_eq!(multi.num_sources(), 0);
        assert_eq!(multi.len(), 0);
    }

    #[test]
    fn frontier_occupancy_matches_reference_distribution() {
        // Different seeds, same per-step occupancy distribution: a χ²-style
        // tolerance check that the fast paths do not skew where walks go.
        let g = gen::erdos_renyi(50, 600, 23);
        let e = WalkEngine::new(&g);
        let n = g.num_vertices() as usize;
        let r = 20_000usize;
        let start = 7u32;
        let t_probe = 3usize;
        let mut fast_counts = vec![0u64; n];
        let mut ref_counts = vec![0u64; n];
        let mut pos = Vec::new();
        for trial in 0..4u64 {
            pos.clear();
            pos.resize(r / 4, start);
            let mut rng = Pcg32::new(1000 + trial, 1);
            for _ in 0..t_probe {
                e.step_frontier(&mut pos, &mut rng);
            }
            for &p in &pos {
                fast_counts[p as usize] += 1;
            }
            let mut slots = vec![start; r / 4];
            let mut rng = Pcg32::new(2000 + trial, 9);
            for _ in 0..t_probe {
                reference::step_all(&g, &mut slots, &mut rng);
            }
            for &p in &slots {
                if p != DEAD {
                    ref_counts[p as usize] += 1;
                }
            }
        }
        let total_fast: u64 = fast_counts.iter().sum();
        let total_ref: u64 = ref_counts.iter().sum();
        assert!(total_fast > 0 && total_ref > 0);
        let mut chi2 = 0.0f64;
        for v in 0..n {
            let pf = fast_counts[v] as f64 / total_fast as f64;
            let pr = ref_counts[v] as f64 / total_ref as f64;
            let denom = pf + pr;
            if denom > 0.0 {
                chi2 += (pf - pr) * (pf - pr) / denom;
            }
        }
        // Same distribution ⇒ χ² of the proportion difference stays tiny;
        // a systematically skewed kernel lands orders of magnitude higher.
        assert!(chi2 < 0.02, "occupancy distributions diverge: chi2 = {chi2}");
    }

    #[test]
    fn walk_positions_frontier_semantics() {
        let g = fixtures::path(4);
        let e = WalkEngine::new(&g);
        let mut wp = WalkPositions::new();
        wp.reset(3, 10);
        assert_eq!(wp.num_walks(), 10);
        assert_eq!(wp.len(), 10);
        let mut rng = Pcg32::new(1, 1);
        for expect_live in [10, 10, 10, 0] {
            wp.step(&e, &mut rng);
            let _ = expect_live;
        }
        assert!(wp.is_empty(), "all walks die after the path is exhausted");
        assert_eq!(wp.num_walks(), 10, "normalization constant survives death");
    }
}

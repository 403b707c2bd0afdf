//! Breadth-first search, distances, and components.
//!
//! The similarity search needs three distance facilities:
//!
//! 1. **Targeted undirected BFS from the query vertex** — the L1 bound
//!    `β(u, d)` is indexed by the distance `d(u, v)` of each candidate, and
//!    the search never looks past `d_max = T` (Section 6). Undirected
//!    distance is used because the triangle inequality in the proof of
//!    Proposition 4 requires a symmetric metric, and every reverse random
//!    walk of `t` steps stays inside the undirected ball of radius `t`.
//!    The query only needs the distances of its candidates, which sit
//!    within 2–4 hops (Section 5), so [`BfsBuffers::run_targeted`] stops
//!    once every candidate is placed and reports the depth `h` through
//!    which the ball is complete; the L1 table needs no more than that.
//!    The visited queue is level-ordered, so [`BfsBuffers::level`] hands
//!    out each distance's vertices as one slice: the query counts its
//!    candidate ball per distance instead of listing it.
//! 2. **Distance histograms of top-k result lists** — the Figure 2
//!    reproduction plots the average distance of the k-th most similar
//!    vertex.
//! 3. **Average pairwise distance estimation** — Figure 2's blue baseline,
//!    estimated by sampled BFS.
//!
//! [`BfsBuffers`] makes repeated traversals allocation-free: the visited
//! epoch array persists across calls (a standard trick for query workloads).

use crate::{Graph, VertexId};

/// Sentinel distance for unreached vertices.
pub const UNREACHED: u32 = u32::MAX;

/// Which adjacency a traversal follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Follow edges forward (`u → v`).
    Out,
    /// Follow in-links (the direction SimRank walks move).
    In,
    /// Treat edges as undirected (union of both adjacencies).
    Undirected,
}

/// Reusable state for repeated BFS traversals over the same graph.
///
/// The visited set is a bitset — 1 bit per vertex, so it stays
/// cache-resident even at millions of vertices (the per-neighbor
/// membership test is the hottest load in the traversal, and a word-wide
/// stamp array evicts itself once `n` outgrows L2). Reset costs
/// O(previous traversal) by clearing only the bits the last run set.
pub struct BfsBuffers {
    visited_bits: Vec<u64>,
    dist: Vec<u32>,
    queue: Vec<VertexId>,
    /// `level_ends[d]` is the end of distance `d`'s vertices in `queue`.
    level_ends: Vec<usize>,
    /// Targets of the current [`BfsBuffers::run_targeted`] call not yet
    /// placed.
    pending: Vec<VertexId>,
}

impl BfsBuffers {
    /// Allocates buffers for a graph of `n` vertices.
    pub fn new(n: u32) -> Self {
        BfsBuffers {
            visited_bits: vec![0; (n as usize).div_ceil(64)],
            dist: vec![UNREACHED; n as usize],
            queue: Vec::new(),
            level_ends: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// Grows the buffers to cover a graph of `n` vertices (a no-op when
    /// they already do).
    pub fn ensure(&mut self, n: u32) {
        let n = n as usize;
        if self.dist.len() < n {
            self.visited_bits.resize(n.div_ceil(64), 0);
            self.dist.resize(n, UNREACHED);
        }
    }

    /// Distance of `v` from the most recent traversal's source, or
    /// [`UNREACHED`].
    #[inline]
    pub fn distance(&self, v: VertexId) -> u32 {
        if self.seen(v) {
            self.dist[v as usize]
        } else {
            UNREACHED
        }
    }

    /// Vertices visited by the most recent traversal, in BFS order.
    #[inline]
    pub fn visited(&self) -> &[VertexId] {
        &self.queue
    }

    /// Vertices the most recent traversal visited at distance `d`, in BFS
    /// order (empty past the deepest level).
    #[inline]
    pub fn level(&self, d: u32) -> &[VertexId] {
        let d = d as usize;
        match self.level_ends.get(d) {
            Some(&end) => &self.queue[if d == 0 { 0 } else { self.level_ends[d - 1] }..end],
            None => &[],
        }
    }

    /// Number of levels the most recent traversal recorded: every visited
    /// vertex sits at a distance below it.
    #[inline]
    pub fn levels(&self) -> u32 {
        self.level_ends.len() as u32
    }

    fn begin(&mut self) {
        // Clear exactly the bits the previous traversal set.
        for i in 0..self.queue.len() {
            let v = self.queue[i] as usize;
            self.visited_bits[v >> 6] &= !(1u64 << (v & 63));
        }
        self.queue.clear();
        self.level_ends.clear();
    }

    #[inline]
    fn visit(&mut self, v: VertexId, d: u32) {
        self.visited_bits[v as usize >> 6] |= 1u64 << (v as usize & 63);
        self.dist[v as usize] = d;
        self.queue.push(v);
    }

    #[inline]
    fn seen(&self, v: VertexId) -> bool {
        (self.visited_bits[v as usize >> 6] >> (v as usize & 63)) & 1 == 1
    }

    /// BFS from `source` following `direction`, stopping at `max_depth`
    /// (inclusive). Results are read back with [`BfsBuffers::distance`] /
    /// [`BfsBuffers::visited`]. The untargeted case of
    /// [`BfsBuffers::run_targeted`].
    pub fn run(&mut self, g: &Graph, source: VertexId, direction: Direction, max_depth: u32) {
        self.run_targeted(g, source, direction, max_depth, max_depth, &[]);
    }

    /// BFS from `source` that stops as soon as every vertex of `targets`
    /// has a distance and at least `min_depth` levels are complete (both
    /// capped by `max_depth`: nothing deeper is ever visited, so a target
    /// beyond it stays [`UNREACHED`] and a `min_depth` above it acts as
    /// `max_depth`).
    ///
    /// Returns `h`, the depth through which the ball is **complete**:
    /// every vertex within distance `h` of `source` is visited with its
    /// exact distance. Beyond `h` only targets are placed, each at its
    /// exact distance `h + 1`. When the traversal exhausts the reachable
    /// set, or reaches `max_depth`, the ball is complete through
    /// `max_depth` and that is what is returned.
    ///
    /// The last level is resolved without expanding the frontier: once
    /// `min_depth` levels are complete, each level first probes only the
    /// still-unplaced targets for a neighbor on the current frontier. If
    /// all of them have one, they are placed one level deeper and the
    /// traversal ends; otherwise the level is expanded in full.
    ///
    /// Full levels are expanded top-down (scan the frontier's adjacency)
    /// until the frontier grows large, then bottom-up (scan the
    /// *unvisited* vertices and probe each for a frontier neighbor,
    /// early-exiting on the first hit) — the direction-optimizing scheme
    /// of Beamer et al. On small-world graphs the middle levels hold most
    /// of the graph, so the switch cuts the per-query traversal cost
    /// severalfold. Both expansions are level-synchronous, so distances
    /// are identical; only the within-level order of
    /// [`BfsBuffers::visited`] differs (bottom-up appends in ascending
    /// vertex id), and it stays deterministic.
    pub fn run_targeted(
        &mut self,
        g: &Graph,
        source: VertexId,
        direction: Direction,
        max_depth: u32,
        min_depth: u32,
        targets: &[VertexId],
    ) -> u32 {
        self.begin();
        self.visit(source, 0);
        self.pending.clear();
        self.pending.extend_from_slice(targets);
        let n = g.num_vertices() as usize;
        // Expected probes per bottom-up vertex before a frontier hit are
        // bounded by its degree; 2m/n is the mean over both lists (the
        // undirected expansion walks both).
        let avg_deg = (2 * g.num_edges() / n.max(1) as u64).max(1);
        let mut level_start = 0usize;
        let mut d = 0u32;
        loop {
            let level_end = self.queue.len();
            self.level_ends.push(level_end);
            if d >= max_depth || level_start == level_end || level_end == n {
                return max_depth;
            }
            if d >= min_depth && self.resolve_targets(g, direction, d) {
                // The placed targets are level d + 1.
                self.level_ends.push(self.queue.len());
                return d;
            }
            let frontier = (level_end - level_start) as u64;
            let unvisited = (n - level_end) as u64;
            // Top-down touches ~frontier·avg_deg adjacency slots; bottom-up
            // touches at most ~unvisited early-exited probes plus a bitset
            // sweep. The size guard keeps small graphs (and small levels)
            // on the classic queue expansion.
            if frontier > 64 && frontier * avg_deg > unvisited {
                self.expand_bottom_up(g, direction, d);
            } else {
                self.expand_top_down(g, direction, d, level_start, level_end);
            }
            level_start = level_end;
            d += 1;
        }
    }

    /// With levels `0..=d` complete: drops already-placed targets, then
    /// tries to place every remaining one at `d + 1` by probing it for a
    /// frontier neighbor. All-or-nothing — returns `true` (and places
    /// them) only if every remaining target has one. A target that fails
    /// moves to the front, so the next level's probe stops at it first.
    fn resolve_targets(&mut self, g: &Graph, direction: Direction, d: u32) -> bool {
        let mut pending = std::mem::take(&mut self.pending);
        pending.retain(|&v| !self.seen(v));
        let mut all = true;
        for i in 0..pending.len() {
            if !self.has_frontier_neighbor(g, direction, pending[i], d) {
                pending.swap(0, i);
                all = false;
                break;
            }
        }
        if all {
            for &v in &pending {
                // Duplicate targets: place each vertex once.
                if !self.seen(v) {
                    self.visit(v, d + 1);
                }
            }
            pending.clear();
        }
        self.pending = pending;
        all
    }

    /// Expands one level by scanning the frontier `queue[start..end]`.
    fn expand_top_down(&mut self, g: &Graph, direction: Direction, d: u32, start: usize, end: usize) {
        for i in start..end {
            let u = self.queue[i];
            match direction {
                Direction::Out => {
                    for &v in g.out_neighbors(u) {
                        if !self.seen(v) {
                            self.visit(v, d + 1);
                        }
                    }
                }
                Direction::In => {
                    for &v in g.in_neighbors(u) {
                        if !self.seen(v) {
                            self.visit(v, d + 1);
                        }
                    }
                }
                Direction::Undirected => {
                    for &v in g.out_neighbors(u) {
                        if !self.seen(v) {
                            self.visit(v, d + 1);
                        }
                    }
                    for &v in g.in_neighbors(u) {
                        if !self.seen(v) {
                            self.visit(v, d + 1);
                        }
                    }
                }
            }
        }
    }

    /// Expands one level by scanning the unvisited vertices (zero bits of
    /// the visited bitset) and probing each for a neighbor at distance `d`.
    fn expand_bottom_up(&mut self, g: &Graph, direction: Direction, d: u32) {
        let n = g.num_vertices() as usize;
        let words = self.visited_bits.len();
        for wi in 0..words {
            let mut todo = !self.visited_bits[wi];
            if wi == words - 1 && !n.is_multiple_of(64) {
                todo &= (1u64 << (n % 64)) - 1;
            }
            while todo != 0 {
                let v = (wi * 64 + todo.trailing_zeros() as usize) as VertexId;
                todo &= todo - 1;
                if self.has_frontier_neighbor(g, direction, v, d) {
                    self.visit(v, d + 1);
                }
            }
        }
    }

    /// Whether `v` has a neighbor on the current frontier (distance `d`)
    /// that `direction` would expand into `v`.
    #[inline]
    fn has_frontier_neighbor(&self, g: &Graph, direction: Direction, v: VertexId, d: u32) -> bool {
        // An edge w→v puts v in w's `Out` expansion, so the probe walks
        // v's *in*-list (and vice versa).
        match direction {
            Direction::Out => self.frontier_neighbor(g.in_neighbors(v), d),
            Direction::In => self.frontier_neighbor(g.out_neighbors(v), d),
            Direction::Undirected => {
                self.frontier_neighbor(g.out_neighbors(v), d) || self.frontier_neighbor(g.in_neighbors(v), d)
            }
        }
    }

    /// Whether any of `ws` sits on the current frontier (distance `d`).
    #[inline]
    fn frontier_neighbor(&self, ws: &[VertexId], d: u32) -> bool {
        ws.iter().any(|&w| self.seen(w) && self.dist[w as usize] == d)
    }
}

/// Full single-source distances (unbounded depth). Convenience wrapper used
/// by tests and the exact pipelines; for query-path use prefer
/// [`BfsBuffers`].
pub fn distances(g: &Graph, source: VertexId, direction: Direction) -> Vec<u32> {
    let mut b = BfsBuffers::new(g.num_vertices());
    b.run(g, source, direction, u32::MAX - 1);
    (0..g.num_vertices()).map(|v| b.distance(v)).collect()
}

/// Estimates the average finite pairwise (undirected) distance by running
/// BFS from `samples` sources chosen deterministically from `seed`.
/// This is the blue baseline of Figure 2.
pub fn estimate_average_distance(g: &Graph, samples: u32, seed: u64) -> f64 {
    let n = g.num_vertices();
    if n == 0 {
        return 0.0;
    }
    let mut b = BfsBuffers::new(n);
    let mut total = 0u64;
    let mut count = 0u64;
    for i in 0..samples {
        let s = (crate::hash::mix_seed(&[seed, i as u64]) % n as u64) as VertexId;
        b.run(g, s, Direction::Undirected, u32::MAX - 1);
        for &v in b.visited() {
            if v != s {
                total += b.distance(v) as u64;
                count += 1;
            }
        }
    }
    if count == 0 {
        0.0
    } else {
        total as f64 / count as f64
    }
}

/// Weakly connected components. Returns `(component_id_per_vertex,
/// component_count)`.
pub fn weakly_connected_components(g: &Graph) -> (Vec<u32>, u32) {
    let n = g.num_vertices();
    let mut comp = vec![u32::MAX; n as usize];
    let mut next = 0u32;
    let mut b = BfsBuffers::new(n);
    for s in 0..n {
        if comp[s as usize] != u32::MAX {
            continue;
        }
        b.run(g, s, Direction::Undirected, u32::MAX - 1);
        for &v in b.visited() {
            comp[v as usize] = next;
        }
        next += 1;
    }
    (comp, next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    fn path_graph() -> Graph {
        // 0 → 1 → 2 → 3
        Graph::from_edges(4, vec![(0, 1), (1, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn directed_out_distances() {
        let d = distances(&path_graph(), 0, Direction::Out);
        assert_eq!(d, vec![0, 1, 2, 3]);
    }

    #[test]
    fn directed_in_distances() {
        let d = distances(&path_graph(), 3, Direction::In);
        assert_eq!(d, vec![3, 2, 1, 0]);
        let d0 = distances(&path_graph(), 0, Direction::In);
        assert_eq!(d0, vec![0, UNREACHED, UNREACHED, UNREACHED]);
    }

    #[test]
    fn undirected_distances() {
        let d = distances(&path_graph(), 1, Direction::Undirected);
        assert_eq!(d, vec![1, 0, 1, 2]);
    }

    #[test]
    fn bounded_depth() {
        let mut b = BfsBuffers::new(4);
        b.run(&path_graph(), 0, Direction::Out, 1);
        assert_eq!(b.distance(1), 1);
        assert_eq!(b.distance(2), UNREACHED);
        assert_eq!(b.visited(), &[0, 1]);
    }

    #[test]
    fn buffers_reusable_across_queries() {
        let g = path_graph();
        let mut b = BfsBuffers::new(4);
        b.run(&g, 0, Direction::Out, 10);
        assert_eq!(b.distance(3), 3);
        b.run(&g, 3, Direction::Out, 10);
        assert_eq!(b.distance(3), 0);
        assert_eq!(b.distance(0), UNREACHED); // stale state must not leak
    }

    #[test]
    fn targeted_stops_once_targets_are_placed() {
        // 0 → 1 → 2 → 3 → 4 → 5: target 2 needs levels 0..=1 complete
        // plus a probe; nothing past it is visited.
        let g = crate::gen::fixtures::path(6);
        let mut b = BfsBuffers::new(6);
        let h = b.run_targeted(&g, 0, Direction::Out, 10, 0, &[2]);
        assert_eq!(h, 1);
        assert_eq!(b.distance(2), 2);
        assert_eq!(b.distance(3), UNREACHED);
        assert_eq!(b.visited(), &[0, 1, 2]);
        // min_depth forces complete levels past the last target.
        let h = b.run_targeted(&g, 0, Direction::Out, 10, 3, &[1]);
        assert_eq!(h, 3);
        assert_eq!(b.visited(), &[0, 1, 2, 3]);
        // A target beyond max_depth stays unreached; min_depth above
        // max_depth acts as max_depth.
        let h = b.run_targeted(&g, 0, Direction::Out, 2, 9, &[4]);
        assert_eq!(h, 2);
        assert_eq!(b.distance(4), UNREACHED);
        assert_eq!(b.visited(), &[0, 1, 2]);
        // Exhausting the reachable set completes the ball at any depth.
        let h = b.run_targeted(&g, 5, Direction::Out, 7, 0, &[0]);
        assert_eq!(h, 7);
        assert_eq!(b.distance(0), UNREACHED);
    }

    /// Plain queue BFS, independent of [`BfsBuffers`].
    fn reference_distances(g: &Graph, source: VertexId, direction: Direction) -> Vec<u32> {
        let mut dist = vec![UNREACHED; g.num_vertices() as usize];
        let mut queue = std::collections::VecDeque::from([source]);
        dist[source as usize] = 0;
        while let Some(u) = queue.pop_front() {
            let (out, inn): (&[VertexId], &[VertexId]) = match direction {
                Direction::Out => (g.out_neighbors(u), &[]),
                Direction::In => (&[], g.in_neighbors(u)),
                Direction::Undirected => (g.out_neighbors(u), g.in_neighbors(u)),
            };
            for &v in out.iter().chain(inn) {
                if dist[v as usize] == UNREACHED {
                    dist[v as usize] = dist[u as usize] + 1;
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    #[test]
    fn targeted_bfs_agrees_with_full_bfs() {
        use crate::gen;
        let graphs = [
            gen::erdos_renyi(300, 900, 1),
            gen::erdos_renyi(200, 120, 2), // many components
            gen::preferential_attachment_windowed(400, 4, 60, 3),
            gen::copying_web(400, 3, 0.8, 4),
            gen::copying_web(3000, 4, 0.8, 5), // frontiers big enough for bottom-up levels
            Graph::from_edges(9, vec![(0, 1), (1, 2), (3, 4), (5, 6), (6, 5)]).unwrap(),
            Graph::from_edges(1, vec![]).unwrap(),
            Graph::from_edges(2, vec![(1, 0)]).unwrap(),
        ];
        let dirs = [Direction::Out, Direction::In, Direction::Undirected];
        let mut trials = 0;
        for (gi, g) in graphs.iter().enumerate() {
            let n = g.num_vertices();
            let mut b = BfsBuffers::new(n);
            for trial in 0..60u64 {
                let r = |salt: u64| crate::hash::mix_seed(&[gi as u64, trial, salt]);
                let source = (r(0) % n as u64) as VertexId;
                let direction = dirs[(r(1) % 3) as usize];
                let max_depth = if r(2) % 4 == 0 { u32::MAX - 1 } else { (r(3) % 7) as u32 };
                let min_depth = (r(4) % 9) as u32;
                let targets: Vec<VertexId> =
                    (0..r(5) % 12).map(|i| (r(100 + i) % n as u64) as VertexId).collect();
                let full = reference_distances(g, source, direction);
                let h = b.run_targeted(g, source, direction, max_depth, min_depth, &targets);
                let ctx = format!("graph {gi} trial {trial}: source {source} {direction:?} max {max_depth} min {min_depth} targets {targets:?} h {h}");
                assert!(h <= max_depth && h >= min_depth.min(max_depth), "{ctx}");
                for v in 0..n {
                    let (got, want) = (b.distance(v), full[v as usize]);
                    if want <= h {
                        assert_eq!(got, want, "{ctx}: vertex {v} inside the complete ball");
                    } else if got != UNREACHED {
                        // Only targets are placed past the ball, one level out.
                        assert!(
                            got == want && want == h + 1 && targets.contains(&v),
                            "{ctx}: vertex {v} at {got}"
                        );
                    }
                }
                let mut max_target = 0;
                for &t in &targets {
                    let want = full[t as usize];
                    if want <= max_depth {
                        assert_eq!(b.distance(t), want, "{ctx}: target {t}");
                        max_target = max_target.max(want);
                    } else {
                        assert_eq!(b.distance(t), UNREACHED, "{ctx}: target {t} beyond max_depth");
                    }
                }
                assert!(h + 1 >= max_target, "{ctx}: ball too shallow for target distance {max_target}");
                let mut seen: Vec<VertexId> = b.visited().to_vec();
                seen.sort_unstable();
                seen.dedup();
                assert_eq!(seen.len(), b.visited().len(), "{ctx}: duplicate visits");
                // The levels partition the visited queue by distance.
                let mut at = 0;
                for d in 0..b.levels() {
                    let level = b.level(d);
                    assert_eq!(level, &b.visited()[at..at + level.len()], "{ctx}: level {d} out of order");
                    assert!(level.iter().all(|&v| b.distance(v) == d), "{ctx}: level {d}");
                    at += level.len();
                }
                assert_eq!(at, b.visited().len(), "{ctx}: a visited vertex outside every level");
                assert!(b.level(b.levels()).is_empty(), "{ctx}");
                trials += 1;
            }
        }
        assert_eq!(trials, graphs.len() * 60);
    }

    #[test]
    fn average_distance_path() {
        // Path on 4 vertices: exact average over ordered pairs is 20/12.
        let avg = estimate_average_distance(&path_graph(), 64, 7);
        assert!((avg - 20.0 / 12.0).abs() < 0.25, "avg={avg}");
    }

    #[test]
    fn components() {
        let g = Graph::from_edges(5, vec![(0, 1), (3, 4)]).unwrap();
        let (comp, k) = weakly_connected_components(&g);
        assert_eq!(k, 3);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[3], comp[4]);
        assert_ne!(comp[0], comp[2]);
        assert_ne!(comp[0], comp[3]);
    }

    #[test]
    fn bfs_matches_floyd_warshall_on_random_graph() {
        // Deterministic small random digraph; undirected BFS vs Floyd.
        let n: u32 = 12;
        let mut edges = Vec::new();
        for u in 0..n {
            for v in 0..n {
                if u != v && crate::hash::mix_seed(&[u as u64, v as u64, 99]).is_multiple_of(5) {
                    edges.push((u, v));
                }
            }
        }
        let g = Graph::from_edges(n, edges.clone()).unwrap();
        let inf = 1_000_000i64;
        let mut fw = vec![vec![inf; n as usize]; n as usize];
        for i in 0..n as usize {
            fw[i][i] = 0;
        }
        for &(u, v) in &edges {
            fw[u as usize][v as usize] = 1;
            fw[v as usize][u as usize] = 1;
        }
        for k in 0..n as usize {
            for i in 0..n as usize {
                for j in 0..n as usize {
                    let via = fw[i][k] + fw[k][j];
                    if via < fw[i][j] {
                        fw[i][j] = via;
                    }
                }
            }
        }
        for s in 0..n {
            let d = distances(&g, s, Direction::Undirected);
            for v in 0..n as usize {
                let expect = fw[s as usize][v];
                if expect >= inf {
                    assert_eq!(d[v], UNREACHED);
                } else {
                    assert_eq!(d[v] as i64, expect, "s={s} v={v}");
                }
            }
        }
    }
}

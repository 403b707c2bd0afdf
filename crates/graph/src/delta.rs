//! Batched graph mutations: [`GraphDelta`] and frontier-based dirty-set
//! dilation.
//!
//! [`Graph`] is immutable by design — every hot array is shareable and
//! possibly memory-mapped — so "mutating" a served graph means building a
//! new CSR. A [`GraphDelta`] is the deterministic recipe for that build:
//! a batch of edge insertions, edge deletions, and append-only vertex
//! growth. Applying the same delta to the same base always produces the
//! same graph (adjacency arrays are canonical: sorted, deduplicated), which
//! is what lets incremental index maintenance and delta snapshots promise
//! bit-identical results.
//!
//! Semantics of [`GraphDelta::apply`]:
//!
//! * final edge set = `(base ∖ deletions) ∪ insertions` — an edge listed
//!   in both ends up **present**;
//! * inserting an existing edge and deleting a missing edge are no-ops;
//! * vertex ids are append-only: the delta may grow `n`, never shrink it;
//! * self-loops are dropped, matching [`crate::GraphBuilder`]'s default.
//!
//! [`dilate_dirty`] is the companion for incremental index maintenance:
//! given the set of directly-changed vertices it expands along forward
//! edges — one level per reverse-walk step that could observe a change —
//! visiting only the frontier's out-edges (`O(edges touched)`) instead of
//! rescanning every vertex per step.

use crate::{Graph, GraphError, VertexId};

/// Magic prefix of the serialized edit-batch format (see
/// [`GraphDelta::to_bytes`]).
pub const EDIT_MAGIC: &[u8; 8] = b"SRSEDIT1";

/// One batch may append at most `max(base_n, GROWTH_FLOOR)` vertices to a
/// base graph of `base_n`: it can double a graph, or add this many to a
/// small one. A larger `grow` fails in [`GraphDelta::apply`] before any
/// CSR array is sized, so a short edit line cannot make the caller
/// allocate billions of vertices.
pub const GROWTH_FLOOR: u32 = 65_536;

/// A deterministic batch of graph mutations: edge insertions, edge
/// deletions, and append-only vertex growth.
///
/// # Examples
///
/// ```
/// use srs_graph::{Graph, GraphDelta};
///
/// let base = Graph::from_edges(3, vec![(0, 1), (1, 2)]).unwrap();
/// let mut d = GraphDelta::new();
/// d.grow_to(4);
/// d.insert(3, 1);
/// d.delete(1, 2);
/// let g = d.apply(&base).unwrap();
/// assert_eq!(g.num_vertices(), 4);
/// assert_eq!(g.in_neighbors(1), &[0, 3]);
/// assert!(!g.has_edge(1, 2));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphDelta {
    /// Requested vertex count; the applied graph has
    /// `max(base_n, grow_to)` vertices (0 = keep the base count).
    grow_to: u32,
    insertions: Vec<(VertexId, VertexId)>,
    deletions: Vec<(VertexId, VertexId)>,
}

impl GraphDelta {
    /// An empty delta (applying it clones the base graph).
    pub fn new() -> Self {
        GraphDelta::default()
    }

    /// Requests the applied graph have at least `n` vertices. Growth is
    /// append-only: a value at or below the base count is a no-op.
    pub fn grow_to(&mut self, n: u32) {
        self.grow_to = self.grow_to.max(n);
    }

    /// Stages the insertion of edge `u → v`.
    pub fn insert(&mut self, u: VertexId, v: VertexId) {
        self.insertions.push((u, v));
    }

    /// Stages the deletion of edge `u → v`.
    pub fn delete(&mut self, u: VertexId, v: VertexId) {
        self.deletions.push((u, v));
    }

    /// Number of staged insertions (before deduplication).
    pub fn num_insertions(&self) -> usize {
        self.insertions.len()
    }

    /// Number of staged deletions (before deduplication).
    pub fn num_deletions(&self) -> usize {
        self.deletions.len()
    }

    /// Requested vertex count (0 = keep the base count).
    pub fn requested_vertices(&self) -> u32 {
        self.grow_to
    }

    /// `true` iff applying this delta cannot change any graph.
    pub fn is_empty(&self) -> bool {
        self.insertions.is_empty() && self.deletions.is_empty() && self.grow_to == 0
    }

    /// Sorts and deduplicates the staged edits, making two deltas with the
    /// same effect compare equal. Called automatically by
    /// [`GraphDelta::apply`] and [`GraphDelta::to_bytes`].
    pub fn normalize(&mut self) {
        self.insertions.sort_unstable();
        self.insertions.dedup();
        self.deletions.sort_unstable();
        self.deletions.dedup();
    }

    /// Applies the delta to `base`, producing a new canonical CSR graph
    /// (with fresh reverse-step descriptors). `O(m + |edits| log |edits|)`.
    /// Growth past `base_n + max(base_n, GROWTH_FLOOR)` vertices is
    /// [`GraphError::TooManyVertices`].
    pub fn apply(&self, base: &Graph) -> Result<Graph, GraphError> {
        let base_n = base.num_vertices();
        if self.grow_to as u64 > base_n as u64 + base_n.max(GROWTH_FLOOR) as u64 {
            return Err(GraphError::TooManyVertices(self.grow_to as u64));
        }
        let n = base_n.max(self.grow_to);
        for &(u, v) in self.insertions.iter().chain(&self.deletions) {
            if u >= n || v >= n {
                return Err(GraphError::VertexOutOfRange { vertex: u.max(v) as u64, n: n as u64 });
            }
        }
        let mut dels = self.deletions.clone();
        dels.sort_unstable();
        dels.dedup();
        let kept = base.edges().filter(|e| dels.binary_search(e).is_err());
        Graph::from_edges(n, kept.chain(self.insertions.iter().copied()))
    }

    /// Serializes the delta to the `SRSEDIT1` byte format (normalizing
    /// first). This is the payload of both the `POST /admin/ingest` body
    /// (binary variant) and the delta bundle's edit section.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut d = self.clone();
        d.normalize();
        let mut out = Vec::with_capacity(32 + 8 * (d.insertions.len() + d.deletions.len()));
        out.extend_from_slice(EDIT_MAGIC);
        out.extend_from_slice(&d.grow_to.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes()); // reserved
        out.extend_from_slice(&(d.insertions.len() as u64).to_le_bytes());
        out.extend_from_slice(&(d.deletions.len() as u64).to_le_bytes());
        for &(u, v) in d.insertions.iter().chain(&d.deletions) {
            out.extend_from_slice(&u.to_le_bytes());
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Inverse of [`GraphDelta::to_bytes`]. Every length and count is
    /// validated, so arbitrary bytes yield [`GraphError::Format`], never a
    /// panic.
    pub fn from_bytes(bytes: &[u8]) -> Result<GraphDelta, GraphError> {
        let fail = |m: &str| GraphError::Format(format!("edit batch: {m}"));
        if bytes.len() < 32 {
            return Err(fail("shorter than the 32-byte header"));
        }
        if &bytes[..8] != EDIT_MAGIC {
            return Err(fail("bad magic (want SRSEDIT1)"));
        }
        let grow_to = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        let n_ins = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
        let n_del = u64::from_le_bytes(bytes[24..32].try_into().unwrap());
        let pairs = n_ins.checked_add(n_del).ok_or_else(|| fail("edit count overflow"))?;
        let want =
            pairs.checked_mul(8).and_then(|b| b.checked_add(32)).ok_or_else(|| fail("size overflow"))?;
        if bytes.len() as u64 != want {
            return Err(fail(&format!("{} bytes, header promises {want}", bytes.len())));
        }
        let mut read = |i: u64| {
            let off = 32 + 8 * i as usize;
            (
                u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()),
                u32::from_le_bytes(bytes[off + 4..off + 8].try_into().unwrap()),
            )
        };
        let insertions = (0..n_ins).map(&mut read).collect();
        let deletions = (n_ins..pairs).map(&mut read).collect();
        Ok(GraphDelta { grow_to, insertions, deletions })
    }

    /// Parses the line-oriented text form used by `srs ingest` and the
    /// `POST /admin/ingest` body:
    ///
    /// ```text
    /// # comment
    /// grow 120      # raise the vertex count to ≥ 120
    /// + 5 7         # insert edge 5 → 7
    /// - 3 2         # delete edge 3 → 2
    /// 5 9           # bare pair = insertion
    /// ```
    pub fn parse_text(text: &str) -> Result<GraphDelta, GraphError> {
        let mut d = GraphDelta::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |m: String| GraphError::Parse { line: i + 1, message: m };
            let mut fields = line.split_whitespace();
            let head = fields.next().unwrap();
            let parse_id = |s: Option<&str>| {
                s.ok_or_else(|| err("missing vertex id".into()))?
                    .parse::<u32>()
                    .map_err(|e| err(format!("bad vertex id: {e}")))
            };
            match head {
                "grow" => {
                    d.grow_to(parse_id(fields.next())?);
                }
                "+" => {
                    let (u, v) = (parse_id(fields.next())?, parse_id(fields.next())?);
                    d.insert(u, v);
                }
                "-" => {
                    let (u, v) = (parse_id(fields.next())?, parse_id(fields.next())?);
                    d.delete(u, v);
                }
                _ => {
                    let u = head.parse::<u32>().map_err(|e| err(format!("bad vertex id: {e}")))?;
                    d.insert(u, parse_id(fields.next())?);
                }
            }
            if let Some(extra) = fields.next() {
                return Err(err(format!("trailing field {extra:?}")));
            }
        }
        Ok(d)
    }
}

/// Expands a dirty-vertex set `depth` steps along **forward** edges: a
/// vertex becomes dirty when any of its in-neighbours is dirty, i.e.
/// dirtiness propagates `w → u` for every edge `w → u`. One level per
/// reverse-walk step that can observe a change; the expansion is
/// level-synchronous BFS over the frontier's out-edges only, so the cost
/// is `O(edges touched)` rather than `O(n · depth)`.
///
/// Returns the number of vertices newly marked dirty. The result is
/// identical to `depth` rounds of "mark `u` if any in-neighbour was dirty
/// at the round's start" (tested against that reference loop).
pub fn dilate_dirty(g: &Graph, dirty: &mut [bool], depth: u32) -> u64 {
    assert_eq!(dirty.len(), g.num_vertices() as usize, "dirty mask must cover every vertex");
    let mut frontier: Vec<VertexId> = (0..g.num_vertices()).filter(|&v| dirty[v as usize]).collect();
    let mut added = 0u64;
    for _ in 0..depth {
        if frontier.is_empty() {
            break;
        }
        let mut next = Vec::new();
        for &w in &frontier {
            for &u in g.out_neighbors(w) {
                if !dirty[u as usize] {
                    dirty[u as usize] = true;
                    next.push(u);
                    added += 1;
                }
            }
        }
        frontier = next;
    }
    added
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Graph {
        Graph::from_edges(5, vec![(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]).unwrap()
    }

    #[test]
    fn apply_insert_delete_grow() {
        let g = base();
        let mut d = GraphDelta::new();
        d.grow_to(7);
        d.insert(5, 2);
        d.insert(6, 5);
        d.delete(0, 2);
        let g2 = d.apply(&g).unwrap();
        assert_eq!(g2.num_vertices(), 7);
        assert!(g2.has_edge(5, 2) && g2.has_edge(6, 5));
        assert!(!g2.has_edge(0, 2));
        assert!(g2.has_edge(0, 1), "untouched edges survive");
        assert_eq!(g2.num_edges(), g.num_edges() - 1 + 2);
    }

    #[test]
    fn growth_beyond_the_batch_bound_is_rejected() {
        let g = base();
        let limit = 5 + GROWTH_FLOOR;
        let mut ok = GraphDelta::new();
        ok.grow_to(limit);
        assert_eq!(ok.apply(&g).unwrap().num_vertices(), limit);
        let mut over = GraphDelta::new();
        over.grow_to(limit + 1);
        assert!(matches!(over.apply(&g), Err(GraphError::TooManyVertices(n)) if n == limit as u64 + 1));
        // The same 4e9-vertex request as text and as SRSEDIT1 bytes fails
        // before any CSR array is sized.
        let text = GraphDelta::parse_text("grow 4000000000\n").unwrap();
        let binary = GraphDelta::from_bytes(&text.to_bytes()).unwrap();
        for d in [text, binary] {
            assert!(matches!(d.apply(&g), Err(GraphError::TooManyVertices(4_000_000_000))));
        }
        // Past the floor, a batch may double the graph and no more.
        let big = Graph::from_edges(2 * GROWTH_FLOOR, vec![(0, 1)]).unwrap();
        let mut double = GraphDelta::new();
        double.grow_to(4 * GROWTH_FLOOR);
        assert_eq!(double.apply(&big).unwrap().num_vertices(), 4 * GROWTH_FLOOR);
        double.grow_to(4 * GROWTH_FLOOR + 1);
        assert!(matches!(double.apply(&big), Err(GraphError::TooManyVertices(_))));
    }

    #[test]
    fn insert_wins_over_delete_and_noops() {
        let g = base();
        let mut d = GraphDelta::new();
        d.delete(0, 1); // exists
        d.insert(0, 1); // …and re-inserted: ends present
        d.delete(4, 0); // never existed: no-op
        d.insert(1, 2); // already present: no-op
        let g2 = d.apply(&g).unwrap();
        assert!(g2.has_edge(0, 1));
        assert_eq!(g2.num_edges(), g.num_edges());
    }

    #[test]
    fn empty_delta_is_identity() {
        let g = base();
        let d = GraphDelta::new();
        assert!(d.is_empty());
        assert_eq!(d.apply(&g).unwrap(), g);
    }

    #[test]
    fn out_of_range_rejected_and_shrink_impossible() {
        let g = base();
        let mut d = GraphDelta::new();
        d.insert(0, 9);
        assert!(matches!(d.apply(&g), Err(GraphError::VertexOutOfRange { vertex: 9, n: 5 })));
        let mut d = GraphDelta::new();
        d.grow_to(2); // below base n: no-op, never a shrink
        assert_eq!(d.apply(&g).unwrap().num_vertices(), 5);
    }

    #[test]
    fn bytes_roundtrip_is_normalized() {
        let mut d = GraphDelta::new();
        d.grow_to(10);
        d.insert(3, 4);
        d.insert(1, 2);
        d.insert(3, 4); // duplicate
        d.delete(0, 1);
        let bytes = d.to_bytes();
        let back = GraphDelta::from_bytes(&bytes).unwrap();
        assert_eq!(back.num_insertions(), 2);
        assert_eq!(back.num_deletions(), 1);
        assert_eq!(back.requested_vertices(), 10);
        assert_eq!(back.to_bytes(), bytes, "normalized form is a fixpoint");
    }

    #[test]
    fn bytes_rejects_garbage() {
        assert!(GraphDelta::from_bytes(b"short").is_err());
        assert!(GraphDelta::from_bytes(b"NOTMAGIC________________________").is_err());
        let mut ok = GraphDelta::new();
        ok.insert(1, 2);
        let mut bytes = ok.to_bytes();
        bytes.truncate(bytes.len() - 1); // length mismatch
        assert!(GraphDelta::from_bytes(&bytes).is_err());
        // Count overflow must not panic.
        let mut huge = ok.to_bytes();
        huge[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(GraphDelta::from_bytes(&huge).is_err());
    }

    #[test]
    fn text_form_parses() {
        let d = GraphDelta::parse_text("# c\n\ngrow 12\n+ 5 7\n- 3 2\n5 9\n").unwrap();
        assert_eq!(d.requested_vertices(), 12);
        assert_eq!(d.num_insertions(), 2);
        assert_eq!(d.num_deletions(), 1);
        for bad in ["+ 1", "- a b", "grow x", "1 2 3", "+ 1 2 extra"] {
            assert!(GraphDelta::parse_text(bad).is_err(), "{bad:?} should fail");
        }
    }

    /// The reference dilation: full scan per step, mark `u` if any
    /// in-neighbour was dirty at the step's start.
    fn dilate_reference(g: &Graph, dirty: &mut [bool], depth: u32) {
        for _ in 0..depth {
            let snapshot = dirty.to_vec();
            let mut changed = false;
            for u in 0..g.num_vertices() {
                if !dirty[u as usize] && g.in_neighbors(u).iter().any(|&w| snapshot[w as usize]) {
                    dirty[u as usize] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }

    #[test]
    fn frontier_dilation_matches_reference_loop() {
        // Pseudo-random-ish deterministic graph, several seed patterns.
        let n = 200u32;
        let edges: Vec<(u32, u32)> =
            (0..n).flat_map(|u| [(u, (u * 7 + 3) % n), (u, (u * 13 + 1) % n)]).collect();
        let g = Graph::from_edges(n, edges).unwrap();
        for (seeds, depth) in
            [(vec![0u32], 0), (vec![5, 9], 1), (vec![42], 3), (vec![1, 100, 199], 10), (vec![], 4)]
        {
            let mut a = vec![false; n as usize];
            let mut b = vec![false; n as usize];
            for &s in &seeds {
                a[s as usize] = true;
                b[s as usize] = true;
            }
            let added = dilate_dirty(&g, &mut a, depth);
            dilate_reference(&g, &mut b, depth);
            assert_eq!(a, b, "seeds {seeds:?} depth {depth}");
            assert_eq!(added, a.iter().filter(|&&d| d).count() as u64 - seeds.len() as u64);
        }
    }
}

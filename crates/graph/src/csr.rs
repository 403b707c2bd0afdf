//! Compressed sparse row (CSR) directed graph storage.
//!
//! [`Graph`] stores both directions of every edge:
//!
//! * `out`: for each `u`, the targets of edges `u → v` (successors);
//! * `in_`: for each `v`, the sources of edges `u → v` (predecessors,
//!   i.e. the *in-links* `δ(v)` of the paper).
//!
//! SimRank's random surfer walks **backwards** along in-links, so the
//! in-adjacency arrays are the hot data. Adjacency lists are sorted, which
//! makes membership tests binary-searchable and the representation canonical
//! (two graphs with the same edge set compare equal).

use crate::container::{BundleReader, BundleWriter};
use crate::storage::{MemoryProfile, SharedSlice};
use crate::{GraphError, VertexId};

/// How much validation [`Graph::from_bundle_with`] performs on top of
/// the container's structural checks.
///
/// Both levels guarantee *panic-freedom*: every array access a query
/// can make is bounds-proven at load (offset monotonicity, id ranges,
/// descriptor target ranges), so even a hand-crafted bundle can never
/// make the query path index out of bounds. The difference is whether
/// *derived* data is proven consistent with its source arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ValidationLevel {
    /// Full semantic validation: additionally proves the in-CSR is
    /// exactly the transpose of the out-CSR with strictly ascending
    /// lists, and rebuilds the reverse-step descriptors from the in-CSR
    /// and compares, so a consistent graph is the only thing the loader
    /// can return. O(n + m) with two O(n) allocations — the classic
    /// heap-load behaviour.
    #[default]
    Deep,
    /// Panic-safety only: range/monotonicity scans (word-wide, cheap)
    /// without the descriptor rebuild. An inconsistent-but-in-range
    /// descriptor section yields wrong *scores*, never a crash; pair
    /// with checksum verification (eager or background) to rule out
    /// accidental corruption. This is the `mmap` fast-start level.
    Safety,
}

/// Decoded reverse-step fast path of one vertex (see
/// [`Graph::reverse_step`]). Walk kernels branch on this instead of
/// touching the CSR arrays: the degree-0 and degree-1 cases — the
/// majority of vertices on web/social graphs — resolve from a single
/// 8-byte descriptor load, with no offset lookup and no RNG draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReverseStep {
    /// No in-links: a reverse walk arriving here dies.
    Dead,
    /// Exactly one in-link: the walk follows it deterministically.
    Unique(VertexId),
    /// Two or more in-links: pick uniformly from
    /// `in_sources[offset..offset + len]` (see [`Graph::in_source_at`]).
    Branch {
        /// Start of the in-neighbour slice in the flat in-sources array.
        offset: u64,
        /// In-degree (slice length), ≥ 2.
        len: u32,
    },
}

/// Descriptor encoding: the top 24 bits hold `min(in_degree, LEN_SAT)`,
/// the low 40 bits hold the in-sources offset — except for degree 1,
/// where the low 32 bits hold the unique in-neighbour directly, saving
/// the dependent CSR load. `LEN_SAT` (and any offset ≥ 2⁴⁰) falls back
/// to reading the exact offsets, so the encoding never loses information.
const DESC_LEN_SHIFT: u32 = 40;
const DESC_OFFSET_MASK: u64 = (1 << DESC_LEN_SHIFT) - 1;
const DESC_LEN_SAT: u64 = (1 << 24) - 1;

/// How [`GraphBuilder`] treats self-loops `u → u`.
///
/// SimRank's definition gives `s(u,u) = 1` regardless of loops, and the
/// random-surfer interpretation is cleanest without them, so the default for
/// dataset loading is [`SelfLoopPolicy::Drop`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelfLoopPolicy {
    /// Silently discard self-loops (default; matches common SNAP cleaning).
    #[default]
    Drop,
    /// Keep self-loops as ordinary edges.
    Keep,
    /// Fail construction on the first self-loop.
    Error,
}

/// Accumulates an edge list and finalizes it into a [`Graph`].
///
/// Duplicate edges are removed during [`GraphBuilder::build`]; the paper's
/// SimRank formulation is over simple digraphs.
///
/// # Examples
///
/// ```
/// use srs_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1);
/// b.add_edge(1, 2);
/// b.add_edge(0, 1); // duplicate, deduplicated at build time
/// let g = b.build().unwrap();
/// assert_eq!(g.num_vertices(), 3);
/// assert_eq!(g.num_edges(), 2);
/// assert_eq!(g.in_neighbors(1), &[0]);
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: u32,
    edges: Vec<(VertexId, VertexId)>,
    policy: SelfLoopPolicy,
}

impl GraphBuilder {
    /// Creates a builder for a graph with exactly `n` vertices (ids `0..n`).
    pub fn new(n: u32) -> Self {
        GraphBuilder { n, edges: Vec::new(), policy: SelfLoopPolicy::default() }
    }

    /// Creates a builder with pre-reserved capacity for `m` edges.
    pub fn with_capacity(n: u32, m: usize) -> Self {
        GraphBuilder { n, edges: Vec::with_capacity(m), policy: SelfLoopPolicy::default() }
    }

    /// Sets the self-loop policy (default: [`SelfLoopPolicy::Drop`]).
    pub fn self_loop_policy(mut self, policy: SelfLoopPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Number of vertices the final graph will have.
    pub fn num_vertices(&self) -> u32 {
        self.n
    }

    /// Number of edges added so far (including duplicates).
    pub fn num_pending_edges(&self) -> usize {
        self.edges.len()
    }

    /// Adds the directed edge `u → v`. Bounds are checked at build time so
    /// bulk loading stays branch-light.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) {
        self.edges.push((u, v));
    }

    /// Adds both `u → v` and `v → u` (used by undirected dataset families).
    pub fn add_undirected_edge(&mut self, u: VertexId, v: VertexId) {
        self.edges.push((u, v));
        self.edges.push((v, u));
    }

    /// Finalizes into an immutable [`Graph`], validating vertex ids,
    /// applying the self-loop policy, and deduplicating edges.
    pub fn build(mut self) -> Result<Graph, GraphError> {
        let n = self.n;
        for &(u, v) in &self.edges {
            if u >= n || v >= n {
                return Err(GraphError::VertexOutOfRange { vertex: u.max(v) as u64, n: n as u64 });
            }
        }
        match self.policy {
            SelfLoopPolicy::Drop => self.edges.retain(|&(u, v)| u != v),
            SelfLoopPolicy::Keep => {}
            SelfLoopPolicy::Error => {
                if let Some(&(u, _)) = self.edges.iter().find(|&&(u, v)| u == v) {
                    return Err(GraphError::SelfLoopForbidden { vertex: u });
                }
            }
        }
        self.edges.sort_unstable();
        self.edges.dedup();
        Ok(Graph::from_sorted_dedup_edges(n, &self.edges))
    }
}

/// Immutable directed graph in CSR form with both adjacency directions.
///
/// Every array is a [`SharedSlice`]: owned when the graph is built in
/// memory, a zero-copy view when loaded from a snapshot bundle (see
/// [`crate::container`]). The accessors below are byte-for-byte the same
/// hot path either way.
#[derive(Clone)]
pub struct Graph {
    n: u32,
    /// `out_offsets[u]..out_offsets[u+1]` indexes `out_targets` with the
    /// sorted successors of `u`.
    out_offsets: SharedSlice<u64>,
    out_targets: SharedSlice<VertexId>,
    /// `in_offsets[v]..in_offsets[v+1]` indexes `in_sources` with the sorted
    /// predecessors (in-links `δ(v)`) of `v`.
    in_offsets: SharedSlice<u64>,
    in_sources: SharedSlice<VertexId>,
    /// Per-vertex reverse-step descriptor (one word per vertex; see
    /// [`ReverseStep`]). Derived from the in-CSR at construction, so it is
    /// ignored for equality.
    reverse_desc: SharedSlice<u64>,
}

impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.out_offsets == other.out_offsets && self.out_targets == other.out_targets
    }
}

impl Eq for Graph {}

impl Graph {
    /// Builds from an already sorted, deduplicated `(u, v)` edge slice.
    fn from_sorted_dedup_edges(n: u32, edges: &[(VertexId, VertexId)]) -> Graph {
        let nu = n as usize;
        let m = edges.len();
        let mut out_offsets = vec![0u64; nu + 1];
        let mut in_degree = vec![0u64; nu];
        for &(u, v) in edges {
            out_offsets[u as usize + 1] += 1;
            in_degree[v as usize] += 1;
        }
        for i in 0..nu {
            out_offsets[i + 1] += out_offsets[i];
        }
        let mut out_targets = Vec::with_capacity(m);
        for &(_, v) in edges {
            out_targets.push(v); // edges sorted by (u, v): grouped by u, targets ascending
        }
        let mut in_offsets = vec![0u64; nu + 1];
        for v in 0..nu {
            in_offsets[v + 1] = in_offsets[v] + in_degree[v];
        }
        let mut cursor: Vec<u64> = in_offsets[..nu].to_vec();
        let mut in_sources = vec![0 as VertexId; m];
        for &(u, v) in edges {
            let c = &mut cursor[v as usize];
            in_sources[*c as usize] = u; // edges sorted by u: sources land ascending per v
            *c += 1;
        }
        let reverse_desc = build_reverse_desc(&in_offsets, &in_sources);
        Graph {
            n,
            out_offsets: out_offsets.into(),
            out_targets: out_targets.into(),
            in_offsets: in_offsets.into(),
            in_sources: in_sources.into(),
            reverse_desc: reverse_desc.into(),
        }
    }

    /// Convenience constructor from an edge iterator (drop self-loops).
    pub fn from_edges<I>(n: u32, edges: I) -> Result<Graph, GraphError>
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
    {
        let mut b = GraphBuilder::new(n);
        for (u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// Number of vertices `n`.
    #[inline]
    pub fn num_vertices(&self) -> u32 {
        self.n
    }

    /// Number of directed edges `m` (after deduplication).
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.out_targets.len() as u64
    }

    /// Iterator over all vertex ids `0..n`.
    #[inline]
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.n
    }

    /// Sorted successors of `u` (targets of `u → v`).
    #[inline]
    pub fn out_neighbors(&self, u: VertexId) -> &[VertexId] {
        let lo = self.out_offsets[u as usize] as usize;
        let hi = self.out_offsets[u as usize + 1] as usize;
        &self.out_targets[lo..hi]
    }

    /// Sorted predecessors of `v` — the in-links `δ(v)` of the paper.
    #[inline]
    pub fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        let lo = self.in_offsets[v as usize] as usize;
        let hi = self.in_offsets[v as usize + 1] as usize;
        &self.in_sources[lo..hi]
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: VertexId) -> u32 {
        (self.out_offsets[u as usize + 1] - self.out_offsets[u as usize]) as u32
    }

    /// In-degree `|δ(v)|` of `v`.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> u32 {
        (self.in_offsets[v as usize + 1] - self.in_offsets[v as usize]) as u32
    }

    /// `true` iff the edge `u → v` exists. `O(log out_degree(u))`.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.out_neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterates all edges `(u, v)` in `(u, v)` order.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.n).flat_map(move |u| self.out_neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// Returns the transposed graph (every edge reversed).
    pub fn transpose(&self) -> Graph {
        let reverse_desc = build_reverse_desc(&self.out_offsets, &self.out_targets);
        Graph {
            n: self.n,
            out_offsets: self.in_offsets.clone(),
            out_targets: self.in_sources.clone(),
            in_offsets: self.out_offsets.clone(),
            in_sources: self.out_targets.clone(),
            reverse_desc: reverse_desc.into(),
        }
    }

    /// The reverse-step fast path of `v`, decoded from one descriptor
    /// load. This is the walk kernels' replacement for
    /// [`Graph::in_neighbors`]: degree 0 and 1 resolve with no CSR touch,
    /// and the branch case hands back the slice coordinates for a single
    /// gather from [`Graph::in_source_at`].
    #[inline]
    pub fn reverse_step(&self, v: VertexId) -> ReverseStep {
        match self.reverse_step_parts(v) {
            (0, _) => ReverseStep::Dead,
            (1, w) => ReverseStep::Unique(w as VertexId),
            (len, offset) => ReverseStep::Branch { offset, len },
        }
    }

    /// [`Graph::reverse_step`] without the class match: `(len, payload)`
    /// where `len` is the in-degree and `payload` is the unique
    /// in-neighbour when `len == 1`, the in-sources offset when
    /// `len ≥ 2` (and meaningless when `len == 0`). Walk kernels decode
    /// every position with this and select on `len` arithmetically; the
    /// one branch is the saturated-length fallback to the exact offsets,
    /// which only vertices with ≥ 2²⁴ − 1 in-links (or offsets ≥ 2⁴⁰)
    /// take.
    #[inline]
    pub fn reverse_step_parts(&self, v: VertexId) -> (u32, u64) {
        let d = self.reverse_desc[v as usize];
        let len = d >> DESC_LEN_SHIFT;
        if len == DESC_LEN_SAT {
            return self.reverse_step_parts_exact(v);
        }
        (len as u32, d & DESC_OFFSET_MASK)
    }

    /// The saturated-descriptor fallback of [`Graph::reverse_step_parts`],
    /// read from the in-CSR offsets. Kept out of line so the hot decode
    /// stays small. Degrees 0 and 1 decode exactly as unsaturated
    /// descriptors do, so even a forged saturated descriptor (accepted by
    /// [`ValidationLevel::Safety`]) never yields a bad index.
    #[cold]
    #[inline(never)]
    fn reverse_step_parts_exact(&self, v: VertexId) -> (u32, u64) {
        let lo = self.in_offsets[v as usize];
        let len = self.in_offsets[v as usize + 1] - lo;
        match len {
            0 => (0, 0),
            1 => (1, self.in_sources[lo as usize] as u64),
            _ => (len as u32, lo),
        }
    }

    /// Entry `idx` of the flat in-sources array (pair of
    /// [`ReverseStep::Branch`]).
    #[inline]
    pub fn in_source_at(&self, idx: u64) -> VertexId {
        self.in_sources[idx as usize]
    }

    /// Hints the hardware to pull `v`'s reverse-step descriptor into
    /// cache. No-op on architectures without a stable prefetch intrinsic.
    #[inline]
    pub fn prefetch_reverse_step(&self, v: VertexId) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: prefetch has no memory effects and tolerates any
        // address; `v < n` keeps it in-bounds anyway.
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch(self.reverse_desc.as_ptr().add(v as usize) as *const i8, _MM_HINT_T0);
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = v;
    }

    /// Hints the hardware to pull in-sources entry `idx` into cache (the
    /// gather target of a pending [`ReverseStep::Branch`] draw).
    #[inline]
    pub fn prefetch_in_source(&self, idx: u64) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: see `prefetch_reverse_step`.
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch(self.in_sources.as_ptr().add(idx as usize) as *const i8, _MM_HINT_T0);
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = idx;
    }

    /// Estimated resident memory of the CSR arrays in bytes. Used by the
    /// Table 4 reproduction to report graph storage (`O(m)` as the paper
    /// claims for the proposed method).
    pub fn memory_bytes(&self) -> u64 {
        (self.out_offsets.len() as u64 + self.in_offsets.len() as u64) * 8
            + (self.out_targets.len() as u64 + self.in_sources.len() as u64) * 4
            + self.reverse_desc.len() as u64 * 8
    }

    /// [`Graph::memory_bytes`] split by backing: heap-resident bytes
    /// versus bytes served through an `mmap` region (page cache, not
    /// anonymous memory).
    pub fn memory_profile(&self) -> MemoryProfile {
        let mut p = MemoryProfile::default();
        p.add(&self.out_offsets);
        p.add(&self.out_targets);
        p.add(&self.in_offsets);
        p.add(&self.in_sources);
        p.add(&self.reverse_desc);
        p
    }

    /// Entries of the column `P e_u` of the paper's transition matrix:
    /// the uniform distribution over `δ(u)`, or the zero vector when `u` has
    /// no in-links (the walk dies; `P` is substochastic there).
    pub fn reverse_step_distribution(&self, u: VertexId) -> impl Iterator<Item = (VertexId, f64)> + '_ {
        let nb = self.in_neighbors(u);
        let p = if nb.is_empty() { 0.0 } else { 1.0 / nb.len() as f64 };
        nb.iter().map(move |&w| (w, p))
    }

    /// Appends this graph's sections (`g.*` tags) to a bundle under
    /// construction. The inverse of [`Graph::from_bundle`].
    pub fn add_bundle_sections(&self, w: &mut BundleWriter) {
        let mut meta = Vec::with_capacity(GRAPH_META_LEN);
        meta.extend_from_slice(&self.n.to_le_bytes());
        meta.extend_from_slice(&self.num_edges().to_le_bytes());
        w.add_bytes(SEC_GRAPH_META, 8, meta);
        w.add_pod(SEC_OUT_OFFSETS, &self.out_offsets);
        w.add_pod(SEC_OUT_TARGETS, &self.out_targets);
        w.add_pod(SEC_IN_OFFSETS, &self.in_offsets);
        w.add_pod(SEC_IN_SOURCES, &self.in_sources);
        w.add_pod(SEC_REVERSE_DESC, &self.reverse_desc);
    }

    /// Reconstructs a graph from the `g.*` sections of an opened bundle,
    /// borrowing the arrays zero-copy from the bundle's buffer. The
    /// bundle may contain other sections (e.g. a serving snapshot's
    /// index); they are ignored.
    ///
    /// Beyond the container's checksums this re-validates the structure
    /// (offset monotonicity, id ranges, descriptor consistency), so even
    /// a hand-crafted bundle yields a well-formed graph or a
    /// [`GraphError::Format`] — never a panic downstream.
    pub fn from_bundle(r: &BundleReader) -> Result<Graph, GraphError> {
        Self::from_bundle_with(r, ValidationLevel::Deep)
    }

    /// [`Graph::from_bundle`] with an explicit [`ValidationLevel`].
    pub fn from_bundle_with(r: &BundleReader, level: ValidationLevel) -> Result<Graph, GraphError> {
        let sect = |e: crate::container::BundleError| GraphError::Format(e.to_string());
        let meta = r.bytes(SEC_GRAPH_META).map_err(sect)?;
        if meta.len() != GRAPH_META_LEN {
            return Err(GraphError::Format(format!(
                "graph meta section has {} bytes, expected {GRAPH_META_LEN}",
                meta.len()
            )));
        }
        let n = u32::from_le_bytes(meta[..4].try_into().unwrap());
        let m = u64::from_le_bytes(meta[4..12].try_into().unwrap());
        let out_offsets: SharedSlice<u64> = r.pod_slice(SEC_OUT_OFFSETS).map_err(sect)?;
        let out_targets: SharedSlice<VertexId> = r.pod_slice(SEC_OUT_TARGETS).map_err(sect)?;
        let in_offsets: SharedSlice<u64> = r.pod_slice(SEC_IN_OFFSETS).map_err(sect)?;
        let in_sources: SharedSlice<VertexId> = r.pod_slice(SEC_IN_SOURCES).map_err(sect)?;
        let reverse_desc: SharedSlice<u64> = r.pod_slice(SEC_REVERSE_DESC).map_err(sect)?;
        validate_csr_side("out", n, m, &out_offsets, &out_targets)?;
        validate_csr_side("in", n, m, &in_offsets, &in_sources)?;
        if reverse_desc.len() != n as usize {
            return Err(GraphError::Format(format!(
                "reverse-step descriptors: {} entries for {n} vertices",
                reverse_desc.len()
            )));
        }
        match level {
            ValidationLevel::Deep => {
                // The out-CSR is derived from the same edges as the in-CSR;
                // `has_edge` and forward probes rely on the two agreeing.
                validate_transpose(&out_offsets, &out_targets, &in_offsets, &in_sources)?;
                // Descriptors are derived data; verify them against the in-CSR
                // so a consistent graph is the only thing this can return.
                let expect = build_reverse_desc(&in_offsets, &in_sources);
                if expect[..] != reverse_desc[..] {
                    return Err(GraphError::Format(
                        "reverse-step descriptors inconsistent with in-adjacency".into(),
                    ));
                }
            }
            ValidationLevel::Safety => {
                // No rebuild: just prove every descriptor decode stays in
                // bounds, so `reverse_step`/`in_source_at` can never index
                // out of range whatever the bytes say.
                validate_reverse_desc_ranges(n, m, &reverse_desc)?;
            }
        }
        Ok(Graph { n, out_offsets, out_targets, in_offsets, in_sources, reverse_desc })
    }
}

/// Bundle section tags for graph payloads (see [`crate::container`]).
pub(crate) const SEC_GRAPH_META: &str = "g.meta";
const SEC_OUT_OFFSETS: &str = "g.out_off";
const SEC_OUT_TARGETS: &str = "g.out_tgt";
const SEC_IN_OFFSETS: &str = "g.in_off";
const SEC_IN_SOURCES: &str = "g.in_src";
const SEC_REVERSE_DESC: &str = "g.rdesc";
const GRAPH_META_LEN: usize = 4 + 8;

/// Structural validation of one CSR side loaded from untrusted bytes.
fn validate_csr_side(
    side: &str,
    n: u32,
    m: u64,
    offsets: &[u64],
    entries: &[VertexId],
) -> Result<(), GraphError> {
    if offsets.len() != n as usize + 1 {
        return Err(GraphError::Format(format!(
            "{side}-offsets: {} entries for {n} vertices",
            offsets.len()
        )));
    }
    if offsets[0] != 0 {
        return Err(GraphError::Format(format!("{side}-offsets: first offset {} != 0", offsets[0])));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(GraphError::Format(format!("{side}-offsets: not monotone")));
    }
    if offsets[n as usize] != m || entries.len() as u64 != m {
        return Err(GraphError::Format(format!(
            "{side}-adjacency: header promises {m} edges, offsets end at {}, array has {}",
            offsets[n as usize],
            entries.len()
        )));
    }
    if entries.iter().any(|&v| v >= n) {
        return Err(GraphError::Format(format!("{side}-adjacency: vertex id out of range")));
    }
    Ok(())
}

/// Proves the in-CSR is exactly the transpose of the out-CSR and every
/// out-list strictly ascends (so every in-list does too). Both sides have
/// passed [`validate_csr_side`]: each out-edge `u → v` must take the next
/// unmatched slot of `v`'s in-list, and with `m` edges on each side every
/// slot is then taken. See [`ValidationLevel::Deep`].
fn validate_transpose(
    out_offsets: &[u64],
    out_targets: &[VertexId],
    in_offsets: &[u64],
    in_sources: &[VertexId],
) -> Result<(), GraphError> {
    let n = out_offsets.len() - 1;
    let mut cursor = in_offsets[..n].to_vec();
    for u in 0..n {
        let list = &out_targets[out_offsets[u] as usize..out_offsets[u + 1] as usize];
        if list.windows(2).any(|w| w[0] >= w[1]) {
            return Err(GraphError::Format(format!("out-adjacency of vertex {u} not strictly ascending")));
        }
        for &v in list {
            let c = &mut cursor[v as usize];
            if *c == in_offsets[v as usize + 1] || in_sources[*c as usize] as usize != u {
                return Err(GraphError::Format(format!(
                    "in-adjacency is not the transpose of out-adjacency at edge {u} -> {v}"
                )));
            }
            *c += 1;
        }
    }
    Ok(())
}

/// Range-checks reverse-step descriptors without rebuilding them: every
/// decode must land inside the (already validated) CSR arrays. See
/// [`ValidationLevel::Safety`].
fn validate_reverse_desc_ranges(n: u32, m: u64, desc: &[u64]) -> Result<(), GraphError> {
    for (v, &d) in desc.iter().enumerate() {
        let len = d >> DESC_LEN_SHIFT;
        let ok = match len {
            0 => true,
            1 => (d as VertexId) < n,
            DESC_LEN_SAT => true, // falls back to validated offsets
            _ => (d & DESC_OFFSET_MASK).checked_add(len).is_some_and(|end| end <= m),
        };
        if !ok {
            return Err(GraphError::Format(format!("reverse-step descriptor for vertex {v} out of range")));
        }
    }
    Ok(())
}

/// Builds the per-vertex reverse-step descriptor array from an in-CSR
/// (see [`ReverseStep`] for the encoding).
fn build_reverse_desc(in_offsets: &[u64], in_sources: &[VertexId]) -> Vec<u64> {
    let n = in_offsets.len() - 1;
    let mut desc = Vec::with_capacity(n);
    for v in 0..n {
        let lo = in_offsets[v];
        let len = in_offsets[v + 1] - lo;
        desc.push(match len {
            0 => 0,
            1 => (1 << DESC_LEN_SHIFT) | in_sources[lo as usize] as u64,
            _ if len >= DESC_LEN_SAT || lo > DESC_OFFSET_MASK => DESC_LEN_SAT << DESC_LEN_SHIFT,
            _ => (len << DESC_LEN_SHIFT) | lo,
        });
    }
    desc
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Graph").field("n", &self.n).field("m", &self.num_edges()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn claw() -> Graph {
        // Example 1 of the paper: star graph of order 4, edges from leaves
        // into the hub? The paper's P has column 0 = (0, 1/3, 1/3, 1/3)ᵀ...
        // i.e. δ(0) = {1,2,3}: edges 1→0, 2→0, 3→0.
        Graph::from_edges(4, vec![(1, 0), (2, 0), (3, 0)]).unwrap()
    }

    #[test]
    fn builds_claw() {
        let g = claw();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.in_neighbors(0), &[1, 2, 3]);
        assert_eq!(g.in_degree(0), 3);
        assert_eq!(g.out_degree(1), 1);
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 1));
    }

    #[test]
    fn dedup_and_self_loops() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(0, 1);
        b.add_edge(2, 2);
        let g = b.build().unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.in_degree(2), 0);
    }

    #[test]
    fn self_loop_keep_and_error() {
        let mut b = GraphBuilder::new(2).self_loop_policy(SelfLoopPolicy::Keep);
        b.add_edge(1, 1);
        let g = b.build().unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.in_neighbors(1), &[1]);

        let mut b = GraphBuilder::new(2).self_loop_policy(SelfLoopPolicy::Error);
        b.add_edge(1, 1);
        assert!(matches!(b.build(), Err(GraphError::SelfLoopForbidden { vertex: 1 })));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 5);
        assert!(matches!(b.build(), Err(GraphError::VertexOutOfRange { vertex: 5, n: 2 })));
    }

    #[test]
    fn adjacency_sorted_both_directions() {
        let g = Graph::from_edges(5, vec![(4, 2), (1, 2), (3, 2), (2, 0), (2, 4), (2, 1)]).unwrap();
        assert_eq!(g.in_neighbors(2), &[1, 3, 4]);
        assert_eq!(g.out_neighbors(2), &[0, 1, 4]);
    }

    #[test]
    fn transpose_roundtrip() {
        let g = Graph::from_edges(4, vec![(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]).unwrap();
        let t = g.transpose();
        assert_eq!(t.in_neighbors(1), g.out_neighbors(1));
        assert_eq!(t.out_neighbors(2), g.in_neighbors(2));
        assert_eq!(t.transpose(), g);
    }

    #[test]
    fn edges_iterator_matches_input() {
        let edges = vec![(0, 1), (1, 2), (2, 0)];
        let g = Graph::from_edges(3, edges.clone()).unwrap();
        let got: Vec<_> = g.edges().collect();
        assert_eq!(got, edges);
    }

    #[test]
    fn reverse_step_distribution_sums_to_one_or_zero() {
        let g = claw();
        let s: f64 = g.reverse_step_distribution(0).map(|(_, p)| p).sum();
        assert!((s - 1.0).abs() < 1e-12);
        assert_eq!(g.reverse_step_distribution(1).count(), 0);
    }

    #[test]
    fn reverse_step_descriptors_match_in_csr() {
        let g = Graph::from_edges(6, vec![(0, 1), (2, 1), (3, 1), (1, 2), (4, 5)]).unwrap();
        assert_eq!(g.reverse_step(0), ReverseStep::Dead);
        assert_eq!(g.reverse_step(2), ReverseStep::Unique(1));
        assert_eq!(g.reverse_step(5), ReverseStep::Unique(4));
        match g.reverse_step(1) {
            ReverseStep::Branch { offset, len } => {
                assert_eq!(len, 3);
                let nb: Vec<VertexId> = (0..len).map(|i| g.in_source_at(offset + i as u64)).collect();
                assert_eq!(nb, g.in_neighbors(1));
            }
            other => panic!("expected Branch, got {other:?}"),
        }
        // Prefetch hints must be callable on any vertex without effect.
        g.prefetch_reverse_step(3);
        g.prefetch_in_source(0);
    }

    #[test]
    fn reverse_step_parts_decode_saturated_descriptors_from_offsets() {
        let g = Graph::from_edges(6, vec![(0, 1), (2, 1), (3, 1), (1, 2), (4, 5)]).unwrap();
        let parts: Vec<(u32, u64)> = (0..6).map(|v| g.reverse_step_parts(v)).collect();
        assert_eq!(parts[0].0, 0);
        assert_eq!(parts[2], (1, 1));
        assert_eq!(parts[5], (1, 4));
        assert_eq!(parts[1], (3, g.in_offsets[1]));
        // Every descriptor forced to the saturated marker (a forgery the
        // Safety level accepts): the exact-offsets fallback must decode
        // each degree class exactly like the packed descriptors.
        let mut w = BundleWriter::new();
        let mut meta = Vec::new();
        meta.extend_from_slice(&6u32.to_le_bytes());
        meta.extend_from_slice(&5u64.to_le_bytes());
        w.add_bytes("g.meta", 8, meta);
        w.add_pod("g.out_off", &g.out_offsets[..]);
        w.add_pod("g.out_tgt", &g.out_targets[..]);
        w.add_pod("g.in_off", &g.in_offsets[..]);
        w.add_pod("g.in_src", &g.in_sources[..]);
        w.add_pod("g.rdesc", &[DESC_LEN_SAT << DESC_LEN_SHIFT; 6]);
        let r = BundleReader::open(w.to_bytes()).unwrap();
        let forged = Graph::from_bundle_with(&r, ValidationLevel::Safety).unwrap();
        for v in 0..6u32 {
            let (len, payload) = forged.reverse_step_parts(v);
            assert_eq!(len, parts[v as usize].0, "v={v}");
            if len > 0 {
                assert_eq!(payload, parts[v as usize].1, "v={v}");
            }
            assert_eq!(forged.reverse_step(v), g.reverse_step(v), "v={v}");
        }
    }

    #[test]
    fn reverse_step_survives_transpose() {
        let g = Graph::from_edges(4, vec![(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]).unwrap();
        let t = g.transpose();
        for v in 0..4u32 {
            let expect = match t.in_neighbors(v) {
                [] => ReverseStep::Dead,
                [w] => ReverseStep::Unique(*w),
                nb => match t.reverse_step(v) {
                    ReverseStep::Branch { offset, len } => {
                        assert_eq!(len as usize, nb.len());
                        for (i, &w) in nb.iter().enumerate() {
                            assert_eq!(t.in_source_at(offset + i as u64), w);
                        }
                        continue;
                    }
                    other => panic!("expected Branch for {v}, got {other:?}"),
                },
            };
            assert_eq!(t.reverse_step(v), expect, "v={v}");
        }
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(0, vec![]).unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn memory_bytes_counts_all_arrays() {
        // n=4, m=3: two (n+1)-entry u64 offset arrays, two m-entry u32
        // adjacency arrays, and the n-entry u64 reverse-step descriptors.
        let g = claw();
        let expect = 2 * 5 * 8 + 2 * 3 * 4 + 4 * 8;
        assert_eq!(g.memory_bytes(), expect);
    }

    #[test]
    fn bundle_roundtrip_preserves_everything() {
        let g = Graph::from_edges(6, vec![(0, 1), (2, 1), (3, 1), (1, 2), (4, 5), (5, 4)]).unwrap();
        let mut w = BundleWriter::new();
        g.add_bundle_sections(&mut w);
        let r = BundleReader::open(w.to_bytes()).unwrap();
        let g2 = Graph::from_bundle(&r).unwrap();
        assert_eq!(g, g2);
        for v in 0..6u32 {
            assert_eq!(g.in_neighbors(v), g2.in_neighbors(v));
            assert_eq!(g.reverse_step(v), g2.reverse_step(v));
        }
        assert_eq!(g.memory_bytes(), g2.memory_bytes());
    }

    #[test]
    fn bundle_rejects_inconsistent_descriptors() {
        let g = Graph::from_edges(3, vec![(0, 1), (1, 2)]).unwrap();
        let mut w = BundleWriter::new();
        let mut meta = Vec::new();
        meta.extend_from_slice(&3u32.to_le_bytes());
        meta.extend_from_slice(&2u64.to_le_bytes());
        w.add_bytes("g.meta", 8, meta);
        w.add_pod("g.out_off", &g.out_offsets[..]);
        w.add_pod("g.out_tgt", &g.out_targets[..]);
        w.add_pod("g.in_off", &g.in_offsets[..]);
        w.add_pod("g.in_src", &g.in_sources[..]);
        // Descriptors claiming vertex 0 has a unique in-link: inconsistent.
        w.add_pod("g.rdesc", &[(1u64 << 40) | 2, g.reverse_desc[1], g.reverse_desc[2]]);
        let r = BundleReader::open(w.to_bytes()).unwrap();
        assert!(matches!(Graph::from_bundle(&r), Err(GraphError::Format(_))));
        // Safety level accepts it (every decode is in range — wrong
        // answers are possible, panics are not) and never crashes.
        let g2 = Graph::from_bundle_with(&r, ValidationLevel::Safety).unwrap();
        for v in 0..3u32 {
            match g2.reverse_step(v) {
                ReverseStep::Unique(w) => assert!(w < 3),
                ReverseStep::Branch { offset, len } => {
                    for i in 0..len as u64 {
                        let _ = g2.in_source_at(offset + i);
                    }
                }
                ReverseStep::Dead => {}
            }
        }
    }

    #[test]
    fn safety_level_rejects_out_of_range_descriptors() {
        let g = Graph::from_edges(3, vec![(0, 1), (1, 2)]).unwrap();
        let mut w = BundleWriter::new();
        let mut meta = Vec::new();
        meta.extend_from_slice(&3u32.to_le_bytes());
        meta.extend_from_slice(&2u64.to_le_bytes());
        w.add_bytes("g.meta", 8, meta);
        w.add_pod("g.out_off", &g.out_offsets[..]);
        w.add_pod("g.out_tgt", &g.out_targets[..]);
        w.add_pod("g.in_off", &g.in_offsets[..]);
        w.add_pod("g.in_src", &g.in_sources[..]);
        // A branch descriptor pointing past the in-sources array would
        // make `in_source_at` index out of bounds — must be rejected.
        w.add_pod("g.rdesc", &[(2u64 << 40) | 100, g.reverse_desc[1], g.reverse_desc[2]]);
        let r = BundleReader::open(w.to_bytes()).unwrap();
        assert!(matches!(Graph::from_bundle_with(&r, ValidationLevel::Safety), Err(GraphError::Format(_))));
    }

    #[test]
    fn safety_level_roundtrips_valid_bundles() {
        let g = Graph::from_edges(6, vec![(0, 1), (2, 1), (3, 1), (1, 2), (4, 5), (5, 4)]).unwrap();
        let mut w = BundleWriter::new();
        g.add_bundle_sections(&mut w);
        let r = BundleReader::open(w.to_bytes()).unwrap();
        let g2 = Graph::from_bundle_with(&r, ValidationLevel::Safety).unwrap();
        assert_eq!(g, g2);
        for v in 0..6u32 {
            assert_eq!(g.reverse_step(v), g2.reverse_step(v));
        }
        let profile = g2.memory_profile();
        assert_eq!(profile.total(), g2.memory_bytes());
        assert_eq!(profile.mapped_bytes, 0);
    }
}

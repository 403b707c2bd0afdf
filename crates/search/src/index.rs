//! Algorithm 4 — the candidate index (auxiliary bipartite graph `H`).
//!
//! For each vertex `u`, the preprocess runs `P` repetitions of: one *probe*
//! walk `W0` of length `T` plus `Q` auxiliary walks `W1..WQ`, all from `u`.
//! At step `t`, the probe position `v = W0[t]` becomes a **signature** of
//! `u` (an edge `(u_left, v_right)` of `H`) when *any two* of the walks
//! `W0..WQ` coincide at step `t` (Algorithm 4, line 7: "if `W_{j,t} =
//! W_{k,t}` for some `j ≠ k` then add `W_{0,t}`"). A coincidence means the
//! walk distribution `Pᵗe_u` carries repeated mass — exactly what makes the
//! Algorithm 1 estimator see co-locations, so positions reached under that
//! evidence are worth indexing.
//!
//! Two vertices that share a signature (`Γ(u_left) ∩ Γ(v_left) ≠ ∅`) are
//! likely to have walks that meet, hence non-negligible SimRank — those are
//! the query-time **candidates**. The inverted (signature → vertices) map
//! makes candidate enumeration a two-hop lookup. A bundle packed with
//! several shards stores that map as vertex-range slices; the index keeps
//! them as loaded and reads them in range order, so every shard count
//! enumerates exactly the same candidates.

use crate::obs::BuildObs;
use crate::SimRankParams;
use srs_graph::hash::FxHashSet;
use srs_graph::{Graph, VertexId};
use srs_mc::{Pcg32, WalkEngine, DEAD};
use srs_obs::LocalHistogram;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Vertices claimed per work-stealing grab during index construction.
/// Small enough that a worker stuck on a few ultra-high-degree vertices
/// does not strand a long tail behind it, large enough that the atomic
/// cursor is uncontended.
const BUILD_CHUNK: usize = 256;

/// The candidate index: bipartite graph `H` in CSR form, both directions.
///
/// Every array is an [`srs_graph::storage::SharedSlice`] — owned when
/// built, zero-copy views when loaded from a bundle. The inverted side
/// is a list of slices in vertex-range order: one for a built index, one
/// per shard for a bundle packed with several. Each slice holds the
/// holders inside its shard's range, so a signature's holder list is the
/// slices' lists concatenated in order — exactly the list of a one-slice
/// index (the persist layer proves this on a deep load).
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateIndex {
    n: u32,
    /// Forward: `entries[offsets[u]..offsets[u+1]]` = sorted signatures of `u`.
    offsets: srs_graph::storage::SharedSlice<u64>,
    entries: srs_graph::storage::SharedSlice<VertexId>,
    /// Inverted: the holders of signature `w`, slice by slice.
    inverted: Vec<InvertedSlice>,
}

/// One slice of the inverted map:
/// `entries[offsets[w]..offsets[w+1]]` = the slice's vertices having
/// signature `w`, ascending.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct InvertedSlice {
    pub(crate) offsets: srs_graph::storage::SharedSlice<u64>,
    pub(crate) entries: srs_graph::storage::SharedSlice<VertexId>,
}

impl InvertedSlice {
    #[inline]
    fn holders(&self, w: VertexId) -> &[VertexId] {
        &self.entries[self.offsets[w as usize] as usize..self.offsets[w as usize + 1] as usize]
    }
}

impl CandidateIndex {
    /// Builds the index (Algorithm 4) for every vertex, `P = params.index_reps`
    /// repetitions and `Q = params.index_walks` auxiliary walks each,
    /// deterministically in `seed`. Vertices are split across `threads`
    /// workers.
    pub fn build(g: &Graph, params: &SimRankParams, seed: u64, threads: usize) -> Self {
        Self::build_for(g, params, seed, threads, &[])
    }

    /// Like [`CandidateIndex::build`], but only vertices with
    /// `mask[v] == true` get signatures (others stay empty). Empty mask =
    /// all vertices. Per-vertex `(seed, vertex)` streams make masked rows
    /// bit-identical to a full build's rows (incremental extension).
    pub fn build_for(g: &Graph, params: &SimRankParams, seed: u64, threads: usize, mask: &[bool]) -> Self {
        Self::build_observed(g, params, seed, threads, mask, &BuildObs::default())
    }

    /// [`CandidateIndex::build_for`] with observation hooks: per-vertex
    /// walk-generation and coincidence-probe durations
    /// (`srs_build_stage_ns{stage=...}`, accumulated worker-locally and
    /// merged once per worker), CSR assembly time, and per-chunk progress.
    /// With hooks absent this takes no clock readings in the vertex loop;
    /// either way the built index is bit-identical — the hooks never touch
    /// an RNG stream.
    pub fn build_observed(
        g: &Graph,
        params: &SimRankParams,
        seed: u64,
        threads: usize,
        mask: &[bool],
        obs: &BuildObs<'_>,
    ) -> Self {
        params.validate();
        assert!(threads >= 1);
        let n = g.num_vertices() as usize;
        assert!(mask.is_empty() || mask.len() == n, "mask length");
        // Self-scheduling work-stealing: workers grab [`BUILD_CHUNK`]-sized
        // vertex ranges off a shared atomic cursor, so degree-skewed graphs
        // (where a static split strands whole workers behind a few hub-heavy
        // ranges) stay load-balanced. Determinism is unaffected: each vertex
        // draws from its own `(seed, vertex)` stream, and the per-chunk
        // results are reassembled in vertex order regardless of which worker
        // produced them.
        let cursor = AtomicUsize::new(0);
        let collected: parking_lot::Mutex<Vec<(usize, Vec<Vec<VertexId>>)>> =
            parking_lot::Mutex::new(Vec::with_capacity(n.div_ceil(BUILD_CHUNK.max(1))));
        crossbeam::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|_| {
                    let engine = WalkEngine::new(g);
                    let q = params.index_walks as usize;
                    let t_max = params.t as usize;
                    let mut probe: Vec<VertexId> = vec![DEAD; t_max];
                    let mut aux: Vec<VertexId> = vec![DEAD; q];
                    let mut sig: FxHashSet<VertexId> = FxHashSet::default();
                    // Stage timing is worker-local (two clock reads per
                    // repetition, only when metrics are attached) and
                    // merged into the shared histograms once per worker.
                    let timing = obs.metrics.is_some();
                    let mut walk_hist = LocalHistogram::new();
                    let mut probe_hist = LocalHistogram::new();
                    loop {
                        let chunk_start = cursor.fetch_add(BUILD_CHUNK, Ordering::Relaxed);
                        if chunk_start >= n {
                            break;
                        }
                        let chunk_end = (chunk_start + BUILD_CHUNK).min(n);
                        let mut local: Vec<Vec<VertexId>> = Vec::with_capacity(chunk_end - chunk_start);
                        for u in chunk_start..chunk_end {
                            if !mask.is_empty() && !mask[u] {
                                local.push(Vec::new());
                                continue;
                            }
                            sig.clear();
                            let u = u as VertexId;
                            let mut rng = Pcg32::from_parts(&[seed, 0xC4, u as u64]);
                            let mut walk_ns = 0u64;
                            let mut probe_ns = 0u64;
                            for _rep in 0..params.index_reps {
                                let t_walk = timing.then(Instant::now);
                                engine.walk_fill(u, &mut rng, &mut probe);
                                let t_probe = timing.then(Instant::now);
                                if let (Some(a), Some(b)) = (t_walk, t_probe) {
                                    walk_ns += b.duration_since(a).as_nanos() as u64;
                                }
                                aux.iter_mut().for_each(|a| *a = u);
                                for t in 1..t_max {
                                    engine.step_all(&mut aux, &mut rng);
                                    let v = probe[t];
                                    if v == DEAD {
                                        break;
                                    }
                                    // Any coincidence among {W0[t], W1[t], ..,
                                    // WQ[t]} indexes the probe position. Q ≤ a
                                    // handful, so the quadratic check is free.
                                    let coincidence = aux.contains(&v)
                                        || aux
                                            .iter()
                                            .enumerate()
                                            .any(|(j, &a)| a != DEAD && aux[j + 1..].contains(&a));
                                    if coincidence {
                                        sig.insert(v);
                                    }
                                }
                                if let Some(b) = t_probe {
                                    probe_ns += b.elapsed().as_nanos() as u64;
                                }
                            }
                            if timing {
                                walk_hist.record(walk_ns);
                                probe_hist.record(probe_ns);
                            }
                            let mut s: Vec<VertexId> = sig.iter().copied().collect();
                            s.sort_unstable();
                            local.push(s);
                        }
                        collected.lock().push((chunk_start, local));
                        if let Some(p) = obs.progress {
                            p.add((chunk_end - chunk_start) as u64);
                        }
                    }
                    if let Some(m) = obs.metrics {
                        walk_hist.drain_into(&m.build_stages[0]);
                        probe_hist.drain_into(&m.build_stages[1]);
                    }
                });
            }
        })
        .expect("worker thread panicked");
        let mut collected = collected.into_inner();
        collected.sort_by_key(|(s, _)| *s);
        let partials: Vec<Vec<Vec<VertexId>>> = collected.into_iter().map(|(_, l)| l).collect();

        // Assemble forward CSR.
        let t_asm = obs.metrics.is_some().then(Instant::now);
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u64);
        let total: usize = partials.iter().flat_map(|c| c.iter().map(Vec::len)).sum();
        let mut entries = Vec::with_capacity(total);
        for sigs in partials.iter().flat_map(|c| c.iter()) {
            entries.extend_from_slice(sigs);
            offsets.push(entries.len() as u64);
        }
        let (inv_offsets, inv_entries) = invert(n, &offsets, &entries);
        if let (Some(m), Some(t)) = (obs.metrics, t_asm) {
            m.build_stages[2].observe(t.elapsed().as_nanos() as u64);
        }
        CandidateIndex {
            n: n as u32,
            offsets: offsets.into(),
            entries: entries.into(),
            inverted: vec![InvertedSlice { offsets: inv_offsets.into(), entries: inv_entries.into() }],
        }
    }

    /// Sorted signatures of `u` (`Γ(u_left)` in `H`).
    pub fn signatures(&self, u: VertexId) -> &[VertexId] {
        &self.entries[self.offsets[u as usize] as usize..self.offsets[u as usize + 1] as usize]
    }

    /// Vertices having `w` among their signatures, ascending.
    pub fn holders(&self, w: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.inverted.iter().flat_map(move |s| s.holders(w).iter().copied())
    }

    /// Candidate set of `u`: all `v ≠ u` sharing at least one signature
    /// (§7.2, line 2 of Algorithm 5). Deduplicated, sorted ascending.
    pub fn candidates(&self, u: VertexId) -> Vec<VertexId> {
        let mut out = Vec::new();
        self.candidates_into(u, &mut out);
        out
    }

    /// Buffer-reusing form of [`CandidateIndex::candidates`]: fills `out`
    /// with the deduplicated candidate set of `u`, sorted ascending, `u`
    /// itself excluded. Reuses `out`'s allocation, so the query hot path
    /// enumerates candidates without touching the heap in the steady state.
    pub fn candidates_into(&self, u: VertexId, out: &mut Vec<VertexId>) {
        out.clear();
        for &w in self.signatures(u) {
            out.extend(self.holders(w));
        }
        out.sort_unstable();
        out.dedup();
        if let Ok(i) = out.binary_search(&u) {
            out.remove(i);
        }
    }

    /// [`CandidateIndex::candidates_into`] with an epoch-stamped seen
    /// buffer: duplicates across signature holder lists are filtered in
    /// O(1) per entry instead of via sort-the-multiset + `dedup`, so only
    /// the *unique* candidates are ever sorted. Output is identical to
    /// `candidates_into` (sorted ascending, deduplicated, `u` excluded).
    pub fn candidates_into_stamped(&self, u: VertexId, out: &mut Vec<VertexId>, seen: &mut SeenStamps) {
        out.clear();
        seen.begin(self.n as usize);
        seen.insert(u); // excludes u from the output
        let sigs = self.signatures(u);
        // Slices outside the signature loop: one slice is the plain
        // two-hop loop, and the final sort makes the visit order moot.
        for slice in &self.inverted {
            for &w in sigs {
                for &v in slice.holders(w) {
                    if seen.insert(v) {
                        out.push(v);
                    }
                }
            }
        }
        out.sort_unstable();
    }

    /// Number of inverted slices: 1 for a built index, the shard count
    /// for one loaded from a bundle.
    pub(crate) fn inverted_slices(&self) -> usize {
        self.inverted.len()
    }

    /// Number of vertices indexed.
    pub fn num_vertices(&self) -> u32 {
        self.n
    }

    /// Total signature entries (edges of `H`).
    pub fn num_edges(&self) -> u64 {
        self.entries.len() as u64
    }

    /// Bytes of the index arrays (Table 4 index-size accounting).
    pub fn memory_bytes(&self) -> u64 {
        let inverted: u64 =
            self.inverted.iter().map(|s| s.offsets.len() as u64 * 8 + s.entries.len() as u64 * 4).sum();
        self.offsets.len() as u64 * 8 + self.entries.len() as u64 * 4 + inverted
    }

    /// [`CandidateIndex::memory_bytes`] split by backing (heap-resident
    /// versus `mmap`-served bytes).
    pub fn memory_profile(&self) -> srs_graph::MemoryProfile {
        let mut p = srs_graph::MemoryProfile::default();
        p.add(&self.offsets);
        p.add(&self.entries);
        for s in &self.inverted {
            p.add(&s.offsets);
            p.add(&s.entries);
        }
        p
    }

    /// Raw parts for persistence.
    pub(crate) fn raw_parts(&self) -> (u32, &[u64], &[VertexId]) {
        (self.n, &self.offsets, &self.entries)
    }

    /// The inverted side as one CSR, when it is one slice (a built
    /// index, or a bundle packed unsharded).
    pub(crate) fn single_inverted(&self) -> Option<(&[u64], &[VertexId])> {
        match &self.inverted[..] {
            [only] => Some((&only.offsets, &only.entries)),
            _ => None,
        }
    }

    /// Rebuilds from a forward CSR (the inverted side is re-derived).
    /// The forward arrays may be owned vectors or zero-copy snapshot
    /// views.
    pub(crate) fn from_raw_parts(
        n: u32,
        offsets: impl Into<srs_graph::storage::SharedSlice<u64>>,
        entries: impl Into<srs_graph::storage::SharedSlice<VertexId>>,
    ) -> Self {
        let (offsets, entries) = (offsets.into(), entries.into());
        assert_eq!(offsets.len(), n as usize + 1, "offsets length");
        let (inv_offsets, inv_entries) = invert(n as usize, &offsets, &entries);
        CandidateIndex {
            n,
            offsets,
            entries,
            inverted: vec![InvertedSlice { offsets: inv_offsets.into(), entries: inv_entries.into() }],
        }
    }

    /// Assembles from a persisted forward CSR *and* the persisted
    /// inverted slices in vertex-range order. The caller (the persist
    /// layer) is responsible for having validated both sides and proven
    /// that the slices tile the holder lists — this only asserts the
    /// shape invariants that are programming errors rather than data
    /// errors.
    pub(crate) fn from_parts_with_inverted(
        n: u32,
        offsets: impl Into<srs_graph::storage::SharedSlice<u64>>,
        entries: impl Into<srs_graph::storage::SharedSlice<VertexId>>,
        inverted: Vec<InvertedSlice>,
    ) -> Self {
        let (offsets, entries) = (offsets.into(), entries.into());
        assert_eq!(offsets.len(), n as usize + 1, "offsets length");
        assert!(!inverted.is_empty(), "at least one inverted slice");
        for s in &inverted {
            assert_eq!(s.offsets.len(), n as usize + 1, "inverted offsets length");
        }
        CandidateIndex { n, offsets, entries, inverted }
    }

    /// Restricts the inverted map to holders in `[lo, hi)`: the
    /// inverted slice of a vertex-range shard. Offsets keep length
    /// `n + 1` (the signature space stays global); only entries inside
    /// the range survive, so the shards' slices tile the global map.
    pub fn inverted_for_range(&self, lo: VertexId, hi: VertexId) -> (Vec<u64>, Vec<VertexId>) {
        let n = self.n as usize;
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u64);
        let mut entries = Vec::new();
        for w in 0..n as VertexId {
            entries.extend(self.holders(w).filter(|&v| v >= lo && v < hi));
            offsets.push(entries.len() as u64);
        }
        (offsets, entries)
    }
}

/// An epoch-stamped membership buffer over dense vertex ids: `O(n)` bytes
/// once, then each generation ([`SeenStamps::begin`]) resets in O(1) by
/// bumping the epoch instead of clearing. Replaces per-query hash sets /
/// sort-dedup passes on the candidate enumeration hot path.
#[derive(Debug, Default, Clone)]
pub struct SeenStamps {
    stamps: Vec<u32>,
    epoch: u32,
}

impl SeenStamps {
    /// An empty buffer; it sizes itself on first [`SeenStamps::begin`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new generation covering ids `0..n`: all ids become unseen.
    pub fn begin(&mut self, n: usize) {
        if self.stamps.len() < n {
            self.stamps.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Epoch wrapped: stale stamps from 2³²−1 generations ago could
            // alias; one hard clear restores soundness.
            self.stamps.fill(0);
            self.epoch = 1;
        }
    }

    /// Marks `v` seen; returns `true` iff it was unseen this generation.
    #[inline]
    pub fn insert(&mut self, v: VertexId) -> bool {
        let slot = &mut self.stamps[v as usize];
        if *slot == self.epoch {
            false
        } else {
            *slot = self.epoch;
            true
        }
    }

    /// Whether `v` has been seen this generation.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        self.stamps[v as usize] == self.epoch
    }
}

/// Builds the inverted CSR (signature → holders) by counting sort.
pub(crate) fn invert(n: usize, offsets: &[u64], entries: &[VertexId]) -> (Vec<u64>, Vec<VertexId>) {
    let mut counts = vec![0u64; n];
    for &w in entries {
        counts[w as usize] += 1;
    }
    let mut inv_offsets = vec![0u64; n + 1];
    for i in 0..n {
        inv_offsets[i + 1] = inv_offsets[i] + counts[i];
    }
    let mut cursor = inv_offsets[..n].to_vec();
    let mut inv_entries = vec![0 as VertexId; entries.len()];
    for u in 0..n {
        for &w in &entries[offsets[u] as usize..offsets[u + 1] as usize] {
            let c = &mut cursor[w as usize];
            inv_entries[*c as usize] = u as VertexId;
            *c += 1;
        }
    }
    (inv_offsets, inv_entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use srs_graph::gen::{self, fixtures};

    fn small_params() -> SimRankParams {
        SimRankParams { index_reps: 10, index_walks: 5, ..Default::default() }
    }

    #[test]
    fn claw_leaves_signature_hub() {
        // Every walk from a leaf is at the hub at t = 1, so the hub is a
        // signature of each leaf, making all leaves mutual candidates.
        let g = fixtures::claw();
        let idx = CandidateIndex::build(&g, &small_params(), 7, 1);
        for leaf in 1..4u32 {
            assert!(idx.signatures(leaf).contains(&0), "leaf {leaf}: {:?}", idx.signatures(leaf));
        }
        let cands = idx.candidates(1);
        assert!(cands.contains(&2) && cands.contains(&3), "{cands:?}");
        assert!(!cands.contains(&1));
    }

    #[test]
    fn deterministic_and_thread_invariant() {
        let g = gen::copying_web(120, 4, 0.8, 5);
        let p = small_params();
        let a = CandidateIndex::build(&g, &p, 11, 1);
        let b = CandidateIndex::build(&g, &p, 11, 4);
        assert_eq!(a, b);
        let c = CandidateIndex::build(&g, &p, 12, 1);
        assert_ne!(a, c); // different seed, different walks
    }

    #[test]
    fn holders_inverse_of_signatures() {
        let g = gen::preferential_attachment(100, 4, 3);
        let idx = CandidateIndex::build(&g, &small_params(), 2, 2);
        for u in 0..100u32 {
            for &w in idx.signatures(u) {
                assert!(idx.holders(w).any(|h| h == u), "u={u} w={w}");
            }
        }
        for w in 0..100u32 {
            for u in idx.holders(w) {
                assert!(idx.signatures(u).contains(&w), "w={w} u={u}");
            }
        }
    }

    #[test]
    fn candidates_symmetric() {
        // Sharing a signature is symmetric.
        let g = gen::copying_web(80, 4, 0.8, 9);
        let idx = CandidateIndex::build(&g, &small_params(), 4, 2);
        for u in 0..80u32 {
            for v in idx.candidates(u) {
                assert!(idx.candidates(v).contains(&u), "u={u} v={v}");
            }
        }
    }

    #[test]
    fn dead_walks_produce_no_signatures() {
        // Directed path: walks from vertex 1 die after one step at vertex 0;
        // only possible signature is 0 itself.
        let g = fixtures::path(4);
        let idx = CandidateIndex::build(&g, &small_params(), 3, 1);
        assert!(idx.signatures(1).iter().all(|&w| w == 0));
    }

    #[test]
    fn stamped_candidates_match_sort_dedup_path() {
        let g = gen::copying_web(150, 4, 0.8, 21);
        let idx = CandidateIndex::build(&g, &small_params(), 5, 2);
        let mut seen = SeenStamps::new();
        let mut via_sort = Vec::new();
        let mut via_stamp = Vec::new();
        for u in 0..150u32 {
            idx.candidates_into(u, &mut via_sort);
            idx.candidates_into_stamped(u, &mut via_stamp, &mut seen);
            assert_eq!(via_sort, via_stamp, "u={u}");
        }
    }

    #[test]
    fn seen_stamps_generations_isolate() {
        let mut s = SeenStamps::new();
        s.begin(8);
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert!(s.contains(3) && !s.contains(4));
        s.begin(8);
        assert!(!s.contains(3), "new generation forgets");
        assert!(s.insert(3));
    }

    #[test]
    fn roundtrip_raw_parts() {
        let g = gen::erdos_renyi(50, 300, 6);
        let idx = CandidateIndex::build(&g, &small_params(), 8, 2);
        let (n, off, ent) = idx.raw_parts();
        let back = CandidateIndex::from_raw_parts(n, off.to_vec(), ent.to_vec());
        assert_eq!(idx, back);
    }

    #[test]
    fn memory_scales_with_entries() {
        let g = gen::copying_web(200, 5, 0.8, 13);
        let idx = CandidateIndex::build(&g, &small_params(), 1, 2);
        let expect = (idx.offsets.len() as u64 * 2) * 8 + idx.num_edges() * 2 * 4;
        assert_eq!(idx.memory_bytes(), expect);
        assert!(idx.num_edges() > 0, "index should be non-trivial on a web graph");
    }
}

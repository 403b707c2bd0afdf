//! Serving snapshots: graph + index as one zero-copy artifact.
//!
//! A snapshot is a single `SRSBNDL1` bundle ([`srs_graph::container`])
//! carrying both the graph's `g.*` sections and the index layout of
//! [`crate::persist`] (core sections, one inverted slice per shard, and
//! the shard manifest). [`pack`] writes one from in-memory objects for
//! any shard count — unsharded is one shard; [`Dataset::load`] reads
//! one back with a single bulk read — every hot array becomes a
//! zero-copy view into the one shared buffer, so startup cost is I/O plus
//! checksums, not Monte-Carlo work. Because section readers ignore tags
//! they don't know, a snapshot also loads anywhere a graph bundle or an
//! index bundle does (`srs_graph::io::read_binary`,
//! [`crate::persist::load`]).
//!
//! [`load_snapshot`] is the serving entry point: [`LoadOptions`] selects
//! the backing (heap read vs `mmap`) and verification mode. Whatever the
//! bundle's shard count it returns one [`Dataset`]: the shards' inverted
//! slices become one candidate index (see
//! [`crate::index::CandidateIndex`]), so a sharded bundle answers
//! exactly like an unsharded one. An `mmap` load
//! without `verify_on_load` is O(sections): structural table checks
//! plus cheap word-wide shape/range scans (which guarantee the query
//! path cannot panic, whatever the bytes say), with checksums deferred
//! to a [`SnapshotVerifier`] the server runs on a background thread.
//!
//! [`Dataset`] is the unit the serving layer owns and swaps: an
//! `Arc<Graph>` + `Arc<TopKIndex>` pair that clones in O(1), so an
//! engine can atomically replace it while in-flight batches keep the old
//! one alive (see [`crate::engine::ServingEngine`]).

use crate::persist::{add_index_sections, index_from_bundle_with, PersistError};
use crate::topk::TopKIndex;
use srs_graph::container::{BundleReader, BundleWriter, VerifyMode};
use srs_graph::storage::BundleBuf;
use srs_graph::{Graph, MemoryProfile, ValidationLevel};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An immutable graph + index pair, shared via `Arc` so clones are O(1)
/// and a serving engine can hand the same dataset to many threads (or
/// keep an old one alive through a hot swap).
#[derive(Debug, Clone)]
pub struct Dataset {
    graph: Arc<Graph>,
    index: Arc<TopKIndex>,
}

impl Dataset {
    /// Pairs a graph with an index built for it. Errors if the two
    /// disagree on the vertex count — a mismatched pair would panic deep
    /// inside a query instead.
    pub fn new(graph: Graph, index: TopKIndex) -> Result<Self, PersistError> {
        Self::from_arcs(Arc::new(graph), Arc::new(index))
    }

    /// [`Dataset::new`] over already-shared parts.
    pub fn from_arcs(graph: Arc<Graph>, index: Arc<TopKIndex>) -> Result<Self, PersistError> {
        let (gn, inx) = (graph.num_vertices(), index.candidate_index().num_vertices());
        if gn != inx {
            return Err(PersistError::Format(format!("graph has {gn} vertices, index covers {inx}")));
        }
        Ok(Dataset { graph, index })
    }

    /// The graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The index.
    pub fn index(&self) -> &TopKIndex {
        &self.index
    }

    /// The graph's shared handle.
    pub fn graph_arc(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// The index's shared handle.
    pub fn index_arc(&self) -> &Arc<TopKIndex> {
        &self.index
    }

    /// Heap bytes vs mapped bytes behind this dataset's hot arrays.
    pub fn memory_profile(&self) -> MemoryProfile {
        let mut p = self.graph.memory_profile();
        p.merge(self.index.memory_profile());
        p
    }

    /// Loads a snapshot from bundle bytes (heap backing, eager
    /// verification, deep validation) of any shard count. Returns the
    /// dataset plus [`SnapshotInfo`] load statistics (for `srs-obs`
    /// gauges).
    pub fn from_snapshot_bytes(bytes: Vec<u8>) -> Result<(Self, SnapshotInfo), PersistError> {
        let started = Instant::now();
        let reader = BundleReader::open_buf(BundleBuf::from(bytes), VerifyMode::Lazy)?;
        let (ds, info, _) = finish_load(started, reader, VerifyMode::Eager, ValidationLevel::Deep)?;
        Ok((ds, info))
    }

    /// Loads a snapshot file written by [`pack`]: a heap [`load_snapshot`]
    /// (eager verification, deep validation).
    pub fn load<P: AsRef<Path>>(path: P) -> Result<(Self, SnapshotInfo), PersistError> {
        let (ds, info, _) = load_snapshot(path, &LoadOptions::default())?;
        Ok((ds, info))
    }
}

/// How [`load_snapshot`] backs and verifies the bundle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadOptions {
    /// Serve the file through `mmap(2)` instead of reading it onto the
    /// heap: near-zero resident cost, O(sections) startup.
    pub mmap: bool,
    /// With `mmap`, verify every section checksum at open (touches every
    /// page — trades the O(1) startup for eager corruption detection).
    /// Without `mmap` checksums are always verified at open.
    pub verify_on_load: bool,
    /// With `mmap`, fault every page in at load time
    /// (`madvise(MADV_WILLNEED)` + a touch pass) so first queries don't
    /// pay page-fault latency.
    pub prefault: bool,
}

/// Statistics from one snapshot load, surfaced through
/// [`crate::obs::ServingMetrics`] and the CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// Total bundle size in bytes (everything readable, resident or not).
    pub bytes: u64,
    /// Number of sections whose checksums have been verified (all of
    /// them after an eager open; 0 after a lazy `mmap` open until the
    /// background verifier runs).
    pub sections_verified: u32,
    /// Wall-clock time from first byte to ready dataset.
    pub load_time: Duration,
    /// Part of `load_time` spent reading (heap) or mapping the file and
    /// checking the section table (plus delta-link reads for a chain).
    pub read_time: Duration,
    /// Part of `load_time` spent verifying section checksums (zero for a
    /// lazy `mmap` open, whose checksums run later).
    pub checksum_time: Duration,
    /// Part of `load_time` spent parsing and validating the graph and
    /// index sections into a dataset (splicing, for delta links).
    pub validate_time: Duration,
    /// Part of `validate_time` spent on the graph sections; the rest is
    /// [`SnapshotInfo::index_validate_time`].
    pub graph_validate_time: Duration,
    /// Content fingerprint: per-section fingerprints (tag, length,
    /// stored checksum) folded in table order — see
    /// [`srs_graph::container::BundleReader::fingerprint`]. Identifies
    /// the snapshot in O(sections) without touching payload pages, and
    /// is identical across heap, `mmap`, and sharded loads of the same
    /// file (rendered as 16 hex digits in `/info`).
    pub fingerprint: u64,
    /// Bytes of the loaded structures living on the process heap.
    pub resident_bytes: u64,
    /// Bytes served through the `mmap` region (page cache, not heap).
    pub mapped_bytes: u64,
    /// Shard count of the bundle's manifest (1 for unsharded
    /// snapshots); every count loads as one dataset.
    pub shards: u32,
    /// Whether the bundle is backed by a file mapping.
    pub mapped: bool,
}

impl SnapshotInfo {
    /// The part of `load_time` outside the read, checksum and validate
    /// stages (dataset assembly and statistics).
    pub fn residual_time(&self) -> Duration {
        self.load_time.saturating_sub(self.read_time + self.checksum_time + self.validate_time)
    }

    /// Part of `validate_time` spent on the index sections (and on
    /// splicing delta links): what the graph part leaves.
    pub fn index_validate_time(&self) -> Duration {
        self.validate_time.saturating_sub(self.graph_validate_time)
    }

    fn from_load(r: &BundleReader, ds: &Dataset, stamps: [Instant; 5]) -> Self {
        let [started, read, verified, graph_validated, validated] = stamps;
        let profile = ds.memory_profile();
        SnapshotInfo {
            bytes: r.total_bytes(),
            sections_verified: r.verified_count(),
            load_time: started.elapsed(),
            read_time: read - started,
            checksum_time: verified - read,
            validate_time: validated - verified,
            graph_validate_time: graph_validated - verified,
            fingerprint: r.fingerprint(),
            resident_bytes: profile.resident_bytes,
            mapped_bytes: profile.mapped_bytes,
            shards: ds.index().candidate_index().inverted_slices() as u32,
            mapped: r.is_mapped(),
        }
    }
}

/// Deferred checksum verification of a lazily opened snapshot. Keeps
/// the bundle (and its mapping) alive; run [`SnapshotVerifier::verify_all`]
/// on a background thread to get the eager-open corruption guarantee
/// without blocking startup or the query path.
#[derive(Clone)]
pub struct SnapshotVerifier {
    reader: Arc<BundleReader>,
}

impl SnapshotVerifier {
    /// Verifies every section checksum (latched; safe to call from any
    /// thread while queries run). Named-section error on mismatch.
    pub fn verify_all(&self) -> Result<u32, PersistError> {
        self.reader.verify_all().map_err(PersistError::from)
    }

    /// Sections verified so far.
    pub fn verified_count(&self) -> u32 {
        self.reader.verified_count()
    }

    /// Total sections in the bundle.
    pub fn num_sections(&self) -> u32 {
        self.reader.num_sections()
    }
}

impl std::fmt::Debug for SnapshotVerifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotVerifier")
            .field("verified", &self.verified_count())
            .field("sections", &self.num_sections())
            .finish()
    }
}

/// Loads a snapshot for serving: backing and verification per `opts`.
/// Returns the dataset, load statistics, and — for lazy `mmap` opens —
/// the [`SnapshotVerifier`] to run in the background.
pub fn load_snapshot<P: AsRef<Path>>(
    path: P,
    opts: &LoadOptions,
) -> Result<(Dataset, SnapshotInfo, Option<SnapshotVerifier>), PersistError> {
    let started = Instant::now();
    // Mode map: heap loads keep the classic eager-checksum + deep
    // validation contract. Mapped loads run the panic-safety scans
    // either way; `verify_on_load` adds eager checksums on top (the
    // deep derived-data rebuilds stay off — checksums already rule out
    // accidental corruption, and the scans rule out crashes).
    let (mode, level) = if opts.mmap {
        let mode = if opts.verify_on_load { VerifyMode::Eager } else { VerifyMode::Lazy };
        (mode, ValidationLevel::Safety)
    } else {
        (VerifyMode::Eager, ValidationLevel::Deep)
    };
    // The bundle opens lazily either way; `finish_load` runs the eager
    // checksum pass on its own clock.
    let reader = if opts.mmap {
        BundleReader::open_mapped(path.as_ref(), VerifyMode::Lazy)?
    } else {
        BundleReader::open_file(path.as_ref(), VerifyMode::Lazy)?
    };
    if opts.prefault {
        if let BundleBuf::Mapped(m) = reader.buffer() {
            m.advise_willneed();
            m.prefault();
        }
    }
    finish_load(started, reader, mode, level)
}

/// Verifies (if `mode` is eager) and validates an opened bundle into a
/// dataset, stamping each stage on one clock that began at `started`.
fn finish_load(
    started: Instant,
    reader: BundleReader,
    mode: VerifyMode,
    level: ValidationLevel,
) -> Result<(Dataset, SnapshotInfo, Option<SnapshotVerifier>), PersistError> {
    let read = Instant::now();
    if mode == VerifyMode::Eager {
        reader.verify_all()?;
    }
    let verified = Instant::now();
    let graph = Graph::from_bundle_with(&reader, level).map_err(|e| PersistError::Format(e.to_string()))?;
    let graph_validated = Instant::now();
    let ds = Dataset::new(graph, index_from_bundle_with(&reader, level)?)?;
    let info =
        SnapshotInfo::from_load(&reader, &ds, [started, read, verified, graph_validated, Instant::now()]);
    let verifier = (mode == VerifyMode::Lazy).then(|| SnapshotVerifier { reader: Arc::new(reader) });
    Ok((ds, info, verifier))
}

/// Writes graph + index as one snapshot bundle (the `srs pack`
/// artifact) with the index split into `shards` vertex-range shards.
/// Large sections start on page boundaries so `mmap` loads fault in
/// only what they touch.
pub fn pack<W: Write>(graph: &Graph, index: &TopKIndex, shards: u32, w: W) -> Result<(), PersistError> {
    Ok(snapshot_bundle(graph, index, shards)?.write_to(w)?)
}

/// [`pack`] of one shard to a byte vector.
pub fn pack_to_bytes(graph: &Graph, index: &TopKIndex) -> Vec<u8> {
    snapshot_bundle(graph, index, 1).expect("one shard fits every index").to_bytes()
}

fn snapshot_bundle(graph: &Graph, index: &TopKIndex, shards: u32) -> Result<BundleWriter, PersistError> {
    let mut bundle = BundleWriter::new().page_aligned();
    graph.add_bundle_sections(&mut bundle);
    add_index_sections(index, shards, &mut bundle)?;
    Ok(bundle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::{shard_ranges, validate_ranges, MAX_SHARDS, SEC_MANIFEST};
    use crate::topk::QueryOptions;
    use crate::{Diagonal, SimRankParams};
    use srs_graph::container::section_checksum;
    use srs_graph::{gen, VertexId};

    fn build(n: u32, seed: u64) -> (Graph, TopKIndex) {
        let g = gen::copying_web(n, 4, 0.8, seed);
        let params = SimRankParams { r_bounds: 200, ..Default::default() };
        let idx = TopKIndex::build_with(&g, &params, Diagonal::paper_default(params.c), seed, 2);
        (g, idx)
    }

    fn packed(g: &Graph, idx: &TopKIndex, shards: u32) -> Vec<u8> {
        let mut bytes = Vec::new();
        pack(g, idx, shards, &mut bytes).unwrap();
        bytes
    }

    fn write_temp(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("srs-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn snapshot_roundtrip_is_bit_identical() {
        let (g, idx) = build(120, 5);
        let bytes = pack_to_bytes(&g, &idx);
        let (ds, info) = Dataset::from_snapshot_bytes(bytes.clone()).unwrap();
        assert_eq!(info.bytes, bytes.len() as u64);
        assert_ne!(info.fingerprint, 0);
        // Same bytes → same fingerprint (the identity is content-derived).
        let (_, info2) = Dataset::from_snapshot_bytes(bytes.clone()).unwrap();
        assert_eq!(info.fingerprint, info2.fingerprint);
        // 6 graph sections + 6 index sections: 3 core (a uniform
        // diagonal stores no `i.diag`), one shard's 2 inverted sections,
        // and the manifest.
        assert_eq!(info.sections_verified, 12, "{info:?}");
        assert_eq!(info.shards, 1);
        assert!(!info.mapped);
        assert_eq!(info.mapped_bytes, 0);
        assert!(info.resident_bytes > 0);
        assert_eq!(*ds.graph(), g);
        for u in [0u32, 7, 64, 119] {
            let a = idx.query(&g, u, 8, &QueryOptions::default());
            let b = ds.index().query(ds.graph(), u, 8, &QueryOptions::default());
            assert_eq!(a.hits, b.hits, "u={u}");
            assert_eq!(a.stats, b.stats, "u={u}");
        }
    }

    #[test]
    fn fingerprint_is_backing_invariant_and_content_sensitive() {
        let (g, idx) = build(80, 6);
        let bytes = pack_to_bytes(&g, &idx);
        let (_, heap_info) = Dataset::from_snapshot_bytes(bytes.clone()).unwrap();
        let path = write_temp("fp.srs", &bytes);
        let (_, mmap_info, _) =
            load_snapshot(&path, &LoadOptions { mmap: true, ..Default::default() }).unwrap();
        assert_eq!(heap_info.fingerprint, mmap_info.fingerprint);
        // Different content → different fingerprint.
        let (g2, idx2) = build(80, 7);
        let other = pack_to_bytes(&g2, &idx2);
        let (_, other_info) = Dataset::from_snapshot_bytes(other).unwrap();
        assert_ne!(heap_info.fingerprint, other_info.fingerprint);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mmap_load_is_lazy_and_answers_identically() {
        let (g, idx) = build(100, 8);
        let bytes = pack_to_bytes(&g, &idx);
        let path = write_temp("lazy.srs", &bytes);
        let (ds, info, verifier) =
            load_snapshot(&path, &LoadOptions { mmap: true, ..Default::default() }).unwrap();
        assert!(info.mapped);
        assert_eq!(info.sections_verified, 0, "lazy open must not checksum");
        #[cfg(all(unix, target_endian = "little"))]
        assert!(info.mapped_bytes > 0, "{info:?}");
        for u in [0u32, 31, 99] {
            let a = idx.query(&g, u, 6, &QueryOptions::default());
            let b = ds.index().query(ds.graph(), u, 6, &QueryOptions::default());
            assert_eq!(a.hits, b.hits, "u={u}");
        }
        // The deferred verifier reaches full coverage on intact bytes.
        let v = verifier.expect("lazy open returns a verifier");
        let verified = v.verify_all().unwrap();
        assert_eq!(verified, v.num_sections());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn verify_on_load_catches_corruption_mmap() {
        let (g, idx) = build(60, 12);
        let mut bytes = pack_to_bytes(&g, &idx);
        // Corrupt the unused word of the index meta (bytes 68..72): no
        // reader looks at it, so only checksums can catch this — the
        // panic-safety scans (correctly) let it through.
        let reader = BundleReader::open(bytes.clone()).unwrap();
        let midx = (0..reader.num_sections()).find(|&i| reader.section_tag(i) == Some("i.meta")).unwrap();
        let (off, _) = reader.section_extent(midx).unwrap();
        drop(reader);
        bytes[off as usize + 68] ^= 0x20;
        let path = write_temp("corrupt.srs", &bytes);
        let eager = LoadOptions { mmap: true, verify_on_load: true, ..Default::default() };
        let err = load_snapshot(&path, &eager).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        // Lazy open defers: load succeeds, the verifier reports it.
        let lazy = LoadOptions { mmap: true, ..Default::default() };
        let (_, _, verifier) = load_snapshot(&path, &lazy).unwrap();
        let err = verifier.unwrap().verify_all().unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sharded_pack_loads_and_partitions_candidates() {
        // A 4-shard bundle loads as one index of four inverted slices
        // that, read in range order, give exactly the built index's
        // holder lists and candidates.
        let (g, idx) = build(90, 4);
        let bytes = packed(&g, &idx, 4);
        let path = write_temp("sharded.srs", &bytes);
        for opts in [
            LoadOptions::default(),
            LoadOptions { mmap: true, ..Default::default() },
            LoadOptions { mmap: true, verify_on_load: true, ..Default::default() },
        ] {
            let (ds, info, _) = load_snapshot(&path, &opts).unwrap();
            assert_eq!(info.shards, 4);
            let cands = ds.index().candidate_index();
            assert_eq!(cands.inverted_slices(), 4);
            for w in 0..90u32 {
                let held: Vec<VertexId> = cands.holders(w).collect();
                assert_eq!(held, idx.candidate_index().holders(w).collect::<Vec<_>>(), "w={w}");
            }
            let mut seen = crate::index::SeenStamps::new();
            let mut got = Vec::new();
            for u in 0..90u32 {
                cands.candidates_into_stamped(u, &mut got, &mut seen);
                assert_eq!(got, idx.candidate_index().candidates(u), "u={u}");
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sharded_bundle_still_loads_unsharded() {
        // The one-dataset load of a sharded bundle answers like the
        // index it was packed from: hits, stats and explain traces.
        let (g, idx) = build(70, 3);
        let bytes = packed(&g, &idx, 2);
        let (ds, info) = Dataset::from_snapshot_bytes(bytes).unwrap();
        assert_eq!(info.shards, 2);
        let opts = QueryOptions { explain: true, ..Default::default() };
        for u in [0u32, 35, 69] {
            let a = idx.query(&g, u, 5, &opts);
            let b = ds.index().query(ds.graph(), u, 5, &opts);
            assert_eq!(a.hits, b.hits, "u={u}");
            assert_eq!(a.stats, b.stats, "u={u}");
            assert_eq!(a.explain, b.explain, "u={u}");
        }
    }

    #[test]
    fn damaged_manifest_fails_with_named_error_in_all_modes() {
        let (g, idx) = build(50, 2);
        let bytes = packed(&g, &idx, 2);
        let reader = BundleReader::open(bytes.clone()).unwrap();
        // Find the manifest section and flip a fingerprint byte, then
        // recompute the container checksum so only the manifest-level
        // cross-check can catch it.
        let idx_manifest =
            (0..reader.num_sections()).find(|&i| reader.section_tag(i) == Some(SEC_MANIFEST)).unwrap();
        let (off, len) = reader.section_extent(idx_manifest).unwrap();
        drop(reader);
        let mut damaged = bytes.clone();
        damaged[(off + len - 1) as usize] ^= 0xFF; // last fingerprint byte
        let entry_base = 16 + idx_manifest as usize * 48;
        let cks = section_checksum(2, &damaged[off as usize..(off + len) as usize]);
        damaged[entry_base + 40..entry_base + 48].copy_from_slice(&cks.to_le_bytes());
        let path = write_temp("badmanifest.srs", &damaged);
        for opts in [
            LoadOptions::default(),
            LoadOptions { mmap: true, ..Default::default() },
            LoadOptions { mmap: true, verify_on_load: true, ..Default::default() },
        ] {
            let err = load_snapshot(&path, &opts).unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains(SEC_MANIFEST) && msg.contains("fingerprint mismatch"),
                "opts {opts:?}: {msg}"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn shard_ranges_tile_exactly() {
        for (n, s) in [(10u32, 4u32), (7, 7), (100, 1), (5, 2), (0, 1)] {
            let r = shard_ranges(n, s);
            assert_eq!(r.len(), s as usize);
            validate_ranges(n, &r).unwrap();
        }
        let (g, idx) = build(4, 1);
        for shards in [0, 5, MAX_SHARDS + 1] {
            assert!(pack(&g, &idx, shards, &mut Vec::new()).is_err(), "{shards} shards");
        }
    }

    #[test]
    fn snapshot_loads_as_plain_graph_too() {
        let (g, idx) = build(60, 9);
        let bytes = pack_to_bytes(&g, &idx);
        let g2 = srs_graph::io::read_binary(&bytes[..]).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn snapshot_loads_as_plain_index_too() {
        let (g, idx) = build(60, 10);
        let bytes = pack_to_bytes(&g, &idx);
        let idx2 = crate::persist::load(&bytes[..]).unwrap();
        let a = idx.query(&g, 3, 5, &QueryOptions::default());
        let b = idx2.query(&g, 3, 5, &QueryOptions::default());
        assert_eq!(a.hits, b.hits);
    }

    #[test]
    fn mismatched_pair_rejected() {
        let (g, _) = build(60, 11);
        let (_, idx_small) = build(30, 11);
        assert!(matches!(Dataset::new(g, idx_small), Err(PersistError::Format(_))));
    }
}

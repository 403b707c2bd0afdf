//! Delta snapshots: persisting incremental index maintenance.
//!
//! A full serving snapshot ([`crate::snapshot::pack`]) costs O(n) to write
//! and re-load; after a small edit batch, almost all of those bytes are
//! unchanged. A **delta bundle** persists only what [`extend_delta`]
//! recomputed: the graph edits, the dirty-vertex set, and the dirty
//! vertices' candidate signatures. It is an ordinary `SRSBNDL1` container
//! (`d.*` section tags), so every section is checksummed and the whole
//! file has a content fingerprint.
//!
//! Deltas form a **chain**: each delta records the container fingerprint
//! of its parent artifact — the base snapshot for the first delta, the
//! previous delta file for the rest. [`load_chain`] replays a chain onto
//! its base, refusing (in *every* [`LoadOptions`] mode) to splice a delta
//! whose parent fingerprint does not match what was actually loaded —
//! mixing chains, reordering deltas, or swapping the base fails loudly
//! with a named error instead of silently serving a franken-index. The
//! parent check costs O(sections); delta payloads themselves are always
//! eagerly checksummed (they are proportional to the dirty set, not the
//! graph), so a corrupted delta fails closed even under lazy `mmap`
//! options for the base.
//!
//! Splicing is deterministic row surgery, not recomputation: the spliced
//! dataset is bit-identical to what [`extend_delta`] returned when the
//! delta was packed. A chain whose deltas were packed at
//! `staleness_depth = T − 1` therefore serves byte-identical answers to a
//! full rebuild — and to the compacted bundle [`compact_chain`] writes
//! (fold the chain back into a base snapshot when it grows deep).
//!
//! Delta bundles written before the γ table (Algorithm 3) left the index
//! also carry the dirty vertices' γ rows as a section of their own; the
//! splicer never asks for it, so such a chain still loads.

use crate::extend::{extend_delta, ExtendStats};
use crate::persist::PersistError;
use crate::snapshot::{load_snapshot, pack, LoadOptions, SnapshotInfo, SnapshotVerifier};
use crate::topk::TopKIndex;
use crate::{index::CandidateIndex, snapshot::Dataset};
use srs_graph::container::{fold_fingerprints, BundleReader, BundleWriter, VerifyMode};
use srs_graph::storage::{BundleBuf, SharedSlice};
use srs_graph::{GraphDelta, VertexId};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Tag of the delta header section.
pub const SEC_DELTA_META: &str = "d.meta";
/// Tag of the serialized [`GraphDelta`] edit batch.
pub const SEC_DELTA_EDITS: &str = "d.edits";
const SEC_DELTA_DIRTY: &str = "d.dirty";
const SEC_DELTA_CAND_OFF: &str = "d.cand_off";
const SEC_DELTA_CAND_ENT: &str = "d.cand_ent";

/// Delta header format version.
const DELTA_VERSION: u32 = 1;
/// version, staleness_depth, base_n, new_n (u32 × 4), parent fingerprint
/// (u64), dirty count + padding (u32 × 2).
const DELTA_META_LEN: usize = 4 * 4 + 8 + 4 * 2;

/// `true` iff the opened bundle is a delta bundle (carries a `d.meta`
/// section) rather than a base snapshot.
pub fn is_delta_bundle(r: &BundleReader) -> bool {
    r.has(SEC_DELTA_META)
}

/// The parsed `d.meta` header of a delta bundle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaHeader {
    /// Container fingerprint of the parent artifact (base snapshot for
    /// the first delta in a chain, previous delta file otherwise).
    pub parent_fingerprint: u64,
    /// Dilation depth the extension was computed at (`T − 1` ⇒ the chain
    /// is bit-identical to a rebuild).
    pub staleness_depth: u32,
    /// Vertices before the edit batch.
    pub base_n: u32,
    /// Vertices after the edit batch.
    pub new_n: u32,
    /// Recomputed (dirty + appended) vertices carried by this delta.
    pub dirty: u32,
}

/// What [`build_delta`] produced: the delta bundle bytes plus the
/// already-extended dataset (so a serving engine can persist and hot-swap
/// from one computation).
#[derive(Debug)]
pub struct BuiltDelta {
    /// Serialized delta bundle (`SRSBNDL1` with `d.*` sections).
    pub bytes: Vec<u8>,
    /// The extended dataset the delta encodes.
    pub dataset: Dataset,
    /// Recompute/reuse counters from the extension.
    pub stats: ExtendStats,
    /// Container fingerprint of the produced bundle — the
    /// `parent_fingerprint` for the *next* delta in the chain.
    pub fingerprint: u64,
}

/// Applies `batch` to `base`, repairs the index via [`extend_delta`] at
/// `staleness_depth` on `threads` workers, and serializes the result as a
/// delta bundle parented at `parent_fingerprint` (the container
/// fingerprint of the artifact `base` was loaded from).
pub fn build_delta(
    base: &Dataset,
    batch: &GraphDelta,
    staleness_depth: u32,
    threads: usize,
    parent_fingerprint: u64,
) -> Result<BuiltDelta, PersistError> {
    let old = base.graph();
    let new = batch.apply(old).map_err(PersistError::EditBatch)?;
    let out = extend_delta(base.index(), old, &new, staleness_depth, threads)
        .map_err(|e| PersistError::Format(e.to_string()))?;
    let dirty_ids: Vec<VertexId> = (0..new.num_vertices()).filter(|&v| out.dirty[v as usize]).collect();

    let mut meta = Vec::with_capacity(DELTA_META_LEN);
    meta.extend_from_slice(&DELTA_VERSION.to_le_bytes());
    meta.extend_from_slice(&staleness_depth.to_le_bytes());
    meta.extend_from_slice(&old.num_vertices().to_le_bytes());
    meta.extend_from_slice(&new.num_vertices().to_le_bytes());
    meta.extend_from_slice(&parent_fingerprint.to_le_bytes());
    meta.extend_from_slice(&(dirty_ids.len() as u32).to_le_bytes());
    meta.extend_from_slice(&0u32.to_le_bytes()); // padding

    let mut cand_off: Vec<u64> = Vec::with_capacity(dirty_ids.len() + 1);
    let mut cand_ent: Vec<VertexId> = Vec::new();
    cand_off.push(0);
    for &v in &dirty_ids {
        cand_ent.extend_from_slice(out.index.candidates.signatures(v));
        cand_off.push(cand_ent.len() as u64);
    }

    let mut w = BundleWriter::new().page_aligned();
    w.add_bytes(SEC_DELTA_META, 8, meta);
    w.add_bytes(SEC_DELTA_EDITS, 8, batch.to_bytes());
    w.add_pod(SEC_DELTA_DIRTY, &dirty_ids);
    w.add_pod(SEC_DELTA_CAND_OFF, &cand_off);
    w.add_pod(SEC_DELTA_CAND_ENT, &cand_ent);
    let bytes = w.to_bytes();
    let fingerprint = BundleReader::open_shared(std::sync::Arc::new(bytes.clone()))?.fingerprint();
    let dataset = Dataset::new(new, out.index)?;
    Ok(BuiltDelta { bytes, dataset, stats: out.stats, fingerprint })
}

/// Parses and validates a delta bundle's header.
pub fn read_delta_header(r: &BundleReader) -> Result<DeltaHeader, PersistError> {
    let fail = |m: String| PersistError::Format(format!("section {SEC_DELTA_META:?}: {m}"));
    let meta = r.bytes(SEC_DELTA_META)?;
    if meta.len() != DELTA_META_LEN {
        return Err(fail(format!("{} bytes, expected {DELTA_META_LEN}", meta.len())));
    }
    let version = u32::from_le_bytes(meta[..4].try_into().unwrap());
    if version != DELTA_VERSION {
        return Err(fail(format!("unsupported delta version {version}")));
    }
    let staleness_depth = u32::from_le_bytes(meta[4..8].try_into().unwrap());
    let base_n = u32::from_le_bytes(meta[8..12].try_into().unwrap());
    let new_n = u32::from_le_bytes(meta[12..16].try_into().unwrap());
    let parent_fingerprint = u64::from_le_bytes(meta[16..24].try_into().unwrap());
    let dirty = u32::from_le_bytes(meta[24..28].try_into().unwrap());
    if new_n < base_n {
        return Err(fail(format!("shrinking delta ({base_n} → {new_n} vertices)")));
    }
    Ok(DeltaHeader { parent_fingerprint, staleness_depth, base_n, new_n, dirty })
}

/// Splices one opened delta bundle onto `base`, producing the extended
/// dataset by deterministic row surgery (no walk recomputation). The
/// caller is responsible for the parent-fingerprint check; everything
/// else — shapes, ranges, sortedness, appended-vertex coverage — is
/// validated here so an arbitrary file errors instead of panicking.
pub fn splice_delta(base: &Dataset, r: &BundleReader) -> Result<(Dataset, DeltaHeader), PersistError> {
    let fail = |m: String| PersistError::Format(format!("delta bundle: {m}"));
    let header = read_delta_header(r)?;
    let base_n = base.graph().num_vertices();
    if header.base_n != base_n {
        return Err(fail(format!("parent has {base_n} vertices, delta expects {}", header.base_n)));
    }
    let batch =
        GraphDelta::from_bytes(r.bytes(SEC_DELTA_EDITS)?).map_err(|e| PersistError::Format(e.to_string()))?;
    let new = batch.apply(base.graph()).map_err(PersistError::EditBatch)?;
    let new_n = new.num_vertices();
    if new_n != header.new_n {
        return Err(fail(format!("edits produce {new_n} vertices, header promises {}", header.new_n)));
    }

    let dirty_ids: SharedSlice<VertexId> = r.pod_slice(SEC_DELTA_DIRTY)?;
    if dirty_ids.len() != header.dirty as usize {
        return Err(fail(format!("{} dirty ids, header promises {}", dirty_ids.len(), header.dirty)));
    }
    if dirty_ids.windows(2).any(|w| w[0] >= w[1]) {
        return Err(fail("dirty ids not strictly increasing".into()));
    }
    if dirty_ids.last().is_some_and(|&v| v >= new_n) {
        return Err(fail("dirty id out of range".into()));
    }
    // Appended vertices have no base row to reuse — the delta must carry
    // all of them.
    let appended_covered = dirty_ids.iter().rev().take((new_n - base_n) as usize).all(|&v| v >= base_n)
        && dirty_ids.len() >= (new_n - base_n) as usize;
    if !appended_covered {
        return Err(fail("appended vertices missing from the dirty set".into()));
    }

    let cand_off: SharedSlice<u64> = r.pod_slice(SEC_DELTA_CAND_OFF)?;
    let cand_ent: SharedSlice<VertexId> = r.pod_slice(SEC_DELTA_CAND_ENT)?;
    if cand_off.len() != dirty_ids.len() + 1
        || cand_off[0] != 0
        || cand_off.windows(2).any(|w| w[0] > w[1])
        || *cand_off.last().unwrap() != cand_ent.len() as u64
    {
        return Err(fail("candidate offsets malformed".into()));
    }
    if cand_ent.iter().any(|&v| v >= new_n) {
        return Err(fail("candidate signature entry out of range".into()));
    }

    // Row surgery: dirty rows from the delta, clean rows from the base —
    // exactly the splice `extend_delta` performed when the delta was
    // packed, so the result is bit-identical to it.
    let mut offsets: Vec<u64> = Vec::with_capacity(new_n as usize + 1);
    let mut entries: Vec<VertexId> = Vec::new();
    offsets.push(0);
    let mut d = 0usize; // cursor into dirty_ids
    for v in 0..new_n {
        if d < dirty_ids.len() && dirty_ids[d] == v {
            entries.extend_from_slice(&cand_ent[cand_off[d] as usize..cand_off[d + 1] as usize]);
            d += 1;
        } else {
            entries.extend_from_slice(base.index().candidates.signatures(v));
        }
        offsets.push(entries.len() as u64);
    }
    let index = TopKIndex {
        params: base.index().params().clone(),
        diag: base.index().diag.clone(),
        candidates: CandidateIndex::from_raw_parts(new_n, offsets, entries),
        seed: base.index().seed,
    };
    Ok((Dataset::new(new, index)?, header))
}

/// Chain state after [`load_chain`], surfaced through `/info` and the
/// `srs_chain_depth` gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainInfo {
    /// Number of delta bundles applied on top of the base.
    pub depth: u32,
    /// Folded fingerprint of the whole chain (base fingerprint folded
    /// with each delta's container fingerprint, in order) — identifies
    /// the served state across processes the way a snapshot fingerprint
    /// identifies a base.
    pub fingerprint: u64,
    /// Fingerprint of the last artifact in the chain (the parent for the
    /// next delta).
    pub tip_fingerprint: u64,
    /// Total recomputed rows across all deltas.
    pub dirty_total: u64,
    /// Minimum staleness depth across the chain's deltas (`T − 1` for
    /// every delta ⇒ serving is bit-identical to a rebuild); `u32::MAX`
    /// for an empty chain.
    pub min_staleness_depth: u32,
}

impl ChainInfo {
    /// The chain state of a bare base snapshot.
    pub fn base_only(base_fingerprint: u64) -> ChainInfo {
        ChainInfo {
            depth: 0,
            fingerprint: base_fingerprint,
            tip_fingerprint: base_fingerprint,
            dirty_total: 0,
            min_staleness_depth: u32::MAX,
        }
    }
}

/// Loads a base snapshot plus an ordered delta chain. The base loads per
/// `opts` exactly like [`load_snapshot`]; each delta is then opened with
/// eager checksums (deltas are small), its parent fingerprint checked
/// against the previously loaded artifact, and spliced. A base of any
/// shard count carries a chain: splicing reads only the forward
/// candidate map and re-derives the inverted side.
pub fn load_chain<P: AsRef<Path>>(
    base_path: P,
    deltas: &[impl AsRef<Path>],
    opts: &LoadOptions,
) -> Result<(Dataset, SnapshotInfo, ChainInfo, Option<SnapshotVerifier>), PersistError> {
    let started = Instant::now();
    let (mut ds, mut info, verifier) = load_snapshot(base_path, opts)?;
    let mut chain = ChainInfo::base_only(info.fingerprint);
    if deltas.is_empty() {
        return Ok((ds, info, chain, verifier));
    }
    let mut fold = vec![info.fingerprint];
    for (i, path) in deltas.iter().enumerate() {
        let path = path.as_ref();
        let link_started = Instant::now();
        let bytes = std::fs::read(path)?;
        info.bytes += bytes.len() as u64;
        let r = BundleReader::open_buf(BundleBuf::from(bytes), VerifyMode::Lazy)?;
        let read = Instant::now();
        info.sections_verified += r.verify_all()?;
        let verified = Instant::now();
        info.read_time += read - link_started;
        info.checksum_time += verified - read;
        if !is_delta_bundle(&r) {
            return Err(PersistError::Format(format!(
                "chain link {i} ({}) is not a delta bundle",
                path.display()
            )));
        }
        let header = read_delta_header(&r)?;
        if header.parent_fingerprint != chain.tip_fingerprint {
            return Err(PersistError::Format(format!(
                "chain link {i} ({}): parent fingerprint mismatch \
                 (delta expects {:#018x}, loaded parent is {:#018x})",
                path.display(),
                header.parent_fingerprint,
                chain.tip_fingerprint
            )));
        }
        let (next, header) = splice_delta(&ds, &r)?;
        info.validate_time += verified.elapsed();
        ds = next;
        chain.depth += 1;
        chain.tip_fingerprint = r.fingerprint();
        chain.dirty_total += header.dirty as u64;
        chain.min_staleness_depth = chain.min_staleness_depth.min(header.staleness_depth);
        fold.push(chain.tip_fingerprint);
    }
    chain.fingerprint = fold_fingerprints(fold);
    info.fingerprint = chain.fingerprint;
    let profile = ds.memory_profile();
    info.resident_bytes = profile.resident_bytes;
    info.mapped_bytes = profile.mapped_bytes;
    info.load_time = started.elapsed();
    Ok((ds, info, chain, verifier))
}

/// Folds a base + delta chain back into a base snapshot: loads the chain
/// (heap-backed, eager) and writes a one-shard [`pack`] bundle of the
/// final state. The compacted bundle serves byte-identical answers to the chain
/// it replaced.
pub fn compact_chain<P: AsRef<Path>, W: Write>(
    base_path: P,
    deltas: &[impl AsRef<Path>],
    w: W,
) -> Result<(Dataset, ChainInfo), PersistError> {
    let (ds, _, chain, _) = load_chain(base_path, deltas, &LoadOptions::default())?;
    pack(ds.graph(), ds.index(), 1, w)?;
    Ok((ds, chain))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::pack_to_bytes;
    use crate::topk::QueryOptions;
    use crate::{Diagonal, SimRankParams};
    use srs_graph::gen;

    fn build(n: u32, seed: u64) -> Dataset {
        let g = gen::copying_web(n, 4, 0.8, seed);
        let params = SimRankParams { r_bounds: 200, ..Default::default() };
        let idx = TopKIndex::build_with(&g, &params, Diagonal::paper_default(params.c), seed, 2);
        Dataset::new(g, idx).unwrap()
    }

    fn tmp_dir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("srs-chain-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn batch_a(n: u32) -> GraphDelta {
        let mut d = GraphDelta::new();
        d.grow_to(n + 3);
        d.insert(n, 1);
        d.insert(n + 1, n);
        d.insert(n + 2, 2);
        d.delete(1, 0);
        d
    }

    #[test]
    fn delta_roundtrip_splices_bit_identical() {
        let base = build(90, 5);
        let t = base.index().params().t;
        let built = build_delta(&base, &batch_a(90), t - 1, 2, 0xABCD).unwrap();
        let r = BundleReader::open(built.bytes.clone()).unwrap();
        assert!(is_delta_bundle(&r));
        let header = read_delta_header(&r).unwrap();
        assert_eq!(header.parent_fingerprint, 0xABCD);
        assert_eq!((header.base_n, header.new_n), (90, 93));
        let (spliced, _) = splice_delta(&base, &r).unwrap();
        assert_eq!(spliced.index().candidates, built.dataset.index().candidates);
        assert_eq!(*spliced.graph(), *built.dataset.graph());
    }

    #[test]
    fn chain_load_equals_in_memory_extension_and_compaction() {
        let base = build(80, 7);
        let t = base.index().params().t;
        let dir = tmp_dir();
        let base_path = dir.join("chain-base.srs");
        std::fs::write(&base_path, pack_to_bytes(base.graph(), base.index())).unwrap();
        let (_, base_info) = Dataset::from_snapshot_bytes(std::fs::read(&base_path).unwrap()).unwrap();

        // Two chained deltas.
        let b1 = build_delta(&base, &batch_a(80), t - 1, 2, base_info.fingerprint).unwrap();
        let d1_path = dir.join("chain-d1.srs");
        std::fs::write(&d1_path, &b1.bytes).unwrap();
        let mut batch2 = GraphDelta::new();
        batch2.insert(82, 5);
        batch2.delete(80, 1);
        let b2 = build_delta(&b1.dataset, &batch2, t - 1, 2, b1.fingerprint).unwrap();
        let d2_path = dir.join("chain-d2.srs");
        std::fs::write(&d2_path, &b2.bytes).unwrap();

        for opts in [
            LoadOptions::default(),
            LoadOptions { mmap: true, ..Default::default() },
            LoadOptions { mmap: true, verify_on_load: true, ..Default::default() },
        ] {
            let (ds, info, chain, _) = load_chain(&base_path, &[&d1_path, &d2_path], &opts).unwrap();
            assert_eq!(chain.depth, 2);
            assert_eq!(chain.min_staleness_depth, t - 1);
            assert_eq!(chain.tip_fingerprint, b2.fingerprint);
            assert_eq!(info.fingerprint, chain.fingerprint);
            assert_ne!(chain.fingerprint, base_info.fingerprint);
            assert_eq!(ds.index().candidates, b2.dataset.index().candidates);
        }

        // Chain at depth T−1 equals a full rebuild of the mutated graph.
        let rebuilt = TopKIndex::build_with(
            b2.dataset.graph(),
            base.index().params(),
            Diagonal::paper_default(base.index().params().c),
            7,
            2,
        );
        assert_eq!(b2.dataset.index().candidates, rebuilt.candidates);

        // Compaction serves the same answers.
        let compacted_path = dir.join("chain-compact.srs");
        let mut out = Vec::new();
        let (ds_c, chain_c) = compact_chain(&base_path, &[&d1_path, &d2_path], &mut out).unwrap();
        std::fs::write(&compacted_path, &out).unwrap();
        assert_eq!(chain_c.depth, 2);
        let (ds_load, _) = Dataset::load(&compacted_path).unwrap();
        for u in [0u32, 5, 80, 82] {
            let a = ds_c.index().query(ds_c.graph(), u, 6, &QueryOptions::default());
            let b = ds_load.index().query(ds_load.graph(), u, 6, &QueryOptions::default());
            let c = b2.dataset.index().query(b2.dataset.graph(), u, 6, &QueryOptions::default());
            assert_eq!(a.hits, b.hits, "u={u}");
            assert_eq!(a.hits, c.hits, "u={u}");
        }
        for p in [&base_path, &d1_path, &d2_path, &compacted_path] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn parent_fingerprint_mismatch_fails_in_all_modes() {
        let base = build(60, 3);
        let other = build(60, 4);
        let dir = tmp_dir();
        let base_path = dir.join("fp-base.srs");
        std::fs::write(&base_path, pack_to_bytes(base.graph(), base.index())).unwrap();
        // Delta parented at the *other* dataset's fingerprint.
        let built = build_delta(&other, &batch_a(60), 1, 2, 0xDEAD_BEEF).unwrap();
        let d_path = dir.join("fp-delta.srs");
        std::fs::write(&d_path, &built.bytes).unwrap();
        for opts in [
            LoadOptions::default(),
            LoadOptions { mmap: true, ..Default::default() },
            LoadOptions { mmap: true, verify_on_load: true, ..Default::default() },
        ] {
            let err = load_chain(&base_path, &[&d_path], &opts).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains("parent fingerprint mismatch"), "opts {opts:?}: {msg}");
        }
        let _ = std::fs::remove_file(&base_path);
        let _ = std::fs::remove_file(&d_path);
    }

    #[test]
    fn reordered_chain_is_rejected() {
        let base = build(70, 9);
        let t = base.index().params().t;
        let dir = tmp_dir();
        let base_path = dir.join("ord-base.srs");
        std::fs::write(&base_path, pack_to_bytes(base.graph(), base.index())).unwrap();
        let (_, info) = Dataset::load(&base_path).unwrap();
        let b1 = build_delta(&base, &batch_a(70), t - 1, 2, info.fingerprint).unwrap();
        let mut batch2 = GraphDelta::new();
        batch2.insert(3, 9);
        let b2 = build_delta(&b1.dataset, &batch2, t - 1, 2, b1.fingerprint).unwrap();
        let d1 = dir.join("ord-d1.srs");
        let d2 = dir.join("ord-d2.srs");
        std::fs::write(&d1, &b1.bytes).unwrap();
        std::fs::write(&d2, &b2.bytes).unwrap();
        // Correct order loads; swapped order fails on the fingerprint.
        assert!(load_chain(&base_path, &[&d1, &d2], &LoadOptions::default()).is_ok());
        let err = load_chain(&base_path, &[&d2, &d1], &LoadOptions::default()).unwrap_err();
        assert!(err.to_string().contains("parent fingerprint mismatch"), "{err}");
        // A base snapshot in delta position is named as such.
        let err = load_chain(&base_path, &[&base_path], &LoadOptions::default()).unwrap_err();
        assert!(err.to_string().contains("not a delta bundle"), "{err}");
        for p in [&base_path, &d1, &d2] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn splice_rejects_malformed_sections() {
        let base = build(50, 11);
        let built = build_delta(&base, &batch_a(50), 1, 1, 7).unwrap();
        // Rebuild the bundle with one section swapped for garbage at a
        // time; every mutation must yield a Format error, never a panic.
        let src = BundleReader::open(built.bytes.clone()).unwrap();
        let tags: Vec<String> =
            (0..src.num_sections()).map(|i| src.section_tag(i).unwrap().to_string()).collect();
        for victim in &tags {
            let mut w = BundleWriter::new();
            for tag in &tags {
                let payload = src.bytes(tag).unwrap().to_vec();
                if tag == victim {
                    // Truncate to a misaligned, wrong-shape payload.
                    let cut = payload.len().min(5);
                    w.add_bytes(tag, 8, payload[..cut].to_vec());
                } else {
                    w.add_bytes(tag, 8, payload);
                }
            }
            let r = BundleReader::open(w.to_bytes()).unwrap();
            assert!(splice_delta(&base, &r).is_err(), "corrupting {victim} must fail");
        }
    }
}

//! The on-disk index layout.
//!
//! The whole point of the paper's `O(n)` preprocess is to pay it once per
//! graph; this module persists a [`TopKIndex`] (parameters, diagonal,
//! candidate index) so the query phase can start instantly on
//! reload. There is one layout, the `i.*` and `s.*` sections of a
//! `SRSBNDL1` bundle ([`srs_graph::container`]), whatever the shard
//! count; an unsharded index is one shard:
//!
//! - **core** (`i.meta`, `i.diag` for per-vertex diagonals,
//!   `i.cand_off`, `i.cand_ent`): parameters and the global forward
//!   candidate map;
//! - **one inverted slice per shard** (`i.sinv_off.{s}`,
//!   `i.sinv_ent.{s}`): the inverted candidate map restricted to the
//!   holders in shard `s`'s vertex range ([`shard_ranges`]);
//! - **the manifest** ([`SEC_MANIFEST`]): each shard's vertex range and
//!   the fingerprint of its two inverted sections.
//!
//! Hot arrays are bulk little-endian sections that load as zero-copy
//! views, and every section is checksummed. [`add_index_sections`]
//! writes the layout into any bundle, so a serving snapshot
//! ([`crate::snapshot`]) is the union of a graph bundle and an index
//! bundle; [`save`] writes an index-only bundle. [`index_from_bundle_with`]
//! is the one reader: whatever the shard count it returns one index,
//! whose inverted map is the shards' slices in range order (see
//! [`CandidateIndex`]). The slices are never merged or re-derived; the
//! manifest keeps the bundle ready to be split across processes.
//!
//! Bundles written before the γ table (Algorithm 3) left the index also
//! carry it as a section of its own, and its step count in `i.meta`'s
//! unused word; the reader asks for neither, so they load as before.

use crate::index::{invert, CandidateIndex, InvertedSlice};
use crate::topk::TopKIndex;
use crate::{Diagonal, SimRankParams};
use bytes::{Buf, BufMut};
use srs_graph::container::{fold_fingerprints, BundleError, BundleReader, BundleWriter};
use srs_graph::storage::SharedSlice;
use srs_graph::{ValidationLevel, VertexId};
use std::io::{Read, Write};

/// Persistence failures.
#[derive(Debug)]
pub enum PersistError {
    /// Magic/version mismatch or structural inconsistency.
    Format(String),
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// An edit batch that does not apply to the graph it targets (a
    /// vertex out of range, growth past the batch bound): the batch is at
    /// fault, not any index file.
    EditBatch(srs_graph::GraphError),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Format(m) => write!(f, "index format error: {m}"),
            PersistError::Io(e) => write!(f, "I/O error: {e}"),
            PersistError::EditBatch(e) => write!(f, "edit batch rejected: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<BundleError> for PersistError {
    fn from(e: BundleError) -> Self {
        match e {
            BundleError::Io(io) => PersistError::Io(io),
            other => PersistError::Format(other.to_string()),
        }
    }
}

const SEC_INDEX_META: &str = "i.meta";
const SEC_DIAG: &str = "i.diag";
const SEC_CAND_OFFSETS: &str = "i.cand_off";
const SEC_CAND_ENTRIES: &str = "i.cand_ent";

/// Tag of the shard manifest section.
pub const SEC_MANIFEST: &str = "s.manifest";

/// Manifest format version.
const MANIFEST_VERSION: u32 = 1;

/// Maximum shard count (keeps shard section tags within the container's
/// 16-byte tag limit with margin).
pub const MAX_SHARDS: u32 = 64;

/// Tags of shard `s`'s inverted candidate sections.
fn shard_inv_tags(s: u32) -> (String, String) {
    (format!("i.sinv_off.{s}"), format!("i.sinv_ent.{s}"))
}

/// c, theta, seed, uniform-diag (f64/u64 × 4), eight u32 params, n,
/// an unused word (written 0, never read), diagonal tag, padding
/// (u32 × 4).
const INDEX_META_LEN: usize = 8 * 4 + 4 * 8 + 4 * 4;

const DIAG_UNIFORM: u32 = 0;
const DIAG_PER_VERTEX: u32 = 1;

/// The contiguous vertex ranges `shards` shards split `0..n` into
/// (near-equal vertex counts; shard `s` owns `[s·n/N, (s+1)·n/N)`).
pub fn shard_ranges(n: u32, shards: u32) -> Vec<(VertexId, VertexId)> {
    let (n64, s64) = (n as u64, shards as u64);
    (0..s64).map(|s| (((s * n64) / s64) as u32, (((s + 1) * n64) / s64) as u32)).collect()
}

/// Appends the index layout to a bundle under construction: the core
/// sections, one inverted slice per shard of [`shard_ranges`]`(n,
/// shards)`, and the manifest. The inverse of
/// [`index_from_bundle_with`]. Composes with
/// [`srs_graph::Graph::add_bundle_sections`] to form a serving snapshot
/// in one file. Errors on a shard count outside `1..=`[`MAX_SHARDS`] or
/// above the vertex count.
pub fn add_index_sections(index: &TopKIndex, shards: u32, w: &mut BundleWriter) -> Result<(), PersistError> {
    let cands = &index.candidates;
    let n = cands.num_vertices();
    if shards == 0 || shards > MAX_SHARDS {
        return Err(PersistError::Format(format!("shard count {shards} outside 1..={MAX_SHARDS}")));
    }
    if shards > n.max(1) {
        return Err(PersistError::Format(format!("{shards} shards for {n} vertices")));
    }
    add_core_sections(index, w);
    let mut manifest = Vec::with_capacity(8 + shards as usize * 16);
    manifest.put_u32_le(MANIFEST_VERSION);
    manifest.put_u32_le(shards);
    for (s, (lo, hi)) in shard_ranges(n, shards).into_iter().enumerate() {
        let (off_tag, ent_tag) = shard_inv_tags(s as u32);
        let restricted;
        let (inv_offsets, inv_entries) = match cands.single_inverted() {
            Some(whole) if (lo, hi) == (0, n) => whole,
            _ => {
                restricted = cands.inverted_for_range(lo, hi);
                (&restricted.0[..], &restricted.1[..])
            }
        };
        w.add_pod(&off_tag, inv_offsets);
        w.add_pod(&ent_tag, inv_entries);
        // The shard fingerprint folds its sections' (tag, len, checksum)
        // fingerprints — exactly what the loader recomputes from the
        // section table, so a damaged manifest or a swapped shard
        // section fails the cross-check in every verification mode.
        let fp = fold_fingerprints(
            [&off_tag, &ent_tag].map(|tag| w.section_fingerprint(tag).expect("section just added")),
        );
        manifest.put_u32_le(lo);
        manifest.put_u32_le(hi);
        manifest.put_u64_le(fp);
    }
    w.add_bytes(SEC_MANIFEST, 8, manifest);
    Ok(())
}

/// The core sections: parameters, diagonal, forward map.
fn add_core_sections(index: &TopKIndex, w: &mut BundleWriter) {
    let p = &index.params;
    let (diag_tag, uniform) = match &index.diag {
        Diagonal::Uniform(x) => (DIAG_UNIFORM, *x),
        Diagonal::PerVertex(_) => (DIAG_PER_VERTEX, 0.0),
    };
    let mut meta = Vec::with_capacity(INDEX_META_LEN);
    meta.put_f64_le(p.c);
    meta.put_f64_le(p.theta);
    meta.put_u64_le(index.seed);
    meta.put_f64_le(uniform);
    for v in [p.t, p.r_refine, p.r_coarse, p.r_bounds, p.r_gamma, p.index_reps, p.index_walks, p.d_max] {
        meta.put_u32_le(v);
    }
    let (n, offsets, entries) = index.candidates.raw_parts();
    meta.put_u32_le(n);
    meta.put_u32_le(0); // unused
    meta.put_u32_le(diag_tag);
    meta.put_u32_le(0); // padding
    w.add_bytes(SEC_INDEX_META, 8, meta);
    if let Diagonal::PerVertex(d) = &index.diag {
        w.add_pod(SEC_DIAG, d.as_slice());
    }
    w.add_pod(SEC_CAND_OFFSETS, offsets);
    w.add_pod(SEC_CAND_ENTRIES, entries);
}

/// Reads the index layout of an opened bundle as one index, borrowing
/// every array zero-copy from the bundle's buffer. The shards' inverted
/// slices stay separate, in vertex-range order; together they are the
/// inverted map. Other sections (e.g. a snapshot's graph) are ignored.
///
/// Both validation levels check the manifest against the section table
/// and run the shape/range scans that make the query path panic-free.
/// [`ValidationLevel::Deep`] also derives the global inverted map from
/// the forward map once and proves the shards' slices tile it exactly.
pub fn index_from_bundle_with(r: &BundleReader, level: ValidationLevel) -> Result<TopKIndex, PersistError> {
    let manifest = parse_manifest(r.bytes(SEC_MANIFEST)?)?;
    let core = read_index_core(r)?;
    let n = core.n;
    validate_ranges(n, &manifest.ranges)?;
    // Cross-check each shard's stored fingerprint against the section
    // table before touching any shard payload: a damaged manifest (or a
    // manifest pointing at swapped/resized shard sections) fails loudly
    // with a named error in every verification mode, at O(shards) cost.
    let table_fps = shard_table_fingerprints(r, manifest.ranges.len() as u32)?;
    for (s, (&stored, &computed)) in manifest.fingerprints.iter().zip(&table_fps).enumerate() {
        if stored != computed {
            return Err(PersistError::Format(format!(
                "section {SEC_MANIFEST:?}: shard {s} fingerprint mismatch \
                 (stored {stored:#018x}, computed {computed:#018x})"
            )));
        }
    }
    let mut slices = Vec::with_capacity(manifest.ranges.len());
    for (s, &range) in manifest.ranges.iter().enumerate() {
        let (off_tag, ent_tag) = shard_inv_tags(s as u32);
        let slice = InvertedSlice { offsets: r.pod_slice(&off_tag)?, entries: r.pod_slice(&ent_tag)? };
        validate_inverted(n, &slice, range)?;
        slices.push(slice);
    }
    // The shard ranges tile the vertex space and each shard's entries
    // were range-checked, so the shard maps are disjoint; equal totals
    // therefore mean they cover as many entries as the forward map.
    let inv_total: u64 = slices.iter().map(|s| s.entries.len() as u64).sum();
    if inv_total != core.entries.len() as u64 {
        return Err(PersistError::Format(format!(
            "inverted maps cover {inv_total} entries, forward map has {}",
            core.entries.len()
        )));
    }
    if level == ValidationLevel::Deep {
        check_inverted_partition(&core, &slices)?;
    }
    Ok(TopKIndex {
        params: core.params,
        diag: core.diag,
        candidates: CandidateIndex::from_parts_with_inverted(n, core.offsets, core.entries, slices),
        seed: core.seed,
    })
}

/// Reads the whole index of an opened bundle with
/// [`ValidationLevel::Deep`] (see [`index_from_bundle_with`]).
pub fn index_from_bundle(r: &BundleReader) -> Result<TopKIndex, PersistError> {
    index_from_bundle_with(r, ValidationLevel::Deep)
}

/// The `i.*` core payloads of a bundle, parsed and shape-validated.
struct IndexCore {
    params: SimRankParams,
    seed: u64,
    diag: Diagonal,
    n: u32,
    offsets: SharedSlice<u64>,
    entries: SharedSlice<VertexId>,
}

impl IndexCore {
    /// Shape/range scans of the core: a corrupted artifact must error
    /// here, not panic later.
    fn validate(&self) -> Result<(), PersistError> {
        let (n, offsets, entries) = (self.n, &self.offsets, &self.entries);
        if offsets.len() != n as usize + 1 {
            return Err(PersistError::Format("offsets shape mismatch".into()));
        }
        if offsets.last().copied().unwrap_or(0) != entries.len() as u64 {
            return Err(PersistError::Format("entry count mismatch".into()));
        }
        if offsets[0] != 0 || offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(PersistError::Format("offsets not monotone".into()));
        }
        if entries.iter().any(|&e| e >= n) {
            return Err(PersistError::Format("candidate entry out of range".into()));
        }
        if !self.params.is_valid() {
            return Err(PersistError::Format("parameters out of range".into()));
        }
        match &self.diag {
            Diagonal::PerVertex(v) if v.len() != n as usize => Err(PersistError::Format(format!(
                "per-vertex diagonal covers {} vertices, index {n}",
                v.len()
            ))),
            Diagonal::PerVertex(v) if v.iter().any(|x| !x.is_finite()) => {
                Err(PersistError::Format("non-finite diagonal".into()))
            }
            Diagonal::Uniform(x) if !x.is_finite() => Err(PersistError::Format("non-finite diagonal".into())),
            _ => Ok(()),
        }
    }
}

/// Parses and shape-validates the core sections.
fn read_index_core(r: &BundleReader) -> Result<IndexCore, PersistError> {
    let meta = r.bytes(SEC_INDEX_META)?;
    if meta.len() != INDEX_META_LEN {
        return Err(PersistError::Format(format!(
            "index meta section has {} bytes, expected {INDEX_META_LEN}",
            meta.len()
        )));
    }
    let mut buf = meta;
    let c = buf.get_f64_le();
    let theta = buf.get_f64_le();
    let seed = buf.get_u64_le();
    let uniform = buf.get_f64_le();
    let params = SimRankParams {
        c,
        t: buf.get_u32_le(),
        r_refine: buf.get_u32_le(),
        r_coarse: buf.get_u32_le(),
        r_bounds: buf.get_u32_le(),
        r_gamma: buf.get_u32_le(),
        index_reps: buf.get_u32_le(),
        index_walks: buf.get_u32_le(),
        d_max: buf.get_u32_le(),
        theta,
    };
    let n = buf.get_u32_le();
    buf.advance(4); // unused
    let diag = match buf.get_u32_le() {
        DIAG_UNIFORM => Diagonal::Uniform(uniform),
        DIAG_PER_VERTEX => {
            let d: SharedSlice<f64> = r.pod_slice(SEC_DIAG)?;
            Diagonal::PerVertex(std::sync::Arc::new(d.to_vec()))
        }
        other => return Err(PersistError::Format(format!("unknown diagonal tag {other}"))),
    };
    let core = IndexCore {
        params,
        seed,
        diag,
        n,
        offsets: r.pod_slice(SEC_CAND_OFFSETS)?,
        entries: r.pod_slice(SEC_CAND_ENTRIES)?,
    };
    core.validate()?;
    Ok(core)
}

/// Shape/range scans making every query-path access of a shard's
/// inverted CSR bounds-proven: offsets cover `n + 1` slots, start at 0,
/// grow monotonically, end at the entry count, and every entry names a
/// vertex inside the shard's `range`.
fn validate_inverted(
    n: u32,
    slice: &InvertedSlice,
    (lo, hi): (VertexId, VertexId),
) -> Result<(), PersistError> {
    let (inv_offsets, inv_entries) = (&slice.offsets, &slice.entries);
    if inv_offsets.len() != n as usize + 1 {
        return Err(PersistError::Format("inverted offsets shape mismatch".into()));
    }
    if inv_offsets[0] != 0 || inv_offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(PersistError::Format("inverted offsets not monotone".into()));
    }
    if inv_offsets[n as usize] != inv_entries.len() as u64 {
        return Err(PersistError::Format("inverted entry count mismatch".into()));
    }
    if inv_entries.iter().any(|&v| v < lo || v >= hi) {
        return Err(PersistError::Format("inverted entry out of range".into()));
    }
    Ok(())
}

/// The deep check: derives the global inverted map from the forward map
/// and proves that, signature by signature, the shards' holder lists
/// concatenated in range order equal it. With the range checks already
/// done, that makes each shard's slice exactly its range's share.
fn check_inverted_partition(core: &IndexCore, slices: &[InvertedSlice]) -> Result<(), PersistError> {
    let mismatch = |w: usize| {
        PersistError::Format(format!("inverted candidate map inconsistent with forward map at {w}"))
    };
    let (inv_offsets, inv_entries) = invert(core.n as usize, &core.offsets, &core.entries);
    for w in 0..core.n as usize {
        let mut want = &inv_entries[inv_offsets[w] as usize..inv_offsets[w + 1] as usize];
        for s in slices {
            let held = &s.entries[s.offsets[w] as usize..s.offsets[w + 1] as usize];
            want = want.strip_prefix(held).ok_or_else(|| mismatch(w))?;
        }
        if !want.is_empty() {
            return Err(mismatch(w));
        }
    }
    Ok(())
}

struct Manifest {
    ranges: Vec<(VertexId, VertexId)>,
    fingerprints: Vec<u64>,
}

fn parse_manifest(bytes: &[u8]) -> Result<Manifest, PersistError> {
    let fail = |m: &str| PersistError::Format(format!("section {SEC_MANIFEST:?}: {m}"));
    if bytes.len() < 8 {
        return Err(fail("truncated header"));
    }
    let mut buf = bytes;
    let version = buf.get_u32_le();
    if version != MANIFEST_VERSION {
        return Err(fail(&format!("unsupported manifest version {version}")));
    }
    let count = buf.get_u32_le();
    if count == 0 || count > MAX_SHARDS {
        return Err(fail(&format!("shard count {count} outside 1..={MAX_SHARDS}")));
    }
    let expect = 8 + count as usize * 16;
    if bytes.len() != expect {
        return Err(fail(&format!("{} bytes for {count} shards, expected {expect}", bytes.len())));
    }
    let mut ranges = Vec::with_capacity(count as usize);
    let mut fingerprints = Vec::with_capacity(count as usize);
    for _ in 0..count {
        ranges.push((buf.get_u32_le(), buf.get_u32_le()));
        fingerprints.push(buf.get_u64_le());
    }
    Ok(Manifest { ranges, fingerprints })
}

/// Shard ranges must tile `[0, n)` contiguously in order — anything
/// else would silently drop or double-count candidates.
pub(crate) fn validate_ranges(n: u32, ranges: &[(VertexId, VertexId)]) -> Result<(), PersistError> {
    let fail = |m: String| PersistError::Format(format!("section {SEC_MANIFEST:?}: {m}"));
    let mut cursor = 0u32;
    for (s, &(lo, hi)) in ranges.iter().enumerate() {
        if lo != cursor || hi < lo || hi > n {
            return Err(fail(format!("shard {s} range {lo}..{hi} does not tile 0..{n}")));
        }
        cursor = hi;
    }
    if cursor != n {
        return Err(fail(format!("shard ranges end at {cursor}, graph has {n} vertices")));
    }
    Ok(())
}

/// Computes each shard's fingerprint from the section *table* (tags,
/// lengths, stored checksums — no payload reads): the fold of its two
/// inverted sections' fingerprints, in tag order `off` then `ent`.
fn shard_table_fingerprints(r: &BundleReader, shards: u32) -> Result<Vec<u64>, PersistError> {
    let fp_of = |tag: &str| -> Result<u64, PersistError> {
        for i in 0..r.num_sections() {
            if r.section_tag(i) == Some(tag) {
                return Ok(r.section_fingerprint_at(i).expect("section index in range"));
            }
        }
        Err(PersistError::Format(format!("missing section {tag:?}")))
    };
    (0..shards)
        .map(|s| {
            let (off_tag, ent_tag) = shard_inv_tags(s);
            Ok(fold_fingerprints([fp_of(&off_tag)?, fp_of(&ent_tag)?]))
        })
        .collect()
}

/// Serializes the index as a one-shard `SRSBNDL1` index bundle.
pub fn save<W: Write>(index: &TopKIndex, w: W) -> Result<(), PersistError> {
    let mut bundle = BundleWriter::new();
    add_index_sections(index, 1, &mut bundle)?;
    Ok(bundle.write_to(w)?)
}

/// Deserializes an index from any bundle carrying the index layout (an
/// index bundle or a serving snapshot); see [`index_from_bundle`]. Any
/// other input is a [`PersistError::Format`] error.
pub fn load<R: Read>(mut r: R) -> Result<TopKIndex, PersistError> {
    let mut raw = Vec::new();
    r.read_to_end(&mut raw)?;
    index_from_bundle(&BundleReader::open(raw)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topk::QueryOptions;
    use srs_graph::container::is_bundle;
    use srs_graph::gen;

    fn build_index(g: &srs_graph::Graph) -> TopKIndex {
        let params = SimRankParams { r_bounds: 300, ..Default::default() };
        TopKIndex::build_with(g, &params, Diagonal::paper_default(params.c), 5, 2)
    }

    #[test]
    fn roundtrip_preserves_query_results() {
        let g = gen::copying_web(120, 4, 0.8, 3);
        let idx = build_index(&g);
        let mut buf = Vec::new();
        save(&idx, &mut buf).unwrap();
        assert!(is_bundle(&buf));
        let back = load(&buf[..]).unwrap();
        for u in [0u32, 33, 90] {
            let a = idx.query(&g, u, 5, &QueryOptions::default());
            let b = back.query(&g, u, 5, &QueryOptions::default());
            assert_eq!(a.hits, b.hits, "u={u}");
        }
        assert_eq!(idx.params, *back.params());
        assert_eq!(idx.candidates, back.candidates);
    }

    #[test]
    fn roundtrip_per_vertex_diagonal() {
        let g = gen::erdos_renyi(40, 120, 9);
        let params = SimRankParams { r_bounds: 100, ..Default::default() };
        let d: Vec<f64> = (0..40).map(|i| 0.4 + 0.01 * (i % 5) as f64).collect();
        let idx = TopKIndex::build_with(&g, &params, Diagonal::PerVertex(std::sync::Arc::new(d)), 1, 1);
        let mut buf = Vec::new();
        save(&idx, &mut buf).unwrap();
        let back = load(&buf[..]).unwrap();
        match (&idx.diag, &back.diag) {
            (Diagonal::PerVertex(a), Diagonal::PerVertex(b)) => assert_eq!(a, b),
            other => panic!("diagonal variant lost: {other:?}"),
        }
    }

    #[test]
    fn rejects_corruption() {
        let g = gen::erdos_renyi(30, 90, 1);
        let idx = build_index(&g);
        let mut buf = Vec::new();
        save(&idx, &mut buf).unwrap();
        // Bad magic.
        let mut bad = buf.clone();
        bad[3] ^= 0xFF;
        assert!(matches!(load(&bad[..]), Err(PersistError::Format(_))));
        // Truncation at arbitrary points must error, never panic.
        for cut in [10, 60, buf.len() / 2, buf.len() - 2] {
            assert!(load(&buf[..cut]).is_err(), "cut={cut}");
        }
    }
}

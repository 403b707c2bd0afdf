//! Binary persistence of the preprocess artifact.
//!
//! The whole point of the paper's `O(n)` preprocess is to pay it once per
//! graph; this module snapshots a [`TopKIndex`] (parameters, diagonal,
//! γ table, candidate index) so the query phase can start instantly on
//! reload. The artifact is a `SRSBNDL1` section bundle
//! ([`srs_graph::container`]): the γ table and candidate CSR are bulk
//! little-endian sections that load as zero-copy views, and every
//! section is checksummed so corruption fails loudly at open time. The
//! inverted candidate map is re-derived on load (cheaper than storing
//! it).
//!
//! The legacy per-element `SRSIDX01` stream (deprecated) remains
//! loadable: [`load`] switches on the magic. [`save`] always writes the
//! bundle format.

use crate::bounds::GammaTable;
use crate::index::CandidateIndex;
use crate::topk::TopKIndex;
use crate::{Diagonal, SimRankParams};
use bytes::{Buf, BufMut};
use srs_graph::container::{is_bundle, BundleError, BundleReader, BundleWriter};
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
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Format(m) => write!(f, "index format error: {m}"),
            PersistError::Io(e) => write!(f, "I/O error: {e}"),
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

/// Magic of the legacy per-element stream (pre-bundle). Readable forever
/// via [`load`]'s version switch; no longer written by [`save`].
pub const LEGACY_MAGIC: &[u8; 8] = b"SRSIDX01";

const SEC_INDEX_META: &str = "i.meta";
const SEC_DIAG: &str = "i.diag";
const SEC_GAMMA: &str = "i.gamma";
const SEC_CAND_OFFSETS: &str = "i.cand_off";
const SEC_CAND_ENTRIES: &str = "i.cand_ent";
/// Global inverted candidate map (signature → holders). Written since
/// PR 9 so `mmap` loads skip the O(m) re-derivation; absent in older
/// bundles (the loader falls back to re-deriving) and in sharded
/// bundles (which carry per-shard inverted sections instead).
const SEC_CAND_INV_OFFSETS: &str = "i.cinv_off";
const SEC_CAND_INV_ENTRIES: &str = "i.cinv_ent";

/// Tags of shard `s`'s inverted candidate sections.
pub(crate) fn shard_inv_tags(s: u32) -> (String, String) {
    (format!("i.sinv_off.{s}"), format!("i.sinv_ent.{s}"))
}
/// c, theta, seed, uniform-diag (f64/u64 × 4), eight u32 params, n,
/// gamma steps, diagonal tag, padding (u32 × 4).
const INDEX_META_LEN: usize = 8 * 4 + 4 * 8 + 4 * 4;

const DIAG_UNIFORM: u32 = 0;
const DIAG_PER_VERTEX: u32 = 1;

/// Appends the index's sections (`i.*` tags) to a bundle under
/// construction, including the global inverted candidate map. The
/// inverse of [`index_from_bundle`]. Composes with
/// [`srs_graph::Graph::add_bundle_sections`] to form a full serving
/// snapshot in one file.
pub fn add_index_sections(index: &TopKIndex, w: &mut BundleWriter) {
    add_index_core_sections(index, w);
    let (inv_offsets, inv_entries) = index.candidates.inv_raw_parts();
    w.add_pod(SEC_CAND_INV_OFFSETS, inv_offsets);
    w.add_pod(SEC_CAND_INV_ENTRIES, inv_entries);
}

/// The index sections minus the inverted map — what a sharded bundle
/// stores globally (each shard carries its own inverted slice instead).
pub(crate) fn add_index_core_sections(index: &TopKIndex, w: &mut BundleWriter) {
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
    meta.put_u32_le(index.gamma.steps());
    meta.put_u32_le(diag_tag);
    meta.put_u32_le(0); // padding
    w.add_bytes(SEC_INDEX_META, 8, meta);
    if let Diagonal::PerVertex(d) = &index.diag {
        w.add_pod(SEC_DIAG, d.as_slice());
    }
    w.add_pod(SEC_GAMMA, index.gamma.raw());
    w.add_pod(SEC_CAND_OFFSETS, offsets);
    w.add_pod(SEC_CAND_ENTRIES, entries);
}

/// Reconstructs an index from the `i.*` sections of an opened bundle,
/// borrowing the γ table and candidate CSR zero-copy from the bundle's
/// buffer. Other sections (e.g. a snapshot's graph) are ignored.
pub fn index_from_bundle(r: &BundleReader) -> Result<TopKIndex, PersistError> {
    index_from_bundle_with(r, ValidationLevel::Deep)
}

/// [`index_from_bundle`] with an explicit validation level. Both levels
/// run the shape/range scans that make the query path panic-free; only
/// [`ValidationLevel::Deep`] additionally proves the persisted inverted
/// map consistent with the forward map (by re-deriving and comparing).
pub fn index_from_bundle_with(r: &BundleReader, level: ValidationLevel) -> Result<TopKIndex, PersistError> {
    let core = read_index_core(r)?;
    let inverted = if r.has(SEC_CAND_INV_OFFSETS) {
        let inv_offsets: SharedSlice<u64> = r.pod_slice(SEC_CAND_INV_OFFSETS)?;
        let inv_entries: SharedSlice<VertexId> = r.pod_slice(SEC_CAND_INV_ENTRIES)?;
        validate_inverted(core.n, &inv_offsets, &inv_entries, None, Some(core.entries.len() as u64))?;
        Some((inv_offsets, inv_entries))
    } else {
        None // pre-PR-9 bundle: re-derive below
    };
    core.into_index(inverted, level)
}

/// The shared `i.*` payloads of a bundle, parsed and shape-validated but
/// not yet assembled into a [`TopKIndex`]. Sharded loading parses this
/// once and assembles one index per shard from it.
pub(crate) struct IndexCore {
    params: SimRankParams,
    seed: u64,
    diag: Diagonal,
    steps: u32,
    gamma: SharedSlice<f32>,
    n: u32,
    offsets: SharedSlice<u64>,
    entries: SharedSlice<VertexId>,
}

impl IndexCore {
    /// Number of vertices the index covers.
    pub(crate) fn num_vertices(&self) -> u32 {
        self.n
    }

    /// Assembles a [`TopKIndex`], re-deriving the inverted map when
    /// `inverted` is `None` and (at [`ValidationLevel::Deep`]) proving a
    /// supplied inverted map consistent with the forward map.
    fn into_index(
        self,
        inverted: Option<(SharedSlice<u64>, SharedSlice<VertexId>)>,
        level: ValidationLevel,
    ) -> Result<TopKIndex, PersistError> {
        let candidates = match inverted {
            None => CandidateIndex::from_raw_parts(self.n, self.offsets, self.entries),
            Some((inv_offsets, inv_entries)) => {
                let idx = CandidateIndex::from_parts_with_inverted(
                    self.n,
                    self.offsets,
                    self.entries,
                    inv_offsets,
                    inv_entries,
                    (0, self.n),
                );
                if level == ValidationLevel::Deep {
                    let (n, off, ent) = idx.raw_parts();
                    let rebuilt = CandidateIndex::from_raw_parts(n, off.to_vec(), ent.to_vec());
                    if rebuilt.inv_raw_parts() != idx.inv_raw_parts() {
                        return Err(PersistError::Format(
                            "inverted candidate map inconsistent with forward map".into(),
                        ));
                    }
                }
                idx
            }
        };
        Ok(TopKIndex {
            params: self.params,
            diag: self.diag,
            gamma: GammaTable::from_raw(self.steps, self.gamma),
            candidates,
            seed: self.seed,
        })
    }

    /// Assembles a shard's index: the global forward map plus this
    /// shard's inverted slice, which holds the vertices of `range`. The
    /// inverted side must already be validated (see
    /// [`validate_inverted`]); clones of the shared slices are O(1)
    /// `Arc` bumps.
    pub(crate) fn shard_index(
        &self,
        inv_offsets: SharedSlice<u64>,
        inv_entries: SharedSlice<VertexId>,
        range: (VertexId, VertexId),
    ) -> TopKIndex {
        TopKIndex {
            params: self.params.clone(),
            diag: self.diag.clone(),
            gamma: GammaTable::from_raw(self.steps, self.gamma.clone()),
            candidates: CandidateIndex::from_parts_with_inverted(
                self.n,
                self.offsets.clone(),
                self.entries.clone(),
                inv_offsets,
                inv_entries,
                range,
            ),
            seed: self.seed,
        }
    }
}

/// Parses and shape-validates the shared `i.*` sections (everything but
/// the inverted map).
pub(crate) fn read_index_core(r: &BundleReader) -> Result<IndexCore, PersistError> {
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
    let steps = buf.get_u32_le();
    let diag = match buf.get_u32_le() {
        DIAG_UNIFORM => Diagonal::Uniform(uniform),
        DIAG_PER_VERTEX => {
            let d: SharedSlice<f64> = r.pod_slice(SEC_DIAG)?;
            Diagonal::PerVertex(std::sync::Arc::new(d.to_vec()))
        }
        other => return Err(PersistError::Format(format!("unknown diagonal tag {other}"))),
    };
    let gamma: SharedSlice<f32> = r.pod_slice(SEC_GAMMA)?;
    let offsets: SharedSlice<u64> = r.pod_slice(SEC_CAND_OFFSETS)?;
    let entries: SharedSlice<VertexId> = r.pod_slice(SEC_CAND_ENTRIES)?;
    validate_core(&params, &seed, &diag, steps, &gamma, n, &offsets, &entries)?;
    Ok(IndexCore { params, seed, diag, steps, gamma, n, offsets, entries })
}

/// Shape/range scans making every query-path access of a persisted
/// inverted CSR bounds-proven: offsets cover `n + 1` slots, start at 0,
/// grow monotonically, end at the entry count, and every entry names a
/// real vertex (and stays inside `range` when the map is one shard's
/// slice). `expect_total` pins the entry count for the *global* map,
/// where it must equal the forward entry count.
fn validate_inverted(
    n: u32,
    inv_offsets: &[u64],
    inv_entries: &[VertexId],
    range: Option<(VertexId, VertexId)>,
    expect_total: Option<u64>,
) -> Result<(), PersistError> {
    if inv_offsets.len() != n as usize + 1 {
        return Err(PersistError::Format("inverted offsets shape mismatch".into()));
    }
    if inv_offsets[0] != 0 || inv_offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(PersistError::Format("inverted offsets not monotone".into()));
    }
    if inv_offsets[n as usize] != inv_entries.len() as u64 {
        return Err(PersistError::Format("inverted entry count mismatch".into()));
    }
    if let Some(total) = expect_total {
        if inv_entries.len() as u64 != total {
            return Err(PersistError::Format(format!(
                "inverted map has {} entries, forward map {total}",
                inv_entries.len()
            )));
        }
    }
    let (lo, hi) = range.unwrap_or((0, n));
    if inv_entries.iter().any(|&v| v < lo || v >= hi) {
        return Err(PersistError::Format("inverted entry out of range".into()));
    }
    Ok(())
}

/// Loads shard `s`'s inverted sections, validated against its vertex
/// range.
pub(crate) fn shard_inverted_from_bundle(
    r: &BundleReader,
    s: u32,
    n: u32,
    range: (VertexId, VertexId),
) -> Result<(SharedSlice<u64>, SharedSlice<VertexId>), PersistError> {
    let (off_tag, ent_tag) = shard_inv_tags(s);
    let inv_offsets: SharedSlice<u64> = r.pod_slice(&off_tag)?;
    let inv_entries: SharedSlice<VertexId> = r.pod_slice(&ent_tag)?;
    validate_inverted(n, &inv_offsets, &inv_entries, Some(range), None)?;
    Ok((inv_offsets, inv_entries))
}

/// Serializes the index as a `SRSBNDL1` bundle.
pub fn save<W: Write>(index: &TopKIndex, w: W) -> Result<(), PersistError> {
    let mut bundle = BundleWriter::new();
    add_index_sections(index, &mut bundle);
    bundle.write_to(w).map_err(PersistError::from)
}

/// Deserializes an index, sniffing the format from the magic: `SRSBNDL1`
/// bundles load as bulk sections (zero-copy), legacy `SRSIDX01` streams
/// decode through the original per-element path.
pub fn load<R: Read>(mut r: R) -> Result<TopKIndex, PersistError> {
    let mut raw = Vec::new();
    r.read_to_end(&mut raw)?;
    if is_bundle(&raw) {
        let reader = BundleReader::open(raw)?;
        return index_from_bundle(&reader);
    }
    if raw.len() >= 8 && &raw[..8] == LEGACY_MAGIC {
        return load_legacy(&raw);
    }
    Err(PersistError::Format("bad magic".into()))
}

/// Structural validation shared by the bundle and legacy load paths,
/// then assembly (re-deriving the inverted map). A corrupted artifact
/// must error here, not panic later.
#[allow(clippy::too_many_arguments)]
fn assemble(
    params: SimRankParams,
    seed: u64,
    diag: Diagonal,
    steps: u32,
    gamma: SharedSlice<f32>,
    n: u32,
    offsets: SharedSlice<u64>,
    entries: SharedSlice<VertexId>,
) -> Result<TopKIndex, PersistError> {
    validate_core(&params, &seed, &diag, steps, &gamma, n, &offsets, &entries)?;
    let gamma = GammaTable::from_raw(steps, gamma);
    let candidates = CandidateIndex::from_raw_parts(n, offsets, entries);
    Ok(TopKIndex { params, diag, gamma, candidates, seed })
}

/// The shape/range scans behind [`assemble`] and [`read_index_core`].
#[allow(clippy::too_many_arguments)]
fn validate_core(
    params: &SimRankParams,
    _seed: &u64,
    diag: &Diagonal,
    steps: u32,
    gamma: &SharedSlice<f32>,
    n: u32,
    offsets: &SharedSlice<u64>,
    entries: &SharedSlice<VertexId>,
) -> Result<(), PersistError> {
    if steps == 0 || !gamma.len().is_multiple_of(steps as usize) {
        return Err(PersistError::Format("gamma shape mismatch".into()));
    }
    if gamma.len() / steps as usize != n as usize {
        return Err(PersistError::Format(format!(
            "gamma covers {} vertices, candidate index {n}",
            gamma.len() / steps as usize
        )));
    }
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
    if !params.is_valid() {
        return Err(PersistError::Format("parameters out of range".into()));
    }
    match &diag {
        Diagonal::PerVertex(v) if v.len() != n as usize => {
            return Err(PersistError::Format(format!(
                "per-vertex diagonal covers {} vertices, index {n}",
                v.len()
            )));
        }
        Diagonal::PerVertex(v) if v.iter().any(|x| !x.is_finite()) => {
            return Err(PersistError::Format("non-finite diagonal".into()));
        }
        Diagonal::Uniform(x) if !x.is_finite() => {
            return Err(PersistError::Format("non-finite diagonal".into()));
        }
        _ => {}
    }
    Ok(())
}

/// Writes the **legacy** `SRSIDX01` per-element stream.
///
/// Deprecated in favour of the bundle format emitted by [`save`];
/// retained so the legacy read path stays exercised by tests.
pub fn save_legacy<W: Write>(index: &TopKIndex, mut w: W) -> Result<(), PersistError> {
    let mut buf = Vec::new();
    buf.put_slice(LEGACY_MAGIC);
    // Parameters.
    let p = &index.params;
    buf.put_f64_le(p.c);
    buf.put_u32_le(p.t);
    buf.put_u32_le(p.r_refine);
    buf.put_u32_le(p.r_coarse);
    buf.put_u32_le(p.r_bounds);
    buf.put_u32_le(p.r_gamma);
    buf.put_u32_le(p.index_reps);
    buf.put_u32_le(p.index_walks);
    buf.put_u32_le(p.d_max);
    buf.put_f64_le(p.theta);
    buf.put_u64_le(index.seed);
    // Diagonal.
    match &index.diag {
        Diagonal::Uniform(x) => {
            buf.put_u8(0);
            buf.put_f64_le(*x);
        }
        Diagonal::PerVertex(v) => {
            buf.put_u8(1);
            buf.put_u64_le(v.len() as u64);
            for &x in v.iter() {
                buf.put_f64_le(x);
            }
        }
    }
    // Gamma table.
    let gamma = index.gamma.raw();
    buf.put_u32_le(index.gamma.steps());
    buf.put_u64_le(gamma.len() as u64);
    for &x in gamma {
        buf.put_f32_le(x);
    }
    // Candidate index (forward CSR only).
    let (n, offsets, entries) = index.candidates.raw_parts();
    buf.put_u32_le(n);
    buf.put_u64_le(offsets.len() as u64);
    for &o in offsets {
        buf.put_u64_le(o);
    }
    buf.put_u64_le(entries.len() as u64);
    for &e in entries {
        buf.put_u32_le(e);
    }
    w.write_all(&buf)?;
    Ok(())
}

/// Decodes the legacy `SRSIDX01` per-element stream (magic already
/// sniffed by [`load`]).
fn load_legacy(raw: &[u8]) -> Result<TopKIndex, PersistError> {
    let mut buf = raw;
    let need = |buf: &&[u8], n: usize| -> Result<(), PersistError> {
        if buf.remaining() < n {
            Err(PersistError::Format("truncated stream".into()))
        } else {
            Ok(())
        }
    };
    // Length fields are untrusted: multiply with overflow checking so a
    // corrupted count can never wrap past the truncation check and reach
    // an allocation.
    let span = |count: usize, width: usize| -> Result<usize, PersistError> {
        count.checked_mul(width).ok_or_else(|| PersistError::Format("length overflow".into()))
    };
    buf.advance(8); // magic, validated by the caller
    need(&buf, 8 + 4 * 9 + 8 + 8 + 1)?;
    let params = SimRankParams {
        c: buf.get_f64_le(),
        t: buf.get_u32_le(),
        r_refine: buf.get_u32_le(),
        r_coarse: buf.get_u32_le(),
        r_bounds: buf.get_u32_le(),
        r_gamma: buf.get_u32_le(),
        index_reps: buf.get_u32_le(),
        index_walks: buf.get_u32_le(),
        d_max: buf.get_u32_le(),
        theta: buf.get_f64_le(),
    };
    let seed = buf.get_u64_le();
    let diag = match buf.get_u8() {
        0 => {
            need(&buf, 8)?;
            Diagonal::Uniform(buf.get_f64_le())
        }
        1 => {
            need(&buf, 8)?;
            let len = buf.get_u64_le() as usize;
            need(&buf, span(len, 8)?)?;
            let mut v = Vec::with_capacity(len);
            for _ in 0..len {
                v.push(buf.get_f64_le());
            }
            Diagonal::PerVertex(std::sync::Arc::new(v))
        }
        other => return Err(PersistError::Format(format!("unknown diagonal tag {other}"))),
    };
    need(&buf, 12)?;
    let steps = buf.get_u32_le();
    let glen = buf.get_u64_le() as usize;
    need(&buf, span(glen, 4)?)?;
    let mut gamma = Vec::with_capacity(glen);
    for _ in 0..glen {
        gamma.push(buf.get_f32_le());
    }
    need(&buf, 12)?;
    let n = buf.get_u32_le();
    let olen = buf.get_u64_le() as usize;
    if olen != n as usize + 1 {
        return Err(PersistError::Format("offsets shape mismatch".into()));
    }
    need(&buf, span(olen, 8)?)?;
    let mut offsets = Vec::with_capacity(olen);
    for _ in 0..olen {
        offsets.push(buf.get_u64_le());
    }
    need(&buf, 8)?;
    let elen = buf.get_u64_le() as usize;
    need(&buf, span(elen, 4)?)?;
    let mut entries = Vec::with_capacity(elen);
    for _ in 0..elen {
        entries.push(buf.get_u32_le());
    }
    assemble(params, seed, diag, steps, gamma.into(), n, offsets.into(), entries.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topk::QueryOptions;
    use srs_graph::gen;

    fn build_index(g: &srs_graph::Graph) -> TopKIndex {
        let params = SimRankParams { r_bounds: 300, r_gamma: 30, ..Default::default() };
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
    }

    #[test]
    fn roundtrip_per_vertex_diagonal() {
        let g = gen::erdos_renyi(40, 120, 9);
        let params = SimRankParams { r_bounds: 100, r_gamma: 20, ..Default::default() };
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
    fn legacy_stream_still_loads() {
        let g = gen::copying_web(100, 4, 0.8, 7);
        let idx = build_index(&g);
        let mut legacy = Vec::new();
        save_legacy(&idx, &mut legacy).unwrap();
        assert_eq!(&legacy[..8], LEGACY_MAGIC);
        let back = load(&legacy[..]).unwrap();
        for u in [4u32, 55] {
            let a = idx.query(&g, u, 5, &QueryOptions::default());
            let b = back.query(&g, u, 5, &QueryOptions::default());
            assert_eq!(a.hits, b.hits, "u={u}");
        }
        // Both formats reconstruct the same index.
        let mut bundle = Vec::new();
        save(&idx, &mut bundle).unwrap();
        let via_bundle = load(&bundle[..]).unwrap();
        assert_eq!(via_bundle.candidates, back.candidates);
        assert_eq!(via_bundle.gamma, back.gamma);
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

    #[test]
    fn legacy_rejects_corruption() {
        let g = gen::erdos_renyi(30, 90, 1);
        let idx = build_index(&g);
        let mut buf = Vec::new();
        save_legacy(&idx, &mut buf).unwrap();
        for cut in [10, 60, buf.len() / 2, buf.len() - 2] {
            assert!(load(&buf[..cut]).is_err(), "cut={cut}");
        }
    }
}

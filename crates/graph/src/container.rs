//! Versioned single-file snapshot container.
//!
//! A **bundle** is the one on-disk artifact for every persistent object
//! in the system: a graph, a candidate index, or a full serving snapshot
//! (graph + index in one file). The format is deliberately dumb — a
//! magic, a section table, and raw little-endian section payloads — so
//! loading is a handful of bulk reads and readers can borrow sections
//! zero-copy via [`crate::storage::SharedSlice`].
//!
//! ## Layout (all integers little-endian)
//!
//! ```text
//! offset  size  field
//! 0       8     magic "SRSBNDL1"
//! 8       4     format version (written: 2; read: 1 and 2)
//! 12      4     section count k
//! 16      48·k  section table, one entry per section:
//!                 tag       [u8; 16]  zero-padded ASCII name
//!                 offset    u64       payload start (from file start)
//!                 len       u64       payload length in bytes
//!                 align     u64       required alignment of `offset`
//!                 checksum  u64       payload checksum: XXH64 (seed 0)
//!                                     in v2, FNV-1a 64 in v1
//! ...           section payloads at their offsets, zero-padded between
//! ```
//!
//! The version names the checksum function and nothing else: a v1 and a
//! v2 bundle of the same data have the same table layout and the same
//! payload bytes, and differ only in the stored checksums (and so in
//! their fingerprints). [`BundleWriter`] always writes v2;
//! [`BundleReader`] verifies each version with its own function
//! ([`section_checksum`]).
//!
//! Sections are identified by tag, not position; consumers take what
//! they need and ignore the rest. That is what lets a full snapshot
//! double as a graph file: a graph reader finds its `g.*` sections and
//! never looks at the `i.*` ones. Compatibility rule: readers reject
//! unknown *versions*, never unknown *sections*.
//!
//! [`BundleReader::open`] verifies the magic, version, table bounds,
//! alignment, and every section checksum up front, so a corrupted or
//! truncated file fails loudly at load time — after `open` succeeds,
//! section access cannot fail structurally.
//!
//! ## Verification modes
//!
//! Checksumming touches every payload byte, so verifying a multi-GB
//! bundle at open would erase the O(1)-startup win of serving it via
//! `mmap`. The reader therefore separates *structural* validation
//! (magic, version, table bounds, alignment, duplicate tags — always
//! performed, cheap, O(sections)) from *checksum* verification, which
//! is either eager ([`VerifyMode::Eager`], the classic heap-load
//! behaviour) or lazy ([`VerifyMode::Lazy`]): sections start unverified
//! and [`BundleReader::verify_section`] / [`BundleReader::verify_all`]
//! can be run later — e.g. on a background thread while queries are
//! already being served. Each section's verified bit latches once checked.
//!
//! The table-derived [`BundleReader::fingerprint`] identifies a bundle
//! in O(sections) without touching payload pages (it folds each
//! section's tag, length, and stored checksum), so mmap-backed serving
//! can report a meaningful snapshot fingerprint without faulting the
//! whole file in.

use crate::storage::{encode_pod, BundleBuf, MmapRegion, Pod, SharedSlice};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

/// Bundle file magic.
pub const MAGIC: &[u8; 8] = b"SRSBNDL1";

/// Format version the writer produces (v2: XXH64 section checksums).
pub const VERSION: u32 = 2;

/// Oldest format version the reader accepts (v1: FNV-1a 64 checksums).
const MIN_VERSION: u32 = 1;

const TAG_LEN: usize = 16;
const ENTRY_LEN: usize = TAG_LEN + 8 * 4;
const HEADER_LEN: usize = 8 + 4 + 4;

/// Errors produced while writing or reading a bundle.
#[derive(Debug)]
pub enum BundleError {
    /// Structural problem: bad magic, unsupported version, corrupt table,
    /// checksum mismatch, missing or malformed section.
    Format(String),
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl std::fmt::Display for BundleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BundleError::Format(m) => write!(f, "bundle format error: {m}"),
            BundleError::Io(e) => write!(f, "bundle I/O error: {e}"),
        }
    }
}

impl std::error::Error for BundleError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BundleError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for BundleError {
    fn from(e: std::io::Error) -> Self {
        BundleError::Io(e)
    }
}

/// FNV-1a 64-bit checksum (the same cheap, dependency-free hash family
/// the `hash` module uses for maps; here with the reference offset
/// basis so checksums are stable across builds).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Feeds `bytes` into a running FNV-1a 64 state `h` (start from the
/// offset basis via [`fnv1a64`] of an empty slice).
pub fn fnv1a64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The payload checksum a format-`version` bundle stores for `bytes`:
/// [`fnv1a64`] in v1, XXH64 with seed 0 in v2. FNV-1a
/// multiplies once per byte in one serial chain; XXH64 consumes 32-byte
/// stripes in four independent lanes, so the multiplies of one stripe
/// overlap and a heap load's checksum pass runs an order of magnitude
/// faster.
pub fn section_checksum(version: u32, bytes: &[u8]) -> u64 {
    if version == 1 {
        fnv1a64(bytes)
    } else {
        xxh64(bytes)
    }
}

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

fn xxh64_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(P2)).rotate_left(31).wrapping_mul(P1)
}

fn xxh64_merge(h: u64, acc: u64) -> u64 {
    (h ^ xxh64_round(0, acc)).wrapping_mul(P1).wrapping_add(P4)
}

fn le64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("8-byte word"))
}

/// XXH64 with seed 0 (the reference algorithm, little-endian words).
fn xxh64(bytes: &[u8]) -> u64 {
    let stripes = bytes.chunks_exact(32);
    let tail = stripes.remainder();
    let mut h = if bytes.len() >= 32 {
        let mut acc = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for stripe in stripes {
            for (a, word) in acc.iter_mut().zip(stripe.chunks_exact(8)) {
                *a = xxh64_round(*a, le64(word));
            }
        }
        let h = acc[0]
            .rotate_left(1)
            .wrapping_add(acc[1].rotate_left(7))
            .wrapping_add(acc[2].rotate_left(12))
            .wrapping_add(acc[3].rotate_left(18));
        acc.iter().fold(h, |h, &a| xxh64_merge(h, a))
    } else {
        P5
    };
    h = h.wrapping_add(bytes.len() as u64);
    let mut words = tail.chunks_exact(8);
    for word in &mut words {
        h = (h ^ xxh64_round(0, le64(word))).rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
    }
    let mut rest = words.remainder();
    if rest.len() >= 4 {
        let half = u32::from_le_bytes(rest[..4].try_into().expect("4-byte word")) as u64;
        h = (h ^ half.wrapping_mul(P1)).rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
        rest = &rest[4..];
    }
    for &b in rest {
        h = (h ^ (b as u64).wrapping_mul(P5)).rotate_left(11).wrapping_mul(P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// Fingerprint of one section: FNV-1a 64 over its zero-padded tag, byte
/// length, and stored payload checksum. O(1) — no payload bytes are
/// read, so computing fingerprints never faults mapped pages in.
pub fn section_fingerprint(tag: &str, len: u64, checksum: u64) -> u64 {
    let mut t = [0u8; TAG_LEN];
    t[..tag.len().min(TAG_LEN)].copy_from_slice(&tag.as_bytes()[..tag.len().min(TAG_LEN)]);
    let mut h = fnv1a64(&t);
    h = fnv1a64_extend(h, &len.to_le_bytes());
    fnv1a64_extend(h, &checksum.to_le_bytes())
}

/// Folds section (or shard) fingerprints, in order, into one value.
/// This is the bundle fingerprint when fed every section in table
/// order, and a shard fingerprint when fed one shard's sections.
pub fn fold_fingerprints(fps: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = fnv1a64(&[]);
    for fp in fps {
        h = fnv1a64_extend(h, &fp.to_le_bytes());
    }
    h
}

/// `true` iff `bytes` starts with the bundle magic.
pub fn is_bundle(bytes: &[u8]) -> bool {
    bytes.len() >= 8 && &bytes[..8] == MAGIC
}

struct PendingSection {
    tag: [u8; TAG_LEN],
    align: usize,
    payload: Vec<u8>,
    checksum: u64,
}

/// Page size assumed for page-aligned layout (the x86-64/aarch64
/// baseline; also the maximum alignment the reader accepts).
pub const PAGE_SIZE: usize = 4096;

/// Accumulates tagged sections and writes them as one bundle.
#[derive(Default)]
pub struct BundleWriter {
    sections: Vec<PendingSection>,
    page_align: bool,
}

impl BundleWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rounds every section of at least one page up to a
    /// [`PAGE_SIZE`]-aligned offset, so an `mmap`ed reader faults in
    /// only the pages of the sections it actually touches (no two large
    /// sections share a page). Small sections keep their element
    /// alignment — padding them to pages would bloat tiny bundles for
    /// no locality win. Returns `self` for chaining.
    pub fn page_aligned(mut self) -> Self {
        self.page_align = true;
        self
    }

    fn effective_align(&self, s: &PendingSection) -> usize {
        if self.page_align && s.payload.len() >= PAGE_SIZE {
            s.align.max(PAGE_SIZE)
        } else {
            s.align
        }
    }

    /// Adds a raw byte section. `align` must be a power of two and is
    /// the alignment the payload offset will receive in the file (use
    /// the element size for typed arrays so zero-copy views succeed).
    /// Tags must be unique, 1–16 bytes. Panics on writer misuse — these
    /// are programming errors, not data errors.
    pub fn add_bytes(&mut self, tag: &str, align: usize, payload: Vec<u8>) -> &mut Self {
        assert!(
            !tag.is_empty() && tag.len() <= TAG_LEN,
            "section tag must be 1..={TAG_LEN} bytes, got {tag:?}"
        );
        assert!(align.is_power_of_two(), "section alignment must be a power of two");
        assert!(
            !self
                .sections
                .iter()
                .any(|s| s.tag[..tag.len()] == *tag.as_bytes() && s.tag[tag.len()..].iter().all(|&b| b == 0)),
            "duplicate section tag {tag:?}"
        );
        let mut t = [0u8; TAG_LEN];
        t[..tag.len()].copy_from_slice(tag.as_bytes());
        let checksum = section_checksum(VERSION, &payload);
        self.sections.push(PendingSection { tag: t, align, payload, checksum });
        self
    }

    /// The fingerprint (see [`section_fingerprint`]) section `tag` will
    /// have in the written bundle, from the checksum taken when it was
    /// added; `None` if no such section was added.
    pub fn section_fingerprint(&self, tag: &str) -> Option<u64> {
        self.sections
            .iter()
            .find(|s| tag_str(&s.tag) == tag)
            .map(|s| section_fingerprint(tag, s.payload.len() as u64, s.checksum))
    }

    /// Adds a typed array section, encoded little-endian with alignment
    /// `size_of::<T>()`.
    pub fn add_pod<T: Pod>(&mut self, tag: &str, data: &[T]) -> &mut Self {
        let mut bytes = Vec::with_capacity(data.len() * T::SIZE);
        encode_pod(data, &mut bytes);
        self.add_bytes(tag, T::SIZE.max(1), bytes)
    }

    /// Serializes the bundle to a byte vector.
    pub fn to_bytes(&self) -> Vec<u8> {
        let table_end = HEADER_LEN + self.sections.len() * ENTRY_LEN;
        // Lay out payload offsets with alignment padding.
        let mut offsets = Vec::with_capacity(self.sections.len());
        let mut cursor = table_end;
        for s in &self.sections {
            let align = self.effective_align(s);
            cursor = cursor.div_ceil(align) * align;
            offsets.push(cursor);
            cursor += s.payload.len();
        }
        let mut out = Vec::with_capacity(cursor);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for (s, &off) in self.sections.iter().zip(&offsets) {
            out.extend_from_slice(&s.tag);
            out.extend_from_slice(&(off as u64).to_le_bytes());
            out.extend_from_slice(&(s.payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&(self.effective_align(s) as u64).to_le_bytes());
            out.extend_from_slice(&s.checksum.to_le_bytes());
        }
        for (s, &off) in self.sections.iter().zip(&offsets) {
            out.resize(off, 0); // alignment padding
            out.extend_from_slice(&s.payload);
        }
        out
    }

    /// Writes the bundle to `w`.
    pub fn write_to<W: Write>(&self, mut w: W) -> Result<(), BundleError> {
        w.write_all(&self.to_bytes())?;
        Ok(())
    }
}

#[derive(Debug, Clone)]
struct SectionEntry {
    tag: [u8; TAG_LEN],
    offset: usize,
    len: usize,
    checksum: u64,
}

/// When section checksums are verified relative to open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyMode {
    /// Verify every section checksum at open (the classic behaviour):
    /// open fails loudly on any payload corruption.
    Eager,
    /// Verify nothing at open; callers (or a background thread) verify
    /// via [`BundleReader::verify_all`] / [`BundleReader::verify_section`]
    /// later. Keeps open O(sections) — no payload page is touched.
    Lazy,
}

/// A structurally validated bundle over a shared buffer (heap or
/// `mmap`). Sections are borrowed zero-copy from the one buffer.
pub struct BundleReader {
    buf: BundleBuf,
    version: u32,
    sections: Vec<SectionEntry>,
    verified: Vec<AtomicBool>,
    verified_count: AtomicU32,
}

impl BundleReader {
    /// Opens a bundle from an owned byte buffer, validating the magic,
    /// version, section table, and every section checksum.
    pub fn open(bytes: Vec<u8>) -> Result<Self, BundleError> {
        Self::open_shared(Arc::new(bytes))
    }

    /// Opens a bundle from an already shared buffer (see [`BundleReader::open`]).
    pub fn open_shared(buf: Arc<Vec<u8>>) -> Result<Self, BundleError> {
        Self::open_buf(BundleBuf::Heap(buf), VerifyMode::Eager)
    }

    /// Memory-maps the bundle at `path` and opens it. With
    /// [`VerifyMode::Lazy`] no payload page is faulted in: startup cost
    /// is O(sections) regardless of bundle size.
    pub fn open_mapped(path: &std::path::Path, mode: VerifyMode) -> Result<Self, BundleError> {
        let file = std::fs::File::open(path)?;
        let region = MmapRegion::map_file(&file)?;
        Self::open_buf(BundleBuf::Mapped(Arc::new(region)), mode)
    }

    /// Opens a bundle over any shared buffer with the given checksum
    /// verification mode. Structural validation (magic, version, table
    /// bounds, alignment, duplicate tags) always happens here.
    pub fn open_buf(buf: BundleBuf, mode: VerifyMode) -> Result<Self, BundleError> {
        let b: &[u8] = buf.as_slice();
        if b.len() < HEADER_LEN {
            return Err(BundleError::Format("truncated header".into()));
        }
        if &b[..8] != MAGIC {
            return Err(BundleError::Format("bad magic".into()));
        }
        let version = u32::from_le_bytes(b[8..12].try_into().unwrap());
        if !(MIN_VERSION..=VERSION).contains(&version) {
            return Err(BundleError::Format(format!(
                "unsupported bundle version {version} (reader supports {MIN_VERSION} to {VERSION})"
            )));
        }
        let count = u32::from_le_bytes(b[12..16].try_into().unwrap()) as usize;
        let table_len = count
            .checked_mul(ENTRY_LEN)
            .and_then(|t| t.checked_add(HEADER_LEN))
            .ok_or_else(|| BundleError::Format("section count overflow".into()))?;
        if b.len() < table_len {
            return Err(BundleError::Format(format!(
                "truncated section table: {count} sections need {table_len} bytes, file has {}",
                b.len()
            )));
        }
        let mut sections = Vec::with_capacity(count);
        for i in 0..count {
            let e = &b[HEADER_LEN + i * ENTRY_LEN..HEADER_LEN + (i + 1) * ENTRY_LEN];
            let mut tag = [0u8; TAG_LEN];
            tag.copy_from_slice(&e[..TAG_LEN]);
            let offset = u64::from_le_bytes(e[16..24].try_into().unwrap());
            let len = u64::from_le_bytes(e[24..32].try_into().unwrap());
            let align = u64::from_le_bytes(e[32..40].try_into().unwrap());
            let checksum = u64::from_le_bytes(e[40..48].try_into().unwrap());
            let name = tag_str(&tag);
            let end = offset
                .checked_add(len)
                .ok_or_else(|| BundleError::Format(format!("section {name:?}: range overflow")))?;
            if end > b.len() as u64 || offset < table_len as u64 && len > 0 {
                return Err(BundleError::Format(format!(
                    "section {name:?}: range {offset}..{end} outside payload area of {}-byte file",
                    b.len()
                )));
            }
            if !align.is_power_of_two() || align as usize > PAGE_SIZE {
                return Err(BundleError::Format(format!("section {name:?}: bad alignment {align}")));
            }
            if offset % align != 0 {
                return Err(BundleError::Format(format!(
                    "section {name:?}: offset {offset} not aligned to {align}"
                )));
            }
            let (offset, len) = (offset as usize, len as usize);
            if sections.iter().any(|s: &SectionEntry| s.tag == tag) {
                return Err(BundleError::Format(format!("duplicate section tag {name:?}")));
            }
            sections.push(SectionEntry { tag, offset, len, checksum });
        }
        let verified = (0..sections.len()).map(|_| AtomicBool::new(false)).collect();
        let reader = BundleReader { buf, version, sections, verified, verified_count: AtomicU32::new(0) };
        if mode == VerifyMode::Eager {
            reader.verify_all()?;
        }
        Ok(reader)
    }

    /// Verifies section `i`'s checksum (latched: later calls are free).
    /// Named-section error on mismatch.
    pub fn verify_section(&self, i: u32) -> Result<(), BundleError> {
        let s =
            self.sections.get(i as usize).ok_or_else(|| BundleError::Format(format!("no section {i}")))?;
        let flag = &self.verified[i as usize];
        if flag.load(Ordering::Acquire) {
            return Ok(());
        }
        let name = tag_str(&s.tag);
        let got = section_checksum(self.version, &self.buf.as_slice()[s.offset..s.offset + s.len]);
        if got != s.checksum {
            return Err(BundleError::Format(format!(
                "section {name:?}: checksum mismatch (stored {:#018x}, computed {got:#018x})",
                s.checksum
            )));
        }
        if !flag.swap(true, Ordering::AcqRel) {
            self.verified_count.fetch_add(1, Ordering::AcqRel);
        }
        Ok(())
    }

    /// Verifies every section checksum, stopping at the first mismatch.
    /// Returns the number of sections now verified.
    pub fn verify_all(&self) -> Result<u32, BundleError> {
        for i in 0..self.sections.len() as u32 {
            self.verify_section(i)?;
        }
        Ok(self.verified_count())
    }

    /// How many sections have passed checksum verification so far.
    pub fn verified_count(&self) -> u32 {
        self.verified_count.load(Ordering::Acquire)
    }

    /// The bundle's format version, which names its checksum function
    /// (see [`section_checksum`]).
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The shared underlying buffer.
    pub fn buffer(&self) -> &BundleBuf {
        &self.buf
    }

    /// `true` iff the bundle is served through a file mapping.
    pub fn is_mapped(&self) -> bool {
        self.buf.is_mapped()
    }

    /// Total size of the bundle in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.buf.len() as u64
    }

    /// Number of sections in the table.
    pub fn num_sections(&self) -> u32 {
        self.sections.len() as u32
    }

    /// `true` iff a section with this tag is present.
    pub fn has(&self, tag: &str) -> bool {
        self.find(tag).is_some()
    }

    /// Byte extent `(offset, len)` of section `i` in table order, for
    /// tooling that walks the layout (e.g. corruption sweeps cutting at
    /// every boundary).
    pub fn section_extent(&self, i: u32) -> Option<(u64, u64)> {
        self.sections.get(i as usize).map(|s| (s.offset as u64, s.len as u64))
    }

    /// Tag of section `i` in table order.
    pub fn section_tag(&self, i: u32) -> Option<&str> {
        self.sections.get(i as usize).map(|s| tag_str(&s.tag))
    }

    /// Fingerprint of section `i` in table order (see
    /// [`section_fingerprint`]); O(1), reads no payload bytes.
    pub fn section_fingerprint_at(&self, i: u32) -> Option<u64> {
        self.sections.get(i as usize).map(|s| section_fingerprint(tag_str(&s.tag), s.len as u64, s.checksum))
    }

    /// The bundle fingerprint: section fingerprints folded in table
    /// order ([`fold_fingerprints`]). Identifies the bundle's full
    /// content (tags, lengths, and payload checksums) in O(sections),
    /// never faulting payload pages — the same value whether the bundle
    /// is heap-resident, mapped, or sharded.
    pub fn fingerprint(&self) -> u64 {
        fold_fingerprints(
            self.sections.iter().map(|s| section_fingerprint(tag_str(&s.tag), s.len as u64, s.checksum)),
        )
    }

    fn find(&self, tag: &str) -> Option<&SectionEntry> {
        self.sections.iter().find(|s| tag_str(&s.tag) == tag)
    }

    /// The raw bytes of section `tag`.
    pub fn bytes(&self, tag: &str) -> Result<&[u8], BundleError> {
        let s = self.find(tag).ok_or_else(|| BundleError::Format(format!("missing section {tag:?}")))?;
        Ok(&self.buf.as_slice()[s.offset..s.offset + s.len])
    }

    /// Section `tag` as a typed array — zero-copy on little-endian hosts
    /// when the section is aligned for `T`, decoded otherwise.
    pub fn pod_slice<T: Pod>(&self, tag: &str) -> Result<SharedSlice<T>, BundleError> {
        let s = self.find(tag).ok_or_else(|| BundleError::Format(format!("missing section {tag:?}")))?;
        SharedSlice::view(&self.buf, s.offset, s.len)
            .map_err(|e| BundleError::Format(format!("section {tag:?}: {e}")))
    }
}

impl std::fmt::Debug for BundleReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let tags: Vec<String> = self.sections.iter().map(|s| tag_str(&s.tag).to_string()).collect();
        f.debug_struct("BundleReader").field("bytes", &self.buf.len()).field("sections", &tags).finish()
    }
}

fn tag_str(tag: &[u8; TAG_LEN]) -> &str {
    let end = tag.iter().position(|&b| b == 0).unwrap_or(TAG_LEN);
    std::str::from_utf8(&tag[..end]).unwrap_or("")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut w = BundleWriter::new();
        w.add_pod("nums64", &[1u64, 2, 3]);
        w.add_bytes("meta", 1, vec![9, 8, 7]);
        w.add_pod("nums32", &[10u32, 20]);
        w.to_bytes()
    }

    #[test]
    fn roundtrip_sections() {
        let r = BundleReader::open(sample()).unwrap();
        assert_eq!(r.num_sections(), 3);
        assert!(r.has("meta") && !r.has("nope"));
        assert_eq!(r.bytes("meta").unwrap(), &[9, 8, 7]);
        assert_eq!(&r.pod_slice::<u64>("nums64").unwrap()[..], &[1, 2, 3]);
        assert_eq!(&r.pod_slice::<u32>("nums32").unwrap()[..], &[10, 20]);
        assert!(matches!(r.bytes("nope"), Err(BundleError::Format(_))));
    }

    #[test]
    fn sections_are_aligned_for_zero_copy() {
        let r = BundleReader::open(sample()).unwrap();
        let s = r.pod_slice::<u64>("nums64").unwrap();
        #[cfg(target_endian = "little")]
        assert!(s.is_view(), "aligned section should not be copied");
        let _ = s;
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let mut b = sample();
        b[0] = b'X';
        assert!(matches!(BundleReader::open(b), Err(BundleError::Format(_))));
        // Versions outside 1..=2 are refused by number.
        for version in [0u32, 3, 99] {
            let mut b = sample();
            b[8..12].copy_from_slice(&version.to_le_bytes());
            let err = BundleReader::open(b).unwrap_err();
            assert!(err.to_string().contains(&format!("unsupported bundle version {version}")), "{err}");
        }
    }

    #[test]
    fn rejects_payload_corruption() {
        let mut b = sample();
        let last = b.len() - 1;
        b[last] ^= 0x40; // flip a payload bit -> checksum mismatch
        let err = BundleReader::open(b).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let full = sample();
        for cut in 0..full.len() {
            let res = BundleReader::open(full[..cut].to_vec());
            assert!(
                matches!(res, Err(BundleError::Format(_))),
                "truncation to {cut} bytes must be a Format error"
            );
        }
    }

    #[test]
    fn empty_bundle_is_valid() {
        let b = BundleWriter::new().to_bytes();
        let r = BundleReader::open(b).unwrap();
        assert_eq!(r.num_sections(), 0);
    }

    #[test]
    fn empty_sections_roundtrip() {
        let mut w = BundleWriter::new();
        w.add_pod::<u64>("empty", &[]);
        let r = BundleReader::open(w.to_bytes()).unwrap();
        assert_eq!(r.pod_slice::<u64>("empty").unwrap().len(), 0);
    }

    #[test]
    #[should_panic(expected = "duplicate section tag")]
    fn writer_rejects_duplicate_tags() {
        let mut w = BundleWriter::new();
        w.add_bytes("a", 1, vec![]);
        w.add_bytes("a", 1, vec![]);
    }

    #[test]
    fn lazy_open_defers_checksums_until_verify() {
        let mut b = sample();
        let last = b.len() - 1;
        b[last] ^= 0x40; // corrupt a payload byte
        let r = BundleReader::open_buf(BundleBuf::from(b), VerifyMode::Lazy).unwrap();
        assert_eq!(r.verified_count(), 0);
        let err = r.verify_all().unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        // The sections before the corrupt one verified and latched.
        assert!(r.verified_count() < r.num_sections());
    }

    #[test]
    fn verify_latches_and_counts() {
        let r = BundleReader::open_buf(BundleBuf::from(sample()), VerifyMode::Lazy).unwrap();
        assert_eq!(r.verified_count(), 0);
        r.verify_section(0).unwrap();
        r.verify_section(0).unwrap();
        assert_eq!(r.verified_count(), 1);
        assert_eq!(r.verify_all().unwrap(), 3);
        assert_eq!(r.verified_count(), 3);
        assert!(r.verify_section(9).is_err());
    }

    #[test]
    fn open_mapped_roundtrips_lazily() {
        let dir = std::env::temp_dir().join(format!("srs-bundle-mmap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.srs");
        std::fs::write(&path, sample()).unwrap();
        let r = BundleReader::open_mapped(&path, VerifyMode::Lazy).unwrap();
        assert!(r.is_mapped());
        assert_eq!(r.verified_count(), 0);
        assert_eq!(&r.pod_slice::<u64>("nums64").unwrap()[..], &[1, 2, 3]);
        r.verify_all().unwrap();
        // Same structure and fingerprint as the heap-resident open.
        let heap = BundleReader::open(sample()).unwrap();
        assert!(!heap.is_mapped());
        assert_eq!(heap.fingerprint(), r.fingerprint());
        drop(r);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn fingerprint_tracks_table_and_content() {
        let r = BundleReader::open(sample()).unwrap();
        let manual = fold_fingerprints((0..r.num_sections()).map(|i| r.section_fingerprint_at(i).unwrap()));
        assert_eq!(r.fingerprint(), manual);
        assert_eq!(r.section_tag(0), Some("nums64"));
        // Different payload content => different checksum => different print.
        let mut w = BundleWriter::new();
        w.add_pod("nums64", &[1u64, 2, 4]);
        w.add_bytes("meta", 1, vec![9, 8, 7]);
        w.add_pod("nums32", &[10u32, 20]);
        let other = BundleReader::open(w.to_bytes()).unwrap();
        assert_ne!(r.fingerprint(), other.fingerprint());
        // The writer predicts each section's fingerprint before writing.
        assert_eq!(w.section_fingerprint("meta"), other.section_fingerprint_at(1));
        assert_eq!(w.section_fingerprint("absent"), None);
    }

    #[test]
    fn page_aligned_layout_is_readable_and_aligned() {
        let mut w = BundleWriter::new().page_aligned();
        w.add_pod("small", &[1u32]);
        w.add_pod("big", &vec![7u64; 1024]); // 8192 bytes >= one page
        w.add_bytes("tail", 1, vec![5; 10]);
        let bytes = w.to_bytes();
        let r = BundleReader::open(bytes).unwrap();
        let (big_off, big_len) = r.section_extent(1).unwrap();
        assert_eq!(big_len, 8192);
        assert_eq!(big_off % PAGE_SIZE as u64, 0, "large section must start on a page boundary");
        assert_eq!(&r.pod_slice::<u64>("big").unwrap()[..8], &[7u64; 8]);
        assert_eq!(&r.pod_slice::<u32>("small").unwrap()[..], &[1]);
    }

    /// `bytes` rewritten as a v1 bundle: version 1 and FNV-1a 64
    /// checksums, payloads untouched.
    fn as_v1(mut bytes: Vec<u8>) -> Vec<u8> {
        let r = BundleReader::open(bytes.clone()).unwrap();
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        for i in 0..r.num_sections() {
            let (off, len) = r.section_extent(i).unwrap();
            let sum = fnv1a64(&bytes[off as usize..(off + len) as usize]);
            let at = HEADER_LEN + i as usize * ENTRY_LEN + 40;
            bytes[at..at + 8].copy_from_slice(&sum.to_le_bytes());
        }
        bytes
    }

    #[test]
    fn writer_emits_v2_and_reader_still_verifies_v1() {
        let v2 = sample();
        assert_eq!(u32::from_le_bytes(v2[8..12].try_into().unwrap()), 2);
        let r2 = BundleReader::open(v2.clone()).unwrap();
        assert_eq!(r2.version(), 2);
        let v1 = as_v1(v2.clone());
        let r1 = BundleReader::open(v1.clone()).unwrap();
        assert_eq!((r1.version(), r1.verified_count()), (1, 3));
        for tag in ["nums64", "meta", "nums32"] {
            assert_eq!(r1.bytes(tag).unwrap(), r2.bytes(tag).unwrap(), "{tag}");
        }
        // Same payloads, different stored checksums: the prints differ.
        assert_ne!(r1.fingerprint(), r2.fingerprint());
        // Each version is checked with its own function only.
        let mut flipped = v1.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        let err = BundleReader::open(flipped).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        let mut mislabeled = v2;
        mislabeled[8..12].copy_from_slice(&1u32.to_le_bytes());
        assert!(BundleReader::open(mislabeled).unwrap_err().to_string().contains("checksum"));
    }

    #[test]
    fn xxh64_reference_vectors() {
        // Published XXH64 (seed 0) test vectors.
        assert_eq!(section_checksum(2, b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(section_checksum(2, b"abc"), 0x44BC_2CF5_AD77_0999);
        assert_eq!(section_checksum(2, b"a"), 0xD24E_C4F1_A98C_6E5B);
        // 39 bytes: one full stripe, then a 4-byte and a 3-byte tail.
        assert_eq!(section_checksum(2, b"Nobody inspects the spammish repetition"), 0xFBCE_A83C_8A37_8BF1);
        assert_eq!(section_checksum(1, b"abc"), fnv1a64(b"abc"));
    }

    /// XXH64 written one word at a time: word `i` of the striped prefix
    /// feeds lane `i % 4`, then the tail is eaten in 8-, 4- and 1-byte
    /// steps by explicit index.
    fn xxh64_one_lane(bytes: &[u8]) -> u64 {
        let n = bytes.len();
        let word = |i: usize| u64::from_le_bytes(bytes[i..i + 8].try_into().unwrap());
        let striped = n / 32 * 32;
        let mut h = P5;
        if n >= 32 {
            let mut acc = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
            for i in (0..striped).step_by(8) {
                acc[i / 8 % 4] = xxh64_round(acc[i / 8 % 4], word(i));
            }
            h = [(0, 1), (1, 7), (2, 12), (3, 18)]
                .iter()
                .fold(0u64, |h, &(lane, rot)| h.wrapping_add(acc[lane].rotate_left(rot)));
            for a in acc {
                h = xxh64_merge(h, a);
            }
        }
        h = h.wrapping_add(n as u64);
        let mut i = striped;
        while i + 8 <= n {
            h = (h ^ xxh64_round(0, word(i))).rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
            i += 8;
        }
        if i + 4 <= n {
            let half = u32::from_le_bytes(bytes[i..i + 4].try_into().unwrap()) as u64;
            h = (h ^ half.wrapping_mul(P1)).rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
            i += 4;
        }
        for &b in &bytes[i..] {
            h = (h ^ (b as u64).wrapping_mul(P5)).rotate_left(11).wrapping_mul(P1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }

    #[test]
    fn xxh64_matches_the_one_lane_reference_at_every_stripe_and_tail_edge() {
        let data: Vec<u8> = (0..65u32).map(|i| (i.wrapping_mul(151) ^ 0x5a) as u8).collect();
        let mut seen = std::collections::HashSet::new();
        for len in 0..=65 {
            let got = section_checksum(2, &data[..len]);
            assert_eq!(got, xxh64_one_lane(&data[..len]), "len {len}");
            assert!(seen.insert(got), "len {len} collides with a shorter prefix");
        }
        assert_eq!(xxh64_one_lane(b"abc"), 0x44BC_2CF5_AD77_0999);
    }

    #[test]
    fn fnv_reference_vector() {
        // Known FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}

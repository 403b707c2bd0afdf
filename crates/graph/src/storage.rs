//! Shared hot-array storage: owned vectors or zero-copy views into one
//! loaded snapshot buffer.
//!
//! Every large array in the serving path (`Graph`'s CSR arrays, the γ
//! table, the candidate index) is a [`SharedSlice`]: either an owned
//! `Vec<T>` (built in memory) or a typed view into a single reference-
//! counted byte buffer loaded from a snapshot bundle. The hot path is
//! identical in both cases — a raw pointer + length pair dereferenced as
//! `&[T]` — so query kernels pay nothing for the indirection, and loading
//! a snapshot costs one bulk read instead of per-element decoding.
//!
//! Zero-copy views require the host to be little-endian (the on-disk
//! byte order) and the section to be aligned for `T`; both are checked
//! at view construction. Big-endian hosts transparently fall back to a
//! decoded owned vector, so correctness never depends on endianness.
//!
//! The shared buffer behind a view is a [`BundleBuf`]: a heap
//! `Arc<Vec<u8>>`, a file read into huge-page-backed anonymous memory
//! ([`AnonRegion`], the heap load of a snapshot file), or a read-only
//! [`MmapRegion`] (`mmap(2)`), so a multi-GB snapshot can be served
//! straight from the page cache without ever being copied onto the heap.

use std::ops::Deref;
use std::sync::Arc;

/// One read-only `mmap(2)` region covering a whole snapshot file.
///
/// Declared directly against the kernel's stable C ABI (the same
/// std-only approach `srs-server` uses for `signal(2)`), so no external
/// crate is needed. The mapping is `PROT_READ | MAP_PRIVATE`: the file
/// is never written through the map, and other processes' writes to the
/// file are not required to be visible. On non-Unix hosts the "map" is
/// a plain buffered read — same API, fully resident.
///
/// Safety audit: the pointer is only produced by a successful `mmap`
/// call of exactly `len` bytes and only released by `Drop` via
/// `munmap`; `as_slice` hands out `&[u8]` borrows that cannot outlive
/// the region. The one hazard `mmap` cannot rule out is the backing
/// file being *truncated* while mapped (a later page touch raises
/// `SIGBUS`); the snapshot workflow writes bundles atomically via
/// rename, and the serving contract documents that live snapshot files
/// must not be truncated in place.
#[cfg(unix)]
pub struct MmapRegion {
    ptr: *mut u8,
    len: usize,
}

#[cfg(unix)]
mod sys {
    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;
    pub const MADV_WILLNEED: i32 = 3;

    extern "C" {
        pub fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
        pub fn munmap(addr: *mut u8, len: usize) -> i32;
        pub fn madvise(addr: *mut u8, len: usize, advice: i32) -> i32;
    }

    /// The Linux values [`super::AnonRegion`] needs beyond the portable
    /// ones (x86_64 and aarch64 share them).
    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    pub mod anon {
        pub const PROT_WRITE: i32 = 2;
        pub const MAP_ANONYMOUS: i32 = 0x20;
        pub const MADV_HUGEPAGE: i32 = 14;

        extern "C" {
            pub fn mprotect(addr: *mut u8, len: usize, prot: i32) -> i32;
        }
    }
}

// SAFETY: the region is immutable after construction (PROT_READ) and
// the pointer stays valid until Drop, so sharing across threads is as
// safe as sharing `&[u8]`.
#[cfg(unix)]
unsafe impl Send for MmapRegion {}
#[cfg(unix)]
unsafe impl Sync for MmapRegion {}

#[cfg(unix)]
impl MmapRegion {
    /// Maps the whole of `file` read-only. The mapping length is fixed
    /// at the file's length at call time.
    pub fn map_file(file: &std::fs::File) -> std::io::Result<Self> {
        use std::os::unix::io::AsRawFd;
        let len = file.metadata()?.len();
        let len = usize::try_from(len)
            .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "file too large to map"))?;
        if len == 0 {
            return Ok(MmapRegion { ptr: std::ptr::null_mut(), len: 0 });
        }
        // SAFETY: a fresh read-only private mapping of `len` bytes over
        // an open descriptor; the kernel validates every argument and we
        // check for MAP_FAILED (-1) before the pointer is ever used.
        let ptr = unsafe {
            sys::mmap(std::ptr::null_mut(), len, sys::PROT_READ, sys::MAP_PRIVATE, file.as_raw_fd(), 0)
        };
        if ptr as usize == usize::MAX {
            return Err(std::io::Error::last_os_error());
        }
        Ok(MmapRegion { ptr, len })
    }

    /// The mapped bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        if self.len == 0 {
            return &[];
        }
        // SAFETY: `ptr` is a live PROT_READ mapping of exactly `len` bytes.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Hints the kernel to read the whole region ahead
    /// (`madvise(MADV_WILLNEED)`). Advisory: failures are ignored.
    pub fn advise_willneed(&self) {
        if self.len > 0 {
            // SAFETY: advises over the exact live mapping; madvise never
            // invalidates the mapping regardless of outcome.
            unsafe {
                sys::madvise(self.ptr, self.len, sys::MADV_WILLNEED);
            }
        }
    }

    /// Touches one byte per page so every page is faulted in now rather
    /// than on first query. Returns the number of pages touched.
    pub fn prefault(&self) -> u64 {
        let bytes = self.as_slice();
        let mut acc = 0u8;
        let mut pages = 0u64;
        let mut i = 0;
        while i < bytes.len() {
            // Volatile so the loop is not optimised away as dead reads.
            acc ^= unsafe { std::ptr::read_volatile(bytes.as_ptr().add(i)) };
            pages += 1;
            i += 4096;
        }
        std::hint::black_box(acc);
        pages
    }
}

#[cfg(unix)]
impl Drop for MmapRegion {
    fn drop(&mut self) {
        if self.len > 0 {
            // SAFETY: unmapping the exact region returned by mmap; the
            // pointer is never used again (self is being dropped).
            unsafe {
                sys::munmap(self.ptr, self.len);
            }
        }
    }
}

/// Non-Unix fallback: same API, backed by a plain buffered read.
#[cfg(not(unix))]
pub struct MmapRegion {
    buf: Vec<u8>,
}

#[cfg(not(unix))]
impl MmapRegion {
    pub fn map_file(file: &std::fs::File) -> std::io::Result<Self> {
        use std::io::Read;
        let mut buf = Vec::new();
        let mut f = file;
        f.read_to_end(&mut buf)?;
        Ok(MmapRegion { buf })
    }

    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    pub fn advise_willneed(&self) {}

    pub fn prefault(&self) -> u64 {
        0
    }
}

impl std::fmt::Debug for MmapRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MmapRegion").field("len", &self.as_slice().len()).finish()
    }
}

/// A whole file read into anonymous memory: the heap load of a
/// snapshot, a private copy no later change to the file can reach.
///
/// On Linux the copy lands in a fresh `mmap(2)` region whose start is
/// 2 MiB-aligned, and the whole 2 MiB extents inside the file's length
/// are advised `MADV_HUGEPAGE`, so reading a multi-MB file faults a few
/// huge pages instead of one small page per 4 KiB. The partial extent
/// at the end stays on small pages, so resident memory is what a plain
/// read would use. Where the advice is refused (transparent huge pages
/// off) the region is a plain read into small pages. After the read the
/// region is made read-only. Elsewhere it is a plain `Vec` read.
///
/// Safety audit: `ptr` comes only from a successful anonymous `mmap`,
/// trimmed to `[ptr, ptr + map_len)`; `as_slice` borrows at most `len
/// ≤ map_len` bytes of it and cannot outlive the region, and `Drop`
/// unmaps exactly that range. The memory is never written after
/// construction.
#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
pub struct AnonRegion {
    ptr: *mut u8,
    len: usize,
    map_len: usize,
    advised: usize,
}

/// Huge-page size the [`AnonRegion`] aligns and advises at.
#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
const HUGE_PAGE: usize = 2 << 20;

/// The largest base page size of the supported targets (aarch64 kernels
/// may use 64 KiB pages): an [`AnonRegion`] keeps its length rounded up
/// to it, so every piece it unmaps is whole pages.
#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
const MAX_PAGE: usize = 64 << 10;

// SAFETY: the region is read-only after construction and `ptr` stays
// valid until Drop (`len`, `map_len` and `advised` are plain numbers),
// so sharing across threads is as safe as sharing `&[u8]`.
#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
unsafe impl Send for AnonRegion {}
#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
unsafe impl Sync for AnonRegion {}

#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
impl AnonRegion {
    /// Reads the whole of `file` (its length at call time) into a fresh
    /// region. A file that shrinks during the read is an
    /// `UnexpectedEof` error.
    pub fn read_file(file: &std::fs::File) -> std::io::Result<Self> {
        use std::io::Read;
        use sys::anon;
        let len = usize::try_from(file.metadata()?.len())
            .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "file too large to read"))?;
        if len == 0 {
            return Ok(AnonRegion { ptr: std::ptr::null_mut(), len: 0, map_len: 0, advised: 0 });
        }
        // `len` in whole pages, plus one huge page of slop to align the
        // start; the slop on either side is whole pages.
        let too_large = || std::io::Error::new(std::io::ErrorKind::InvalidData, "file too large to read");
        let map_len = len.checked_next_multiple_of(MAX_PAGE).ok_or_else(too_large)?;
        let raw_len = map_len.checked_add(HUGE_PAGE).ok_or_else(too_large)?;
        // SAFETY: a fresh private anonymous read/write mapping; the
        // kernel validates the arguments and MAP_FAILED (-1) is checked
        // before the pointer is used.
        let raw = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                raw_len,
                sys::PROT_READ | anon::PROT_WRITE,
                sys::MAP_PRIVATE | anon::MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        if raw as usize == usize::MAX {
            return Err(std::io::Error::last_os_error());
        }
        let head = (raw as usize).next_multiple_of(HUGE_PAGE) - raw as usize;
        // SAFETY: `head < HUGE_PAGE`, so `ptr` and `ptr + map_len` lie in
        // the `raw_len = map_len + HUGE_PAGE` bytes just mapped. The two
        // unmapped pieces are the page-aligned slop before `ptr` and
        // after `ptr + map_len`; nothing else points into them.
        let ptr = unsafe {
            let ptr = raw.add(head);
            if head > 0 {
                sys::munmap(raw, head);
            }
            if HUGE_PAGE - head > 0 {
                sys::munmap(ptr.add(map_len), HUGE_PAGE - head);
            }
            ptr
        };
        let mut region = AnonRegion { ptr, len, map_len, advised: 0 };
        let whole = len / HUGE_PAGE * HUGE_PAGE;
        // SAFETY: advises the region's own first `whole ≤ map_len` bytes;
        // madvise never invalidates a mapping whatever it returns.
        if whole > 0 && unsafe { sys::madvise(ptr, whole, anon::MADV_HUGEPAGE) } == 0 {
            region.advised = whole;
        }
        // SAFETY: the first `len` bytes of the live read/write mapping,
        // zero-filled by the kernel, borrowed mutably only here.
        let bytes = unsafe { std::slice::from_raw_parts_mut(ptr, len) };
        let mut reader = file;
        reader.read_exact(bytes)?;
        // SAFETY: drops write access to the region's own pages.
        if unsafe { anon::mprotect(ptr, map_len, sys::PROT_READ) } != 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(region)
    }

    /// The file's bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        if self.len == 0 {
            return &[];
        }
        // SAFETY: `ptr` is a live mapping of `map_len ≥ len` bytes whose
        // first `len` were filled by `read_file`.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Bytes advised `MADV_HUGEPAGE`: the whole 2 MiB extents inside the
    /// file's length, or 0 when the file is shorter or the kernel
    /// refused the advice.
    pub fn advised_bytes(&self) -> usize {
        self.advised
    }
}

#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
impl Drop for AnonRegion {
    fn drop(&mut self) {
        if self.map_len > 0 {
            // SAFETY: unmaps exactly the range `read_file` kept; the
            // pointer is never used again.
            unsafe {
                sys::munmap(self.ptr, self.map_len);
            }
        }
    }
}

/// Fallback: same API, backed by a plain read into a vector.
#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
pub struct AnonRegion {
    buf: Vec<u8>,
}

#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
impl AnonRegion {
    pub fn read_file(file: &std::fs::File) -> std::io::Result<Self> {
        use std::io::Read;
        let mut buf = Vec::new();
        let mut f = file;
        f.read_to_end(&mut buf)?;
        Ok(AnonRegion { buf })
    }

    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    pub fn advised_bytes(&self) -> usize {
        0
    }
}

impl std::fmt::Debug for AnonRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnonRegion")
            .field("len", &self.as_slice().len())
            .field("advised", &self.advised_bytes())
            .finish()
    }
}

/// The shared byte buffer a bundle (and every view into it) lives in:
/// fully heap-resident, or a read-only file mapping served from the
/// page cache. Clones are one `Arc` bump either way.
#[derive(Clone, Debug)]
pub enum BundleBuf {
    /// A heap-resident buffer (classic eager load).
    Heap(Arc<Vec<u8>>),
    /// A file read into anonymous memory: heap-resident like `Heap`.
    Anon(Arc<AnonRegion>),
    /// A read-only `mmap(2)` region.
    Mapped(Arc<MmapRegion>),
}

impl BundleBuf {
    /// The underlying bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        match self {
            BundleBuf::Heap(v) => v,
            BundleBuf::Anon(a) => a.as_slice(),
            BundleBuf::Mapped(m) => m.as_slice(),
        }
    }

    /// Total length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// `true` iff the buffer holds no bytes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// `true` iff the buffer is a file mapping rather than heap memory.
    pub fn is_mapped(&self) -> bool {
        matches!(self, BundleBuf::Mapped(_))
    }
}

impl From<Vec<u8>> for BundleBuf {
    fn from(v: Vec<u8>) -> Self {
        BundleBuf::Heap(Arc::new(v))
    }
}

impl From<Arc<Vec<u8>>> for BundleBuf {
    fn from(v: Arc<Vec<u8>>) -> Self {
        BundleBuf::Heap(v)
    }
}

impl From<Arc<MmapRegion>> for BundleBuf {
    fn from(m: Arc<MmapRegion>) -> Self {
        BundleBuf::Mapped(m)
    }
}

/// Byte accounting for a loaded structure, split by backing: bytes that
/// occupy process heap (`resident_bytes`) versus bytes reachable only
/// through a file mapping (`mapped_bytes`), which cost page cache, not
/// anonymous memory. Views into a shared buffer attribute their spans
/// to the buffer's backing; padding between sections is not counted.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MemoryProfile {
    /// Heap bytes: owned vectors plus views into a heap-resident buffer.
    pub resident_bytes: u64,
    /// Bytes served through an `mmap` region.
    pub mapped_bytes: u64,
}

impl MemoryProfile {
    /// Attributes `slice` to the matching bucket.
    pub fn add<T: Pod>(&mut self, slice: &SharedSlice<T>) {
        let bytes = (slice.len() * T::SIZE) as u64;
        if slice.is_mapped() {
            self.mapped_bytes += bytes;
        } else {
            self.resident_bytes += bytes;
        }
    }

    /// Adds raw heap bytes (for non-`SharedSlice` members).
    pub fn add_resident(&mut self, bytes: u64) {
        self.resident_bytes += bytes;
    }

    /// Component-wise sum.
    pub fn merge(&mut self, other: MemoryProfile) {
        self.resident_bytes += other.resident_bytes;
        self.mapped_bytes += other.mapped_bytes;
    }

    /// Resident + mapped.
    pub fn total(&self) -> u64 {
        self.resident_bytes + self.mapped_bytes
    }
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for u32 {}
    impl Sealed for u64 {}
    impl Sealed for f32 {}
    impl Sealed for f64 {}
}

/// Plain-old-data element types storable in a [`SharedSlice`]. Sealed:
/// implemented only for fixed-width primitives with no padding and no
/// invalid bit patterns, which is what makes the byte-level
/// reinterpretation in [`SharedSlice::view`] sound.
pub trait Pod: Copy + Send + Sync + 'static + sealed::Sealed {
    /// Size of one element in bytes (`size_of::<Self>()`, usable in
    /// const-free trait code).
    const SIZE: usize;
    /// Decodes one element from little-endian bytes (`bytes.len() == SIZE`).
    fn read_le(bytes: &[u8]) -> Self;
    /// Appends this element to `out` in little-endian byte order.
    fn write_le(self, out: &mut Vec<u8>);
}

macro_rules! impl_pod {
    ($($t:ty),*) => {$(
        impl Pod for $t {
            const SIZE: usize = std::mem::size_of::<$t>();
            #[inline]
            fn read_le(bytes: &[u8]) -> Self {
                <$t>::from_le_bytes(bytes.try_into().expect("read_le: wrong byte count"))
            }
            #[inline]
            fn write_le(self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
        }
    )*};
}

impl_pod!(u32, u64, f32, f64);

/// Why a zero-copy view could not be constructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViewError {
    /// `offset + len * size` exceeds the buffer.
    OutOfBounds,
    /// The byte length is not a multiple of the element size.
    Misaligned,
}

impl std::fmt::Display for ViewError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ViewError::OutOfBounds => write!(f, "view range exceeds buffer"),
            ViewError::Misaligned => write!(f, "view range not a multiple of the element size"),
        }
    }
}

enum Backing<T: Pod> {
    Owned(Vec<T>),
    View(BundleBuf),
}

/// An immutable `[T]` that is either an owned `Vec<T>` or a zero-copy
/// view into a shared snapshot buffer. Dereferences to `&[T]` with no
/// branch on the hot path; clones are cheap for views (one `Arc` bump)
/// and deep for owned data.
pub struct SharedSlice<T: Pod> {
    ptr: *const T,
    len: usize,
    backing: Backing<T>,
}

// SAFETY: the pointer always targets memory owned (and kept alive) by
// `backing` — an immutable `Vec<T>` or a shared [`BundleBuf`] — and the
// data is never mutated after construction, so sharing across threads
// is as safe as sharing `&[T]`.
unsafe impl<T: Pod> Send for SharedSlice<T> {}
unsafe impl<T: Pod> Sync for SharedSlice<T> {}

impl<T: Pod> SharedSlice<T> {
    /// Wraps an owned vector (the in-memory construction path).
    pub fn from_vec(v: Vec<T>) -> Self {
        let ptr = v.as_ptr();
        let len = v.len();
        SharedSlice { ptr, len, backing: Backing::Owned(v) }
    }

    /// Creates a typed view of `buf[offset..offset + byte_len]` without
    /// copying. The range must lie within the buffer and `byte_len` must
    /// be a whole number of elements. On big-endian hosts (where the
    /// little-endian on-disk layout cannot be reinterpreted) the bytes
    /// are decoded into an owned vector instead — same result, one copy.
    pub fn view(buf: &BundleBuf, offset: usize, byte_len: usize) -> Result<Self, ViewError> {
        let all = buf.as_slice();
        let end = offset.checked_add(byte_len).ok_or(ViewError::OutOfBounds)?;
        if end > all.len() {
            return Err(ViewError::OutOfBounds);
        }
        if !byte_len.is_multiple_of(T::SIZE) {
            return Err(ViewError::Misaligned);
        }
        let len = byte_len / T::SIZE;
        let base = all.as_ptr().wrapping_add(offset);
        if cfg!(target_endian = "little") && (base as usize).is_multiple_of(std::mem::align_of::<T>()) {
            let ptr = base as *const T;
            Ok(SharedSlice { ptr, len, backing: Backing::View(buf.clone()) })
        } else {
            // Unaligned section or big-endian host: decode a copy.
            let bytes = &all[offset..end];
            let mut v = Vec::with_capacity(len);
            for chunk in bytes.chunks_exact(T::SIZE) {
                v.push(T::read_le(chunk));
            }
            Ok(Self::from_vec(v))
        }
    }

    /// The elements as a plain slice (also available via `Deref`).
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: `ptr`/`len` were derived from memory owned by
        // `self.backing`, which is immutable and lives as long as `self`.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff the slice holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` iff this slice is a zero-copy view into a shared buffer
    /// (as opposed to an owned vector).
    pub fn is_view(&self) -> bool {
        matches!(self.backing, Backing::View(_))
    }

    /// `true` iff this slice is a zero-copy view into an `mmap`ed
    /// buffer, i.e. its bytes live in the page cache, not on the heap.
    pub fn is_mapped(&self) -> bool {
        matches!(&self.backing, Backing::View(buf) if buf.is_mapped())
    }

    /// Copies the elements into a fresh `Vec<T>`.
    pub fn to_vec(&self) -> Vec<T> {
        self.as_slice().to_vec()
    }
}

impl<T: Pod> Deref for SharedSlice<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Pod> Clone for SharedSlice<T> {
    fn clone(&self) -> Self {
        match &self.backing {
            Backing::Owned(v) => Self::from_vec(v.clone()),
            Backing::View(buf) => {
                SharedSlice { ptr: self.ptr, len: self.len, backing: Backing::View(buf.clone()) }
            }
        }
    }
}

impl<T: Pod> Default for SharedSlice<T> {
    fn default() -> Self {
        Self::from_vec(Vec::new())
    }
}

impl<T: Pod> From<Vec<T>> for SharedSlice<T> {
    fn from(v: Vec<T>) -> Self {
        Self::from_vec(v)
    }
}

impl<T: Pod + PartialEq> PartialEq for SharedSlice<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Pod + std::fmt::Debug> std::fmt::Debug for SharedSlice<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedSlice").field("len", &self.len).field("view", &self.is_view()).finish()
    }
}

/// Appends `data` to `out` as little-endian bytes. On little-endian
/// hosts this is one bulk `memcpy`; elsewhere it encodes per element.
pub fn encode_pod<T: Pod>(data: &[T], out: &mut Vec<u8>) {
    if cfg!(target_endian = "little") {
        // SAFETY: `T` is a sealed primitive with no padding, so its
        // in-memory representation on a little-endian host is exactly
        // the on-disk byte sequence.
        let bytes =
            unsafe { std::slice::from_raw_parts(data.as_ptr() as *const u8, std::mem::size_of_val(data)) };
        out.extend_from_slice(bytes);
    } else {
        out.reserve(data.len() * T::SIZE);
        for &x in data {
            x.write_le(out);
        }
    }
}

/// Decodes a little-endian byte buffer into an owned vector. Errors if
/// the length is not a whole number of elements.
pub fn decode_pod_vec<T: Pod>(bytes: &[u8]) -> Result<Vec<T>, ViewError> {
    if !bytes.len().is_multiple_of(T::SIZE) {
        return Err(ViewError::Misaligned);
    }
    let mut v = Vec::with_capacity(bytes.len() / T::SIZE);
    for chunk in bytes.chunks_exact(T::SIZE) {
        v.push(T::read_le(chunk));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_roundtrip_and_deref() {
        let s = SharedSlice::from_vec(vec![1u64, 2, 3]);
        assert_eq!(&s[..], &[1, 2, 3]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_view());
        assert_eq!(s.to_vec(), vec![1, 2, 3]);
        let c = s.clone();
        assert_eq!(c, s);
    }

    #[test]
    fn view_is_zero_copy_and_correct() {
        let mut bytes = Vec::new();
        encode_pod(&[10u32, 20, 30, 40], &mut bytes);
        let buf = BundleBuf::from(bytes);
        let s = SharedSlice::<u32>::view(&buf, 0, 16).unwrap();
        assert_eq!(&s[..], &[10, 20, 30, 40]);
        #[cfg(target_endian = "little")]
        assert!(s.is_view());
        assert!(!s.is_mapped());
        // Sub-view at an element boundary.
        let tail = SharedSlice::<u32>::view(&buf, 8, 8).unwrap();
        assert_eq!(&tail[..], &[30, 40]);
    }

    #[test]
    fn view_rejects_bad_ranges() {
        let buf = BundleBuf::from(vec![0u8; 16]);
        assert_eq!(SharedSlice::<u64>::view(&buf, 8, 16), Err(ViewError::OutOfBounds));
        assert_eq!(SharedSlice::<u64>::view(&buf, 0, 12), Err(ViewError::Misaligned));
        assert_eq!(SharedSlice::<u64>::view(&buf, usize::MAX, 8), Err(ViewError::OutOfBounds));
    }

    #[test]
    fn unaligned_view_falls_back_to_owned() {
        // Offset 2 is misaligned for u64 on essentially every allocator
        // layout; the view must still decode correctly via the copy path.
        let mut bytes = vec![0u8; 2];
        encode_pod(&[7u64, 9], &mut bytes);
        let buf = BundleBuf::from(bytes);
        let s = SharedSlice::<u64>::view(&buf, 2, 16).unwrap();
        assert_eq!(&s[..], &[7, 9]);
    }

    #[test]
    fn float_views_preserve_bits() {
        let vals = [1.5f64, -0.0, f64::INFINITY, 1.0e-300];
        let mut bytes = Vec::new();
        encode_pod(&vals, &mut bytes);
        let buf = BundleBuf::from(bytes);
        let s = SharedSlice::<f64>::view(&buf, 0, 32).unwrap();
        for (a, b) in vals.iter().zip(s.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn mmap_region_maps_and_views() {
        let dir = std::env::temp_dir().join(format!("srs-mmap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("region.bin");
        let mut bytes = Vec::new();
        encode_pod(&[11u64, 22, 33], &mut bytes);
        std::fs::write(&path, &bytes).unwrap();
        let file = std::fs::File::open(&path).unwrap();
        let region = MmapRegion::map_file(&file).unwrap();
        assert_eq!(region.as_slice(), &bytes[..]);
        region.advise_willneed();
        let _ = region.prefault();
        let buf = BundleBuf::Mapped(Arc::new(region));
        let s = SharedSlice::<u64>::view(&buf, 0, 24).unwrap();
        assert_eq!(&s[..], &[11, 22, 33]);
        #[cfg(all(unix, target_endian = "little"))]
        assert!(s.is_mapped());
        let mut profile = MemoryProfile::default();
        profile.add(&s);
        #[cfg(all(unix, target_endian = "little"))]
        assert_eq!(profile, MemoryProfile { resident_bytes: 0, mapped_bytes: 24 });
        drop(s);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn anon_region_reads_whole_files() {
        let dir = std::env::temp_dir().join(format!("srs-anon-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("region.bin");
        let huge = 2usize << 20;
        for len in [0usize, 1, 4097, huge - 1, huge, 2 * huge + 12_345] {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            std::fs::write(&path, &bytes).unwrap();
            let region = AnonRegion::read_file(&std::fs::File::open(&path).unwrap()).unwrap();
            assert_eq!(region.as_slice(), &bytes[..], "len {len}");
            // Only whole huge pages inside the file are advised, if any.
            let whole = len / huge * huge;
            assert!(region.advised_bytes() == whole || region.advised_bytes() == 0, "len {len}: {region:?}");
            #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
            if len > 0 {
                assert_eq!(
                    region.as_slice().as_ptr() as usize % huge,
                    0,
                    "len {len}: start not 2 MiB-aligned"
                );
            }
            let buf = BundleBuf::Anon(Arc::new(region));
            assert!(!buf.is_mapped());
            if len >= 8 {
                let s = SharedSlice::<u64>::view(&buf, 0, 8).unwrap();
                assert!(!s.is_mapped());
                let mut profile = MemoryProfile::default();
                profile.add(&s);
                assert_eq!(profile, MemoryProfile { resident_bytes: 8, mapped_bytes: 0 });
            }
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn memory_profile_splits_backings() {
        let owned = SharedSlice::from_vec(vec![1u32, 2, 3]);
        let heap_buf = {
            let mut b = Vec::new();
            encode_pod(&[4u32, 5], &mut b);
            BundleBuf::from(b)
        };
        let view = SharedSlice::<u32>::view(&heap_buf, 0, 8).unwrap();
        let mut profile = MemoryProfile::default();
        profile.add(&owned);
        profile.add(&view);
        profile.add_resident(10);
        assert_eq!(profile.resident_bytes, 12 + 8 + 10);
        assert_eq!(profile.mapped_bytes, 0);
        assert_eq!(profile.total(), 30);
        let mut other = MemoryProfile { resident_bytes: 1, mapped_bytes: 2 };
        other.merge(profile);
        assert_eq!(other.total(), 33);
    }

    #[test]
    fn decode_pod_vec_validates_length() {
        let bytes = vec![0u8; 10];
        assert!(decode_pod_vec::<u32>(&bytes).is_err());
        let mut ok = Vec::new();
        encode_pod(&[3.5f32, -2.0], &mut ok);
        assert_eq!(decode_pod_vec::<f32>(&ok).unwrap(), vec![3.5, -2.0]);
    }

    #[test]
    fn empty_slice_default() {
        let s: SharedSlice<u32> = SharedSlice::default();
        assert!(s.is_empty());
        assert_eq!(&s[..], &[] as &[u32]);
    }
}

//! Deterministic allocation gate for the deep heap load.
//!
//! A `Deep` heap load proves the out-CSR is the in-CSR's transpose, the
//! stored reverse-step descriptors match the in-CSR, and each shard's
//! inverted slice is the forward map's inverse. Each proof is a cursor
//! walk or an in-place comparison, so the load allocates the file's
//! bytes (none of them through the allocator where the file is read
//! into anonymous memory) plus a cursor of one word per vertex for each
//! of the two cursor walks. A load that derived a copy of any of those
//! arrays again would allocate at least one more word per vertex, which
//! this gate counts exactly, independent of the host's speed.
//!
//! The file holds one test: the counting allocator is process-wide,
//! and only the test thread's allocations are counted.

use srs_graph::gen;
use srs_search::snapshot::{self, Dataset};
use srs_search::{load_snapshot, Diagonal, LoadOptions, QueryOptions, SimRankParams, TopKIndex};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

/// Adds `bytes` to the thread's count while counting is on.
fn note(bytes: usize) {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCATED.try_with(|a| a.set(a.get() + bytes as u64));
        }
    });
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counting touches only const-initialised thread-locals,
// which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract for `alloc` holds unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract for `alloc_zeroed` holds unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growing vector counts what it grew by, so a vector counts its
        // final capacity once.
        note(new_size.saturating_sub(layout.size()));
        // SAFETY: the caller's contract for `realloc` holds unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc` holds unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes the test thread allocates while running `f`.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCATED.with(|a| a.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, ALLOCATED.with(Cell::get))
}

#[test]
fn deep_heap_load_allocates_no_derived_copies() {
    let n = 8_000u32;
    let g = gen::copying_web(n, 4, 0.8, 17);
    let params = SimRankParams::default();
    let idx = TopKIndex::build_with(&g, &params, Diagonal::paper_default(params.c), 17, 2);
    let expect = idx.query(&g, 1, 5, &QueryOptions::default()).hits;
    let path = std::env::temp_dir().join(format!("srs_alloc_gate_{}.srs", std::process::id()));
    for shards in [1u32, 4] {
        let mut bytes = Vec::new();
        snapshot::pack(&g, &idx, shards, &mut bytes).unwrap();
        std::fs::write(&path, &bytes).unwrap();
        let (loaded, allocated) = allocated_by(|| load_snapshot(&path, &LoadOptions::default()));
        let (ds, info, _): (Dataset, _, _) = loaded.expect("the snapshot loads");
        assert_eq!(ds.index().query(ds.graph(), 1, 5, &QueryOptions::default()).hits, expect);
        assert_eq!(info.shards, shards);
        // The file's bytes come from the allocator only where the read
        // does not land in anonymous memory.
        let file_on_heap =
            if cfg!(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))) {
                0
            } else {
                bytes.len() as u64
            };
        let words = 2 * 8 * (n as u64 + 1);
        let slack = 16 << 10;
        assert!(
            allocated <= file_on_heap + words + slack,
            "{shards} shard(s): a deep heap load of a {}-byte snapshot (n = {n}) allocated {allocated} bytes, \
             over {file_on_heap} file bytes + {words} bytes of cursors + {slack} bytes of slack",
            bytes.len()
        );
    }
    std::fs::remove_file(&path).ok();
}

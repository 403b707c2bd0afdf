//! Snapshot startup benchmark: cold preprocess rebuild vs loading the
//! packed `.srs` bundle, on the same generated graph.
//!
//! This is the acceptance measurement for the snapshot container: a
//! serving process that starts from a snapshot must come up several
//! times faster than one that rebuilds the index, because loading is one
//! bulk read plus checksums and validation while rebuilding is
//! Monte-Carlo walk work over every vertex. Results (including the speedup ratio) go to
//! `BENCH_snapshot.json` at the repo root; `-- --test` smoke mode
//! shrinks the fixture and skips the artifact so CI just checks the
//! harness end to end.

use criterion::{criterion_group, criterion_main, Criterion};
use srs_bench::snapbench::SnapshotBenchReport;
use srs_bench::walkbench::HostInfo;
use srs_graph::gen;
use srs_search::snapshot::{pack_to_bytes, Dataset};
use srs_search::{load_snapshot, Diagonal, LoadOptions, QueryOptions, SimRankParams, TopKIndex};
use std::time::Instant;

fn bench_snapshot(_c: &mut Criterion) {
    let smoke = criterion::smoke_mode();
    let (n, load_reps) = if smoke { (2_000u32, 3usize) } else { (100_000u32, 10usize) };
    let g = gen::copying_web(n, 4, 0.8, 42);
    let params = SimRankParams::default();
    let threads = std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1);

    // Cold build: what a server pays at startup without a snapshot.
    let t0 = Instant::now();
    let index = TopKIndex::build_with(&g, &params, Diagonal::paper_default(params.c), 42, threads);
    let preprocess_secs = t0.elapsed().as_secs_f64();

    let bytes = pack_to_bytes(&g, &index);
    let m = g.num_edges();
    let baseline = index.query(&g, 0, 5, &QueryOptions::default());

    // Snapshot load: best-of-reps steady-state cost. Each rep re-clones
    // the buffer so the open pays its full checksum pass every time.
    let mut load_secs = f64::INFINITY;
    let mut sections = 0;
    for _ in 0..load_reps {
        let input = bytes.clone();
        let t0 = Instant::now();
        let (ds, info) = Dataset::from_snapshot_bytes(input).expect("snapshot loads");
        load_secs = load_secs.min(t0.elapsed().as_secs_f64());
        sections = info.sections_verified;
        // The loaded dataset actually answers — keep the measurement
        // honest (nothing lazily deferred past the timer).
        let hit = ds.index().query(ds.graph(), 0, 5, &QueryOptions::default());
        assert_eq!(hit.hits, baseline.hits);
    }

    // Cold-start time-to-first-query, heap vs lazy mmap, over the same
    // file. Both paths see a warm page cache (the file was just
    // written), so the measured gap is the work `--mmap` skips at open —
    // the heap read, full-bundle checksums and deep validation — not
    // disk I/O; on a genuinely cold cache the gap only widens.
    let path = std::env::temp_dir().join(format!("srs_snapbench_{}.srs", std::process::id()));
    std::fs::write(&path, &bytes).expect("write snapshot fixture");
    let mut heap_ttfq = f64::INFINITY;
    let mut heap_load_stages = [f64::INFINITY; 4];
    let mut heap_resident = 0u64;
    let mut mmap_ttfq = f64::INFINITY;
    let mut mmap_sections = u32::MAX;
    let mut mmap_resident = 0u64;
    let mut mmap_mapped = 0u64;
    for _ in 0..load_reps {
        let t0 = Instant::now();
        let (ds, info, _) = load_snapshot(&path, &LoadOptions::default()).expect("heap load");
        let hit = ds.index().query(ds.graph(), 0, 5, &QueryOptions::default());
        heap_ttfq = heap_ttfq.min(t0.elapsed().as_secs_f64());
        let stages =
            [info.load_time, info.read_time, info.checksum_time, info.validate_time].map(|d| d.as_secs_f64());
        if stages[0] < heap_load_stages[0] {
            heap_load_stages = stages;
        }
        heap_resident = info.resident_bytes;
        assert_eq!(hit.hits, baseline.hits);

        let t0 = Instant::now();
        let mopts = LoadOptions { mmap: true, ..Default::default() };
        let (ds, info, _verifier) = load_snapshot(&path, &mopts).expect("mmap load");
        let hit = ds.index().query(ds.graph(), 0, 5, &QueryOptions::default());
        mmap_ttfq = mmap_ttfq.min(t0.elapsed().as_secs_f64());
        mmap_sections = info.sections_verified;
        mmap_resident = info.resident_bytes;
        mmap_mapped = info.mapped_bytes;
        assert_eq!(hit.hits, baseline.hits);
    }
    std::fs::remove_file(&path).ok();

    let report = SnapshotBenchReport {
        host: HostInfo::detect(),
        graph: format!("copying_web(n={n}, out_deg=4, copy_prob=0.8, seed=42)"),
        n,
        m,
        snapshot_bytes: bytes.len() as u64,
        sections_verified: sections,
        preprocess_secs,
        load_secs,
        heap_ttfq_secs: heap_ttfq,
        heap_load_stages,
        mmap_ttfq_secs: mmap_ttfq,
        mmap_sections_verified: mmap_sections,
        heap_resident_bytes: heap_resident,
        mmap_resident_bytes: mmap_resident,
        mmap_mapped_bytes: mmap_mapped,
    };
    println!(
        "  preprocess {:.3}s vs snapshot load {:.6}s -> {:.0}x ({} bytes, {} sections)",
        report.preprocess_secs,
        report.load_secs,
        report.speedup(),
        report.snapshot_bytes,
        report.sections_verified
    );
    let [load, read, checksum, validate] = report.heap_load_stages;
    println!(
        "  heap load {:.6}s: read {:.6}s + checksum {:.6}s + validate {:.6}s + residual {:.6}s",
        load,
        read,
        checksum,
        validate,
        report.heap_load_residual_secs()
    );
    println!(
        "  cold-start TTFQ: heap {:.6}s vs mmap {:.6}s -> {:.1}x ({:.2} of the heap's checksum + validate); \
         resident {} -> {} bytes ({} mapped)",
        report.heap_ttfq_secs,
        report.mmap_ttfq_secs,
        report.mmap_speedup(),
        report.mmap_ttfq_over_skipped(),
        report.heap_resident_bytes,
        report.mmap_resident_bytes,
        report.mmap_mapped_bytes
    );
    // The claim is qualitative — a snapshot start beats a rebuild by a
    // clear margin — so one floor serves both scales. The measured ratio
    // is the artifact's `speedup`; it tracks how costly the build is
    // (the index build is the Algorithm 4 walks alone), which a load
    // gate should not pin.
    let min_speedup = 3.0;
    assert!(
        report.speedup() >= min_speedup,
        "snapshot load must beat the cold rebuild by >={min_speedup}x, got {:.1}x",
        report.speedup()
    );
    // The mapping keeps the bundle's arrays out of the heap in every
    // mode, and a lazy open verifies no section.
    assert!(
        report.mmap_resident_bytes * 2 < report.snapshot_bytes,
        "mmap resident bytes ({}) must stay well under the bundle size ({})",
        report.mmap_resident_bytes,
        report.snapshot_bytes
    );
    assert_eq!(report.mmap_sections_verified, 0, "a lazy mmap open must defer every checksum");
    // What `--mmap` must earn is the work it skips: the heap load's
    // checksum and deep-validate stages. Its whole cold start (open,
    // structural scans, first query) must cost less than those stages
    // alone, timed in the same run. The heap read is left out, so a
    // faster heap read cannot fail the gate. Asserted at full scale only,
    // where the skipped stages dominate timer noise.
    if !smoke {
        assert!(
            report.mmap_ttfq_over_skipped() < 1.0,
            "mmap cold start ({:.6}s) must undercut the heap load's checksum + validate stages, got {:.2}x",
            report.mmap_ttfq_secs,
            report.mmap_ttfq_over_skipped()
        );
    }

    if !smoke {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_snapshot.json");
        report.write(path).expect("write BENCH_snapshot.json");
        println!("wrote {path}");
    }
}

criterion_group!(benches, bench_snapshot);
criterion_main!(benches);

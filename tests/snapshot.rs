//! Workspace-level snapshot tests: the packed bundle survives abuse
//! (truncation, bit flips) without panicking, serves bit-identical
//! answers to a freshly built dataset, and hot-swaps atomically under
//! concurrent batches.

use srs_graph::{container, gen};
use srs_search::persist::{self, PersistError};
use srs_search::snapshot::{self, Dataset};
use srs_search::{
    load_snapshot, Diagonal, Hit, LoadOptions, QueryOptions, ServingEngine, SimRankParams, TopKIndex,
};

fn build(n: u32, seed: u64) -> Dataset {
    let g = gen::copying_web(n, 4, 0.8, seed);
    let params = SimRankParams { r_bounds: 300, ..Default::default() };
    let idx = TopKIndex::build_with(&g, &params, Diagonal::paper_default(params.c), seed, 2);
    Dataset::new(g, idx).unwrap()
}

/// Every vertex's top-5 under Algorithm 5, which reads the candidate
/// index, then under the exact head, which reads only the graph.
fn answers(ds: &Dataset) -> Vec<Vec<Hit>> {
    let n = ds.graph().num_vertices();
    [QueryOptions::sampled(), QueryOptions::default()]
        .iter()
        .flat_map(|opts| (0..n).map(move |u| ds.index().query(ds.graph(), u, 5, opts).hits))
        .collect()
}

fn packed(ds: &Dataset) -> Vec<u8> {
    snapshot::pack_to_bytes(ds.graph(), ds.index())
}

fn packed_shards(ds: &Dataset, shards: u32) -> Vec<u8> {
    let mut bytes = Vec::new();
    snapshot::pack(ds.graph(), ds.index(), shards, &mut bytes).unwrap();
    bytes
}

#[test]
fn snapshot_is_bit_identical_to_fresh_build() {
    let ds = build(150, 7);
    let (loaded, info) = Dataset::from_snapshot_bytes(packed(&ds)).unwrap();
    assert_eq!(info.sections_verified, container::BundleReader::open(packed(&ds)).unwrap().num_sections());
    let queries: Vec<u32> = (0..150).step_by(3).collect();
    for opts in [
        QueryOptions { explain: true, ..QueryOptions::sampled() },
        QueryOptions { explain: true, ..Default::default() },
    ] {
        let fresh = ServingEngine::with_threads(ds.clone(), 3).query_batch(&queries, 8, &opts);
        let served = ServingEngine::with_threads(loaded.clone(), 3).query_batch(&queries, 8, &opts);
        for (a, b) in fresh.results.iter().zip(&served.results) {
            assert_eq!(a.hits, b.hits);
            assert_eq!(a.stats, b.stats, "candidate fates must match");
            assert_eq!(a.explain, b.explain, "explain traces must match");
        }
        assert_eq!(fresh.totals, served.totals);
    }
}

#[test]
fn truncation_never_panics_and_always_errors() {
    let ds = build(80, 3);
    let bytes = packed(&ds);
    // Every section boundary (start and end of each payload), the header
    // and table edges, and a stride sweep over all lengths. The writer
    // places payloads back to back, so any proper prefix is missing data
    // and must be rejected.
    let reader = container::BundleReader::open(bytes.clone()).unwrap();
    let mut cuts: Vec<usize> = vec![0, 1, 7, 8, 15, 16];
    for i in 0..reader.num_sections() {
        let (off, len) = reader.section_extent(i).unwrap();
        for c in [off, off + 1, off + len, (off + len).saturating_sub(1)] {
            if (c as usize) < bytes.len() {
                cuts.push(c as usize);
            }
        }
    }
    cuts.extend((0..bytes.len()).step_by(41));
    for cut in cuts {
        let res = Dataset::from_snapshot_bytes(bytes[..cut].to_vec());
        assert!(res.is_err(), "truncation to {cut} bytes must not load");
    }
}

#[test]
fn bit_flips_never_panic_and_never_corrupt_answers() {
    let ds = build(80, 4);
    let bytes = packed(&ds);
    let baseline = answers(&ds);
    // Seeded single-byte flips across the whole file. Flips inside a
    // checksummed section or the table must be rejected; flips that land
    // in alignment padding may load — but then every answer must be
    // byte-identical (the padding carries no data).
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..300 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let pos = (state >> 33) as usize % bytes.len();
        let bit = 1u8 << ((state >> 29) & 7);
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= bit;
        match Dataset::from_snapshot_bytes(corrupt) {
            Err(_) => {}
            Ok((loaded, _)) => assert_eq!(answers(&loaded), baseline, "flip at byte {pos} changed answers"),
        }
    }
}

fn write_temp(name: &str, bytes: &[u8]) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("srs_it_{}_{name}", std::process::id()));
    std::fs::write(&path, bytes).unwrap();
    path
}

#[test]
fn mmap_truncation_never_panics_and_always_errors() {
    let ds = build(80, 3);
    let bytes = packed(&ds);
    let reader = container::BundleReader::open(bytes.clone()).unwrap();
    let mut cuts: Vec<usize> = vec![0, 1, 7, 8, 15, 16];
    for i in 0..reader.num_sections() {
        let (off, len) = reader.section_extent(i).unwrap();
        for c in [off, off + 1, off + len, (off + len).saturating_sub(1)] {
            if (c as usize) < bytes.len() {
                cuts.push(c as usize);
            }
        }
    }
    cuts.extend((0..bytes.len()).step_by(163));
    let lazy = LoadOptions { mmap: true, ..Default::default() };
    let eager = LoadOptions { mmap: true, verify_on_load: true, ..Default::default() };
    let path = write_temp("mmap_trunc.srs", &bytes);
    for cut in cuts {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        for opts in [lazy, eager] {
            assert!(
                load_snapshot(&path, &opts).is_err(),
                "truncation to {cut} bytes must not load under {opts:?}"
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn mmap_bit_flips_fail_verification_or_serve_identical_answers() {
    let ds = build(80, 4);
    let bytes = packed(&ds);
    let baseline = answers(&ds);
    let path = write_temp("mmap_flip.srs", &bytes);
    let lazy = LoadOptions { mmap: true, ..Default::default() };
    let eager = LoadOptions { mmap: true, verify_on_load: true, ..Default::default() };
    let mut state = 0xd1b5_4a32_d192_ed03u64;
    for _ in 0..150 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let pos = (state >> 33) as usize % bytes.len();
        let bit = 1u8 << ((state >> 29) & 7);
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= bit;
        std::fs::write(&path, &corrupt).unwrap();
        // `--verify-on-load` keeps the heap loader's guarantee on a
        // mapping: reject the flip, or (padding) answer identically.
        match load_snapshot(&path, &eager) {
            Err(_) => {}
            Ok((loaded, info, verifier)) => {
                assert!(info.mapped, "eager mmap load must stay mapped");
                assert!(verifier.is_none(), "eager open must not hand back a verifier");
                assert_eq!(answers(&loaded), baseline, "flip at byte {pos} changed answers under mmap");
            }
        }
        // The lazy default defers checksums to the background sweep: the
        // open itself must never panic, and whenever the sweep passes
        // the served answers must match the baseline bit for bit.
        match load_snapshot(&path, &lazy) {
            Err(_) => {}
            Ok((loaded, _, Some(verifier))) => {
                if verifier.verify_all().is_ok() {
                    assert_eq!(answers(&loaded), baseline, "verified flip at byte {pos} changed answers");
                }
            }
            Ok(_) => panic!("lazy mmap open must hand back a verifier"),
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn sharded_manifest_corruption_fails_closed_in_every_mode() {
    let ds = build(100, 6);
    let bytes = packed_shards(&ds, 4);
    let reader = container::BundleReader::open(bytes.clone()).unwrap();
    let idx = (0..reader.num_sections())
        .find(|&i| reader.section_tag(i) == Some(persist::SEC_MANIFEST))
        .expect("sharded bundle carries a manifest");
    let (off, len) = reader.section_extent(idx).unwrap();
    let path = write_temp("shard_manifest.srs", &bytes);
    let heap = LoadOptions::default();
    let lazy = LoadOptions { mmap: true, ..Default::default() };
    // Flip one bit in every manifest byte: version, shard count, each
    // range bound, and each fingerprint must all fail closed — with the
    // manifest named — whether checksums are eager (heap) or deferred
    // (lazy mmap, where the structural cross-checks stand alone).
    for byte in 0..len as usize {
        let mut corrupt = bytes.clone();
        corrupt[off as usize + byte] ^= 1u8 << (byte % 8);
        std::fs::write(&path, &corrupt).unwrap();
        for opts in [heap, lazy] {
            match load_snapshot(&path, &opts) {
                Ok(_) => panic!("manifest flip at byte {byte} must not load under {opts:?}"),
                Err(e) => {
                    let msg = e.to_string();
                    assert!(msg.contains(persist::SEC_MANIFEST), "error must name the manifest: {msg}");
                }
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn heap_load_proves_every_shards_inverted_map() {
    // Swap one holder in shard 0's inverted slice for another vertex of
    // the same range, then re-seal the section checksum and the manifest
    // fingerprint: shape, range and entry totals all still hold, so only
    // the deep comparison with the forward map can tell.
    let ds = build(100, 6);
    let mut bytes = packed_shards(&ds, 2);
    let reader = container::BundleReader::open(bytes.clone()).unwrap();
    let section =
        |tag: &str| (0..reader.num_sections()).find(|&i| reader.section_tag(i) == Some(tag)).unwrap();
    let reseal = |bytes: &mut [u8], i: u32| {
        let (off, len) = reader.section_extent(i).unwrap();
        let sum = container::section_checksum(2, &bytes[off as usize..(off + len) as usize]);
        let entry = 16 + i as usize * 48; // header, then 48-byte table entries ending in the checksum
        bytes[entry + 40..entry + 48].copy_from_slice(&sum.to_le_bytes());
    };
    let (ent, manifest) = (section("i.sinv_ent.0"), section(persist::SEC_MANIFEST));
    let (at, len) = reader.section_extent(ent).unwrap();
    assert!(len >= 4, "shard 0 must hold some candidates");
    let at = at as usize;
    let hi = persist::shard_ranges(100, 2)[0].1;
    let v = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    let w = if v + 1 < hi { v + 1 } else { v - 1 };
    bytes[at..at + 4].copy_from_slice(&w.to_le_bytes());
    reseal(&mut bytes, ent);
    let table = container::BundleReader::open(bytes.clone()).unwrap();
    let fp = container::fold_fingerprints(
        ["i.sinv_off.0", "i.sinv_ent.0"].map(|tag| table.section_fingerprint_at(section(tag)).unwrap()),
    );
    // Manifest: version and shard count, then (lo, hi, fingerprint) per shard.
    let fp_at = reader.section_extent(manifest).unwrap().0 as usize + 8 + 8;
    bytes[fp_at..fp_at + 8].copy_from_slice(&fp.to_le_bytes());
    reseal(&mut bytes, manifest);

    // Checksums and the manifest hold: an eagerly verified mapped load
    // (shape and range scans only) accepts the bundle.
    let path = write_temp("shard_inverse.srs", &bytes);
    let eager_mmap = LoadOptions { mmap: true, verify_on_load: true, ..Default::default() };
    assert!(load_snapshot(&path, &eager_mmap).is_ok(), "the damaged bundle must be well sealed");
    let err = load_snapshot(&path, &LoadOptions::default()).expect_err("a heap load must reject the bundle");
    assert!(matches!(&err, PersistError::Format(m) if m.contains("inverted")), "{err}");
    assert!(matches!(Dataset::from_snapshot_bytes(bytes.clone()), Err(PersistError::Format(_))));
    assert!(matches!(persist::load(&bytes[..]), Err(PersistError::Format(_))));
    std::fs::remove_file(&path).ok();
}

#[test]
fn sharded_serving_matches_unsharded_across_the_l1_gate() {
    // A bundle of any shard count loads as one dataset whose candidate
    // index reads the shards' inverted slices in range order, so heap and
    // mmap loads of 1, 3 and 4 shards answer exactly like the in-memory
    // dataset under every option row — hits, every `QueryStats` field and
    // explain traces — cold and from the result cache, for Algorithm 5
    // and the exact head alike. r_bounds = 300 makes the per-query L1
    // table pay past 15 candidates, so on this social graph the gate both
    // builds and skips.
    let g = gen::preferential_attachment_windowed(300, 6, 100, 13);
    let params = SimRankParams { r_bounds: 300, ..Default::default() };
    let idx = TopKIndex::build_with(&g, &params, Diagonal::paper_default(params.c), 13, 2);
    let ds = Dataset::new(g, idx).unwrap();
    let queries: Vec<u32> = (0..300).step_by(2).collect();
    let table = [
        QueryOptions::sampled(),
        QueryOptions { explain: true, candidate_ball: Some(2), ..QueryOptions::sampled() },
        QueryOptions { adaptive: false, ..QueryOptions::sampled() },
        QueryOptions { theta: Some(0.05), ..QueryOptions::sampled() },
        QueryOptions::default(),
        QueryOptions { explain: true, theta: Some(0.0), ..Default::default() },
    ];
    let memory = ServingEngine::with_threads(ds.clone(), 2);
    let want: Vec<_> = table.iter().map(|opts| memory.query_batch(&queries, 8, opts)).collect();
    let gated = &want[3].results;
    let built = gated.iter().filter(|r| r.stats.l1_tables == 1).count();
    let skipped = gated.iter().filter(|r| r.stats.candidates > 0 && r.stats.l1_tables == 0).count();
    assert!(built > 0 && skipped > 0, "built {built}, skipped {skipped}");
    assert!(want[1].results.iter().any(|r| r.explain.is_some()), "explain row must trace");
    assert!(want[4].results.iter().any(|r| !r.hits.is_empty()), "the head row must answer");

    for shards in [1u32, 3, 4] {
        let path = write_temp(&format!("gate_s{shards}.srs"), &packed_shards(&ds, shards));
        for load in [LoadOptions::default(), LoadOptions { mmap: true, ..Default::default() }] {
            let (loaded, info, _) = load_snapshot(&path, &load).unwrap();
            assert_eq!((info.shards, info.mapped), (shards, load.mmap));
            let engine = ServingEngine::with_threads(loaded, 3);
            engine.set_cache_capacity(4096);
            // Pass 0 computes every answer, pass 1 serves them from the cache.
            for pass in 0..2 {
                for (opts, want) in table.iter().zip(&want) {
                    let got = engine.query_batch(&queries, 8, opts);
                    for ((a, b), u) in want.results.iter().zip(&got.results).zip(&queries) {
                        let at = format!("u={u} shards={shards} mmap={} pass={pass} {opts:?}", load.mmap);
                        assert_eq!(a.hits, b.hits, "{at}");
                        assert_eq!(a.stats, b.stats, "{at}");
                        assert_eq!(a.explain, b.explain, "{at}");
                    }
                    assert_eq!(want.totals, got.totals);
                }
            }
            let cached = (table.len() * queries.len()) as u64;
            assert_eq!(engine.metrics().cache_hits.get(), cached, "shards={shards}");
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn hot_swap_is_atomic_under_concurrent_batches() {
    // Two datasets over different graphs. Workers hammer the engine with
    // batches while the main thread swaps back and forth; every batch
    // must come back entirely from one dataset — a mixed batch would mean
    // a torn graph/index pair or a scratch crossing generations.
    let ds_a = build(120, 11);
    let ds_b = build(90, 12);
    let queries: Vec<u32> = (0..40).collect();
    let opts = QueryOptions::default();
    let expect_a = ServingEngine::with_threads(ds_a.clone(), 2).query_batch(&queries, 5, &opts);
    let expect_b = ServingEngine::with_threads(ds_b.clone(), 2).query_batch(&queries, 5, &opts);
    assert_ne!(
        expect_a.results.iter().map(|r| r.hits.clone()).collect::<Vec<_>>(),
        expect_b.results.iter().map(|r| r.hits.clone()).collect::<Vec<_>>(),
        "the two datasets must be distinguishable for the test to mean anything"
    );

    let engine = ServingEngine::with_threads(ds_a.clone(), 2);
    std::thread::scope(|s| {
        for _ in 0..3 {
            s.spawn(|| {
                for _ in 0..20 {
                    let batch = engine.query_batch(&queries, 5, &opts);
                    let matches = |want: &srs_search::BatchResult| {
                        want.results
                            .iter()
                            .zip(&batch.results)
                            .all(|(a, b)| a.hits == b.hits && a.stats == b.stats)
                    };
                    assert!(
                        matches(&expect_a) ^ matches(&expect_b),
                        "batch must match exactly one dataset generation"
                    );
                }
            });
        }
        for i in 0..30 {
            let next = if i % 2 == 0 { ds_b.clone() } else { ds_a.clone() };
            engine.swap(next);
            std::thread::yield_now();
        }
    });
    assert_eq!(engine.metrics().dataset_swaps.get(), 30);
}

/// `build(120, 11)` packed by the format-v1 writer (FNV-1a 64 section
/// checksums), committed so the reader's v1 path runs on real v1 bytes.
const V1_SNAPSHOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/snapshot_v1.srs");

fn all_modes() -> [LoadOptions; 3] {
    [
        LoadOptions::default(),
        LoadOptions { mmap: true, ..Default::default() },
        LoadOptions { mmap: true, verify_on_load: true, ..Default::default() },
    ]
}

#[test]
fn v1_snapshot_loads_in_every_mode_and_answers_like_its_v2_repack() {
    let v1 = std::fs::read(V1_SNAPSHOT).unwrap();
    let r1 = container::BundleReader::open(v1.clone()).unwrap();
    assert_eq!(r1.version(), 1);
    let sections = r1.num_sections();
    // The fixture is the dataset `build` makes today, and today's writer
    // repacks it as v2 with the same sections and payloads. Only the
    // manifest differs: its shard fingerprints fold stored checksums.
    let fresh = build(120, 11);
    let v2 = packed(&fresh);
    let r2 = container::BundleReader::open(v2.clone()).unwrap();
    assert_eq!((r2.version(), r2.num_sections()), (2, sections));
    for i in 0..sections {
        let tag = r1.section_tag(i).unwrap();
        assert_eq!(r2.section_tag(i), Some(tag));
        if tag != persist::SEC_MANIFEST {
            assert_eq!(r1.bytes(tag).unwrap(), r2.bytes(tag).unwrap(), "section {tag}");
        }
    }
    assert_ne!(r1.fingerprint(), r2.fingerprint(), "the stored checksums differ");
    let want = answers(&fresh);
    let v2_path = write_temp("v2_repack.srs", &v2);
    for opts in all_modes() {
        let (ds, info, verifier) = load_snapshot(V1_SNAPSHOT, &opts).unwrap();
        let verified = match verifier {
            Some(v) => v.verify_all().unwrap(),
            None => info.sections_verified,
        };
        assert_eq!(verified, sections, "{opts:?}");
        assert_eq!(info.fingerprint, r1.fingerprint(), "{opts:?}");
        assert!(answers(&ds) == want, "v1 answers differ from the fresh build ({opts:?})");
        let (repacked, _, _) = load_snapshot(&v2_path, &opts).unwrap();
        assert!(answers(&repacked) == want, "v2 answers differ from the fresh build ({opts:?})");
    }
    std::fs::remove_file(&v2_path).ok();
}

#[test]
fn v1_payload_flips_and_unknown_versions_fail_closed_in_every_mode() {
    let v1 = std::fs::read(V1_SNAPSHOT).unwrap();
    let reader = container::BundleReader::open(v1.clone()).unwrap();
    // The unused word of the index meta (bytes 68..72): no reader looks
    // at it, so only the v1 checksum can catch the flip.
    let meta = (0..reader.num_sections()).find(|&i| reader.section_tag(i) == Some("i.meta")).unwrap();
    let at = reader.section_extent(meta).unwrap().0 as usize + 68;
    let mut flipped = v1.clone();
    flipped[at] ^= 0x20;
    let mut v3 = v1;
    v3[8..12].copy_from_slice(&3u32.to_le_bytes());
    let (flip_path, v3_path) = (write_temp("v1_flip.srs", &flipped), write_temp("v3.srs", &v3));
    for opts in all_modes() {
        let err = match load_snapshot(&flip_path, &opts) {
            Err(e) => e,
            Ok((_, _, verifier)) => {
                verifier.expect("only a lazy open defers the checksum").verify_all().unwrap_err()
            }
        };
        assert!(err.to_string().contains("\"i.meta\": checksum mismatch"), "{opts:?}: {err}");
        let err = load_snapshot(&v3_path, &opts).expect_err("version 3 must be rejected");
        assert!(err.to_string().contains("unsupported bundle version 3"), "{opts:?}: {err}");
    }
    for p in [flip_path, v3_path] {
        std::fs::remove_file(p).ok();
    }
}

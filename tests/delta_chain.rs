//! Workspace-level delta-chain tests: a chain file survives the same
//! abuse a base snapshot does (bit flips, truncation) in every load
//! mode, and the staleness-depth knob trades freshness for accuracy the
//! way DESIGN.md §5m promises — measured against the exact solver.

use srs_exact::{partial_sums, ExactParams};
use srs_graph::{container, gen, GraphDelta, ValidationLevel};
use srs_search::persist;
use srs_search::snapshot::{self, Dataset};
use srs_search::{
    build_delta, load_chain, Diagonal, Hit, LoadOptions, QueryOptions, ServingEngine, SimRankParams,
    TopKIndex,
};

fn build(n: u32, seed: u64) -> Dataset {
    let g = gen::copying_web(n, 4, 0.8, seed);
    let params = SimRankParams { r_bounds: 300, ..Default::default() };
    let idx = TopKIndex::build_with(&g, &params, Diagonal::paper_default(params.c), seed, 2);
    Dataset::new(g, idx).unwrap()
}

fn write_temp(name: &str, bytes: &[u8]) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("srs_chain_it_{}_{name}", std::process::id()));
    std::fs::write(&path, bytes).unwrap();
    path
}

/// A base on disk plus one full-depth delta on disk, with the clean
/// chain's answers as the corruption baseline.
struct ChainFixture {
    base_path: std::path::PathBuf,
    delta_path: std::path::PathBuf,
    delta_bytes: Vec<u8>,
    baseline: Vec<Vec<Hit>>,
    new_n: u32,
}

fn chain_fixture(tag: &str) -> ChainFixture {
    let ds = build(80, 4);
    let base_bytes = snapshot::pack_to_bytes(ds.graph(), ds.index());
    let base_path = write_temp(&format!("{tag}.srs"), &base_bytes);
    let (base, base_info) = Dataset::from_snapshot_bytes(base_bytes).unwrap();
    let t = base.index().params().t;
    let mut batch = GraphDelta::new();
    batch.grow_to(83);
    batch.insert(80, 1);
    batch.insert(81, 80);
    batch.insert(82, 2);
    batch.delete(1, 0);
    let built = build_delta(&base, &batch, t - 1, 2, base_info.fingerprint).unwrap();
    let delta_path = write_temp(&format!("{tag}.srs.d0001"), &built.bytes);
    let baseline = answers(&built.dataset);
    ChainFixture { base_path, delta_path, delta_bytes: built.bytes, baseline, new_n: 83 }
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

fn all_modes() -> [LoadOptions; 3] {
    [
        LoadOptions::default(),
        LoadOptions { mmap: true, ..Default::default() },
        LoadOptions { mmap: true, verify_on_load: true, ..Default::default() },
    ]
}

#[test]
fn delta_bit_flips_fail_closed_in_every_mode() {
    let fx = chain_fixture("flip");
    // Seeded single-byte flips across the delta file, loaded heap, lazy
    // mmap, and eager mmap. Deltas are always eagerly checksummed, so a
    // flip inside any payload or the table must be rejected; flips that
    // land in alignment padding may load — but then every answer must be
    // bit-identical to the clean chain.
    let mut rejected = 0usize;
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..150 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let pos = (state >> 33) as usize % fx.delta_bytes.len();
        let bit = 1u8 << ((state >> 29) & 7);
        let mut corrupt = fx.delta_bytes.clone();
        corrupt[pos] ^= bit;
        std::fs::write(&fx.delta_path, &corrupt).unwrap();
        for opts in all_modes() {
            match load_chain(&fx.base_path, &[&fx.delta_path], &opts) {
                Err(_) => rejected += 1,
                Ok((loaded, _, chain, verifier)) => {
                    assert_eq!(chain.depth, 1, "flip at byte {pos} changed the chain shape");
                    // The base file is clean, so a handed-back lazy
                    // verifier must pass; the flip lives in the delta.
                    if let Some(v) = verifier {
                        v.verify_all().unwrap();
                    }
                    assert_eq!(
                        answers(&loaded),
                        fx.baseline,
                        "flip at byte {pos} changed answers ({opts:?})"
                    );
                }
            }
        }
    }
    assert!(rejected > 0, "some flips must land in checksummed delta payload");
    for p in [&fx.base_path, &fx.delta_path] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn delta_truncation_never_panics_and_always_errors() {
    let fx = chain_fixture("trunc");
    // Every proper prefix of the delta file is missing data: header
    // edges, a stride sweep, and the final bytes must all fail closed in
    // every load mode.
    let len = fx.delta_bytes.len();
    let mut cuts: Vec<usize> = vec![0, 1, 7, 8, 15, 16, len - 1, len.saturating_sub(8)];
    cuts.extend((0..len).step_by(97));
    for cut in cuts {
        std::fs::write(&fx.delta_path, &fx.delta_bytes[..cut]).unwrap();
        for opts in all_modes() {
            assert!(
                load_chain(&fx.base_path, &[&fx.delta_path], &opts).is_err(),
                "delta truncated to {cut} bytes must not load under {opts:?}"
            );
        }
    }
    // A missing chain link is an error, not a silently shorter chain.
    std::fs::remove_file(&fx.delta_path).ok();
    for opts in all_modes() {
        assert!(load_chain(&fx.base_path, &[&fx.delta_path], &opts).is_err());
    }
    std::fs::remove_file(&fx.base_path).ok();
}

#[test]
fn corrupt_delta_never_reaches_a_serving_engine() {
    // The failure-injection shape a server restart hits: chain loads are
    // all-or-nothing, so after a rejected delta the caller still has the
    // clean base to fall back to — and that base serves exactly the
    // pre-edit answers.
    let fx = chain_fixture("fallback");
    let mut corrupt = fx.delta_bytes.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x40;
    std::fs::write(&fx.delta_path, &corrupt).unwrap();
    let chain_load = load_chain(&fx.base_path, &[&fx.delta_path], &LoadOptions::default());
    if let Ok((loaded, _, _, _)) = &chain_load {
        // Mid-file flips land in checksummed payload for this fixture.
        assert_eq!(answers(loaded), fx.baseline);
    }
    let (ds, _, chain, _) =
        load_chain(&fx.base_path, &[] as &[&std::path::Path], &LoadOptions::default()).unwrap();
    assert_eq!(chain.depth, 0);
    // The pre-edit base knows nothing of the grown vertices.
    assert!(ds.graph().num_vertices() < fx.new_n);
    for p in [&fx.base_path, &fx.delta_path] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn live_ingest_replays_through_a_chain_on_any_shard_count() {
    // Edit batches ingested live by an engine over a packed base (each
    // delta parented at the previous artifact's fingerprint) load back
    // through the chain to the live engine's answers — and a 2-shard
    // base answers exactly like a 1-shard base after the same edits.
    let ds = build(90, 5);
    let t = ds.index().params().t;
    let mut batches = [GraphDelta::new(), GraphDelta::new()];
    batches[0].grow_to(92);
    batches[0].insert(90, 1);
    batches[0].insert(91, 90);
    batches[0].delete(1, 0);
    batches[1].insert(3, 91);
    let queries: Vec<u32> = (0..92).collect();
    for opts in [
        QueryOptions { explain: true, ..QueryOptions::sampled() },
        QueryOptions { explain: true, ..Default::default() },
    ] {
        let mut answers = Vec::new();
        for shards in [1u32, 2] {
            let mut bytes = Vec::new();
            snapshot::pack(ds.graph(), ds.index(), shards, &mut bytes).unwrap();
            let base_path = write_temp(&format!("s{shards}.srs"), &bytes);
            let (base, info, _) = srs_search::load_snapshot(&base_path, &LoadOptions::default()).unwrap();
            assert_eq!(info.shards, shards);
            let engine = ServingEngine::with_threads(base, 2);
            let mut parent = info.fingerprint;
            let mut paths = Vec::new();
            for (i, batch) in batches.iter().enumerate() {
                let applied = engine.apply_delta(batch, t - 1, parent).unwrap();
                parent = applied.fingerprint;
                paths.push(write_temp(&format!("s{shards}.srs.d{i}"), &applied.bytes));
            }
            let live = engine.query_batch(&queries, 6, &opts);
            let (chained, _, chain, _) = load_chain(&base_path, &paths, &LoadOptions::default()).unwrap();
            assert_eq!(chain.depth, 2);
            let replayed = ServingEngine::with_threads(chained, 2).query_batch(&queries, 6, &opts);
            for (u, (a, b)) in live.results.iter().zip(&replayed.results).enumerate() {
                assert_eq!(a.hits, b.hits, "u={u} shards={shards}: replay differs from the live chain");
                assert_eq!(a.stats, b.stats, "u={u} shards={shards}");
            }
            answers.push(replayed);
            for p in paths.iter().chain([&base_path]) {
                std::fs::remove_file(p).ok();
            }
        }
        for (u, (a, b)) in answers[0].results.iter().zip(&answers[1].results).enumerate() {
            assert_eq!(a.hits, b.hits, "u={u}: 2-shard chain differs from 1-shard chain");
            assert_eq!(a.stats, b.stats, "u={u}");
            assert_eq!(a.explain, b.explain, "u={u}");
        }
    }
}

/// Re-encodes `bytes` section by section into a new page-aligned bundle,
/// letting `patch` rewrite a payload and inserting the extra `(tag, f32
/// rows)` section right after the section tagged `after` — the layout
/// that bundle had when the writer still stored the γ table.
fn with_extra_section(
    bytes: Vec<u8>,
    after: &str,
    extra: (&str, &[f32]),
    patch: impl Fn(&str, &mut Vec<u8>),
) -> Vec<u8> {
    let r = container::BundleReader::open(bytes).unwrap();
    let mut w = container::BundleWriter::new().page_aligned();
    for i in 0..r.num_sections() {
        let tag = r.section_tag(i).unwrap();
        let mut payload = r.bytes(tag).unwrap().to_vec();
        patch(tag, &mut payload);
        w.add_bytes(tag, 8, payload);
        if tag == after {
            w.add_pod(extra.0, extra.1);
        }
    }
    w.to_bytes()
}

#[test]
fn bundles_and_links_carrying_gamma_rows_still_load_and_answer_identically() {
    // Base snapshots and delta links written while the index still held
    // the γ table carry it as one more section (`i.gamma`, `d.gamma`)
    // and its step count in `i.meta`'s unused word. The readers never
    // ask for either, so such a chain loads in every mode — deep
    // validation included — and answers exactly like the same index in
    // today's layout.
    let ds = build(80, 4);
    let (n, t) = (ds.graph().num_vertices() as usize, ds.index().params().t);
    let mut batch = GraphDelta::new();
    batch.grow_to(83);
    batch.insert(80, 1);
    batch.insert(81, 80);
    batch.insert(82, 2);
    batch.delete(1, 0);
    let gamma_rows = vec![0.5f32; 83 * t as usize];
    let current = snapshot::pack_to_bytes(ds.graph(), ds.index());
    // `i.meta`: 32 bytes of f64/u64 fields, 8 u32 parameters, then n and
    // the word that used to hold the γ step count.
    let steps_word = |tag: &str, meta: &mut Vec<u8>| {
        if tag == "i.meta" {
            assert_eq!(meta[68..72], [0; 4], "the unused word is written as 0");
            meta[68..72].copy_from_slice(&t.to_le_bytes());
        }
    };
    let older =
        with_extra_section(current.clone(), "i.meta", ("i.gamma", &gamma_rows[..n * t as usize]), steps_word);
    let reader = container::BundleReader::open(older.clone()).unwrap();
    assert!(reader.has("i.gamma"));
    let deep = persist::index_from_bundle_with(&reader, ValidationLevel::Deep).unwrap();
    assert_eq!(deep.candidate_index(), ds.index().candidate_index());

    // Each base gets its own delta link, parented at that base's
    // fingerprint; the older link also carries the dirty γ rows.
    let mut chains = Vec::new();
    for (name, base_bytes) in [("current", current), ("older", older)] {
        let base_path = write_temp(&format!("gamma_{name}.srs"), &base_bytes);
        let (base, info) = Dataset::from_snapshot_bytes(base_bytes).unwrap();
        let built = build_delta(&base, &batch, t - 1, 2, info.fingerprint).unwrap();
        let link = if name == "older" {
            let dirty = built.stats.appended as usize + built.stats.dirty as usize;
            with_extra_section(
                built.bytes,
                "d.dirty",
                ("d.gamma", &gamma_rows[..dirty * t as usize]),
                |_, _| (),
            )
        } else {
            built.bytes
        };
        let delta_path = write_temp(&format!("gamma_{name}.srs.d0001"), &link);
        chains.push((base_path, delta_path));
    }
    let queries: Vec<u32> = (0..83).collect();
    let sampled = QueryOptions { explain: true, candidate_ball: Some(2), ..QueryOptions::sampled() };
    for (load, opts) in
        all_modes().into_iter().flat_map(|l| [(l, sampled.clone()), (l, QueryOptions::default())])
    {
        let mut answers = Vec::new();
        for (base_path, delta_path) in &chains {
            let (bare, _, _) = srs_search::load_snapshot(base_path, &load).unwrap();
            let (chained, _, chain, _) = load_chain(base_path, &[delta_path], &load).unwrap();
            assert_eq!(chain.depth, 1);
            answers.push((
                ServingEngine::with_threads(bare, 2).query_batch(&queries[..80], 6, &opts),
                ServingEngine::with_threads(chained, 2).query_batch(&queries, 6, &opts),
            ));
        }
        let [(base_now, chain_now), (base_old, chain_old)] = &answers[..] else { unreachable!() };
        for (now, old) in [(base_now, base_old), (chain_now, chain_old)] {
            for (u, (a, b)) in now.results.iter().zip(&old.results).enumerate() {
                assert_eq!(a.hits, b.hits, "u={u} {load:?}");
                assert_eq!(a.stats, b.stats, "u={u} {load:?}");
                assert_eq!(a.explain, b.explain, "u={u} {load:?}");
            }
        }
    }
    for (base_path, delta_path) in chains {
        std::fs::remove_file(base_path).ok();
        std::fs::remove_file(delta_path).ok();
    }
}

/// Exact top-`k` of vertex `u` (self excluded, zero scores excluded,
/// ties broken by vertex id) — the reference set for precision@k, same
/// shape as `rankings_agree_across_score_families`.
fn exact_topk(score: impl Fn(u32) -> f64, u: u32, n: u32, k: usize) -> Vec<u32> {
    let mut o: Vec<(f64, u32)> = (0..n).filter(|&v| v != u).map(|v| (score(v), v)).collect();
    o.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
    o.truncate(k);
    o.into_iter().filter(|&(s, _)| s > 1e-9).map(|(_, v)| v).collect()
}

#[test]
fn staleness_depth_trades_freshness_for_accuracy() {
    // One disruptive batch absorbed at staleness depth 0, 1, and T−1.
    // Precision@k of Algorithm 5, which reads the candidate index,
    // against the exact solver on the *post-edit* graph must not decrease
    // with depth, and the full-depth chain must answer bit-identically to
    // an index rebuilt from scratch under either estimator.
    let n: u32 = 100;
    let seed = 5u64;
    let g = gen::copying_web(n, 4, 0.8, seed);
    let params = SimRankParams { r_bounds: 300, ..Default::default() };
    let idx = TopKIndex::build_with(&g, &params, Diagonal::paper_default(params.c), seed, 2);
    let base = Dataset::new(g.clone(), idx).unwrap();
    let t = params.t;

    // Rewire the in-lists of the top-id block wholesale. In copying_web
    // every edge points to a lower id, so dirtying high-id vertices makes
    // the dilation frontier flow down the id range: the dirty set grows
    // 30 → 61 → 71 rows across the depths tested, and stale rows really
    // are wrong about the post-edit similarities.
    let mut batch = GraphDelta::new();
    for (u, v) in g.edges() {
        if v >= 70 {
            batch.delete(u, v);
        }
    }
    for v in 70..100u32 {
        batch.insert((v * 7 + 1) % 70, v);
        batch.insert((v * 13 + 5) % 70, v);
    }
    assert!(!batch.is_empty());

    let new_g = batch.apply(&g).unwrap();
    let exact = partial_sums::all_pairs(&new_g, &ExactParams::new(params.c, t), 2);
    let k = 5usize;
    let queries: Vec<u32> = (0..n).collect();

    let precision_at = |ds: &Dataset| -> f64 {
        let (mut agree, mut total) = (0usize, 0usize);
        for &u in &queries {
            let want = exact_topk(|v| exact.get(u as usize, v as usize), u, n, k);
            if want.is_empty() {
                continue;
            }
            let got = ds.index().query(ds.graph(), u, k, &QueryOptions::sampled());
            total += want.len();
            agree += want.iter().filter(|v| got.hits.iter().any(|h| h.vertex == **v)).count();
        }
        assert!(total > 0);
        agree as f64 / total as f64
    };

    let mut datasets = Vec::new();
    for depth in [0, 1, t - 1] {
        let built = build_delta(&base, &batch, depth, 2, 0x5EED).unwrap();
        datasets.push((depth, built.dataset));
    }
    let precisions: Vec<(u32, f64)> = datasets.iter().map(|(d, ds)| (*d, precision_at(ds))).collect();
    for w in precisions.windows(2) {
        assert!(w[1].1 >= w[0].1, "precision@{k} must not decrease with staleness depth: {precisions:?}");
    }
    let (_, full) = precisions.last().unwrap();
    let (_, stale) = precisions.first().unwrap();
    assert!(full > stale, "the batch must be disruptive enough to separate depth 0 from T−1: {precisions:?}");

    // Full depth ⇒ bit-identical to the from-scratch rebuild, at every
    // vertex, including the candidate fates.
    let rebuilt_idx = TopKIndex::build_with(&new_g, &params, Diagonal::paper_default(params.c), seed, 2);
    let rebuilt = Dataset::new(new_g, rebuilt_idx).unwrap();
    let (_, chained) = datasets.last().unwrap();
    for opts in [QueryOptions::sampled(), QueryOptions::default()] {
        for &u in &queries {
            let a = chained.index().query(chained.graph(), u, k, &opts);
            let b = rebuilt.index().query(rebuilt.graph(), u, k, &opts);
            assert_eq!(a.hits, b.hits, "full-depth chain diverged from rebuild at vertex {u}: {opts:?}");
            assert_eq!(a.stats, b.stats, "candidate fates diverged at vertex {u}: {opts:?}");
        }
    }
}

//! Incremental-maintenance benchmark: absorbing an edit batch via the
//! delta pipeline (masked extend + delta bundle + chain reload) vs the
//! rebuild-repack-reload cycle it replaces, on the same base dataset.
//!
//! Three batch shapes ride the ladder:
//!
//! * `low-reach-insert` — edges into vertices with the smallest measured
//!   forward reach, so the dirty set barely dilates even at full
//!   staleness depth: the headline "≤ 5 % dirty" rung;
//! * `mixed` — random insertions plus deletions of existing edges, a
//!   realistic churn batch whose dirty set dilates freely;
//! * `grow` — append 1 % new vertices wired into the existing graph,
//!   the online-ingest shape.
//!
//! Every delta is built at full depth (`T − 1`), so the spliced dataset
//! must answer bit-identically to the rebuilt one — asserted per rung.
//! Results go to `BENCH_extend.json` at the repo root; `-- --test`
//! smoke mode shrinks the fixture and skips the artifact.

use criterion::{criterion_group, criterion_main, Criterion};
use srs_bench::extendbench::{ExtendBenchEntry, ExtendBenchReport};
use srs_bench::walkbench::HostInfo;
use srs_graph::{gen, GraphDelta};
use srs_search::snapshot::pack_to_bytes;
use srs_search::{
    build_delta, load_chain, Dataset, Diagonal, LoadOptions, QueryOptions, SimRankParams, TopKIndex,
};
use std::time::Instant;

fn bench_extend(_c: &mut Criterion) {
    let smoke = criterion::smoke_mode();
    let n: u32 = if smoke { 2_000 } else { 20_000 };
    let g = gen::copying_web(n, 4, 0.8, 42);
    let params = SimRankParams::default();
    let depth = params.t - 1;
    let threads = std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1);

    let index = TopKIndex::build_with(&g, &params, Diagonal::paper_default(params.c), 42, threads);
    let base_bytes = pack_to_bytes(&g, &index);
    let base_path = std::env::temp_dir().join(format!("srs_extendbench_{}.srs", std::process::id()));
    let delta_path = base_path.with_extension("srs.d0001");
    std::fs::write(&base_path, &base_bytes).expect("write base fixture");
    let (base_ds, base_info) = Dataset::from_snapshot_bytes(base_bytes).expect("base snapshot loads");

    // Deterministic batch shapes (no RNG: a multiplicative stride walks
    // the id space). The headline batch targets the vertices whose
    // forward reach within `depth` steps — exactly the set one edit into
    // them dilates to — is smallest.
    let k_small = (n / 1000).max(4) as usize;
    let cap = (n as usize / 100).max(8);
    let mut by_reach: Vec<(usize, u32)> = (0..n).map(|v| (forward_reach(&g, v, depth, cap), v)).collect();
    by_reach.sort_unstable();
    let mut low_reach_insert = GraphDelta::new();
    for &(_, v) in by_reach.iter().take(k_small) {
        let u = (v * 31 + 7) % n;
        if u != v {
            low_reach_insert.insert(u, v);
        }
    }
    assert!(!low_reach_insert.is_empty(), "headline batch must stage edits");
    let mut mixed = GraphDelta::new();
    let stride = (n as usize / (2 * k_small)).max(1);
    for (i, (u, v)) in g.edges().step_by(stride).take(k_small).enumerate() {
        if i % 2 == 0 {
            mixed.delete(u, v);
        } else {
            let w = (v + 1) % n;
            if u != w {
                mixed.insert(u, w);
            }
        }
    }
    let grown = n + (n / 100).max(2);
    let mut grow = GraphDelta::new();
    grow.grow_to(grown);
    for v in n..grown {
        grow.insert(v, v % n); // new vertex links into the old graph
        grow.insert((v * 7 + 3) % n, v); // …and acquires an in-edge
    }

    let mut report = ExtendBenchReport {
        host: HostInfo::detect(),
        graph: format!("copying_web(n={n}, out_deg=4, copy_prob=0.8, seed=42)"),
        n,
        m: g.num_edges(),
        staleness_depth: depth,
        entries: Vec::new(),
    };

    for (name, batch) in [("low-reach-insert", &low_reach_insert), ("mixed", &mixed), ("grow", &grow)] {
        // Incremental side: masked extend + delta encode, then the chain
        // reload a restarting server would pay.
        let t0 = Instant::now();
        let built =
            build_delta(&base_ds, batch, depth, threads, base_info.fingerprint).expect("delta builds");
        let apply_secs = t0.elapsed().as_secs_f64();
        std::fs::write(&delta_path, &built.bytes).expect("write delta");
        let t0 = Instant::now();
        let (chained, _, chain, _) =
            load_chain(&base_path, &[&delta_path], &LoadOptions::default()).expect("chain loads");
        let reload_secs = t0.elapsed().as_secs_f64();
        assert_eq!(chain.depth, 1);

        // From-scratch side on the identical post-edit graph.
        let new_g = batch.apply(&g).expect("batch applies");
        let t0 = Instant::now();
        let new_index =
            TopKIndex::build_with(&new_g, &params, Diagonal::paper_default(params.c), 42, threads);
        let rebuild_secs = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let rebuilt_bytes = pack_to_bytes(&new_g, &new_index);
        let repack_secs = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let (rebuilt, _) = Dataset::from_snapshot_bytes(rebuilt_bytes).expect("rebuilt loads");
        let rebuild_reload_secs = t0.elapsed().as_secs_f64();

        // Full-depth deltas promise bit-identical answers to the rebuild.
        for u in [0u32, n / 3, n - 1] {
            let a = chained.index().query(chained.graph(), u, 10, &QueryOptions::default());
            let b = rebuilt.index().query(rebuilt.graph(), u, 10, &QueryOptions::default());
            assert_eq!(a.hits, b.hits, "{name}: chained vs rebuilt differ at vertex {u}");
        }

        let new_n = new_g.num_vertices();
        let entry = ExtendBenchEntry {
            insertions: batch.num_insertions() as u64,
            deletions: batch.num_deletions() as u64,
            appended: built.stats.appended,
            dirty: built.stats.dirty,
            reused: built.stats.reused,
            dirty_fraction: (built.stats.appended + built.stats.dirty) as f64 / new_n as f64,
            apply_secs,
            reload_secs,
            rebuild_secs,
            repack_secs,
            rebuild_reload_secs,
            delta_bytes: built.bytes.len() as u64,
        };
        println!(
            "  {name:<12} +{} -{} edges: {} appended, {} dirty, {} reused ({:.1}% dirty) — \
             delta {:.4}s vs rebuild {:.4}s -> {:.1}x",
            entry.insertions,
            entry.deletions,
            entry.appended,
            entry.dirty,
            entry.reused,
            entry.dirty_fraction * 100.0,
            entry.delta_secs(),
            entry.rebuild_total_secs(),
            entry.speedup()
        );
        report.entries.push(entry);
    }
    std::fs::remove_file(&base_path).ok();
    std::fs::remove_file(&delta_path).ok();

    // The acceptance rung: a batch dirtying ≤ 5 % of rows must absorb
    // measurably faster than the rebuild cycle. The low-reach batch is
    // engineered to stay under the bar at full depth.
    let headline = &report.entries[0];
    assert!(
        headline.dirty_fraction <= 0.05,
        "low-reach rung must stay under 5% dirty, got {:.1}%",
        headline.dirty_fraction * 100.0
    );
    let min_speedup = if smoke { 1.0 } else { 3.0 };
    assert!(
        headline.speedup() > min_speedup,
        "delta apply at {:.1}% dirty must beat rebuild+repack+reload by >{min_speedup}x, got {:.1}x",
        headline.dirty_fraction * 100.0,
        headline.speedup()
    );

    if !smoke {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_extend.json");
        report.write(path).expect("write BENCH_extend.json");
        println!("wrote {path}");
    }
}

/// Size of `v`'s forward reach within `depth` steps (including `v`),
/// capped at `cap` — a cheap proxy for how far one edit into `v`
/// dilates. The early abort keeps the all-vertices scan linear-ish even
/// on hub vertices.
fn forward_reach(g: &srs_graph::Graph, v: u32, depth: u32, cap: usize) -> usize {
    let mut set = std::collections::BTreeSet::new();
    set.insert(v);
    let mut frontier = vec![v];
    for _ in 0..depth {
        let mut next = Vec::new();
        for &w in &frontier {
            for &u in g.out_neighbors(w) {
                if set.insert(u) {
                    if set.len() > cap {
                        return set.len();
                    }
                    next.push(u);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    set.len()
}

criterion_group!(benches, bench_extend);
criterion_main!(benches);

//! Raw walk-kernel throughput: logical walk-steps per second for every
//! entry point of `srs_mc::WalkEngine` on a generated copying-model web
//! graph (the in-degree skew the index build actually faces).
//!
//! Two entries measure the shapes the query path runs: `frontier_r10`
//! (many 10-walk frontiers, the coarse-pass size) and `l1_table` (the
//! Algorithm 2 table of `srs_search::bounds::AlphaBeta`: 10,000 walks
//! from degree-weighted hubs of a social-family graph, counted densely).
//!
//! "Logical steps" = walks × steps each was *asked* to advance, i.e. the
//! caller-visible unit of work. The frontier kernels do less physical
//! work than that once walks die — which is exactly the optimization the
//! number should reflect. Results are printed as Msteps/s and written,
//! with a host block, to `BENCH_walks.json` at the repo root. In
//! `-- --test` smoke mode the fixtures shrink and the JSON goes to
//! stdout instead, so CI checks the harness and the report shape.

use criterion::{criterion_group, criterion_main, Criterion};
use srs_bench::walkbench::WalkBenchReport;
use srs_graph::bfs::{BfsBuffers, Direction};
use srs_graph::{gen, Graph, VertexId};
use srs_mc::multiset::PositionCounter;
use srs_mc::{Pcg32, WalkEngine, WalkPositions, DEAD};
use srs_search::bounds::AlphaBeta;
use srs_search::{Diagonal, SimRankParams};
use std::time::{Duration, Instant};

struct Fixture {
    n: u32,
    batch: usize,
    iters: usize,
    t_max: usize,
}

fn bench_walks(_c: &mut Criterion) {
    let smoke = criterion::smoke_mode();
    let f = if smoke {
        Fixture { n: 2_000, batch: 1_000, iters: 2, t_max: 11 }
    } else {
        Fixture { n: 100_000, batch: 50_000, iters: 20, t_max: 11 }
    };
    let g = gen::copying_web(f.n, 4, 0.8, 42);
    let engine = WalkEngine::new(&g);
    let logical = (f.iters * f.batch * f.t_max) as u64;
    let mut report =
        WalkBenchReport::new(format!("copying_web(n={}, out_deg=4, copy_prob=0.8, seed=42)", f.n));

    // step_all: fixed-slot batch stepping (dead walks stay as DEAD slots).
    let mut pos = vec![0u32; f.batch];
    let mut rng = Pcg32::new(1, 1);
    let t0 = Instant::now();
    for it in 0..f.iters {
        reseed(&mut pos, it, f.n);
        for _ in 0..f.t_max {
            engine.step_all(&mut pos, &mut rng);
        }
    }
    record(&mut report, "step_all", logical, t0.elapsed().as_secs_f64());

    // step_frontier: compacted live frontier, same logical work.
    let mut frontier: Vec<u32> = Vec::with_capacity(f.batch);
    let t0 = Instant::now();
    for it in 0..f.iters {
        frontier.clear();
        frontier.resize(f.batch, 0);
        reseed(&mut frontier, it, f.n);
        for _ in 0..f.t_max {
            if frontier.is_empty() {
                break;
            }
            engine.step_frontier(&mut frontier, &mut rng);
        }
    }
    record(&mut report, "step_frontier", logical, t0.elapsed().as_secs_f64());

    // step_frontier_count: stepping fused with per-step multiset counting
    // (the Algorithm 1/2/3 inner loop).
    let mut counter = PositionCounter::new();
    let t0 = Instant::now();
    for it in 0..f.iters {
        frontier.clear();
        frontier.resize(f.batch, 0);
        reseed(&mut frontier, it, f.n);
        for _ in 0..f.t_max {
            if frontier.is_empty() {
                break;
            }
            engine.step_frontier_count(&mut frontier, &mut rng, &mut counter);
        }
    }
    record(&mut report, "step_frontier_count", logical, t0.elapsed().as_secs_f64());

    // frontier_r10: one 10-walk frontier per source, the coarse-pass
    // shape, where per-call overhead weighs against the per-walk work.
    let sources = if smoke { 200 } else { 100_000 };
    let r10 = 10;
    let t0 = Instant::now();
    for u in 0..sources {
        frontier.clear();
        frontier.resize(r10, (u % f.n as usize) as u32);
        for _ in 0..f.t_max {
            if frontier.is_empty() {
                break;
            }
            engine.step_frontier(&mut frontier, &mut rng);
        }
    }
    record(&mut report, "frontier_r10", (sources * r10 * f.t_max) as u64, t0.elapsed().as_secs_f64());

    // walk_matrix: R recorded trajectories per source (query refinement
    // shape). Logical steps = walks × t_max per call.
    let sources = if smoke { 50 } else { 2_000 };
    let r = 100;
    let t0 = Instant::now();
    let mut mat_steps = 0u64;
    for u in 0..sources {
        let m = engine.walk_matrix(u % f.n, r, f.t_max, &mut rng);
        mat_steps += (m.num_walks() * m.t_max()) as u64;
    }
    record(&mut report, "walk_matrix", mat_steps, t0.elapsed().as_secs_f64());

    // walk_fill: single recorded trajectories into a fixed slice (the
    // Algorithm 4 probe-walk shape).
    let walks = if smoke { 2_000 } else { 200_000 };
    let mut probe = vec![DEAD; f.t_max + 1];
    let t0 = Instant::now();
    for i in 0..walks {
        engine.walk_fill((i % f.n as usize) as u32, &mut rng, &mut probe);
    }
    record(&mut report, "walk_fill", (walks * f.t_max) as u64, t0.elapsed().as_secs_f64());

    l1_table(&mut report, smoke);

    if smoke {
        print!("{}", report.to_json());
    } else {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_walks.json");
        report.write(path).expect("write BENCH_walks.json");
        println!("wrote {path}");
    }
}

/// The Algorithm 2 L1 table as a query computes it: `r_bounds = 10,000`
/// walks from each of a set of degree-weighted hubs of a social-family
/// graph (the `srs generate --family social` generator, n = 20k, deg 8),
/// stepped `T − 1` times with a dense count per step. Only
/// `AlphaBeta::compute_into` is timed; each hub's BFS ball is built
/// before its clock starts.
fn l1_table(report: &mut WalkBenchReport, smoke: bool) {
    let (n, deg, hubs) = if smoke { (2_000u32, 8u32, 5usize) } else { (20_000, 8, 400) };
    let window = ((n as usize * deg as usize * 2) / 100).max(100);
    let g = gen::preferential_attachment_windowed(n, deg, window, 42);
    let params = SimRankParams::default();
    let diag = Diagonal::paper_default(params.c);
    let sources = degree_weighted(&g, hubs, 7);
    let (mut ab, mut walks, mut counts) = (AlphaBeta::new_empty(), WalkPositions::new(), Vec::new());
    let mut bfs = BfsBuffers::new(g.num_vertices());
    let (horizon, mut elapsed) = (params.d_max + 1, Duration::ZERO);
    for (i, &u) in sources.iter().enumerate() {
        bfs.run(&g, u, Direction::Undirected, params.d_max);
        let t0 = Instant::now();
        ab.compute_into(
            &g,
            u,
            &params,
            &diag,
            |w| bfs.distance(w),
            horizon,
            i as u64,
            &mut walks,
            &mut counts,
        );
        elapsed += t0.elapsed();
    }
    let steps = (hubs * params.r_bounds as usize * (params.t as usize - 1)) as u64;
    let graph = format!("preferential_attachment_windowed(n={n}, out_deg={deg}, window={window}, seed=42)");
    println!("  l1_table: {:.1} Msteps/s", steps as f64 / elapsed.as_secs_f64() / 1e6);
    report.push_on(graph, "l1_table", steps, elapsed.as_secs_f64());
}

/// `k` query vertices drawn with probability proportional to their
/// in-degree (the endpoint of a uniformly drawn edge) — the hubs a
/// degree-weighted query mix hits most.
fn degree_weighted(g: &Graph, k: usize, seed: u64) -> Vec<VertexId> {
    let edges: Vec<(VertexId, VertexId)> = g.edges().collect();
    let mut rng = Pcg32::new(seed, 1);
    (0..k).map(|_| edges[rng.gen_range(edges.len() as u32) as usize].1).collect()
}

/// Deterministic per-iteration restart positions spanning the vertex set.
fn reseed(pos: &mut [u32], iteration: usize, n: u32) {
    for (i, p) in pos.iter_mut().enumerate() {
        *p = ((i + iteration) % n as usize) as u32;
    }
}

fn record(report: &mut WalkBenchReport, name: &str, steps: u64, elapsed: f64) {
    println!("  {name}: {:.1} Msteps/s", steps as f64 / elapsed / 1e6);
    report.push(name, steps, elapsed);
}

criterion_group!(benches, bench_walks);
criterion_main!(benches);

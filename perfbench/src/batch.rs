//! Batch workloads: `srs batch-query --threads 1` over seeded query-id
//! files, one process per chunk, until the measured time is spent.

use crate::counters::{self, Counters};
use crate::inputs::{distinct_queries, query_file, sub_seed, Popularity, Rng};
use crate::report::Report;
use crate::serve::{sweep_traces, Conn, Server};
use crate::stats::{median, nearest_rank};
use crate::{json, procfs, srs, Ctx, GRAPH_SEED};
use srs_graph::Graph;
use std::collections::HashMap;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Queries whose answers are re-derived and compared byte for byte.
const CHECK_QUERIES: usize = 30;

pub struct BatchSpec {
    /// `--ball R`, or the paper's default (no ball).
    pub ball: Option<u32>,
    /// Queries per `batch-query` process.
    pub chunk: usize,
    /// Roughly what one engine thread answers per second; sizes the
    /// fixed query pool to half of `--seconds`.
    pub nominal_qps: f64,
    /// Stages that must take over half the engine time in a traced run,
    /// or the workload is not exercising what it is named for.
    pub dominant: &'static [&'static str],
}

struct Phase {
    /// Queries in the order they ran.
    queries: Vec<u32>,
    hits: HashMap<u32, String>,
    latencies_ms: Vec<f64>,
    wall_s: f64,
    chunks: Vec<Chunk>,
    rss_mb: f64,
    counters: Counters,
}

/// One `batch-query` process.
struct Chunk {
    queries: usize,
    wall_s: f64,
    cpu_s: f64,
    /// Its queries' slice of `Phase::latencies_ms`.
    latencies: std::ops::Range<usize>,
}

fn option_args(spec: &BatchSpec) -> Vec<String> {
    spec.ball.map(|r| vec!["--ball".to_string(), r.to_string()]).unwrap_or_default()
}

/// Runs one `batch-query` process to completion, sampling its peak RSS
/// while it lives (the kernel drops `VmHWM` once it exits).
fn run_polled(ctx: &Ctx, args: &[String]) -> Result<f64, String> {
    let mut child = Command::new(ctx.srs)
        .args(args)
        .current_dir(ctx.dir)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn srs: {e}"))?;
    let mut rss = 0.0f64;
    loop {
        if let Some(v) = procfs::vm_hwm_mb(child.id()) {
            rss = rss.max(v);
        }
        if child.try_wait().map_err(|e| e.to_string())?.is_some() {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let out = child.wait_with_output().map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!(
            "srs {} failed: {}",
            args.join(" "),
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(rss)
}

/// The workload's query-id files: a fixed degree-weighted pool of
/// distinct vertices, cut into fixed chunks of `spec.chunk`, about half
/// of `--seconds` of work at `nominal_qps`. `--seed` only orders the
/// chunks, so every run answers the same multiset of processes and the
/// per-process medians compare like with like. Also returns the pool's
/// head, the fixed subset recall is scored on.
fn chunks(spec: &BatchSpec, g: &Graph, seconds: f64) -> (Vec<Vec<u32>>, Vec<u32>) {
    let count = ((seconds * spec.nominal_qps / 2.0) / spec.chunk as f64).ceil().max(1.0) as usize;
    let pool =
        distinct_queries(&Popularity::degree_weighted(g), count * spec.chunk, &mut Rng::new(GRAPH_SEED));
    let out: Vec<Vec<u32>> = pool.chunks(spec.chunk).map(<[u32]>::to_vec).collect();
    (out, pool.into_iter().take(crate::online::RECALL_QUERIES).collect())
}

/// Runs whole passes over `pool`, each in a fresh seeded order, until
/// `seconds` have passed.
fn phase(
    ctx: &Ctx,
    spec: &BatchSpec,
    pool: &[Vec<u32>],
    traced: bool,
    seconds: f64,
) -> Result<Phase, String> {
    let mut rng = Rng::new(sub_seed(ctx.seed, "order"));
    let started = Instant::now();
    let mut files: Vec<&[u32]> = Vec::new();
    let mut timing = Vec::new();
    let mut rss_mb = 0.0f64;
    while files.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let mut order: Vec<&[u32]> = pool.iter().map(Vec::as_slice).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for qs in order {
            let c = files.len();
            let qfile = format!("q{c}.txt");
            std::fs::write(ctx.dir.join(&qfile), query_file(qs)).map_err(|e| e.to_string())?;
            let mut args: Vec<String> = [
                "batch-query",
                "--snapshot",
                "g.srs",
                "--threads",
                "1",
                "--k",
                "20",
                "--queries",
                &qfile,
                "--hits-out",
                &format!("h{c}.txt"),
                "--trace-out",
                &format!("t{c}.json"),
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            if traced {
                args.extend(["--metrics-out".to_string(), format!("m{c}.json")]);
            }
            args.extend(option_args(spec));
            // The chunk's CPU is what this process gained in reaped-children
            // time across it: exactly the one `batch-query` it waited for.
            let cpu0 = procfs::cpu_times("self").ok_or("/proc/self/stat unreadable")?.children_s;
            let t = Instant::now();
            rss_mb = rss_mb.max(run_polled(ctx, &args)?);
            let wall_s = t.elapsed().as_secs_f64();
            let cpu_s = procfs::cpu_times("self").ok_or("/proc/self/stat unreadable")?.children_s - cpu0;
            timing.push((wall_s, cpu_s));
            files.push(qs);
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    // Parsing happens after the clock stops.
    let mut hits = HashMap::new();
    let mut latencies_ms = Vec::new();
    let mut totals = Counters::new();
    let mut chunk_list = Vec::with_capacity(files.len());
    for (c, (&(wall, cpu), qs)) in timing.iter().zip(&files).enumerate() {
        let first = latencies_ms.len();
        let read =
            |name: String| std::fs::read_to_string(ctx.dir.join(&name)).map_err(|e| format!("{name}: {e}"));
        hits.extend(srs::parse_hits_file(&read(format!("h{c}.txt"))?));
        let trace = json::parse(&read(format!("t{c}.json"))?)?;
        for ev in trace.get("traceEvents").map(json::Value::as_array).unwrap_or(&[]) {
            if ev.get("name").and_then(json::Value::as_str) == Some("query") {
                latencies_ms.push(ev.get("dur").and_then(json::Value::as_f64).unwrap_or(0.0) / 1e3);
            }
        }
        if traced {
            counters::accumulate(
                &mut totals,
                &counters::parse_metrics_json(&json::parse(&read(format!("m{c}.json"))?)?),
            );
        }
        if latencies_ms.len() - first != qs.len() {
            return Err(format!(
                "process {c}: {} latencies for {} queries",
                latencies_ms.len() - first,
                qs.len()
            ));
        }
        chunk_list.push(Chunk {
            queries: qs.len(),
            wall_s: wall,
            cpu_s: cpu,
            latencies: first..latencies_ms.len(),
        });
    }
    let queries = files.concat();
    Ok(Phase { queries, hits, latencies_ms, wall_s, chunks: chunk_list, rss_mb, counters: totals })
}

fn p(values: &[f64], q: f64) -> f64 {
    nearest_rank(values, q).map(|p| p.value).unwrap_or(0.0)
}

pub fn run(ctx: &Ctx, spec: &BatchSpec, g: &Graph, report: &mut Report) -> Result<(), String> {
    let (pool, recall_subset) = chunks(spec, g, ctx.seconds);
    let main = if ctx.trace {
        // Half the time each: untraced, then traced, on the same order.
        let plain = phase(ctx, spec, &pool, false, ctx.seconds / 2.0)?;
        let traced = phase(ctx, spec, &pool, true, ctx.seconds / 2.0)?;
        println!("traced run: {} queries untraced, {} traced", plain.queries.len(), traced.queries.len());
        report_layers(spec, &traced, p(&traced.latencies_ms, 0.5) - p(&plain.latencies_ms, 0.5), report);
        traced
    } else {
        phase(ctx, spec, &pool, false, ctx.seconds)?
    };
    let n = main.queries.len();
    report.attempted += n as u64;
    if !ctx.trace {
        // Each figure is the median over the run's batch-query processes,
        // so a burst of CPU steal on a shared host moves one process's
        // numbers, not the run's.
        let k = main.chunks.len();
        println!(
            "end-to-end (median over {k} batch-query processes of {} queries, {n} queries):",
            spec.chunk
        );
        let per_chunk = |f: &dyn Fn(&Chunk) -> f64| median(&main.chunks.iter().map(f).collect::<Vec<_>>());
        let lat = |c: &Chunk, q: f64| p(&main.latencies_ms[c.latencies.clone()], q);
        report.e2e("throughput_qps", "queries/s", per_chunk(&|c| c.queries as f64 / c.wall_s), n);
        report.e2e("p50_ms", "ms", per_chunk(&|c| lat(c, 0.5)), n);
        report.e2e("p90_ms", "ms", per_chunk(&|c| lat(c, 0.9)), n);
        report.e2e("cpu_ms_per_query", "ms", per_chunk(&|c| c.cpu_s * 1e3 / c.queries as f64), n);
        report.e2e("peak_rss_mb", "MB", main.rss_mb, k);
    }
    check(ctx, spec, g, &main, &recall_subset, report)
}

fn report_layers(spec: &BatchSpec, traced: &Phase, overhead_ms: f64, report: &mut Report) {
    let n = traced.queries.len();
    let layers = counters::query_layers(&traced.counters);
    println!("per-layer (engine, per query):");
    counters::record(report, &layers, n);
    let stage = |name: &str| layers.iter().find(|(k, _)| k == name).map(|(_, v)| *v).unwrap_or(0.0);
    let e2e = traced.wall_s * 1e3 / n as f64;
    // The engine's measured latency, of which the stages and the engine
    // residual are parts.
    let engine = counters::mean_latency_ms(&traced.counters);
    println!("residual accounting (ms per query, sums to end-to-end wall / queries = {e2e:.4}):");
    let rows = [
        ("process spawn + snapshot load + output", e2e - engine),
        ("stage:enumerate", stage("query.enumerate_ms")),
        ("stage:bounds", stage("query.bounds_ms")),
        ("stage:scan", stage("query.scan_ms")),
        ("stage:collect", stage("query.collect_ms")),
        ("unattributed engine residual", stage("query.residual_ms")),
    ];
    for (name, v) in rows {
        println!("  {name:<40} {v:>10.4}  {:>5.1}%", 100.0 * v / e2e);
    }
    let share = spec.dominant.iter().map(|s| stage(s)).sum::<f64>() / engine.max(1e-12);
    println!(
        "traffic check: {} take {:.1}% of engine time (must exceed half): {}",
        spec.dominant.join(" + "),
        100.0 * share,
        if share > 0.5 { "PASS" } else { "FAIL" }
    );
    report.layer("trace.overhead_ms", "ms", overhead_ms, n);
}

/// Answer checks, off the clock:
/// 1. the timed answers are byte-equal to a rerun on two threads with
///    wave batching off (the bit-identity contract);
/// 2. `srs serve` answers the same vertices byte-equal to `batch-query`
///    with the server's (default) options, both from the engine and
///    from its result cache;
/// 3. recall@20 against the exact solver.
fn check(
    ctx: &Ctx,
    spec: &BatchSpec,
    g: &Graph,
    main: &Phase,
    recall_subset: &[u32],
    report: &mut Report,
) -> Result<(), String> {
    let list: Vec<u32> = main.queries.iter().copied().take(CHECK_QUERIES).collect();
    let vertices = list.iter().map(u32::to_string).collect::<Vec<_>>().join(",");
    let base = ["batch-query", "--snapshot", "g.srs", "--k", "20", "--vertices", &vertices];
    let mut rerun: Vec<String> = base.iter().map(|s| s.to_string()).collect();
    rerun.extend(["--threads", "2", "--wave-width", "1", "--hits-out", "inv.txt"].map(String::from));
    rerun.extend(option_args(spec));
    srs::run(ctx.srs, ctx.dir, &rerun.iter().map(String::as_str).collect::<Vec<_>>())?;
    let inv =
        srs::parse_hits_file(&std::fs::read_to_string(ctx.dir.join("inv.txt")).map_err(|e| e.to_string())?);
    // A rerun that answered fewer vertices than asked mismatches too.
    let mut mismatched = list.len().saturating_sub(inv.len()) as u64;
    for (v, rest) in &inv {
        if main.hits.get(v) != Some(rest) {
            mismatched += 1;
        }
    }
    let reference: HashMap<u32, String> = if spec.ball.is_none() {
        list.iter().map(|v| (*v, main.hits[v].clone())).collect()
    } else {
        let mut args: Vec<&str> = base.to_vec();
        args.extend(["--threads", "1", "--hits-out", "ref.txt"]);
        srs::run(ctx.srs, ctx.dir, &args)?;
        srs::parse_hits_file(&std::fs::read_to_string(ctx.dir.join("ref.txt")).map_err(|e| e.to_string())?)
            .into_iter()
            .collect()
    };
    let (server, _) = Server::start(ctx.srs, ctx.dir, "g.srs", ctx.trace)?;
    let before = crate::serve::scrape(&server.addr)?;
    let mut conn = Conn::connect(&server.addr).map_err(|e| e.to_string())?;
    let mut rtts = HashMap::new();
    let mut served = 0;
    for (i, v) in list.iter().chain(list.iter()).enumerate() {
        let id = (i as u64 + 1) * 0x9e37_79b9;
        let headers = if ctx.trace { vec![("x-srs-trace-id", format!("{id:016x}"))] } else { vec![] };
        let t = Instant::now();
        let answer = conn.request("GET", &format!("/query?u={v}"), &headers, b"");
        rtts.insert(id, t.elapsed().as_secs_f64() * 1e9);
        served += 1;
        match answer {
            Ok((200, body))
                if crate::serve::served_hits(&body).map(|(_, h)| h).as_ref() == reference.get(v) => {}
            _ => mismatched += 1,
        }
    }
    report.attempted += (inv.len() + served) as u64;
    report.mismatches += mismatched;
    report.failed += mismatched;
    println!(
        "answer check: {} reruns (2 threads, wave width 1) + {served} served answers vs batch-query: {mismatched} mismatches",
        inv.len()
    );
    if ctx.trace {
        let after = crate::serve::scrape(&server.addr)?;
        let mut traces = HashMap::new();
        sweep_traces(&server.addr, &mut traces);
        println!("per-layer (server, from the {served} answer-check requests):");
        crate::online::server_layers(&counters::delta(&before, &after), &traces, &rtts, report);
        crate::online::probe_ingest(ctx, g, &server.addr, report)?;
    }
    drop(conn);
    server.stop()?;
    let answers: Vec<(u32, Vec<u32>)> =
        recall_subset.iter().filter_map(|v| Some((*v, srs::hit_vertices(main.hits.get(v)?)))).collect();
    crate::online::score_recall(ctx, g, &answers, report);
    Ok(())
}

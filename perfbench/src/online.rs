//! Serve workloads: `srs serve --threads 1` under the open-loop
//! generator, with optional online ingest beside the reads.

use crate::counters::{self, Counters};
use crate::inputs::{edit_batches, sub_seed, Popularity, Rng};
use crate::report::Report;
use crate::serve::{self, Conn, Plan, ReadRec, Server, TraceRec, WriteRec};
use crate::stats::{mean, median, nearest_rank};
use crate::{json, layers, procfs, srs, Ctx};
use srs_graph::Graph;
use std::collections::{BTreeMap, HashMap, HashSet};

/// A serve run whose generator's p90 lateness exceeds this did not offer
/// the load it claims; the report marks it invalid.
const LATE_LIMIT_MS: f64 = 5.0;
/// Recall@20 below this means the answers are wrong, not just noisy.
/// The engine's own recall against the θ-filtered exact top-20 sits
/// near 0.2–0.5 on these graphs: the Monte-Carlo estimates legitimately
/// miss vertices whose exact score is just above θ.
const RECALL_FLOOR: f64 = 0.05;
/// Edges per ingest batch: insertions, deletions.
const EDIT_SHAPE: (usize, usize) = (24, 8);
/// Staleness depth of every ingest: T − 1 (the server's default).
const INGEST_DEPTH: u32 = 10;
/// Distinct vertices per generation whose served answers are re-derived
/// with `batch-query`, and generations checked.
const CHECK_PER_GENERATION: usize = 60;
const CHECK_GENERATIONS: usize = 4;
/// Queries scored against the exact solver.
pub const RECALL_QUERIES: usize = 600;

pub struct ServeSpec {
    /// Zipf(1.0) reads, or uniform.
    pub zipf: bool,
    /// Offered read rate over all reader connections, requests/s.
    pub rate: f64,
    pub readers: usize,
    /// Seconds between ingest batches on the writer connection.
    pub edit_period: Option<f64>,
    /// Reads sent closed-loop before the measured phase, so the result
    /// cache starts in its steady state.
    pub warmup: usize,
    /// What a traced run must see of `cache.hit_ratio`: `(bound, above)`.
    pub hit_ratio: (f64, bool),
}

struct Phase {
    reads: Vec<ReadRec>,
    writes: Vec<WriteRec>,
    traces: HashMap<u64, TraceRec>,
    wall_s: f64,
    /// Server CPU seconds over the measured phase.
    cpu_s: f64,
    rss_mb: f64,
    counters: Counters,
}

/// p50 and p90 of the reads due in each one-second window of the
/// measured phase. The report gives the median window, so a burst of CPU
/// steal on a shared host moves a window or two, not the run.
fn windows(ph: &Phase) -> Vec<(f64, f64)> {
    let end = ph.reads.iter().map(|r| r.due).fold(0.0, f64::max);
    (0..end.ceil() as usize)
        .map(|w| {
            let (from, to) = (w as f64, w as f64 + 1.0);
            let lat: Vec<f64> = ph
                .reads
                .iter()
                .filter(|r| r.status == 200 && r.due >= from && r.due < to)
                .map(|r| ms(r.done - r.due))
                .collect();
            (p(&lat, 0.5), p(&lat, 0.9))
        })
        .collect()
}

fn ms(v: f64) -> f64 {
    v * 1e3
}

fn p(values: &[f64], q: f64) -> f64 {
    nearest_rank(values, q).map(|p| p.value).unwrap_or(0.0)
}

fn latencies(reads: &[ReadRec]) -> Vec<f64> {
    reads.iter().filter(|r| r.status == 200).map(|r| ms(r.done - r.due)).collect()
}

/// The workload's edit batches. Like the graph, they define the
/// workload and do not change with `--seed`: how many rows a batch
/// dirties sets what an ingest costs, and it varies a lot from batch to
/// batch. A shorter run posts a prefix of a longer run's batches.
fn fixed_edits(g: &Graph, batches: usize) -> Vec<String> {
    edit_batches(g, batches, EDIT_SHAPE.0, EDIT_SHAPE.1, sub_seed(crate::GRAPH_SEED, "edits"))
}

/// Reads are drawn from this: Zipf over a fixed rank → vertex map, or
/// uniform.
fn popularity(spec: &ServeSpec, g: &Graph) -> Popularity {
    if spec.zipf {
        // Which vertices are hot is a property of the dataset, not of a run.
        Popularity::zipf(g.num_vertices(), 1.0, crate::GRAPH_SEED)
    } else {
        Popularity::Uniform(g.num_vertices())
    }
}

/// The fixed recall subset: the first [`RECALL_QUERIES`] distinct
/// vertices with in-links drawn from the workload's read distribution
/// with the fixed seed.
fn recall_subset(pop: &Popularity, g: &Graph) -> Vec<u32> {
    let mut rng = Rng::new(sub_seed(crate::GRAPH_SEED, "recall"));
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(RECALL_QUERIES);
    while out.len() < RECALL_QUERIES {
        let v = pop.sample(&mut rng);
        if g.in_degree(v) > 0 && seen.insert(v) {
            out.push(v);
        }
    }
    out
}

pub fn run(ctx: &Ctx, spec: &ServeSpec, g: &Graph, report: &mut Report) -> Result<(), String> {
    let batches = match spec.edit_period {
        Some(period) => (ctx.seconds / period).ceil() as usize + 1,
        None => 0,
    };
    let edits = fixed_edits(g, batches);
    if ctx.trace {
        let (plain, first) = phase(ctx, spec, g, &edits, false, ctx.seconds / 2.0, report)?;
        first.stop()?;
        let (traced, server) = phase(ctx, spec, g, &edits, true, ctx.seconds / 2.0, report)?;
        println!("traced run: {} reads untraced, {} traced", plain.reads.len(), traced.reads.len());
        let overhead = p(&latencies(&traced.reads), 0.5) - p(&latencies(&plain.reads), 0.5);
        traced_layers(ctx, spec, g, &traced, &edits, server, report)?;
        report.layer("trace.overhead_ms", "ms", overhead, traced.reads.len());
        summary(&traced, report);
    } else {
        let (main, server) = phase(ctx, spec, g, &edits, false, ctx.seconds, report)?;
        server.stop()?;
        summary(&main, report);
        let ok = main.reads.iter().filter(|r| r.status == 200).count();
        let win = windows(&main);
        let per_window = |f: &dyn Fn(&(f64, f64)) -> f64| median(&win.iter().map(f).collect::<Vec<_>>());
        println!(
            "end-to-end (open loop, {} req/s over {} connections; median of {} one-second windows, {ok} reads):",
            spec.rate,
            spec.readers,
            win.len()
        );
        report.e2e("throughput_qps", "queries/s", ok as f64 / main.wall_s.max(1e-9), ok);
        report.e2e("p50_ms", "ms", per_window(&|w| w.0), ok);
        report.e2e("p90_ms", "ms", per_window(&|w| w.1), ok);
        // CPU time comes in 10 ms ticks and excludes steal; summed over
        // the whole phase it is precise to about 1%.
        report.e2e("cpu_ms_per_query", "ms", ms(main.cpu_s) / ok.max(1) as f64, ok);
        report.e2e("peak_rss_mb", "MB", main.rss_mb, 1);
    }
    Ok(())
}

/// Counts attempts and failures; prints ingest latency and generator
/// lateness.
fn summary(ph: &Phase, report: &mut Report) {
    let bad_reads = ph.reads.iter().filter(|r| r.status != 200).count();
    let bad_writes = ph.writes.iter().filter(|w| w.status != 200).count();
    report.attempted += (ph.reads.len() + ph.writes.len()) as u64;
    report.failed += (bad_reads + bad_writes) as u64;
    let late: Vec<f64> = ph.reads.iter().map(|r| ms(r.sent - r.due)).collect();
    let late_p90 = p(&late, 0.9);
    let refused = ph.reads.iter().filter(|r| r.status == 503).count();
    println!(
        "reads {} ({} non-200, {refused} refused), ingests {} ({} non-200)",
        ph.reads.len(),
        bad_reads,
        ph.writes.len(),
        bad_writes
    );
    if !ph.writes.is_empty() {
        let ingest: Vec<f64> =
            ph.writes.iter().filter(|w| w.status == 200).map(|w| ms(w.done - w.sent)).collect();
        println!("ingest_p50_ms      {:.4} ms (n={})", p(&ingest, 0.5), ingest.len());
    }
    report.generator_late = late_p90 > LATE_LIMIT_MS;
    report.note("loadgen.late_p90_ms", "ms", late_p90, late.len());
    println!(
        "open-loop run {}",
        if report.generator_late { "INVALID: the generator ran late" } else { "valid" }
    );
}

fn phase(
    ctx: &Ctx,
    spec: &ServeSpec,
    g: &Graph,
    edits: &[String],
    traced: bool,
    seconds: f64,
    report: &mut Report,
) -> Result<(Phase, Server), String> {
    let (server, _) = Server::start(ctx.srs, ctx.dir, "g.srs", traced)?;
    let pop = popularity(spec, g);
    let per_conn = (seconds * spec.rate / spec.readers as f64).ceil() as usize + 1;
    let streams: Vec<Vec<u32>> = (0..spec.readers)
        .map(|c| {
            let mut rng = Rng::new(sub_seed(ctx.seed, &format!("reads{c}")));
            (0..per_conn).map(|_| pop.sample(&mut rng)).collect()
        })
        .collect();
    warm_up(&server.addr, &pop, spec, ctx.seed)?;
    let before = serve::scrape(&server.addr)?;
    let plan = Plan {
        addr: &server.addr,
        seconds,
        rate: spec.rate,
        streams: &streams,
        edits,
        edit_period: spec.edit_period.unwrap_or(f64::INFINITY),
        traced,
        server_pid: server.pid(),
    };
    let serve::Driven { reads, writes, traces, cpu_s } = serve::drive(&plan);
    if !cpu_s.is_finite() {
        return Err("server /proc/<pid>/stat unreadable".into());
    }
    let rss_mb = procfs::vm_hwm_mb(server.pid()).unwrap_or(0.0);
    let after = serve::scrape(&server.addr)?;
    // The phase ends with its last answer: below saturation that is just
    // after the last due time, under overload it is later.
    let last = reads.iter().map(|r| r.done).fold(0.0, f64::max);
    let ph = Phase {
        reads,
        writes,
        traces,
        wall_s: last,
        cpu_s,
        rss_mb,
        counters: counters::delta(&before, &after),
    };
    check(ctx, g, &pop, &ph, edits, &server, report)?;
    Ok((ph, server))
}

/// Fills the result cache with reads drawn like the measured ones, on
/// the same number of connections, each waiting for its answer.
fn warm_up(addr: &str, pop: &Popularity, spec: &ServeSpec, seed: u64) -> Result<(), String> {
    let per_conn = spec.warmup.div_ceil(spec.readers);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..spec.readers)
            .map(|c| {
                s.spawn(move || -> Result<(), String> {
                    let mut rng = Rng::new(sub_seed(seed, &format!("warm{c}")));
                    let mut conn = Conn::connect(addr).map_err(|e| e.to_string())?;
                    for _ in 0..per_conn {
                        let v = pop.sample(&mut rng);
                        match conn.request("GET", &format!("/query?u={v}"), &[], b"") {
                            Ok((200, _)) => {}
                            other => return Err(format!("warm-up read of {v} failed: {other:?}")),
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles.into_iter().try_for_each(|h| h.join().expect("warm-up thread panicked"))
    })
}

/// Generation → the delta files that produce it, from the ingest replies.
fn chains(writes: &[WriteRec]) -> BTreeMap<u64, Vec<String>> {
    let mut out = BTreeMap::from([(1u64, Vec::new())]);
    let mut chain = Vec::new();
    for w in writes.iter().filter(|w| w.status == 200) {
        let Ok(doc) = json::parse(&w.body) else { continue };
        if let (Some(generation), Some(path)) = (
            doc.get("generation").and_then(json::Value::as_f64),
            doc.get("delta").and_then(json::Value::as_str),
        ) {
            chain.push(path.to_string());
            out.insert(generation as u64, chain.clone());
        }
    }
    out
}

/// Answer checks, off the clock: served answers are byte-equal to
/// `batch-query` on the same snapshot and delta chain, and recall@20 of
/// the fixed subset, asked of the server after the phase, against the
/// exact solver on the graph the server then holds.
fn check(
    ctx: &Ctx,
    g: &Graph,
    pop: &Popularity,
    ph: &Phase,
    edits: &[String],
    server: &Server,
    report: &mut Report,
) -> Result<(), String> {
    let chain = chains(&ph.writes);
    let mut by_gen: BTreeMap<u64, Vec<(u32, String)>> = BTreeMap::new();
    for r in ph.reads.iter().filter(|r| r.status == 200) {
        if let Some((generation, hits)) = serve::served_hits(&r.body) {
            let list = by_gen.entry(generation).or_default();
            if list.len() < CHECK_PER_GENERATION && !list.iter().any(|(v, _)| *v == r.vertex) {
                list.push((r.vertex, hits));
            }
        }
    }
    let gens: Vec<u64> = by_gen.keys().copied().collect();
    let picked: Vec<u64> = if gens.len() <= CHECK_GENERATIONS {
        gens
    } else {
        (0..CHECK_GENERATIONS).map(|i| gens[i * (gens.len() - 1) / (CHECK_GENERATIONS - 1)]).collect()
    };
    let mut checked = 0;
    let mut mismatched = 0;
    for generation in picked {
        let served = &by_gen[&generation];
        let Some(deltas) = chain.get(&generation) else {
            report.problem(format!("answers tagged generation {generation}, which no ingest reply produced"));
            continue;
        };
        let vertices = served.iter().map(|(v, _)| v.to_string()).collect::<Vec<_>>().join(",");
        let joined = deltas.join(",");
        let mut args = vec![
            "batch-query",
            "--snapshot",
            "g.srs",
            "--threads",
            "1",
            "--k",
            "20",
            "--vertices",
            &vertices,
        ];
        if !deltas.is_empty() {
            args.extend(["--deltas", &joined]);
        }
        args.extend(["--hits-out", "ref.txt"]);
        srs::run(ctx.srs, ctx.dir, &args)?;
        let reference: HashMap<u32, String> = srs::parse_hits_file(
            &std::fs::read_to_string(ctx.dir.join("ref.txt")).map_err(|e| e.to_string())?,
        )
        .into_iter()
        .collect();
        for (v, hits) in served {
            checked += 1;
            if reference.get(v) != Some(hits) {
                mismatched += 1;
            }
        }
    }
    report.mismatches += mismatched;
    report.failed += mismatched;
    println!(
        "answer check: {checked} served answers vs batch-query on the same chain: {mismatched} mismatches"
    );

    // Recall on the graph the server holds now.
    let applied: Vec<String> =
        ph.writes.iter().zip(edits).filter(|(w, _)| w.status == 200).map(|(_, e)| e.clone()).collect();
    let now = if applied.is_empty() { g.clone() } else { layers::apply_all(g, &applied) };
    let mut answers = Vec::with_capacity(RECALL_QUERIES);
    let mut conn = Conn::connect(&server.addr).map_err(|e| e.to_string())?;
    for v in recall_subset(pop, &now) {
        match conn.request("GET", &format!("/query?u={v}"), &[], b"") {
            Ok((200, body)) => {
                let hits = serve::served_hits(&body).map(|(_, h)| h).unwrap_or_default();
                answers.push((v, srs::hit_vertices(&hits)));
            }
            other => return Err(format!("recall query for {v} failed: {other:?}")),
        }
    }
    score_recall(ctx, &now, &answers, report);
    Ok(())
}

/// Scores recall@20 and flags answers below the floor.
pub fn score_recall(ctx: &Ctx, g: &Graph, answers: &[(u32, Vec<u32>)], report: &mut Report) {
    let (recall, scored) = layers::recall(g, answers, 20);
    if !ctx.trace {
        report.e2e("recall_at_20", "ratio", recall, scored);
    } else {
        println!("recall_at_20 {recall:.4} (n={scored})");
    }
    if recall < RECALL_FLOOR {
        report.problem(format!("recall@20 {recall:.3} is below {RECALL_FLOOR}"));
    }
}

/// Server-side per-layer metrics from a `/metrics` delta and the traces
/// matched to client round trips (`rtt_ns` by trace ID).
pub fn server_layers(
    delta: &Counters,
    traces: &HashMap<u64, TraceRec>,
    rtt_ns: &HashMap<u64, f64>,
    report: &mut Report,
) {
    let matched: Vec<(f64, &TraceRec)> =
        rtt_ns.iter().filter_map(|(id, rtt)| Some((*rtt, traces.get(id)?))).collect();
    let n = matched.len();
    let avg = |f: &dyn Fn(&(f64, &TraceRec)) -> f64| mean(&matched.iter().map(f).collect::<Vec<_>>()) / 1e6;
    let rtt = avg(&|m| m.0);
    let request = avg(&|m| m.1.request);
    report.layer("server.rtt_ms", "ms", rtt, n);
    report.layer("server.request_ms", "ms", request, n);
    report.layer("server.queue_linger_ms", "ms", avg(&|m| m.1.queue_linger), n);
    report.layer("server.wave_exec_ms", "ms", avg(&|m| m.1.wave_exec), n);
    report.layer("server.io_ms", "ms", rtt - request, n);
    counters::record(report, &counters::server_layers(delta), n);
}

/// For a workload without writes: posts one generated edit batch to the
/// server at `addr` and reports the ingest layers for it.
pub fn probe_ingest(ctx: &Ctx, g: &Graph, addr: &str, report: &mut Report) -> Result<(), String> {
    let edits = fixed_edits(g, 1);
    let mut conn = Conn::connect(addr).map_err(|e| e.to_string())?;
    let t = std::time::Instant::now();
    let posted = conn.request("POST", "/admin/ingest", &[], edits[0].as_bytes());
    let http_ms = ms(t.elapsed().as_secs_f64());
    if !matches!(posted, Ok((200, _))) {
        report.problem(format!("POST /admin/ingest failed: {posted:?}"));
    }
    ingest_layers(ctx, &edits, &[http_ms], report);
    Ok(())
}

/// Replays `edits` through the ingest layers in-process and reports them
/// next to the HTTP ingest times the server showed for the same batches.
fn ingest_layers(ctx: &Ctx, edits: &[String], http_ms: &[f64], report: &mut Report) {
    let timings = layers::ingest(&ctx.dir.join("g.srs"), edits, INGEST_DEPTH);
    let n = timings.len();
    let apply = median(&timings.iter().map(|t| t.apply_ms).collect::<Vec<_>>());
    let extend = median(&timings.iter().map(|t| t.extend_ms).collect::<Vec<_>>());
    let encode = median(&timings.iter().map(|t| t.encode_ms).collect::<Vec<_>>());
    let dirty: Vec<f64> = timings.iter().map(|t| t.dirty_rows as f64).collect();
    println!("per-layer (ingest, {n} batches replayed in-process, depth {INGEST_DEPTH}):");
    report.layer("ingest.apply_ms", "ms", apply, n);
    report.layer("ingest.extend_ms", "ms", extend, n);
    report.layer("ingest.encode_ms", "ms", encode, n);
    report.layer("ingest.dirty_rows", "count", median(&dirty), n);
    report.layer("ingest.swap_residual_ms", "ms", median(http_ms) - apply - extend - encode, http_ms.len());
    let min_dirty = dirty.iter().copied().fold(f64::INFINITY, f64::min);
    println!(
        "traffic check: every ingest batch leaves dirty rows (min {min_dirty}): {}",
        if min_dirty > 0.0 { "PASS" } else { "FAIL" }
    );
    if min_dirty <= 0.0 {
        report.problem("an ingest batch left no dirty rows".to_string());
    }
}

fn traced_layers(
    ctx: &Ctx,
    spec: &ServeSpec,
    g: &Graph,
    ph: &Phase,
    edits: &[String],
    server: Server,
    report: &mut Report,
) -> Result<(), String> {
    let ok: Vec<&ReadRec> = ph.reads.iter().filter(|r| r.status == 200).collect();
    println!("per-layer (engine; times and walk steps per computed query, counts per answered read):");
    counters::record(
        report,
        &counters::query_layers(&ph.counters),
        counters::computed_queries(&ph.counters) as usize,
    );
    println!("per-layer (server, per answered read):");
    let rtts: HashMap<u64, f64> = ok.iter().map(|r| (r.trace_id, (r.done - r.sent) * 1e9)).collect();
    server_layers(&ph.counters, &ph.traces, &rtts, report);
    // Residual accounting per answered read: the engine stages are
    // spread over all reads (cache hits run none).
    let get = |name: &str| report.per_layer.iter().find(|m| m.name == name).map(|m| m.value).unwrap_or(0.0);
    let stages_per_read: f64 =
        counters::STAGES.iter().map(|s| counters::stage_ns(&ph.counters, s)).sum::<f64>()
            / ok.len().max(1) as f64
            / 1e6;
    let rtt = get("server.rtt_ms");
    println!("residual accounting (ms per answered read, sums to client round trip = {rtt:.4}):");
    let rows = [
        ("client + socket I/O (rtt - request span)", get("server.io_ms")),
        ("queue_linger", get("server.queue_linger_ms")),
        ("engine stages (enumerate+bounds+scan+collect)", stages_per_read),
        (
            "unattributed (parse, cache, dispatch, JSON)",
            get("server.request_ms") - get("server.queue_linger_ms") - stages_per_read,
        ),
    ];
    for (name, v) in rows {
        println!("  {name:<48} {v:>10.4}  {:>5.1}%", 100.0 * v / rtt.max(1e-12));
    }
    let hit = get("cache.hit_ratio");
    let (bound, above) = spec.hit_ratio;
    println!(
        "traffic check: cache.hit_ratio {hit:.3} (must be {} {bound}): {}",
        if above { "above" } else { "below" },
        if (hit > bound) == above { "PASS" } else { "FAIL" }
    );
    if ph.writes.is_empty() {
        probe_ingest(ctx, g, &server.addr, report)?;
    } else {
        let applied: Vec<String> =
            ph.writes.iter().zip(edits).filter(|(w, _)| w.status == 200).map(|(_, e)| e.clone()).collect();
        let http: Vec<f64> =
            ph.writes.iter().filter(|w| w.status == 200).map(|w| ms(w.done - w.sent)).collect();
        ingest_layers(ctx, &applied, &http, report);
    }
    server.stop()
}

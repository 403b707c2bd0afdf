//! Subcommand implementations. Each returns its stdout text so the logic
//! is unit-testable without spawning processes.

use crate::args::{Args, CliError};
use srs_graph::{datasets, gen, io, stats, Graph};
use srs_obs::Progress;
use srs_search::obs::STAGE_SPANS;
use srs_search::{
    persist, snapshot, BuildObs, Dataset, Estimator, QueryOptions, ServingEngine, ServingMetrics,
    SimRankParams, SnapshotInfo, TopKIndex, TopKResult,
};
use std::fmt::Write as _;
use std::path::Path;

/// Usage text printed after argument errors.
pub const USAGE: &str = "\
usage:
  srs generate   --dataset NAME --scale X --out FILE [--seed S]
  srs generate   --family web|social|collab|er --n N [--deg D] --out FILE [--seed S]
  srs convert    --in FILE --out FILE
  srs stats      --graph FILE
  srs preprocess --graph FILE --index FILE [--c 0.6] [--t 11] [--seed S] [--progress]
                 [--reorder bfs|degree --graph-out FILE [--map-out FILE]]
  srs pack       --graph FILE --index FILE --out FILE.srs [--shards N]
  srs query      {--snapshot FILE.srs | --graph FILE --index FILE} --vertex V [--k 20]
                 [--estimator head|sampled] [--ball R] [--theta X] [--wave-width W]
                 [--explain]
  srs batch-query {--snapshot FILE.srs [--deltas D1,D2,...]
                  [--mmap [--verify-on-load] [--prefault]] | --graph FILE --index FILE}
                 [--vertices 1,2,3 | --queries N|FILE|- [--seed S]]
                 [--k 20] [--threads T] [--estimator head|sampled] [--ball R]
                 [--theta X] [--wave-width W] [--metrics-out FILE] [--hits-out FILE]
                 [--trace-out FILE.json]
  srs serve      --snapshot FILE.srs [--deltas D1,D2,...] [--staleness-depth N]
                 [--mmap [--verify-on-load] [--prefault]]
                 [--addr 127.0.0.1:7171] [--threads T] [--max-batch 64]
                 [--queue 1024] [--cache 4096] [--k 20]
                 [--read-timeout-s 60] [--max-conns 1024]
                 [--trace-sample N] [--slow-query-ms T]
  srs delta      --snapshot FILE.srs [--deltas D1,D2,...] --edits FILE|- --out FILE.d
                 [--staleness-depth N] [--threads T]
  srs ingest     --addr HOST:PORT --edits FILE|- [--depth N]
  srs compact    --snapshot FILE.srs --deltas D1,D2,... --out FILE.srs
  srs loadgen    --addr HOST:PORT [--rate 200] [--duration-s 2 | --requests N] [--k 20]
                 [--zipf 1.0] [--connections 4] [--seed S] [--slow N]
                 [--sweep R1,R2,... [--sweep-out FILE.json]]
  srs topk-all   {--snapshot FILE.srs | --graph FILE --index FILE} [--k 20] [--out FILE]
  srs exact      --graph FILE --vertex V [--k 20] [--c 0.6] [--t 11]
  srs validate   --graph FILE --index FILE [--k 20] [--queries 50] [--seed S]
  srs reorder    --in FILE --out FILE [--by bfs|degree]
  srs walk-bench --graph FILE [--walks N] [--t T] [--seed S]
  srs help

options:
  --estimator E  how a query scores: `head` (default) reports the exact
                 two-step head, a certified lower bound on the score, from
                 one sparse push; `sampled` runs the paper's Algorithm 5
  --ball R       (sampled) also treat every vertex within undirected
                 distance R of the query as a candidate; R above the
                 index's d_max (T by default) acts as d_max, since the
                 query BFS never looks farther. The head accepts it and is
                 unchanged: a ball member outside its support scores 0
  --wave-width W (sampled) candidates per walk wave; answers are identical
                 at every width";

/// Parses and runs one invocation, returning its stdout.
pub fn dispatch(argv: &[String]) -> Result<String, CliError> {
    if argv.is_empty() || argv[0] == "help" || argv[0] == "--help" {
        return Ok(format!("{USAGE}\n"));
    }
    let args = Args::parse(argv)?;
    match args.command.as_str() {
        "generate" => generate(&args),
        "convert" => convert(&args),
        "stats" => graph_stats(&args),
        "preprocess" => preprocess(&args),
        "pack" => pack(&args),
        "query" => query(&args),
        "batch-query" => batch_query(&args),
        "serve" => serve(&args),
        "delta" => delta(&args),
        "ingest" => ingest(&args),
        "compact" => compact(&args),
        "loadgen" => loadgen(&args),
        "topk-all" => topk_all(&args),
        "exact" => exact(&args),
        "validate" => validate(&args),
        "reorder" => reorder(&args),
        "walk-bench" => walk_bench(&args),
        other => Err(CliError::usage(format!("unknown subcommand `{other}`"))),
    }
}

/// Loads a graph, auto-detecting the format: section bundle (also how
/// snapshots start) or text edge list. Any other `SRS` binary magic is a
/// format error from the bundle reader, never an edge-list parse.
pub fn load_graph(path: &Path) -> Result<Graph, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    if bytes.starts_with(b"SRS") {
        io::read_binary(&bytes[..]).map_err(|e| format!("{}: {e}", path.display()))
    } else {
        io::read_edge_list(&bytes[..]).map_err(|e| format!("{}: {e}", path.display()))
    }
}

fn save_graph(g: &Graph, path: &Path) -> Result<(), String> {
    let f = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let w = std::io::BufWriter::new(f);
    if path.extension().is_some_and(|e| e == "txt" || e == "edges" || e == "tsv") {
        io::write_edge_list(g, w).map_err(|e| e.to_string())
    } else {
        io::write_binary(g, w).map_err(|e| e.to_string())
    }
}

fn generate(args: &Args) -> Result<String, CliError> {
    args.ensure_known(&["dataset", "scale", "family", "n", "deg", "out", "seed"])?;
    let seed: u64 = args.get_or("seed", 42)?;
    let out = Path::new(args.req("out")?);
    let g = if let Some(name) = args.opt("dataset") {
        let spec = datasets::by_name(name)
            .ok_or_else(|| CliError::usage(format!("unknown dataset `{name}`; see `srs help` / Table 2")))?;
        let scale: f64 = args.get_or("scale", 0.05)?;
        spec.generate(scale, seed)
    } else {
        let family = args.req("family")?;
        let n: u32 = args.get_req("n")?;
        let deg: u32 = args.get_or("deg", 5)?;
        match family {
            "web" => gen::copying_web(n, deg, 0.8, seed),
            "social" => {
                let window = ((n as usize * deg as usize * 2) / 100).max(100);
                gen::preferential_attachment_windowed(n, deg, window, seed)
            }
            "collab" => gen::collaboration(n, deg.div_ceil(2).max(1), 0.5, seed),
            "er" => gen::erdos_renyi(n, n as u64 * deg as u64, seed),
            other => return Err(CliError::usage(format!("unknown family `{other}` (web|social|collab|er)"))),
        }
    };
    save_graph(&g, out)?;
    Ok(format!("generated n={} m={} -> {}\n", g.num_vertices(), g.num_edges(), out.display()))
}

fn convert(args: &Args) -> Result<String, CliError> {
    args.ensure_known(&["in", "out"])?;
    let input = Path::new(args.req("in")?);
    let output = Path::new(args.req("out")?);
    let g = load_graph(input)?;
    save_graph(&g, output)?;
    Ok(format!(
        "converted {} -> {} (n={} m={})\n",
        input.display(),
        output.display(),
        g.num_vertices(),
        g.num_edges()
    ))
}

fn graph_stats(args: &Args) -> Result<String, CliError> {
    args.ensure_known(&["graph"])?;
    let g = load_graph(Path::new(args.req("graph")?))?;
    let s = stats::degree_stats(&g);
    let (_, wcc) = srs_graph::bfs::weakly_connected_components(&g);
    let avg_dist = srs_graph::bfs::estimate_average_distance(&g, 8, 1);
    let mut out = String::new();
    let _ = writeln!(out, "vertices             {}", g.num_vertices());
    let _ = writeln!(out, "edges                {}", g.num_edges());
    let _ = writeln!(out, "mean degree          {:.2}", s.mean);
    let _ = writeln!(out, "max in / out degree  {} / {}", s.max_in, s.max_out);
    let _ = writeln!(out, "dangling in / out    {} / {}", s.dangling_in, s.dangling_out);
    let _ = writeln!(out, "weak components      {wcc}");
    let _ = writeln!(out, "avg distance (est.)  {avg_dist:.2}");
    let _ = writeln!(out, "edge locality        {:.1}", srs_graph::order::edge_locality(&g));
    let _ = writeln!(out, "csr memory           {} bytes", g.memory_bytes());
    Ok(out)
}

fn params_from(args: &Args) -> Result<SimRankParams, CliError> {
    let mut p = SimRankParams::default();
    p.c = args.get_or("c", p.c)?;
    p.t = args.get_or("t", p.t)?;
    p.d_max = p.t;
    if !(p.c > 0.0 && p.c < 1.0) {
        return Err(CliError::usage("--c must be in (0,1)"));
    }
    Ok(p)
}

fn preprocess(args: &Args) -> Result<String, CliError> {
    args.ensure_known(&["graph", "index", "c", "t", "seed", "progress", "reorder", "graph-out", "map-out"])?;
    let mut g = load_graph(Path::new(args.req("graph")?))?;
    let mut out = String::new();
    if let Some(by) = args.opt("reorder") {
        // Cache-friendly relabelling before the build. The index speaks
        // the *new* vertex ids, so the relabelled graph must be saved and
        // used for every later query against this index.
        let order = match by {
            "bfs" => srs_graph::order::bfs_order(&g),
            "degree" => srs_graph::order::degree_order(&g),
            other => return Err(CliError::usage(format!("unknown ordering `{other}` (bfs|degree)"))),
        };
        let gout = args.opt("graph-out").ok_or_else(|| {
            CliError::usage("--reorder needs --graph-out: the index refers to reordered vertex ids")
        })?;
        let before = srs_graph::order::edge_locality(&g);
        let reordered = srs_graph::order::apply_order(&g, &order);
        let after = srs_graph::order::edge_locality(&reordered.graph);
        save_graph(&reordered.graph, Path::new(gout))?;
        if let Some(map_path) = args.opt("map-out") {
            let mut map = String::from("# old_id\tnew_id\n");
            for (old, &new) in reordered.new_of.iter().enumerate() {
                let _ = writeln!(map, "{old}\t{new}");
            }
            std::fs::write(map_path, map).map_err(|e| format!("{map_path}: {e}"))?;
        }
        let _ = writeln!(
            out,
            "reordered by {by}: edge locality {before:.1} -> {after:.1}; query graph -> {gout}"
        );
        g = reordered.graph;
    } else if args.opt("graph-out").is_some() || args.opt("map-out").is_some() {
        return Err(CliError::usage("--graph-out/--map-out only make sense with --reorder"));
    }
    let params = params_from(args)?;
    let seed: u64 = args.get_or("seed", 42)?;
    let threads = std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1);
    let start = std::time::Instant::now();
    let index = if args.flag("progress") {
        // Instrumented build: a vertices/sec reporter on stderr plus
        // per-stage duration totals (summed across workers) afterwards.
        let metrics = ServingMetrics::new();
        let progress = Progress::new("preprocess", "vertices", g.num_vertices() as u64);
        let obs = BuildObs { metrics: Some(&metrics), progress: Some(&progress) };
        let index = TopKIndex::build_observed(
            &g,
            &params,
            srs_search::Diagonal::paper_default(params.c),
            seed,
            threads,
            &obs,
        );
        progress.finish();
        let _ = writeln!(out, "build stages (cpu time summed across {threads} workers):");
        for (name, h) in srs_search::obs::BUILD_STAGES.iter().zip(&metrics.build_stages) {
            let _ =
                writeln!(out, "  {name:<18} {:>8.2} s ({} observations)", h.sum() as f64 / 1e9, h.count());
        }
        index
    } else {
        TopKIndex::build(&g, &params, seed)
    };
    let elapsed = start.elapsed();
    let path = Path::new(args.req("index")?);
    let f = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    persist::save(&index, std::io::BufWriter::new(f)).map_err(|e| e.to_string())?;
    let _ = writeln!(
        out,
        "preprocess done in {:.2?}: index {} bytes ({} candidate edges) -> {}",
        elapsed,
        index.memory_bytes(),
        index.candidate_index().num_edges(),
        path.display()
    );
    Ok(out)
}

fn load_index(args: &Args) -> Result<TopKIndex, CliError> {
    let path = Path::new(args.req("index")?);
    let f = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    persist::load(std::io::BufReader::new(f)).map_err(|e| e.to_string().into())
}

/// Loads the dataset a query command serves: either one `--snapshot`
/// bundle (single bulk read, checksummed, zero-copy views) or a
/// `--graph` + `--index` file pair. Results are bit-identical either
/// way; the snapshot path additionally reports load statistics.
fn load_dataset(args: &Args) -> Result<(Dataset, Option<SnapshotInfo>), CliError> {
    if let Some(path) = args.opt("snapshot") {
        if args.opt("graph").is_some() || args.opt("index").is_some() {
            return Err(CliError::usage("--snapshot already carries graph and index; drop --graph/--index"));
        }
        let (ds, info) = Dataset::load(path).map_err(|e| format!("{path}: {e}"))?;
        Ok((ds, Some(info)))
    } else {
        let g = load_graph(Path::new(args.req("graph")?))?;
        let index = load_index(args)?;
        Ok((Dataset::new(g, index).map_err(|e| e.to_string())?, None))
    }
}

fn pack(args: &Args) -> Result<String, CliError> {
    args.ensure_known(&["graph", "index", "out", "shards"])?;
    let g = load_graph(Path::new(args.req("graph")?))?;
    let index = load_index(args)?;
    // Dataset::new checks the pair actually belongs together before the
    // mismatch gets baked into an artifact.
    let ds = Dataset::new(g, index).map_err(|e| e.to_string())?;
    let out = Path::new(args.req("out")?);
    let f = std::fs::File::create(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let w = std::io::BufWriter::new(f);
    let shards: u32 = args.get_or("shards", 1)?;
    snapshot::pack(ds.graph(), ds.index(), shards, w).map_err(|e| e.to_string())?;
    let bytes = std::fs::metadata(out).map(|m| m.len()).unwrap_or(0);
    Ok(format!(
        "packed snapshot: n={} m={} index {} bytes, {shards} shard(s) -> {} ({bytes} bytes)\n",
        ds.graph().num_vertices(),
        ds.graph().num_edges(),
        ds.index().memory_bytes(),
        out.display()
    ))
}

/// The snapshot-backend options shared by `batch-query` and `serve`.
fn load_options(args: &Args) -> Result<srs_search::LoadOptions, CliError> {
    let opts = srs_search::LoadOptions {
        mmap: args.flag("mmap"),
        verify_on_load: args.flag("verify-on-load"),
        prefault: args.flag("prefault"),
    };
    if (opts.verify_on_load || opts.prefault) && !opts.mmap {
        return Err(CliError::usage("--verify-on-load/--prefault only apply with --mmap"));
    }
    Ok(opts)
}

/// Flags `query` and `batch-query` share: the dataset source, `k`, and
/// the ones [`query_options`] reads.
const QUERY_FLAGS: &[&str] = &["graph", "index", "snapshot", "k", "estimator", "ball", "theta", "wave-width"];

/// The [`QueryOptions`] both query commands take from their flags.
fn query_options(args: &Args) -> Result<QueryOptions, CliError> {
    let estimator = match args.opt("estimator") {
        None | Some("head") => Estimator::Head,
        Some("sampled") => Estimator::Sampled,
        Some(other) => {
            return Err(CliError::usage(format!("--estimator: `{other}` is not `head` or `sampled`")))
        }
    };
    let mut opts = QueryOptions { estimator, ..Default::default() };
    if let Some(r) = args.opt("ball") {
        opts.candidate_ball = Some(r.parse::<u32>().map_err(|e| CliError::usage(format!("--ball: {e}")))?);
    }
    if let Some(t) = args.opt("theta") {
        let theta = t.parse::<f64>().map_err(|e| CliError::usage(format!("--theta: {e}")))?;
        // A NaN θ would silently admit nothing; a score is a probability.
        if !(0.0..=1.0).contains(&theta) {
            return Err(CliError::usage(format!("--theta: `{t}` is not a score in [0, 1]")));
        }
        opts.theta = Some(theta);
    }
    // Wave width only changes how the scan batches its walk work; results
    // are bit-identical at every width (1 disables batching).
    opts.wave_width = args.get_or("wave-width", opts.wave_width)?;
    Ok(opts)
}

fn query(args: &Args) -> Result<String, CliError> {
    args.ensure_known(&[QUERY_FLAGS, &["vertex", "explain"]].concat())?;
    let mut opts = query_options(args)?;
    opts.explain = args.flag("explain");
    let (ds, _) = load_dataset(args)?;
    let (g, index) = (ds.graph(), ds.index());
    let vertex: u32 = args.get_req("vertex")?;
    if vertex >= g.num_vertices() {
        return Err(format!("vertex {vertex} out of range (n = {})", g.num_vertices()).into());
    }
    let k: usize = args.get_or("k", 20)?;
    let start = std::time::Instant::now();
    let res = index.query(g, vertex, k, &opts);
    let elapsed = start.elapsed();
    let mut out = String::new();
    // The head refines nothing: its work is the edges the push scanned.
    let work = match opts.estimator {
        Estimator::Head => format!("{} push edges", res.stats.push_edges),
        Estimator::Sampled => format!("{} refine calls", res.stats.refine_calls()),
    };
    let _ = writeln!(
        out,
        "top-{k} for vertex {vertex} ({elapsed:.2?}; {} candidates, {work}):",
        res.stats.candidates
    );
    for hit in &res.hits {
        let _ = writeln!(out, "{}\t{:.6}", hit.vertex, hit.score);
    }
    if res.hits.is_empty() {
        let _ = writeln!(out, "(no vertex above threshold)");
    }
    if let Some(trace) = &res.explain {
        let _ = writeln!(out, "\n{}", trace.render());
    }
    Ok(out)
}

fn batch_query(args: &Args) -> Result<String, CliError> {
    args.ensure_known(
        &[
            QUERY_FLAGS,
            &[
                "deltas",
                "vertices",
                "queries",
                "seed",
                "threads",
                "metrics-out",
                "hits-out",
                "trace-out",
                "mmap",
                "verify-on-load",
                "prefault",
            ],
        ]
        .concat(),
    )?;
    let opts = query_options(args)?;
    let load_opts = load_options(args)?;
    let chain_paths: Vec<String> = args.get_list::<String>("deltas")?.unwrap_or_default();
    let (dataset, snap_info) = if let Some(path) = args.opt("snapshot") {
        if args.opt("graph").is_some() || args.opt("index").is_some() {
            return Err(CliError::usage("--snapshot already carries graph and index; drop --graph/--index"));
        }
        // A finite batch run drops the lazy verifier: load-time structural
        // validation already bounded every array access, and the process
        // exits before a background checksum sweep would matter.
        // `--deltas` replays a delta chain on top of the base snapshot —
        // the offline twin of `serve --deltas`, used by CI to diff
        // chain-served answers against a compacted bundle.
        let (dataset, info, _chain, _verifier) =
            srs_search::load_chain(Path::new(path), &chain_paths, &load_opts)
                .map_err(|e| format!("{path}: {e}"))?;
        (dataset, Some(info))
    } else {
        if load_opts.mmap {
            return Err(CliError::usage("--mmap requires --snapshot"));
        }
        if !chain_paths.is_empty() {
            return Err(CliError::usage("--deltas requires --snapshot"));
        }
        let g = load_graph(Path::new(args.req("graph")?))?;
        let index = load_index(args)?;
        (Dataset::new(g, index).map_err(|e| e.to_string())?, None)
    };
    let k: usize = args.get_or("k", 20)?;
    let threads: usize =
        args.get_or("threads", std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1))?;
    let graph = dataset.graph();
    let n = graph.num_vertices();
    let queries: Vec<u32> = match args.get_list::<u32>("vertices")? {
        Some(v) if v.is_empty() => return Err(CliError::usage("--vertices names no vertices")),
        Some(v) => v,
        // `--queries` is sniffed for back-compat: an integer samples that
        // many degree-weighted vertices (the original meaning), `-` reads
        // one vertex id per line from stdin, anything else is a workload
        // file of one id per line.
        None => match args.opt("queries") {
            Some("-") => {
                let mut text = String::new();
                std::io::Read::read_to_string(&mut std::io::stdin().lock(), &mut text)
                    .map_err(|e| format!("stdin: {e}"))?;
                parse_query_lines(&text, "<stdin>")?
            }
            Some(spec) if spec.parse::<usize>().is_err() => {
                let text = std::fs::read_to_string(spec).map_err(|e| format!("{spec}: {e}"))?;
                parse_query_lines(&text, spec)?
            }
            _ => {
                // No explicit list: sample a degree-weighted workload, the
                // same way the validation and experiment harnesses pick
                // queries.
                let count: usize = args.get_or("queries", 100)?;
                let seed: u64 = args.get_or("seed", 1)?;
                stats::sample_query_vertices(graph, count, seed)
            }
        },
    };
    if let Some(&bad) = queries.iter().find(|&&u| u >= n) {
        return Err(format!("vertex {bad} out of range (n = {n})").into());
    }
    let engine = ServingEngine::with_threads(dataset.clone(), threads);
    if let Some(info) = &snap_info {
        engine.metrics().record_snapshot_load(info);
    }
    let start = std::time::Instant::now();
    let batch = engine.query_batch(&queries, k, &opts);
    let elapsed = start.elapsed();
    let (t, results, lat) = (&batch.totals, &batch.results, &batch.latency);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "batch top-{k}: {} queries on {} threads in {:.2?} ({:.0} queries/s)",
        queries.len(),
        engine.threads(),
        elapsed,
        queries.len() as f64 / elapsed.as_secs_f64().max(1e-9)
    );
    if let Some(info) = &snap_info {
        let _ = writeln!(
            out,
            "snapshot         {} bytes, {} sections verified, loaded in {:.2?} \
             (read {:.2?}, checksum {:.2?}, validate {:.2?} = graph {:.2?} + index {:.2?}, residual {:.2?})",
            info.bytes,
            info.sections_verified,
            info.load_time,
            info.read_time,
            info.checksum_time,
            info.validate_time,
            info.graph_validate_time,
            info.index_validate_time(),
            info.residual_time()
        );
    }
    let _ = writeln!(out, "candidates       {}", t.candidates);
    let _ = writeln!(out, "pruned distance  {}", t.pruned_distance);
    let _ = writeln!(out, "pruned bounds    {}", t.pruned_bounds);
    let _ = writeln!(out, "pruned coarse    {}", t.pruned_coarse);
    // Under the head every candidate is scored by the push, not refined.
    let scored = match opts.estimator {
        Estimator::Head => "head scored     ",
        Estimator::Sampled => "refine calls    ",
    };
    let _ = writeln!(out, "{scored} {} ({} below θ, {} reported)", t.refine_calls(), t.refined, t.reported);
    let _ = writeln!(out, "bfs visited      {}", t.bfs_visited);
    let _ = writeln!(out, "walk steps       {}", t.walk_steps);
    let _ = writeln!(out, "zero screened    {}", t.zero_screened);
    let _ = writeln!(out, "meet sets        {}", t.meet_sets);
    let _ = writeln!(out, "head empty       {}", t.head_empty);
    let _ = writeln!(out, "push edges       {}", t.push_edges);
    let _ = writeln!(
        out,
        "latency mean {:.2?} | p50 {:.2?} | p95 {:.2?} | p99 {:.2?} | max {:.2?}",
        lat.mean, lat.p50, lat.p95, lat.p99, lat.max
    );
    let hits: usize = results.iter().map(|r| r.hits.len()).sum();
    let _ = writeln!(out, "hits             {} ({:.1} per query)", hits, hits as f64 / queries.len() as f64);
    if batch.deduped > 0 {
        let _ = writeln!(out, "deduped          {} (answered once, copied)", batch.deduped);
    }
    if let Some(path) = args.opt("hits-out") {
        // One line per query, input order: `vertex<TAB>hit:score...`.
        // Scores use shortest-roundtrip formatting, so two runs produce
        // byte-identical files iff their results are bit-identical — the
        // file is a determinism witness (CI diffs it across wave widths),
        // not just a report.
        let mut body = String::new();
        for (u, res) in queries.iter().zip(results) {
            let _ = write!(body, "{u}");
            for h in &res.hits {
                let _ = write!(body, "\t{}:{}", h.vertex, h.score);
            }
            body.push('\n');
        }
        std::fs::write(path, body).map_err(|e| format!("{path}: {e}"))?;
        let _ = writeln!(out, "hits -> {path}");
    }
    if let Some(path) = args.opt("trace-out") {
        let json = chrome_trace_export(&queries, results, k, engine.threads());
        std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
        let _ = writeln!(out, "chrome trace ({} queries) -> {path}", queries.len());
    }
    if let Some(path) = args.opt("metrics-out") {
        let snap = engine.metrics().snapshot();
        let text = if Path::new(path).extension().is_some_and(|e| e == "prom" || e == "txt") {
            snap.to_prometheus()
        } else {
            snap.to_json()
        };
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
        let _ = writeln!(out, "metrics -> {path}");
    }
    Ok(out)
}

/// Renders a batch's per-query stage timings as Chrome trace-event JSON
/// (open with `chrome://tracing` or Perfetto). Each query becomes a root
/// `query` slice with one child slice per engine stage; `tid` is the
/// worker chunk that served it (`query_batch` splits the input into
/// ⌈n/threads⌉ contiguous chunks), so lanes show the actual parallel
/// layout. Slice *durations* are the measured stage timings; the offsets
/// tile queries sequentially per lane, which loses inter-query idle gaps
/// but keeps every slice visible and ordered.
fn chrome_trace_export(queries: &[u32], results: &[TopKResult], k: usize, threads: usize) -> String {
    let per = queries.len().div_ceil(threads.max(1)).max(1);
    let ids = srs_obs::TraceIdGen::with_seed(0x7472_6163);
    let mut cursors = vec![0u64; threads.max(1)];
    let mut traces: Vec<(srs_obs::Trace, u64)> = Vec::with_capacity(queries.len());
    for (i, (&u, res)) in queries.iter().zip(results).enumerate() {
        let tid = (i / per).min(cursors.len() - 1);
        let at = cursors[tid];
        let total = res.timings.total_ns().max(1);
        let mut tr = srs_obs::Trace::new(ids.next_id());
        let root = tr.push_span("query", at, total, None);
        tr.attr(root, "vertex", srs_obs::AttrValue::U64(u as u64));
        tr.attr(root, "k", srs_obs::AttrValue::U64(k as u64));
        let mut child_at = at;
        // Child slices are named like the server's stage spans, so one
        // Perfetto query matches slices from both exporters.
        for (name, &dur) in STAGE_SPANS.iter().zip(&res.timings.stages) {
            if dur > 0 {
                tr.push_span(name, child_at, dur, Some(root));
                child_at += dur;
            }
        }
        cursors[tid] = at + total;
        traces.push((tr, tid as u64));
    }
    srs_obs::chrome_trace_json(traces.iter().map(|(t, tid)| (t, *tid)), std::process::id() as u64)
}

/// Parses a query-workload file: one vertex id per line, blank lines and
/// `#` comments skipped.
fn parse_query_lines(text: &str, source: &str) -> Result<Vec<u32>, String> {
    let mut ids = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let id: u32 =
            line.parse().map_err(|_| format!("{source}:{}: `{line}` is not a vertex id", lineno + 1))?;
        ids.push(id);
    }
    if ids.is_empty() {
        return Err(format!("{source}: no vertex ids"));
    }
    Ok(ids)
}

fn serve(args: &Args) -> Result<String, CliError> {
    args.ensure_known(&[
        "snapshot",
        "deltas",
        "staleness-depth",
        "addr",
        "threads",
        "max-batch",
        "queue",
        "cache",
        "k",
        "read-timeout-s",
        "max-conns",
        "trace-sample",
        "slow-query-ms",
        "mmap",
        "verify-on-load",
        "prefault",
    ])?;
    let load_opts = load_options(args)?;
    let defaults = srs_serve::ServerConfig::default();
    let config = srs_serve::ServerConfig {
        snapshot: Path::new(args.req("snapshot")?).to_path_buf(),
        // `--deltas d1,d2` replays an existing delta chain on top of the
        // base snapshot at startup (application order); `--staleness-depth`
        // sets the default recompute depth for `/admin/ingest` batches.
        deltas: args
            .get_list::<String>("deltas")?
            .unwrap_or_default()
            .into_iter()
            .map(std::path::PathBuf::from)
            .collect(),
        staleness_depth: match args.opt("staleness-depth") {
            Some(v) => Some(v.parse().map_err(|e| CliError::usage(format!("--staleness-depth: {e}")))?),
            None => None,
        },
        addr: args.opt("addr").unwrap_or(&defaults.addr).to_string(),
        threads: args.get_or("threads", defaults.threads)?,
        max_batch: args.get_or("max-batch", defaults.max_batch)?,
        queue_capacity: args.get_or("queue", defaults.queue_capacity)?,
        cache_capacity: args.get_or("cache", defaults.cache_capacity)?,
        default_k: args.get_or("k", defaults.default_k)?,
        // 0 disables the idle-read timeout.
        read_timeout: std::time::Duration::from_secs(
            args.get_or("read-timeout-s", defaults.read_timeout.as_secs())?,
        ),
        max_connections: args.get_or("max-conns", defaults.max_connections)?,
        // `--trace-sample N` keeps 1-in-N requests' span trees (1 = all,
        // 0 = tracing off); `--slow-query-ms T` always keeps requests
        // slower than T. Either one being nonzero enables tracing.
        trace_sample: args.get_or("trace-sample", defaults.trace_sample)?,
        slow_query_ms: args.get_or("slow-query-ms", defaults.slow_query_ms)?,
        mmap: load_opts.mmap,
        verify_on_load: load_opts.verify_on_load,
        prefault: load_opts.prefault,
        ..defaults.clone()
    };
    let server = srs_serve::Server::bind(config).map_err(|e| e.to_string())?;
    let engine = server.engine();
    {
        let ds = engine.dataset();
        // The listen line goes to stderr immediately — stdout is the run
        // summary, which only exists once the server has drained.
        eprintln!(
            "srs serve: listening on http://{} (n={} m={}, {} engine threads)",
            server.local_addr(),
            ds.graph().num_vertices(),
            ds.graph().num_edges(),
            engine.threads(),
        );
    }
    let metrics = engine.metrics_handle();
    server.run().map_err(|e| e.to_string())?;
    let snap = metrics.snapshot();
    Ok(format!(
        "server stopped: {} connections, {} requests, {} waves, generation {}\n",
        snap.counter_total("srs_server_connections_total"),
        snap.counter_total("srs_server_requests_total"),
        snap.counter_total("srs_server_waves_total"),
        engine.generation()
    ))
}

/// Reads an edit batch from a file or stdin (`-`): binary `SRSEDIT1` if
/// the magic matches, otherwise the text form (`grow N`, `+ u v`,
/// `- u v`, bare `u v` inserts, `#` comments).
fn read_edit_batch(spec: &str) -> Result<srs_graph::GraphDelta, String> {
    let bytes = if spec == "-" {
        let mut b = Vec::new();
        std::io::Read::read_to_end(&mut std::io::stdin().lock(), &mut b)
            .map_err(|e| format!("stdin: {e}"))?;
        b
    } else {
        std::fs::read(spec).map_err(|e| format!("{spec}: {e}"))?
    };
    if bytes.starts_with(srs_graph::delta::EDIT_MAGIC) {
        srs_graph::GraphDelta::from_bytes(&bytes).map_err(|e| format!("{spec}: {e}"))
    } else {
        let text = std::str::from_utf8(&bytes)
            .map_err(|_| format!("{spec}: edit batch is neither SRSEDIT1 binary nor UTF-8 text"))?;
        srs_graph::GraphDelta::parse_text(text).map_err(|e| format!("{spec}: {e}"))
    }
}

/// Builds a delta snapshot offline: the same incremental maintenance the
/// server runs on `/admin/ingest`, but from files — load the base (plus
/// any existing chain), apply one edit batch, write the next chain link.
fn delta(args: &Args) -> Result<String, CliError> {
    args.ensure_known(&["snapshot", "deltas", "edits", "out", "staleness-depth", "threads"])?;
    let base = Path::new(args.req("snapshot")?);
    let chain_paths: Vec<String> = args.get_list::<String>("deltas")?.unwrap_or_default();
    let out = Path::new(args.req("out")?);
    let edits = args.req("edits")?;
    let batch = read_edit_batch(edits)?;
    if batch.is_empty() {
        return Err("edit batch is empty (nothing to apply)".into());
    }
    let opts = srs_search::LoadOptions::default();
    let (ds, _, chain, _) =
        srs_search::load_chain(base, &chain_paths, &opts).map_err(|e| format!("{}: {e}", base.display()))?;
    let t = ds.index().params().t;
    let depth: u32 = args.get_or("staleness-depth", t.saturating_sub(1))?;
    let threads: usize =
        args.get_or("threads", std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1))?;
    let start = std::time::Instant::now();
    // A batch that does not apply is the batch's fault: name the edits
    // file, not the snapshot.
    let built =
        srs_search::build_delta(&ds, &batch, depth, threads, chain.tip_fingerprint).map_err(|e| match e {
            persist::PersistError::EditBatch(_) => format!("{edits}: {e}"),
            other => other.to_string(),
        })?;
    let elapsed = start.elapsed();
    std::fs::write(out, &built.bytes).map_err(|e| format!("{}: {e}", out.display()))?;
    Ok(format!(
        "delta built in {:.2?}: +{} -{} edges, {} appended, {} dirty, {} reused \
         (staleness depth {depth}, chain depth {} -> {}) -> {} ({} bytes, fingerprint {:016x})\n",
        elapsed,
        batch.num_insertions(),
        batch.num_deletions(),
        built.stats.appended,
        built.stats.dirty,
        built.stats.reused,
        chain.depth,
        chain.depth + 1,
        out.display(),
        built.bytes.len(),
        built.fingerprint
    ))
}

/// Posts an edit batch to a running server's `/admin/ingest`. The batch
/// is parsed locally first (catching malformed input before it travels)
/// and sent in the canonical binary form.
fn ingest(args: &Args) -> Result<String, CliError> {
    args.ensure_known(&["addr", "edits", "depth"])?;
    let addr = args.req("addr")?;
    let batch = read_edit_batch(args.req("edits")?)?;
    if batch.is_empty() {
        return Err("edit batch is empty (nothing to ingest)".into());
    }
    let path = match args.opt("depth") {
        Some(d) => {
            let _: u32 = d.parse().map_err(|e| CliError::usage(format!("--depth: {e}")))?;
            format!("/admin/ingest?depth={d}")
        }
        None => "/admin/ingest".to_string(),
    };
    let mut client = srs_serve::HttpClient::connect(addr.to_string()).map_err(|e| format!("{addr}: {e}"))?;
    let resp = client.post_body(&path, &batch.to_bytes()).map_err(|e| format!("{addr}: {e}"))?;
    if resp.status != 200 {
        return Err(format!("ingest failed ({}): {}", resp.status, resp.body_str()).into());
    }
    Ok(format!(
        "ingested +{} -{} edges: {}\n",
        batch.num_insertions(),
        batch.num_deletions(),
        resp.body_str()
    ))
}

/// Folds a delta chain back into one self-contained base snapshot —
/// byte-identical serving state, O(1)-chain startup again.
fn compact(args: &Args) -> Result<String, CliError> {
    args.ensure_known(&["snapshot", "deltas", "out"])?;
    let base = Path::new(args.req("snapshot")?);
    let deltas: Vec<String> = args.get_list::<String>("deltas")?.unwrap_or_default();
    if deltas.is_empty() {
        return Err(CliError::usage("--deltas names no delta files (nothing to compact)"));
    }
    let out = Path::new(args.req("out")?);
    let start = std::time::Instant::now();
    let f = std::fs::File::create(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let (ds, chain) =
        srs_search::compact_chain(base, &deltas, std::io::BufWriter::new(f)).map_err(|e| e.to_string())?;
    let bytes = std::fs::metadata(out).map(|m| m.len()).unwrap_or(0);
    Ok(format!(
        "compacted {} deltas in {:.2?}: n={} m={} -> {} ({bytes} bytes, chain fingerprint {:016x})\n",
        chain.depth,
        start.elapsed(),
        ds.graph().num_vertices(),
        ds.graph().num_edges(),
        out.display(),
        chain.fingerprint
    ))
}

/// One finished open-loop load run: sorted latencies (from each request's
/// *scheduled* send time), error count, and a sample of failure messages.
struct LoadOutcome {
    total: usize,
    latencies: Vec<std::time::Duration>,
    errors: u64,
    wall: std::time::Duration,
    failures: Vec<String>,
    /// `(latency, trace_id)` per completed request, sorted slowest-first —
    /// only populated when the run sent client-assigned trace IDs.
    traced: Vec<(std::time::Duration, u64)>,
}

impl LoadOutcome {
    fn completed(&self) -> usize {
        self.latencies.len()
    }

    /// Latency at percentile `p` (0 < p <= 1); zero when nothing completed.
    fn pct(&self, p: f64) -> std::time::Duration {
        let c = self.completed();
        if c == 0 {
            return std::time::Duration::ZERO;
        }
        self.latencies[((p * c as f64).ceil() as usize).clamp(1, c) - 1]
    }

    fn achieved_qps(&self) -> f64 {
        self.completed() as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Mean latency in microseconds; zero when nothing completed.
    fn mean_us(&self) -> f64 {
        let sum: std::time::Duration = self.latencies.iter().sum();
        sum.as_secs_f64() * 1e6 / self.completed().max(1) as f64
    }
}

/// One `/metrics` scrape, reduced to the counters a sweep rung reports.
fn scrape_server(addr: &str) -> Result<srs_bench::servebench::ServerScrape, String> {
    let mut c = srs_serve::HttpClient::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
    let resp = c.get("/metrics").map_err(|e| format!("{addr}: GET /metrics: {e}"))?;
    if resp.status != 200 {
        return Err(format!("{addr}: GET /metrics answered {}", resp.status));
    }
    srs_bench::servebench::ServerScrape::parse(&resp.body_str())
        .map_err(|family| format!("{addr}: /metrics has no {family}"))
}

/// Drives `total` open-loop requests at `rate` against a running server:
/// request `i` is *due* at `start + i/rate` no matter how fast earlier
/// requests completed, and latency is measured from the due time —
/// server-side queueing shows up as latency instead of silently
/// stretching the run (the coordinated-omission trap of closed loops).
/// With `trace: true` every request carries a client-assigned trace ID
/// (`x-srs-trace-id`), and the outcome's `traced` list pairs each
/// latency with its ID — so the slowest requests can be looked up in the
/// server's `/debug/trace` after the run.
#[allow(clippy::too_many_arguments)]
fn run_load(
    addr: &str,
    n: usize,
    rate: f64,
    total: usize,
    k: usize,
    exponent: f64,
    connections: usize,
    seed: u64,
    trace: bool,
) -> LoadOutcome {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::{Duration, Instant};
    let connections = connections.clamp(1, total);
    // Pre-draw the whole workload so workers spend the measured window on
    // network i/o only. Ranks map to vertex ids through a coprime stride,
    // scattering the hot head of the distribution across the id space.
    let cdf = zipf_cdf(n, exponent);
    let stride = coprime_stride(n as u64);
    let mut rng = srs_mc::Pcg32::new(seed, 0x10ad);
    let targets: Vec<u32> = (0..total)
        .map(|_| {
            let x = rng.gen_f64();
            let rank = cdf.partition_point(|&p| p <= x).min(n - 1);
            (rank as u64 * stride % n as u64) as u32
        })
        .collect();
    // Pre-drawn per-request trace IDs (deterministic in `--seed`), so the
    // report can name the slow ones.
    let trace_ids: Vec<u64> = if trace {
        let ids = srs_obs::TraceIdGen::with_seed(seed ^ 0x7472_6163_6564);
        (0..total).map(|_| ids.next_id()).collect()
    } else {
        Vec::new()
    };

    let start = Instant::now() + Duration::from_millis(20);
    let errors = AtomicU64::new(0);
    let failures: std::sync::Mutex<Vec<String>> = std::sync::Mutex::new(Vec::new());
    let note = |msg: String| {
        let mut f = failures.lock().unwrap();
        if f.len() < 5 && !f.contains(&msg) {
            f.push(msg);
        }
    };
    let mut completed: Vec<(Duration, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|w| {
                let (targets, trace_ids, errors, note) = (&targets, &trace_ids, &errors, &note);
                scope.spawn(move || {
                    let mut lats: Vec<(Duration, u64)> = Vec::new();
                    let mut client: Option<srs_serve::HttpClient> = None;
                    for i in (w..total).step_by(connections) {
                        let due = start + Duration::from_secs_f64(i as f64 / rate);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let c = match client.as_mut() {
                            Some(c) => c,
                            None => match srs_serve::HttpClient::connect(addr) {
                                Ok(c) => client.insert(c),
                                Err(e) => {
                                    errors.fetch_add(1, Ordering::Relaxed);
                                    note(format!("connect: {e}"));
                                    continue;
                                }
                            },
                        };
                        let path = format!("/query?u={}&k={k}", targets[i]);
                        let resp = match trace_ids.get(i) {
                            Some(&id) => c.get_traced(&path, id),
                            None => c.get(&path),
                        };
                        match resp {
                            Ok(r) if r.status == 200 => {
                                let lat = Instant::now().saturating_duration_since(due);
                                lats.push((lat, trace_ids.get(i).copied().unwrap_or(0)));
                            }
                            Ok(r) => {
                                errors.fetch_add(1, Ordering::Relaxed);
                                note(format!("http {}: {}", r.status, r.body_str()));
                            }
                            Err(e) => {
                                errors.fetch_add(1, Ordering::Relaxed);
                                note(format!("transport: {e}"));
                                client = None;
                            }
                        }
                    }
                    lats
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("loadgen worker panicked")).collect()
    });
    let wall = start.elapsed();
    completed.sort_unstable();
    let latencies: Vec<Duration> = completed.iter().map(|&(d, _)| d).collect();
    let traced: Vec<(Duration, u64)> = if trace { completed.into_iter().rev().collect() } else { Vec::new() };
    LoadOutcome {
        total,
        latencies,
        errors: errors.load(Ordering::Relaxed),
        wall,
        failures: failures.into_inner().unwrap(),
        traced,
    }
}

fn loadgen(args: &Args) -> Result<String, CliError> {
    args.ensure_known(&[
        "addr",
        "rate",
        "duration-s",
        "requests",
        "k",
        "zipf",
        "connections",
        "seed",
        "slow",
        "sweep",
        "sweep-out",
    ])?;
    let addr = args.req("addr")?.to_string();
    let k: usize = args.get_or("k", 20)?;
    let exponent: f64 = args.get_or("zipf", 1.0)?;
    if !(exponent.is_finite() && exponent >= 0.0) {
        return Err(CliError::usage("--zipf must be >= 0 (0 = uniform)"));
    }
    let connections: usize = args.get_or("connections", 4)?;
    if connections == 0 {
        return Err(CliError::usage("--connections must be positive"));
    }
    let seed: u64 = args.get_or("seed", 7)?;
    let secs: f64 = args.get_or("duration-s", 2.0)?;
    if !(secs.is_finite() && secs > 0.0) {
        return Err(CliError::usage("--duration-s must be a positive number"));
    }
    // `--slow N`: send a client-assigned trace ID with every request and
    // report the N slowest requests' IDs, ready for `/debug/trace?id=`.
    // The server only resolves an ID it kept (sampled in by
    // `--trace-sample` or over `--slow-query-ms`), so the report probes
    // the slowest one and says whether lookups will work.
    let slow: usize = args.get_or("slow", 0)?;
    if slow > 0 && args.opt("sweep").is_some() {
        return Err(CliError::usage("--slow and --sweep are mutually exclusive"));
    }

    // The vertex universe comes from the server itself.
    let mut probe = srs_serve::HttpClient::connect(&addr).map_err(|e| format!("{addr}: {e}"))?;
    let info = probe.get("/info").map_err(|e| format!("{addr}: GET /info: {e}"))?;
    if info.status != 200 {
        return Err(format!("{addr}: GET /info answered {}", info.status).into());
    }
    let n = json_u64_field(&info.body_str(), "vertices")
        .ok_or_else(|| format!("{addr}: /info response had no vertex count"))? as usize;
    if n == 0 {
        return Err(format!("{addr}: server graph has no vertices").into());
    }
    drop(probe);

    if let Some(spec) = args.opt("sweep") {
        // Rate ladder: each rung runs `--duration-s` at its offered rate;
        // the report's knee is the first rung the server can't track.
        let mut rates = Vec::new();
        for part in spec.split(',') {
            let r: f64 =
                part.trim().parse().map_err(|e| CliError::usage(format!("--sweep `{part}`: {e}")))?;
            if !(r.is_finite() && r > 0.0) {
                return Err(CliError::usage(format!("--sweep rate `{part}` must be positive")));
            }
            rates.push(r);
        }
        let mut report = srs_bench::servebench::ServeBenchReport::new(addr.clone());
        let mut out = String::new();
        let _ = writeln!(
            out,
            "loadgen sweep: {} rungs x {secs}s against {addr} (zipf {exponent}, {connections} connections, k={k})",
            rates.len()
        );
        // The scrape after one rung is the scrape before the next: nothing
        // else talks to the server in between.
        let mut before = scrape_server(&addr)?;
        for (rung, &rate) in rates.iter().enumerate() {
            let total = (rate * secs).ceil().max(1.0) as usize;
            let r = run_load(&addr, n, rate, total, k, exponent, connections, seed + rung as u64, false);
            let after = scrape_server(&addr)?;
            let layers = before.layers_until(&after, r.mean_us());
            before = after;
            let us = |d: std::time::Duration| d.as_secs_f64() * 1e6;
            let _ = writeln!(
                out,
                "  rate {rate:>7.0} -> {:.0} qps, {} errors, p50 {:.2?} | p95 {:.2?} | p99 {:.2?} | \
                 {} waves x {:.2}, server {:.1}us (queue {:.1}us), residual {:.1}us",
                r.achieved_qps(),
                r.errors,
                r.pct(0.50),
                r.pct(0.95),
                r.pct(0.99),
                layers.waves,
                layers.mean_wave_size,
                layers.server_us,
                layers.queue_wait_us,
                layers.residual_us,
            );
            for msg in &r.failures {
                let _ = writeln!(out, "  error: {msg}");
            }
            report.push(srs_bench::servebench::ServeBenchEntry {
                rate,
                requests: r.total as u64,
                completed: r.completed() as u64,
                errors: r.errors,
                connections,
                k,
                elapsed_secs: r.wall.as_secs_f64(),
                p50_us: us(r.pct(0.50)),
                p95_us: us(r.pct(0.95)),
                p99_us: us(r.pct(0.99)),
                max_us: us(r.pct(1.0)),
                layers,
            });
        }
        match report.knee_rate() {
            Some(rate) => {
                let _ = writeln!(out, "knee: server stops keeping up at {rate:.0} rps offered");
            }
            None => {
                let _ = writeln!(out, "knee: not reached (server tracked every offered rate)");
            }
        }
        if let Some(path) = args.opt("sweep-out") {
            report.write(path).map_err(|e| format!("{path}: {e}"))?;
            let _ = writeln!(out, "sweep -> {path}");
        }
        return Ok(out);
    }

    let rate: f64 = args.get_or("rate", 200.0)?;
    if !(rate.is_finite() && rate > 0.0) {
        return Err(CliError::usage("--rate must be a positive number"));
    }

    let total: usize = match args.opt("requests") {
        Some(_) => args.get_req("requests")?,
        None => (rate * secs).ceil().max(1.0) as usize,
    };
    if total == 0 {
        return Err(CliError::usage("--requests must be positive"));
    }
    let r = run_load(&addr, n, rate, total, k, exponent, connections, seed, slow > 0);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "loadgen: {total} requests to {addr} at {rate:.0} rps target (zipf {exponent}, {} connections, k={k})",
        connections.min(total)
    );
    let _ = writeln!(
        out,
        "completed {} ok, {} errors in {:.2?} -> achieved {:.0} queries/s",
        r.completed(),
        r.errors,
        r.wall,
        r.achieved_qps()
    );
    if r.completed() > 0 {
        let _ = writeln!(
            out,
            "latency (from scheduled send): p50 {:.2?} | p95 {:.2?} | p99 {:.2?} | max {:.2?}",
            r.pct(0.50),
            r.pct(0.95),
            r.pct(0.99),
            r.pct(1.0)
        );
    }
    if slow > 0 && !r.traced.is_empty() {
        let _ = writeln!(out, "slowest {} (look up with GET /debug/trace?id=...):", slow.min(r.traced.len()));
        for (rank, (lat, id)) in r.traced.iter().take(slow).enumerate() {
            let _ =
                writeln!(out, "  #{:<2} {:>10.2?}  trace {}", rank + 1, lat, srs_obs::format_trace_id(*id));
        }
        // These IDs only resolve if the server kept the span tree —
        // sampled in by --trace-sample or over the --slow-query-ms bar.
        // Probe the slowest one so a sampled-out run warns instead of
        // sending the user to a guaranteed 404.
        let verified = srs_serve::HttpClient::connect(&addr).ok().and_then(|mut c| {
            c.get(&format!("/debug/trace?id={}", srs_obs::format_trace_id(r.traced[0].1)))
                .ok()
                .map(|resp| resp.status == 200)
        });
        match verified {
            Some(true) => {
                let _ = writeln!(out, "  (verified: #1 resolves in /debug/trace)");
            }
            _ => {
                let _ = writeln!(
                    out,
                    "  note: #1 did not resolve on the server — ids are only kept when sampled in \
                     (--trace-sample, deterministic in the id) or slower than --slow-query-ms"
                );
            }
        }
    }
    for msg in &r.failures {
        let _ = writeln!(out, "error: {msg}");
    }
    Ok(out)
}

/// Cumulative Zipf(`s`) distribution over `n` ranks (`s = 0` is uniform).
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0;
    for rank in 1..=n {
        acc += (rank as f64).powf(-s);
        cdf.push(acc);
    }
    let norm = 1.0 / acc;
    for v in &mut cdf {
        *v *= norm;
    }
    cdf
}

/// A multiplier coprime to `n`, used as the bijection `rank -> vertex id`
/// so the hot head of the Zipf distribution is scattered over the id
/// space instead of clustering at the low ids.
fn coprime_stride(n: u64) -> u64 {
    if n <= 2 {
        return 1;
    }
    let mut stride = (0x9e37_79b9 % n).max(1); // golden-ratio scatter
    while gcd(stride, n) != 1 {
        stride = stride % n + 1;
    }
    stride
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Pulls an unsigned-integer field out of the server's (known-shape) JSON
/// — all the parsing `loadgen` needs.
fn json_u64_field(body: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = body.find(&pat)? + pat.len();
    let rest = body[at..].trim_start();
    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    if end == 0 {
        None
    } else {
        rest[..end].parse().ok()
    }
}

fn topk_all(args: &Args) -> Result<String, CliError> {
    args.ensure_known(&["graph", "index", "snapshot", "k", "out", "threads"])?;
    let (ds, _) = load_dataset(args)?;
    let k: usize = args.get_or("k", 20)?;
    let threads: usize =
        args.get_or("threads", std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1))?;
    let start = std::time::Instant::now();
    let (all, stats) = srs_search::all_vertices::all_topk(&ds, k, &QueryOptions::default(), threads);
    let elapsed = start.elapsed();
    let mut csv = String::from("vertex,rank,similar,score\n");
    for (u, hits) in all.iter().enumerate() {
        for (rank, h) in hits.iter().enumerate() {
            let _ = writeln!(csv, "{u},{},{},{:.6}", rank + 1, h.vertex, h.score);
        }
    }
    let summary = format!(
        "all-vertices top-{k} in {:.2?} ({} queries, {} candidates scored by the head)\n",
        elapsed, stats.queries, stats.totals.candidates
    );
    if let Some(path) = args.opt("out") {
        std::fs::write(path, csv).map_err(|e| format!("{path}: {e}"))?;
        Ok(format!("{summary}results -> {path}\n"))
    } else {
        Ok(format!("{summary}{csv}"))
    }
}

fn exact(args: &Args) -> Result<String, CliError> {
    args.ensure_known(&["graph", "vertex", "k", "c", "t"])?;
    let g = load_graph(Path::new(args.req("graph")?))?;
    let vertex: u32 = args.get_req("vertex")?;
    if vertex >= g.num_vertices() {
        return Err(format!("vertex {vertex} out of range (n = {})", g.num_vertices()).into());
    }
    let k: usize = args.get_or("k", 20)?;
    let params = srs_exact::ExactParams::new(args.get_or("c", 0.6)?, args.get_or("t", 11)?);
    let d = srs_exact::diagonal::uniform(g.num_vertices() as usize, params.c);
    let scores = srs_exact::linearized::single_source(&g, vertex, &params, &d);
    let mut order: Vec<(f64, u32)> = scores
        .iter()
        .enumerate()
        .filter(|&(v, &s)| v as u32 != vertex && s > 0.0)
        .map(|(v, &s)| (s, v as u32))
        .collect();
    order.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite").then(a.1.cmp(&b.1)));
    order.truncate(k);
    let mut out = String::new();
    let _ = writeln!(out, "deterministic linearized top-{k} for vertex {vertex}:");
    for (s, v) in order {
        let _ = writeln!(out, "{v}\t{s:.6}");
    }
    Ok(out)
}

fn validate(args: &Args) -> Result<String, CliError> {
    args.ensure_known(&["graph", "index", "k", "queries", "seed"])?;
    let g = load_graph(Path::new(args.req("graph")?))?;
    let index = load_index(args)?;
    let k: usize = args.get_or("k", 20)?;
    let queries: usize = args.get_or("queries", 50)?;
    let seed: u64 = args.get_or("seed", 1)?;
    let qs = srs_graph::stats::sample_query_vertices(&g, queries, seed);
    let report = srs_search::validate::validate_index(&g, &index, &qs, k, &QueryOptions::default());
    let mut out = String::new();
    let _ = writeln!(out, "queries          {}", report.queries);
    let _ = writeln!(out, "recall@{k}        {:.4}", report.recall);
    let _ = writeln!(out, "mean |error|     {:.5}", report.mean_abs_error);
    let _ = writeln!(out, "max  |error|     {:.5}", report.max_abs_error);
    let _ = writeln!(out, "mean hits/query  {:.1}", report.mean_hits);
    Ok(out)
}

fn reorder(args: &Args) -> Result<String, CliError> {
    args.ensure_known(&["in", "out", "by"])?;
    let input = Path::new(args.req("in")?);
    let output = Path::new(args.req("out")?);
    let g = load_graph(input)?;
    let by = args.opt("by").unwrap_or("bfs");
    let order = match by {
        "bfs" => srs_graph::order::bfs_order(&g),
        "degree" => srs_graph::order::degree_order(&g),
        other => return Err(CliError::usage(format!("unknown ordering `{other}` (bfs|degree)"))),
    };
    let before = srs_graph::order::edge_locality(&g);
    let reordered = srs_graph::order::apply_order(&g, &order);
    let after = srs_graph::order::edge_locality(&reordered.graph);
    save_graph(&reordered.graph, output)?;
    Ok(format!(
        "reordered by {by}: edge locality {before:.1} -> {after:.1} ({} -> {})\n",
        input.display(),
        output.display()
    ))
}

/// Measures raw reverse-walk kernel throughput on the loaded graph — the
/// operational twin of the `walks` criterion bench, for sizing walk
/// budgets against a *real* dataset instead of a generated fixture.
/// Walks start from every vertex round-robin and advance `--t` steps
/// through the compacted-frontier kernels; throughput is reported in
/// logical Msteps/s (walks × steps asked for, the caller-visible unit).
fn walk_bench(args: &Args) -> Result<String, CliError> {
    args.ensure_known(&["graph", "walks", "t", "seed"])?;
    let g = load_graph(Path::new(args.req("graph")?))?;
    if g.num_vertices() == 0 {
        return Err("graph has no vertices".into());
    }
    let walks: usize = args.get_or("walks", 50_000)?;
    let t_max: usize = args.get_or("t", 11)?;
    let seed: u64 = args.get_or("seed", 42)?;
    if walks == 0 || t_max == 0 {
        return Err(CliError::usage("--walks and --t must be positive"));
    }
    let engine = srs_mc::WalkEngine::new(&g);
    let mut rng = srs_mc::Pcg32::new(seed, 1);
    let n = g.num_vertices() as usize;
    let logical = (walks * t_max) as f64;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "walk kernel on n={} m={} ({} walks x {} steps):",
        g.num_vertices(),
        g.num_edges(),
        walks,
        t_max
    );

    let mut frontier: Vec<u32> = (0..walks).map(|i| (i % n) as u32).collect();
    let start = std::time::Instant::now();
    for _ in 0..t_max {
        if frontier.is_empty() {
            break;
        }
        engine.step_frontier(&mut frontier, &mut rng);
    }
    let el = start.elapsed().as_secs_f64();
    let _ = writeln!(
        out,
        "step_frontier        {:>8.1} Msteps/s ({} walks alive after {} steps)",
        logical / el / 1e6,
        frontier.len(),
        t_max
    );

    let mut frontier: Vec<u32> = (0..walks).map(|i| (i % n) as u32).collect();
    let mut counter = srs_mc::multiset::PositionCounter::new();
    let start = std::time::Instant::now();
    for _ in 0..t_max {
        if frontier.is_empty() {
            break;
        }
        engine.step_frontier_count(&mut frontier, &mut rng, &mut counter);
    }
    let el = start.elapsed().as_secs_f64();
    let _ = writeln!(out, "step_frontier_count  {:>8.1} Msteps/s", logical / el / 1e6);

    let mut probe = vec![srs_mc::DEAD; t_max + 1];
    let start = std::time::Instant::now();
    for i in 0..walks {
        engine.walk_fill((i % n) as u32, &mut rng, &mut probe);
    }
    let el = start.elapsed().as_secs_f64();
    let _ = writeln!(out, "walk_fill            {:>8.1} Msteps/s", logical / el / 1e6);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(line: &str) -> Result<String, String> {
        dispatch_line(line).map_err(|e| e.message)
    }

    fn dispatch_line(line: &str) -> Result<String, CliError> {
        dispatch(&line.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("srs_cli_{}_{name}", std::process::id()))
    }

    #[test]
    fn full_workflow_generate_preprocess_query() {
        let g_path = tmp("wf.bin");
        let i_path = tmp("wf.idx");
        let out = run(&format!("generate --family web --n 400 --deg 4 --out {}", g_path.display())).unwrap();
        assert!(out.contains("n=400"), "{out}");
        let out =
            run(&format!("preprocess --graph {} --index {}", g_path.display(), i_path.display())).unwrap();
        assert!(out.contains("preprocess done"), "{out}");
        let out = run(&format!(
            "query --graph {} --index {} --vertex 10 --k 5",
            g_path.display(),
            i_path.display()
        ))
        .unwrap();
        assert!(out.contains("top-5 for vertex 10"), "{out}");
        let out = run(&format!("stats --graph {}", g_path.display())).unwrap();
        assert!(out.contains("vertices             400"), "{out}");
        let out = run(&format!("exact --graph {} --vertex 10 --k 3", g_path.display())).unwrap();
        assert!(out.contains("deterministic linearized top-3"), "{out}");
        let out = run(&format!(
            "validate --graph {} --index {} --k 5 --queries 8",
            g_path.display(),
            i_path.display()
        ))
        .unwrap();
        assert!(out.contains("recall@5"), "{out}");
        std::fs::remove_file(&g_path).ok();
        std::fs::remove_file(&i_path).ok();
    }

    #[test]
    fn generate_from_registry_and_convert() {
        let bin = tmp("reg.bin");
        let txt = tmp("reg.txt");
        run(&format!("generate --dataset ca-GrQc --scale 0.02 --out {}", bin.display())).unwrap();
        let out = run(&format!("convert --in {} --out {}", bin.display(), txt.display())).unwrap();
        assert!(out.contains("converted"), "{out}");
        // Text file is a readable edge list.
        let text = std::fs::read_to_string(&txt).unwrap();
        assert!(text.starts_with("# srs-graph edge list"));
        // And loads back through auto-detection.
        let out = run(&format!("stats --graph {}", txt.display())).unwrap();
        assert!(out.contains("edges"), "{out}");
        std::fs::remove_file(&bin).ok();
        std::fs::remove_file(&txt).ok();
    }

    #[test]
    fn batch_query_reads_workload_files() {
        let g_path = tmp("qf.bin");
        let i_path = tmp("qf.idx");
        let q_path = tmp("qf.queries");
        let hits_a = tmp("qf_a.hits");
        let hits_b = tmp("qf_b.hits");
        run(&format!("generate --family web --n 150 --deg 4 --out {}", g_path.display())).unwrap();
        run(&format!("preprocess --graph {} --index {}", g_path.display(), i_path.display())).unwrap();
        std::fs::write(&q_path, "# workload\n3\n17\n\n42\n").unwrap();
        let out = run(&format!(
            "batch-query --graph {} --index {} --queries {} --k 5 --hits-out {}",
            g_path.display(),
            i_path.display(),
            q_path.display(),
            hits_a.display()
        ))
        .unwrap();
        assert!(out.contains("3 queries"), "{out}");
        // The file form answers exactly like the same ids passed inline.
        run(&format!(
            "batch-query --graph {} --index {} --vertices 3,17,42 --k 5 --hits-out {}",
            g_path.display(),
            i_path.display(),
            hits_b.display()
        ))
        .unwrap();
        assert_eq!(std::fs::read(&hits_a).unwrap(), std::fs::read(&hits_b).unwrap());
        // Junk lines are rejected with their location.
        std::fs::write(&q_path, "7\nnot-a-vertex\n").unwrap();
        let err = run(&format!(
            "batch-query --graph {} --index {} --queries {}",
            g_path.display(),
            i_path.display(),
            q_path.display()
        ))
        .unwrap_err();
        assert!(err.contains(":2:"), "{err}");
        for p in [&g_path, &i_path, &q_path, &hits_a, &hits_b] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn loadgen_drives_a_live_server() {
        let g_path = tmp("lg.bin");
        let i_path = tmp("lg.idx");
        let s_path = tmp("lg.srs");
        run(&format!("generate --family web --n 120 --deg 4 --out {}", g_path.display())).unwrap();
        run(&format!("preprocess --graph {} --index {}", g_path.display(), i_path.display())).unwrap();
        run(&format!(
            "pack --graph {} --index {} --out {}",
            g_path.display(),
            i_path.display(),
            s_path.display()
        ))
        .unwrap();
        let config = srs_serve::ServerConfig {
            snapshot: s_path.clone(),
            addr: "127.0.0.1:0".into(),
            ..srs_serve::ServerConfig::default()
        };
        let server = srs_serve::Server::bind(config).unwrap();
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run());
        let out = run(&format!(
            "loadgen --addr {addr} --requests 30 --rate 2000 --connections 3 --zipf 1.2 --seed 5 --k 5"
        ))
        .unwrap();
        assert!(out.contains("completed 30 ok, 0 errors"), "{out}");
        assert!(out.contains("p50"), "{out}");
        // A sweep layers each rung with the server's own counters: every
        // request of a rung went through one of that rung's waves.
        let sweep_path = tmp("lg_sweep.json");
        run(&format!(
            "loadgen --addr {addr} --sweep 200,400 --duration-s 0.1 --connections 2 --k 5 --sweep-out {}",
            sweep_path.display()
        ))
        .unwrap();
        let json = std::fs::read_to_string(&sweep_path).unwrap();
        let rungs: Vec<&str> = json.lines().filter(|l| l.contains("\"rate\":")).collect();
        assert_eq!(rungs.len(), 2, "{json}");
        for line in rungs {
            let field = |key| json_u64_field(line, key).unwrap_or_else(|| panic!("{key} in {line}"));
            let (requests, waves) = (field("requests"), field("waves"));
            assert_eq!(field("completed"), requests, "{line}");
            assert!((1..=requests).contains(&waves), "{line}");
            for key in ["mean_wave_size", "server_us", "queue_wait_us", "residual_us"] {
                assert!(line.contains(&format!("\"{key}\": ")), "{key} in {line}");
            }
        }
        std::fs::remove_file(&sweep_path).ok();
        let mut c = srs_serve::HttpClient::connect(addr.to_string()).unwrap();
        assert_eq!(c.post("/admin/quit").unwrap().status, 200);
        handle.join().unwrap().unwrap();
        for p in [&g_path, &i_path, &s_path] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn loadgen_slow_reports_trace_ids_that_resolve() {
        let g_path = tmp("lgslow.bin");
        let i_path = tmp("lgslow.idx");
        let s_path = tmp("lgslow.srs");
        run(&format!("generate --family web --n 120 --deg 4 --out {}", g_path.display())).unwrap();
        run(&format!("preprocess --graph {} --index {}", g_path.display(), i_path.display())).unwrap();
        run(&format!(
            "pack --graph {} --index {} --out {}",
            g_path.display(),
            i_path.display(),
            s_path.display()
        ))
        .unwrap();
        let config = srs_serve::ServerConfig {
            snapshot: s_path.clone(),
            addr: "127.0.0.1:0".into(),
            trace_sample: 1,
            ..srs_serve::ServerConfig::default()
        };
        let server = srs_serve::Server::bind(config).unwrap();
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run());
        let out = run(&format!(
            "loadgen --addr {addr} --requests 20 --rate 2000 --connections 2 --seed 5 --k 5 --slow 3"
        ))
        .unwrap();
        assert!(out.contains("completed 20 ok, 0 errors"), "{out}");
        assert!(out.contains("slowest 3"), "{out}");
        // trace_sample=1 keeps everything, so the report verifies the
        // slowest id resolves (no sampling warning).
        assert!(out.contains("(verified: #1 resolves"), "{out}");
        assert!(!out.contains("did not resolve"), "{out}");
        // Every reported trace ID must resolve on the server.
        let mut c = srs_serve::HttpClient::connect(addr.to_string()).unwrap();
        let ids: Vec<&str> = out.lines().filter_map(|l| l.split("trace ").nth(1)).map(str::trim).collect();
        assert_eq!(ids.len(), 3, "{out}");
        for id in ids {
            assert_eq!(id.len(), 16, "{id}");
            let resp = c.get(&format!("/debug/trace?id={id}")).unwrap();
            assert_eq!(resp.status, 200, "trace {id} did not resolve: {}", resp.body_str());
        }
        // --slow and --sweep don't compose.
        let err = run(&format!("loadgen --addr {addr} --sweep 100 --slow 2")).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
        assert_eq!(c.post("/admin/quit").unwrap().status, 200);
        handle.join().unwrap().unwrap();
        for p in [&g_path, &i_path, &s_path] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn batch_query_trace_out_is_valid_and_result_neutral() {
        let g_path = tmp("bqtr.bin");
        let i_path = tmp("bqtr.idx");
        let trace = tmp("bqtr.trace.json");
        let hits_plain = tmp("bqtr.plain.tsv");
        let hits_traced = tmp("bqtr.traced.tsv");
        run(&format!("generate --family web --n 200 --deg 4 --out {}", g_path.display())).unwrap();
        run(&format!("preprocess --graph {} --index {}", g_path.display(), i_path.display())).unwrap();
        let base = format!(
            "batch-query --graph {} --index {} --vertices 1,5,9,40,77 --k 5 --threads 2",
            g_path.display(),
            i_path.display()
        );
        run(&format!("{base} --hits-out {}", hits_plain.display())).unwrap();
        let out =
            run(&format!("{base} --hits-out {} --trace-out {}", hits_traced.display(), trace.display()))
                .unwrap();
        assert!(out.contains("chrome trace (5 queries)"), "{out}");
        // Tracing is a pure observer: the hits witness is byte-identical.
        assert_eq!(
            std::fs::read(&hits_plain).unwrap(),
            std::fs::read(&hits_traced).unwrap(),
            "--trace-out changed the answers"
        );
        // The export is Chrome trace-event JSON: complete events with
        // ts/dur/pid/tid, one root `query` slice per query plus stages.
        let json = std::fs::read_to_string(&trace).unwrap();
        assert!(json.starts_with("{\"traceEvents\": ["), "{json}");
        for key in ["\"ph\": \"X\"", "\"ts\": ", "\"dur\": ", "\"name\": ", "\"pid\": ", "\"tid\": "] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(json.matches("\"name\": \"query\"").count(), 5, "{json}");
        assert!(json.contains("\"name\": \"stage:"), "{json}");
        assert!(json.contains("\"vertex\": "), "{json}");
        for p in [&g_path, &i_path, &trace, &hits_plain, &hits_traced] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn serve_command_runs_and_drains() {
        let g_path = tmp("sv.bin");
        let i_path = tmp("sv.idx");
        let s_path = tmp("sv.srs");
        run(&format!("generate --family web --n 100 --deg 4 --out {}", g_path.display())).unwrap();
        run(&format!("preprocess --graph {} --index {}", g_path.display(), i_path.display())).unwrap();
        run(&format!(
            "pack --graph {} --index {} --out {}",
            g_path.display(),
            i_path.display(),
            s_path.display()
        ))
        .unwrap();
        // Grab a free port, then hand it to the command (the tiny re-bind
        // race is acceptable in a test).
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let addr = format!("127.0.0.1:{port}");
        let cmd = format!(
            "serve --snapshot {} --addr {addr} --max-batch 8 \
             --trace-sample 1 --slow-query-ms 500",
            s_path.display()
        );
        let handle = std::thread::spawn(move || run(&cmd));
        let mut client = None;
        for _ in 0..200 {
            match srs_serve::HttpClient::connect(addr.clone()) {
                Ok(c) => {
                    client = Some(c);
                    break;
                }
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(25)),
            }
        }
        let mut client = client.expect("server never came up");
        let resp = client.get("/query?u=1&k=3").unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body_str());
        // The tracing flags reached the server config, and the traced
        // request landed in the sampled ring.
        let info = client.get("/info").unwrap().body_str().to_string();
        assert!(info.contains("\"trace_sample\":1"), "{info}");
        assert!(info.contains("\"slow_query_ms\":500"), "{info}");
        assert!(resp.trace_id.is_some(), "tracing on: query response must carry a trace id");
        assert_ne!(client.get("/debug/traces").unwrap().body_str().trim(), "[]");
        assert_eq!(client.post("/admin/quit").unwrap().status, 200);
        let out = handle.join().unwrap().unwrap();
        assert!(out.contains("server stopped:"), "{out}");
        for p in [&g_path, &i_path, &s_path] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn dynamic_graph_workflow_end_to_end() {
        let g_path = tmp("dyn.bin");
        let i_path = tmp("dyn.idx");
        let s_path = tmp("dyn.srs");
        let e1 = tmp("dyn_e1.txt");
        let e2 = tmp("dyn_e2.txt");
        let e3 = tmp("dyn_e3.txt");
        let d1 = tmp("dyn.srs.d0001");
        let d2 = tmp("dyn.srs.d0002");
        let compacted = tmp("dyn_compacted.srs");
        let h_chain = tmp("dyn_chain.tsv");
        let h_comp = tmp("dyn_comp.tsv");
        run(&format!("generate --family web --n 200 --deg 4 --out {}", g_path.display())).unwrap();
        run(&format!("preprocess --graph {} --index {}", g_path.display(), i_path.display())).unwrap();
        run(&format!(
            "pack --graph {} --index {} --out {}",
            g_path.display(),
            i_path.display(),
            s_path.display()
        ))
        .unwrap();

        // Offline chain: d1 grows the graph and wires the new vertex in,
        // d2 deletes one of d1's edges again.
        std::fs::write(&e1, "grow 202\n+ 200 1\n+ 201 200\n+ 200 5\n+ 0 200\n").unwrap();
        std::fs::write(&e2, "- 200 5\n+ 201 1\n").unwrap();
        let out = run(&format!(
            "delta --snapshot {} --edits {} --out {}",
            s_path.display(),
            e1.display(),
            d1.display()
        ))
        .unwrap();
        assert!(out.contains("delta built"), "{out}");
        assert!(out.contains("+4 -0 edges"), "{out}");
        assert!(out.contains("chain depth 0 -> 1"), "{out}");
        let out = run(&format!(
            "delta --snapshot {} --deltas {} --edits {} --out {}",
            s_path.display(),
            d1.display(),
            e2.display(),
            d2.display()
        ))
        .unwrap();
        assert!(out.contains("+1 -1 edges"), "{out}");
        assert!(out.contains("chain depth 1 -> 2"), "{out}");

        // Empty batches are rejected before any work happens.
        std::fs::write(&e3, "# nothing\n").unwrap();
        let err = run(&format!(
            "delta --snapshot {} --edits {} --out {}",
            s_path.display(),
            e3.display(),
            d2.display()
        ))
        .unwrap_err();
        assert!(err.contains("empty"), "{err}");

        // Serve the chain and ingest a third batch over HTTP.
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let addr = format!("127.0.0.1:{port}");
        let cmd = format!(
            "serve --snapshot {} --deltas {},{} --addr {addr}",
            s_path.display(),
            d1.display(),
            d2.display()
        );
        let handle = std::thread::spawn(move || run(&cmd));
        let mut client = None;
        for _ in 0..200 {
            match srs_serve::HttpClient::connect(addr.clone()) {
                Ok(c) => {
                    client = Some(c);
                    break;
                }
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(25)),
            }
        }
        let mut client = client.expect("server never came up");
        let info = client.get("/info").unwrap().body_str().to_string();
        assert!(info.contains("\"chain_depth\":2"), "{info}");
        assert!(info.contains("\"vertices\":202"), "{info}");
        std::fs::write(&e3, "+ 201 5\n").unwrap();
        let out = run(&format!("ingest --addr {addr} --edits {}", e3.display())).unwrap();
        assert!(out.contains("ingested +1 -0 edges"), "{out}");
        assert!(out.contains("\"chain_depth\":3"), "{out}");
        // The ingested edge shows up in queries: 201 and 5 now share an
        // in-neighbour pattern with 201's other targets.
        let resp = client.get("/query?u=201&k=10").unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body_str());
        let info = client.get("/info").unwrap().body_str().to_string();
        assert!(info.contains("\"chain_depth\":3"), "{info}");
        assert_eq!(client.post("/admin/quit").unwrap().status, 200);
        handle.join().unwrap().unwrap();
        let d3 = tmp("dyn.srs.d0003");
        assert!(d3.exists(), "ingest persisted the third chain link");

        // Compact the 3-deep chain; serving answers are byte-identical.
        let out = run(&format!(
            "compact --snapshot {} --deltas {},{},{} --out {}",
            s_path.display(),
            d1.display(),
            d2.display(),
            d3.display(),
            compacted.display()
        ))
        .unwrap();
        assert!(out.contains("compacted 3 deltas"), "{out}");
        assert!(out.contains("n=202"), "{out}");
        run(&format!(
            "batch-query --snapshot {} --deltas {},{},{} --queries 16 --k 5 --hits-out {}",
            s_path.display(),
            d1.display(),
            d2.display(),
            d3.display(),
            h_chain.display()
        ))
        .unwrap();
        run(&format!(
            "batch-query --snapshot {} --queries 16 --k 5 --hits-out {}",
            compacted.display(),
            h_comp.display()
        ))
        .unwrap();
        assert_eq!(
            std::fs::read(&h_chain).unwrap(),
            std::fs::read(&h_comp).unwrap(),
            "chain serving must be byte-identical to the compacted bundle"
        );
        for p in [&g_path, &i_path, &s_path, &e1, &e2, &e3, &d1, &d2, &d3, &compacted, &h_chain, &h_comp] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn loadgen_helpers() {
        let cdf = zipf_cdf(4, 0.0);
        assert!((cdf[0] - 0.25).abs() < 1e-12);
        assert!((cdf[3] - 1.0).abs() < 1e-12);
        let skewed = zipf_cdf(4, 2.0);
        assert!(skewed[0] > 0.5, "rank 1 should dominate at s=2");
        for n in [1u64, 2, 3, 10, 12, 97, 1 << 20] {
            assert_eq!(gcd(coprime_stride(n), n), 1, "stride not coprime to {n}");
        }
        assert_eq!(json_u64_field("{\"vertices\":120,\"edges\":480}", "vertices"), Some(120));
        assert_eq!(json_u64_field("{\"edges\":480}", "vertices"), None);
        assert_eq!(parse_query_lines("# c\n1\n 2 \n\n3\n", "w").unwrap(), vec![1, 2, 3]);
        assert!(parse_query_lines("", "w").is_err());
        assert!(parse_query_lines("x\n", "w").unwrap_err().contains("w:1:"));
    }

    #[test]
    fn batch_query_reports_aggregates_and_latency() {
        let g_path = tmp("bq.bin");
        let i_path = tmp("bq.idx");
        run(&format!("generate --family web --n 200 --deg 4 --out {}", g_path.display())).unwrap();
        run(&format!("preprocess --graph {} --index {}", g_path.display(), i_path.display())).unwrap();
        let out = run(&format!(
            "batch-query --graph {} --index {} --vertices 1,5,9,40 --k 5 --threads 2",
            g_path.display(),
            i_path.display()
        ))
        .unwrap();
        assert!(out.contains("4 queries"), "{out}");
        assert!(out.contains("candidates"), "{out}");
        assert!(out.contains("p50") && out.contains("p95") && out.contains("p99"), "{out}");
        // Sampled-workload form works too.
        let out = run(&format!(
            "batch-query --graph {} --index {} --queries 8 --seed 3 --k 5",
            g_path.display(),
            i_path.display()
        ))
        .unwrap();
        assert!(out.contains("8 queries"), "{out}");
        // Out-of-range vertices are rejected up front.
        let err = run(&format!(
            "batch-query --graph {} --index {} --vertices 1,9999",
            g_path.display(),
            i_path.display()
        ))
        .unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        std::fs::remove_file(&g_path).ok();
        std::fs::remove_file(&i_path).ok();
    }

    #[test]
    fn query_explain_prints_candidate_fates() {
        let g_path = tmp("ex.bin");
        let i_path = tmp("ex.idx");
        run(&format!("generate --family web --n 300 --deg 4 --out {}", g_path.display())).unwrap();
        run(&format!("preprocess --graph {} --index {}", g_path.display(), i_path.display())).unwrap();
        let plain = run(&format!(
            "query --graph {} --index {} --vertex 10 --k 5",
            g_path.display(),
            i_path.display()
        ))
        .unwrap();
        assert!(!plain.contains("explain"), "{plain}");
        let out = run(&format!(
            "query --graph {} --index {} --vertex 10 --k 5 --explain",
            g_path.display(),
            i_path.display()
        ))
        .unwrap();
        assert!(out.contains("explain: source=10"), "{out}");
        assert!(out.contains("reported"), "{out}");
        // Same hits with and without the trace.
        let hits = |s: &str| s.lines().filter(|l| l.contains('\t')).map(String::from).collect::<Vec<_>>();
        assert_eq!(hits(&plain), hits(&out));
        std::fs::remove_file(&g_path).ok();
        std::fs::remove_file(&i_path).ok();
    }

    #[test]
    fn batch_query_writes_metrics_files() {
        let g_path = tmp("mq.bin");
        let i_path = tmp("mq.idx");
        let json = tmp("mq.json");
        let prom = tmp("mq.prom");
        run(&format!("generate --family web --n 200 --deg 4 --out {}", g_path.display())).unwrap();
        run(&format!("preprocess --graph {} --index {}", g_path.display(), i_path.display())).unwrap();
        let out = run(&format!(
            "batch-query --graph {} --index {} --queries 6 --k 5 --threads 2 --metrics-out {}",
            g_path.display(),
            i_path.display(),
            json.display()
        ))
        .unwrap();
        assert!(out.contains("metrics ->"), "{out}");
        assert!(out.contains("head scored"), "{out}");
        assert!(out.contains("walk steps"), "{out}");
        let body = std::fs::read_to_string(&json).unwrap();
        for family in [
            "srs_queries_total",
            "srs_query_candidate_fates_total",
            "srs_walk_steps_total",
            "srs_query_latency_ns",
            "srs_query_stage_ns",
        ] {
            assert!(body.contains(family), "json missing {family}: {body}");
        }
        run(&format!(
            "batch-query --graph {} --index {} --queries 6 --k 5 --metrics-out {}",
            g_path.display(),
            i_path.display(),
            prom.display()
        ))
        .unwrap();
        let body = std::fs::read_to_string(&prom).unwrap();
        assert!(body.contains("# TYPE srs_queries_total counter"), "{body}");
        assert!(body.contains("srs_query_latency_ns_bucket"), "{body}");
        assert!(body.contains("le=\"+Inf\""), "{body}");
        for f in [&g_path, &i_path, &json, &prom] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn preprocess_reorder_builds_on_relabelled_graph() {
        let g_path = tmp("pr.bin");
        let g2_path = tmp("pr_re.bin");
        let i_path = tmp("pr.idx");
        let map = tmp("pr.map");
        run(&format!("generate --family web --n 300 --deg 4 --out {}", g_path.display())).unwrap();
        let out = run(&format!(
            "preprocess --graph {} --index {} --reorder bfs --graph-out {} --map-out {}",
            g_path.display(),
            i_path.display(),
            g2_path.display(),
            map.display()
        ))
        .unwrap();
        assert!(out.contains("reordered by bfs"), "{out}");
        assert!(out.contains("edge locality"), "{out}");
        assert!(out.contains("preprocess done"), "{out}");
        // The index speaks the relabelled ids: querying the saved
        // reordered graph works end to end.
        let q = run(&format!(
            "query --graph {} --index {} --vertex 10 --k 5",
            g2_path.display(),
            i_path.display()
        ))
        .unwrap();
        assert!(q.contains("top-5 for vertex 10"), "{q}");
        let m = std::fs::read_to_string(&map).unwrap();
        assert!(m.starts_with("# old_id\tnew_id"), "{m}");
        assert_eq!(m.lines().count(), 301, "one mapping line per vertex");
        // Reorder without a place to put the relabelled graph is an error,
        // as is --graph-out without --reorder.
        let err = run(&format!(
            "preprocess --graph {} --index {} --reorder bfs",
            g_path.display(),
            i_path.display()
        ))
        .unwrap_err();
        assert!(err.contains("--graph-out"), "{err}");
        let err = run(&format!(
            "preprocess --graph {} --index {} --graph-out {}",
            g_path.display(),
            i_path.display(),
            g2_path.display()
        ))
        .unwrap_err();
        assert!(err.contains("--reorder"), "{err}");
        for f in [&g_path, &g2_path, &i_path, &map] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn batch_query_wave_width_is_bit_identical() {
        let g_path = tmp("wv.bin");
        let i_path = tmp("wv.idx");
        let h1 = tmp("wv_w1.tsv");
        let h32 = tmp("wv_w32.tsv");
        run(&format!("generate --family web --n 300 --deg 4 --out {}", g_path.display())).unwrap();
        run(&format!("preprocess --graph {} --index {}", g_path.display(), i_path.display())).unwrap();
        for (width, path) in [(1, &h1), (32, &h32)] {
            run(&format!(
                "batch-query --graph {} --index {} --estimator sampled --queries 12 --k 5 --wave-width {width} \
                 --hits-out {}",
                g_path.display(),
                i_path.display(),
                path.display()
            ))
            .unwrap();
        }
        let a = std::fs::read_to_string(&h1).unwrap();
        let b = std::fs::read_to_string(&h32).unwrap();
        assert_eq!(a, b, "wave width must not change any hit");
        assert_eq!(a.lines().count(), 12, "one line per query");
        assert!(a.contains(':'), "hits carry scores: {a}");
        // Repeated vertices in a batch get answered once.
        let out = run(&format!(
            "batch-query --graph {} --index {} --vertices 1,5,1,5,9 --k 5",
            g_path.display(),
            i_path.display()
        ))
        .unwrap();
        assert!(out.contains("deduped          2"), "{out}");
        for f in [&g_path, &i_path, &h1, &h32] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn preprocess_progress_reports_stages() {
        let g_path = tmp("pp.bin");
        let i_path = tmp("pp.idx");
        run(&format!("generate --family web --n 250 --deg 4 --out {}", g_path.display())).unwrap();
        let out =
            run(&format!("preprocess --graph {} --index {} --progress", g_path.display(), i_path.display()))
                .unwrap();
        assert!(out.contains("build stages"), "{out}");
        let stages: Vec<&str> = out
            .lines()
            .skip_while(|l| !l.starts_with("build stages"))
            .skip(1)
            .take_while(|l| l.starts_with("  "))
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        assert_eq!(stages, ["walk_generation", "coincidence_probe", "assemble"], "{out}");
        assert!(out.contains("preprocess done"), "{out}");
        // The instrumented build produces the same index bytes as the
        // plain one (same seed, untouched RNG streams).
        let plain = tmp("pp_plain.idx");
        run(&format!("preprocess --graph {} --index {}", g_path.display(), plain.display())).unwrap();
        assert_eq!(std::fs::read(&i_path).unwrap(), std::fs::read(&plain).unwrap());
        for f in [&g_path, &i_path, &plain] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn topk_all_writes_csv() {
        let g_path = tmp("all.bin");
        let i_path = tmp("all.idx");
        let csv = tmp("all.csv");
        run(&format!("generate --family web --n 150 --deg 4 --out {}", g_path.display())).unwrap();
        run(&format!("preprocess --graph {} --index {}", g_path.display(), i_path.display())).unwrap();
        let out = run(&format!(
            "topk-all --graph {} --index {} --k 3 --out {}",
            g_path.display(),
            i_path.display(),
            csv.display()
        ))
        .unwrap();
        assert!(out.contains("150 queries"), "{out}");
        let body = std::fs::read_to_string(&csv).unwrap();
        assert!(body.starts_with("vertex,rank,similar,score"));
        for f in [&g_path, &i_path, &csv] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn reorder_roundtrip() {
        let a = tmp("ro_a.bin");
        let b = tmp("ro_b.bin");
        run(&format!("generate --family social --n 300 --deg 4 --out {}", a.display())).unwrap();
        let out = run(&format!("reorder --in {} --out {} --by degree", a.display(), b.display())).unwrap();
        assert!(out.contains("edge locality"), "{out}");
        let stats = run(&format!("stats --graph {}", b.display())).unwrap();
        assert!(stats.contains("vertices             300"), "{stats}");
        std::fs::remove_file(&a).ok();
        std::fs::remove_file(&b).ok();
    }

    #[test]
    fn walk_bench_reports_throughput() {
        let g_path = tmp("wb.bin");
        run(&format!("generate --family web --n 500 --deg 4 --out {}", g_path.display())).unwrap();
        let out = run(&format!("walk-bench --graph {} --walks 2000 --t 6", g_path.display())).unwrap();
        assert!(out.contains("step_frontier "), "{out}");
        assert!(out.contains("step_frontier_count"), "{out}");
        assert!(out.contains("walk_fill"), "{out}");
        assert!(out.contains("Msteps/s"), "{out}");
        let err = run(&format!("walk-bench --graph {} --walks 0", g_path.display())).unwrap_err();
        assert!(err.contains("positive"), "{err}");
        std::fs::remove_file(&g_path).ok();
    }

    #[test]
    fn pack_and_snapshot_serving_match_file_pair() {
        let g_path = tmp("sn.bin");
        let i_path = tmp("sn.idx");
        let snap = tmp("sn.srs");
        let h_files = tmp("sn_files.tsv");
        let h_snap = tmp("sn_snap.tsv");
        run(&format!("generate --family web --n 300 --deg 4 --out {}", g_path.display())).unwrap();
        run(&format!("preprocess --graph {} --index {}", g_path.display(), i_path.display())).unwrap();
        let out = run(&format!(
            "pack --graph {} --index {} --out {}",
            g_path.display(),
            i_path.display(),
            snap.display()
        ))
        .unwrap();
        assert!(out.contains("packed snapshot: n=300"), "{out}");
        // One shard is the default; zero shards are refused.
        let snap1 = tmp("sn1.srs");
        let pack_shards = |out: &Path, shards: u32| {
            run(&format!(
                "pack --graph {} --index {} --out {} --shards {shards}",
                g_path.display(),
                i_path.display(),
                out.display()
            ))
        };
        pack_shards(&snap1, 1).unwrap();
        assert_eq!(std::fs::read(&snap).unwrap(), std::fs::read(&snap1).unwrap());
        let err = pack_shards(&snap1, 0).unwrap_err();
        assert!(err.contains("shard count 0"), "{err}");

        // The same batch through the file pair and through the snapshot
        // writes byte-identical hits files — the determinism witness the
        // CI job diffs — under either estimator.
        for estimator in ["head", "sampled"] {
            run(&format!(
                "batch-query --graph {} --index {} --estimator {estimator} --queries 12 --k 5 --hits-out {}",
                g_path.display(),
                i_path.display(),
                h_files.display()
            ))
            .unwrap();
            let out = run(&format!(
                "batch-query --snapshot {} --estimator {estimator} --queries 12 --k 5 --hits-out {}",
                snap.display(),
                h_snap.display()
            ))
            .unwrap();
            assert!(out.contains("snapshot         "), "{out}");
            assert!(out.contains("sections verified"), "{out}");
            assert_eq!(
                std::fs::read_to_string(&h_files).unwrap(),
                std::fs::read_to_string(&h_snap).unwrap(),
                "snapshot serving must be bit-identical to the file pair ({estimator})"
            );
        }

        // Single queries and explain traces match too.
        let a = run(&format!(
            "query --graph {} --index {} --vertex 10 --k 5 --explain",
            g_path.display(),
            i_path.display()
        ))
        .unwrap();
        let b = run(&format!("query --snapshot {} --vertex 10 --k 5 --explain", snap.display())).unwrap();
        // First line carries wall-clock timing; everything after (hits +
        // full explain trace) must match byte for byte.
        let tail = |s: &str| s.split_once('\n').map(|(_, rest)| rest.to_owned()).unwrap();
        assert_eq!(tail(&a), tail(&b), "explain trace must not depend on the load path");

        // topk-all accepts snapshots as well.
        let out = run(&format!("topk-all --snapshot {} --k 3 --threads 2", snap.display())).unwrap();
        assert!(out.contains("300 queries"), "{out}");

        // A snapshot is also a valid graph file (section readers skip
        // index sections).
        let out = run(&format!("stats --graph {}", snap.display())).unwrap();
        assert!(out.contains("vertices             300"), "{out}");

        // Mixing --snapshot with --graph/--index is ambiguous.
        let err =
            run(&format!("query --snapshot {} --graph {} --vertex 1", snap.display(), g_path.display()))
                .unwrap_err();
        assert!(err.contains("drop --graph"), "{err}");
        for f in [&g_path, &i_path, &snap, &snap1, &h_files, &h_snap] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn snapshot_metrics_include_load_gauges() {
        let g_path = tmp("sg.bin");
        let i_path = tmp("sg.idx");
        let snap = tmp("sg.srs");
        let json = tmp("sg.json");
        run(&format!("generate --family web --n 200 --deg 4 --out {}", g_path.display())).unwrap();
        run(&format!("preprocess --graph {} --index {}", g_path.display(), i_path.display())).unwrap();
        run(&format!(
            "pack --graph {} --index {} --out {}",
            g_path.display(),
            i_path.display(),
            snap.display()
        ))
        .unwrap();
        run(&format!(
            "batch-query --snapshot {} --queries 5 --k 5 --metrics-out {}",
            snap.display(),
            json.display()
        ))
        .unwrap();
        let body = std::fs::read_to_string(&json).unwrap();
        for family in [
            "srs_snapshot_load_ns",
            "srs_snapshot_read_ns",
            "srs_snapshot_checksum_ns",
            "srs_snapshot_validate_ns",
            "srs_snapshot_bytes",
            "srs_snapshot_sections_verified",
        ] {
            assert!(body.contains(family), "metrics missing {family}: {body}");
        }
        for f in [&g_path, &i_path, &snap, &json] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn helpful_errors() {
        assert!(run("help").unwrap().contains("usage"));
        assert!(run("frobnicate --x 1").unwrap_err().contains("unknown subcommand"));
        assert!(run("stats").unwrap_err().contains("--graph"));
        assert!(run("generate --family martian --n 10 --out /tmp/x").unwrap_err().contains("unknown family"));
        assert!(run("generate --dataset not-a-dataset --out /tmp/x")
            .unwrap_err()
            .contains("unknown dataset"));
        let g_path = tmp("err.bin");
        run(&format!("generate --family er --n 50 --deg 2 --out {}", g_path.display())).unwrap();
        let err = run(&format!("exact --graph {} --vertex 999", g_path.display())).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        // Any `SRS` binary that is not a bundle (such as a stream of a
        // retired format) fails as a binary, not as an edge list.
        for magic in ["SRSOLD01", "SRSBNDL0"] {
            std::fs::write(&g_path, [magic.as_bytes(), &[0xff; 12]].concat()).unwrap();
            let err = run(&format!("stats --graph {}", g_path.display())).unwrap_err();
            assert!(err.contains("binary format error"), "{magic}: {err}");
        }
        std::fs::remove_file(&g_path).ok();
    }

    #[test]
    fn usage_text_follows_only_argument_errors() {
        // Argument errors: unknown subcommand or flag, missing or
        // unparsable value.
        for line in [
            "frobnicate --x 1",
            "stats --graph g.bin --typo x",
            "stats",
            "query --graph",
            "generate --family web --n banana --out none.bin",
            "query --snapshot none.srs --vertex 1 --ball far",
        ] {
            let err = dispatch_line(line).unwrap_err();
            assert!(err.usage, "{line}: {err}");
        }

        // Runtime failures print only their error line: an I/O error...
        let err = dispatch_line("stats --graph /nonexistent/srs_none.bin").unwrap_err();
        assert!(!err.usage && err.message.contains("srs_none.bin"), "{err:?}");

        // ...an edit batch `srs delta` rejects, reported against the
        // batch rather than the snapshot...
        let (g_path, i_path, s_path) = (tmp("rt.bin"), tmp("rt.idx"), tmp("rt.srs"));
        let (edits, out) = (tmp("rt_edits.txt"), tmp("rt.srs.d0001"));
        run(&format!("generate --family web --n 120 --deg 4 --out {}", g_path.display())).unwrap();
        run(&format!("preprocess --graph {} --index {}", g_path.display(), i_path.display())).unwrap();
        run(&format!(
            "pack --graph {} --index {} --out {}",
            g_path.display(),
            i_path.display(),
            s_path.display()
        ))
        .unwrap();
        std::fs::write(&edits, "grow 4000000000\n").unwrap();
        let err = dispatch_line(&format!(
            "delta --snapshot {} --edits {} --out {}",
            s_path.display(),
            edits.display(),
            out.display()
        ))
        .unwrap_err();
        assert!(!err.usage, "{err:?}");
        assert!(err.message.starts_with(&format!("{}: edit batch rejected", edits.display())), "{err}");
        assert!(!err.message.contains("index format"), "{err}");
        assert!(!out.exists(), "a rejected batch writes no delta");

        // ...and a server that answers `srs ingest` with a 400.
        let config = srs_serve::ServerConfig {
            snapshot: s_path.clone(),
            addr: "127.0.0.1:0".into(),
            ..srs_serve::ServerConfig::default()
        };
        let server = srs_serve::Server::bind(config).unwrap();
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run());
        let err = dispatch_line(&format!("ingest --addr {addr} --edits {}", edits.display())).unwrap_err();
        assert!(!err.usage, "{err:?}");
        assert!(err.message.contains("ingest failed (400)"), "{err}");
        assert!(err.message.contains("edit batch rejected"), "{err}");
        let mut c = srs_serve::HttpClient::connect(addr.to_string()).unwrap();
        assert_eq!(c.post("/admin/quit").unwrap().status, 200);
        handle.join().unwrap().unwrap();
        for p in [&g_path, &i_path, &s_path, &edits, &out] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn theta_must_be_a_score() {
        // Options are parsed before any file is opened, so the missing
        // files below are never reached.
        for cmd in ["query --vertex 1", "batch-query --vertices 1"] {
            for bad in ["nan", "NaN", "-1", "inf", "-inf", "1.5"] {
                let err = run(&format!("{cmd} --graph none.bin --index none.idx --theta {bad}")).unwrap_err();
                assert!(err.contains("--theta"), "{cmd} --theta {bad}: {err}");
            }
        }
        let args = Args::parse(&["query".to_string(), "--theta".to_string(), "0".to_string()]).unwrap();
        assert_eq!(query_options(&args).unwrap().theta, Some(0.0));
    }

    #[test]
    fn estimator_flag_selects_the_scorer() {
        let parse = |v: &str| {
            let argv = ["query", "--estimator", v].map(String::from);
            query_options(&Args::parse(&argv).unwrap())
        };
        assert_eq!(
            query_options(&Args::parse(&["query".to_string()]).unwrap()).unwrap().estimator,
            Estimator::Head
        );
        assert_eq!(parse("head").unwrap().estimator, Estimator::Head);
        assert_eq!(parse("sampled").unwrap().estimator, Estimator::Sampled);
        let err = parse("exact").unwrap_err().to_string();
        assert!(err.contains("--estimator"), "{err}");
        // The head pushes and never walks; Algorithm 5 walks and never pushes.
        let g_path = tmp("est.bin");
        let i_path = tmp("est.idx");
        run(&format!("generate --family web --n 300 --deg 4 --out {}", g_path.display())).unwrap();
        run(&format!("preprocess --graph {} --index {}", g_path.display(), i_path.display())).unwrap();
        let counter = |out: &str, name: &str| -> u64 {
            let line =
                out.lines().find(|l| l.starts_with(name)).unwrap_or_else(|| panic!("no {name}: {out}"));
            line[name.len()..].trim().parse().unwrap()
        };
        for (estimator, pushes) in [("head", true), ("sampled", false)] {
            let out = run(&format!(
                "batch-query --graph {} --index {} --estimator {estimator} --queries 20 --k 5",
                g_path.display(),
                i_path.display()
            ))
            .unwrap();
            assert_eq!(counter(&out, "push edges") > 0, pushes, "{estimator}: {out}");
            assert_eq!(counter(&out, "walk steps") > 0, !pushes, "{estimator}: {out}");
            let fates = if pushes { "head scored" } else { "refine calls" };
            assert!(out.contains(fates), "{estimator}: {out}");
        }
        std::fs::remove_file(&g_path).ok();
        std::fs::remove_file(&i_path).ok();
    }

    #[test]
    fn retired_theta_only_flag_is_unknown() {
        // The scan prunes against θ alone, so the switch that chose that
        // is gone; an old invocation must fail rather than be ignored.
        for line in [
            "batch-query --snapshot none.srs --prune-theta-only --k 5",
            "batch-query --snapshot none.srs --prune-theta-only",
        ] {
            let err = run(line).unwrap_err();
            assert!(err.contains("unknown flag --prune-theta-only"), "{line}: {err}");
        }
    }

    #[test]
    fn retired_batch_window_flag_is_unknown() {
        // The dispatcher batches while busy and never lingers, so the
        // linger's knob is gone; an old invocation must fail rather than
        // be ignored.
        let err = run("serve --snapshot none.srs --batch-window-us 500").unwrap_err();
        assert!(err.contains("unknown flag --batch-window-us"), "{err}");
    }

    #[test]
    fn retired_linearized_tier_flags_are_unknown() {
        // The linearized serving tier and its flags are gone; each one
        // must fail loudly rather than be ignored. (Names are assembled
        // so a search for the retired identifiers finds only history.)
        let flag = |suffix: &str| format!("fast-{}{suffix}", "tier");
        for (cmd, suffixes) in [
            ("query", &["", "-degree", "-candidates"][..]),
            ("batch-query", &["", "-degree", "-candidates"][..]),
            ("serve", &[""][..]),
        ] {
            for suffix in suffixes {
                let name = flag(suffix);
                let err = run(&format!("{cmd} --snapshot none.srs --{name} 1")).unwrap_err();
                assert!(err.contains(&format!("unknown flag --{name}")), "{cmd} --{name}: {err}");
            }
        }
    }
}

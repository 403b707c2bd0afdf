//! `perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench --workload NAME --seed N --seconds S --steadiness RUNS
//! ```
//!
//! Run from the root of a checkout. It builds `srs` from that checkout,
//! generates every input from `--seed`, drives the program only through
//! the `srs` binary and HTTP, checks the answers, prints a report, and
//! ends with one JSON line: the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics of a separate traced run (`--trace 1`). See
//! `perfbench/README.md` for the workloads and the metric → layer map.

mod batch;
mod counters;
mod inputs;
mod json;
mod layers;
mod online;
mod procfs;
mod report;
mod serve;
mod srs;
mod stats;

use inputs::sub_seed;
use report::Report;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Setup (generate + preprocess + pack + first answer) repetitions per
/// run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Every workload's graph is generated from this fixed seed; `--seed`
/// varies the index build, the traffic and the edits. Copying-model web
/// graphs differ a lot in per-query cost from one generator seed to the
/// next, which would swamp any change to the program.
pub const GRAPH_SEED: u64 = 42;

enum Kind {
    Batch(batch::BatchSpec),
    Serve(online::ServeSpec),
}

struct Workload {
    name: &'static str,
    family: &'static str,
    n: u32,
    deg: u32,
    kind: Kind,
}

fn workloads() -> Vec<Workload> {
    vec![
        // Algorithm 5 as the paper runs it: enumeration and L1 bounds
        // dominate, the scan is small.
        Workload {
            name: "batch-social",
            family: "social",
            n: 20_000,
            deg: 8,
            kind: Kind::Batch(batch::BatchSpec {
                ball: None,
                chunk: 400,
                nominal_qps: 480.0,
                dominant: &["query.enumerate_ms", "query.bounds_ms"],
            }),
        },
        // A radius-2 candidate ball makes the wave scan and the
        // co-location kernel dominate.
        Workload {
            name: "batch-web-ball2",
            family: "web",
            n: 50_000,
            deg: 5,
            kind: Kind::Batch(batch::BatchSpec {
                ball: Some(2),
                chunk: 80,
                nominal_qps: 120.0,
                dominant: &["query.scan_ms"],
            }),
        },
        // Skewed reads the result cache absorbs: parse, coalescer linger,
        // cache and write dominate.
        Workload {
            name: "serve-zipf",
            family: "web",
            n: 50_000,
            deg: 5,
            kind: Kind::Serve(online::ServeSpec {
                zipf: true,
                rate: 300.0,
                readers: 2,
                edit_period: None,
                warmup: 4000,
                hit_ratio: (0.5, true),
            }),
        },
        // Uniform reads beside a writer: every ingest repairs the index,
        // persists a delta and swaps the dataset, emptying the cache.
        Workload {
            name: "serve-ingest",
            family: "web",
            n: 50_000,
            deg: 5,
            kind: Kind::Serve(online::ServeSpec {
                zipf: false,
                rate: 100.0,
                readers: 1,
                edit_period: Some(1.0),
                warmup: 0,
                hit_ratio: (0.25, false),
            }),
        },
    ]
}

/// What every workload module needs to run.
pub struct Ctx<'a> {
    pub srs: &'a Path,
    pub dir: &'a Path,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn setup_once(srs: &Path, dir: &Path, wl: &Workload, seed: u64) -> Result<[f64; 4], String> {
    let (n, deg, graph_seed) = (wl.n.to_string(), wl.deg.to_string(), GRAPH_SEED.to_string());
    let (_, t_gen) = srs::run(
        srs,
        dir,
        &[
            "generate",
            "--family",
            wl.family,
            "--n",
            &n,
            "--deg",
            &deg,
            "--seed",
            &graph_seed,
            "--out",
            "g.bin",
        ],
    )?;
    let index_seed = sub_seed(seed, "index").to_string();
    let (_, t_pre) =
        srs::run(srs, dir, &["preprocess", "--graph", "g.bin", "--index", "g.idx", "--seed", &index_seed])?;
    let (_, t_pack) =
        srs::run(srs, dir, &["pack", "--graph", "g.bin", "--index", "g.idx", "--out", "g.srs"])?;
    let t_first = match &wl.kind {
        Kind::Batch(_) => {
            srs::run(srs, dir, &["batch-query", "--snapshot", "g.srs", "--threads", "1", "--vertices", "0"])?
                .1
        }
        Kind::Serve(_) => {
            let (server, bind) = serve::Server::start(srs, dir, "g.srs", false)?;
            server.stop()?;
            bind
        }
    };
    Ok([t_gen, t_pre, t_pack, t_first])
}

fn run(root: &Path, wl: &Workload, seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let srs = srs::build(root)?;
    println!("workload {} seed {seed} seconds {seconds} trace {}", wl.name, trace as u8);
    let host: Vec<String> = procfs::host_block(root).into_iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("host: {}", host.join(" "));
    let dir = root.join(".perfbench_work").join(format!("{}-{seed}-{}", wl.name, std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let _cleanup = WorkDir(dir.clone());
    let mut report = Report::default();

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut parts = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        parts.push(setup_once(&srs, &dir, wl, seed)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let part = |i: usize| stats::median(&parts.iter().map(|p| p[i]).collect::<Vec<_>>());
    println!(
        "setup {}x: generate {:.4} s, preprocess {:.4} s, pack {:.4} s, first answer {:.4} s",
        SETUP_REPS,
        part(0),
        part(1),
        part(2),
        part(3)
    );
    if !trace {
        report.e2e("setup_s", "s", stats::median(&setups), SETUP_REPS);
    }
    let bytes = std::fs::read(dir.join("g.bin")).map_err(|e| e.to_string())?;
    let g = srs_graph::io::read_binary(&bytes[..]).map_err(|e| e.to_string())?;
    println!("graph: {} family, n={} m={}", wl.family, g.num_vertices(), g.num_edges());

    let ctx = Ctx { srs: &srs, dir: &dir, seed, seconds, trace };
    if trace {
        println!("per-layer (setup; generate: the srs generate process, median of {SETUP_REPS}; the rest in-process, median of 3):");
        report.layer("graph.generate_ms", "ms", part(0) * 1e3, SETUP_REPS);
        for (name, v) in layers::setup(&g, sub_seed(seed, "index"), &dir.join("g.srs")) {
            report.layer(&name, counters::unit(&name), v, 3);
        }
    }
    match &wl.kind {
        Kind::Batch(spec) => batch::run(&ctx, spec, &g, &mut report)?,
        Kind::Serve(spec) => online::run(&ctx, spec, &g, &mut report)?,
    }
    println!(
        "  {:<18} {:>14.4} {:<9} (n={}, answer mismatches included; exported as attempted/failed)",
        "error_rate",
        report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
        report.attempted
    );
    Ok(report)
}

/// `--steadiness N`: runs the workload N times on seeds `seed..seed+N`
/// and prints, per end-to-end metric, the median, the quartiles and the
/// quartile spread as a share of the median and of the metric's bound in
/// `BENCHMARK.json`.
fn steadiness(root: &Path, wl: &Workload, seed: u64, seconds: f64, runs: usize) -> Result<bool, String> {
    let bounds: Vec<(String, f64)> = std::fs::read_to_string(root.join("BENCHMARK.json"))
        .ok()
        .and_then(|t| json::parse(&t).ok())
        .map(|doc| {
            doc.get("end_to_end")
                .map(json::Value::as_array)
                .unwrap_or(&[])
                .iter()
                .filter_map(|m| Some((m.get("name")?.as_str()?.to_string(), m.get("bound")?.as_f64()?)))
                .collect()
        })
        .unwrap_or_default();
    let mut series: Vec<(String, Vec<f64>)> = Vec::new();
    let mut all_correct = true;
    let mut late = 0;
    for i in 0..runs {
        let r = run(root, wl, seed + i as u64, seconds, false)?;
        all_correct &= r.correct();
        late += r.generator_late as usize;
        for m in &r.end_to_end {
            match series.iter_mut().find(|(n, _)| *n == m.name) {
                Some((_, v)) => v.push(m.value),
                None => series.push((m.name.clone(), vec![m.value])),
            }
        }
    }
    println!("steadiness of {} over {runs} seeds from {seed}:", wl.name);
    println!(
        "  {:<18} {:>12} {:>12} {:>12} {:>8} {:>7} {:>9}",
        "metric", "median", "q1", "q3", "spread", "bound", "spread/b"
    );
    for (name, values) in &series {
        let med = stats::median(values);
        let (q1, q3) = stats::quartiles(values);
        let spread = if med != 0.0 { (q3 - q1) / med.abs() } else { 0.0 };
        let bound = bounds.iter().find(|(n, _)| n == name).map(|(_, b)| *b);
        let rel = bound.map(|b| format!("{:.3}", spread / b)).unwrap_or_else(|| "-".into());
        let b = bound.map(|b| format!("{b}")).unwrap_or_else(|| "-".into());
        println!("  {name:<18} {med:>12.4} {q1:>12.4} {q3:>12.4} {spread:>8.4} {b:>7} {rel:>9}");
    }
    println!("  runs whose open-loop generator ran late (invalid, included above): {late} of {runs}");
    Ok(all_correct)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    steadiness: Option<usize>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, steadiness: None };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--steadiness" => {
                a.steadiness = Some(value()?.parse().map_err(|e| format!("--steadiness: {e}"))?)
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match real_main(&argv) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    };
    std::process::exit(code);
}

fn real_main(argv: &[String]) -> Result<i32, String> {
    let args = parse_args(argv)?;
    let all = workloads();
    let names: Vec<&str> = all.iter().map(|w| w.name).collect();
    let wl = all
        .iter()
        .find(|w| w.name == args.workload)
        .ok_or_else(|| format!("--workload must be one of {}", names.join(", ")))?;
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    if let Some(runs) = args.steadiness {
        return Ok(if steadiness(&root, wl, args.seed, args.seconds, runs)? { 0 } else { 3 });
    }
    let report = run(&root, wl, args.seed, args.seconds, args.trace)?;
    println!("{}", report.json_line(args.trace));
    // Any answer mismatch fails the command, after the report is out.
    Ok(if report.correct() { 0 } else { 3 })
}

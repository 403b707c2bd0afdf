//! Table 4 — preprocess time, query time, all-pairs time, and index size
//! for the proposed method, Fogaras–Rácz, and Yu et al.
//!
//! Two kinds of columns:
//!
//! * **Measured** — wall-clock numbers on the scaled synthetic analogues
//!   (single-pair/single-source queries are the mean of
//!   `cfg.timing_queries` trials, as in the paper). Baselines run under
//!   `cfg.baseline_budget`; exceeding it prints `—` exactly like the
//!   paper's failed allocations.
//! * **Paper-scale projection** — each baseline's memory requirement at
//!   the *paper's* dataset size against the paper's machine (256 GB; the
//!   Fogaras–Rácz build needs transient working space, so its effective
//!   budget is lower). This reproduces which rows of Table 4 die and
//!   which survive without needing the hardware.
//!
//! The proposed method's preprocess and index columns cover the paper's
//! Algorithms 3 + 4: the serving index holds only the candidate index
//! (Algorithm 4), so the γ table (Algorithm 3) is built beside it and its
//! time and bytes are added in.

use super::Report;
use crate::{cache, metrics, ReproConfig};
use srs_baselines::fogaras::{FingerprintIndex, FogarasParams};
use srs_exact::{yu, ExactParams};
use srs_graph::datasets::DatasetSpec;
use srs_search::bounds::GammaTable;
use srs_search::{Dataset, Diagonal, QueryOptions, ServingEngine, SimRankParams, TopKIndex};
use std::time::Duration;

/// Datasets measured (paper order).
pub const DATASETS: [&str; 20] = [
    "ca-GrQc",
    "as20000102",
    "wiki-Vote",
    "ca-HepTh",
    "email-Enron",
    "soc-Epinions1",
    "soc-Slashdot0811",
    "soc-Slashdot0902",
    "email-EuAll",
    "web-Stanford",
    "web-NotreDame",
    "web-BerkStan",
    "web-Google",
    "dblp-2011",
    "in-2004",
    "flickr",
    "soc-LiveJournal1",
    "indochina-2004",
    "it-2004",
    "twitter-2010",
];

/// Paper machine memory (256 GB Xeon).
const PAPER_MACHINE_BYTES: u64 = 256 << 30;
/// Effective Fogaras–Rácz budget at paper scale: index construction holds
/// transient walk state several times the final index (the paper observed
/// failures from ~35 GB of final index on the 256 GB machine).
const PAPER_FR_BUDGET: u64 = 24 << 30;
/// Yu et al. measured runs are additionally capped by time: `O(T·nm)` with
/// a dense matrix stops being benchable (not just allocatable) past this.
const YU_TIME_CAP_N: u32 = 9_000;
/// All-pairs (proposed) measured only below this size — the paper likewise
/// omits all-pairs numbers for large networks.
const ALLPAIRS_CAP_N: u32 = 4_000;

/// One measured row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Dataset name.
    pub dataset: &'static str,
    /// Generated analogue size.
    pub n: u32,
    /// Generated analogue edges.
    pub m: u64,
    /// Proposed: preprocess wall time (γ table + candidate index).
    pub prop_preprocess: Duration,
    /// Proposed: mean query time (k = 20).
    pub prop_query: Duration,
    /// Proposed: all-pairs wall time (small graphs only).
    pub prop_allpairs: Option<Duration>,
    /// Proposed: index bytes (γ table + candidate index).
    pub prop_index: u64,
    /// Fogaras–Rácz: preprocess time + mean query time + index bytes
    /// (None = exceeded the measured budget).
    pub fr: Option<(Duration, Duration, u64)>,
    /// Yu et al.: all-pairs time + matrix bytes (None = budget/time cap).
    pub yu: Option<(Duration, u64)>,
    /// Paper-scale projection: does Fogaras–Rácz fit the paper machine?
    pub fr_fits_paper: bool,
    /// Paper-scale projection: does Yu et al. fit the paper machine?
    pub yu_fits_paper: bool,
}

/// Measures every dataset and renders the table.
pub fn run(cfg: &ReproConfig) -> Report {
    let mut r = Report::new("Table 4 — time and space: proposed vs Fogaras-Racz vs Yu et al.");
    r.line(format!(
        "{:<18} {:>8} {:>10} | {:>10} {:>10} {:>10} {:>9} | {:>10} {:>9} {:>9} | {:>10} {:>9} | {:>6} {:>6}",
        "dataset",
        "n",
        "m",
        "P.prep",
        "P.query",
        "P.allpairs",
        "P.index",
        "FR.prep",
        "FR.query",
        "FR.index",
        "Yu.all",
        "Yu.mem",
        "FR@paper",
        "Yu@paper"
    ));
    r.line("-".repeat(160));
    let mut csv = String::from(
        "dataset,n,m,prop_preprocess_s,prop_query_s,prop_allpairs_s,prop_index_bytes,fr_preprocess_s,fr_query_s,fr_index_bytes,yu_allpairs_s,yu_bytes,fr_fits_paper,yu_fits_paper\n",
    );
    for name in DATASETS {
        let row = measure_one(cfg, name);
        let od = |o: &Option<Duration>| o.map(metrics::fmt_duration).unwrap_or_else(|| "—".into());
        let fr_p = row.fr.map(|(p, _, _)| metrics::fmt_duration(p)).unwrap_or_else(|| "—".into());
        let fr_q = row.fr.map(|(_, q, _)| metrics::fmt_duration(q)).unwrap_or_else(|| "—".into());
        let fr_i = row.fr.map(|(_, _, b)| metrics::fmt_bytes(b)).unwrap_or_else(|| "—".into());
        let yu_t = row.yu.map(|(t, _)| metrics::fmt_duration(t)).unwrap_or_else(|| "—".into());
        let yu_m = row.yu.map(|(_, b)| metrics::fmt_bytes(b)).unwrap_or_else(|| "—".into());
        r.line(format!(
            "{:<18} {:>8} {:>10} | {:>10} {:>10} {:>10} {:>9} | {:>10} {:>9} {:>9} | {:>10} {:>9} | {:>6} {:>6}",
            row.dataset,
            row.n,
            row.m,
            metrics::fmt_duration(row.prop_preprocess),
            metrics::fmt_duration(row.prop_query),
            od(&row.prop_allpairs),
            metrics::fmt_bytes(row.prop_index),
            fr_p,
            fr_q,
            fr_i,
            yu_t,
            yu_m,
            if row.fr_fits_paper { "ok" } else { "—" },
            if row.yu_fits_paper { "ok" } else { "—" },
        ));
        csv.push_str(&format!(
            "{},{},{},{:.4},{:.6},{},{},{},{},{},{},{},{},{}\n",
            row.dataset,
            row.n,
            row.m,
            row.prop_preprocess.as_secs_f64(),
            row.prop_query.as_secs_f64(),
            row.prop_allpairs.map(|d| format!("{:.4}", d.as_secs_f64())).unwrap_or_default(),
            row.prop_index,
            row.fr.map(|(p, _, _)| format!("{:.4}", p.as_secs_f64())).unwrap_or_default(),
            row.fr.map(|(_, q, _)| format!("{:.6}", q.as_secs_f64())).unwrap_or_default(),
            row.fr.map(|(_, _, b)| b.to_string()).unwrap_or_default(),
            row.yu.map(|(t, _)| format!("{:.4}", t.as_secs_f64())).unwrap_or_default(),
            row.yu.map(|(_, b)| b.to_string()).unwrap_or_default(),
            row.fr_fits_paper,
            row.yu_fits_paper,
        ));
        // Free the big per-dataset artifacts before the next one.
        cache::clear();
    }
    r.line(String::new());
    r.line("— in measured columns: exceeded the configured baseline budget (or the Yu");
    r.line("time cap); @paper columns: memory projection at the paper's full dataset");
    r.line("sizes against its 256 GB machine. The proposed method's index stays O(n).");
    r.csv.push(("table4_performance.csv".into(), csv));
    r
}

/// Measures one dataset row.
pub fn measure_one(cfg: &ReproConfig, name: &'static str) -> Row {
    let spec = srs_graph::datasets::by_name(name).expect("registry dataset");
    let scale = cfg.effective_scale(spec.paper_n);
    let g = cache::graph(spec, scale, cfg.seed);
    let n = g.num_vertices();
    let m = g.num_edges();
    let threads = std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1);
    let params = SimRankParams::default();
    let opts = QueryOptions::default();

    // Proposed method.
    let (index, index_time) = metrics::timed(|| TopKIndex::build(&g, &params, cfg.seed ^ 0x40));
    let diag = Diagonal::paper_default(params.c);
    let (gamma, gamma_time) =
        metrics::timed(|| GammaTable::build(&g, &params, &diag, cfg.seed ^ 0x43, threads));
    let prop_preprocess = index_time + gamma_time;
    let prop_index = index.memory_bytes() + gamma.memory_bytes();
    let queries = srs_graph::stats::sample_query_vertices(&g, cfg.timing_queries, cfg.seed ^ 0x41);
    let dataset = Dataset::from_arcs(g.clone(), index.into()).expect("index built for this graph");
    // Single engine worker so the mean reflects per-query latency, not
    // parallel throughput (matching the paper's sequential query column).
    let engine = ServingEngine::with_threads(dataset.clone(), 1);
    let batch = engine.query_batch(&queries, 20, &opts);
    let prop_query = batch.latency.mean;
    let prop_allpairs = (n <= ALLPAIRS_CAP_N)
        .then(|| metrics::timed(|| srs_search::all_vertices::all_topk(&dataset, 20, &opts, threads)).1);

    // Fogaras-Racz under the measured budget.
    let fr_params = FogarasParams { c: params.c, t: params.t, r_prime: 100 };
    let (fr_built, fr_prep) =
        metrics::timed(|| FingerprintIndex::build(&g, &fr_params, cfg.seed ^ 0x42, cfg.baseline_budget));
    let fr = fr_built.ok().map(|idx| {
        let (_, q_total) = metrics::timed(|| {
            for &u in &queries {
                std::hint::black_box(idx.top_k(u, 20));
            }
        });
        (fr_prep, q_total / queries.len().max(1) as u32, idx.memory_bytes())
    });

    // Yu et al. under the measured budget + time cap.
    let yu = if n <= YU_TIME_CAP_N {
        match metrics::timed(|| yu::run(&g, &ExactParams { c: params.c, t: params.t }, cfg.baseline_budget)) {
            (Ok(res), t) => Some((t, res.memory_bytes)),
            (Err(_), _) => None,
        }
    } else {
        // Over the budget or the time cap either way; rendered as —.
        None
    };

    Row {
        dataset: name,
        n,
        m,
        prop_preprocess,
        prop_query,
        prop_allpairs,
        prop_index,
        fr,
        yu,
        fr_fits_paper: FingerprintIndex::required_bytes(spec.paper_n, &fr_params) <= PAPER_FR_BUDGET,
        yu_fits_paper: yu::required_bytes(spec.paper_n) <= PAPER_MACHINE_BYTES,
    }
}

/// The paper-scale projection on its own (cheap; used by tests and the
/// EXPERIMENTS.md narrative).
pub fn paper_projection(spec: &DatasetSpec) -> (bool, bool) {
    let fr_params = FogarasParams::default();
    (
        FingerprintIndex::required_bytes(spec.paper_n, &fr_params) <= PAPER_FR_BUDGET,
        yu::required_bytes(spec.paper_n) <= PAPER_MACHINE_BYTES,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projection_matches_paper_failures() {
        // The paper's Table 4: Yu et al. succeeds through soc-Slashdot0902
        // and fails from email-EuAll on; Fogaras-Racz succeeds through
        // soc-LiveJournal1 and fails from indochina-2004 on.
        let by = |n: &str| srs_graph::datasets::by_name(n).unwrap();
        assert_eq!(paper_projection(by("soc-Slashdot0902")), (true, true));
        assert!(!paper_projection(by("email-EuAll")).1);
        assert!(!paper_projection(by("web-Stanford")).1);
        assert!(paper_projection(by("soc-LiveJournal1")).0);
        assert!(!paper_projection(by("indochina-2004")).0);
        assert!(!paper_projection(by("it-2004")).0);
        assert!(!paper_projection(by("twitter-2010")).0);
    }

    #[test]
    fn measured_row_small_dataset() {
        let cfg = ReproConfig {
            max_vertices: 800,
            timing_queries: 3,
            baseline_budget: 1 << 30,
            ..Default::default()
        };
        let row = measure_one(&cfg, "ca-GrQc");
        assert!(row.n > 0 && row.m > 0);
        assert!(row.prop_index > 0);
        assert!(row.fr.is_some(), "small graph must fit the FR budget");
        assert!(row.yu.is_some(), "small graph must fit the Yu budget");
        assert!(row.prop_allpairs.is_some());
        // The FR index must be much larger than the proposed index — the
        // central space claim.
        let fr_bytes = row.fr.unwrap().2;
        assert!(fr_bytes > 3 * row.prop_index, "FR {} vs proposed {}", fr_bytes, row.prop_index);
        crate::cache::clear();
    }

    #[test]
    fn measured_budget_failure() {
        let cfg = ReproConfig {
            max_vertices: 3_000,
            timing_queries: 2,
            baseline_budget: 64 << 10, // 64 KB: everything fails
            ..Default::default()
        };
        let row = measure_one(&cfg, "wiki-Vote");
        assert!(row.fr.is_none());
        assert!(row.yu.is_none());
        crate::cache::clear();
    }
}

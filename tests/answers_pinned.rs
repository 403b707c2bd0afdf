//! Answers pinned to a committed fixture.
//!
//! Every other bit-identity suite compares the current code with itself
//! (across threads, wave widths, load modes, ...). This one compares it
//! with the answers a known-good build produced: hits (vertex and
//! shortest-roundtrip score) plus the five per-query fate counters, for
//! a small social and a small web graph under a matrix of query options
//! (`candidate_ball` none/1/2/3 × `wave_width` 1/32), and for the social
//! graph with `d_max` = 3 < `T` − 1. A change
//! that claims "answers are byte-identical" must leave
//! `tests/fixtures/answers_pinned.tsv` untouched.
//!
//! A second fixture, `tests/fixtures/snapshot_fingerprints.tsv`, pins the
//! preprocess artifact itself: the fingerprint of every section of the
//! `pack` output (parameters, candidate index, graph) of each dataset,
//! and of the whole bundle. The candidate index is built from walks, so a
//! walk kernel that draws differently moves these bytes even where the
//! answers above happen not to move. The serving index holds no γ table
//! (Algorithm 3), so no γ section may appear.
//!
//! To regenerate a fixture (only when answers or index bytes are *meant*
//! to change, and say so in the change log):
//!
//! ```sh
//! SRS_PIN_WRITE=1 cargo test -q --test answers_pinned answers_match
//! SRS_PIN_WRITE=1 cargo test -q --test answers_pinned snapshot_fingerprints
//! ```

use simrank_search::graph::container::BundleReader;
use simrank_search::graph::{gen, stats, Graph};
use simrank_search::search::snapshot::pack_to_bytes;
use simrank_search::search::{Dataset, Diagonal, QueryOptions, ServingEngine, SimRankParams, TopKIndex};
use std::fmt::Write as _;
use std::sync::OnceLock;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/answers_pinned.tsv");
const FINGERPRINTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/snapshot_fingerprints.tsv");

/// The option matrix: label and options.
fn option_matrix() -> Vec<(String, QueryOptions)> {
    let mut m = Vec::new();
    for ball in [None, Some(1), Some(2), Some(3)] {
        for width in [1u32, 32] {
            let label = format!("ball={}/w={width}", ball.map_or("none".to_string(), |b: u32| b.to_string()));
            m.push((label, QueryOptions { candidate_ball: ball, wave_width: width, ..Default::default() }));
        }
    }
    m
}

/// A pinned dataset: name, graph, its index, and how many rows of the
/// option matrix it answers.
struct Pinned {
    name: &'static str,
    graph: Graph,
    index: TopKIndex,
    options: usize,
}

/// The pinned datasets, built once per test binary.
fn datasets() -> &'static [Pinned] {
    static SETS: OnceLock<Vec<Pinned>> = OnceLock::new();
    SETS.get_or_init(|| {
        let n = 1200;
        // `srs generate --family social` shape: windowed preferential
        // attachment, window = max(2·n·deg/100, 100).
        let social = gen::preferential_attachment_windowed(n, 6, 144, 42);
        let web = gen::copying_web(n, 4, 0.8, 42);
        let paper = SimRankParams::default();
        // More series terms than d_max + 1: the L1 table must exclude walk
        // positions beyond d_max.
        let short = SimRankParams { d_max: 3, ..Default::default() };
        let all = option_matrix().len();
        [("social", &social, &paper, all), ("web", &web, &paper, all), ("social/d_max=3", &social, &short, 4)]
            .into_iter()
            .map(|(name, g, params, options)| Pinned {
                name,
                graph: g.clone(),
                index: TopKIndex::build_with(g, params, Diagonal::paper_default(params.c), 7, 2),
                options,
            })
            .collect()
    })
}

/// One line per (dataset, options, query): fates, then `vertex:score` hits.
fn answers() -> String {
    let matrix = option_matrix();
    let mut body = String::new();
    for Pinned { name, graph: g, index: idx, options } in datasets() {
        let engine = ServingEngine::with_threads(Dataset::new(g.clone(), idx.clone()).unwrap(), 2);
        let queries = stats::sample_query_vertices(g, 40, 3);
        for (label, opts) in &matrix[..*options] {
            let batch = engine.query_batch(&queries, 20, opts);
            for (u, r) in queries.iter().zip(&batch.results) {
                let s = &r.stats;
                let _ = write!(
                    body,
                    "{name}\t{label}\t{u}\t{} {} {} {} {} {}",
                    s.candidates, s.pruned_distance, s.pruned_bounds, s.pruned_coarse, s.refined, s.reported
                );
                for h in &r.hits {
                    let _ = write!(body, "\t{}:{}", h.vertex, h.score);
                }
                body.push('\n');
            }
        }
    }
    body
}

/// One line per (dataset, section) of the `pack` output: the section's
/// fingerprint (tag, length, payload checksum), then the whole bundle's.
fn snapshot_fingerprints() -> String {
    let mut body = String::new();
    for d in datasets() {
        let r = BundleReader::open(pack_to_bytes(&d.graph, &d.index)).expect("pack output opens");
        for i in 0..r.num_sections() {
            let tag = r.section_tag(i).expect("section in range");
            let fp = r.section_fingerprint_at(i).expect("section in range");
            let _ = writeln!(body, "{}\t{tag}\t{fp:016x}", d.name);
        }
        let _ = writeln!(body, "{}\tbundle\t{:016x}", d.name, r.fingerprint());
    }
    body
}

/// Compares `got` with the fixture at `path` line by line, or rewrites
/// the fixture when `SRS_PIN_WRITE` is set.
fn check_fixture(path: &str, got: &str, what: &str) {
    if std::env::var_os("SRS_PIN_WRITE").is_some() {
        std::fs::create_dir_all(std::path::Path::new(path).parent().unwrap()).unwrap();
        std::fs::write(path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(path).expect("pinned fixture missing");
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "line {} differs from the pinned {what}", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "line count differs from the pinned {what}");
    assert!(got == want, "{what} differ from the pinned fixture");
}

#[test]
fn answers_match_the_pinned_fixture() {
    let got = answers();
    assert!(got.lines().any(|l| l.split('\t').count() > 3), "the matrix must produce some hits");
    check_fixture(FIXTURE, &got, "answers");
}

#[test]
fn snapshot_fingerprints_match_the_pinned_fixture() {
    let got = snapshot_fingerprints();
    for section in ["i.cand_off", "i.cand_ent"] {
        assert!(got.contains(&format!("\t{section}\t")), "no {section} section pinned:\n{got}");
    }
    assert!(!got.contains("\ti.gamma\t"), "the serving index must not pack a γ table:\n{got}");
    check_fixture(FINGERPRINTS, &got, "snapshot fingerprints");
}

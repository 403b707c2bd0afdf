//! Answers pinned to a committed fixture.
//!
//! Every other bit-identity suite compares the current code with itself
//! (across threads, wave widths, load modes, ...). This one compares it
//! with the answers a known-good build produced: hits (vertex and
//! shortest-roundtrip score) plus the five per-query fate counters, for
//! a small social and a small web graph under a matrix of Algorithm 5
//! options (`candidate_ball` none/1/2/3 × `wave_width` 1/32), and for the
//! social graph with `d_max` = 3 < `T` − 1. The exact-head rows (the
//! default estimator, label `head`) follow, one block per graph. A change
//! that claims "answers are byte-identical" must leave
//! `tests/fixtures/answers_pinned.tsv` untouched.
//!
//! A second fixture, `tests/fixtures/snapshot_fingerprints.tsv`, pins the
//! preprocess artifact itself: the fingerprint of every section of the
//! `pack` output (parameters, candidate index, graph) of each dataset,
//! and of the whole bundle. Each is hashed from the payload bytes
//! (FNV-1a 64, as a format-v1 table stores it) rather than taken from
//! the checksum the bundle stores, so a format version that changes only
//! the stored checksums leaves the pin in place. The candidate index is built from walks, so a
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

use simrank_search::graph::container::{fnv1a64, fold_fingerprints, section_fingerprint, BundleReader};
use simrank_search::graph::{gen, stats, Graph};
use simrank_search::search::persist::SEC_MANIFEST;
use simrank_search::search::snapshot::pack_to_bytes;
use simrank_search::search::{Dataset, Diagonal, QueryOptions, ServingEngine, SimRankParams, TopKIndex};
use std::fmt::Write as _;
use std::sync::OnceLock;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/answers_pinned.tsv");
const FINGERPRINTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/snapshot_fingerprints.tsv");

/// The Algorithm 5 option matrix: label and options.
fn option_matrix() -> Vec<(String, QueryOptions)> {
    let mut m = Vec::new();
    for ball in [None, Some(1), Some(2), Some(3)] {
        for width in [1u32, 32] {
            let label = format!("ball={}/w={width}", ball.map_or("none".to_string(), |b: u32| b.to_string()));
            m.push((
                label,
                QueryOptions { candidate_ball: ball, wave_width: width, ..QueryOptions::sampled() },
            ));
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
/// The Algorithm 5 matrix first, then the exact head on each graph (the
/// head reads no index parameter, so `d_max` = 3 adds no head row).
fn answers() -> String {
    let matrix = option_matrix();
    let head = [("head".to_string(), QueryOptions::default())];
    let mut body = String::new();
    let all = datasets();
    let runs = all.iter().map(|d| (d, &matrix[..d.options])).chain(all[..2].iter().map(|d| (d, &head[..])));
    for (Pinned { name, graph: g, index: idx, .. }, rows) in runs {
        let engine = ServingEngine::with_threads(Dataset::new(g.clone(), idx.clone()).unwrap(), 2);
        let queries = stats::sample_query_vertices(g, 40, 3);
        for (label, opts) in rows {
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
/// fingerprint (tag, length, FNV-1a 64 of the payload bytes), then the
/// fold of those. That is the table a format-v1 writer stores for the
/// same payloads, so the pin tracks the payload bytes whatever checksum
/// the current format stores. The manifest's shard fingerprints fold
/// stored checksums, so they are re-derived the v1 way before its
/// payload is hashed; the loader cross-checks the stored ones.
fn snapshot_fingerprints() -> String {
    let v1_print =
        |tag: &str, payload: &[u8]| section_fingerprint(tag, payload.len() as u64, fnv1a64(payload));
    let mut body = String::new();
    for d in datasets() {
        let r = BundleReader::open(pack_to_bytes(&d.graph, &d.index)).expect("pack output opens");
        let print_of = |tag: &str| v1_print(tag, r.bytes(tag).expect("shard section present"));
        let mut fps = Vec::new();
        for i in 0..r.num_sections() {
            let tag = r.section_tag(i).expect("section in range");
            let mut payload = r.bytes(tag).expect("section in range").to_vec();
            if tag == SEC_MANIFEST {
                // Version and shard count, then (lo, hi, fingerprint) per shard.
                for (s, shard) in payload[8..].chunks_exact_mut(16).enumerate() {
                    let fp = fold_fingerprints(
                        [format!("i.sinv_off.{s}"), format!("i.sinv_ent.{s}")].map(|t| print_of(&t)),
                    );
                    shard[8..].copy_from_slice(&fp.to_le_bytes());
                }
            }
            let fp = v1_print(tag, &payload);
            let _ = writeln!(body, "{}\t{tag}\t{fp:016x}", d.name);
            fps.push(fp);
        }
        let _ = writeln!(body, "{}\tbundle\t{:016x}", d.name, fold_fingerprints(fps));
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

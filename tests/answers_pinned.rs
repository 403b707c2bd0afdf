//! Answers pinned to a committed fixture.
//!
//! Every other bit-identity suite compares the current code with itself
//! (across threads, wave widths, load modes, ...). This one compares it
//! with the answers a known-good build produced: hits (vertex and
//! shortest-roundtrip score) plus the five per-query fate counters, for
//! a small social and a small web graph under a matrix of query options
//! (`candidate_ball` none/1/2/3 × `wave_width` 1/32, plus `kth_prune`
//! off), and for the social graph with `d_max` = 3 < `T` − 1. A change
//! that claims "answers are byte-identical" must leave
//! `tests/fixtures/answers_pinned.tsv` untouched.
//!
//! To regenerate the fixture (only when answers are *meant* to change,
//! and say so in the change log):
//!
//! ```sh
//! SRS_PIN_WRITE=1 cargo test -q --test answers_pinned
//! ```

use simrank_search::graph::{gen, stats};
use simrank_search::search::{Diagonal, QueryEngine, QueryOptions, SimRankParams, TopKIndex};
use std::fmt::Write as _;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/answers_pinned.tsv");

/// The option matrix: label and options.
fn option_matrix() -> Vec<(String, QueryOptions)> {
    let mut m = Vec::new();
    for ball in [None, Some(1), Some(2), Some(3)] {
        for width in [1u32, 32] {
            let label = format!("ball={}/w={width}", ball.map_or("none".to_string(), |b: u32| b.to_string()));
            m.push((label, QueryOptions { candidate_ball: ball, wave_width: width, ..Default::default() }));
        }
    }
    m.push((
        "ball=none/w=32/kth_prune=off".to_string(),
        QueryOptions { kth_prune: false, ..Default::default() },
    ));
    m
}

/// One line per (dataset, options, query): fates, then `vertex:score` hits.
fn answers() -> String {
    let n = 1200;
    // `srs generate --family social` shape: windowed preferential
    // attachment, window = max(2·n·deg/100, 100).
    let social = gen::preferential_attachment_windowed(n, 6, 144, 42);
    let web = gen::copying_web(n, 4, 0.8, 42);
    let paper = SimRankParams::default();
    // More series terms than d_max + 1: the L1 table must exclude walk
    // positions beyond d_max.
    let short = SimRankParams { d_max: 3, ..Default::default() };
    let matrix = option_matrix();
    let datasets = [
        ("social", &social, &paper, &matrix[..]),
        ("web", &web, &paper, &matrix[..]),
        ("social/d_max=3", &social, &short, &matrix[..4]),
    ];
    let mut body = String::new();
    for (name, g, params, options) in datasets {
        let idx = TopKIndex::build_with(g, params, Diagonal::paper_default(params.c), 7, 2);
        let engine = QueryEngine::with_threads(g, &idx, 2);
        let queries = stats::sample_query_vertices(g, 40, 3);
        for (label, opts) in options {
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

#[test]
fn answers_match_the_pinned_fixture() {
    let got = answers();
    if std::env::var_os("SRS_PIN_WRITE").is_some() {
        std::fs::create_dir_all(std::path::Path::new(FIXTURE).parent().unwrap()).unwrap();
        std::fs::write(FIXTURE, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(FIXTURE).expect("pinned fixture missing");
    assert!(got.lines().any(|l| l.split('\t').count() > 3), "the matrix must produce some hits");
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "line {} differs from the pinned answers", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "line count differs from the pinned answers");
    assert!(got == want, "answers differ from the pinned fixture");
}

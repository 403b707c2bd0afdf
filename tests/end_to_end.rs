//! End-to-end pipeline tests through the `simrank-search` facade:
//! dataset generation → preprocess → persistence → query → accuracy
//! against the deterministic solvers.

use simrank_search::exact::{diagonal, linearized, ExactParams};
use simrank_search::graph::{datasets, stats};
use simrank_search::search::topk::QueryContext;
use simrank_search::search::{persist, QueryOptions, SimRankParams, TopKIndex};

#[test]
fn dataset_to_query_pipeline_web() {
    let spec = datasets::by_name("web-NotreDame").expect("registry dataset");
    let g = spec.generate(0.01, 5);
    let params = SimRankParams { r_bounds: 1_000, ..Default::default() };
    let index = TopKIndex::build(&g, &params, 3);

    // Persist through a real file.
    let path = std::env::temp_dir().join(format!("srs_e2e_{}.idx", std::process::id()));
    persist::save(&index, std::fs::File::create(&path).unwrap()).unwrap();
    let index = persist::load(std::fs::File::open(&path).unwrap()).unwrap();
    std::fs::remove_file(&path).ok();

    // Query accuracy vs the deterministic linearized ranking.
    let ep = ExactParams::new(params.c, params.t);
    let d = diagonal::uniform(g.num_vertices() as usize, params.c);
    let mut ctx = QueryContext::new(&g, &index);
    let mut found = 0usize;
    let mut wanted = 0usize;
    for u in stats::sample_query_vertices(&g, 20, 9) {
        let exact = linearized::single_source(&g, u, &ep, &d);
        let res = ctx.query(u, 10, &QueryOptions::default());
        let got: Vec<u32> = res.hits.iter().map(|h| h.vertex).collect();
        let mut truth: Vec<(f64, u32)> = exact
            .iter()
            .enumerate()
            .filter(|&(v, &s)| v as u32 != u && s >= 0.05)
            .map(|(v, &s)| (s, v as u32))
            .collect();
        truth.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
        truth.truncate(10);
        wanted += truth.len();
        found += truth.iter().filter(|(_, v)| got.contains(v)).count();
    }
    assert!(wanted > 0, "test workload produced no high-similarity pairs");
    let recall = found as f64 / wanted as f64;
    assert!(recall >= 0.7, "end-to-end recall {recall} ({found}/{wanted})");
}

#[test]
fn all_vertices_matches_individual_queries() {
    let g = simrank_search::graph::gen::copying_web(150, 4, 0.8, 13);
    let params = SimRankParams { r_bounds: 500, ..Default::default() };
    let index = TopKIndex::build(&g, &params, 1);
    let opts = QueryOptions::default();
    let dataset = simrank_search::search::Dataset::new(g.clone(), index.clone()).unwrap();
    let (all, stats) = simrank_search::search::all_vertices::all_topk(&dataset, 5, &opts, 3);
    assert_eq!(stats.queries, 150);
    let mut ctx = QueryContext::new(&g, &index);
    for u in [0u32, 42, 149] {
        assert_eq!(all[u as usize], ctx.query(u, 5, &opts).hits, "u={u}");
    }
}

#[test]
fn facade_reexports_whole_api() {
    // The facade must expose every subsystem a downstream user needs.
    let g = simrank_search::graph::gen::fixtures::claw();
    let _ = simrank_search::mc::Pcg32::new(1, 1);
    let _ = simrank_search::exact::naive::all_pairs(&g, &ExactParams::new(0.8, 4));
    let _ = simrank_search::baselines::fogaras::FingerprintIndex::build(
        &g,
        &simrank_search::baselines::fogaras::FogarasParams::default(),
        1,
        u64::MAX,
    )
    .unwrap();
    let params = SimRankParams::default();
    let idx = TopKIndex::build(&g, &params, 1);
    let res = idx.query(&g, 1, 3, &QueryOptions::default());
    assert!(res.hits.len() <= 3);
}

#[test]
fn snap_edge_list_roundtrip_through_pipeline() {
    // Write a generated graph as a SNAP-style edge list, reload it, and
    // verify the search pipeline produces identical results on both.
    let g = simrank_search::graph::gen::copying_web(200, 4, 0.8, 21);
    let mut buf = Vec::new();
    simrank_search::graph::io::write_edge_list(&g, &mut buf).unwrap();
    // The loader remaps ids in first-seen order, so the reloaded graph is
    // isomorphic, not identical: verify the invariants and that the whole
    // pipeline runs on the reloaded graph.
    let g2 = simrank_search::graph::io::read_edge_list(&buf[..]).unwrap();
    assert_eq!(g.num_vertices(), g2.num_vertices());
    assert_eq!(g.num_edges(), g2.num_edges());
    let degs = |g: &simrank_search::graph::Graph| {
        let mut d: Vec<(u32, u32)> =
            (0..g.num_vertices()).map(|v| (g.in_degree(v), g.out_degree(v))).collect();
        d.sort_unstable();
        d
    };
    assert_eq!(degs(&g), degs(&g2));
    let params = SimRankParams { r_bounds: 300, ..Default::default() };
    let idx = TopKIndex::build(&g2, &params, 4);
    let res = idx.query(&g2, 7, 5, &QueryOptions::default());
    assert!(res.hits.len() <= 5);
}

#[test]
fn zero_screen_skips_only_pairs_whose_estimate_is_exactly_zero() {
    // A web graph with a radius-2 candidate ball: most coarse-stage
    // candidates there can never co-locate with the query's walks, and
    // the scan sets their estimates to 0.0 without walking them.
    let g = simrank_search::graph::gen::copying_web(2000, 5, 0.8, 42);
    let params = SimRankParams { r_bounds: 1_000, ..Default::default() };
    let index = TopKIndex::build(&g, &params, 3);
    let ep = ExactParams::new(params.c, params.t);
    let d = diagonal::uniform(g.num_vertices() as usize, params.c);
    let mut ctx = QueryContext::new(&g, &index);
    let opts = QueryOptions { candidate_ball: Some(2), explain: true, ..QueryOptions::sampled() };
    let (mut screened, mut meets) = (0, 0);
    for u in stats::sample_query_vertices(&g, 20, 11) {
        let res = ctx.query(u, 10, &opts);
        let s = res.stats;
        assert!(s.zero_screened <= s.pruned_coarse + s.refined, "u={u}: {s:?}");
        // At most one meet set, and only for a query with candidates.
        assert!(s.meet_sets <= u64::from(s.candidates > 0), "u={u}: {s:?}");
        meets += s.meet_sets;
        // Every screened candidate is an exact structural zero whose
        // estimate fate records the value +0.0, so at least that many
        // such records exist.
        let exact = linearized::single_source(&g, u, &ep, &d);
        let zero_records = res
            .explain
            .expect("explain requested")
            .records
            .iter()
            .filter(|r| matches!(r.fate.as_str(), "pruned_coarse" | "refined_below_theta"))
            .filter(|r| exact[r.vertex as usize] == 0.0)
            .inspect(|r| assert_eq!(r.value.to_bits(), 0, "u={u} v={}: {}", r.vertex, r.value))
            .count() as u64;
        assert!(
            s.zero_screened <= zero_records,
            "u={u}: {} screened, {zero_records} zero records",
            s.zero_screened
        );
        screened += s.zero_screened;
    }
    assert!(screened > 0, "the fixture must exercise the screen");
    assert!(meets > 0, "the fixture must build meet sets");
}

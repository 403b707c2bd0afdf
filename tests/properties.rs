//! Property-based tests (proptest) on the core invariants, across random
//! graphs rather than hand-picked fixtures.

use proptest::prelude::*;
use simrank_search::exact::{diagonal, linearized, naive, partial_sums, ExactParams};
use simrank_search::graph::bfs::{distances, Direction, UNREACHED};
use simrank_search::graph::{Graph, GraphBuilder};
use simrank_search::search::bounds::GammaTable;
use simrank_search::search::{Diagonal, SimRankParams};

/// Strategy: a random digraph with 2..=14 vertices and a sprinkle of edges.
fn small_graph() -> impl Strategy<Value = Graph> {
    (2u32..=14).prop_flat_map(|n| {
        let max_edges = (n * (n - 1)) as usize;
        (Just(n), proptest::collection::vec((0..n, 0..n), 0..=max_edges.min(60))).prop_map(|(n, edges)| {
            let mut b = GraphBuilder::new(n);
            for (u, v) in edges {
                b.add_edge(u, v);
            }
            b.build().expect("edges are in range")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn simrank_axioms_hold(g in small_graph(), c in 0.2f64..0.9) {
        let params = ExactParams::new(c, 12);
        let s = naive::all_pairs(&g, &params);
        let n = g.num_vertices() as usize;
        for i in 0..n {
            // s(u,u) = 1
            prop_assert!((s.get(i, i) - 1.0).abs() < 1e-12);
            for j in 0..n {
                // symmetry and range
                prop_assert!((s.get(i, j) - s.get(j, i)).abs() < 1e-12);
                prop_assert!(s.get(i, j) >= 0.0 && s.get(i, j) <= 1.0 + 1e-12);
            }
        }
    }

    #[test]
    fn distance_decay_bound(g in small_graph()) {
        // s(u,v) ≤ c^⌈d/2⌉ with undirected distance d: a first meeting at
        // time τ implies d ≤ 2τ. (This is the sound form of the paper's
        // §6 claim; see SimRankParams::distance_bound.)
        let params = ExactParams::new(0.6, 14);
        let s = naive::all_pairs(&g, &params);
        let n = g.num_vertices();
        for u in 0..n {
            let dist = distances(&g, u, Direction::Undirected);
            for v in 0..n {
                if u == v { continue; }
                let bound = match dist[v as usize] {
                    UNREACHED => 0.0,
                    d => params.c.powi(d.div_ceil(2) as i32),
                };
                prop_assert!(
                    s.get(u as usize, v as usize) <= bound + 1e-9,
                    "s({u},{v}) = {} > {}", s.get(u as usize, v as usize), bound
                );
            }
        }
    }

    #[test]
    fn solvers_agree(g in small_graph(), c in 0.2f64..0.9) {
        let params = ExactParams::new(c, 10);
        let a = naive::all_pairs(&g, &params);
        let b = partial_sums::all_pairs(&g, &params, 2);
        prop_assert!(a.max_abs_diff(&b) < 1e-10);
    }

    #[test]
    fn linearized_single_pair_matches_single_source(g in small_graph()) {
        let params = ExactParams::default();
        let n = g.num_vertices();
        let d = diagonal::uniform(n as usize, params.c);
        for u in 0..n.min(4) {
            let row = linearized::single_source(&g, u, &params, &d);
            for v in 0..n {
                if u == v { continue; }
                let sp = linearized::single_pair(&g, u, v, &params, &d);
                prop_assert!((sp - row[v as usize]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn exact_diagonal_in_proposition2_range(g in small_graph(), c in 0.2f64..0.85) {
        let params = ExactParams::new(c, 25);
        // Some degenerate graphs make the system near-singular; skip those.
        if let Ok(d) = diagonal::estimate(&g, &params, 1e-6, 100) {
            prop_assert!(diagonal::in_proposition2_range(&d, c), "d = {d:?} c = {c}");
        }
    }

    #[test]
    fn l2_bound_dominates_linearized_scores(g in small_graph()) {
        // With generous walk budgets the Monte-Carlo L2 bound must
        // dominate the deterministic scores up to small noise.
        let sp = SimRankParams { r_gamma: 300, ..Default::default() };
        let gt = GammaTable::build(&g, &sp, &Diagonal::paper_default(sp.c), 5, 1);
        let ep = ExactParams::new(sp.c, sp.t);
        let n = g.num_vertices();
        let d = diagonal::uniform(n as usize, sp.c);
        for u in 0..n.min(4) {
            let row = linearized::single_source(&g, u, &ep, &d);
            for v in 0..n {
                if u == v { continue; }
                let bound = gt.l2_bound(u, v, sp.c);
                prop_assert!(
                    bound + 0.08 >= row[v as usize],
                    "u={u} v={v}: bound {bound} < exact {}", row[v as usize]
                );
            }
        }
    }

    #[test]
    fn graph_binary_roundtrip(g in small_graph()) {
        let mut buf = Vec::new();
        simrank_search::graph::io::write_binary(&g, &mut buf).unwrap();
        let g2 = simrank_search::graph::io::read_binary(&buf[..]).unwrap();
        prop_assert_eq!(g, g2);
    }

    #[test]
    fn transpose_involution_and_degree_swap(g in small_graph()) {
        let t = g.transpose();
        prop_assert_eq!(&t.transpose(), &g);
        for v in 0..g.num_vertices() {
            prop_assert_eq!(g.in_degree(v), t.out_degree(v));
            prop_assert_eq!(g.out_degree(v), t.in_degree(v));
        }
    }

    #[test]
    fn index_persistence_roundtrip(g in small_graph()) {
        let params = SimRankParams { r_bounds: 50, ..Default::default() };
        let idx = simrank_search::search::TopKIndex::build_with(
            &g, &params, Diagonal::paper_default(params.c), 3, 1,
        );
        let mut buf = Vec::new();
        simrank_search::search::persist::save(&idx, &mut buf).unwrap();
        let back = simrank_search::search::persist::load(&buf[..]).unwrap();
        prop_assert_eq!(idx.memory_bytes(), back.memory_bytes());
        for u in 0..g.num_vertices() {
            let a = idx.query(&g, u, 3, &Default::default());
            let b = back.query(&g, u, 3, &Default::default());
            prop_assert_eq!(a.hits, b.hits);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn li_brackets_contain_naive(g in small_graph()) {
        // Li et al.'s pair-process bounds must bracket the Jeh-Widom value
        // (up to the shared truncation tail).
        use simrank_search::exact::li;
        let params = ExactParams::new(0.6, 12);
        let full = naive::all_pairs(&g, &params);
        let n = g.num_vertices();
        for u in 0..n.min(4) {
            for v in 0..n.min(4) {
                if let Some((lo, hi)) =
                    li::single_pair_bounds(&g, u, v, &params, li::DEFAULT_STATE_CAP)
                {
                    let truth = full.get(u as usize, v as usize);
                    prop_assert!(truth >= lo - 1e-9, "({u},{v}): {truth} < lo {lo}");
                    prop_assert!(
                        truth <= hi + params.truncation_error() + 1e-9,
                        "({u},{v}): {truth} > hi {hi}"
                    );
                }
            }
        }
    }

    #[test]
    fn reordering_preserves_candidate_symmetry(g in small_graph()) {
        // The candidate index on a relabelled graph must stay symmetric
        // and structurally valid.
        use simrank_search::graph::order;
        let r = order::apply_order(&g, &order::degree_order(&g));
        let params = SimRankParams { r_bounds: 20, ..Default::default() };
        let idx = simrank_search::search::index::CandidateIndex::build(&r.graph, &params, 3, 1);
        for u in 0..r.graph.num_vertices() {
            for v in idx.candidates(u) {
                prop_assert!(idx.candidates(v).contains(&u), "u={u} v={v}");
            }
        }
    }

    #[test]
    fn induced_subgraph_degrees_never_grow(g in small_graph()) {
        use simrank_search::graph::subgraph;
        let keep: Vec<u32> = (0..g.num_vertices()).filter(|v| v % 2 == 0).collect();
        let sub = subgraph::induced(&g, keep);
        for new_id in 0..sub.graph.num_vertices() {
            let old_id = sub.original_id[new_id as usize];
            prop_assert!(sub.graph.in_degree(new_id) <= g.in_degree(old_id));
            prop_assert!(sub.graph.out_degree(new_id) <= g.out_degree(old_id));
        }
    }

    #[test]
    fn surfer_estimator_within_hoeffding_of_naive(g in small_graph()) {
        // One representative pair per generated graph, generous epsilon.
        use simrank_search::baselines::surfer::{single_pair, SurferParams};
        let n = g.num_vertices();
        if n < 2 { return Ok(()); }
        let params = ExactParams::new(0.6, 11);
        let full = naive::all_pairs(&g, &params);
        let p = SurferParams { samples: 4_000, ..Default::default() };
        let est = single_pair(&g, 0, 1, &p, 77);
        let truth = full.get(0, 1);
        prop_assert!(
            (est - truth).abs() < 0.05 + params.truncation_error(),
            "est {est} vs truth {truth}"
        );
    }
}

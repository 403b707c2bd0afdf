#![warn(missing_docs)]
//! # simrank-search
//!
//! A full Rust reproduction of *"Scalable Similarity Search for SimRank"*
//! (Kusumoto, Maehara, Kawarabayashi; SIGMOD 2014).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`graph`] — directed CSR graphs, generators, datasets, I/O.
//! * [`mc`] — Monte-Carlo substrate (PRNGs, reverse random walks,
//!   Hoeffding sample-size helpers).
//! * [`exact`] — deterministic SimRank solvers and the diagonal-correction
//!   machinery of the linear recursive formulation.
//! * [`search`] — the paper's contribution: single-pair Monte-Carlo SimRank,
//!   L1/L2 upper bounds, the candidate index, and pruned adaptive top-k
//!   search.
//! * [`baselines`] — the Fogaras–Rácz random-surfer-pair comparator.
//!
//! ## Quickstart
//!
//! ```
//! use simrank_search::graph::gen;
//! use simrank_search::search::{SimRankParams, TopKIndex, QueryOptions};
//!
//! // A small copying-model web graph.
//! let g = gen::copying_web(500, 5, 0.8, 42);
//!
//! // Preprocess once (Algorithm 4 of the paper) ...
//! let params = SimRankParams::default();
//! let index = TopKIndex::build(&g, &params, 7);
//!
//! // ... then answer top-k queries in milliseconds: the exact two-step
//! // head by default, Algorithm 5 with `QueryOptions::sampled()`.
//! let top = index.query(&g, 3, 10, &QueryOptions::default());
//! for hit in &top.hits {
//!     println!("v={} s≈{:.4}", hit.vertex, hit.score);
//! }
//! ```

pub use srs_baselines as baselines;
pub use srs_exact as exact;
pub use srs_graph as graph;
pub use srs_mc as mc;
pub use srs_search as search;

#![warn(missing_docs)]
// Index-style loops are the clearest form for the matrix/graph math here.
#![allow(clippy::needless_range_loop)]
//! # srs-graph — directed-graph substrate
//!
//! This crate provides every graph facility the SimRank similarity-search
//! reproduction needs, implemented from scratch:
//!
//! * [`Graph`] — an immutable directed graph in compressed sparse row (CSR)
//!   form, storing **both** out-adjacency and in-adjacency. SimRank walks
//!   follow in-links, so in-adjacency is the hot side.
//! * [`GraphBuilder`] — edge-list accumulation with deduplication and
//!   self-loop policy.
//! * [`bfs`] — directed / undirected breadth-first search with reusable
//!   buffers, bounded-radius variants, and pairwise-distance sampling (used
//!   by the Figure 2 reproduction).
//! * [`delta`] — batched online mutations ([`GraphDelta`]: edge
//!   insertions/deletions, append-only growth) with deterministic
//!   application, plus frontier-based dirty-set dilation for incremental
//!   index maintenance.
//! * [`gen`] — synthetic generators (Erdős–Rényi, preferential attachment,
//!   copying-model web graphs, Watts–Strogatz, citation model, and small
//!   closed-form fixtures) substituting for the paper's SNAP/LAW datasets.
//! * [`datasets`] — a registry mirroring Table 2 of the paper at a
//!   configurable scale factor.
//! * [`io`] — SNAP-style edge-list text I/O and the binary CSR bundle.
//! * [`storage`] — [`storage::SharedSlice`], the owned-or-zero-copy
//!   backing for every hot array.
//! * [`container`] — the `SRSBNDL1` section container all persistent
//!   artifacts (graphs, indexes, serving snapshots) are stored in.
//! * [`hash`] — an FxHash-style fast hasher for integer-keyed maps.
//! * [`stats`] — degree and distance statistics.

pub mod bfs;
pub mod container;
pub mod csr;
pub mod datasets;
pub mod delta;
pub mod gen;
pub mod hash;
pub mod io;
pub mod order;
pub mod stats;
pub mod storage;
pub mod subgraph;

pub use csr::{Graph, GraphBuilder, ReverseStep, SelfLoopPolicy, ValidationLevel};
pub use delta::{dilate_dirty, GraphDelta};
pub use storage::{BundleBuf, MemoryProfile, MmapRegion};

/// Vertex identifier. `u32` keeps adjacency arrays and walk states compact;
/// graphs of up to ~4.2 billion vertices are representable, far beyond the
/// paper's largest dataset (41.6 M vertices).
pub type VertexId = u32;

/// Errors produced by graph construction and I/O.
#[derive(Debug)]
pub enum GraphError {
    /// An edge referenced a vertex id at or above the declared vertex count.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: u64,
        /// The number of vertices in the graph being built.
        n: u64,
    },
    /// A self-loop was encountered while the policy forbids them.
    SelfLoopForbidden {
        /// The vertex with the self-loop.
        vertex: VertexId,
    },
    /// The vertex count would overflow `u32`, or one edit batch grows a
    /// graph past [`delta::GROWTH_FLOOR`]'s bound.
    TooManyVertices(u64),
    /// Text parse failure (edge-list I/O).
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// Binary format failure.
    Format(String),
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::VertexOutOfRange { vertex, n } => {
                write!(f, "vertex id {vertex} out of range for graph with {n} vertices")
            }
            GraphError::SelfLoopForbidden { vertex } => {
                write!(f, "self-loop at vertex {vertex} forbidden by policy")
            }
            GraphError::TooManyVertices(n) => {
                write!(f, "{n} vertices exceed the vertex-count limit")
            }
            GraphError::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
            GraphError::Format(m) => write!(f, "binary format error: {m}"),
            GraphError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e)
    }
}

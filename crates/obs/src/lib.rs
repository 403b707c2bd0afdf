//! `srs-obs` — observability primitives for the SimRank serving pipeline.
//!
//! Dependency-free (std only) building blocks shared by every crate in
//! the hot path:
//!
//! - [`metrics`]: atomic [`Counter`]/[`Gauge`]/[`Histogram`] cells with
//!   log₂ bucketing, plus the worker-local [`LocalHistogram`] mirror that
//!   keeps per-event accounting off the shared cache lines and merges
//!   lock-free at batch end.
//! - [`registry`]: a named [`Registry`] of cells with static labels,
//!   snapshottable to Prometheus text format or JSON.
//! - [`explain`]: the opt-in per-query [`ExplainTrace`] recording each
//!   candidate's fate (which bound pruned it, or how it was refined)
//!   against the threshold.
//! - [`progress`]: a throttled [`Progress`] reporter for long index
//!   builds.
//! - [`trace`]: request-scoped span tracing — 64-bit [`TraceIdGen`]
//!   trace IDs, hierarchical [`Span`] trees, a deterministic hash
//!   sampler ([`sampled`]), and the bounded [`TraceStore`] ring with a
//!   separate always-keep slow-query log.
//!
//! Design rule: nothing in this crate may perturb the serving layer's
//! determinism — no RNG, no allocation on the per-event path, and all
//! shared-state updates are relaxed atomics.

pub mod explain;
pub mod metrics;
pub mod progress;
pub mod registry;
pub mod trace;

pub use explain::{CandidateFate, CandidateRecord, ExplainTrace};
pub use metrics::{
    bucket_bound, bucket_index, Counter, Gauge, Histogram, HistogramSnapshot, LocalHistogram, HIST_BUCKETS,
};
pub use progress::Progress;
pub use registry::{Family, MetricKind, Registry, Sample, SampleValue, Snapshot};
pub use trace::{
    chrome_trace_json, format_trace_id, now_ns, parse_trace_id, sampled, splitmix64, AttrValue, Span, Trace,
    TraceIdGen, TraceStore,
};

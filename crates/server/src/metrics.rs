//! The `srs_server_*` metric families.
//!
//! Registered on the serving engine's own [`Registry`] (via
//! [`srs_search::ServingMetrics::registry`]), so one `/metrics` scrape
//! renders the whole process: engine counters (`srs_queries_total`,
//! `srs_cache_hits_total`, ...) and server counters side by side.
//!
//! | family | kind | labels |
//! |---|---|---|
//! | `srs_server_connections_total` | counter | |
//! | `srs_server_connections_active` | gauge | |
//! | `srs_server_requests_total` | counter | |
//! | `srs_server_responses_total` | counter | `code` |
//! | `srs_server_inflight_queries` | gauge | |
//! | `srs_server_queue_depth` | gauge | |
//! | `srs_server_waves_total` | counter | |
//! | `srs_server_wave_panics_total` | counter | |
//! | `srs_server_wave_size` | histogram | |
//! | `srs_server_queue_wait_ns` | histogram | |
//! | `srs_server_request_latency_ns` | histogram | |
//! | `srs_server_reloads_total` / `srs_server_reload_failures_total` | counter | |
//! | `srs_server_ingests_total` / `srs_server_ingest_failures_total` | counter | |
//! | `srs_server_snapshot_generation` | gauge | |
//! | `srs_server_uptime_seconds` | gauge | |
//!
//! Three timings cover one `/query`, nested:
//!
//! - `srs_server_request_latency_ns` — parse completion → response body
//!   ready, read on the request thread: the request's *service time*.
//! - the `queue_linger` trace span — parse completion → wave start:
//!   parameter validation, the submit, and the wait for the dispatcher.
//!   It shares its start with the request span, so the request span's
//!   children (`queue_linger`, `wave_exec`) tile it.
//! - `srs_server_queue_wait_ns` — submit → wave start: the wait in the
//!   dispatch queue alone. The submit reads the clock once per query and
//!   the dispatcher once per wave (the same read that starts
//!   `wave_exec`), so the histogram adds no clock read on the dispatcher
//!   side per query. Its `_count` is the number of queries dispatched,
//!   so `_count / srs_server_waves_total` is the mean wave width.

use srs_obs::{Counter, Gauge, Histogram, Registry};
use std::sync::Arc;

/// Status codes the server emits, aligned with
/// [`ServerMetrics::responses`].
pub const RESPONSE_CODES: [u16; 6] = [200, 400, 404, 405, 500, 503];

const CODE_LABELS: [&str; 6] = ["200", "400", "404", "405", "500", "503"];

/// Handles to every server-level metric cell. Fields are public so the
/// request path updates cells directly, mirroring
/// [`srs_search::ServingMetrics`].
pub struct ServerMetrics {
    /// `srs_server_connections_total` — connections accepted.
    pub connections: Arc<Counter>,
    /// `srs_server_connections_active` — connections currently open.
    pub connections_active: Arc<Gauge>,
    /// `srs_server_requests_total` — requests parsed (any endpoint).
    pub requests: Arc<Counter>,
    /// `srs_server_responses_total{code=...}`, indexed by
    /// [`RESPONSE_CODES`].
    pub responses: [Arc<Counter>; 6],
    /// `srs_server_inflight_queries` — `/query` requests between submit
    /// and response.
    pub inflight: Arc<Gauge>,
    /// `srs_server_queue_depth` — queries waiting in the dispatcher queue
    /// (sampled when the dispatcher takes a wave).
    pub queue_depth: Arc<Gauge>,
    /// `srs_server_waves_total` — coalesced waves the dispatcher served.
    pub waves: Arc<Counter>,
    /// `srs_server_wave_panics_total` — waves whose engine call panicked
    /// (caught by the dispatcher; the wave's requests answered 500).
    pub wave_panics: Arc<Counter>,
    /// `srs_server_wave_size` — engine-batch size distribution: one
    /// observation per batch a wave split into, so a sample ≥ 2 proves
    /// concurrent requests were answered by a single engine batch.
    pub wave_size: Arc<Histogram>,
    /// `srs_server_queue_wait_ns` — per query, the time from
    /// [`crate::Coalescer::submit`] to the start of the wave that
    /// answers it.
    pub queue_wait: Arc<Histogram>,
    /// `srs_server_request_latency_ns` — `/query` wall time from parse to
    /// response body ready (queueing + coalescing + compute).
    pub request_latency: Arc<Histogram>,
    /// `srs_server_reloads_total` — successful snapshot reloads.
    pub reloads: Arc<Counter>,
    /// `srs_server_reload_failures_total` — reload attempts that failed
    /// (the old dataset stays in service).
    pub reload_failures: Arc<Counter>,
    /// `srs_server_ingests_total` — edit batches applied and persisted
    /// via `/admin/ingest`.
    pub ingests: Arc<Counter>,
    /// `srs_server_ingest_failures_total` — ingest attempts rejected or
    /// failed (bad batch, apply error, or persist error).
    pub ingest_failures: Arc<Counter>,
    /// `srs_server_snapshot_generation` — the engine generation currently
    /// serving (1 at startup, +1 per reload).
    pub generation: Arc<Gauge>,
    /// `srs_server_uptime_seconds` — seconds since the server started
    /// (refreshed on every `/metrics` scrape).
    pub uptime: Arc<Gauge>,
}

impl ServerMetrics {
    /// Registers (or retrieves) every family on `r`.
    pub fn register_on(r: &Registry) -> Self {
        let responses = std::array::from_fn(|i| {
            r.counter_with(
                "srs_server_responses_total",
                "Responses by status code",
                &[("code", CODE_LABELS[i])],
            )
        });
        ServerMetrics {
            connections: r.counter("srs_server_connections_total", "TCP connections accepted"),
            connections_active: r.gauge("srs_server_connections_active", "TCP connections currently open"),
            requests: r.counter("srs_server_requests_total", "HTTP requests parsed"),
            responses,
            inflight: r.gauge("srs_server_inflight_queries", "Queries between submit and response"),
            queue_depth: r.gauge("srs_server_queue_depth", "Queries waiting in the dispatcher queue"),
            waves: r.counter("srs_server_waves_total", "Coalesced request waves served"),
            wave_panics: r.counter("srs_server_wave_panics_total", "Engine waves that panicked (caught)"),
            wave_size: r.histogram("srs_server_wave_size", "Requests coalesced into one engine batch"),
            queue_wait: r.histogram("srs_server_queue_wait_ns", "Per-query wait from submit to wave start"),
            request_latency: r
                .histogram("srs_server_request_latency_ns", "Per-request wall latency, queueing included"),
            reloads: r.counter("srs_server_reloads_total", "Successful snapshot hot reloads"),
            reload_failures: r.counter("srs_server_reload_failures_total", "Snapshot reloads that failed"),
            ingests: r.counter("srs_server_ingests_total", "Edit batches applied via /admin/ingest"),
            ingest_failures: r
                .counter("srs_server_ingest_failures_total", "Ingest attempts rejected or failed"),
            generation: r.gauge("srs_server_snapshot_generation", "Dataset generation currently serving"),
            uptime: r.gauge("srs_server_uptime_seconds", "Seconds since server start"),
        }
    }

    /// Counts one response with the given status (statuses outside
    /// [`RESPONSE_CODES`] are never emitted by this server).
    pub fn response(&self, status: u16) {
        if let Some(i) = RESPONSE_CODES.iter().position(|&c| c == status) {
            self.responses[i].inc();
        }
    }

    /// The count recorded for one status code (0 for unknown codes).
    pub fn response_count(&self, status: u16) -> u64 {
        RESPONSE_CODES.iter().position(|&c| c == status).map(|i| self.responses[i].get()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_register_and_render() {
        let r = Registry::new();
        let m = ServerMetrics::register_on(&r);
        m.connections.inc();
        m.response(200);
        m.response(200);
        m.response(503);
        m.response(999); // silently ignored: not a code this server emits
        m.wave_size.observe(4);
        let snap = r.snapshot();
        for family in [
            "srs_server_connections_total",
            "srs_server_connections_active",
            "srs_server_requests_total",
            "srs_server_responses_total",
            "srs_server_inflight_queries",
            "srs_server_queue_depth",
            "srs_server_waves_total",
            "srs_server_wave_panics_total",
            "srs_server_wave_size",
            "srs_server_queue_wait_ns",
            "srs_server_request_latency_ns",
            "srs_server_reloads_total",
            "srs_server_reload_failures_total",
            "srs_server_ingests_total",
            "srs_server_ingest_failures_total",
            "srs_server_snapshot_generation",
            "srs_server_uptime_seconds",
        ] {
            assert!(snap.family(family).is_some(), "missing family {family}");
        }
        assert_eq!(snap.counter_total("srs_server_responses_total"), 3);
        assert_eq!(m.response_count(200), 2);
        assert_eq!(m.response_count(503), 1);
        assert_eq!(m.response_count(418), 0);
        let text = snap.to_prometheus();
        assert!(text.contains("srs_server_responses_total{code=\"200\"} 2"));
        assert!(text.contains("srs_server_wave_size_count 1"));
    }

    #[test]
    fn register_on_is_idempotent() {
        let r = Registry::new();
        let a = ServerMetrics::register_on(&r);
        let b = ServerMetrics::register_on(&r);
        a.requests.inc();
        b.requests.inc();
        assert_eq!(a.requests.get(), 2, "both handles share one cell");
    }
}

//! Server load-sweep reporting: the `BENCH_serve.json` emitter.
//!
//! `srs loadgen --sweep` drives the network daemon at a ladder of request
//! rates and records, per rung, the achieved throughput and the latency
//! tail measured from each request's *scheduled* send time (open-loop, so
//! server-side queueing shows up as latency instead of silently
//! stretching the run). The report's headline is the **knee**: the first
//! rate at which the server stops keeping up — either throughput falls
//! measurably below the offered rate or the tail blows out relative to
//! the lightest rung. Like `BENCH_query.json`, the JSON is hand-rolled
//! because the workspace is offline (no serde).
//!
//! Each rung also carries the server's own layers, from a `/metrics`
//! scrape before and after it ([`ServerScrape`]): how many waves the
//! dispatcher ran and how wide they were, the mean service time and
//! queue wait, and the client-minus-server residual — so a knee in the
//! file says which side of the socket it sits on.

use crate::walkbench::{json_string, HostInfo};
use std::io::Write;
use std::path::Path;

/// Achieved throughput must reach this fraction of the offered rate for
/// a rung to count as "keeping up".
pub const KNEE_THROUGHPUT_FRACTION: f64 = 0.9;

/// A rung whose p99 exceeds the first rung's p99 by this factor marks
/// saturation even if throughput still tracks the offered rate.
pub const KNEE_P99_BLOWUP: f64 = 10.0;

/// One measured load-generation rung (a single offered request rate).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeBenchEntry {
    /// Offered (target) request rate, requests per second.
    pub rate: f64,
    /// Requests scheduled at this rung.
    pub requests: u64,
    /// Requests answered with HTTP 200.
    pub completed: u64,
    /// Requests that failed (transport or non-200).
    pub errors: u64,
    /// Concurrent client connections.
    pub connections: usize,
    /// Top-k requested per query.
    pub k: usize,
    /// Wall-clock seconds from the first scheduled send to the last
    /// response.
    pub elapsed_secs: f64,
    /// Median latency from scheduled send, microseconds.
    pub p50_us: f64,
    /// 95th-percentile latency, microseconds.
    pub p95_us: f64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: f64,
    /// Worst observed latency, microseconds.
    pub max_us: f64,
    /// The server's side of the rung.
    pub layers: ServerLayers,
}

impl ServeBenchEntry {
    /// Achieved throughput in completed requests per second.
    pub fn achieved_qps(&self) -> f64 {
        if self.elapsed_secs <= 0.0 {
            0.0
        } else {
            self.completed as f64 / self.elapsed_secs
        }
    }

    /// Whether this rung kept up with its offered rate (throughput within
    /// [`KNEE_THROUGHPUT_FRACTION`] of target and no errors).
    pub fn keeping_up(&self) -> bool {
        self.errors == 0 && self.achieved_qps() >= KNEE_THROUGHPUT_FRACTION * self.rate
    }
}

/// The server counters a sweep reads from one `/metrics` scrape. All are
/// cumulative, so two scrapes bracket a rung.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerScrape {
    /// `srs_server_waves_total`.
    pub waves: u64,
    /// `srs_server_queue_wait_ns_count` — queries dispatched.
    pub queries: u64,
    /// `srs_server_queue_wait_ns_sum`.
    pub queue_wait_ns: u64,
    /// `srs_server_request_latency_ns_count` — `/query` requests served.
    pub requests: u64,
    /// `srs_server_request_latency_ns_sum`.
    pub service_ns: u64,
}

/// What the server did during one rung: the difference of the scrapes
/// around it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServerLayers {
    /// Waves the dispatcher ran.
    pub waves: u64,
    /// Mean queries per wave.
    pub mean_wave_size: f64,
    /// Mean server service time (`srs_server_request_latency_ns`: parse
    /// completion → response body ready), microseconds.
    pub server_us: f64,
    /// Mean dispatch-queue wait (`srs_server_queue_wait_ns`: submit →
    /// wave start), microseconds.
    pub queue_wait_us: f64,
    /// Mean client latency minus [`Self::server_us`], microseconds: the
    /// socket, request read and parse, response write, and — since the
    /// client clocks from the *scheduled* send — any lag of the load
    /// generator behind its schedule.
    pub residual_us: f64,
}

impl ServerScrape {
    /// Reads the counters from a Prometheus text exposition. The error
    /// names the first family the text lacks.
    pub fn parse(prometheus: &str) -> Result<Self, &'static str> {
        let value = |name: &'static str| {
            prometheus
                .lines()
                .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse::<u64>().ok())
                .ok_or(name)
        };
        Ok(ServerScrape {
            waves: value("srs_server_waves_total")?,
            queries: value("srs_server_queue_wait_ns_count")?,
            queue_wait_ns: value("srs_server_queue_wait_ns_sum")?,
            requests: value("srs_server_request_latency_ns_count")?,
            service_ns: value("srs_server_request_latency_ns_sum")?,
        })
    }

    /// The layers of the rung between `self` (before) and `after`, given
    /// the client's mean latency over the rung in microseconds.
    pub fn layers_until(&self, after: &ServerScrape, client_mean_us: f64) -> ServerLayers {
        let d = |a: u64, b: u64| a.saturating_sub(b);
        let mean = |sum: u64, n: u64| if n == 0 { 0.0 } else { sum as f64 / n as f64 };
        let (waves, queries) = (d(after.waves, self.waves), d(after.queries, self.queries));
        let server_us = mean(d(after.service_ns, self.service_ns), d(after.requests, self.requests)) / 1e3;
        ServerLayers {
            waves,
            mean_wave_size: mean(queries, waves),
            server_us,
            queue_wait_us: mean(d(after.queue_wait_ns, self.queue_wait_ns), queries) / 1e3,
            residual_us: client_mean_us - server_us,
        }
    }
}

/// A full rate-sweep run against one server.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeBenchReport {
    /// The host the sweep ran on (the load generator's; the committed
    /// runs put the server on the same host).
    pub host: HostInfo,
    /// Server address the sweep targeted.
    pub addr: String,
    /// Measured rungs, in ascending offered-rate order.
    pub entries: Vec<ServeBenchEntry>,
}

impl ServeBenchReport {
    /// An empty report for `addr`.
    pub fn new(addr: impl Into<String>) -> Self {
        Self { host: HostInfo::detect(), addr: addr.into(), entries: Vec::new() }
    }

    /// Records one rung.
    pub fn push(&mut self, entry: ServeBenchEntry) {
        self.entries.push(entry);
    }

    /// The saturation knee: index of the first rung that either stopped
    /// keeping up with its offered rate or whose p99 blew out by
    /// [`KNEE_P99_BLOWUP`]× relative to the first rung. `None` while the
    /// server tracks every offered rate.
    pub fn knee(&self) -> Option<usize> {
        let base_p99 = self.entries.first().map(|e| e.p99_us)?;
        self.entries
            .iter()
            .position(|e| !e.keeping_up() || (base_p99 > 0.0 && e.p99_us > KNEE_P99_BLOWUP * base_p99))
    }

    /// The knee rung's offered rate, if saturation was reached.
    pub fn knee_rate(&self) -> Option<f64> {
        self.knee().map(|i| self.entries[i].rate)
    }

    /// Serializes the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"host\": {},\n", self.host.to_json()));
        out.push_str(&format!("  \"addr\": {},\n", json_string(&self.addr)));
        match self.knee_rate() {
            Some(rate) => out.push_str(&format!("  \"knee_rate\": {rate:.1},\n")),
            None => out.push_str("  \"knee_rate\": null,\n"),
        }
        out.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"rate\": {:.1}, \"requests\": {}, \"completed\": {}, \"errors\": {}, \
                 \"connections\": {}, \"k\": {}, \"elapsed_secs\": {:.6}, \"achieved_qps\": {:.1}, \
                 \"p50_us\": {:.1}, \"p95_us\": {:.1}, \"p99_us\": {:.1}, \"max_us\": {:.1}, \
                 \"waves\": {}, \"mean_wave_size\": {:.3}, \"server_us\": {:.1}, \"queue_wait_us\": {:.1}, \
                 \"residual_us\": {:.1}}}{}\n",
                e.rate,
                e.requests,
                e.completed,
                e.errors,
                e.connections,
                e.k,
                e.elapsed_secs,
                e.achieved_qps(),
                e.p50_us,
                e.p95_us,
                e.p99_us,
                e.max_us,
                e.layers.waves,
                e.layers.mean_wave_size,
                e.layers.server_us,
                e.layers.queue_wait_us,
                e.layers.residual_us,
                if i + 1 < self.entries.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the JSON report to `path`.
    pub fn write(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_json().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rung(rate: f64, completed: u64, elapsed: f64, p99: f64) -> ServeBenchEntry {
        ServeBenchEntry {
            rate,
            requests: completed,
            completed,
            errors: 0,
            connections: 4,
            k: 20,
            elapsed_secs: elapsed,
            p50_us: p99 / 4.0,
            p95_us: p99 / 2.0,
            p99_us: p99,
            max_us: p99 * 2.0,
            layers: ServerLayers {
                waves: completed,
                mean_wave_size: 1.0,
                server_us: p99 / 8.0,
                queue_wait_us: p99 / 80.0,
                residual_us: p99 / 16.0,
            },
        }
    }

    #[test]
    fn knee_on_throughput_collapse() {
        let mut r = ServeBenchReport::new("127.0.0.1:7171");
        r.push(rung(100.0, 200, 2.0, 800.0)); // 100 qps achieved
        r.push(rung(200.0, 400, 2.0, 900.0)); // 200 qps achieved
        r.push(rung(400.0, 500, 2.0, 1000.0)); // 250 qps — collapsed
        assert_eq!(r.knee(), Some(2));
        assert_eq!(r.knee_rate(), Some(400.0));
    }

    #[test]
    fn knee_on_p99_blowup() {
        let mut r = ServeBenchReport::new("x");
        r.push(rung(100.0, 200, 2.0, 500.0));
        r.push(rung(200.0, 400, 2.0, 900.0));
        r.push(rung(300.0, 600, 2.0, 20_000.0)); // tail exploded, qps fine
        assert_eq!(r.knee(), Some(2));
    }

    #[test]
    fn no_knee_while_keeping_up() {
        let mut r = ServeBenchReport::new("x");
        r.push(rung(100.0, 200, 2.0, 500.0));
        r.push(rung(200.0, 400, 2.0, 600.0));
        assert_eq!(r.knee(), None);
        assert!(r.to_json().contains("\"knee_rate\": null"));
    }

    #[test]
    fn errors_break_keeping_up() {
        let mut e = rung(100.0, 200, 2.0, 500.0);
        e.errors = 1;
        assert!(!e.keeping_up());
    }

    #[test]
    fn json_shape() {
        let mut r = ServeBenchReport::new("127.0.0.1:7171");
        r.push(rung(100.0, 200, 2.0, 800.0));
        r.push(rung(400.0, 500, 2.0, 1000.0));
        let j = r.to_json();
        assert!(j.starts_with("{\n  \"host\": {\"vcpus\": "), "{j}");
        assert!(j.contains("\"addr\": \"127.0.0.1:7171\""));
        assert!(j.contains("\"knee_rate\": 400.0"));
        assert!(j.contains("\"achieved_qps\": 100.0"));
        assert!(j.contains("\"waves\": 200, \"mean_wave_size\": 1.000, \"server_us\": 100.0, \"queue_wait_us\": 10.0, \"residual_us\": 50.0}"), "{j}");
        // One separator between the two rungs, one after the host block.
        assert_eq!(j.matches("},\n").count(), 2, "{j}");
    }

    #[test]
    fn scrape_parses_the_layered_families() {
        // The shape `/metrics` renders: HELP/TYPE lines, sparse buckets,
        // and look-alike prefixes that must not match.
        let text = "# TYPE srs_server_waves_total counter\n\
                    srs_server_waves_total 12\n\
                    srs_server_waves_total_bogus 99\n\
                    srs_server_queue_wait_ns_bucket{le=\"+Inf\"} 30\n\
                    srs_server_queue_wait_ns_sum 45000\n\
                    srs_server_queue_wait_ns_count 30\n\
                    srs_server_request_latency_ns_bucket{le=\"+Inf\"} 30\n\
                    srs_server_request_latency_ns_sum 6000000\n\
                    srs_server_request_latency_ns_count 30\n";
        let s = ServerScrape::parse(text).unwrap();
        assert_eq!(
            s,
            ServerScrape {
                waves: 12,
                queries: 30,
                queue_wait_ns: 45_000,
                requests: 30,
                service_ns: 6_000_000
            }
        );
        let missing = text.replace("srs_server_queue_wait_ns_sum", "other");
        assert_eq!(ServerScrape::parse(&missing), Err("srs_server_queue_wait_ns_sum"));
    }

    #[test]
    fn layers_are_differences_of_two_scrapes() {
        let before = ServerScrape {
            waves: 10,
            queries: 20,
            queue_wait_ns: 1_000,
            requests: 20,
            service_ns: 4_000_000,
        };
        let after = ServerScrape {
            waves: 60,
            queries: 220,
            queue_wait_ns: 3_001_000,
            requests: 220,
            service_ns: 84_000_000,
        };
        let l = before.layers_until(&after, 500.0);
        assert_eq!(l.waves, 50);
        assert_eq!(l.mean_wave_size, 4.0);
        assert_eq!(l.server_us, 400.0);
        assert_eq!(l.queue_wait_us, 15.0);
        assert_eq!(l.residual_us, 100.0);
        // An idle rung divides by nothing.
        let idle = after.layers_until(&after, 0.0);
        assert_eq!((idle.waves, idle.mean_wave_size, idle.server_us, idle.queue_wait_us), (0, 0.0, 0.0, 0.0));
    }

    #[test]
    fn write_roundtrip() {
        let mut r = ServeBenchReport::new("x");
        r.push(rung(50.0, 100, 2.0, 300.0));
        let path = std::env::temp_dir().join("srs_servebench_test.json");
        r.write(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), r.to_json());
        let _ = std::fs::remove_file(&path);
    }
}

//! Batch-query throughput reporting: the `BENCH_query.json` emitter.
//!
//! The serving layer's queries-per-second (and its tail latency) is the
//! headline operational number of the whole pipeline, so — like the walk
//! kernel's `BENCH_walks.json` — its trajectory is recorded as a
//! machine-readable artifact at the repo root. The `query` criterion
//! bench builds a [`QueryBenchReport`] and writes it after measuring;
//! JSON is hand-rolled because the workspace is offline (no serde).

use crate::walkbench::{json_string, HostInfo};
use std::io::Write;
use std::path::Path;

/// One measured batch-query workload.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryBenchEntry {
    /// Description of the dataset the batch ran over.
    pub dataset: String,
    /// Number of queries in the batch.
    pub queries: u64,
    /// Worker threads serving the batch.
    pub threads: usize,
    /// Top-k requested per query.
    pub k: usize,
    /// Wave width the adaptive scan batched its walk work at
    /// (`QueryOptions::wave_width`; 1 = scalar scan).
    pub wave_width: u32,
    /// Wall-clock seconds for the whole batch.
    pub elapsed_secs: f64,
    /// Median per-query latency, microseconds.
    pub p50_us: f64,
    /// 95th-percentile per-query latency, microseconds.
    pub p95_us: f64,
    /// 99th-percentile per-query latency, microseconds.
    pub p99_us: f64,
}

impl QueryBenchEntry {
    /// Batch throughput in queries per second.
    pub fn queries_per_sec(&self) -> f64 {
        if self.elapsed_secs <= 0.0 {
            0.0
        } else {
            self.queries as f64 / self.elapsed_secs
        }
    }
}

/// A full batch-query bench run (one entry per dataset/workload).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryBenchReport {
    /// The host the bench ran on.
    pub host: HostInfo,
    /// Measured entries, in run order.
    pub entries: Vec<QueryBenchEntry>,
}

impl QueryBenchReport {
    /// An empty report, on this host.
    pub fn new() -> Self {
        QueryBenchReport { host: HostInfo::detect(), entries: Vec::new() }
    }

    /// Records one measurement.
    pub fn push(&mut self, entry: QueryBenchEntry) {
        self.entries.push(entry);
    }

    /// Serializes the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"host\": {},\n", self.host.to_json()));
        out.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"dataset\": {}, \"queries\": {}, \"threads\": {}, \"k\": {}, \
                 \"wave_width\": {}, \"elapsed_secs\": {:.6}, \"qps\": {:.1}, \
                 \"p50_us\": {:.1}, \"p95_us\": {:.1}, \"p99_us\": {:.1}}}{}\n",
                json_string(&e.dataset),
                e.queries,
                e.threads,
                e.k,
                e.wave_width,
                e.elapsed_secs,
                e.queries_per_sec(),
                e.p50_us,
                e.p95_us,
                e.p99_us,
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

    fn entry(dataset: &str, queries: u64, elapsed: f64) -> QueryBenchEntry {
        QueryBenchEntry {
            dataset: dataset.into(),
            queries,
            threads: 4,
            k: 20,
            wave_width: 32,
            elapsed_secs: elapsed,
            p50_us: 100.0,
            p95_us: 250.0,
            p99_us: 400.0,
        }
    }

    #[test]
    fn throughput_math() {
        assert!((entry("g", 500, 2.0).queries_per_sec() - 250.0).abs() < 1e-12);
        assert_eq!(entry("g", 1, 0.0).queries_per_sec(), 0.0);
    }

    #[test]
    fn json_shape_and_escaping() {
        let mut r = QueryBenchReport::new();
        r.host = HostInfo { vcpus: 2, kernel: "Avx2".into(), l3: "32768K".into() };
        r.push(entry("web-BerkStan(m=6143)", 32, 0.128));
        r.push(entry("has \"quote\"", 1, 1.0));
        let j = r.to_json();
        assert!(j.starts_with("{\n  \"host\": {\"vcpus\": 2, \"kernel\": \"Avx2\", \"l3\": \"32768K\"},\n"));
        assert!(j.contains("\"dataset\": \"web-BerkStan(m=6143)\""));
        assert!(j.contains("\"qps\": 250.0"));
        assert!(j.contains("\"wave_width\": 32"));
        assert!(j.contains("\"p99_us\": 400.0"));
        assert!(j.contains("\\\"quote\\\""));
        // Every entry line but the last carries a trailing comma (the
        // host line is the other `},`).
        assert_eq!(j.matches("},\n").count(), 2);
        assert!(j.contains("}\n  ]"));
    }

    #[test]
    fn write_roundtrip() {
        let mut r = QueryBenchReport::new();
        r.push(entry("g", 10, 0.1));
        let path = std::env::temp_dir().join("srs_querybench_test.json");
        r.write(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), r.to_json());
        let _ = std::fs::remove_file(&path);
    }
}

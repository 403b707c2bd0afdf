//! Walk-kernel throughput reporting: the `BENCH_walks.json` emitter.
//!
//! The raw steps/sec of the reverse-walk kernel is the number every other
//! stage's cost is denominated in, so its trajectory is recorded as a
//! machine-readable artifact at the repo root (next to the human-readable
//! README perf notes). The `walks` criterion bench builds a
//! [`WalkBenchReport`] and writes it after measuring; JSON is hand-rolled
//! because the workspace is offline (no serde).

use std::io::Write;
use std::path::Path;

/// One measured kernel entry point.
#[derive(Debug, Clone, PartialEq)]
pub struct WalkBenchEntry {
    /// Kernel name (`step_all`, `step_frontier`, ...).
    pub name: String,
    /// Logical walk-steps performed (walks × steps each was advanced),
    /// the caller-visible unit of work — compaction doing *less physical
    /// work* for the same logical steps is exactly the win to record.
    pub steps: u64,
    /// Wall-clock seconds for those steps.
    pub elapsed_secs: f64,
    /// The graph this entry ran over, when it is not the report's graph.
    pub graph: Option<String>,
}

impl WalkBenchEntry {
    /// Throughput in millions of logical steps per second.
    pub fn msteps_per_sec(&self) -> f64 {
        if self.elapsed_secs <= 0.0 {
            0.0
        } else {
            self.steps as f64 / self.elapsed_secs / 1e6
        }
    }
}

/// The machine a bench ran on: what a kernel throughput number needs
/// beside it to be comparable across runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HostInfo {
    /// Logical CPUs available to the process.
    pub vcpus: usize,
    /// The co-location kernel `colocate::dispatch()` selects.
    pub kernel: String,
    /// L3 size as `/sys` reports it (`unknown` where it is not exposed).
    pub l3: String,
}

impl HostInfo {
    /// Reads the current host.
    pub fn detect() -> Self {
        HostInfo {
            vcpus: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            kernel: format!("{:?}", srs_search::colocate::dispatch()),
            l3: std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| "unknown".to_string()),
        }
    }

    /// The host as one JSON object, the `"host"` block every
    /// `BENCH_*.json` report opens with.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"vcpus\": {}, \"kernel\": {}, \"l3\": {}}}",
            self.vcpus,
            json_string(&self.kernel),
            json_string(&self.l3)
        )
    }
}

/// A full walk-bench run over one generated graph.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WalkBenchReport {
    /// The host the bench ran on.
    pub host: HostInfo,
    /// Description of the graph the kernels ran over.
    pub graph: String,
    /// Measured entries, in run order.
    pub entries: Vec<WalkBenchEntry>,
}

impl WalkBenchReport {
    /// An empty report for the given graph description, on this host.
    pub fn new(graph: impl Into<String>) -> Self {
        WalkBenchReport { host: HostInfo::detect(), graph: graph.into(), entries: Vec::new() }
    }

    /// Records one measurement on the report's graph.
    pub fn push(&mut self, name: impl Into<String>, steps: u64, elapsed_secs: f64) {
        self.entries.push(WalkBenchEntry { name: name.into(), steps, elapsed_secs, graph: None });
    }

    /// Records one measurement on another graph.
    pub fn push_on(
        &mut self,
        graph: impl Into<String>,
        name: impl Into<String>,
        steps: u64,
        elapsed_secs: f64,
    ) {
        self.entries.push(WalkBenchEntry {
            name: name.into(),
            steps,
            elapsed_secs,
            graph: Some(graph.into()),
        });
    }

    /// Serializes the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"host\": {},\n", self.host.to_json()));
        out.push_str(&format!("  \"graph\": {},\n", json_string(&self.graph)));
        out.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            let graph =
                e.graph.as_deref().map(|g| format!(", \"graph\": {}", json_string(g))).unwrap_or_default();
            out.push_str(&format!(
                "    {{\"name\": {}, \"steps\": {}, \"elapsed_secs\": {:.6}, \"msteps_per_sec\": {:.1}{graph}}}{}\n",
                json_string(&e.name),
                e.steps,
                e.elapsed_secs,
                e.msteps_per_sec(),
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

/// Minimal JSON string escaping (quotes, backslashes, control chars).
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_math() {
        let e = WalkBenchEntry { name: "step_all".into(), steps: 2_000_000, elapsed_secs: 0.5, graph: None };
        assert!((e.msteps_per_sec() - 4.0).abs() < 1e-12);
        let zero = WalkBenchEntry { name: "x".into(), steps: 1, elapsed_secs: 0.0, graph: None };
        assert_eq!(zero.msteps_per_sec(), 0.0);
    }

    #[test]
    fn json_shape_and_escaping() {
        let mut r = WalkBenchReport::new("copying_web(n=8)");
        r.push("step_all", 100, 0.25);
        r.push("has \"quote\"\n", 1, 1.0);
        r.host = HostInfo { vcpus: 2, kernel: "Avx2".into(), l3: "32768K".into() };
        let j = r.to_json();
        assert!(j.contains("\"host\": {\"vcpus\": 2, \"kernel\": \"Avx2\", \"l3\": \"32768K\"},"));
        assert!(j.contains("\"graph\": \"copying_web(n=8)\""));
        assert!(j.contains("\"msteps_per_sec\": 0.0"));
        assert!(j.contains("\\\"quote\\\"\\n"));
        // Every entry line but the last carries a trailing comma (the
        // host line is the other `},`).
        assert_eq!(j.matches("},\n").count(), 2);
        assert!(j.contains("}\n  ]"));
    }

    #[test]
    fn entries_on_another_graph_name_it() {
        let mut r = WalkBenchReport::new("web");
        r.push("step_frontier", 10, 1.0);
        r.push_on("social", "l1_table", 10, 1.0);
        let j = r.to_json();
        assert!(j.contains("\"msteps_per_sec\": 0.0},\n"), "{j}");
        assert!(j.contains("\"msteps_per_sec\": 0.0, \"graph\": \"social\"}\n"), "{j}");
        assert!(HostInfo::detect().vcpus >= 1);
    }

    #[test]
    fn write_roundtrip() {
        let mut r = WalkBenchReport::new("g");
        r.push("k", 10, 0.1);
        let dir = std::env::temp_dir().join("srs_walkbench_test.json");
        r.write(&dir).unwrap();
        let back = std::fs::read_to_string(&dir).unwrap();
        assert_eq!(back, r.to_json());
        let _ = std::fs::remove_file(&dir);
    }
}

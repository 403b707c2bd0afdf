//! Snapshot startup reporting: the `BENCH_snapshot.json` emitter.
//!
//! The point of the snapshot container is to replace the Monte-Carlo
//! preprocess at serving startup with one bulk checksummed read, so the
//! number that matters is the ratio between the two: how long a cold
//! build takes versus loading the same dataset from a packed `.srs`
//! bundle. The `snapshot` criterion bench measures both and writes this
//! report at the repo root (JSON is hand-rolled; the workspace is
//! offline, no serde).

use crate::walkbench::{json_string, HostInfo};
use std::io::Write;
use std::path::Path;

/// One cold-build vs snapshot-load comparison on a single dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotBenchReport {
    /// The host the bench ran on.
    pub host: HostInfo,
    /// Description of the graph the dataset was built over.
    pub graph: String,
    /// Vertex count.
    pub n: u32,
    /// Edge count.
    pub m: u64,
    /// Size of the packed snapshot in bytes.
    pub snapshot_bytes: u64,
    /// Sections whose checksums the load verified.
    pub sections_verified: u32,
    /// Wall-clock seconds for the cold build (preprocess: Algorithms 3+4
    /// plus index assembly).
    pub preprocess_secs: f64,
    /// Wall-clock seconds to load the packed snapshot into a ready
    /// dataset (best of the measured repetitions: the steady-state cost,
    /// not the page-cache warmup).
    pub load_secs: f64,
    /// Cold-start time-to-first-query through the heap loader: eager
    /// checksummed file read, then one answered query.
    pub heap_ttfq_secs: f64,
    /// The fastest heap `load_snapshot` of the TTFQ reps, split into its
    /// stages on one clock: `[load, read, checksum, validate]` seconds
    /// (see `srs_search::SnapshotInfo`); what the three stages leave of
    /// `load` is [`SnapshotBenchReport::heap_load_residual_secs`].
    pub heap_load_stages: [f64; 4],
    /// Cold-start time-to-first-query through the lazy `mmap` loader:
    /// O(sections) open plus structural scans, then one answered query
    /// faulting in only the pages it touches.
    pub mmap_ttfq_secs: f64,
    /// Sections whose checksums the lazy `mmap` load verified (0: they
    /// are left to the background verifier).
    pub mmap_sections_verified: u32,
    /// Heap bytes resident after the heap load (≈ the whole bundle).
    pub heap_resident_bytes: u64,
    /// Heap bytes resident after the `mmap` load (derived structures
    /// only — the arrays stay in the mapping).
    pub mmap_resident_bytes: u64,
    /// Bytes served through the mapping after the `mmap` load.
    pub mmap_mapped_bytes: u64,
}

impl SnapshotBenchReport {
    /// How many times faster the snapshot load is than the cold build.
    pub fn speedup(&self) -> f64 {
        if self.load_secs <= 0.0 {
            0.0
        } else {
            self.preprocess_secs / self.load_secs
        }
    }

    /// How many times faster the `mmap` cold start reaches its first
    /// answered query than the heap cold start.
    pub fn mmap_speedup(&self) -> f64 {
        if self.mmap_ttfq_secs <= 0.0 {
            0.0
        } else {
            self.heap_ttfq_secs / self.mmap_ttfq_secs
        }
    }

    /// The `mmap` cold start's TTFQ over the heap load's checksum and
    /// validate stages, the work a lazy open skips: below 1 while the
    /// lazy open, its structural scans and a first query together cost
    /// less than what they skip.
    pub fn mmap_ttfq_over_skipped(&self) -> f64 {
        let [_, _, checksum, validate] = self.heap_load_stages;
        if checksum + validate <= 0.0 {
            f64::INFINITY
        } else {
            self.mmap_ttfq_secs / (checksum + validate)
        }
    }

    /// The part of the heap load no stage accounts for.
    pub fn heap_load_residual_secs(&self) -> f64 {
        let [load, read, checksum, validate] = self.heap_load_stages;
        load - read - checksum - validate
    }

    /// Serializes the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"host\": {},\n  \"graph\": {},\n  \"n\": {},\n  \"m\": {},\n  \"snapshot_bytes\": {},\n  \
             \"sections_verified\": {},\n  \"preprocess_secs\": {:.6},\n  \"load_secs\": {:.6},\n  \
             \"speedup\": {:.1},\n  \"heap_ttfq_secs\": {:.6},\n  \"heap_load\": {{\"load_secs\": {:.6}, \
             \"read_secs\": {:.6}, \"checksum_secs\": {:.6}, \"validate_secs\": {:.6}, \
             \"residual_secs\": {:.6}}},\n  \"mmap_ttfq_secs\": {:.6},\n  \"mmap_sections_verified\": {},\n  \
             \"mmap_speedup\": {:.1},\n  \"mmap_ttfq_over_skipped\": {:.2},\n  \"heap_resident_bytes\": {},\n  \
             \"mmap_resident_bytes\": {},\n  \"mmap_mapped_bytes\": {}\n}}\n",
            self.host.to_json(),
            json_string(&self.graph),
            self.n,
            self.m,
            self.snapshot_bytes,
            self.sections_verified,
            self.preprocess_secs,
            self.load_secs,
            self.speedup(),
            self.heap_ttfq_secs,
            self.heap_load_stages[0],
            self.heap_load_stages[1],
            self.heap_load_stages[2],
            self.heap_load_stages[3],
            self.heap_load_residual_secs(),
            self.mmap_ttfq_secs,
            self.mmap_sections_verified,
            self.mmap_speedup(),
            self.mmap_ttfq_over_skipped(),
            self.heap_resident_bytes,
            self.mmap_resident_bytes,
            self.mmap_mapped_bytes
        )
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

    fn report() -> SnapshotBenchReport {
        SnapshotBenchReport {
            host: HostInfo { vcpus: 2, kernel: "Avx2".into(), l3: "32768K".into() },
            graph: "copying_web(n=100)".into(),
            n: 100,
            m: 400,
            snapshot_bytes: 12_345,
            sections_verified: 10,
            preprocess_secs: 2.0,
            load_secs: 0.01,
            heap_ttfq_secs: 0.05,
            heap_load_stages: [0.04, 0.01, 0.005, 0.02],
            mmap_ttfq_secs: 0.005,
            mmap_sections_verified: 0,
            heap_resident_bytes: 12_000,
            mmap_resident_bytes: 500,
            mmap_mapped_bytes: 11_500,
        }
    }

    #[test]
    fn speedup_math() {
        assert!((report().speedup() - 200.0).abs() < 1e-9);
        let degenerate = SnapshotBenchReport { load_secs: 0.0, ..report() };
        assert_eq!(degenerate.speedup(), 0.0);
        assert!((report().mmap_speedup() - 10.0).abs() < 1e-9);
        let degenerate = SnapshotBenchReport { mmap_ttfq_secs: 0.0, ..report() };
        assert_eq!(degenerate.mmap_speedup(), 0.0);
        assert!((report().mmap_ttfq_over_skipped() - 0.2).abs() < 1e-9);
        let degenerate = SnapshotBenchReport { heap_load_stages: [0.04, 0.04, 0.0, 0.0], ..report() };
        assert_eq!(degenerate.mmap_ttfq_over_skipped(), f64::INFINITY);
    }

    #[test]
    fn json_shape() {
        let j = report().to_json();
        assert!(
            j.starts_with("{\n  \"host\": {\"vcpus\": 2, \"kernel\": \"Avx2\", \"l3\": \"32768K\"},\n"),
            "{j}"
        );
        for key in [
            "\"graph\"",
            "\"snapshot_bytes\": 12345",
            "\"speedup\": 200.0",
            "\"sections_verified\": 10",
            "\"mmap_speedup\": 10.0",
            "\"mmap_sections_verified\": 0",
            "\"mmap_ttfq_over_skipped\": 0.20",
            "\"heap_load\": {\"load_secs\": 0.040000, \"read_secs\": 0.010000, \"checksum_secs\": 0.005000, \
             \"validate_secs\": 0.020000, \"residual_secs\": 0.005000}",
            "\"mmap_resident_bytes\": 500",
            "\"mmap_mapped_bytes\": 11500",
        ] {
            assert!(j.contains(key), "missing {key}: {j}");
        }
    }

    #[test]
    fn write_roundtrip() {
        let r = report();
        let path = std::env::temp_dir().join("srs_snapbench_test.json");
        r.write(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), r.to_json());
        let _ = std::fs::remove_file(&path);
    }
}

//! Incremental-maintenance reporting: the `BENCH_extend.json` emitter.
//!
//! The delta pipeline's pitch is that absorbing a small edit batch into a
//! served dataset should cost far less than the rebuild-repack-reload
//! cycle it replaces, because only the appended and dirty rows are
//! recomputed while every clean row is spliced from the parent. The
//! `extend` criterion bench measures both sides on the same edit batch at
//! a ladder of batch sizes and writes this report at the repo root
//! (hand-rolled JSON; the workspace is offline, no serde).

use crate::walkbench::{json_string, HostInfo};
use std::io::Write;
use std::path::Path;

/// One edit batch absorbed both ways: incrementally (delta apply + chain
/// reload) and from scratch (rebuild + repack + reload).
#[derive(Debug, Clone, PartialEq)]
pub struct ExtendBenchEntry {
    /// Edge insertions in the batch.
    pub insertions: u64,
    /// Edge deletions in the batch.
    pub deletions: u64,
    /// Vertices appended by the batch.
    pub appended: u32,
    /// Pre-existing vertices whose index rows were recomputed.
    pub dirty: u32,
    /// Index rows spliced unchanged from the parent.
    pub reused: u32,
    /// Fraction of the new graph's rows recomputed:
    /// `(appended + dirty) / new_n`.
    pub dirty_fraction: f64,
    /// Wall-clock seconds for `build_delta`: masked incremental extend
    /// plus delta-bundle encoding.
    pub apply_secs: f64,
    /// Wall-clock seconds to replay the written delta through
    /// `load_chain` (what a restarting server pays per chain link).
    pub reload_secs: f64,
    /// Wall-clock seconds for the full preprocess on the post-edit graph.
    pub rebuild_secs: f64,
    /// Wall-clock seconds to pack the rebuilt dataset into a bundle.
    pub repack_secs: f64,
    /// Wall-clock seconds to load the repacked bundle.
    pub rebuild_reload_secs: f64,
    /// Size of the written delta bundle in bytes.
    pub delta_bytes: u64,
}

impl ExtendBenchEntry {
    /// Total seconds for the incremental path (apply + chain reload).
    pub fn delta_secs(&self) -> f64 {
        self.apply_secs + self.reload_secs
    }

    /// Total seconds for the from-scratch path the delta replaces
    /// (rebuild + repack + reload).
    pub fn rebuild_total_secs(&self) -> f64 {
        self.rebuild_secs + self.repack_secs + self.rebuild_reload_secs
    }

    /// How many times faster the incremental path is.
    pub fn speedup(&self) -> f64 {
        if self.delta_secs() <= 0.0 {
            0.0
        } else {
            self.rebuild_total_secs() / self.delta_secs()
        }
    }
}

/// A full batch-size ladder on one base dataset.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExtendBenchReport {
    /// The host the bench ran on.
    pub host: HostInfo,
    /// Description of the base graph.
    pub graph: String,
    /// Base vertex count.
    pub n: u32,
    /// Base edge count.
    pub m: u64,
    /// Staleness depth every delta was built at (`T − 1` = bit-identical
    /// to a rebuild).
    pub staleness_depth: u32,
    /// Measured batches, smallest first.
    pub entries: Vec<ExtendBenchEntry>,
}

impl ExtendBenchReport {
    /// Serializes the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"host\": {},\n", self.host.to_json()));
        out.push_str(&format!("  \"graph\": {},\n", json_string(&self.graph)));
        out.push_str(&format!("  \"n\": {},\n  \"m\": {},\n", self.n, self.m));
        out.push_str(&format!("  \"staleness_depth\": {},\n", self.staleness_depth));
        out.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"insertions\": {}, \"deletions\": {}, \"appended\": {}, \"dirty\": {}, \
                 \"reused\": {}, \"dirty_fraction\": {:.4}, \"apply_secs\": {:.6}, \
                 \"reload_secs\": {:.6}, \"rebuild_secs\": {:.6}, \"repack_secs\": {:.6}, \
                 \"rebuild_reload_secs\": {:.6}, \"delta_bytes\": {}, \"speedup\": {:.1}}}{}\n",
                e.insertions,
                e.deletions,
                e.appended,
                e.dirty,
                e.reused,
                e.dirty_fraction,
                e.apply_secs,
                e.reload_secs,
                e.rebuild_secs,
                e.repack_secs,
                e.rebuild_reload_secs,
                e.delta_bytes,
                e.speedup(),
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

    fn entry() -> ExtendBenchEntry {
        ExtendBenchEntry {
            insertions: 40,
            deletions: 10,
            appended: 5,
            dirty: 95,
            reused: 1900,
            dirty_fraction: 0.05,
            apply_secs: 0.02,
            reload_secs: 0.01,
            rebuild_secs: 0.5,
            repack_secs: 0.05,
            rebuild_reload_secs: 0.05,
            delta_bytes: 10_000,
        }
    }

    #[test]
    fn speedup_math() {
        let e = entry();
        assert!((e.delta_secs() - 0.03).abs() < 1e-12);
        assert!((e.rebuild_total_secs() - 0.6).abs() < 1e-12);
        assert!((e.speedup() - 20.0).abs() < 1e-9);
        let degenerate = ExtendBenchEntry { apply_secs: 0.0, reload_secs: 0.0, ..entry() };
        assert_eq!(degenerate.speedup(), 0.0);
    }

    #[test]
    fn json_shape() {
        let r = ExtendBenchReport {
            host: HostInfo { vcpus: 2, kernel: "Avx2".into(), l3: "32768K".into() },
            graph: "copying_web(n=2000)".into(),
            n: 2000,
            m: 8000,
            staleness_depth: 10,
            entries: vec![entry(), entry()],
        };
        let j = r.to_json();
        for key in [
            "\"host\": {\"vcpus\": 2, \"kernel\": \"Avx2\", \"l3\": \"32768K\"}",
            "\"graph\"",
            "\"staleness_depth\": 10",
            "\"dirty_fraction\": 0.0500",
            "\"speedup\": 20.0",
            "\"delta_bytes\": 10000",
            "\"reused\": 1900",
        ] {
            assert!(j.contains(key), "missing {key}: {j}");
        }
        // One separator between the two entries, one after the host block.
        assert_eq!(j.matches("},\n").count(), 2, "{j}");
    }

    #[test]
    fn write_roundtrip() {
        let r = ExtendBenchReport {
            host: HostInfo::detect(),
            graph: "x".into(),
            n: 10,
            m: 20,
            staleness_depth: 10,
            entries: vec![entry()],
        };
        let path = std::env::temp_dir().join("srs_extendbench_test.json");
        r.write(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), r.to_json());
        let _ = std::fs::remove_file(&path);
    }
}

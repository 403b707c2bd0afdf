//! Per-query explain traces.
//!
//! An opt-in sink recording the fate of every candidate a top-k query
//! enumerated: which bound killed it (the `c^⌈d/2⌉` distance bound, the
//! L1 bound β(u,d), or the coarse pass), or that it was refined with the
//! full walk budget — and in each case the bound value that was compared
//! against the threshold. This is the
//! per-candidate view of the same accounting `QueryStats` keeps in
//! aggregate, so a trace's fate counts must reconcile with the stats.

use crate::registry::json_string;

/// Why a candidate stopped (or survived) in the Algorithm 5 scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CandidateFate {
    /// Killed by the distance bound `c^⌈d/2⌉ < θ`.
    PrunedDistance,
    /// Killed by the L1 upper bound β(u,d).
    PrunedL1,
    /// Killed by the coarse low-budget estimate.
    PrunedCoarse,
    /// Refined with the full budget but scored below θ.
    RefinedBelowTheta,
    /// Refined and scored at or above θ (offered to the top-k heap).
    Reported,
}

impl CandidateFate {
    pub const ALL: [CandidateFate; 5] = [
        CandidateFate::PrunedDistance,
        CandidateFate::PrunedL1,
        CandidateFate::PrunedCoarse,
        CandidateFate::RefinedBelowTheta,
        CandidateFate::Reported,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            CandidateFate::PrunedDistance => "pruned_distance",
            CandidateFate::PrunedL1 => "pruned_l1",
            CandidateFate::PrunedCoarse => "pruned_coarse",
            CandidateFate::RefinedBelowTheta => "refined_below_theta",
            CandidateFate::Reported => "reported",
        }
    }
}

/// One candidate's outcome: the value that decided its fate (an upper
/// bound for pruned fates, the estimated score for refined ones) and the
/// threshold it was compared against (θ, or the coarse cut).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateRecord {
    pub vertex: u32,
    /// BFS distance from the query vertex (`u32::MAX` if unreached).
    pub distance: u32,
    pub fate: CandidateFate,
    /// Bound or score compared against `threshold`.
    pub value: f64,
    /// Threshold `value` was compared against.
    pub threshold: f64,
}

/// Full trace of one query's candidate scan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExplainTrace {
    /// Query vertex.
    pub source: u32,
    /// Requested k.
    pub k: usize,
    /// Reporting threshold θ.
    pub theta: f64,
    /// One record per enumerated candidate, in scan order.
    pub records: Vec<CandidateRecord>,
}

impl ExplainTrace {
    pub fn new(source: u32, k: usize, theta: f64) -> Self {
        ExplainTrace { source, k, theta, records: Vec::new() }
    }

    #[inline]
    pub fn push(&mut self, rec: CandidateRecord) {
        self.records.push(rec);
    }

    /// Number of records with the given fate.
    pub fn count(&self, fate: CandidateFate) -> u64 {
        self.records.iter().filter(|r| r.fate == fate).count() as u64
    }

    /// Human-readable rendering, one line per candidate.
    pub fn render(&self) -> String {
        let mut out = format!(
            "explain: source={} k={} theta={:.4} candidates={}\n",
            self.source,
            self.k,
            self.theta,
            self.records.len()
        );
        for f in CandidateFate::ALL {
            let n = self.count(f);
            if n > 0 {
                out.push_str(&format!("  {:>6} {}\n", n, f.as_str()));
            }
        }
        for r in &self.records {
            let d = if r.distance == u32::MAX { "inf".to_string() } else { r.distance.to_string() };
            out.push_str(&format!(
                "  v={:<8} d={:<4} {:<20} value={:.6} threshold={:.6}\n",
                r.vertex,
                d,
                r.fate.as_str(),
                r.value,
                r.threshold
            ));
        }
        out
    }

    /// JSON rendering (hand-rolled; the workspace is offline).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"source\": {}, \"k\": {}, \"theta\": {},\n",
            self.source, self.k, self.theta
        ));
        out.push_str("  \"records\": [\n");
        for (i, r) in self.records.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"vertex\": {}, \"distance\": {}, \"fate\": {}, \"value\": {}, \"threshold\": {}}}{}\n",
                r.vertex,
                r.distance,
                json_string(r.fate.as_str()),
                r.value,
                r.threshold,
                if i + 1 < self.records.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(v: u32, fate: CandidateFate) -> CandidateRecord {
        CandidateRecord { vertex: v, distance: 2, fate, value: 0.5, threshold: 0.1 }
    }

    #[test]
    fn counts_by_fate() {
        let mut t = ExplainTrace::new(7, 10, 0.01);
        t.push(rec(1, CandidateFate::PrunedDistance));
        t.push(rec(2, CandidateFate::PrunedDistance));
        t.push(rec(3, CandidateFate::Reported));
        assert_eq!(t.count(CandidateFate::PrunedDistance), 2);
        assert_eq!(t.count(CandidateFate::Reported), 1);
        assert_eq!(t.count(CandidateFate::PrunedL1), 0);
        assert_eq!(t.records.len(), 3);
    }

    #[test]
    fn render_mentions_every_candidate() {
        let mut t = ExplainTrace::new(7, 10, 0.01);
        t.push(rec(11, CandidateFate::PrunedCoarse));
        t.push(CandidateRecord {
            vertex: 12,
            distance: u32::MAX,
            fate: CandidateFate::PrunedDistance,
            value: 0.0,
            threshold: 0.01,
        });
        let s = t.render();
        assert!(s.contains("source=7"));
        assert!(s.contains("v=11"));
        assert!(s.contains("pruned_coarse"));
        assert!(s.contains("d=inf"));
    }

    #[test]
    fn json_shape() {
        let mut t = ExplainTrace::new(1, 2, 0.5);
        t.push(rec(9, CandidateFate::RefinedBelowTheta));
        let j = t.to_json();
        assert!(j.contains("\"vertex\": 9"));
        assert!(j.contains("\"fate\": \"refined_below_theta\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}

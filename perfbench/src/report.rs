//! The run's report: human-readable lines first, then one JSON line.

use crate::json::quote;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

#[derive(Debug, Default)]
pub struct Report {
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub attempted: u64,
    /// Non-200 answers, refusals, timeouts and answer mismatches.
    pub failed: u64,
    /// Answers that differ from their reference (a subset of `failed`).
    pub mismatches: u64,
    /// Reasons the outputs are not correct (empty when they are).
    pub problems: Vec<String>,
    /// Set when an open-loop generator ran late: the run did not offer
    /// the load it claims. Steadiness mode reports how many did.
    pub generator_late: bool,
}

impl Report {
    /// Records and prints an end-to-end metric with the number of
    /// observations behind it (queries, requests, repetitions).
    pub fn e2e(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        println!("  {name:<18} {value:>14.4} {unit:<9} (n={samples})");
        self.end_to_end.push(Metric { name: name.to_string(), unit, value });
    }

    /// Records and prints a per-layer metric, likewise.
    pub fn layer(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        println!("  {name:<26} {value:>14.4} {unit:<9} (n={samples})");
        self.per_layer.push(Metric { name: name.to_string(), unit, value });
    }

    /// Prints a figure that is not exported: one that is 0 on every
    /// healthy run, or that only some workloads have.
    pub fn note(&self, name: &str, unit: &str, value: f64, samples: usize) {
        println!("  {name:<26} {value:>14.4} {unit:<9} (n={samples}, not exported)");
    }

    pub fn problem(&mut self, what: String) {
        println!("  PROBLEM: {what}");
        self.problems.push(what);
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.mismatches == 0
    }

    /// The final line: the end-to-end metrics of an untraced run or the
    /// per-layer metrics of a traced one.
    pub fn json_line(&self, traced: bool) -> String {
        let metrics = if traced { &self.per_layer } else { &self.end_to_end };
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(&m.name),
                    json_number(m.value),
                    quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        )
    }
}

/// Shortest round-trip text of a finite number (`{}` formatting); JSON
/// has no NaN or infinity, so those become 0 and are flagged elsewhere.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_parses_and_selects_the_metric_set() {
        let mut r = Report { attempted: 10, failed: 1, ..Default::default() };
        r.e2e("p50_ms", "ms", 1.25, 10);
        r.layer("query.scan_ms", "ms", 0.5, 10);
        let doc = crate::json::parse(&r.json_line(false)).unwrap();
        assert_eq!(doc.get("correct"), Some(&crate::json::Value::Bool(true)));
        assert_eq!(doc.get("failed").and_then(|v| v.as_f64()), Some(1.0));
        let m = doc.get("metrics").unwrap();
        assert_eq!(m.get("p50_ms").unwrap().get("value").unwrap().as_f64(), Some(1.25));
        assert!(m.get("query.scan_ms").is_none());
        let traced = crate::json::parse(&r.json_line(true)).unwrap();
        assert!(traced.get("metrics").unwrap().get("query.scan_ms").is_some());
        r.mismatches = 1;
        assert!(!r.correct());
    }
}

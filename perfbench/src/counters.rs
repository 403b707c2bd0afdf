//! The program's own counters, read from `/metrics` (Prometheus text) or
//! from `batch-query --metrics-out` (JSON), and turned into the query
//! layer's per-layer metrics. Both sources flatten to the same keys:
//! `name{label="value"}`, with histograms split into `_sum` and `_count`.

use crate::json::Value;
use std::collections::BTreeMap;

pub type Counters = BTreeMap<String, f64>;

/// Parses Prometheus text exposition (comments skipped, buckets kept
/// but unused).
pub fn parse_prometheus(text: &str) -> Counters {
    let mut out = Counters::new();
    for line in text.lines() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        if let Some((key, value)) = line.rsplit_once(' ') {
            if let Ok(v) = value.parse::<f64>() {
                out.insert(key.to_string(), v);
            }
        }
    }
    out
}

/// Flattens a `--metrics-out` JSON snapshot to the Prometheus keys.
pub fn parse_metrics_json(doc: &Value) -> Counters {
    let mut out = Counters::new();
    let Value::Obj(families) = doc else { return out };
    for (name, family) in families {
        for sample in family.get("samples").map(Value::as_array).unwrap_or(&[]) {
            let labels = match sample.get("labels") {
                Some(Value::Obj(ls)) if !ls.is_empty() => {
                    let parts: Vec<String> =
                        ls.iter().map(|(k, v)| format!("{k}=\"{}\"", v.as_str().unwrap_or(""))).collect();
                    format!("{{{}}}", parts.join(","))
                }
                _ => String::new(),
            };
            if let Some(v) = sample.get("value").and_then(Value::as_f64) {
                out.insert(format!("{name}{labels}"), v);
            }
            if let Some(v) = sample.get("sum").and_then(Value::as_f64) {
                out.insert(format!("{name}_sum{labels}"), v);
            }
            if let Some(v) = sample.get("count").and_then(Value::as_f64) {
                out.insert(format!("{name}_count{labels}"), v);
            }
        }
    }
    out
}

/// `after − before`, key by key (missing keys count as 0).
pub fn delta(before: &Counters, after: &Counters) -> Counters {
    after.iter().map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0.0))).collect()
}

/// Adds `other` into `acc` key by key.
pub fn accumulate(acc: &mut Counters, other: &Counters) {
    for (k, v) in other {
        *acc.entry(k.clone()).or_insert(0.0) += v;
    }
}

fn get(c: &Counters, key: &str) -> f64 {
    c.get(key).copied().unwrap_or(0.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Engine-computed queries in a counter delta (cache hits excluded: a
/// served cache hit records no stage observation and no walk steps).
pub fn computed_queries(c: &Counters) -> f64 {
    get(c, "srs_query_stage_ns_count{stage=\"enumerate\"}")
}

/// Answered queries in a counter delta, cache hits included. A cache hit
/// adds the `QueryStats` of the answer it copies (candidates, fates,
/// BFS visits, waves), so those counters are per answered query.
pub fn answered_queries(c: &Counters) -> f64 {
    get(c, "srs_queries_total")
}

/// Mean measured engine latency per computed query, ms (cache hits
/// observe a latency of 0 and are left out of the count).
pub fn mean_latency_ms(c: &Counters) -> f64 {
    ratio(get(c, "srs_query_latency_ns_sum"), computed_queries(c)) / 1e6
}

/// One stage's total time, ns.
pub fn stage_ns(c: &Counters, stage: &str) -> f64 {
    get(c, &format!("srs_query_stage_ns_sum{{stage=\"{stage}\"}}"))
}

pub const STAGES: [&str; 4] = ["enumerate", "bounds", "scan", "collect"];

/// Kept out of the exported per-layer set: 0 on every workload here
/// (no wave precomputes an estimate the scan then discards).
const NOT_EXPORTED: [&str; 2] = ["query.wave_wasted_ratio", "server.refused"];

/// Unit of a per-layer metric, from its name.
pub fn unit(name: &str) -> &'static str {
    if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("ratio") {
        "ratio"
    } else if name.ends_with("_bytes") {
        "bytes"
    } else {
        "count"
    }
}

/// Records `layers` in the report, printing the unexported ones.
pub fn record(report: &mut crate::report::Report, layers: &[(String, f64)], samples: usize) {
    for (name, v) in layers {
        if NOT_EXPORTED.contains(&name.as_str()) {
            report.note(name, unit(name), *v, samples);
        } else {
            report.layer(name, unit(name), *v, samples);
        }
    }
}

/// The query layer's per-layer metrics. Stage times, the engine
/// residual and walk steps are per engine-computed query; the
/// `QueryStats` counts are per answered query, cache hits included (the
/// same thing on batch workloads, which have no cache). Either way a
/// figure does not move with the cache hit ratio.
pub fn query_layers(c: &Counters) -> Vec<(String, f64)> {
    let q = computed_queries(c);
    let answered = answered_queries(c);
    let per_q_ms = |ns: f64| ratio(ns, q) / 1e6;
    let stage_total: f64 =
        STAGES.iter().map(|s| stage_ns(c, s)).sum::<f64>() + get(c, "srs_query_fast_tier_ns_sum");
    let fates = |f: &str| get(c, &format!("srs_query_candidate_fates_total{{fate=\"{f}\"}}"));
    let candidates = get(c, "srs_query_candidates_total");
    let pruned = fates("pruned_distance") + fates("pruned_bounds") + fates("pruned_coarse");
    let steps: f64 = ["dead", "unique", "branch"]
        .iter()
        .map(|class| get(c, &format!("srs_walk_steps_total{{class=\"{class}\"}}")))
        .sum();
    let mut out: Vec<(String, f64)> =
        STAGES.iter().map(|s| (format!("query.{s}_ms"), per_q_ms(stage_ns(c, s)))).collect();
    out.extend([
        ("query.residual_ms".to_string(), per_q_ms(get(c, "srs_query_latency_ns_sum") - stage_total)),
        ("query.bfs_visited".to_string(), ratio(get(c, "srs_query_bfs_visited_total"), answered)),
        ("query.candidates".to_string(), ratio(candidates, answered)),
        ("query.pruned_ratio".to_string(), ratio(pruned, candidates)),
        ("query.walk_steps".to_string(), ratio(steps, q)),
        ("query.refine_calls".to_string(), ratio(fates("refined") + fates("reported"), answered)),
        ("query.waves".to_string(), ratio(get(c, "srs_query_waves_total"), answered)),
        (
            "query.wave_wasted_ratio".to_string(),
            ratio(get(c, "srs_query_wave_wasted_total"), get(c, "srs_query_wave_survivors_sum")),
        ),
    ]);
    out
}

/// The server-side layers visible in `/metrics`.
pub fn server_layers(c: &Counters) -> Vec<(String, f64)> {
    let hits = get(c, "srs_cache_hits_total");
    let misses = get(c, "srs_cache_misses_total");
    vec![
        (
            "server.wave_size".to_string(),
            ratio(get(c, "srs_server_wave_size_sum"), get(c, "srs_server_wave_size_count")),
        ),
        ("cache.hit_ratio".to_string(), ratio(hits, hits + misses)),
        ("server.refused".to_string(), get(c, "srs_server_responses_total{code=\"503\"}")),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROM: &str = "# HELP srs_queries_total Queries\n# TYPE srs_queries_total counter\n\
        srs_query_stage_ns_sum{stage=\"enumerate\"} 4000000\n\
        srs_query_stage_ns_count{stage=\"enumerate\"} 2\n\
        srs_query_stage_ns_sum{stage=\"bounds\"} 2000000\n\
        srs_query_latency_ns_sum 7000000\n\
        srs_queries_total 2\n\
        srs_query_candidates_total 10\n\
        srs_query_candidate_fates_total{fate=\"pruned_bounds\"} 4\n\
        srs_cache_hits_total 3\nsrs_cache_misses_total 1\n";

    #[test]
    fn prometheus_and_json_flatten_to_the_same_keys() {
        let prom = parse_prometheus(PROM);
        let doc = crate::json::parse(
            r#"{"srs_query_stage_ns": {"kind": "histogram", "samples": [
                 {"labels": {"stage": "enumerate"}, "count": 2, "sum": 4000000, "buckets": []}]},
               "srs_cache_hits_total": {"kind": "counter", "samples": [{"labels": {}, "value": 3}]}}"#,
        )
        .unwrap();
        let js = parse_metrics_json(&doc);
        for key in
            ["srs_query_stage_ns_sum{stage=\"enumerate\"}", "srs_query_stage_ns_count{stage=\"enumerate\"}"]
        {
            assert_eq!(js.get(key), prom.get(key), "{key}");
        }
        assert_eq!(js.get("srs_cache_hits_total"), Some(&3.0));
    }

    #[test]
    fn layers_are_per_computed_query() {
        let c = parse_prometheus(PROM);
        let layers: BTreeMap<String, f64> = query_layers(&c).into_iter().collect();
        assert_eq!(layers["query.enumerate_ms"], 2.0);
        assert_eq!(layers["query.bounds_ms"], 1.0);
        assert_eq!(layers["query.residual_ms"], 0.5);
        assert_eq!(layers["query.candidates"], 5.0);
        assert_eq!(layers["query.pruned_ratio"], 0.4);
        let server: BTreeMap<String, f64> = server_layers(&c).into_iter().collect();
        assert_eq!(server["cache.hit_ratio"], 0.75);
        let zero = delta(&c, &c);
        assert_eq!(answered_queries(&zero), 0.0);
        assert_eq!(computed_queries(&zero), 0.0);
        assert_eq!(query_layers(&zero)[0].1, 0.0);
    }

    #[test]
    fn cache_hits_do_not_inflate_the_query_layers() {
        // Two computed queries, each with 5 candidates, 6 visits, 3 walk
        // steps and 1 wave, then six cache hits copying their stats. The
        // stage counts stay at the two computations; the stats counters
        // grow with every answer.
        let before = parse_prometheus(
            "srs_query_stage_ns_sum{stage=\"enumerate\"} 0\n\
             srs_query_stage_ns_count{stage=\"enumerate\"} 0\n\
             srs_queries_total 0\nsrs_query_candidates_total 0\n\
             srs_query_bfs_visited_total 0\nsrs_query_waves_total 0\n\
             srs_cache_hits_total 0\nsrs_cache_misses_total 0\n",
        );
        let after = parse_prometheus(
            "srs_query_stage_ns_sum{stage=\"enumerate\"} 4000000\n\
             srs_query_stage_ns_count{stage=\"enumerate\"} 2\n\
             srs_query_latency_ns_sum 5000000\nsrs_query_latency_ns_count 8\n\
             srs_queries_total 8\nsrs_query_candidates_total 40\n\
             srs_query_candidate_fates_total{fate=\"reported\"} 16\n\
             srs_walk_steps_total{class=\"unique\"} 6\n\
             srs_query_bfs_visited_total 48\nsrs_query_waves_total 8\n\
             srs_cache_hits_total 6\nsrs_cache_misses_total 2\n",
        );
        let d = delta(&before, &after);
        let layers: BTreeMap<String, f64> = query_layers(&d).into_iter().collect();
        assert_eq!(layers["query.enumerate_ms"], 2.0);
        assert_eq!(layers["query.residual_ms"], 0.5);
        assert_eq!(mean_latency_ms(&d), 2.5);
        assert_eq!(layers["query.walk_steps"], 3.0);
        assert_eq!(layers["query.candidates"], 5.0);
        assert_eq!(layers["query.bfs_visited"], 6.0);
        assert_eq!(layers["query.refine_calls"], 2.0);
        assert_eq!(layers["query.waves"], 1.0);
        let server: BTreeMap<String, f64> = server_layers(&d).into_iter().collect();
        assert_eq!(server["cache.hit_ratio"], 0.75);
    }
}

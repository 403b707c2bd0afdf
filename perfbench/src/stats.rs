//! Order statistics for latency samples and run-to-run spreads.

/// A nearest-rank percentile together with the number of samples it was
/// taken from, so a report can never print a tail figure without saying
/// how many observations stand behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    pub samples: usize,
}

/// Nearest-rank percentile (`p` in `0..=1`) of `values`: the smallest
/// sample with at least `p · n` samples at or below it. Empty input
/// gives `None`.
pub fn nearest_rank(values: &[f64], p: f64) -> Option<Percentile> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(Percentile { value: sorted[rank - 1], samples: sorted.len() })
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median (mean of the two middle samples for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First and third quartile by the "exclusive" method, which is what
/// Python's `statistics.quantiles(values, n=4)` returns — the rule the
/// benchmark's steadiness bounds are checked with.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        let v = sorted.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let at = |j: usize| {
        let m = (n + 1) as f64;
        let pos = m * j as f64 / 4.0;
        let i = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - i as f64;
        sorted[i - 1] + (sorted[i] - sorted[i - 1]) * frac
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_reports_value_and_sample_count() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), Some(Percentile { value: 5.0, samples: 10 }));
        assert_eq!(nearest_rank(&v, 0.9), Some(Percentile { value: 9.0, samples: 10 }));
        assert_eq!(nearest_rank(&v, 1.0).unwrap().value, 10.0);
        assert_eq!(nearest_rank(&v, 0.0).unwrap().value, 1.0);
        assert_eq!(nearest_rank(&[3.0], 0.9), Some(Percentile { value: 3.0, samples: 1 }));
        assert_eq!(nearest_rank(&[], 0.5), None);
    }

    #[test]
    fn nearest_rank_ignores_input_order() {
        let v = [9.0, 1.0, 5.0, 3.0, 7.0];
        assert_eq!(nearest_rank(&v, 0.5).unwrap().value, 5.0);
        assert_eq!(nearest_rank(&v, 0.9).unwrap().value, 9.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}

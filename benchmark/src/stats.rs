//! Order statistics over small samples.

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The `q`-quantile by nearest rank: the smallest sample with at least a
/// share `q` of the samples at or below it.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median, over every run of `window` consecutive values, of the run's sum.
/// With `values` the cost of successive steps that cycle through `window`
/// inputs, every such run is one pass over all inputs, wherever it starts;
/// the median pass shrugs off the passes a stall fell into. `None` when
/// there are fewer than `window` values.
pub fn median_pass(values: &[f64], window: usize) -> Option<f64> {
    let sums: Vec<f64> = values.windows(window).map(|w| w.iter().sum()).collect();
    (!sums.is_empty()).then(|| median(&sums))
}

/// A percentile is only reported as a finding when at least ten samples
/// lie beyond it; below that it is one or two outliers, not a tail.
pub fn tail_is_supported(samples: usize, q: f64) -> bool {
    samples as f64 * (1.0 - q) >= 10.0 - 1e-9
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles Python's `statistics.quantiles(values, n=4)` gives —
/// the spread the acceptance runs are judged by. `None` below two samples.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    let mid = median(&sorted);
    (mid != 0.0).then(|| (quartile(3) - quartile(1)) / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn median_pass_ignores_a_stalled_minority() {
        // Steps cycle through costs 1, 2, 3: every pass of three sums to 6.
        let steady = [1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 1.0, 2.0];
        assert_eq!(median_pass(&steady, 3), Some(6.0));
        // One stalled step spoils three of the six passes, not the median.
        let mut stalled = steady;
        stalled[0] = 50.0;
        assert_eq!(median_pass(&stalled, 3), Some(6.0));
        assert_eq!(median_pass(&steady[..3], 3), Some(6.0));
        assert_eq!(median_pass(&steady[..2], 3), None);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p90 needs 100 samples, p99 needs 1000; 99 and 999 fall short.
        assert!(tail_is_supported(100, 0.90));
        assert!(!tail_is_supported(99, 0.90));
        assert!(tail_is_supported(1000, 0.99));
        assert!(!tail_is_supported(999, 0.99));
        // A median always has ten beyond it from twenty samples on.
        assert!(tail_is_supported(20, 0.50));
        assert!(!tail_is_supported(16, 0.50));
    }

    #[test]
    fn quartile_spread_matches_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v).unwrap() - 1.0).abs() < 1e-12);
        // statistics.quantiles([10, 12, 11, 15, 13], n=4) == [10.5, 12.0, 14.0]
        let v = [10.0, 12.0, 11.0, 15.0, 13.0];
        assert!((quartile_spread(&v).unwrap() - 3.5 / 12.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[1.0]), None);
        assert_eq!(quartile_spread(&[0.0, 0.0, 0.0]), None);
    }
}

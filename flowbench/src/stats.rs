//! Order statistics for rep timings and latency samples.

/// Sorts a sample in place (NaN-free inputs; `total_cmp` keeps it total).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Median of a sorted, non-empty sample.
pub fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Median of an unsorted, non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    median_sorted(&sorted)
}

/// First and third quartile, by the rule of Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) so that a
/// spread computed here equals the one the acceptance check computes.
/// A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    let n = sorted.len();
    assert!(n > 0, "quartiles of an empty sample");
    if n == 1 {
        return (sorted[0], sorted[0]);
    }
    let at = |i: usize| {
        // Position i * (n + 1) / 4, 1-based, interpolated and clamped.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta.clamp(0.0, 1.0)
    };
    (at(1), at(3))
}

/// Mean of the middle half of a non-empty sample: the lowest and the
/// highest quarter (rounded down) are left out.
pub fn midmean(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    let cut = sorted.len() / 4;
    mean(&sorted[cut..sorted.len() - cut])
}

/// Median and midmean with quartiles, extremes and sample count, as
/// every timing is reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
    pub midmean: f64,
    pub n: usize,
}

/// Summary of a sample; all zeros for an empty one.
pub fn summarize(values: &[f64]) -> Summary {
    if values.is_empty() {
        return Summary { min: 0.0, q1: 0.0, median: 0.0, q3: 0.0, max: 0.0, midmean: 0.0, n: 0 };
    }
    let (q1, q3) = quartiles(values);
    Summary {
        min: values.iter().copied().fold(f64::INFINITY, f64::min),
        q1,
        median: median(values),
        q3,
        max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        midmean: midmean(values),
        n: values.len(),
    }
}

/// The `q`-quantile (nearest rank) of a sorted, non-empty sample.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "quantile of an empty sample");
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// The highest of p50, p90, p99 and p99.9 that still has at least ten
/// samples beyond it, so a reported tail is never one or two outliers.
pub fn highest_supported_percentile(n: usize) -> f64 {
    // In whole per-mille, so that 100 samples do support p90.
    [(999usize, 0.999), (990, 0.99), (900, 0.9)]
        .into_iter()
        .find(|(permille, _)| n * (1000 - permille) >= 10_000)
        .map_or(0.5, |(_, q)| q)
}

/// `q` when the sample supports it, otherwise the highest percentile it
/// does support.
pub fn supported(q: f64, n: usize) -> f64 {
    q.min(highest_supported_percentile(n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12, "{q1} {q3}");
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let (q1, q3) = quartiles(&[5.0, 3.0, 1.0, 4.0, 2.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 4.5).abs() < 1e-12, "{q1} {q3}");
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25], clamped
        // here to the sample's own range.
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((1.0..=2.0).contains(&q1) && (1.0..=2.0).contains(&q3));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
    }

    #[test]
    fn midmean_leaves_out_the_outer_quarters() {
        // Two speeds, sampled equally: the midpoint, whatever the outliers.
        assert_eq!(midmean(&[2.0, 3.0, 2.0, 3.0, 2.0, 3.0, 0.5, 9.0]), 2.5);
        assert_eq!(midmean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(midmean(&[1.0, 2.0, 3.0, 100.0]), 2.5);
        assert_eq!(midmean(&[7.0]), 7.0);
    }

    #[test]
    fn summary_carries_the_extremes() {
        let s = summarize(&[3.0, 9.0, 1.0, 4.0]);
        assert_eq!((s.min, s.median, s.max, s.n), (1.0, 3.5, 9.0, 4));
        assert_eq!(summarize(&[]).n, 0);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50.0);
        assert_eq!(quantile_sorted(&v, 0.99), 99.0);
        assert_eq!(quantile_sorted(&v, 1.0), 100.0);
        assert_eq!(quantile_sorted(&[5.0], 0.99), 5.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(5), 0.5);
        assert_eq!(highest_supported_percentile(99), 0.5);
        assert_eq!(highest_supported_percentile(100), 0.9);
        assert_eq!(highest_supported_percentile(999), 0.9);
        assert_eq!(highest_supported_percentile(1_000), 0.99);
        assert_eq!(highest_supported_percentile(10_000), 0.999);
        assert_eq!(supported(0.99, 500), 0.9);
        assert_eq!(supported(0.99, 20_000), 0.99);
    }
}

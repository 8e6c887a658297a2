//! Exact statistics over raw samples. Nothing here buckets: the bounds in
//! `BENCHMARK.json` are tighter than a log-histogram's ~9% bucket width.

/// Sorted copy of `xs`. Timings are never NaN, so a total order exists.
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Exact percentile with linear interpolation between closest ranks
/// (`p` in 0..=100). Panics on an empty slice: a metric with no samples is
/// a bug in the workload, not a value.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let v = sorted(xs);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Exact median (mean of the two middle samples for an even count).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Smallest sample.
pub fn min(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "min of no samples");
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Arithmetic mean.
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "mean of no samples");
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Geometric mean of strictly positive samples.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of no samples");
    assert!(
        xs.iter().all(|&x| x > 0.0),
        "geomean needs positive samples"
    );
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Median over windows of `completed / seconds`: one slow window (a sticky
/// slow connection) moves the whole-run rate but not this.
pub fn window_median_rate(windows: &[(u64, f64)]) -> f64 {
    let rates: Vec<f64> = windows.iter().map(|&(n, secs)| n as f64 / secs).collect();
    median(&rates)
}

/// Interquartile range over the median, quartiles by the exclusive method
/// (what Python's `statistics.quantiles(values, n=4)` computes, which is
/// what the driver applies to ten runs).
pub fn iqr_over_median(xs: &[f64]) -> f64 {
    assert!(xs.len() >= 2, "quartiles need two samples");
    let v = sorted(xs);
    let n = v.len();
    let q = |k: f64| {
        let pos = k * (n + 1) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        v[lo - 1] + (v[lo] - v[lo - 1]) * (pos - lo as f64)
    };
    (q(3.0) - q(1.0)) / median(xs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert!((percentile(&xs, 95.0) - 3.85).abs() < 1e-12);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[1.0, 9.0, 5.0]), 5.0);
    }

    #[test]
    fn geomean_weighs_ratios_not_differences() {
        assert!((geomean(&[4.0, 100.0]) - 20.0).abs() < 1e-12);
        // Halving the small cell moves it as much as halving the big one.
        let a = geomean(&[2.0, 100.0]);
        let b = geomean(&[4.0, 50.0]);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn window_median_ignores_one_slow_window() {
        let w = [
            (400, 10.0),
            (402, 10.0),
            (398, 10.0),
            (250, 10.0),
            (401, 10.0),
        ];
        assert_eq!(window_median_rate(&w), 40.0);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_over_median(&xs) - 1.0).abs() < 1e-12);
        // statistics.quantiles([10, 12, 11, 13, 50], n=4) == [10.5, 12.0, 31.5]
        let ys = [10.0, 12.0, 11.0, 13.0, 50.0];
        assert!((iqr_over_median(&ys) - 21.0 / 12.0).abs() < 1e-12);
    }
}

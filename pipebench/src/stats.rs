//! Order statistics for the figures a run reports.

/// The percentiles a timing may be reported at, lowest first, in tenths
/// of a percent (so the rank arithmetic stays in integers).
pub const PERMILLES: [usize; 4] = [500, 900, 990, 999];

/// A percentile is reportable only when at least this many samples lie
/// beyond it; below that, one outlier more or less moves it.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs`: the middle value, or the mean of the middle pair.
/// `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Samples strictly beyond the nearest-rank percentile `permille / 10`
/// of `n` samples (the sample at rank `ceil(permille · n / 1000)`).
pub fn beyond(n: usize, permille: usize) -> usize {
    if n == 0 {
        return 0;
    }
    n - (permille * n).div_ceil(1000).clamp(1, n)
}

/// The highest of [`PERMILLES`], as a percentile, with at least
/// [`MIN_BEYOND`] samples beyond it; `None` when even the median has too
/// few.
pub fn highest_reportable(n: usize) -> Option<f64> {
    PERMILLES
        .iter()
        .copied()
        .rfind(|&pm| beyond(n, pm) >= MIN_BEYOND)
        .map(|pm| pm as f64 / 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn with_24_samples_only_the_median_is_reportable() {
        assert_eq!(beyond(24, 500), 12);
        assert_eq!(beyond(24, 900), 2);
        assert_eq!(highest_reportable(24), Some(50.0));
    }

    #[test]
    fn the_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_reportable(19), None);
        assert_eq!(highest_reportable(20), Some(50.0));
        assert_eq!(highest_reportable(99), Some(50.0));
        assert_eq!(highest_reportable(100), Some(90.0));
        assert_eq!(highest_reportable(1_000), Some(99.0));
        assert_eq!(highest_reportable(10_000), Some(99.9));
        assert_eq!(highest_reportable(0), None);
    }
}

//! Exact order statistics over raw samples.
//!
//! Percentiles come from the sorted samples themselves (nearest rank),
//! never from the log-linear `vclock::stats::Histogram`, whose buckets
//! are up to 6.25 % wide and would hide smaller changes.

/// The `p`-th percentile (0 < p <= 100) by the nearest-rank method: the
/// smallest sample with at least `p` % of the samples at or below it.
/// `None` for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(nearest_rank(&sorted, p))
}

/// [`percentile`] over samples already sorted ascending.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of (0, 100]");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of host-time samples (mean of the middle pair for an even
/// count, so two rounds report their midpoint).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_selects_the_covering_sample() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 99.0), Some(99.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(percentile(&xs, 0.5), Some(1.0));
        // Ten samples: p99 needs rank ceil(9.9) = 10.
        let ten: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(percentile(&ten, 99.0), Some(10.0));
        assert_eq!(percentile(&ten, 50.0), Some(5.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_is_exact_below_histogram_resolution() {
        // Two samples 1 % apart stay distinct, which a 6.25 % bucket
        // would merge.
        let xs = [100.0, 101.0];
        assert_eq!(percentile(&xs, 50.0), Some(100.0));
        assert_eq!(percentile(&xs, 99.0), Some(101.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}

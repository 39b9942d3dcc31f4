//! Percentiles by nearest rank, with the rule that a reported percentile
//! needs at least [`MIN_BEYOND`] samples above it; otherwise it is no tail.

/// Samples that must lie strictly above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (`0 < p < 1`) of `samples` by nearest rank, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond its rank.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The median by nearest rank (no tail rule: every non-empty sample has
/// one). `0.0` for an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[samples.len().div_ceil(2) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        // Shuffled on purpose: the functions must sort.
        let mut v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        v.reverse();
        v.swap(0, n / 2);
        v
    }

    #[test]
    fn p90_needs_ten_samples_beyond() {
        // 100 samples: rank 90 holds 90, and 10 samples (91..=100) lie beyond.
        assert_eq!(percentile(&one_to(100), 0.90), Some(90.0));
        // 99 samples: rank ceil(89.1) = 90, only 9 beyond.
        assert_eq!(percentile(&one_to(99), 0.90), None);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(percentile(&one_to(1000), 0.99), Some(990.0));
        assert_eq!(percentile(&one_to(999), 0.99), None);
    }

    #[test]
    fn p50_by_nearest_rank() {
        assert_eq!(percentile(&one_to(40), 0.50), Some(20.0));
        assert_eq!(median(&one_to(5)), 3.0);
        assert_eq!(median(&one_to(4)), 2.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(percentile(&[], 0.5), None);
    }
}

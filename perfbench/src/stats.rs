//! Exact order statistics over recorded samples.
//!
//! Percentiles use the nearest-rank definition on the full sample set:
//! the `q`-quantile of `n` samples is the `ceil(q·n)`-th smallest. No
//! bucketing, so the value is one of the samples and the count of
//! samples strictly beyond its rank is exact.

/// A percentile read off the recorded samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at the percentile's rank.
    pub value: f64,
    /// Samples recorded in total.
    pub samples: usize,
    /// Samples ranked above `value` (the tail the percentile stands on).
    pub beyond: usize,
}

impl Percentile {
    /// The rule every reported percentile must meet: at least ten
    /// samples beyond it.
    pub fn resolved(&self) -> bool {
        self.beyond >= 10
    }
}

/// The nearest-rank `q`-quantile (`0 < q <= 1`) of `samples`; `None`
/// when there are no samples.
pub fn percentile(samples: &[f64], q: f64) -> Option<Percentile> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// The median: the middle sample, or the mean of the two middle ones.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// Arithmetic mean; `None` when empty.
pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        None
    } else {
        Some(samples.iter().sum::<f64>() / samples.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_known_samples() {
        // 1..=100 in scrambled order.
        let samples: Vec<f64> = (0..100).map(|i| ((i * 37) % 100 + 1) as f64).collect();
        let p50 = percentile(&samples, 0.50).unwrap();
        assert_eq!((p50.value, p50.samples, p50.beyond), (50.0, 100, 50));
        let p95 = percentile(&samples, 0.95).unwrap();
        assert_eq!((p95.value, p95.beyond), (95.0, 5));
        let p99 = percentile(&samples, 0.99).unwrap();
        assert_eq!((p99.value, p99.beyond), (99.0, 1));
        assert!(!p99.resolved());
        assert!(p50.resolved());
        let max = percentile(&samples, 1.0).unwrap();
        assert_eq!((max.value, max.beyond), (100.0, 0));
    }

    #[test]
    fn percentile_is_a_recorded_sample_not_a_bucket_bound() {
        let samples = [0.101, 0.250, 0.399, 7.5, 12.25];
        assert_eq!(percentile(&samples, 0.5).unwrap().value, 0.399);
        assert_eq!(percentile(&samples, 0.8).unwrap().value, 7.5);
        assert_eq!(percentile(&samples, 0.81).unwrap().value, 12.25);
        assert_eq!(percentile(&[3.0], 0.99).unwrap().value, 3.0);
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn medians_and_means() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }
}

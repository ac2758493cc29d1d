//! Order statistics over timing samples.

/// A percentile of `samples` by the nearest-rank rule: the smallest sample
/// with at least `q` of all samples at or below it. `q` is in `(0, 1]`.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median by the nearest-rank rule.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// How many samples lie strictly beyond the nearest-rank `q` percentile.
pub fn beyond(samples: &[f64], q: f64) -> usize {
    let p = percentile(samples, q);
    samples.iter().filter(|&&x| x > p).count()
}

/// Samples a run needs so that at least ten lie beyond its p90.
pub const MIN_SAMPLES_P90: usize = 110;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(beyond(&v, 0.9), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn min_samples_leave_ten_beyond_p90() {
        let v: Vec<f64> = (0..MIN_SAMPLES_P90).map(|i| i as f64).collect();
        assert!(beyond(&v, 0.9) >= 10);
    }
}

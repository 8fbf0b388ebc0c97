//! Order statistics for latency samples.

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it. `None` on an empty set.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[nearest_rank(sorted.len(), p) - 1])
}

/// How many of `n` samples lie strictly beyond the `p`-th percentile's
/// nearest rank.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - nearest_rank(n, p)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 91.0), Some(10.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Order of arrival does not matter.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
    }

    #[test]
    fn reported_tail_keeps_ten_samples_beyond_it() {
        // 200 samples: rank 190, ten beyond. 199: rank 190, nine beyond.
        assert_eq!(samples_beyond(200, 95.0), 10);
        assert_eq!(samples_beyond(199, 95.0), 9);
        assert_eq!(samples_beyond(20, 50.0), 10);
        assert_eq!(samples_beyond(0, 50.0), 0);
        // The full profile never times fewer frames than the tail needs.
        let floor = crate::rig::Profile::FULL.min_frames;
        assert!(samples_beyond(floor, crate::metrics::TAIL_PERCENTILE) >= 10);
    }
}

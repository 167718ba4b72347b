//! Order statistics over measured samples.

/// The highest percentile [`tail`] reports. Higher percentiles rest on
/// so few samples that, on a shared 2-core host, their run-to-run spread
/// exceeds any bound the benchmark may set.
pub const TAIL_MAX: f64 = 0.95;

/// Nearest-rank percentile (`q` in `0.0..=1.0`) of unsorted samples; 0
/// for an empty set.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (nearest rank) of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// How many samples lie strictly above the `q` percentile: the guide for
/// whether a tail percentile rests on enough data.
pub fn beyond(samples: &[f64], q: f64) -> usize {
    let cut = percentile(samples, q);
    samples.iter().filter(|&&v| v > cut).count()
}

/// The tail percentile a run of `samples.len()` operations supports, with
/// its value: p95, or lower when fewer than ten samples would lie beyond
/// p95 (never below the median).
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let n = samples.len().max(1) as f64;
    let q = (1.0 - 10.0 / n).clamp(0.5, TAIL_MAX);
    (q, percentile(samples, q))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(beyond(&xs, 0.9), 10);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(tail(&xs), (0.9, 90.0));
        let many: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&many), (0.95, 1900.0));
        assert_eq!(beyond(&many, 0.99), 20);
    }
}

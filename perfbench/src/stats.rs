//! Order statistics, with the rule that a tail percentile is reported only
//! when at least [`MIN_BEYOND`] samples lie beyond it.

use fpdm::plinda::metrics::HistogramValue;

/// Samples that must lie beyond a tail percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of ascending `sorted`: the smallest sample with
/// at least a fraction `q` of the samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of the `q` percentile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Number of samples strictly beyond the nearest-rank `q` percentile.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// The `q` tail percentile of ascending `sorted`, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it.
pub fn tail(sorted: &[f64], q: f64) -> Option<f64> {
    (beyond(sorted.len(), q) >= MIN_BEYOND).then(|| percentile(sorted, q))
}

/// Samples per window of [`windows`]: enough for the p90 to have
/// [`MIN_BEYOND`] samples beyond it.
pub const WINDOW_SAMPLES: usize = 100;

/// Most windows a pass is split into.
pub const MAX_WINDOWS: usize = 9;

/// Split `samples` (in the order they were sent) into consecutive windows
/// of at least [`WINDOW_SAMPLES`] each: an odd number of them, at most
/// [`MAX_WINDOWS`], so that the median over windows is one window's
/// figure. A pass with fewer than three windows' worth of samples is one
/// window. Each window comes back sorted.
pub fn windows(samples: &[f64]) -> Vec<Vec<f64>> {
    let mut k = (samples.len() / WINDOW_SAMPLES).clamp(1, MAX_WINDOWS);
    if k % 2 == 0 {
        k -= 1;
    }
    (0..k)
        .map(|i| sorted(&samples[i * samples.len() / k..(i + 1) * samples.len() / k]))
        .collect()
}

/// Median (mean of the two middle samples for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median, or 0 for no samples (a layer the workload never called).
pub fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// Sorted copy.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q` percentile of a log2-bucket ledger histogram, interpolated
/// linearly by rank inside the bucket that holds it. Bucket `k >= 1` spans
/// `[2^(k-1), 2^k)`. Returns 0 for an empty histogram.
pub fn histogram_percentile(h: &HistogramValue, q: f64) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    let want = rank(h.count as usize, q) as u64;
    let mut seen = 0u64;
    for &(k, n) in &h.buckets {
        if n == 0 {
            continue;
        }
        if seen + n >= want {
            if k == 0 {
                return 0.0;
            }
            let lo = (1u64 << (k - 1)) as f64;
            let within = (want - seen) as f64 / n as f64;
            return lo + within * lo;
        }
        seen += n;
    }
    0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 samples has exactly 10 beyond it; of 999, only 9.
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(tail(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(tail(&ramp(999), 0.99), None);
        // p90 of 100 samples qualifies, of 99 it does not.
        assert_eq!(tail(&ramp(100), 0.90), Some(90.0));
        assert_eq!(tail(&ramp(99), 0.90), None);
        assert_eq!(tail(&[], 0.5), None);
    }

    #[test]
    fn nearest_rank_and_median() {
        let v = ramp(10);
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_or_zero(&[]), 0.0);
    }

    #[test]
    fn windows_are_odd_full_and_in_send_order() {
        assert_eq!(windows(&ramp(99)).len(), 1);
        assert_eq!(windows(&ramp(299)).len(), 1);
        assert_eq!(windows(&ramp(300)).len(), 3);
        assert_eq!(windows(&ramp(5000)).len(), MAX_WINDOWS);
        let w = windows(&ramp(450));
        assert_eq!(w.len(), 3);
        assert_eq!(w.iter().map(Vec::len).sum::<usize>(), 450);
        assert!(w.iter().all(|x| tail(x, 0.90).is_some()));
        // Consecutive: the first window holds the first samples sent.
        assert_eq!(w[0][0], 1.0);
        assert_eq!(w[2][w[2].len() - 1], 450.0);
    }

    #[test]
    fn histogram_percentile_interpolates_inside_the_bucket() {
        let reg = fpdm::plinda::MetricsRegistry::new();
        let h = reg.histogram("h");
        for _ in 0..4 {
            h.observe(1000); // bucket [512, 1024)
        }
        let snap = reg.snapshot();
        let hv = snap.histogram("h").unwrap();
        let p50 = histogram_percentile(hv, 0.5);
        assert!((512.0..1024.0).contains(&p50), "{p50}");
        assert_eq!(histogram_percentile(hv, 1.0), 1024.0);
    }
}

//! Percentiles, ratios and before/after diffs of the engine's metrics.

use tpd_metrics::{HistogramSnapshot, MetricsSnapshot};

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile (`q` in (0, 1)) of sorted samples, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n == 0 || n - rank.min(n) < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// `num / base`, with a zero base read as "nothing happened": 0.
pub fn ratio(num: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        num / base
    }
}

/// The median of values a run measured many times over (a latency per
/// slice, a commit rate per slice, a set-up time; the mean of the middle
/// two when their number is even). A run spreads those samples over its
/// whole length, and on a shared virtual machine two things move them:
/// bursts of load from elsewhere, which can spoil a third of a run's slices
/// at once, and the host's speed, which switches between a faster and a
/// slower state every few seconds. The median ignores a burst until it
/// covers half the run, where the mean of the middle half gives way once a
/// burst covers a quarter. Against the host's switching the two did
/// equally well, and better than a quartile, which jumps from one state's
/// value to the other's as the share of the run spent in the faster state
/// crosses a quarter.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// What the engine and server recorded between two snapshots.
#[derive(Default)]
pub struct Window {
    pub before: MetricsSnapshot,
    pub after: MetricsSnapshot,
}

impl Window {
    pub fn counter(&self, name: &str) -> f64 {
        let get = |m: &MetricsSnapshot| m.counters.get(name).copied().unwrap_or(0);
        get(&self.after).saturating_sub(get(&self.before)) as f64
    }

    pub fn hist(&self, name: &str) -> HistogramSnapshot {
        let empty = HistogramSnapshot::default();
        let after = self.after.histograms.get(name).unwrap_or(&empty);
        let before = self.before.histograms.get(name).unwrap_or(&empty);
        hist_diff(after, before)
    }
}

/// Bucket-wise `after − before`: the recordings made in between.
pub fn hist_diff(after: &HistogramSnapshot, before: &HistogramSnapshot) -> HistogramSnapshot {
    let buckets: Vec<(u64, u64)> = after
        .buckets
        .iter()
        .filter_map(|&(floor, n)| {
            let earlier = before
                .buckets
                .iter()
                .find(|&&(f, _)| f == floor)
                .map_or(0, |&(_, m)| m);
            let d = n.saturating_sub(earlier);
            (d > 0).then_some((floor, d))
        })
        .collect();
    HistogramSnapshot {
        count: buckets.iter().map(|&(_, n)| n).sum(),
        sum: after.sum.saturating_sub(before.sum),
        buckets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpd_metrics::Histogram;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.99), Some(990), "exactly 10 beyond");
        assert_eq!(percentile(&v[..999], 0.99), None, "9 beyond");
        assert_eq!(percentile(&v, 0.5), Some(500));
        assert_eq!(percentile(&v[..19], 0.5), None, "9 beyond the median");
        assert_eq!(percentile(&v[..20], 0.5), Some(10));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn zero_base_ratio_is_zero_not_nan() {
        assert_eq!(ratio(0.0, 0.0), 0.0);
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
        assert!(ratio(0.0, 0.0).is_finite());
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn hist_diff_keeps_only_the_window() {
        let h = Histogram::new();
        h.record(100);
        h.record(5_000);
        let before = h.snapshot();
        h.record(5_000);
        h.record(80_000);
        let d = hist_diff(&h.snapshot(), &before);
        assert_eq!(d.count, 2);
        assert_eq!(d.sum, 85_000);
        assert!(d.quantile(0.5) <= 5_000 && d.quantile(0.5) >= 4_000);
        assert!(d.quantile(1.0) >= 64_000);
        let w = Window {
            before: MetricsSnapshot::new(),
            after: MetricsSnapshot::new(),
        };
        assert_eq!(w.counter("absent"), 0.0);
        assert_eq!(w.hist("absent").count, 0);
    }
}

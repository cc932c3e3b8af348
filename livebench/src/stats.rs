//! Sample statistics: the percentile rule, a lock-free histogram for
//! per-layer timings, and the metric-name rules.

use std::sync::atomic::{AtomicU64, Ordering};

/// Samples that must lie strictly beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank position (1-based) of the `permille`-th per-mille of `n`
/// samples.
fn rank(n: usize, permille: u32) -> usize {
    (n * permille as usize).div_ceil(1000).max(1)
}

/// Whether `n` samples leave at least [`TAIL_SAMPLES`] beyond the
/// `permille`-th per-mille, so it may be reported.
#[must_use]
pub fn supports(n: usize, permille: u32) -> bool {
    n > 0 && n - rank(n, permille) >= TAIL_SAMPLES
}

/// The highest percentile `n` samples support, as a fraction, or `None`
/// below `TAIL_SAMPLES + 1` samples: the value at rank `n - 10`.
#[must_use]
pub fn highest_supported(n: usize) -> Option<f64> {
    (n > TAIL_SAMPLES).then(|| (n - TAIL_SAMPLES) as f64 / n as f64)
}

/// Nearest-rank percentile of ascending `sorted` samples.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn percentile(sorted: &[f64], permille: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), permille) - 1]
}

/// Nearest-rank percentile of unsorted samples (`0.0` when empty).
#[must_use]
pub fn percentile_of(samples: &[f64], permille: u32) -> f64 {
    let mut s = samples.to_vec();
    sort(&mut s);
    if s.is_empty() {
        0.0
    } else {
        percentile(&s, permille)
    }
}

/// Sorts samples ascending (all are finite durations or ratios).
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(f64::total_cmp);
}

/// Median of unsorted samples, the mean of the middle two for an even
/// count (`0.0` when empty).
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    sort(&mut s);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Arithmetic mean (`0.0` when empty).
#[must_use]
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Sub-buckets per power of two: values land within 1/16 of their bucket
/// floor, and percentiles report the bucket midpoint.
const SUB_BITS: u32 = 4;
const SUBS: usize = 1 << SUB_BITS;
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUBS;

/// A lock-free log-linear histogram of nanosecond durations with exact
/// count and sum, cheap enough to record from every worker thread on the
/// hot path of a traced run.
#[derive(Debug)]
pub struct Hist {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: Box<[AtomicU64]>,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUBS as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let sub = (v >> (exp - SUB_BITS)) as usize & (SUBS - 1);
    ((exp - SUB_BITS + 1) as usize) * SUBS + sub
}

/// Midpoint of bucket `b` (exact below `SUBS`).
fn bucket_mid(b: usize) -> f64 {
    if b < SUBS {
        return b as f64;
    }
    let exp = (b / SUBS) as u32 + SUB_BITS - 1;
    let sub = (b % SUBS) as u64;
    let width = 1u64 << (exp - SUB_BITS);
    let floor = (1u64 << exp) + sub * width;
    floor as f64 + width as f64 / 2.0
}

impl Hist {
    /// Records one sample of `nanos`.
    pub fn record(&self, nanos: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(nanos, Ordering::Relaxed);
        self.buckets[bucket_of(nanos)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records the seconds between two instants.
    pub fn record_between(&self, from: std::time::Instant, to: std::time::Instant) {
        self.record(
            u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX),
        );
    }

    /// Samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples, in seconds.
    #[must_use]
    pub fn sum_secs(&self) -> f64 {
        self.sum.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Mean sample, in seconds (`0.0` when empty).
    #[must_use]
    pub fn mean_secs(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum_secs() / n as f64
        }
    }

    /// Nearest-rank percentile in nanoseconds, to within half a bucket
    /// (`0.0` when empty).
    #[must_use]
    pub fn percentile_nanos(&self, permille: u32) -> f64 {
        let n = self.count() as usize;
        if n == 0 {
            return 0.0;
        }
        let target = rank(n, permille) as u64;
        let mut seen = 0u64;
        for (b, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= target {
                return bucket_mid(b);
            }
        }
        bucket_mid(BUCKETS - 1)
    }

    /// Nearest-rank percentile in seconds.
    #[must_use]
    pub fn percentile_secs(&self, permille: u32) -> f64 {
        self.percentile_nanos(permille) / 1e9
    }
}

/// Whether `name` is a valid metric or workload name: it starts with a
/// letter or digit and holds at most 64 letters, digits, `_`, `.` and `-`.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
#[must_use]
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert!(!supports(999, 990));
        assert!(supports(1000, 990));
        assert!(!supports(99, 900));
        assert!(supports(100, 900));
        assert!(supports(109, 900));
        assert!(!supports(19, 500));
        assert!(supports(20, 500));
        assert!(!supports(0, 500));
    }

    #[test]
    fn highest_supported_leaves_exactly_ten_beyond() {
        assert_eq!(highest_supported(10), None);
        assert_eq!(highest_supported(20), Some(0.5));
        assert_eq!(highest_supported(1000), Some(0.99));
        for n in [11, 57, 1000, 12345] {
            let q = highest_supported(n).unwrap();
            let permille = (q * 1000.0).floor() as u32;
            assert!(supports(n, permille), "n={n} q={q}");
        }
    }

    #[test]
    fn nearest_rank_percentile() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 500), 50.0);
        assert_eq!(percentile(&s, 990), 99.0);
        assert_eq!(percentile(&s, 1000), 100.0);
        assert_eq!(percentile(&[7.0], 990), 7.0);
        assert_eq!(percentile_of(&[3.0, 1.0, 2.0], 1000), 3.0);
        assert_eq!(percentile_of(&[], 500), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn histogram_percentiles_land_within_a_bucket() {
        let h = Hist::default();
        for v in 1..=10_000u64 {
            h.record(v * 1000);
        }
        assert_eq!(h.count(), 10_000);
        for (permille, exact) in [(500, 5.0e6), (990, 9.9e6)] {
            let got = h.percentile_nanos(permille);
            assert!(
                (got - exact).abs() / exact < 1.0 / 16.0,
                "{permille}: {got}"
            );
        }
        assert!((h.mean_secs() - 5.0005e-3).abs() < 1e-9);
        assert_eq!(Hist::default().percentile_nanos(500), 0.0);
    }

    #[test]
    fn histogram_buckets_are_monotone() {
        let mut last = 0;
        for v in (0..40).map(|e| 1u64 << e).chain([3, 17, 1000, u64::MAX]) {
            let b = bucket_of(v);
            assert!(b < BUCKETS);
            let mid = bucket_mid(b);
            assert!(
                (mid - v as f64).abs() <= v as f64 / 16.0 + 0.5,
                "{v} -> {mid}"
            );
            if v.is_power_of_two() {
                assert!(b >= last);
                last = b;
            }
        }
    }

    #[test]
    fn metric_names() {
        for ok in [
            "latency_p99_s",
            "stage.load.busy_s",
            "gen.lag_p99_s",
            "9x",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "p99%", "lat/s", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "count", "%", "MB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "a b", "seconds-per-job-x"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }
}

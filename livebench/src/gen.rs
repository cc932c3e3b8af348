//! The load generator: seeded inputs and the open-loop issue schedule.

use dope_workload::arrivals::PoissonProcess;
use std::thread;
use std::time::{Duration, Instant};

/// SplitMix64: a tiny seeded generator for input choices, so every input
/// derives from the workload seed.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed`, decorrelated per `stream`.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        SplitMix(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// A value in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The SplitMix64 finalizer: a bijective 64-bit mix, used to fold
/// per-part checksums into an order-independent digest.
#[must_use]
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `make(0..n)` in index order, built on every available core. Each
/// input derives from its index alone, so the result does not depend on
/// the split; building in parallel keeps set-up time from hinging on
/// which core the main thread happens to run on.
pub fn parallel<T: Send>(n: usize, make: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let workers = thread::available_parallelism()
        .map_or(1, usize::from)
        .clamp(1, n.max(1));
    let per = n.div_ceil(workers);
    let make = &make;
    thread::scope(|s| {
        let parts: Vec<_> = (0..workers)
            .map(|w| {
                s.spawn(move || {
                    (w * per..((w + 1) * per).min(n))
                        .map(make)
                        .collect::<Vec<T>>()
                })
            })
            .collect();
        parts
            .into_iter()
            .flat_map(|p| p.join().expect("input generator panicked"))
            .collect()
    })
}

/// Due times (seconds from the start) of `count` Poisson arrivals at
/// `rate`, rescaled so the last falls at exactly `count / rate`: the
/// process conditioned on its count, so that rounds of equal count span
/// equal time and throughput does not vary with the seed's total gap.
#[must_use]
pub fn poisson_arrivals(rate: f64, count: usize, seed: u64) -> Vec<f64> {
    let mut due: Vec<f64> = PoissonProcess::new(rate, seed).take(count).collect();
    if let Some(&last) = due.last() {
        let scale = count as f64 / rate / last;
        for t in &mut due {
            *t *= scale;
        }
    }
    due
}

/// Issues request `i` at `start + due[i]` through `issue`, which gets the
/// index and the due instant. Requests already overdue go out in one
/// batch with no sleep between them, so the lag reflects the program and
/// not the generator. Returns each request's lag (issue − due) in seconds.
pub fn open_loop(due: &[f64], start: Instant, mut issue: impl FnMut(usize, Instant)) -> Vec<f64> {
    let mut lags = Vec::with_capacity(due.len());
    let mut i = 0;
    while i < due.len() {
        let now = start.elapsed().as_secs_f64();
        if due[i] > now {
            thread::sleep(Duration::from_secs_f64(due[i] - now));
            continue;
        }
        while i < due.len() && due[i] <= now {
            let due_at = start + Duration::from_secs_f64(due[i]);
            lags.push(due_at.elapsed().as_secs_f64());
            issue(i, due_at);
            i += 1;
        }
    }
    lags
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a: Vec<u64> = {
            let mut r = SplitMix::new(7, 1);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let mut r = SplitMix::new(7, 1);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert_ne!(SplitMix::new(7, 2).next_u64(), a[0]);
        assert_eq!(
            poisson_arrivals(100.0, 50, 3),
            poisson_arrivals(100.0, 50, 3)
        );
        assert_ne!(
            poisson_arrivals(100.0, 50, 3),
            poisson_arrivals(100.0, 50, 4)
        );
    }

    #[test]
    fn arrivals_span_exactly_count_over_rate() {
        let due = poisson_arrivals(250.0, 1000, 9);
        assert_eq!(due.len(), 1000);
        assert!((due[999] - 4.0).abs() < 1e-9);
        assert!(due.windows(2).all(|w| w[0] < w[1]) && due[0] > 0.0);
    }

    #[test]
    fn parallel_keeps_index_order() {
        assert_eq!(parallel(7, |i| i * 10), vec![0, 10, 20, 30, 40, 50, 60]);
        assert!(parallel(0, |i| i).is_empty());
    }

    #[test]
    fn open_loop_issues_in_order_never_early() {
        let due = [0.0, 0.0, 0.002, 0.004, 0.004];
        let start = Instant::now();
        let mut seen = Vec::new();
        let lags = open_loop(&due, start, |i, due_at| {
            assert!(Instant::now() >= due_at);
            seen.push(i);
        });
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        assert_eq!(lags.len(), 5);
        assert!(lags.iter().all(|&l| l >= 0.0));
    }
}

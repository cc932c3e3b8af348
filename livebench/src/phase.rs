//! What a measured phase yields, whatever the workload: a sequence of
//! independent rounds (fresh inputs, a fresh executive), each reduced to
//! its own end-to-end figures, plus the pooled samples and checks.

use crate::stats;
use dope_core::AdmissionStats;
use dope_runtime::{Dope, Monitor, RunReport};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Set-ups each phase times and tears down before its rounds, so that
/// `setup_s` is a median over many set-ups, not only the few rounds.
const EXTRA_SETUPS: u64 = 9;

/// End-to-end figures of one round.
#[derive(Debug, Clone, Copy)]
pub struct RoundStats {
    /// Completed requests per second.
    pub throughput: f64,
    /// Requests completed within the latency limit, per second.
    pub goodput: f64,
    /// Median latency from due time.
    pub p50: f64,
    /// 99th-percentile latency from due time.
    pub p99: f64,
    /// Process CPU seconds per completed request.
    pub cpu_per_job: f64,
}

/// The outcome of one measured phase.
#[derive(Debug, Default)]
pub struct Phase {
    /// The workload's latency limit, in seconds.
    pub limit_s: f64,
    /// Per-round figures.
    pub rounds: Vec<RoundStats>,
    /// Seconds each set-up took: the extra ones, then each round's.
    pub setups: Vec<f64>,
    /// Requests the generator offered.
    pub offered: u64,
    /// Requests that completed.
    pub completed: u64,
    /// Completed requests whose output failed the check.
    pub wrong: u64,
    /// Accepted requests that never completed.
    pub lost: u64,
    /// Task replicas that failed.
    pub failed_replicas: u64,
    /// Requests the admission gate refused.
    pub shed: u64,
    /// Failed consistency checks other than outputs, each described.
    pub violations: Vec<String>,
    /// Seconds from due time to completion, pooled over rounds.
    pub latencies: Vec<f64>,
    /// Seconds from due time to issue, per offered request.
    pub lags: Vec<f64>,
    /// Wall seconds measured, summed over rounds.
    pub window_s: f64,
    /// Process CPU seconds over the measured windows.
    pub cpu_s: f64,
    /// The executive's report of every round.
    pub reports: Vec<RunReport>,
    /// `Monitor::monitoring_overhead_ratio` of every round.
    pub monitor_overhead: Vec<f64>,
    /// `Monitor::monitoring_overhead_secs`, summed over rounds.
    pub monitor_secs: f64,
    /// The admission gate's final counters, per round.
    pub admission: Vec<AdmissionStats>,
}

impl Phase {
    /// Records `EXTRA_SETUPS` set-ups timed by `set_up(index)`, then runs
    /// `round(index, &mut phase)` until `seconds` have passed (at least
    /// once).
    ///
    /// # Errors
    ///
    /// Propagates the first set-up's or round's error.
    pub fn run(
        seconds: f64,
        limit_s: f64,
        mut set_up: impl FnMut(u64) -> Result<f64, String>,
        mut round: impl FnMut(u64, &mut Phase) -> Result<(), String>,
    ) -> Result<Phase, String> {
        let mut phase = Phase {
            limit_s,
            ..Phase::default()
        };
        for index in 0..EXTRA_SETUPS {
            phase.setups.push(set_up(index)?);
        }
        let began = Instant::now();
        let mut index = 0;
        while index == 0 || began.elapsed().as_secs_f64() < seconds {
            round(index, &mut phase)?;
            index += 1;
        }
        Ok(phase)
    }

    /// Lost jobs, wrong outputs and failed replicas.
    #[must_use]
    pub fn errors(&self) -> u64 {
        self.lost + self.wrong + self.failed_replicas
    }

    /// Whether every check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.errors() == 0 && self.violations.is_empty()
    }

    /// Folds an executive's end-of-run numbers into the phase.
    pub fn add_run(&mut self, monitor: &Monitor, report: RunReport) {
        self.monitor_overhead
            .push(monitor.monitoring_overhead_ratio());
        self.monitor_secs += monitor.monitoring_overhead_secs();
        self.failed_replicas += report.task_failures;
        self.reports.push(report);
    }

    /// Closes a round that took `setup_s` to set up, measured `window_s`
    /// wall seconds and `cpu_s` process CPU seconds, and completed
    /// requests with the given `latencies`.
    ///
    /// # Errors
    ///
    /// Returns a message when the round completed too few requests for
    /// its 99th percentile to have ten samples beyond it.
    pub fn end_round(
        &mut self,
        setup_s: f64,
        mut latencies: Vec<f64>,
        window_s: f64,
        cpu_s: f64,
    ) -> Result<(), String> {
        let n = latencies.len();
        if !stats::supports(n, 990) {
            return Err(format!(
                "a round completed {n} requests; its p99 needs at least 1000"
            ));
        }
        stats::sort(&mut latencies);
        let within = latencies.iter().filter(|&&l| l <= self.limit_s).count();
        let window = window_s.max(1e-9);
        self.setups.push(setup_s);
        self.rounds.push(RoundStats {
            throughput: n as f64 / window,
            goodput: within as f64 / window,
            p50: stats::percentile(&latencies, 500),
            p99: stats::percentile(&latencies, 990),
            cpu_per_job: cpu_s / n as f64,
        });
        self.completed += n as u64;
        self.window_s += window_s;
        self.cpu_s += cpu_s;
        self.latencies.extend(latencies);
        Ok(())
    }

    /// Median over rounds of one figure.
    #[must_use]
    pub fn median(&self, figure: impl Fn(&RoundStats) -> f64) -> f64 {
        stats::median(&self.rounds.iter().map(figure).collect::<Vec<_>>())
    }
}

/// Times `set_up`, then drains the executive it launched without feeding
/// it: `close` closes the workload's source and hands back the executive.
///
/// # Errors
///
/// Propagates the set-up's error or the drain's.
pub fn time_set_up<S>(
    set_up: impl FnOnce() -> Result<S, String>,
    close: impl FnOnce(S) -> Dope,
) -> Result<f64, String> {
    let t0 = Instant::now();
    let launched = set_up()?;
    let secs = t0.elapsed().as_secs_f64();
    close(launched)
        .wait()
        .map_err(|e| format!("drain after set-up: {e}"))?;
    Ok(secs)
}

/// Completion sink shared by the worker threads of one round: latency
/// from due time and the time of the last completion.
#[derive(Debug)]
pub struct Completions {
    origin: Instant,
    latencies: Mutex<Vec<f64>>,
    last_done_ns: AtomicU64,
}

impl Completions {
    /// An empty sink with room for `expected` completions.
    #[must_use]
    pub fn new(expected: usize) -> Self {
        Completions {
            origin: Instant::now(),
            latencies: Mutex::new(Vec::with_capacity(expected)),
            last_done_ns: AtomicU64::new(0),
        }
    }

    /// Records a request due at `due` that completed now.
    pub fn complete(&self, due: Instant) {
        let now = Instant::now();
        self.latencies
            .lock()
            .expect("completion lock poisoned")
            .push(now.saturating_duration_since(due).as_secs_f64());
        let at = u64::try_from(now.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX);
        self.last_done_ns.fetch_max(at, Ordering::Relaxed);
    }

    /// The latencies so far, and the seconds from `start` to the last
    /// completion.
    #[must_use]
    pub fn finish(&self, start: Instant) -> (Vec<f64>, f64) {
        let latencies =
            std::mem::take(&mut *self.latencies.lock().expect("completion lock poisoned"));
        let last = self.origin + Duration::from_nanos(self.last_done_ns.load(Ordering::Relaxed));
        (
            latencies,
            last.saturating_duration_since(start).as_secs_f64(),
        )
    }
}

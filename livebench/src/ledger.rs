//! The traced run's instruments: per-layer histograms filled by the
//! benchmark's own calls into each module, plus the recorder and metrics
//! registry it attaches to the executive.

use crate::procfs;
use crate::stats::Hist;
use crate::timed::{MechanismLedger, Timed};
use dope_core::{Mechanism, QueueStats};
use dope_metrics::{names, MetricsRegistry};
use dope_runtime::DopeBuilder;
use dope_trace::{Recorder, TraceRecord};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Trace events the flight recorder keeps before it starts dropping.
const RECORDER_CAPACITY: usize = 1 << 18;

/// How often the traced run scrapes its metrics registry.
const SCRAPE_PERIOD: Duration = Duration::from_millis(100);

/// Busy and hand-off wait of one pipeline stage.
#[derive(Debug, Default)]
pub struct StageLedger {
    /// CPU self time inside the stage's closure, per item.
    pub busy: Hist,
    /// Time from the previous stage's end (or the issue) to this start.
    pub wait: Hist,
}

/// Per-layer measurements of one traced run.
#[derive(Debug, Default)]
pub struct Ledger {
    /// CPU self time of each kernel call (chunk or stage closure).
    pub kernel: Hist,
    /// Issue → first chunk or stage start, per request.
    pub queue_wait: Hist,
    /// First chunk or stage start → last end, per request.
    pub service: Hist,
    /// Each `WorkQueue::enqueue` the benchmark makes.
    pub enqueue: Hist,
    /// Each `AdmissionQueue::offer` the generator makes.
    pub offer: Hist,
    /// Each `MetricsRegistry::render`.
    pub render: Hist,
    /// Queue occupancy at each queue-probe call.
    pub depth: Samples,
    /// Pipeline stages, in the workload's stage order.
    pub stages: Vec<(&'static str, StageLedger)>,
    /// The timing mechanism wrapper's counts.
    pub mechanism: Arc<MechanismLedger>,
}

impl Ledger {
    /// A ledger for a workload with the given pipeline stages.
    #[must_use]
    pub fn new(stages: &[&'static str]) -> Self {
        Ledger {
            stages: stages
                .iter()
                .map(|&s| (s, StageLedger::default()))
                .collect(),
            ..Ledger::default()
        }
    }
}

/// A mutex-guarded sample list, for rare events such as queue-probe calls.
#[derive(Debug, Default)]
pub struct Samples(Mutex<Vec<f64>>);

impl Samples {
    /// Appends a sample.
    pub fn push(&self, v: f64) {
        self.0.lock().expect("samples lock poisoned").push(v);
    }

    /// A copy of the samples so far.
    #[must_use]
    pub fn to_vec(&self) -> Vec<f64> {
        self.0.lock().expect("samples lock poisoned").clone()
    }
}

/// A traced phase's instruments. Untraced phases pass `None` wherever a
/// `&Tracing` is taken, attaching nothing.
#[derive(Debug)]
pub struct Tracing {
    /// Per-layer measurements, shared by every run of the phase.
    pub ledger: Arc<Ledger>,
    runs: Mutex<Vec<RunTrace>>,
}

/// What one traced executive run left in its recorder and registry.
#[derive(Debug)]
pub struct RunTrace {
    /// `dope_pool_jobs_dispatched_total` at the end of the run.
    pub dispatched: f64,
    /// `dope_task_invocations_total` at the end of the run.
    pub invocations: f64,
    /// The flight recorder's records.
    pub records: Vec<TraceRecord>,
    /// Events the recorder dropped.
    pub dropped: u64,
}

impl Tracing {
    /// Fresh instruments for a workload with the given pipeline stages.
    #[must_use]
    pub fn new(stages: &[&'static str]) -> Self {
        Tracing {
            ledger: Arc::new(Ledger::new(stages)),
            runs: Mutex::default(),
        }
    }

    /// The traces of the runs finished so far.
    #[must_use]
    pub fn into_runs(self) -> Vec<RunTrace> {
        self.runs.into_inner().expect("run list lock poisoned")
    }
}

/// A recorder, registry and scraper attached to one traced executive.
#[derive(Debug)]
pub struct Attached {
    recorder: Recorder,
    registry: MetricsRegistry,
    scraper: Scraper,
}

impl Attached {
    /// Stops scraping and files the run's recorder and registry totals.
    fn finish(self, tracing: &Tracing) {
        self.scraper.stop();
        let text = self.registry.render();
        tracing
            .runs
            .lock()
            .expect("run list lock poisoned")
            .push(RunTrace {
                dispatched: counter_total(&text, names::POOL_JOBS_DISPATCHED_TOTAL),
                invocations: counter_total(&text, names::TASK_INVOCATIONS_TOTAL),
                records: self.recorder.records(),
                dropped: self.recorder.dropped(),
            });
    }
}

/// Attaches a fresh recorder and registry on a traced phase, and starts
/// scraping the registry.
pub fn attach(builder: DopeBuilder, tracing: Option<&Tracing>) -> (DopeBuilder, Option<Attached>) {
    let Some(t) = tracing else {
        return (builder, None);
    };
    let recorder = Recorder::bounded(RECORDER_CAPACITY);
    let registry = MetricsRegistry::new();
    let builder = builder.recorder(recorder.clone()).metrics(registry.clone());
    let scraper = Scraper::start(registry.clone(), Arc::clone(&t.ledger));
    (
        builder,
        Some(Attached {
            recorder,
            registry,
            scraper,
        }),
    )
}

/// Files a finished run's traces, if it was traced.
pub fn finish(attached: Option<Attached>, tracing: Option<&Tracing>) {
    if let (Some(a), Some(t)) = (attached, tracing) {
        a.finish(t);
    }
}

/// The mechanism, wrapped in the timing wrapper on a traced run.
pub fn mechanism<M: Mechanism + 'static>(
    inner: M,
    tracing: Option<&Tracing>,
) -> Box<dyn Mechanism> {
    match tracing {
        Some(t) => Box::new(Timed::new(inner, Arc::clone(&t.ledger.mechanism))),
        None => Box::new(inner),
    }
}

/// The queue probe, recording occupancy on a traced run.
pub fn probe<P>(probe: P, tracing: Option<&Tracing>) -> impl Fn() -> QueueStats + Send + Sync
where
    P: Fn() -> QueueStats + Send + Sync + 'static,
{
    let ledger = tracing.map(|t| Arc::clone(&t.ledger));
    move || {
        let stats = probe();
        if let Some(l) = &ledger {
            l.depth.push(stats.occupancy);
        }
        stats
    }
}

/// A span opened on a worker thread: its wall start and the thread's CPU
/// clock at that instant.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Wall-clock start.
    pub wall: Instant,
    cpu_ns: u64,
}

impl Span {
    /// Opens a span now.
    #[must_use]
    pub fn start() -> Self {
        Span {
            wall: Instant::now(),
            cpu_ns: procfs::thread_cpu_ns(),
        }
    }

    /// CPU nanoseconds this thread used since the span opened: the self
    /// time of the call it wraps, excluding time preempted.
    #[must_use]
    pub fn cpu_ns(&self) -> u64 {
        procfs::thread_cpu_ns().saturating_sub(self.cpu_ns)
    }
}

/// Times `f` into `hist` when tracing, else just runs it.
pub fn timed<T>(hist: Option<&Hist>, f: impl FnOnce() -> T) -> T {
    match hist {
        Some(h) => {
            let t0 = Instant::now();
            let out = f();
            h.record_between(t0, Instant::now());
            out
        }
        None => f(),
    }
}

/// Renders the registry periodically while a traced run proceeds, as a
/// scraper would.
#[derive(Debug)]
struct Scraper {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<()>,
}

impl Scraper {
    /// Starts scraping `registry`; renders are timed into `ledger`.
    #[must_use]
    fn start(registry: MetricsRegistry, ledger: Arc<Ledger>) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = thread::spawn(move || {
            while !flag.load(Ordering::Relaxed) {
                let text = timed(Some(&ledger.render), || registry.render());
                std::hint::black_box(text.len());
                thread::sleep(SCRAPE_PERIOD);
            }
        });
        Scraper { stop, handle }
    }

    /// Stops and joins the scraper thread.
    fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("scraper thread panicked");
    }
}

/// Sum of every series of counter family `name` in a rendered registry.
#[must_use]
pub fn counter_total(rendered: &str, name: &str) -> f64 {
    rendered
        .lines()
        .filter(|l| {
            l.strip_prefix(name)
                .is_some_and(|rest| rest.starts_with(' ') || rest.starts_with('{'))
        })
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_total_sums_labelled_series_only_of_that_family() {
        let text = "# HELP dope_x_total x\n# TYPE dope_x_total counter\n\
                    dope_x_total{task=\"a\"} 3\ndope_x_total{task=\"b\"} 4\n\
                    dope_x_total_other 100\ndope_y 9\n";
        assert_eq!(counter_total(text, "dope_x_total"), 7.0);
        assert_eq!(counter_total(text, "dope_y"), 9.0);
        assert_eq!(counter_total(text, "dope_z"), 0.0);
    }
}

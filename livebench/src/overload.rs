//! `overload_shed`: an `admit → serve` nest behind a shedding
//! `AdmissionQueue`, offered about 2.5× what it can serve.

use crate::gen::{mix, open_loop, parallel, poisson_arrivals, SplitMix};
use crate::ledger::{self, Attached, Ledger, Span, Tracing};
use crate::phase::{self, Completions, Phase};
use crate::procfs;
use dope_apps::kernels::frames::{encode_blocks, Frame};
use dope_core::{
    body_fn, AdmissionPolicy, Goal, QueueStats, TaskBody, TaskCx, TaskKind, TaskSpec, TaskStatus,
    WorkerSlot,
};
use dope_mechanisms::{Proportional, ShedAware};
use dope_runtime::Dope;
use dope_workload::{AdmissionQueue, DequeueOutcome, OfferOutcome, WorkQueue};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Offers per second, about 2.5× the ~3,200 frames/s two cores encode.
const RATE: f64 = 8000.0;
/// Offers per round (2 s).
const ROUND_OFFERS: usize = 16_000;
const HIGH_WATER: u32 = 64;
/// `admit` leaves requests in the gate while `serve` has this many queued.
const SERVE_BACKLOG: usize = 2;
/// How long `admit` backs off while `serve` is backlogged.
const ADMIT_BACKOFF: Duration = Duration::from_micros(100);
/// Distinct frames the requests draw from.
const POOL: usize = 512;
const SIDE: usize = 64;
const QUANTIZER: f64 = 8.0;
const THREADS: u32 = 3;
const CONTROL_PERIOD: Duration = Duration::from_millis(10);
const POLL: Duration = Duration::from_millis(2);
/// Latency limit for goodput.
const LIMIT_S: f64 = 0.05;
const NOT_DONE: u64 = u64::MAX;

/// A request in the gate or the serve queue.
#[derive(Debug)]
struct Request {
    id: usize,
    due: Instant,
    issued: Instant,
}

/// State shared by the `serve` workers of one run.
struct Sink {
    frames: Vec<Frame>,
    content: Vec<usize>,
    done: Completions,
    bits: Vec<AtomicU64>,
    served: AtomicU64,
    ledger: Option<Arc<Ledger>>,
}

struct Admit {
    gate: AdmissionQueue<Request>,
    serve_q: WorkQueue<Request>,
    ledger: Option<Arc<Ledger>>,
}

impl TaskBody for Admit {
    fn invoke(&mut self, cx: &mut dyn TaskCx) -> TaskStatus {
        cx.begin();
        let idle = |cx: &mut dyn TaskCx| {
            if cx.directive().wants_suspend() {
                TaskStatus::Suspended
            } else {
                TaskStatus::Executing
            }
        };
        let status = if self.serve_q.len() >= SERVE_BACKLOG {
            thread::sleep(ADMIT_BACKOFF);
            idle(cx)
        } else {
            match self.gate.take(POLL) {
                DequeueOutcome::Item(req) => {
                    let hist = self.ledger.as_deref().map(|l| &l.enqueue);
                    // The serve queue closes only after this task finishes.
                    let _ = ledger::timed(hist, || self.serve_q.enqueue(req));
                    TaskStatus::Executing
                }
                DequeueOutcome::Drained => TaskStatus::Finished,
                DequeueOutcome::TimedOut => idle(cx),
            }
        };
        cx.end();
        status
    }

    fn fini(&mut self, status: TaskStatus) {
        if status == TaskStatus::Finished {
            self.serve_q.close();
        }
    }
}

fn serve(sink: &Sink, req: &Request) {
    let span = sink.ledger.is_some().then(Span::start);
    let bits = encode_blocks(&sink.frames[sink.content[req.id]], 0, 1, QUANTIZER);
    if let (Some(l), Some(span)) = (&sink.ledger, span) {
        l.kernel.record(span.cpu_ns());
        l.queue_wait.record_between(req.issued, span.wall);
        l.service.record_between(span.wall, Instant::now());
    }
    sink.bits[req.id].store(bits, Ordering::Relaxed);
    sink.served.fetch_add(1, Ordering::Relaxed);
    sink.done.complete(req.due);
}

fn descriptor(
    gate: &AdmissionQueue<Request>,
    serve_q: &WorkQueue<Request>,
    sink: &Arc<Sink>,
) -> Vec<TaskSpec> {
    let (gate_n, serve_n, sink_n) = (gate.clone(), serve_q.clone(), Arc::clone(sink));
    let gate_load = gate.clone();
    let nest = TaskSpec::nest("service", TaskKind::Par, move |_replica: u32| {
        let (gate, serve_q, ledger) = (gate_n.clone(), serve_n.clone(), sink_n.ledger.clone());
        let admit = TaskSpec::leaf("admit", TaskKind::Seq, move |_slot: WorkerSlot| {
            Box::new(Admit {
                gate: gate.clone(),
                serve_q: serve_q.clone(),
                ledger: ledger.clone(),
            }) as Box<dyn TaskBody>
        });
        let (serve_q, sink) = (serve_n.clone(), Arc::clone(&sink_n));
        let serve_load = serve_n.clone();
        let serve = TaskSpec::leaf("serve", TaskKind::Par, move |_slot: WorkerSlot| {
            let (serve_q, sink) = (serve_q.clone(), Arc::clone(&sink));
            Box::new(body_fn(move |cx: &mut dyn TaskCx| {
                cx.begin();
                let status = match serve_q.dequeue_timeout(POLL) {
                    DequeueOutcome::Item(req) => {
                        serve(&sink, &req);
                        TaskStatus::Executing
                    }
                    DequeueOutcome::Drained => TaskStatus::Finished,
                    DequeueOutcome::TimedOut if cx.directive().wants_suspend() => {
                        TaskStatus::Suspended
                    }
                    DequeueOutcome::TimedOut => TaskStatus::Executing,
                };
                cx.end();
                status
            })) as Box<dyn TaskBody>
        })
        .with_load(move || serve_load.occupancy());
        vec![admit, serve]
    })
    .with_max_extent(1)
    .with_load(move || gate_load.len() as f64);
    vec![nest]
}

struct Setup {
    due: Vec<f64>,
    gate: AdmissionQueue<Request>,
    sink: Arc<Sink>,
    dope: Dope,
    attached: Option<Attached>,
}

fn set_up(seed: u64, round: u64, tracing: Option<&Tracing>) -> Result<Setup, String> {
    let frames = parallel(POOL, |i| {
        Frame::synthetic(SIDE, SIDE, mix(seed ^ mix(i as u64)))
    });
    let round_seed = mix(seed ^ mix(round));
    let due = poisson_arrivals(RATE, ROUND_OFFERS, round_seed);
    let mut rng = SplitMix::new(round_seed, 3);
    let content = due
        .iter()
        .map(|_| rng.below(POOL as u64) as usize)
        .collect();
    let gate = AdmissionQueue::new(AdmissionPolicy::Shed {
        high_water: HIGH_WATER,
    });
    let serve_q = WorkQueue::new();
    let sink = Arc::new(Sink {
        frames,
        content,
        done: Completions::new(due.len()),
        bits: (0..due.len()).map(|_| AtomicU64::new(NOT_DONE)).collect(),
        served: AtomicU64::new(0),
        ledger: tracing.map(|t| Arc::clone(&t.ledger)),
    });
    let probe = {
        let (serve_q, gate, sink) = (serve_q.clone(), gate.clone(), Arc::clone(&sink));
        move || QueueStats {
            occupancy: serve_q.occupancy(),
            arrival_rate: 0.0,
            enqueued: gate.stats().admitted,
            completed: sink.served.load(Ordering::Relaxed),
        }
    };
    let builder = Dope::builder(Goal::MaxThroughput { threads: THREADS })
        .mechanism(ledger::mechanism(
            ShedAware::new(Proportional::new()),
            tracing,
        ))
        .control_period(CONTROL_PERIOD)
        .queue_probe(ledger::probe(probe, tracing))
        .admission(gate.policy())
        .admission_probe(gate.stats_probe());
    let (builder, attached) = ledger::attach(builder, tracing);
    let dope = builder
        .launch(descriptor(&gate, &serve_q, &sink))
        .map_err(|e| format!("overload launch: {e}"))?;
    Ok(Setup {
        due,
        gate,
        sink,
        dope,
        attached,
    })
}

/// Runs rounds of open-loop offers for `seconds`.
///
/// # Errors
///
/// Returns a message when the executive or `/proc` fails.
pub fn run(seed: u64, seconds: f64, tracing: Option<&Tracing>) -> Result<Phase, String> {
    Phase::run(
        seconds,
        LIMIT_S,
        |index| {
            phase::time_set_up(
                || set_up(seed, index, None),
                |s| {
                    s.gate.close();
                    s.dope
                },
            )
        },
        |index, phase| round(seed, index, tracing, phase),
    )
}

fn round(
    seed: u64,
    index: u64,
    tracing: Option<&Tracing>,
    phase: &mut Phase,
) -> Result<(), String> {
    let t0 = Instant::now();
    let Setup {
        due,
        gate,
        sink,
        dope,
        attached,
    } = set_up(seed, index, tracing)?;
    let setup_s = t0.elapsed().as_secs_f64();

    let cpu0 = procfs::cpu_secs()?;
    let start = Instant::now();
    let offer_hist = tracing.map(|t| &t.ledger.offer);
    let (mut admitted, mut shed, mut closed) = (0u64, 0u64, 0u64);
    let lags = open_loop(&due, start, |i, due| {
        let req = Request {
            id: i,
            due,
            issued: Instant::now(),
        };
        match ledger::timed(offer_hist, || gate.offer(req)) {
            OfferOutcome::Admitted => admitted += 1,
            OfferOutcome::Shed(_) => shed += 1,
            OfferOutcome::Closed(_) => closed += 1,
        }
    });
    gate.close();
    let monitor = dope.monitor();
    let report = dope.wait().map_err(|e| format!("overload run: {e}"))?;
    let cpu_s = procfs::cpu_secs()? - cpu0;
    ledger::finish(attached, tracing);
    phase.add_run(&monitor, report);

    let stats = gate.stats();
    let served = sink.served.load(Ordering::Relaxed);
    let offered = due.len() as u64;
    for (what, got, want) in [
        ("offers met a closed gate", closed, 0),
        ("gate offered vs offers made", stats.offered, offered),
        (
            "offered vs admitted + shed",
            stats.offered,
            stats.admitted + stats.shed(),
        ),
        (
            "gate admitted vs admitted verdicts",
            stats.admitted,
            admitted,
        ),
        ("gate shed vs shed verdicts", stats.shed(), shed),
    ] {
        if got != want {
            phase.violations.push(format!("{what}: {got} != {want}"));
        }
    }
    let expected: Vec<u64> = sink
        .frames
        .iter()
        .map(|f| encode_blocks(f, 0, 1, QUANTIZER))
        .collect();
    let mut distinct = 0u64;
    for (i, bits) in sink.bits.iter().enumerate() {
        let bits = bits.load(Ordering::Relaxed);
        if bits != NOT_DONE {
            distinct += 1;
            if bits != expected[sink.content[i]] {
                phase.wrong += 1;
            }
        }
    }
    // served == admitted: every admitted request was served exactly once.
    phase.lost += stats.admitted.saturating_sub(served);
    if served != stats.admitted || distinct != served {
        phase.violations.push(format!(
            "served {served} (distinct {distinct}) != admitted {}",
            stats.admitted
        ));
    }
    phase.admission.push(stats);
    phase.offered += offered;
    phase.shed += stats.shed();
    phase.lags.extend(lags);
    let (latencies, window) = sink.done.finish(start);
    phase.end_round(setup_s, latencies, window, cpu_s)
}

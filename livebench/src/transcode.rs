//! `transcode_open`: the x264 two-level nest under open-loop Poisson
//! arrivals, with WQ-Linear adapting the inner degree of parallelism.

use crate::gen::{mix, open_loop, parallel, poisson_arrivals, SplitMix};
use crate::ledger::{self, Attached, Ledger, Span, Tracing};
use crate::phase::{self, Completions, Phase};
use crate::procfs;
use dope_apps::kernels::frames::{encode_blocks, Frame};
use dope_apps::service::{ChunkFn, Transaction, TwoLevelService};
use dope_apps::transcode::{VideoParams, M_MAX};
use dope_core::Goal;
use dope_mechanisms::WqLinear;
use dope_runtime::Dope;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered videos per second: about 40 % of the ~360/s this nest
/// sustains on two cores, and about 85 % of the parallel alternative's
/// one-worker capacity, so queue wait still sets latency. At 250/s (70 %)
/// a dip in the shared machine's speed saturates the nest and p99 jumps
/// from ~40 ms to 90-320 ms in some runs; at 200/s the p99 spread over ten
/// runs still reached 0.21.
const RATE: f64 = 150.0;
/// Arrivals per round: the fewest for the round's p99 to have ten samples
/// beyond it, 6.7 s a round.
const ROUND_REQUESTS: usize = 1000;
const VIDEO: VideoParams = VideoParams {
    frames: 8,
    width: 64,
    height: 64,
};
/// Distinct videos the requests draw from.
const POOL: usize = 64;
const QUANTIZER: f64 = 8.0;
const THREADS: u32 = 2;
const CONTROL_PERIOD: Duration = Duration::from_millis(10);
/// Latency limit for goodput.
const LIMIT_S: f64 = 0.1;
const NOT_DONE: u64 = u64::MAX;

struct Input {
    videos: Vec<Vec<Arc<Frame>>>,
    due: Vec<f64>,
    content: Vec<usize>,
}

fn input(seed: u64, round: u64) -> Input {
    let videos = parallel(POOL, |v| {
        (0..VIDEO.frames)
            .map(|f| {
                let frame_seed = mix(seed ^ mix((v * VIDEO.frames + f) as u64));
                Arc::new(Frame::synthetic(VIDEO.width, VIDEO.height, frame_seed))
            })
            .collect()
    });
    let round_seed = mix(seed ^ mix(round));
    let due = poisson_arrivals(RATE, ROUND_REQUESTS, round_seed);
    let mut rng = SplitMix::new(round_seed, 1);
    let content = due
        .iter()
        .map(|_| rng.below(POOL as u64) as usize)
        .collect();
    Input {
        videos,
        due,
        content,
    }
}

fn frame_digest(frame: usize, bits: u64) -> u64 {
    mix(bits ^ ((frame as u64) << 48))
}

/// The serial reference digest of one video.
fn video_digest(frames: &[Arc<Frame>]) -> u64 {
    frames
        .iter()
        .enumerate()
        .map(|(f, frame)| frame_digest(f, encode_blocks(frame, 0, 1, QUANTIZER)))
        .fold(0, u64::wrapping_add)
}

/// State of one request, shared by its chunks.
struct Request {
    id: usize,
    due: Instant,
    issued: Instant,
    remaining: AtomicU32,
    digest: AtomicU64,
    first_start: AtomicU64,
}

/// State shared by every chunk of one run.
struct Sink {
    start: Instant,
    done: Completions,
    digests: Vec<AtomicU64>,
    ledger: Option<Arc<Ledger>>,
}

fn since(start: Instant, t: Instant) -> u64 {
    u64::try_from(t.duration_since(start).as_nanos()).unwrap_or(u64::MAX - 1)
}

fn run_chunk(frame: &Frame, f: usize, req: &Request, sink: &Sink) {
    let span = sink.ledger.is_some().then(Span::start);
    let bits = encode_blocks(frame, 0, 1, QUANTIZER);
    req.digest
        .fetch_add(frame_digest(f, bits), Ordering::Relaxed);
    if let (Some(l), Some(span)) = (&sink.ledger, span) {
        l.kernel.record(span.cpu_ns());
        let t0 = span.wall;
        if req
            .first_start
            .compare_exchange(
                NOT_DONE,
                since(sink.start, t0),
                Ordering::Relaxed,
                Ordering::Relaxed,
            )
            .is_ok()
        {
            l.queue_wait.record_between(req.issued, t0);
        }
    }
    if req.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
        sink.digests[req.id].store(req.digest.load(Ordering::Relaxed), Ordering::Relaxed);
        sink.done.complete(req.due);
        if let Some(l) = &sink.ledger {
            let first = req.first_start.load(Ordering::Relaxed);
            l.service
                .record(since(sink.start, Instant::now()).saturating_sub(first));
        }
    }
}

fn transaction(input: &Input, i: usize, due: Instant, sink: &Arc<Sink>) -> Transaction {
    let frames = &input.videos[input.content[i]];
    let req = Arc::new(Request {
        id: i,
        due,
        issued: Instant::now(),
        remaining: AtomicU32::new(frames.len() as u32),
        digest: AtomicU64::new(0),
        first_start: AtomicU64::new(NOT_DONE),
    });
    let chunks = frames
        .iter()
        .enumerate()
        .map(|(f, frame)| {
            let (frame, req, sink) = (Arc::clone(frame), Arc::clone(&req), Arc::clone(sink));
            Box::new(move || run_chunk(&frame, f, &req, &sink)) as ChunkFn
        })
        .collect();
    Transaction {
        id: i as u64,
        submitted: due,
        chunks,
    }
}

/// A launched executive with its inputs, not yet fed.
struct Setup {
    input: Input,
    service: TwoLevelService,
    dope: Dope,
    attached: Option<Attached>,
}

fn set_up(seed: u64, index: u64, tracing: Option<&Tracing>) -> Result<Setup, String> {
    let input = input(seed, index);
    let service = TwoLevelService::new();
    let builder = Dope::builder(Goal::MinResponseTime { threads: THREADS })
        .mechanism(ledger::mechanism(WqLinear::new(1, 2, 8.0), tracing))
        .control_period(CONTROL_PERIOD)
        .queue_probe(ledger::probe(service.queue_probe(), tracing));
    let (builder, attached) = ledger::attach(builder, tracing);
    let dope = builder
        .launch(service.descriptor("transcode", Some(M_MAX)))
        .map_err(|e| format!("transcode launch: {e}"))?;
    Ok(Setup {
        input,
        service,
        dope,
        attached,
    })
}

/// Runs rounds of open-loop arrivals for `seconds`.
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
                    s.service.queue.close();
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
        input,
        service,
        dope,
        attached,
    } = set_up(seed, index, tracing)?;
    let setup_s = t0.elapsed().as_secs_f64();

    let n = input.due.len();
    let cpu0 = procfs::cpu_secs()?;
    let start = Instant::now();
    let sink = Arc::new(Sink {
        start,
        done: Completions::new(n),
        digests: (0..n).map(|_| AtomicU64::new(NOT_DONE)).collect(),
        ledger: tracing.map(|t| Arc::clone(&t.ledger)),
    });
    let enqueue_hist = tracing.map(|t| &t.ledger.enqueue);
    let mut refused = 0;
    let lags = open_loop(&input.due, start, |i, due| {
        let txn = transaction(&input, i, due, &sink);
        refused += usize::from(ledger::timed(enqueue_hist, || service.queue.enqueue(txn)).is_err());
    });
    service.queue.close();
    let monitor = dope.monitor();
    let report = dope.wait().map_err(|e| format!("transcode run: {e}"))?;
    let cpu_s = procfs::cpu_secs()? - cpu0;
    ledger::finish(attached, tracing);
    phase.add_run(&monitor, report);
    if refused > 0 {
        phase
            .violations
            .push(format!("{refused} requests refused by an open queue"));
    }

    let expected: Vec<u64> = input.videos.iter().map(|v| video_digest(v)).collect();
    for (i, digest) in sink.digests.iter().enumerate() {
        match digest.load(Ordering::Relaxed) {
            NOT_DONE => phase.lost += 1,
            d if d != expected[input.content[i]] => phase.wrong += 1,
            _ => {}
        }
    }
    phase.offered += n as u64;
    phase.lags.extend(lags);
    let (latencies, window) = sink.done.finish(start);
    phase.end_round(setup_s, latencies, window, cpu_s)
}

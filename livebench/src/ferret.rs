//! `ferret_batch`: the six-stage ferret image-search pipeline and its
//! fused alternative under TBF, fed closed batches queued at start.
//!
//! The stage closures are built here, through `LivePipeline::descriptor`,
//! from the `kernels::search` functions, so each stage can be timed and
//! each sampled answer compared with serial `search`.

use crate::gen::{mix, parallel};
use crate::ledger::{self, Attached, Ledger, Span, Tracing};
use crate::phase::{self, Completions, Phase};
use crate::procfs;
use dope_apps::kernels::search::{
    extract, index_probe, rank, search, segment, Corpus, QueryImage, FEATURE_DIM,
};
use dope_apps::pipeline_live::{LivePipeline, PipeItem, StageDef};
use dope_core::Goal;
use dope_mechanisms::Tbf;
use dope_runtime::Dope;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Queries per closed batch (one round, about 0.8 s).
const BATCH: usize = 25_000;
/// Feature vectors in the corpus.
const CORPUS: usize = 1500;
/// Results per query.
const TOP_K: usize = 10;
/// Every `SAMPLE`-th query's answer is checked against serial `search`.
const SAMPLE: u64 = 64;
const THREADS: u32 = 6;
const CONTROL_PERIOD: Duration = Duration::from_millis(50);
/// Latency limit for goodput: every query of a batch is due at its
/// start, so this bounds the batch's makespan.
const LIMIT_S: f64 = 30.0;

/// Stage names, unfused then fused; indices into the ledger's stages.
pub const STAGES: &[&str] = &[
    "load", "segment", "extract", "index", "rank", "out", "fused",
];

enum Data {
    Seed,
    Loaded(QueryImage),
    Segmented(Vec<Vec<u8>>),
    Featurized([f32; FEATURE_DIM]),
    Probed([f32; FEATURE_DIM], Vec<usize>),
    Ranked(Vec<(usize, f32)>),
}

/// A query in flight: its input seed, its data at the current stage and,
/// on a traced run, its timestamps.
struct Query {
    seed: u64,
    data: Data,
    issued: Instant,
    first_start: Option<Instant>,
    last_end: Instant,
}

/// A sampled query's seed and its live top-k answer.
type Answer = (u64, Vec<(usize, f32)>);

/// State shared by the stages of one round.
struct Round {
    corpus: Arc<Corpus>,
    done: Completions,
    answers: Mutex<Vec<Answer>>,
    ledger: Option<Arc<Ledger>>,
}

type StageFn = fn(&Round, &mut Query);

fn load(_: &Round, q: &mut Query) {
    q.data = Data::Loaded(QueryImage::synthetic(q.seed));
}

fn segment_stage(_: &Round, q: &mut Query) {
    if let Data::Loaded(image) = &q.data {
        q.data = Data::Segmented(segment(image));
    }
}

fn extract_stage(_: &Round, q: &mut Query) {
    if let Data::Segmented(tiles) = &q.data {
        q.data = Data::Featurized(extract(tiles));
    }
}

fn index_stage(r: &Round, q: &mut Query) {
    if let Data::Featurized(features) = &q.data {
        q.data = Data::Probed(*features, index_probe(&r.corpus, features));
    }
}

fn rank_stage(r: &Round, q: &mut Query) {
    if let Data::Probed(features, candidates) = &q.data {
        q.data = Data::Ranked(rank(&r.corpus, features, candidates, TOP_K));
    }
}

fn fused(r: &Round, q: &mut Query) {
    if let Data::Loaded(image) = &q.data {
        let features = extract(&segment(image));
        let candidates = index_probe(&r.corpus, &features);
        q.data = Data::Ranked(rank(&r.corpus, &features, &candidates, TOP_K));
    }
}

fn out(_: &Round, q: &mut Query) {
    if let Data::Ranked(top) = &q.data {
        std::hint::black_box(top.len());
    }
}

/// Wraps a stage function as a pipeline closure: timing on a traced run,
/// and completion plus answer sampling at the `out` stage.
fn stage(index: usize, round: &Arc<Round>, work: StageFn) -> impl Fn(PipeItem) -> PipeItem {
    let round = Arc::clone(round);
    let last = STAGES[index] == "out";
    move |mut item: PipeItem| {
        let mut q = item
            .payload
            .downcast::<Query>()
            .expect("every pipeline payload is a Query");
        let span = round.ledger.is_some().then(Span::start);
        work(&round, &mut q);
        if let (Some(l), Some(span)) = (&round.ledger, span) {
            let (t0, t1, cpu) = (span.wall, Instant::now(), span.cpu_ns());
            let stage = &l.stages[index].1;
            stage.busy.record(cpu);
            stage.wait.record_between(q.last_end, t0);
            l.kernel.record(cpu);
            let first = *q.first_start.get_or_insert_with(|| {
                l.queue_wait.record_between(q.issued, t0);
                t0
            });
            q.last_end = t1;
            if last {
                l.service.record_between(first, t1);
            }
        }
        if last {
            round.done.complete(item.submitted);
            if item.id.is_multiple_of(SAMPLE) {
                let top = match std::mem::replace(&mut q.data, Data::Seed) {
                    Data::Ranked(top) => top,
                    _ => Vec::new(),
                };
                round
                    .answers
                    .lock()
                    .expect("answer lock poisoned")
                    .push((q.seed, top));
            }
        }
        item.payload = q;
        item
    }
}

fn descriptor(pipe: &LivePipeline, round: &Arc<Round>) -> Vec<dope_core::TaskSpec> {
    let s = |i: usize, f: StageFn| stage(i, round, f);
    let unfused = vec![
        StageDef::seq("load", s(0, load)),
        StageDef::par("segment", s(1, segment_stage)),
        StageDef::par("extract", s(2, extract_stage)),
        StageDef::par("index", s(3, index_stage)),
        StageDef::par("rank", s(4, rank_stage)),
        StageDef::seq("out", s(5, out)),
    ];
    let fused = vec![
        StageDef::seq("load", s(0, load)),
        StageDef::par("fused", s(6, fused)),
        StageDef::seq("out", s(5, out)),
    ];
    pipe.descriptor("ferret", vec![unfused, fused])
}

/// A launched executive with its corpus and its batch, not yet fed.
struct Setup {
    corpus: Arc<Corpus>,
    round: Arc<Round>,
    pipe: LivePipeline,
    dope: Dope,
    attached: Option<Attached>,
    items: Vec<PipeItem>,
}

fn set_up(seed: u64, index: u64, tracing: Option<&Tracing>) -> Result<Setup, String> {
    let t0 = Instant::now();
    let round_seed = mix(seed ^ mix(index));
    let corpus = Arc::new(Corpus::synthetic(CORPUS, mix(round_seed)));
    let round = Arc::new(Round {
        corpus: Arc::clone(&corpus),
        done: Completions::new(BATCH),
        answers: Mutex::new(Vec::new()),
        ledger: tracing.map(|t| Arc::clone(&t.ledger)),
    });
    let pipe = LivePipeline::new();
    let builder = Dope::builder(Goal::MaxThroughput { threads: THREADS })
        .mechanism(ledger::mechanism(Tbf::new(), tracing))
        .control_period(CONTROL_PERIOD)
        .queue_probe(ledger::probe(pipe.queue_probe(), tracing));
    let (builder, attached) = ledger::attach(builder, tracing);
    let dope = builder
        .launch(descriptor(&pipe, &round))
        .map_err(|e| format!("ferret launch: {e}"))?;
    let items = parallel(BATCH, |i| {
        let query = Query {
            seed: mix(round_seed ^ mix(i as u64)),
            data: Data::Seed,
            issued: t0,
            first_start: None,
            last_end: t0,
        };
        PipeItem::new(i as u64, Box::new(query))
    });
    Ok(Setup {
        corpus,
        round,
        pipe,
        dope,
        attached,
        items,
    })
}

/// Runs closed batches for `seconds` (at least one).
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
                    s.pipe.source.close();
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
        corpus,
        round,
        pipe,
        dope,
        attached,
        items,
    } = set_up(seed, index, tracing)?;
    let setup_s = t0.elapsed().as_secs_f64();

    let cpu0 = procfs::cpu_secs()?;
    let start = Instant::now();
    let enqueue_hist = tracing.map(|t| &t.ledger.enqueue);
    let mut refused = 0;
    for mut item in items {
        let now = Instant::now();
        phase.lags.push(now.duration_since(start).as_secs_f64());
        item.submitted = start;
        if let Some(q) = item.payload.downcast_mut::<Query>() {
            q.issued = now;
            q.last_end = now;
        }
        refused += usize::from(ledger::timed(enqueue_hist, || pipe.source.enqueue(item)).is_err());
    }
    pipe.source.close();
    let monitor = dope.monitor();
    let report = dope.wait().map_err(|e| format!("ferret run: {e}"))?;
    let cpu_s = procfs::cpu_secs()? - cpu0;
    ledger::finish(attached, tracing);
    phase.add_run(&monitor, report);
    if refused > 0 {
        phase
            .violations
            .push(format!("{refused} queries refused by an open queue"));
    }

    let answers = std::mem::take(&mut *round.answers.lock().expect("answer lock poisoned"));
    let sampled = BATCH.div_ceil(SAMPLE as usize);
    if answers.len() != sampled {
        phase.violations.push(format!(
            "{} sampled answers, expected {sampled}",
            answers.len()
        ));
    }
    for (seed, top) in answers {
        if top != search(&corpus, &QueryImage::synthetic(seed), TOP_K) {
            phase.wrong += 1;
        }
    }
    let (latencies, window) = round.done.finish(start);
    phase.offered += BATCH as u64;
    phase.lost += (BATCH - latencies.len()) as u64;
    phase.end_round(setup_s, latencies, window, cpu_s)
}

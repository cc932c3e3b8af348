//! Live end-to-end benchmark of the DoPE executive.
//!
//! Drives real `dope-apps` kernels through `dope_runtime::Dope` under a
//! seeded load, checks every output it samples, and prints each metric
//! by name with its unit; the last line is one JSON object.
//!
//! ```text
//! cargo run --release --manifest-path livebench/Cargo.toml -- \
//!     --workload transcode_open --seed 1 --seconds 10 --trace 0
//! cargo run --release --manifest-path livebench/Cargo.toml -- --emit-manifest
//! ```
//!
//! `--trace 0` runs untraced and prints the end-to-end metrics.
//! `--trace 1` runs the same phase untraced and then traced (recorder,
//! metrics registry, timing wrappers), prints the per-layer metrics and
//! the reconciliation of latency and CPU against their layers, and
//! reports the traced phase's extra CPU per job as `trace.overhead_ratio`.

mod ferret;
mod gen;
mod ledger;
mod manifest;
mod overload;
mod phase;
mod procfs;
mod stats;
mod timed;
mod transcode;

use dope_core::json::Value;
use dope_trace::TraceEvent;
use ledger::Tracing;
use manifest::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use phase::Phase;
use std::collections::HashMap;
use std::process::ExitCode;

const USAGE: &str = "usage: livebench --workload <name> --seed <n> --seconds <n> --trace <0|1>\n       livebench --emit-manifest";

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    if argv == ["--emit-manifest"] {
        return Ok(None);
    }
    let mut flags: HashMap<&str, &str> = HashMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                if flags.insert(k.as_str(), v.as_str()).is_some() {
                    return Err(format!("{k} given twice"));
                }
            }
            _ => return Err(format!("unexpected argument {:?}", pair[0])),
        }
    }
    let get = |k: &str| flags.get(k).copied().ok_or(format!("missing {k}"));
    let name = get("--workload")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .map(|w| w.name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be 1 to 600".to_string());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    if flags.len() != 4 {
        return Err("unknown flag".to_string());
    }
    Ok(Some(Args {
        workload,
        seed,
        seconds: seconds as f64,
        trace,
    }))
}

fn run_phase(args: &Args, tracing: Option<&Tracing>) -> Result<Phase, String> {
    match args.workload {
        "transcode_open" => transcode::run(args.seed, args.seconds, tracing),
        "ferret_batch" => ferret::run(args.seed, args.seconds, tracing),
        "overload_shed" => overload::run(args.seed, args.seconds, tracing),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Named metric values, in the catalogue's order when emitted.
type Values = HashMap<&'static str, f64>;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn end_to_end(phase: &Phase) -> Result<Values, String> {
    Ok(HashMap::from([
        ("throughput_jobs_per_s", phase.median(|r| r.throughput)),
        ("goodput_jobs_per_s", phase.median(|r| r.goodput)),
        ("latency_p50_s", phase.median(|r| r.p50)),
        ("latency_p99_s", phase.median(|r| r.p99)),
        ("cpu_s_per_job", phase.median(|r| r.cpu_per_job)),
        ("peak_rss_mb", procfs::peak_rss_mb()?),
        ("setup_s", stats::median(&phase.setups)),
    ]))
}

/// Lines every run prints about the phase beyond the catalogue metrics.
fn describe(phase: &Phase) {
    let offered = phase.offered as f64;
    println!("latency_samples = {} count", phase.latencies.len());
    if let Some(q) = stats::highest_supported(phase.latencies.len()) {
        let mut lat = phase.latencies.clone();
        stats::sort(&mut lat);
        let rank = phase.latencies.len() - stats::TAIL_SAMPLES;
        println!(
            "latency_tail_s = {:.6} s (p{:.3}, the highest percentile with 10 samples beyond)",
            lat[rank - 1],
            q * 100.0
        );
    }
    println!("latency_limit_s = {} s", phase.limit_s);
    println!(
        "error_ratio = {} ratio (lost {} + wrong {} + failed replicas {} of {} offered)",
        ratio(phase.errors() as f64, offered),
        phase.lost,
        phase.wrong,
        phase.failed_replicas,
        phase.offered
    );
    println!("shed_ratio = {} ratio", ratio(phase.shed as f64, offered));
    println!(
        "gen.lag_p99_s = {} s",
        stats::percentile_of(&phase.lags, 990)
    );
    println!("rounds = {} count", phase.rounds.len());
    println!("setup_s samples = {:.6?}", phase.setups);
    for (i, r) in phase.rounds.iter().enumerate() {
        println!(
            "round {i}: throughput {:.2} goodput {:.2} p50 {:.6} p99 {:.6} cpu_per_job {:.3e}",
            r.throughput, r.goodput, r.p50, r.p99, r.cpu_per_job
        );
    }
    for v in &phase.violations {
        println!("VIOLATION: {v}");
    }
}

fn per_layer(base: &Phase, traced: &Phase, tracing: Tracing) -> (Values, Vec<String>) {
    let ledger = std::sync::Arc::clone(&tracing.ledger);
    let runs = tracing.into_runs();
    let jobs = traced.completed as f64;
    let mut pauses_ms = Vec::new();
    let mut partial = 0usize;
    let mut events = 0u64;
    let mut dropped = 0u64;
    for run in &runs {
        events += run.records.len() as u64 + run.dropped;
        dropped += run.dropped;
        for r in &run.records {
            if let TraceEvent::ReconfigureEpoch {
                pause_secs, scope, ..
            } = &r.event
            {
                pauses_ms.push(pause_secs * 1e3);
                partial += usize::from(scope == "partial");
            }
        }
    }
    let mech = &ledger.mechanism;
    let load =
        |a: &std::sync::atomic::AtomicU64| a.load(std::sync::atomic::Ordering::Relaxed) as f64;
    let admitted: u64 = traced.admission.iter().map(|a| a.admitted).sum();
    let shed: u64 = traced.admission.iter().map(|a| a.shed()).sum();
    let cpu_job = ratio(traced.cpu_s, jobs);
    let kernel_job = ratio(ledger.kernel.sum_secs(), jobs);
    let invocations: f64 = runs.iter().map(|r| r.invocations).sum();
    let values: Values = HashMap::from([
        ("gen.lag_p99_s", stats::percentile_of(&traced.lags, 990)),
        ("gen.offered", traced.offered as f64),
        ("admission.admitted", admitted as f64),
        ("admission.shed", shed as f64),
        ("queue.enqueue_ns_p99", ledger.enqueue.percentile_nanos(990)),
        ("queue.wait_s_p50", ledger.queue_wait.percentile_secs(500)),
        ("queue.wait_s_p99", ledger.queue_wait.percentile_secs(990)),
        ("queue.depth_mean", stats::mean(&ledger.depth.to_vec())),
        ("kernel.busy_s_per_job", kernel_job),
        ("kernel.calls", ledger.kernel.count() as f64),
        ("service_s_p50", ledger.service.percentile_secs(500)),
        ("runtime.overhead_s_per_job", cpu_job - kernel_job),
        (
            "pool.dispatched_per_job",
            ratio(runs.iter().map(|r| r.dispatched).sum(), jobs),
        ),
        ("runtime.invocations_per_job", ratio(invocations, jobs)),
        (
            "monitor.overhead_ratio",
            stats::mean(&traced.monitor_overhead),
        ),
        (
            "reconfig.count",
            traced
                .reports
                .iter()
                .map(|r| r.reconfigurations as f64)
                .sum(),
        ),
        (
            "reconfig.partial_ratio",
            ratio(partial as f64, pauses_ms.len() as f64),
        ),
        ("mechanism.consults", load(&mech.consults)),
        (
            "mechanism.consult_us_p50",
            mech.consult.percentile_nanos(500) / 1e3,
        ),
        (
            "mechanism.consult_us_p99",
            mech.consult.percentile_nanos(990) / 1e3,
        ),
        (
            "mechanism.accept_ratio",
            ratio(load(&mech.applied), load(&mech.proposals)),
        ),
        ("trace.events_per_s", ratio(events as f64, traced.window_s)),
        ("trace.dropped", dropped as f64),
        (
            "trace.overhead_ratio",
            ratio(cpu_job, ratio(base.cpu_s, base.completed as f64)) - 1.0,
        ),
        (
            "metrics.render_us_p50",
            ledger.render.percentile_nanos(500) / 1e3,
        ),
    ]);

    let mut lines = vec![
        format!(
            "runtime.useful_invocation_ratio = {} ratio",
            ratio(jobs, invocations)
        ),
        format!("mechanism.proposals = {} count", load(&mech.proposals)),
        format!("mechanism.applied = {} count", load(&mech.applied)),
        format!("reconfig.epochs_traced = {} count", pauses_ms.len()),
    ];
    // Timings that exist only where the layer does work: a workload that
    // never reconfigures, sheds or pipelines has nothing to time there.
    if !pauses_ms.is_empty() {
        lines.push(format!(
            "reconfig.pause_ms_p50 = {} ms",
            stats::percentile_of(&pauses_ms, 500)
        ));
        lines.push(format!(
            "reconfig.pause_ms_max = {} ms",
            stats::percentile_of(&pauses_ms, 1000)
        ));
    }
    if mech.validate.count() > 0 {
        lines.push(format!(
            "validate.us_p50 = {} us",
            mech.validate.percentile_nanos(500) / 1e3
        ));
    }
    if !traced.admission.is_empty() {
        let delay: f64 = traced
            .admission
            .iter()
            .map(|a| a.mean_queue_delay_secs * a.admitted as f64)
            .sum();
        lines.push(format!(
            "admission.offer_ns_p50 = {} ns",
            ledger.offer.percentile_nanos(500)
        ));
        lines.push(format!(
            "admission.offer_ns_p99 = {} ns",
            ledger.offer.percentile_nanos(990)
        ));
        lines.push(format!(
            "admission.queue_delay_s_mean = {} s",
            ratio(delay, admitted as f64)
        ));
    }
    for (name, stage) in &ledger.stages {
        lines.push(format!("stage.{name}.busy_s = {} s", stage.busy.sum_secs()));
        lines.push(format!(
            "stage.{name}.wait_s_p50 = {} s",
            stage.wait.percentile_secs(500)
        ));
    }

    // Reconciliation: the layers should add up to the end-to-end figure.
    let lat_mean = stats::mean(&traced.latencies);
    let (lag, wait, service) = (
        stats::mean(&traced.lags),
        ledger.queue_wait.mean_secs(),
        ledger.service.mean_secs(),
    );
    lines.push(format!(
        "reconcile latency_mean_s {lat_mean:.6} = gen.lag {lag:.6} + queue.wait {wait:.6} + service {service:.6} + residual {:.6}",
        lat_mean - lag - wait - service
    ));
    let per_job = |secs: f64| ratio(secs, jobs);
    let layers = [
        ("monitor", per_job(traced.monitor_secs)),
        (
            "mechanism",
            per_job(mech.consult.sum_secs() + mech.validate.sum_secs()),
        ),
        ("enqueue", per_job(ledger.enqueue.sum_secs())),
        ("offer", per_job(ledger.offer.sum_secs())),
        ("render", per_job(ledger.render.sum_secs())),
    ];
    let attributed: f64 = layers.iter().map(|(_, v)| v).sum();
    let breakdown: Vec<String> = layers.iter().map(|(n, v)| format!("{n} {v:.3e}")).collect();
    lines.push(format!(
        "reconcile cpu_s_per_job {cpu_job:.3e} = kernel.busy {kernel_job:.3e} + runtime.overhead {:.3e} [{} + unattributed {:.3e}]",
        cpu_job - kernel_job,
        breakdown.join(" + "),
        cpu_job - kernel_job - attributed
    ));
    (values, lines)
}

fn metrics_json(values: &Values, catalogue: &[Metric]) -> Result<Value, String> {
    let mut fields = Vec::new();
    for m in catalogue {
        let v = *values
            .get(m.name)
            .ok_or_else(|| format!("metric {} was not measured", m.name))?;
        if !v.is_finite() || !stats::valid_name(m.name) || !stats::valid_unit(m.unit) {
            return Err(format!(
                "metric {} {} = {v} breaks the output contract",
                m.name, m.unit
            ));
        }
        println!("{} = {} {}", m.name, v, m.unit);
        fields.push((
            m.name.to_string(),
            Value::Object(vec![
                ("value".to_string(), Value::Float(v)),
                ("unit".to_string(), Value::String(m.unit.to_string())),
            ]),
        ));
    }
    Ok(Value::Object(fields))
}

fn run(args: &Args) -> Result<bool, String> {
    println!(
        "workload {} seed {} seconds {} trace {} on {} hardware threads",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let steal0 = procfs::steal_secs()?;
    let base = run_phase(args, None)?;
    describe(&base);
    println!(
        "machine.steal_s = {} s (CPU time the hypervisor took from this machine during the phase)",
        procfs::steal_secs()? - steal0
    );
    let (metrics, phases) = if args.trace {
        // Only ferret is a stage pipeline; the others time chunks and queues.
        let stages = if args.workload == "ferret_batch" {
            ferret::STAGES
        } else {
            &[]
        };
        let tracing = Tracing::new(stages);
        let traced = run_phase(args, Some(&tracing))?;
        println!("-- traced phase --");
        describe(&traced);
        let (values, lines) = per_layer(&base, &traced, tracing);
        for l in &lines {
            println!("{l}");
        }
        (metrics_json(&values, PER_LAYER)?, vec![base, traced])
    } else {
        (metrics_json(&end_to_end(&base)?, END_TO_END)?, vec![base])
    };
    let correct = phases.iter().all(Phase::correct);
    let result = Value::Object(vec![
        ("correct".to_string(), Value::Bool(correct)),
        (
            "attempted".to_string(),
            Value::Number(phases.iter().map(|p| p.offered).sum()),
        ),
        (
            "failed".to_string(),
            Value::Number(phases.iter().map(Phase::errors).sum()),
        ),
        ("metrics".to_string(), metrics),
    ]);
    println!("{}", result.to_json());
    Ok(correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv) {
        Ok(None) => {
            print!("{}", manifest::pretty(&manifest::manifest()));
            ExitCode::SUCCESS
        }
        Ok(Some(args)) => match run(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => {
                eprintln!("livebench: output check failed");
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("livebench: {e}");
                ExitCode::from(2)
            }
        },
        Err(e) => {
            eprintln!("livebench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

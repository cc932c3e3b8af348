//! The perf gate: pinned microbenches emitting `BENCH_perf.json`.
//!
//! Five probes, each guarding one latency the DoPE stack promises to
//! keep small (see `docs/performance.md`):
//!
//! 1. **record path** — ns/op of the sharded task-completion record,
//!    single-threaded and contended, measured side by side with a
//!    replica of the retired shared-mutex design
//!    ([`dope_runtime::perf::bench_record_path`]) so every report
//!    carries a same-machine before/after;
//! 2. **snapshot** — `Monitor::snapshot` latency over a populated path
//!    set ([`dope_runtime::perf::bench_snapshot`]);
//! 3. **reconfigure** — pause/relaunch latency of a real suspend +
//!    relaunch cycle, read back from a flight recording of a live
//!    transcode run;
//! 4. **partial reconfig pause** — the same single-leaf extent change
//!    applied as a partial (delta) drain versus a forced full drain on a
//!    wide program with slow sibling tasks; the gate demands the delta
//!    path pause at least 4x less than the full drain;
//! 5. **fig11** — wall time of an end-to-end figure-11 sweep, the
//!    macro-level canary;
//! 6. **overload** — admission policies under 10x offered load
//!    ([`crate::overload`]): with `Shed`, the p99 of admitted requests
//!    must stay bounded (at least 4x under the open queue's p99) while
//!    goodput holds at >= 90 % of saturation throughput, and `Block`
//!    must complete every offered request.
//!
//! The report is strict-codec JSON (`dope_core::json`), diffable with
//! [`compare`] against a checked-in baseline
//! (`results/perf-baseline.json`); [`gate_failures`] additionally
//! enforces the in-run invariants that the sharded record path beats the
//! mutex reference, that the reconfigure probe applied at least one
//! epoch, and that the delta drain beats the full drain.

use dope_apps::transcode;
use dope_core::json::{parse, Value};
use dope_core::{
    body_fn, Config, Goal, Mechanism, MonitorSnapshot, ProgramShape, Resources, TaskBody,
    TaskConfig, TaskKind, TaskSpec, TaskStatus, WorkerSlot,
};
use dope_mechanisms::WqLinear;
use dope_trace::{Recorder, TraceEvent};
use dope_workload::{DequeueOutcome, WorkQueue};
use std::time::{Duration, Instant};

/// Schema tag carried by every report.
pub const SCHEMA: &str = "dope-bench-perf/v1";

/// Comparison threshold used when the caller does not pass one: a
/// metric may grow by 75 % before the gate fails. Deliberately
/// generous — the gate exists to catch gross regressions (a lock back
/// on the hot path, an accidentally quadratic snapshot), not scheduler
/// jitter.
pub const DEFAULT_THRESHOLD: f64 = 0.75;

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Runs every probe and assembles the `BENCH_perf.json` report.
///
/// `quick` shrinks iteration counts to CI-smoke size (about a second of
/// wall time); the full configuration pins each probe long enough for
/// stable numbers.
#[must_use]
pub fn run(quick: bool) -> Value {
    let record_iters: u64 = if quick { 200_000 } else { 2_000_000 };
    let threads: u32 = 8;
    let snapshot_paths: u32 = 8;
    let snapshot_records: u64 = if quick { 20_000 } else { 200_000 };
    let snapshot_samples: u32 = if quick { 20 } else { 100 };

    println!("perf: record path ({record_iters} iters, {threads} threads)");
    let record = dope_runtime::perf::bench_record_path(record_iters, threads);

    println!("perf: snapshot ({snapshot_paths} paths x {snapshot_records} records)");
    let snapshot =
        dope_runtime::perf::bench_snapshot(snapshot_paths, snapshot_records, snapshot_samples);

    println!("perf: reconfigure pause (live transcode run)");
    let reconfigure = bench_reconfigure(quick);

    println!("perf: partial reconfig pause (delta vs full drain)");
    let partial_reconfig = bench_partial_reconfig(quick);

    println!("perf: overload (admission policies at 10x offered load)");
    let overload = crate::overload::run(quick);

    let fig11_loads = if quick {
        vec![0.8]
    } else {
        crate::load_factors(true)
    };
    let fig11_requests = if quick {
        200
    } else {
        crate::request_count(true)
    };
    println!(
        "perf: fig11 sweep ({} load(s) x {fig11_requests} requests)",
        fig11_loads.len()
    );
    let t0 = Instant::now();
    let sweeps = crate::fig11::run(&fig11_loads, fig11_requests);
    let fig11_wall = t0.elapsed().as_secs_f64();
    let fig11_apps = sweeps.len() as u64;

    obj(vec![
        ("schema", Value::String(SCHEMA.to_string())),
        ("quick", Value::Bool(quick)),
        (
            "record_path",
            obj(vec![
                ("iters_per_thread", Value::Number(record.iters_per_thread)),
                ("threads", Value::Number(u64::from(record.threads))),
                (
                    "sharded_single_ns",
                    Value::from_f64(record.sharded_single_ns),
                ),
                (
                    "sharded_contended_ns",
                    Value::from_f64(record.sharded_contended_ns),
                ),
                ("mutex_single_ns", Value::from_f64(record.mutex_single_ns)),
                (
                    "mutex_contended_ns",
                    Value::from_f64(record.mutex_contended_ns),
                ),
            ]),
        ),
        (
            "snapshot",
            obj(vec![
                ("paths", Value::Number(u64::from(snapshot.paths))),
                ("records_per_path", Value::Number(snapshot.records_per_path)),
                ("snapshot_micros", Value::from_f64(snapshot.snapshot_micros)),
            ]),
        ),
        ("reconfigure", reconfigure),
        ("partial_reconfig_pause", partial_reconfig),
        ("overload", overload),
        (
            "fig11",
            obj(vec![
                ("apps", Value::Number(fig11_apps)),
                ("loads", Value::Number(fig11_loads.len() as u64)),
                ("requests", Value::Number(fig11_requests as u64)),
                ("wall_secs", Value::from_f64(fig11_wall)),
            ]),
        ),
    ])
}

/// Runs a short live transcode under WQ-Linear with a flight recorder
/// attached and reads the reconfiguration pause/relaunch latencies back
/// out of the recording.
fn bench_reconfigure(quick: bool) -> Value {
    let videos: u64 = if quick { 24 } else { 96 };
    let (service, descriptor) = transcode::live_service();
    let recorder = Recorder::bounded(4096);
    let launched = dope_runtime::Dope::builder(Goal::MinResponseTime { threads: 4 })
        .mechanism(Box::new(WqLinear::new(1, 4, 8.0)))
        .control_period(Duration::from_millis(10))
        .queue_probe(service.queue_probe())
        .recorder(recorder.clone())
        .launch(descriptor);
    let dope = match launched {
        Ok(dope) => dope,
        Err(err) => {
            return obj(vec![(
                "error",
                Value::String(format!("launch failed: {err}")),
            )])
        }
    };
    let params = transcode::VideoParams {
        frames: 4,
        width: 32,
        height: 32,
    };
    // The nest can finish a burst inside one control period, before any
    // consult sees a backlog; repeat the burst until WQ-Linear has
    // narrowed the nest at least once (or give up after 5 s, which the
    // gate then reports as zero epochs).
    let epoch_recorded = || {
        recorder
            .records()
            .iter()
            .any(|r| matches!(r.event, TraceEvent::ReconfigureEpoch { .. }))
    };
    let give_up = Instant::now() + Duration::from_secs(5);
    let mut bursts: u64 = 0;
    while !epoch_recorded() && Instant::now() < give_up {
        for id in 0..videos {
            let _ = service
                .queue
                .enqueue(transcode::make_video(bursts * videos + id, params));
        }
        bursts += 1;
        let settle = Instant::now() + Duration::from_millis(30);
        while !epoch_recorded() && Instant::now() < settle {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    service.queue.close();
    let _ = dope.wait();

    let mut pauses = Vec::new();
    let mut relaunches = Vec::new();
    for record in recorder.records() {
        if let TraceEvent::ReconfigureEpoch {
            pause_secs,
            relaunch_secs,
            ..
        } = record.event
        {
            pauses.push(pause_secs);
            relaunches.push(relaunch_secs);
        }
    }
    let mean = |xs: &[f64]| {
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    };
    obj(vec![
        ("videos", Value::Number(videos)),
        ("bursts", Value::Number(bursts)),
        ("epochs", Value::Number(pauses.len() as u64)),
        ("mean_pause_ms", Value::from_f64(mean(&pauses) * 1e3)),
        ("mean_relaunch_ms", Value::from_f64(mean(&relaunches) * 1e3)),
    ])
}

/// Proposes a pinned starting configuration, then one target
/// configuration at the first consult, then holds.
struct OneBump {
    fired: bool,
    start: Config,
    target: Config,
}

impl Mechanism for OneBump {
    fn name(&self) -> &'static str {
        "OneBump"
    }
    fn initial(&mut self, _shape: &ProgramShape, _res: &Resources) -> Option<Config> {
        Some(self.start.clone())
    }
    fn reconfigure(
        &mut self,
        _snap: &MonitorSnapshot,
        _current: &Config,
        _shape: &ProgramShape,
        _res: &Resources,
    ) -> Option<Config> {
        if self.fired {
            None
        } else {
            self.fired = true;
            Some(self.target.clone())
        }
    }
}

/// A leaf that drains its own queue at a fixed per-item cost, honoring
/// the suspend directive after every item — each item boundary is a
/// consistent point.
fn paced_drain_spec(name: &'static str, queue: WorkQueue<u64>, work: Duration) -> TaskSpec {
    TaskSpec::leaf(name, TaskKind::Par, move |_slot: WorkerSlot| {
        let queue = queue.clone();
        Box::new(body_fn(move |cx| {
            cx.begin();
            let item = queue.dequeue_timeout(Duration::from_millis(2));
            cx.end();
            match item {
                DequeueOutcome::Item(_) => {
                    std::thread::sleep(work);
                    if cx.directive().wants_suspend() {
                        TaskStatus::Suspended
                    } else {
                        TaskStatus::Executing
                    }
                }
                DequeueOutcome::Drained => TaskStatus::Finished,
                DequeueOutcome::TimedOut => {
                    if cx.directive().wants_suspend() {
                        TaskStatus::Suspended
                    } else {
                        TaskStatus::Executing
                    }
                }
            }
        })) as Box<dyn TaskBody>
    })
}

/// Measures the pause cost of the same single-leaf extent change taken
/// as a partial (delta) drain versus a forced full drain.
///
/// The program is one fine-grained leaf (1 ms items — the path whose
/// extent changes) next to seven coarse leaves (30 ms items). A full
/// drain must wait for the slowest in-flight coarse item before the
/// boundary, so its pause is dominated by work that has nothing to do
/// with the change; the delta path drains only the fine leaf. The gate
/// requires the partial pause to be at least 4x smaller.
fn bench_partial_reconfig(quick: bool) -> Value {
    const COARSE_PATHS: u64 = 7;
    let fine_items: u64 = if quick { 150 } else { 400 };
    let coarse_items: u64 = if quick { 8 } else { 16 };
    let fine_work = Duration::from_millis(1);
    let coarse_work = Duration::from_millis(30);

    let run_once = |delta: bool| -> (f64, u64) {
        let mut specs = Vec::new();
        let mut start_tasks = Vec::new();
        let fine_queue = WorkQueue::new();
        for i in 0..fine_items {
            let _ = fine_queue.enqueue(i);
        }
        fine_queue.close();
        specs.push(paced_drain_spec("fine", fine_queue, fine_work));
        start_tasks.push(TaskConfig::leaf("fine", 1));
        let coarse_names: [&'static str; COARSE_PATHS as usize] =
            ["c1", "c2", "c3", "c4", "c5", "c6", "c7"];
        for name in coarse_names {
            let queue = WorkQueue::new();
            for i in 0..coarse_items {
                let _ = queue.enqueue(i);
            }
            queue.close();
            specs.push(paced_drain_spec(name, queue, coarse_work));
            start_tasks.push(TaskConfig::leaf(name, 1));
        }
        let start = Config::new(start_tasks);
        let mut target = start.clone();
        if let Some(task) = target.tasks.first_mut() {
            task.extent = 2;
        }
        let recorder = Recorder::bounded(4096);
        let launched = dope_runtime::Dope::builder(Goal::MaxThroughput { threads: 9 })
            .mechanism(Box::new(OneBump {
                fired: false,
                start,
                target,
            }))
            .control_period(Duration::from_millis(10))
            .delta_reconfig(delta)
            .recorder(recorder.clone())
            .launch(specs);
        let Ok(dope) = launched else {
            return (0.0, 0);
        };
        let _ = dope.wait();
        let pauses: Vec<f64> = recorder
            .records()
            .iter()
            .filter_map(|record| match &record.event {
                TraceEvent::ReconfigureEpoch { pause_secs, .. } => Some(*pause_secs),
                _ => None,
            })
            .collect();
        if pauses.is_empty() {
            (0.0, 0)
        } else {
            let mean = pauses.iter().sum::<f64>() / pauses.len() as f64;
            (mean * 1e3, pauses.len() as u64)
        }
    };

    let (partial_pause_ms, partial_epochs) = run_once(true);
    let (full_pause_ms, full_epochs) = run_once(false);
    let pause_ratio = if partial_pause_ms > 0.0 {
        full_pause_ms / partial_pause_ms
    } else {
        0.0
    };
    obj(vec![
        ("paths", Value::Number(1 + COARSE_PATHS)),
        ("fine_items", Value::Number(fine_items)),
        ("coarse_items", Value::Number(coarse_items)),
        ("partial_pause_ms", Value::from_f64(partial_pause_ms)),
        ("partial_epochs", Value::Number(partial_epochs)),
        ("full_pause_ms", Value::from_f64(full_pause_ms)),
        ("full_epochs", Value::Number(full_epochs)),
        ("pause_ratio", Value::from_f64(pause_ratio)),
    ])
}

fn metric(report: &Value, section: &str, key: &str) -> Option<f64> {
    report.get(section)?.get(key)?.as_f64()
}

/// In-run invariants a report must satisfy regardless of any baseline:
/// the sharded record path must beat the mutex reference measured in
/// the same process on the same machine. Returns violation messages
/// (empty = pass).
#[must_use]
pub fn gate_failures(report: &Value) -> Vec<String> {
    let mut failures = Vec::new();
    let pairs = [
        ("sharded_single_ns", "mutex_single_ns"),
        ("sharded_contended_ns", "mutex_contended_ns"),
    ];
    for (sharded_key, mutex_key) in pairs {
        match (
            metric(report, "record_path", sharded_key),
            metric(report, "record_path", mutex_key),
        ) {
            (Some(sharded), Some(mutex)) => {
                if sharded >= mutex {
                    failures.push(format!(
                        "record_path.{sharded_key} = {sharded:.1} ns does not beat \
                         the in-run mutex reference {mutex_key} = {mutex:.1} ns"
                    ));
                }
            }
            _ => failures.push(format!(
                "report is missing record_path.{sharded_key} / record_path.{mutex_key}"
            )),
        }
    }
    if report.get("reconfigure").is_some() {
        // `compare` skips zeroed metrics, so a probe that stopped
        // reconfiguring would silently drop out of the baseline diff.
        match metric(report, "reconfigure", "epochs") {
            Some(epochs) if epochs >= 1.0 => {}
            _ => failures.push(
                "reconfigure: the live transcode probe applied no reconfiguration, \
                 so it measured no pause"
                    .to_string(),
            ),
        }
    }
    if report.get("partial_reconfig_pause").is_some() {
        match (
            metric(report, "partial_reconfig_pause", "partial_pause_ms"),
            metric(report, "partial_reconfig_pause", "full_pause_ms"),
        ) {
            (Some(partial), Some(full)) if partial > 0.0 => {
                let ratio = full / partial;
                if ratio < 4.0 {
                    failures.push(format!(
                        "partial_reconfig_pause: partial pause {partial:.2} ms is only \
                         {ratio:.1}x better than the full drain's {full:.2} ms \
                         (the delta path must pause at least 4x less)"
                    ));
                }
            }
            _ => failures.push(
                "report is missing or zeroed partial_reconfig_pause.partial_pause_ms / \
                 partial_reconfig_pause.full_pause_ms"
                    .to_string(),
            ),
        }
    }
    if report.get("overload").is_some() {
        match (
            metric(report, "overload", "open_p99_secs"),
            metric(report, "overload", "shed_p99_secs"),
        ) {
            (Some(open), Some(shed)) if shed > 0.0 => {
                let ratio = open / shed;
                if ratio < crate::overload::P99_RATIO_FLOOR {
                    failures.push(format!(
                        "overload: shed p99 {shed:.2} s is only {ratio:.1}x under the \
                         open queue's {open:.2} s (the gate must bound admitted-request \
                         latency at least {:.0}x below open admission)",
                        crate::overload::P99_RATIO_FLOOR
                    ));
                }
            }
            _ => failures.push(
                "report is missing or zeroed overload.open_p99_secs / overload.shed_p99_secs"
                    .to_string(),
            ),
        }
        match (
            metric(report, "overload", "saturation_throughput"),
            metric(report, "overload", "shed_goodput_throughput"),
        ) {
            (Some(saturation), Some(goodput)) if saturation > 0.0 => {
                let fraction = goodput / saturation;
                if fraction < crate::overload::GOODPUT_FLOOR {
                    failures.push(format!(
                        "overload: shed goodput {goodput:.2}/s is only {:.0} % of the \
                         saturation throughput {saturation:.2}/s (must hold >= {:.0} %)",
                        fraction * 100.0,
                        crate::overload::GOODPUT_FLOOR * 100.0
                    ));
                }
            }
            _ => failures.push(
                "report is missing or zeroed overload.saturation_throughput / \
                 overload.shed_goodput_throughput"
                    .to_string(),
            ),
        }
        match metric(report, "overload", "block_lost") {
            Some(lost) => {
                if lost != 0.0 {
                    failures.push(format!(
                        "overload: Block admission lost {lost:.0} request(s) — closed-loop \
                         backpressure must complete every offer"
                    ));
                }
            }
            None => failures.push("report is missing overload.block_lost".to_string()),
        }
    }
    failures
}

/// The (section, key) pairs [`compare`] diffs; for each, larger is
/// worse.
pub const COMPARED_METRICS: &[(&str, &str)] = &[
    ("record_path", "sharded_single_ns"),
    ("record_path", "sharded_contended_ns"),
    ("snapshot", "snapshot_micros"),
    ("reconfigure", "mean_pause_ms"),
    ("partial_reconfig_pause", "full_pause_ms"),
    ("overload", "shed_p99_secs"),
    ("fig11", "wall_secs"),
];

/// Configuration keys per section: a section is only comparable when
/// every one of these matches between the two reports (a 200-request
/// sweep is not slower than a 500-request one just because it ran
/// longer).
const SECTION_CONFIG: &[(&str, &[&str])] = &[
    ("record_path", &["iters_per_thread", "threads"]),
    ("snapshot", &["paths", "records_per_path"]),
    ("reconfigure", &["videos"]),
    (
        "partial_reconfig_pause",
        &["paths", "fine_items", "coarse_items"],
    ),
    (
        "overload",
        &["requests", "load_factor", "high_water", "capacity"],
    ),
    ("fig11", &["loads", "requests", "apps"]),
];

fn config_matches(current: &Value, baseline: &Value, section: &str) -> bool {
    let keys = SECTION_CONFIG
        .iter()
        .find(|(s, _)| *s == section)
        .map_or(&[][..], |(_, keys)| keys);
    keys.iter().all(|key| {
        metric(current, section, key).map(f64::to_bits)
            == metric(baseline, section, key).map(f64::to_bits)
    })
}

/// Diffs `current` against `baseline`: any [`COMPARED_METRICS`] entry
/// that grew by more than `threshold` (fractional, e.g. 0.75 = +75 %)
/// is a regression. Metrics absent or zero on either side are skipped —
/// a missing probe is a schema problem, not a perf regression — as are
/// sections whose run configuration (iteration counts, request counts)
/// differs between the two reports. Returns regression messages (empty
/// = pass).
#[must_use]
pub fn compare(current: &Value, baseline: &Value, threshold: f64) -> Vec<String> {
    let mut regressions = Vec::new();
    for &(section, key) in COMPARED_METRICS {
        if !config_matches(current, baseline, section) {
            continue;
        }
        let (Some(cur), Some(base)) = (
            metric(current, section, key),
            metric(baseline, section, key),
        ) else {
            continue;
        };
        if base <= 0.0 || cur <= 0.0 {
            continue;
        }
        let growth = cur / base - 1.0;
        if growth > threshold {
            regressions.push(format!(
                "{section}.{key}: {cur:.1} vs baseline {base:.1} \
                 (+{:.0} %, threshold +{:.0} %)",
                growth * 100.0,
                threshold * 100.0
            ));
        }
    }
    regressions
}

/// Renders the report as a short human-readable summary.
#[must_use]
pub fn summary(report: &Value) -> String {
    let mut out = String::from("== perf gate ==\n");
    for &(section, key) in &[
        ("record_path", "sharded_single_ns"),
        ("record_path", "sharded_contended_ns"),
        ("record_path", "mutex_single_ns"),
        ("record_path", "mutex_contended_ns"),
        ("snapshot", "snapshot_micros"),
        ("reconfigure", "mean_pause_ms"),
        ("reconfigure", "mean_relaunch_ms"),
        ("partial_reconfig_pause", "partial_pause_ms"),
        ("partial_reconfig_pause", "full_pause_ms"),
        ("partial_reconfig_pause", "pause_ratio"),
        ("overload", "saturation_throughput"),
        ("overload", "open_p99_secs"),
        ("overload", "shed_p99_secs"),
        ("overload", "shed_goodput_throughput"),
        ("overload", "shed_fraction"),
        ("fig11", "wall_secs"),
    ] {
        if let Some(v) = metric(report, section, key) {
            out.push_str(&format!("{section:>12}.{key:<22} {v:>12.2}\n"));
        }
    }
    out
}

/// Round-trips the report through the strict JSON codec, panicking on
/// any asymmetry — run before every write so a malformed report can
/// never become the checked-in baseline.
#[must_use]
pub fn to_validated_json(report: &Value) -> String {
    let text = report.to_json();
    let reparsed = parse(&text).expect("perf report must round-trip the strict codec");
    assert_eq!(&reparsed, report, "perf report JSON round-trip drifted");
    text + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report(sharded: f64, mutex: f64, snap: f64) -> Value {
        obj(vec![
            ("schema", Value::String(SCHEMA.to_string())),
            (
                "record_path",
                obj(vec![
                    ("sharded_single_ns", Value::from_f64(sharded)),
                    ("sharded_contended_ns", Value::from_f64(sharded * 1.1)),
                    ("mutex_single_ns", Value::from_f64(mutex)),
                    ("mutex_contended_ns", Value::from_f64(mutex * 4.0)),
                ]),
            ),
            (
                "snapshot",
                obj(vec![("snapshot_micros", Value::from_f64(snap))]),
            ),
        ])
    }

    #[test]
    fn gate_accepts_sharded_wins_and_rejects_losses() {
        assert!(gate_failures(&tiny_report(12.0, 150.0, 80.0)).is_empty());
        // sharded 700/770 ns vs mutex 150/600 ns: both comparisons lose.
        let failures = gate_failures(&tiny_report(700.0, 150.0, 80.0));
        assert_eq!(failures.len(), 2, "{failures:?}");
    }

    #[test]
    fn compare_flags_only_gross_growth() {
        let base = tiny_report(10.0, 150.0, 100.0);
        let same = tiny_report(11.0, 150.0, 110.0);
        assert!(compare(&same, &base, 0.5).is_empty());
        let slow = tiny_report(40.0, 150.0, 400.0);
        let regressions = compare(&slow, &base, 0.5);
        assert_eq!(regressions.len(), 3, "{regressions:?}");
        // Missing sections in the baseline are skipped, not errors.
        let sparse = obj(vec![("schema", Value::String(SCHEMA.to_string()))]);
        assert!(compare(&slow, &sparse, 0.5).is_empty());
    }

    #[test]
    fn gate_enforces_the_partial_pause_ratio() {
        let with_ratio = |partial: f64, full: f64| {
            obj(vec![
                ("schema", Value::String(SCHEMA.to_string())),
                (
                    "record_path",
                    obj(vec![
                        ("sharded_single_ns", Value::from_f64(12.0)),
                        ("sharded_contended_ns", Value::from_f64(14.0)),
                        ("mutex_single_ns", Value::from_f64(150.0)),
                        ("mutex_contended_ns", Value::from_f64(600.0)),
                    ]),
                ),
                (
                    "partial_reconfig_pause",
                    obj(vec![
                        ("partial_pause_ms", Value::from_f64(partial)),
                        ("full_pause_ms", Value::from_f64(full)),
                    ]),
                ),
            ])
        };
        assert!(gate_failures(&with_ratio(2.0, 20.0)).is_empty());
        let weak = gate_failures(&with_ratio(8.0, 20.0));
        assert_eq!(weak.len(), 1, "{weak:?}");
        // A probe that never saw a reconfiguration is a failure, not a pass.
        let empty = gate_failures(&with_ratio(0.0, 20.0));
        assert_eq!(empty.len(), 1, "{empty:?}");
        // Reports without the section (pre-probe baselines) are not judged.
        assert!(gate_failures(&tiny_report(12.0, 150.0, 80.0)).is_empty());
    }

    #[test]
    fn gate_requires_a_reconfiguration_epoch() {
        let with_epochs = |epochs: u64| {
            let mut report = tiny_report(12.0, 150.0, 80.0);
            if let Value::Object(fields) = &mut report {
                fields.push((
                    "reconfigure".to_string(),
                    obj(vec![("epochs", Value::Number(epochs))]),
                ));
            }
            report
        };
        assert!(gate_failures(&with_epochs(1)).is_empty());
        let none = gate_failures(&with_epochs(0));
        assert_eq!(none.len(), 1, "{none:?}");
    }

    #[test]
    fn gate_enforces_the_overload_frontier() {
        let with_overload = |shed_p99: f64, goodput: f64, lost: f64| {
            obj(vec![
                ("schema", Value::String(SCHEMA.to_string())),
                (
                    "record_path",
                    obj(vec![
                        ("sharded_single_ns", Value::from_f64(12.0)),
                        ("sharded_contended_ns", Value::from_f64(14.0)),
                        ("mutex_single_ns", Value::from_f64(150.0)),
                        ("mutex_contended_ns", Value::from_f64(600.0)),
                    ]),
                ),
                (
                    "overload",
                    obj(vec![
                        ("open_p99_secs", Value::from_f64(40.0)),
                        ("shed_p99_secs", Value::from_f64(shed_p99)),
                        ("saturation_throughput", Value::from_f64(10.0)),
                        ("shed_goodput_throughput", Value::from_f64(goodput)),
                        ("block_lost", Value::from_f64(lost)),
                    ]),
                ),
            ])
        };
        // Bounded p99, healthy goodput, lossless block: pass.
        assert!(gate_failures(&with_overload(2.0, 9.5, 0.0)).is_empty());
        // p99 only 2x under open: the latency bound fails.
        assert_eq!(gate_failures(&with_overload(20.0, 9.5, 0.0)).len(), 1);
        // Goodput collapsed to 50 % of saturation: the goodput floor fails.
        assert_eq!(gate_failures(&with_overload(2.0, 5.0, 0.0)).len(), 1);
        // Block lost requests: closed-loop backpressure is broken.
        assert_eq!(gate_failures(&with_overload(2.0, 9.5, 3.0)).len(), 1);
    }

    #[test]
    fn compare_skips_sections_with_mismatched_config() {
        let snap = |records: u64, micros: f64| {
            obj(vec![(
                "snapshot",
                obj(vec![
                    ("paths", Value::Number(8)),
                    ("records_per_path", Value::Number(records)),
                    ("snapshot_micros", Value::from_f64(micros)),
                ]),
            )])
        };
        // 10x slower but over 10x the records: not comparable, skipped.
        assert!(compare(&snap(200_000, 150.0), &snap(20_000, 15.0), 0.5).is_empty());
        // Same config, 10x slower: flagged.
        assert_eq!(
            compare(&snap(20_000, 150.0), &snap(20_000, 15.0), 0.5).len(),
            1
        );
    }

    #[test]
    fn report_round_trips_the_strict_codec() {
        let report = tiny_report(10.0, 150.0, 100.0);
        let text = to_validated_json(&report);
        assert_eq!(parse(text.trim()).expect("parse"), report);
        assert!(summary(&report).contains("sharded_single_ns"));
    }
}

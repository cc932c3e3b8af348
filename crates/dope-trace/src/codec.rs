//! The strict JSONL codec for traces.
//!
//! Every [`TraceRecord`] serializes to one line of JSON with the shape
//! `{"v": 1, "seq": N, "t": SECS, "kind": "...", ...}` — see
//! `docs/event-schema.md` for the field-by-field contract. Encoding and
//! parsing are built on [`dope_core::json`], the same hand-rolled strict
//! codec the `dope-verify` CLI uses (the vendored `serde` is a no-op
//! shim), so traces parse with byte-offset errors and round-trip
//! losslessly.
//!
//! # Example
//!
//! ```
//! use dope_trace::codec::{parse_line, to_jsonl_line};
//! use dope_trace::{TraceEvent, TraceRecord};
//!
//! let record = TraceRecord {
//!     seq: 7,
//!     time_secs: 1.5,
//!     event: TraceEvent::FeatureRead {
//!         feature: "SystemPower".to_string(),
//!         value: 612.5,
//!     },
//! };
//! let line = to_jsonl_line(&record);
//! assert_eq!(
//!     line,
//!     r#"{"v": 1, "seq": 7, "t": 1.5, "kind": "FeatureRead", "feature": "SystemPower", "value": 612.5}"#
//! );
//! assert_eq!(parse_line(&line).unwrap(), record);
//! ```

use crate::event::{TraceEvent, TraceRecord, SCHEMA_VERSION};
use dope_core::json::{
    config_from_value, config_to_value, parse, shape_from_value, shape_to_value, JsonError, Value,
};
use dope_core::{
    AdmissionStats, DecisionCandidate, DiagCode, MonitorSnapshot, QueueStats, Rationale, TaskPath,
    TaskStats, Verdict,
};

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn queue_to_value(queue: &QueueStats) -> Value {
    Value::Object(vec![
        ("occupancy".to_string(), Value::from_f64(queue.occupancy)),
        (
            "arrival_rate".to_string(),
            Value::from_f64(queue.arrival_rate),
        ),
        ("enqueued".to_string(), Value::Number(queue.enqueued)),
        ("completed".to_string(), Value::Number(queue.completed)),
    ])
}

fn task_stats_fields(stats: &TaskStats) -> Vec<(String, Value)> {
    vec![
        ("invocations".to_string(), Value::Number(stats.invocations)),
        (
            "mean_exec_secs".to_string(),
            Value::from_f64(stats.mean_exec_secs),
        ),
        ("throughput".to_string(), Value::from_f64(stats.throughput)),
        ("load".to_string(), Value::from_f64(stats.load)),
        (
            "utilization".to_string(),
            Value::from_f64(stats.utilization),
        ),
        // Additive since the metrics plane landed; readers of older
        // traces default these to 0.0 ("not measured"), so the schema
        // version stays 1.
        (
            "p50_exec_secs".to_string(),
            Value::from_f64(stats.p50_exec_secs),
        ),
        (
            "p95_exec_secs".to_string(),
            Value::from_f64(stats.p95_exec_secs),
        ),
        (
            "p99_exec_secs".to_string(),
            Value::from_f64(stats.p99_exec_secs),
        ),
    ]
}

fn admission_to_value(admission: &AdmissionStats) -> Value {
    Value::Object(vec![
        ("offered".to_string(), Value::Number(admission.offered)),
        ("admitted".to_string(), Value::Number(admission.admitted)),
        (
            "shed_high_water".to_string(),
            Value::Number(admission.shed_high_water),
        ),
        (
            "shed_deadline".to_string(),
            Value::Number(admission.shed_deadline),
        ),
        (
            "mean_queue_delay_secs".to_string(),
            Value::from_f64(admission.mean_queue_delay_secs),
        ),
    ])
}

fn snapshot_to_value(snap: &MonitorSnapshot) -> Value {
    let tasks = snap
        .tasks
        .iter()
        .map(|(path, stats)| {
            let mut fields = vec![("path".to_string(), Value::String(path.to_string()))];
            fields.extend(task_stats_fields(stats));
            Value::Object(fields)
        })
        .collect();
    Value::Object(vec![
        ("time_secs".to_string(), Value::from_f64(snap.time_secs)),
        ("tasks".to_string(), Value::Array(tasks)),
        ("queue".to_string(), queue_to_value(&snap.queue)),
        (
            "power_watts".to_string(),
            snap.power_watts.map_or(Value::Null, Value::from_f64),
        ),
        (
            "dispatches_since_reconfig".to_string(),
            Value::Number(snap.dispatches_since_reconfig),
        ),
        // Additive since the admission gate landed; readers of older
        // traces default the whole object to all-zero ("no gate").
        ("admission".to_string(), admission_to_value(&snap.admission)),
    ])
}

/// Encodes a record as a JSON [`Value`] (one object per line).
#[must_use]
pub fn record_to_value(record: &TraceRecord) -> Value {
    let mut fields = vec![
        ("v".to_string(), Value::Number(SCHEMA_VERSION)),
        ("seq".to_string(), Value::Number(record.seq)),
        ("t".to_string(), Value::from_f64(record.time_secs)),
        (
            "kind".to_string(),
            Value::String(record.event.kind().to_string()),
        ),
    ];
    match &record.event {
        TraceEvent::Launched {
            mechanism,
            goal,
            threads,
            shape,
            config,
        } => {
            fields.push(("mechanism".to_string(), Value::String(mechanism.clone())));
            fields.push(("goal".to_string(), Value::String(goal.clone())));
            fields.push(("threads".to_string(), Value::Number(u64::from(*threads))));
            fields.push(("shape".to_string(), shape_to_value(shape)));
            fields.push(("config".to_string(), config_to_value(config)));
        }
        TraceEvent::SnapshotTaken { snapshot } => {
            fields.push(("snapshot".to_string(), snapshot_to_value(snapshot)));
        }
        TraceEvent::TaskStatsSample { path, stats } => {
            fields.push(("path".to_string(), Value::String(path.to_string())));
            fields.push(("stats".to_string(), Value::Object(task_stats_fields(stats))));
        }
        TraceEvent::ProposalEvaluated {
            mechanism,
            proposal,
            verdict,
        } => {
            fields.push(("mechanism".to_string(), Value::String(mechanism.clone())));
            fields.push(("proposal".to_string(), config_to_value(proposal)));
            let (verdict_str, code) = match verdict {
                Verdict::Accepted => ("accepted", None),
                Verdict::Unchanged => ("unchanged", None),
                Verdict::Rejected { code } => ("rejected", Some(*code)),
                Verdict::Superseded => ("superseded", None),
            };
            fields.push((
                "verdict".to_string(),
                Value::String(verdict_str.to_string()),
            ));
            if let Some(code) = code {
                fields.push(("code".to_string(), Value::String(code.as_str().to_string())));
            }
        }
        TraceEvent::ReconfigureEpoch {
            pause_secs,
            relaunch_secs,
            jobs,
            config,
            scope,
            paths_drained,
        } => {
            fields.push(("pause_secs".to_string(), Value::from_f64(*pause_secs)));
            fields.push(("relaunch_secs".to_string(), Value::from_f64(*relaunch_secs)));
            fields.push(("jobs".to_string(), Value::Number(*jobs)));
            fields.push(("config".to_string(), config_to_value(config)));
            fields.push(("scope".to_string(), Value::String(scope.clone())));
            fields.push(("paths_drained".to_string(), Value::Number(*paths_drained)));
        }
        TraceEvent::FeatureRead { feature, value } => {
            fields.push(("feature".to_string(), Value::String(feature.clone())));
            fields.push(("value".to_string(), Value::from_f64(*value)));
        }
        TraceEvent::QueueSample { queue } => {
            fields.push(("queue".to_string(), queue_to_value(queue)));
        }
        TraceEvent::TaskFailed {
            path,
            reason,
            policy,
        } => {
            fields.push(("path".to_string(), Value::String(path.to_string())));
            fields.push(("reason".to_string(), Value::String(reason.clone())));
            fields.push(("policy".to_string(), Value::String(policy.clone())));
        }
        TraceEvent::DecisionTraced {
            mechanism,
            rationale,
            observed,
            candidates,
            chosen,
            predicted_throughput,
            realized_throughput,
            prediction_error,
        } => {
            fields.push(("mechanism".to_string(), Value::String(mechanism.clone())));
            fields.push((
                "rationale".to_string(),
                Value::String(rationale.code().to_string()),
            ));
            fields.push((
                "observed".to_string(),
                Value::Array(
                    observed
                        .iter()
                        .map(|(signal, value)| {
                            Value::Object(vec![
                                ("signal".to_string(), Value::String(signal.clone())),
                                ("value".to_string(), Value::from_f64(*value)),
                            ])
                        })
                        .collect(),
                ),
            ));
            fields.push((
                "candidates".to_string(),
                Value::Array(
                    candidates
                        .iter()
                        .map(|c| {
                            Value::Object(vec![
                                ("action".to_string(), Value::String(c.action.clone())),
                                ("score".to_string(), Value::from_f64(c.score)),
                                (
                                    "predicted_throughput".to_string(),
                                    c.predicted_throughput.map_or(Value::Null, Value::from_f64),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ));
            fields.push(("chosen".to_string(), Value::String(chosen.clone())));
            fields.push((
                "predicted_throughput".to_string(),
                predicted_throughput.map_or(Value::Null, Value::from_f64),
            ));
            fields.push((
                "realized_throughput".to_string(),
                realized_throughput.map_or(Value::Null, Value::from_f64),
            ));
            fields.push((
                "prediction_error".to_string(),
                prediction_error.map_or(Value::Null, Value::from_f64),
            ));
        }
        TraceEvent::AdmissionDecision {
            policy,
            verdict,
            reason,
            queue_delay_secs,
            offered,
            admitted,
            shed,
        } => {
            fields.push(("policy".to_string(), Value::String(policy.clone())));
            fields.push(("verdict".to_string(), Value::String(verdict.clone())));
            fields.push(("reason".to_string(), Value::String(reason.clone())));
            fields.push((
                "queue_delay_secs".to_string(),
                Value::from_f64(*queue_delay_secs),
            ));
            fields.push(("offered".to_string(), Value::Number(*offered)));
            fields.push(("admitted".to_string(), Value::Number(*admitted)));
            fields.push(("shed".to_string(), Value::Number(*shed)));
        }
        TraceEvent::Finished {
            completed,
            reconfigurations,
            dropped_events,
        } => {
            fields.push(("completed".to_string(), Value::Number(*completed)));
            fields.push((
                "reconfigurations".to_string(),
                Value::Number(*reconfigurations),
            ));
            fields.push(("dropped_events".to_string(), Value::Number(*dropped_events)));
        }
    }
    Value::Object(fields)
}

/// Renders a record as one JSONL line (no trailing newline).
#[must_use]
pub fn to_jsonl_line(record: &TraceRecord) -> String {
    record_to_value(record).to_json()
}

/// Renders a whole trace as JSONL, one record per line, newline-terminated.
#[must_use]
pub fn to_jsonl(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for record in records {
        out.push_str(&to_jsonl_line(record));
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

fn req<'a>(value: &'a Value, key: &str) -> Result<&'a Value, JsonError> {
    value
        .get(key)
        .ok_or_else(|| JsonError::decode(format!("trace record is missing `{key}`")))
}

fn req_u64(value: &Value, key: &str) -> Result<u64, JsonError> {
    req(value, key)?
        .as_u64()
        .ok_or_else(|| JsonError::decode(format!("`{key}` must be a non-negative integer")))
}

fn req_f64(value: &Value, key: &str) -> Result<f64, JsonError> {
    req(value, key)?
        .as_f64()
        .ok_or_else(|| JsonError::decode(format!("`{key}` must be a number")))
}

fn req_str<'a>(value: &'a Value, key: &str) -> Result<&'a str, JsonError> {
    req(value, key)?
        .as_str()
        .ok_or_else(|| JsonError::decode(format!("`{key}` must be a string")))
}

fn req_path(value: &Value, key: &str) -> Result<TaskPath, JsonError> {
    req_str(value, key)?
        .parse()
        .map_err(|_| JsonError::decode(format!("`{key}` is not a valid task path")))
}

fn queue_from_value(value: &Value) -> Result<QueueStats, JsonError> {
    Ok(QueueStats {
        occupancy: req_f64(value, "occupancy")?,
        arrival_rate: req_f64(value, "arrival_rate")?,
        enqueued: req_u64(value, "enqueued")?,
        completed: req_u64(value, "completed")?,
    })
}

/// Reads an *optional* numeric field: absent (old traces) or `null`
/// decodes as `default`; present-but-mistyped is still an error.
fn opt_f64(value: &Value, key: &str, default: f64) -> Result<f64, JsonError> {
    match value.get(key) {
        None | Some(Value::Null) => Ok(default),
        Some(v) => v
            .as_f64()
            .ok_or_else(|| JsonError::decode(format!("`{key}` must be a number or null"))),
    }
}

/// Reads an optional numeric field where absence is meaningful: absent or
/// `null` decodes as `None` ("not measured"); mistyped is an error.
fn opt_f64_or_none(value: &Value, key: &str) -> Result<Option<f64>, JsonError> {
    match value.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| JsonError::decode(format!("`{key}` must be a number or null"))),
    }
}

/// Reads an *optional* string field: absent or `null` (old traces)
/// decodes as `default`; present-but-mistyped is still an error.
fn opt_str(value: &Value, key: &str, default: &str) -> Result<String, JsonError> {
    match value.get(key) {
        None | Some(Value::Null) => Ok(default.to_string()),
        Some(v) => v
            .as_str()
            .map(ToString::to_string)
            .ok_or_else(|| JsonError::decode(format!("`{key}` must be a string or null"))),
    }
}

/// Reads an *optional* non-negative integer field: absent or `null`
/// (old traces) decodes as `default`; present-but-mistyped is still an
/// error.
fn opt_u64(value: &Value, key: &str, default: u64) -> Result<u64, JsonError> {
    match value.get(key) {
        None | Some(Value::Null) => Ok(default),
        Some(v) => v.as_u64().ok_or_else(|| {
            JsonError::decode(format!("`{key}` must be a non-negative integer or null"))
        }),
    }
}

fn task_stats_from_value(value: &Value) -> Result<TaskStats, JsonError> {
    Ok(TaskStats {
        invocations: req_u64(value, "invocations")?,
        mean_exec_secs: req_f64(value, "mean_exec_secs")?,
        throughput: req_f64(value, "throughput")?,
        load: req_f64(value, "load")?,
        utilization: req_f64(value, "utilization")?,
        // Additive v1 fields: traces written before the metrics plane
        // landed simply omit them, which decodes as "not measured".
        p50_exec_secs: opt_f64(value, "p50_exec_secs", 0.0)?,
        p95_exec_secs: opt_f64(value, "p95_exec_secs", 0.0)?,
        p99_exec_secs: opt_f64(value, "p99_exec_secs", 0.0)?,
    })
}

fn snapshot_from_value(value: &Value) -> Result<MonitorSnapshot, JsonError> {
    let mut snap = MonitorSnapshot::at(req_f64(value, "time_secs")?);
    let tasks = req(value, "tasks")?
        .as_array()
        .ok_or_else(|| JsonError::decode("snapshot `tasks` must be an array"))?;
    for task in tasks {
        snap.tasks
            .insert(req_path(task, "path")?, task_stats_from_value(task)?);
    }
    snap.queue = queue_from_value(req(value, "queue")?)?;
    snap.power_watts = match value.get("power_watts") {
        None | Some(Value::Null) => None,
        Some(v) => Some(
            v.as_f64()
                .ok_or_else(|| JsonError::decode("`power_watts` must be a number or null"))?,
        ),
    };
    snap.dispatches_since_reconfig = req_u64(value, "dispatches_since_reconfig")?;
    // Additive v1 object: absent or null (pre-admission traces) decodes
    // as all-zero; present-but-mistyped is still an error.
    snap.admission = match value.get("admission") {
        None | Some(Value::Null) => AdmissionStats::default(),
        Some(adm) => AdmissionStats {
            offered: req_u64(adm, "offered")?,
            admitted: req_u64(adm, "admitted")?,
            shed_high_water: req_u64(adm, "shed_high_water")?,
            shed_deadline: req_u64(adm, "shed_deadline")?,
            mean_queue_delay_secs: req_f64(adm, "mean_queue_delay_secs")?,
        },
    };
    Ok(snap)
}

fn verdict_from_value(value: &Value) -> Result<Verdict, JsonError> {
    match req_str(value, "verdict")? {
        "accepted" => Ok(Verdict::Accepted),
        "unchanged" => Ok(Verdict::Unchanged),
        "rejected" => {
            let code: DiagCode = req_str(value, "code")?
                .parse()
                .map_err(|_| JsonError::decode("`code` is not a catalogued DV code"))?;
            Ok(Verdict::Rejected { code })
        }
        "superseded" => Ok(Verdict::Superseded),
        other => Err(JsonError::decode(format!(
            "`verdict` must be \"accepted\", \"unchanged\", \"rejected\" or \"superseded\", \
             got {other:?}"
        ))),
    }
}

/// Decodes a record from a parsed JSON [`Value`].
///
/// # Errors
///
/// Returns a [`JsonError`] on unknown schema versions, unknown `kind`s,
/// or missing / mistyped fields.
pub fn record_from_value(value: &Value) -> Result<TraceRecord, JsonError> {
    let version = req_u64(value, "v")?;
    if version != SCHEMA_VERSION {
        return Err(JsonError::decode(format!(
            "unsupported trace schema version {version} (this build reads version {SCHEMA_VERSION})"
        )));
    }
    let seq = req_u64(value, "seq")?;
    let time_secs = req_f64(value, "t")?;
    let event = match req_str(value, "kind")? {
        "Launched" => TraceEvent::Launched {
            mechanism: req_str(value, "mechanism")?.to_string(),
            goal: req_str(value, "goal")?.to_string(),
            threads: u32::try_from(req_u64(value, "threads")?)
                .map_err(|_| JsonError::decode("`threads` does not fit in u32"))?,
            shape: shape_from_value(req(value, "shape")?)?,
            config: config_from_value(req(value, "config")?)?,
        },
        "SnapshotTaken" => TraceEvent::SnapshotTaken {
            snapshot: snapshot_from_value(req(value, "snapshot")?)?,
        },
        "TaskStatsSample" => TraceEvent::TaskStatsSample {
            path: req_path(value, "path")?,
            stats: task_stats_from_value(req(value, "stats")?)?,
        },
        "ProposalEvaluated" => TraceEvent::ProposalEvaluated {
            mechanism: req_str(value, "mechanism")?.to_string(),
            proposal: config_from_value(req(value, "proposal")?)?,
            verdict: verdict_from_value(value)?,
        },
        "ReconfigureEpoch" => TraceEvent::ReconfigureEpoch {
            pause_secs: req_f64(value, "pause_secs")?,
            relaunch_secs: req_f64(value, "relaunch_secs")?,
            jobs: req_u64(value, "jobs")?,
            config: config_from_value(req(value, "config")?)?,
            // Additive since delta reconfiguration landed: every
            // pre-delta epoch was a full drain, so absence decodes as
            // "full"; 0 drained paths means "not measured".
            scope: opt_str(value, "scope", "full")?,
            paths_drained: opt_u64(value, "paths_drained", 0)?,
        },
        "FeatureRead" => TraceEvent::FeatureRead {
            feature: req_str(value, "feature")?.to_string(),
            value: req_f64(value, "value")?,
        },
        "QueueSample" => TraceEvent::QueueSample {
            queue: queue_from_value(req(value, "queue")?)?,
        },
        "TaskFailed" => TraceEvent::TaskFailed {
            path: req_path(value, "path")?,
            reason: req_str(value, "reason")?.to_string(),
            policy: req_str(value, "policy")?.to_string(),
        },
        "DecisionTraced" => {
            let rationale_code = req_str(value, "rationale")?;
            let rationale = Rationale::from_code(rationale_code).ok_or_else(|| {
                JsonError::decode(format!(
                    "`rationale` {rationale_code:?} is not a catalogued rationale code"
                ))
            })?;
            let observed = req(value, "observed")?
                .as_array()
                .ok_or_else(|| JsonError::decode("`observed` must be an array"))?
                .iter()
                .map(|o| Ok((req_str(o, "signal")?.to_string(), req_f64(o, "value")?)))
                .collect::<Result<Vec<_>, JsonError>>()?;
            let candidates = req(value, "candidates")?
                .as_array()
                .ok_or_else(|| JsonError::decode("`candidates` must be an array"))?
                .iter()
                .map(|c| {
                    Ok(DecisionCandidate {
                        action: req_str(c, "action")?.to_string(),
                        score: req_f64(c, "score")?,
                        predicted_throughput: opt_f64_or_none(c, "predicted_throughput")?,
                    })
                })
                .collect::<Result<Vec<_>, JsonError>>()?;
            TraceEvent::DecisionTraced {
                mechanism: req_str(value, "mechanism")?.to_string(),
                rationale,
                observed,
                candidates,
                chosen: req_str(value, "chosen")?.to_string(),
                predicted_throughput: opt_f64_or_none(value, "predicted_throughput")?,
                realized_throughput: opt_f64_or_none(value, "realized_throughput")?,
                prediction_error: opt_f64_or_none(value, "prediction_error")?,
            }
        }
        "AdmissionDecision" => TraceEvent::AdmissionDecision {
            policy: req_str(value, "policy")?.to_string(),
            verdict: req_str(value, "verdict")?.to_string(),
            reason: req_str(value, "reason")?.to_string(),
            queue_delay_secs: req_f64(value, "queue_delay_secs")?,
            offered: req_u64(value, "offered")?,
            admitted: req_u64(value, "admitted")?,
            shed: req_u64(value, "shed")?,
        },
        "Finished" => TraceEvent::Finished {
            completed: req_u64(value, "completed")?,
            reconfigurations: req_u64(value, "reconfigurations")?,
            dropped_events: req_u64(value, "dropped_events")?,
        },
        other => {
            return Err(JsonError::decode(format!(
                "unknown trace event kind {other:?}"
            )))
        }
    };
    Ok(TraceRecord {
        seq,
        time_secs,
        event,
    })
}

/// Parses one JSONL line.
///
/// # Errors
///
/// Returns a [`JsonError`] on malformed JSON or schema violations.
pub fn parse_line(line: &str) -> Result<TraceRecord, JsonError> {
    record_from_value(&parse(line)?)
}

/// Parses a whole JSONL trace; blank lines are skipped.
///
/// # Errors
///
/// Returns the first [`JsonError`], annotated with the 1-based line
/// number.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceRecord>, JsonError> {
    let mut records = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        records.push(
            parse_line(line)
                .map_err(|err| JsonError::decode(format!("line {}: {err}", lineno + 1)))?,
        );
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dope_core::{Config, ProgramShape, ShapeNode, TaskConfig, TaskKind};

    fn sample_config() -> Config {
        Config::new(vec![TaskConfig::nest(
            "transcode",
            2,
            0,
            vec![
                TaskConfig::leaf("read", 1),
                TaskConfig::leaf("work", 2),
                TaskConfig::leaf("write", 1),
            ],
        )])
    }

    fn sample_shape() -> ProgramShape {
        ProgramShape::new(vec![ShapeNode::nest(
            "transcode",
            TaskKind::Par,
            vec![
                ShapeNode::leaf("read", TaskKind::Seq),
                ShapeNode::leaf("work", TaskKind::Par).with_max_extent(8),
                ShapeNode::leaf("write", TaskKind::Seq),
            ],
        )])
    }

    fn sample_snapshot() -> MonitorSnapshot {
        let mut snap = MonitorSnapshot::at(1.25);
        snap.tasks.insert(
            "0.1".parse().unwrap(),
            TaskStats {
                invocations: 42,
                mean_exec_secs: 0.0125,
                throughput: 33.5,
                load: 4.0,
                utilization: 0.875,
                p50_exec_secs: 0.011,
                p95_exec_secs: 0.02,
                p99_exec_secs: 0.045,
            },
        );
        snap.queue = QueueStats {
            occupancy: 3.0,
            arrival_rate: 2.5,
            enqueued: 50,
            completed: 47,
        };
        snap.power_watts = Some(612.5);
        snap.dispatches_since_reconfig = 9;
        snap.admission = AdmissionStats {
            offered: 64,
            admitted: 50,
            shed_high_water: 12,
            shed_deadline: 2,
            mean_queue_delay_secs: 0.035,
        };
        snap
    }

    fn all_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Launched {
                mechanism: "WQ-Linear".to_string(),
                goal: "MinResponseTime(4 threads)".to_string(),
                threads: 4,
                shape: sample_shape(),
                config: sample_config(),
            },
            TraceEvent::SnapshotTaken {
                snapshot: sample_snapshot(),
            },
            TraceEvent::TaskStatsSample {
                path: "0.1".parse().unwrap(),
                stats: TaskStats {
                    invocations: 7,
                    mean_exec_secs: 0.5,
                    throughput: 14.0,
                    load: 0.0,
                    utilization: 1.0,
                    p50_exec_secs: 0.4,
                    p95_exec_secs: 0.9,
                    p99_exec_secs: 1.2,
                },
            },
            TraceEvent::ProposalEvaluated {
                mechanism: "WQ-Linear".to_string(),
                proposal: sample_config(),
                verdict: Verdict::Accepted,
            },
            TraceEvent::ProposalEvaluated {
                mechanism: "TBF".to_string(),
                proposal: sample_config(),
                verdict: Verdict::Rejected {
                    code: DiagCode::BudgetExceeded,
                },
            },
            TraceEvent::ProposalEvaluated {
                mechanism: "WQT-H".to_string(),
                proposal: sample_config(),
                verdict: Verdict::Superseded,
            },
            TraceEvent::ReconfigureEpoch {
                pause_secs: 0.00125,
                relaunch_secs: 0.0005,
                jobs: 6,
                config: sample_config(),
                scope: "full".to_string(),
                paths_drained: 5,
            },
            TraceEvent::ReconfigureEpoch {
                pause_secs: 0.0002,
                relaunch_secs: 0.0001,
                jobs: 7,
                config: sample_config(),
                scope: "partial".to_string(),
                paths_drained: 1,
            },
            TraceEvent::FeatureRead {
                feature: "SystemPower".to_string(),
                value: 612.5,
            },
            TraceEvent::QueueSample {
                queue: QueueStats {
                    occupancy: 12.0,
                    arrival_rate: 3.25,
                    enqueued: 60,
                    completed: 48,
                },
            },
            TraceEvent::TaskFailed {
                path: "0.1".parse().unwrap(),
                reason: "index out of bounds: the len is 4 but the index is 7".to_string(),
                policy: "restart".to_string(),
            },
            TraceEvent::DecisionTraced {
                mechanism: "WQ-Linear".to_string(),
                rationale: Rationale::OccupancyLinear,
                observed: vec![
                    ("queue_occupancy".to_string(), 3.0),
                    ("current_width".to_string(), 4.0),
                ],
                candidates: vec![
                    DecisionCandidate {
                        action: "width=4".to_string(),
                        score: -2.0,
                        predicted_throughput: Some(33.5),
                    },
                    DecisionCandidate {
                        action: "width=6".to_string(),
                        score: 0.0,
                        predicted_throughput: Some(50.25),
                    },
                ],
                chosen: "width=6".to_string(),
                predicted_throughput: Some(50.25),
                realized_throughput: Some(48.0),
                prediction_error: Some((50.25 - 48.0) / 48.0),
            },
            TraceEvent::DecisionTraced {
                mechanism: "TBF".to_string(),
                rationale: Rationale::Hold,
                observed: vec![],
                candidates: vec![],
                chosen: "hold".to_string(),
                predicted_throughput: None,
                realized_throughput: None,
                prediction_error: None,
            },
            TraceEvent::AdmissionDecision {
                policy: "shed".to_string(),
                verdict: "shed".to_string(),
                reason: "high_water".to_string(),
                queue_delay_secs: 0.035,
                offered: 64,
                admitted: 50,
                shed: 14,
            },
            TraceEvent::AdmissionDecision {
                policy: "block".to_string(),
                verdict: "admitted".to_string(),
                reason: "none".to_string(),
                queue_delay_secs: 0.002,
                offered: 10,
                admitted: 10,
                shed: 0,
            },
            TraceEvent::Finished {
                completed: 48,
                reconfigurations: 2,
                dropped_events: 0,
            },
        ]
    }

    #[test]
    fn every_event_kind_round_trips() {
        for (seq, event) in all_events().into_iter().enumerate() {
            let record = TraceRecord {
                seq: seq as u64,
                time_secs: seq as f64 * 0.25,
                event,
            };
            let line = to_jsonl_line(&record);
            let back = parse_line(&line).unwrap();
            assert_eq!(back, record, "{line}");
        }
    }

    #[test]
    fn jsonl_round_trips_with_blank_lines() {
        let records: Vec<TraceRecord> = all_events()
            .into_iter()
            .enumerate()
            .map(|(seq, event)| TraceRecord {
                seq: seq as u64,
                time_secs: 0.5,
                event,
            })
            .collect();
        let mut text = to_jsonl(&records);
        text.push('\n'); // extra blank line
        assert_eq!(parse_jsonl(&text).unwrap(), records);
    }

    #[test]
    fn old_traces_without_percentile_fields_still_parse() {
        // A pre-metrics v1 line: `stats` carries only the original five
        // fields. The additive `p*_exec_secs` must default to 0.0.
        let line = r#"{"v": 1, "seq": 3, "t": 0.5, "kind": "TaskStatsSample", "path": "0.1", "stats": {"invocations": 9, "mean_exec_secs": 0.02, "throughput": 45.0, "load": 1.0, "utilization": 0.9}}"#;
        let record = parse_line(line).unwrap();
        let TraceEvent::TaskStatsSample { stats, .. } = record.event else {
            panic!("wrong kind");
        };
        assert_eq!(stats.invocations, 9);
        assert_eq!(stats.p50_exec_secs, 0.0);
        assert_eq!(stats.p95_exec_secs, 0.0);
        assert_eq!(stats.p99_exec_secs, 0.0);

        // Explicit null is also accepted (producers that know the field
        // but did not measure).
        let line = r#"{"v": 1, "seq": 4, "t": 0.5, "kind": "TaskStatsSample", "path": "0.1", "stats": {"invocations": 1, "mean_exec_secs": 0.02, "throughput": 45.0, "load": 1.0, "utilization": 0.9, "p99_exec_secs": null}}"#;
        let record = parse_line(line).unwrap();
        let TraceEvent::TaskStatsSample { stats, .. } = record.event else {
            panic!("wrong kind");
        };
        assert_eq!(stats.p99_exec_secs, 0.0);

        // Present-but-mistyped still errors: additive, not lax.
        let line = r#"{"v": 1, "seq": 5, "t": 0.5, "kind": "TaskStatsSample", "path": "0.1", "stats": {"invocations": 1, "mean_exec_secs": 0.02, "throughput": 45.0, "load": 1.0, "utilization": 0.9, "p99_exec_secs": "fast"}}"#;
        assert!(parse_line(line).is_err());
    }

    #[test]
    fn old_traces_without_reconfigure_scope_still_parse() {
        // A pre-delta v1 line: no `scope` / `paths_drained`. They must
        // decode to "full" / 0 — every old epoch was a full drain.
        let line = r#"{"v": 1, "seq": 5, "t": 0.5, "kind": "ReconfigureEpoch", "pause_secs": 0.004, "relaunch_secs": 0.001, "jobs": 4, "config": {"tasks": [{"name": "t", "extent": 1}]}}"#;
        let record = parse_line(line).unwrap();
        let TraceEvent::ReconfigureEpoch {
            scope,
            paths_drained,
            ..
        } = record.event
        else {
            panic!("wrong kind");
        };
        assert_eq!(scope, "full");
        assert_eq!(paths_drained, 0);

        // Explicit null is also accepted.
        let line = r#"{"v": 1, "seq": 6, "t": 0.5, "kind": "ReconfigureEpoch", "pause_secs": 0.004, "relaunch_secs": 0.001, "jobs": 4, "config": {"tasks": [{"name": "t", "extent": 1}]}, "scope": null, "paths_drained": null}"#;
        let record = parse_line(line).unwrap();
        let TraceEvent::ReconfigureEpoch { scope, .. } = record.event else {
            panic!("wrong kind");
        };
        assert_eq!(scope, "full");

        // Present-but-mistyped still errors: additive, not lax.
        let line = r#"{"v": 1, "seq": 7, "t": 0.5, "kind": "ReconfigureEpoch", "pause_secs": 0.004, "relaunch_secs": 0.001, "jobs": 4, "config": {"tasks": [{"name": "t", "extent": 1}]}, "scope": 3}"#;
        assert!(parse_line(line).is_err());
        let line = r#"{"v": 1, "seq": 8, "t": 0.5, "kind": "ReconfigureEpoch", "pause_secs": 0.004, "relaunch_secs": 0.001, "jobs": 4, "config": {"tasks": [{"name": "t", "extent": 1}]}, "paths_drained": "one"}"#;
        assert!(parse_line(line).is_err());
    }

    #[test]
    fn old_snapshots_without_admission_still_parse() {
        // A pre-admission v1 snapshot: no `admission` object. It must
        // decode as all-zero — exactly what "no gate installed" means.
        let line = r#"{"v": 1, "seq": 1, "t": 0.5, "kind": "SnapshotTaken", "snapshot": {"time_secs": 0.5, "tasks": [], "queue": {"occupancy": 0.0, "arrival_rate": 0.0, "enqueued": 0, "completed": 0}, "power_watts": null, "dispatches_since_reconfig": 0}}"#;
        let record = parse_line(line).unwrap();
        let TraceEvent::SnapshotTaken { snapshot } = record.event else {
            panic!("wrong kind");
        };
        assert_eq!(snapshot.admission, AdmissionStats::default());

        // Explicit null is also accepted.
        let line = r#"{"v": 1, "seq": 2, "t": 0.5, "kind": "SnapshotTaken", "snapshot": {"time_secs": 0.5, "tasks": [], "queue": {"occupancy": 0.0, "arrival_rate": 0.0, "enqueued": 0, "completed": 0}, "power_watts": null, "dispatches_since_reconfig": 0, "admission": null}}"#;
        let record = parse_line(line).unwrap();
        let TraceEvent::SnapshotTaken { snapshot } = record.event else {
            panic!("wrong kind");
        };
        assert_eq!(snapshot.admission, AdmissionStats::default());

        // Present-but-mistyped still errors: additive, not lax.
        let line = r#"{"v": 1, "seq": 3, "t": 0.5, "kind": "SnapshotTaken", "snapshot": {"time_secs": 0.5, "tasks": [], "queue": {"occupancy": 0.0, "arrival_rate": 0.0, "enqueued": 0, "completed": 0}, "power_watts": null, "dispatches_since_reconfig": 0, "admission": "open"}}"#;
        assert!(parse_line(line).is_err());
    }

    #[test]
    fn superseded_verdict_round_trips_and_unknowns_reject() {
        let line = r#"{"v": 1, "seq": 2, "t": 0.5, "kind": "ProposalEvaluated", "mechanism": "WQT-H", "proposal": {"tasks": [{"name": "t", "extent": 1}]}, "verdict": "superseded"}"#;
        let record = parse_line(line).unwrap();
        assert_eq!(to_jsonl_line(&record), line);
        let bad = line.replace("superseded", "retracted");
        assert!(parse_line(&bad).is_err());
    }

    #[test]
    fn rejects_wrong_schema_version() {
        let err = parse_line(r#"{"v": 99, "seq": 0, "t": 0, "kind": "Finished"}"#).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn rejects_unknown_kind() {
        let err = parse_line(r#"{"v": 1, "seq": 0, "t": 0, "kind": "Mystery"}"#).unwrap_err();
        assert!(err.to_string().contains("Mystery"), "{err}");
    }

    #[test]
    fn parse_jsonl_reports_line_numbers() {
        let good = to_jsonl_line(&TraceRecord {
            seq: 0,
            time_secs: 0.0,
            event: TraceEvent::Finished {
                completed: 0,
                reconfigurations: 0,
                dropped_events: 0,
            },
        });
        let text = format!("{good}\nnot json\n");
        let err = parse_jsonl(&text).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn shape_kind_survives_round_trip() {
        let record = TraceRecord {
            seq: 0,
            time_secs: 0.0,
            event: TraceEvent::Launched {
                mechanism: "Static".to_string(),
                goal: "g".to_string(),
                threads: 24,
                shape: sample_shape(),
                config: sample_config(),
            },
        };
        let back = parse_line(&to_jsonl_line(&record)).unwrap();
        if let TraceEvent::Launched { shape, .. } = &back.event {
            let work = shape.node(&"0.1".parse().unwrap()).expect("node 0.1");
            assert_eq!(work.kind, TaskKind::Par);
            assert_eq!(work.max_extent, Some(8));
        } else {
            panic!("kind changed");
        }
    }
}

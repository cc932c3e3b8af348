//! The structured events the flight recorder captures.
//!
//! Each [`TraceRecord`] is one line of a JSONL trace: a monotonically
//! increasing sequence number, a timestamp in seconds since launch, and
//! one [`TraceEvent`]. The set of event kinds — and the exact field
//! names they serialize to — is a **versioned public contract**
//! documented in `docs/event-schema.md` (schema version
//! [`SCHEMA_VERSION`]).
//!
//! # Example
//!
//! ```
//! use dope_trace::{TraceEvent, TraceRecord};
//!
//! let record = TraceRecord {
//!     seq: 0,
//!     time_secs: 0.125,
//!     event: TraceEvent::FeatureRead {
//!         feature: "SystemPower".to_string(),
//!         value: 612.5,
//!     },
//! };
//! assert_eq!(record.event.kind(), "FeatureRead");
//! ```

use dope_core::{
    Config, DecisionCandidate, MonitorSnapshot, ProgramShape, QueueStats, Rationale,
    ScoredDecision, TaskPath, TaskStats, Verdict,
};

/// Version of the event schema emitted by this build.
///
/// Every JSONL line carries this number in its `"v"` field; readers must
/// reject lines with a version they do not understand.
pub const SCHEMA_VERSION: u64 = 1;

/// One recorded line of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Monotonic sequence number assigned by the recorder. Gaps indicate
    /// events dropped by the bounded ring buffer.
    pub seq: u64,
    /// Seconds since the recorder (and hence the run) started. Simulated
    /// sources stamp simulated seconds; live sources stamp wall-clock
    /// seconds.
    pub time_secs: f64,
    /// The event itself.
    pub event: TraceEvent,
}

/// A structured executive event.
///
/// Variants mirror the decision loop: launch, monitor, propose, judge,
/// reconfigure, finish — plus the platform- and queue-level samples that
/// explain *why* a mechanism decided what it did.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// The executive launched the application.
    Launched {
        /// `Mechanism::name()` of the driving mechanism.
        mechanism: String,
        /// The administrator's goal, rendered with `Display`.
        goal: String,
        /// The thread budget.
        threads: u32,
        /// The structural shape derived from the descriptor.
        shape: ProgramShape,
        /// The initial configuration.
        config: Config,
    },
    /// A [`MonitorSnapshot`] was frozen for the mechanism.
    SnapshotTaken {
        /// The frozen snapshot, verbatim.
        snapshot: MonitorSnapshot,
    },
    /// One task's EWMA statistics, sampled at a control period.
    TaskStatsSample {
        /// Configured-tree path of the task.
        path: TaskPath,
        /// The task's aggregated statistics.
        stats: TaskStats,
    },
    /// A mechanism proposal was evaluated.
    ProposalEvaluated {
        /// `Mechanism::name()` of the proposer.
        mechanism: String,
        /// The proposed configuration.
        proposal: Config,
        /// Accept / unchanged / reject-with-DV-code.
        verdict: Verdict,
    },
    /// A reconfiguration epoch completed: the old epoch (or, for a
    /// partial reconfiguration, only its changed paths) drained
    /// (`pause_secs`) and the new one launched (`relaunch_secs`).
    ReconfigureEpoch {
        /// Seconds from the suspend decision until the drained set
        /// reached a consistent state.
        pause_secs: f64,
        /// Seconds to instantiate and submit the new epoch (for partial
        /// reconfigurations, the relaunched paths).
        relaunch_secs: f64,
        /// Worker jobs live after the reconfiguration.
        jobs: u64,
        /// The configuration now in force.
        config: Config,
        /// `"full"` (the paper protocol: every replica drained) or
        /// `"partial"` (delta reconfiguration: only changed paths
        /// drained). Additive in schema v1; absent decodes as `"full"`,
        /// which every pre-delta trace was.
        scope: String,
        /// Replica-carrying paths drained at this boundary. Additive in
        /// schema v1; absent decodes as 0 ("not measured").
        paths_drained: u64,
    },
    /// A platform feature callback was read (paper Figure 9).
    FeatureRead {
        /// Feature name, e.g. `"SystemPower"`.
        feature: String,
        /// The value the callback returned.
        value: f64,
    },
    /// A work-queue probe sample.
    QueueSample {
        /// The probed statistics.
        queue: QueueStats,
    },
    /// A task replica failed: its body panicked (or its worker vanished
    /// without reporting) and the supervision layer contained the
    /// damage. Additive in schema v1 — readers of older traces never
    /// see it, and `reason`/`policy` explain what happened and how the
    /// executive responded.
    TaskFailed {
        /// Configured-tree path of the failed task.
        path: TaskPath,
        /// The downcast panic payload, or a description of the loss.
        reason: String,
        /// The failure policy in force, as its stable lowercase tag
        /// (`"abort"` / `"restart"` / `"degrade"`).
        policy: String,
    },
    /// A mechanism explained one decision (a `DecisionTrace` from
    /// `Mechanism::explain()`), flattened to stable fields. Additive in
    /// schema v1. The decision is usually emitted one epoch *after* it
    /// was taken, once the executive has scored the mechanism's
    /// throughput prediction against the realized monitor snapshot;
    /// unscored decisions (the final one of a run, or decisions whose
    /// proposal was rejected) omit the realized fields.
    DecisionTraced {
        /// `Mechanism::name()` of the deciding mechanism.
        mechanism: String,
        /// Stable rationale code, e.g. `"QueueAboveHighWater"`.
        rationale: Rationale,
        /// The `(signal, value)` pairs the mechanism read.
        observed: Vec<(String, f64)>,
        /// The candidate actions it weighed, with scores and optional
        /// per-candidate throughput predictions.
        candidates: Vec<DecisionCandidate>,
        /// The action it chose (`"hold"` when it kept the status quo).
        chosen: String,
        /// Its throughput prediction for the chosen action, items/s.
        predicted_throughput: Option<f64>,
        /// The bottleneck throughput the monitor realized one epoch
        /// later, items/s. Absent on unscored decisions.
        realized_throughput: Option<f64>,
        /// Signed relative error `(predicted - realized) / realized`.
        /// Positive means the mechanism over-promised. Absent unless
        /// both prediction and realization are present.
        prediction_error: Option<f64>,
    },
    /// A sampled summary of the admission gate, emitted once per control
    /// period while an admission policy is installed and traffic has been
    /// offered. Additive in schema v1 — readers of older traces never
    /// see it. Counters are cumulative since launch; `verdict` and
    /// `reason` describe the window since the *previous* sample
    /// (`"shed"` when any offer was dropped in the window, with the
    /// dominant drop reason).
    AdmissionDecision {
        /// The policy's stable lowercase tag
        /// (`"open"` / `"block"` / `"shed"` / `"deadline"`).
        policy: String,
        /// `"admitted"` when every offer in the window was admitted,
        /// `"shed"` when at least one was dropped.
        verdict: String,
        /// Dominant drop reason in the window
        /// (`"high_water"` / `"deadline"`), or `"none"`.
        reason: String,
        /// Mean queue delay (offer to dispatch) of served requests so
        /// far, in seconds.
        queue_delay_secs: f64,
        /// Requests offered to the gate since launch.
        offered: u64,
        /// Offers admitted since launch.
        admitted: u64,
        /// Offers dropped since launch, all reasons combined.
        shed: u64,
    },
    /// The run ended.
    Finished {
        /// Requests completed over the whole run.
        completed: u64,
        /// Applied reconfigurations.
        reconfigurations: u64,
        /// Events the bounded ring buffer had to drop.
        dropped_events: u64,
    },
}

impl From<ScoredDecision> for TraceEvent {
    fn from(decision: ScoredDecision) -> Self {
        let trace = decision.trace;
        TraceEvent::DecisionTraced {
            mechanism: decision.mechanism.to_string(),
            rationale: trace.rationale,
            observed: trace.observed,
            candidates: trace.candidates,
            chosen: trace.chosen,
            predicted_throughput: trace.predicted_throughput,
            realized_throughput: decision.realized_throughput,
            prediction_error: decision.prediction_error,
        }
    }
}

impl TraceEvent {
    /// The stable `"kind"` discriminator this event serializes under.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Launched { .. } => "Launched",
            TraceEvent::SnapshotTaken { .. } => "SnapshotTaken",
            TraceEvent::TaskStatsSample { .. } => "TaskStatsSample",
            TraceEvent::ProposalEvaluated { .. } => "ProposalEvaluated",
            TraceEvent::ReconfigureEpoch { .. } => "ReconfigureEpoch",
            TraceEvent::FeatureRead { .. } => "FeatureRead",
            TraceEvent::QueueSample { .. } => "QueueSample",
            TraceEvent::TaskFailed { .. } => "TaskFailed",
            TraceEvent::DecisionTraced { .. } => "DecisionTraced",
            TraceEvent::AdmissionDecision { .. } => "AdmissionDecision",
            TraceEvent::Finished { .. } => "Finished",
        }
    }

    /// All `"kind"` discriminators of schema version [`SCHEMA_VERSION`],
    /// in documentation order.
    pub const KINDS: [&'static str; 11] = [
        "Launched",
        "SnapshotTaken",
        "TaskStatsSample",
        "ProposalEvaluated",
        "ReconfigureEpoch",
        "FeatureRead",
        "QueueSample",
        "TaskFailed",
        "DecisionTraced",
        "AdmissionDecision",
        "Finished",
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_matches_catalogue() {
        let event = TraceEvent::Finished {
            completed: 1,
            reconfigurations: 0,
            dropped_events: 0,
        };
        assert!(TraceEvent::KINDS.contains(&event.kind()));
    }
}

//! Decision audit: what a mechanism saw, weighed, chose — and why.
//!
//! Mechanisms make their choices from private internal state (EWMA
//! streams, hysteresis streaks, hill-climb phases), so by the time a
//! configuration lands in a trace the *reasoning* behind it is gone.
//! A [`DecisionTrace`] is the mechanism's own account of one
//! `reconfigure` call: the signals it read, the candidate actions it
//! scored, the one it chose, a stable [`Rationale`] code, and — when its
//! model supports one — a predicted throughput the executive can score
//! against the realized value one epoch later.
//!
//! The trait hook is [`crate::Mechanism::explain`]. The [`Decider`] is
//! the one decision step every driver runs — the live executive and
//! both simulators: it consults the mechanism, judges the proposal into
//! a [`Verdict`], holds the explanation for one control period and
//! scores it against the next snapshot. Drivers publish the resulting
//! [`ScoredDecision`] as a `DecisionTraced` trace event (and, live, as
//! `dope_mechanism_prediction_error` / `dope_decision_rationale_total`
//! metrics).

use crate::config::Config;
use crate::diag::DiagCode;
use crate::mechanism::{Mechanism, Resources};
use crate::metrics::MonitorSnapshot;
use crate::shape::ProgramShape;

/// Stable machine-readable reason codes for mechanism decisions.
///
/// Codes are part of the trace contract (`docs/event-schema.md`): they
/// may be added, never renamed or removed. Each code names the dominant
/// clause of the mechanism's decision logic, not the outcome — two
/// different configurations can share a rationale, and a "hold" (no
/// proposal) carries one too.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rationale {
    /// Work-queue occupancy mapped through the linear width law (Eq. 2).
    OccupancyLinear,
    /// A width change is pending until it persists past the hysteresis
    /// window.
    HysteresisPending,
    /// Occupancy crossed the sequential/parallel threshold for long
    /// enough to flip the mode.
    ThresholdCrossed,
    /// The occupancy landed in a configured oracle table row.
    OracleLookup,
    /// Extents rebalanced proportionally to measured stage service times.
    ThroughputBalance,
    /// Stage imbalance exceeded the fusion threshold; switching to the
    /// fused pipeline alternative.
    ImbalanceFusion,
    /// A stage queue rose above its high watermark.
    QueueAboveHighWater,
    /// A stage queue fell below its low watermark.
    QueueBelowLowWater,
    /// Hill climber probing a neighbouring configuration.
    HillClimbProbe,
    /// The probed configuration beat the baseline; keeping it.
    KeepBetterMove,
    /// The probed configuration lost to the baseline; reverting.
    RevertWorseMove,
    /// The search converged; holding the current configuration.
    Converged,
    /// The power budget binds: capping or shedding parallelism.
    PowerCapBinding,
    /// Power headroom exists: growing within the budget.
    PowerHeadroomGrow,
    /// The power signal has not refreshed since the last decision;
    /// holding rather than acting on stale data.
    PowerSignalStale,
    /// Waiting out a settle tick after a reconfiguration.
    SettleWait,
    /// A static mechanism restoring its pinned configuration.
    Pinned,
    /// The admission gate is shedding offers; steering capacity toward
    /// goodput for the admitted requests rather than chasing an
    /// unserviceable backlog.
    AdmissionShedding,
    /// No clause fired; holding the current configuration.
    Hold,
}

impl Rationale {
    /// Every rationale code, for docs/tests cross-checks.
    pub const ALL: [Rationale; 19] = [
        Rationale::OccupancyLinear,
        Rationale::HysteresisPending,
        Rationale::ThresholdCrossed,
        Rationale::OracleLookup,
        Rationale::ThroughputBalance,
        Rationale::ImbalanceFusion,
        Rationale::QueueAboveHighWater,
        Rationale::QueueBelowLowWater,
        Rationale::HillClimbProbe,
        Rationale::KeepBetterMove,
        Rationale::RevertWorseMove,
        Rationale::Converged,
        Rationale::PowerCapBinding,
        Rationale::PowerHeadroomGrow,
        Rationale::PowerSignalStale,
        Rationale::SettleWait,
        Rationale::Pinned,
        Rationale::AdmissionShedding,
        Rationale::Hold,
    ];

    /// The stable code this rationale serializes under.
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            Rationale::OccupancyLinear => "OccupancyLinear",
            Rationale::HysteresisPending => "HysteresisPending",
            Rationale::ThresholdCrossed => "ThresholdCrossed",
            Rationale::OracleLookup => "OracleLookup",
            Rationale::ThroughputBalance => "ThroughputBalance",
            Rationale::ImbalanceFusion => "ImbalanceFusion",
            Rationale::QueueAboveHighWater => "QueueAboveHighWater",
            Rationale::QueueBelowLowWater => "QueueBelowLowWater",
            Rationale::HillClimbProbe => "HillClimbProbe",
            Rationale::KeepBetterMove => "KeepBetterMove",
            Rationale::RevertWorseMove => "RevertWorseMove",
            Rationale::Converged => "Converged",
            Rationale::PowerCapBinding => "PowerCapBinding",
            Rationale::PowerHeadroomGrow => "PowerHeadroomGrow",
            Rationale::PowerSignalStale => "PowerSignalStale",
            Rationale::SettleWait => "SettleWait",
            Rationale::Pinned => "Pinned",
            Rationale::AdmissionShedding => "AdmissionShedding",
            Rationale::Hold => "Hold",
        }
    }

    /// Parses a stable code back into a rationale.
    #[must_use]
    pub fn from_code(code: &str) -> Option<Rationale> {
        Rationale::ALL.into_iter().find(|r| r.code() == code)
    }
}

impl std::fmt::Display for Rationale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.code())
    }
}

/// One candidate action a mechanism weighed before choosing.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionCandidate {
    /// Human-readable action label, e.g. `"width=6"` or
    /// `"grow 0.2 -> 5"`. Stable enough to grep, not a wire format.
    pub action: String,
    /// The mechanism's internal score for this candidate (higher is
    /// better unless the mechanism documents otherwise).
    pub score: f64,
    /// Predicted steady-state throughput (items/sec) under this
    /// candidate, or `None` when the mechanism has no model for it.
    pub predicted_throughput: Option<f64>,
}

impl DecisionCandidate {
    /// A candidate with an action label and score, no throughput model.
    #[must_use]
    pub fn new(action: impl Into<String>, score: f64) -> Self {
        DecisionCandidate {
            action: action.into(),
            score,
            predicted_throughput: None,
        }
    }

    /// Attaches a predicted throughput.
    #[must_use]
    pub fn predicting(mut self, throughput: f64) -> Self {
        self.predicted_throughput = Some(throughput);
        self
    }
}

/// A mechanism's account of its most recent `reconfigure` call.
///
/// Built by the mechanism from its real internal state and returned by
/// [`crate::Mechanism::explain`]. The executive attaches it to the
/// decision loop as a `DecisionTraced` trace event and scores
/// `predicted_throughput` against the realized throughput one epoch
/// later.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTrace {
    /// The dominant clause of the decision logic.
    pub rationale: Rationale,
    /// Named signals the mechanism actually read from the snapshot
    /// (occupancy, per-stage loads, power, ...), in read order.
    pub observed: Vec<(String, f64)>,
    /// The candidate actions weighed, with scores.
    pub candidates: Vec<DecisionCandidate>,
    /// Label of the chosen action (matches a candidate's `action` when
    /// candidates are listed; `"hold"` for no-change decisions).
    pub chosen: String,
    /// Predicted steady-state throughput (items/sec) under the chosen
    /// action, or `None` when unmodelled. This is the value the
    /// executive scores one epoch later.
    pub predicted_throughput: Option<f64>,
}

impl DecisionTrace {
    /// A trace with a rationale and chosen-action label; signals,
    /// candidates, and the prediction are filled in with the builders.
    #[must_use]
    pub fn new(rationale: Rationale, chosen: impl Into<String>) -> Self {
        DecisionTrace {
            rationale,
            observed: Vec::new(),
            candidates: Vec::new(),
            chosen: chosen.into(),
            predicted_throughput: None,
        }
    }

    /// Appends one observed signal.
    #[must_use]
    pub fn observing(mut self, signal: impl Into<String>, value: f64) -> Self {
        self.observed.push((signal.into(), value));
        self
    }

    /// Appends one weighed candidate.
    #[must_use]
    pub fn candidate(mut self, candidate: DecisionCandidate) -> Self {
        self.candidates.push(candidate);
        self
    }

    /// Sets the predicted throughput for the chosen action.
    #[must_use]
    pub fn predicting(mut self, throughput: f64) -> Self {
        self.predicted_throughput = Some(throughput);
        self
    }
}

/// The realized throughput a prediction is scored against: the
/// bottleneck (minimum) per-task throughput across tasks that actually
/// ran since the last reconfiguration.
///
/// In steady state every stage of a pipeline passes the same items, so
/// the minimum per-stage rate approximates the end-to-end rate — the
/// same quantity the balance mechanisms predict with the bottleneck law.
/// Returns `None` when no task has both invocations and a positive
/// measured throughput (nothing ran; there is nothing to score).
#[must_use]
pub fn realized_throughput(snap: &MonitorSnapshot) -> Option<f64> {
    snap.tasks
        .values()
        .filter(|s| s.invocations > 0 && s.throughput > 0.0)
        .map(|s| s.throughput)
        .min_by(f64::total_cmp)
}

/// How the decision step judged one mechanism proposal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Valid and different from the current configuration: a
    /// reconfiguration follows.
    Accepted,
    /// Equal to the current configuration (not validated again).
    Unchanged,
    /// Failed validation with the `DV0xx` code of the first error.
    Rejected {
        /// The diagnostic code explaining the rejection.
        code: DiagCode,
    },
    /// Accepted, then discarded before it could be applied: a failure or
    /// stop raced the drain. Only the live executive issues it, so the
    /// audit never shows an accepted-but-vanished decision.
    Superseded,
}

/// A held decision, scored one control period after it was taken.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredDecision {
    /// When the decision was taken (the consult, not the scoring).
    pub time_secs: f64,
    /// The mechanism that took it.
    pub mechanism: &'static str,
    /// The mechanism's own account of the decision.
    pub trace: DecisionTrace,
    /// [`realized_throughput`] of the snapshot that followed, or `None`
    /// when nothing ran or no snapshot followed.
    pub realized_throughput: Option<f64>,
    /// Signed relative error `(predicted - realized) / realized`,
    /// positive when the mechanism over-promised; `None` unless both
    /// sides are known.
    pub prediction_error: Option<f64>,
}

impl ScoredDecision {
    /// Scores `trace`, taken at `time_secs` by `mechanism`, against the
    /// `realized` throughput. The one place the prediction error is
    /// computed; it is `None` unless `realized` is positive.
    #[must_use]
    pub fn new(
        time_secs: f64,
        mechanism: &'static str,
        trace: DecisionTrace,
        realized: Option<f64>,
    ) -> Self {
        let prediction_error = trace
            .predicted_throughput
            .zip(realized.filter(|r| *r > 0.0))
            .map(|(predicted, realized)| (predicted - realized) / realized);
        ScoredDecision {
            time_secs,
            mechanism,
            trace,
            realized_throughput: realized,
            prediction_error,
        }
    }
}

/// The decision half of the control loop, shared by the live executive
/// and both simulators.
///
/// Per control tick a driver calls [`score`](Decider::score) on the
/// fresh snapshot, then [`consult`](Decider::consult) on the same one;
/// at the end of the run one more `score` flushes the last decision,
/// against a final snapshot or none. So every
/// explained consult yields exactly one [`ScoredDecision`] and every
/// proposal exactly one [`Verdict`]. Applying an accepted proposal stays
/// with the driver.
#[derive(Debug)]
pub struct Decider<'a> {
    shape: &'a ProgramShape,
    res: Resources,
    budget: u32,
    audit: bool,
    held: Option<(f64, &'static str, DecisionTrace)>,
}

impl<'a> Decider<'a> {
    /// A decider validating proposals against `shape` within `budget`
    /// threads and handing `res` to the mechanism. Without `audit` the
    /// mechanism is never asked to [`explain`](Mechanism::explain).
    #[must_use]
    pub fn new(shape: &'a ProgramShape, res: Resources, budget: u32, audit: bool) -> Self {
        Decider {
            shape,
            res,
            budget,
            audit,
            held: None,
        }
    }

    /// Consults `mechanism` at `time_secs` and judges its proposal: equal
    /// to `current` is [`Verdict::Unchanged`] without validation,
    /// anything else is accepted or rejected by [`Config::validate`].
    /// When auditing, the explanation (holds included) is held for the
    /// next [`score`](Decider::score).
    pub fn consult(
        &mut self,
        mechanism: &mut dyn Mechanism,
        snapshot: &MonitorSnapshot,
        current: &Config,
        time_secs: f64,
    ) -> Option<(Config, Verdict)> {
        let proposal = mechanism.reconfigure(snapshot, current, self.shape, &self.res);
        if self.audit {
            if let Some(trace) = mechanism.explain() {
                debug_assert!(self.held.is_none(), "consulted twice without scoring");
                self.held = Some((time_secs, mechanism.name(), trace));
            }
        }
        proposal.map(|proposal| {
            let verdict = if proposal == *current {
                Verdict::Unchanged
            } else {
                match proposal.validate(self.shape, self.budget) {
                    Ok(()) => Verdict::Accepted,
                    Err(err) => Verdict::Rejected { code: err.code() },
                }
            };
            (proposal, verdict)
        })
    }

    /// The held decision, scored against `next`, the snapshot after it;
    /// unscored when `next` is `None` (the run ended first).
    pub fn score(&mut self, next: Option<&MonitorSnapshot>) -> Option<ScoredDecision> {
        let (time_secs, mechanism, trace) = self.held.take()?;
        let realized = next.and_then(realized_throughput);
        Some(ScoredDecision::new(time_secs, mechanism, trace, realized))
    }

    /// Whether a decision is held, waiting to be scored.
    #[must_use]
    pub fn holds_decision(&self) -> bool {
        self.held.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{MonitorSnapshot, TaskStats};
    use crate::path::TaskPath;

    #[test]
    fn rationale_codes_round_trip_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for r in Rationale::ALL {
            assert!(seen.insert(r.code()), "duplicate code {}", r.code());
            assert_eq!(Rationale::from_code(r.code()), Some(r));
            assert!(r.code().chars().all(|c| c.is_ascii_alphanumeric()));
        }
        assert_eq!(Rationale::from_code("NotACode"), None);
    }

    #[test]
    fn builders_accumulate() {
        let trace = DecisionTrace::new(Rationale::OccupancyLinear, "width=6")
            .observing("queue_occupancy", 3.5)
            .candidate(DecisionCandidate::new("width=5", 0.5).predicting(40.0))
            .candidate(DecisionCandidate::new("width=6", 0.9).predicting(48.0))
            .predicting(48.0);
        assert_eq!(trace.observed.len(), 1);
        assert_eq!(trace.candidates.len(), 2);
        assert_eq!(trace.predicted_throughput, Some(48.0));
        assert_eq!(trace.candidates[1].predicted_throughput, Some(48.0));
    }

    #[test]
    fn realized_throughput_is_the_bottleneck_of_live_tasks() {
        let mut snap = MonitorSnapshot::at(1.0);
        assert_eq!(realized_throughput(&snap), None);
        for (i, (inv, tput)) in [(100, 8.0), (100, 5.0), (0, 1.0), (100, 0.0)]
            .into_iter()
            .enumerate()
        {
            snap.tasks.insert(
                TaskPath::root_child(0).child(u16::try_from(i).unwrap()),
                TaskStats {
                    invocations: inv,
                    throughput: tput,
                    ..TaskStats::default()
                },
            );
        }
        // Idle (0 invocations) and unmeasured (0 throughput) tasks are
        // excluded; the bottleneck of the live ones is 5.0.
        assert_eq!(realized_throughput(&snap), Some(5.0));
    }

    #[test]
    fn a_zero_realized_throughput_leaves_the_error_unset() {
        let trace = DecisionTrace::new(Rationale::Hold, "hold").predicting(4.0);
        let scored = ScoredDecision::new(1.0, "m", trace, Some(0.0));
        assert_eq!(scored.prediction_error, None);
    }

    #[test]
    fn verdict_equality() {
        assert_eq!(Verdict::Accepted, Verdict::Accepted);
        assert_ne!(
            Verdict::Rejected {
                code: DiagCode::BudgetExceeded
            },
            Verdict::Unchanged
        );
    }
}

//! Hooks for observing the simulator's decision loop.
//!
//! Both [`run_system`](crate::system::run_system) and
//! [`run_pipeline`](crate::pipeline::run_pipeline) run the decision step
//! the live executive runs — the same [`Decider`] from `dope-core`:
//! freeze a [`MonitorSnapshot`], score the previous period's decision
//! against it, consult the mechanism, judge the proposal into a
//! [`Verdict`], apply it. A [`SimObserver`] sees each of those decision
//! points as it happens, without the simulator depending on any
//! particular trace format — the `dope-trace` crate implements this
//! trait to build replayable flight-recorder traces.
//!
//! # Example
//!
//! Counting applied reconfigurations:
//!
//! ```
//! use dope_core::Config;
//! use dope_sim::observer::SimObserver;
//!
//! #[derive(Default)]
//! struct Counter(u64);
//!
//! impl SimObserver for Counter {
//!     fn config_applied(&mut self, _time_secs: f64, _config: &Config) {
//!         self.0 += 1;
//!     }
//! }
//!
//! let mut counter = Counter::default();
//! // pass `&mut counter` to `run_system_observed` / `run_pipeline_observed`
//! # let _ = &mut counter;
//! ```

use dope_core::{
    Config, Decider, Mechanism, MonitorSnapshot, ProgramShape, ScoredDecision, Verdict,
};

/// Observes the decision loop of a simulation run.
///
/// Every method has a no-op default, so observers implement only what
/// they care about. The simulator calls the methods in causal order:
/// [`launched`](SimObserver::launched) once, then per decision point
/// the previous point's [`decision_scored`](SimObserver::decision_scored),
/// [`snapshot_taken`](SimObserver::snapshot_taken), possibly
/// [`proposal_evaluated`](SimObserver::proposal_evaluated), and — when a
/// proposal is accepted — [`config_applied`](SimObserver::config_applied).
/// The last decision of a run arrives unscored after the final tick.
pub trait SimObserver {
    /// The run started under `config` (after initial-config validation).
    fn launched(&mut self, mechanism: &str, threads: u32, shape: &ProgramShape, config: &Config) {
        let _ = (mechanism, threads, shape, config);
    }

    /// A monitor snapshot was frozen for the mechanism.
    fn snapshot_taken(&mut self, snapshot: &MonitorSnapshot) {
        let _ = snapshot;
    }

    /// The mechanism proposed `proposal` and the decision step judged it.
    fn proposal_evaluated(
        &mut self,
        time_secs: f64,
        mechanism: &str,
        proposal: &Config,
        verdict: Verdict,
    ) {
        let _ = (time_secs, mechanism, proposal, verdict);
    }

    /// An accepted configuration took effect at `time_secs`.
    fn config_applied(&mut self, time_secs: f64, config: &Config) {
        let _ = (time_secs, config);
    }

    /// A decision the mechanism explained one control period earlier
    /// (holds included), scored by the [`Decider`] against the snapshot
    /// that followed it — or unscored when the run ended first.
    fn decision_scored(&mut self, decision: ScoredDecision) {
        let _ = decision;
    }
}

/// The do-nothing observer behind the plain `run_*` entry points.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl SimObserver for NullObserver {}

/// One control tick of a simulated run, reported in the order observers
/// rely on: the previous tick's decision scored against `snapshot`, the
/// snapshot itself, then the consult's verdict. Returns the judged
/// proposal; applying an accepted one is the model's business.
pub(crate) fn control_tick(
    decider: &mut Decider<'_>,
    mechanism: &mut dyn Mechanism,
    snapshot: &MonitorSnapshot,
    current: &Config,
    now: f64,
    observer: &mut dyn SimObserver,
) -> Option<(Config, Verdict)> {
    if let Some(decision) = decider.score(Some(snapshot)) {
        observer.decision_scored(decision);
    }
    observer.snapshot_taken(snapshot);
    let judged = decider.consult(mechanism, snapshot, current, now);
    if let Some((proposal, verdict)) = &judged {
        observer.proposal_evaluated(now, mechanism.name(), proposal, *verdict);
    }
    judged
}

#[cfg(test)]
mod tests {
    use super::*;
    use dope_core::{DecisionTrace, DiagCode, Rationale};

    #[test]
    fn null_observer_accepts_all_calls() {
        let mut obs = NullObserver;
        let config = Config::default();
        let shape = ProgramShape::new(vec![]);
        obs.launched("m", 4, &shape, &config);
        obs.snapshot_taken(&MonitorSnapshot::at(0.0));
        obs.proposal_evaluated(1.0, "m", &config, Verdict::Unchanged);
        let code = DiagCode::BudgetExceeded;
        obs.proposal_evaluated(1.0, "m", &config, Verdict::Rejected { code });
        obs.config_applied(2.0, &config);
        let trace = DecisionTrace::new(Rationale::Hold, "hold");
        obs.decision_scored(ScoredDecision::new(1.0, "m", trace, None));
    }
}

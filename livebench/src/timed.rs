//! A timing [`Mechanism`] wrapper: it delegates every call unchanged and
//! times the consult and the validation of each proposal.

use crate::stats::Hist;
use dope_core::{Config, DecisionTrace, Mechanism, MonitorSnapshot, ProgramShape, Resources};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// What the wrapper counted and timed.
#[derive(Debug, Default)]
pub struct MechanismLedger {
    /// `reconfigure` calls.
    pub consults: AtomicU64,
    /// `reconfigure` calls that returned a proposal.
    pub proposals: AtomicU64,
    /// `applied` callbacks (reconfigurations the executive carried out).
    pub applied: AtomicU64,
    /// Duration of each `reconfigure` call.
    pub consult: Hist,
    /// Duration of `Config::validate` on each proposal.
    pub validate: Hist,
}

/// Wraps a mechanism, recording into a shared [`MechanismLedger`].
#[derive(Debug)]
pub struct Timed<M> {
    inner: M,
    ledger: Arc<MechanismLedger>,
}

impl<M: Mechanism> Timed<M> {
    /// Wraps `inner`; counts land in `ledger`.
    pub fn new(inner: M, ledger: Arc<MechanismLedger>) -> Self {
        Timed { inner, ledger }
    }
}

impl<M: Mechanism> Mechanism for Timed<M> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn reconfigure(
        &mut self,
        snap: &MonitorSnapshot,
        current: &Config,
        shape: &ProgramShape,
        res: &Resources,
    ) -> Option<Config> {
        let t0 = Instant::now();
        let proposal = self.inner.reconfigure(snap, current, shape, res);
        self.ledger.consult.record_between(t0, Instant::now());
        self.ledger.consults.fetch_add(1, Ordering::Relaxed);
        if let Some(config) = &proposal {
            self.ledger.proposals.fetch_add(1, Ordering::Relaxed);
            let t0 = Instant::now();
            let verdict = config.validate(shape, res.threads);
            self.ledger.validate.record_between(t0, Instant::now());
            std::hint::black_box(verdict.is_ok());
        }
        proposal
    }

    fn applied(&mut self, config: &Config) {
        self.ledger.applied.fetch_add(1, Ordering::Relaxed);
        self.inner.applied(config);
    }

    fn initial(&mut self, shape: &ProgramShape, res: &Resources) -> Option<Config> {
        self.inner.initial(shape, res)
    }

    fn explain(&self) -> Option<DecisionTrace> {
        self.inner.explain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dope_core::{ShapeNode, TaskConfig, TaskKind};

    /// Proposes a scripted sequence and remembers what it was told.
    #[derive(Debug, Default)]
    struct Scripted {
        script: Vec<Option<Config>>,
        calls: usize,
        applied: Vec<Config>,
    }

    impl Mechanism for Scripted {
        fn name(&self) -> &'static str {
            "scripted"
        }
        fn reconfigure(
            &mut self,
            snap: &MonitorSnapshot,
            _current: &Config,
            _shape: &ProgramShape,
            _res: &Resources,
        ) -> Option<Config> {
            let out = self.script.get(self.calls).cloned().flatten();
            self.calls += 1;
            assert_eq!(snap.time_secs, self.calls as f64, "snapshot passed through");
            out
        }
        fn applied(&mut self, config: &Config) {
            self.applied.push(config.clone());
        }
        fn initial(&mut self, _shape: &ProgramShape, res: &Resources) -> Option<Config> {
            Some(Config::new(vec![TaskConfig::leaf("w", res.threads)]))
        }
    }

    fn config(extent: u32) -> Config {
        Config::new(vec![TaskConfig::leaf("w", extent)])
    }

    #[test]
    fn delegates_every_call_unchanged() {
        let script = vec![Some(config(2)), None, Some(config(9)), Some(config(1))];
        let shape = ProgramShape::new(vec![ShapeNode::leaf("w", TaskKind::Par)]);
        let res = Resources::threads(4);
        let mut bare = Scripted {
            script: script.clone(),
            ..Scripted::default()
        };
        let ledger = Arc::new(MechanismLedger::default());
        let mut timed = Timed::new(
            Scripted {
                script,
                ..Scripted::default()
            },
            Arc::clone(&ledger),
        );

        assert_eq!(timed.name(), bare.name());
        assert_eq!(timed.initial(&shape, &res), bare.initial(&shape, &res));
        let current = config(1);
        for t in 1..=5 {
            let snap = MonitorSnapshot {
                time_secs: f64::from(t),
                ..MonitorSnapshot::default()
            };
            let a = timed.reconfigure(&snap, &current, &shape, &res);
            let b = bare.reconfigure(&snap, &current, &shape, &res);
            assert_eq!(a, b, "consult {t}");
            if let Some(c) = a {
                timed.applied(&c);
                bare.applied(&c);
            }
        }
        assert_eq!(timed.inner.applied, bare.applied);
        assert_eq!(timed.explain().is_none(), bare.explain().is_none());

        assert_eq!(ledger.consults.load(Ordering::Relaxed), 5);
        assert_eq!(ledger.proposals.load(Ordering::Relaxed), 3);
        assert_eq!(ledger.applied.load(Ordering::Relaxed), 3);
        assert_eq!(ledger.consult.count(), 5);
        // Validation is timed on every proposal, the over-budget one too.
        assert_eq!(ledger.validate.count(), 3);
    }
}

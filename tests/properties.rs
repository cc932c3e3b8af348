//! Property-based tests of the core invariants.

use dope_core::nest;
use dope_core::{Config, ProgramShape, ShapeNode, TaskKind, Verdict};
use dope_mechanisms::WqLinear;
use proptest::prelude::*;

/// An arbitrary two-level shape: optional sequential endpoints around one
/// parallel leaf, plus an optional sequential-transaction alternative.
fn two_level_shape(seq_endpoints: bool, seq_alt: bool, cap: Option<u32>) -> ProgramShape {
    let mut stages = Vec::new();
    if seq_endpoints {
        stages.push(ShapeNode::leaf("read", TaskKind::Seq));
    }
    let mut par = ShapeNode::leaf("work", TaskKind::Par);
    par.max_extent = cap;
    stages.push(par);
    if seq_endpoints {
        stages.push(ShapeNode::leaf("write", TaskKind::Seq));
    }
    let mut alternatives = vec![stages];
    if seq_alt {
        alternatives.push(vec![ShapeNode::leaf("whole", TaskKind::Seq)]);
    }
    ProgramShape::new(vec![ShapeNode {
        name: "outer".into(),
        kind: TaskKind::Par,
        max_extent: None,
        alternatives,
    }])
}

proptest! {
    /// Every configuration built by `config_for_width` validates against
    /// its own shape and the thread budget, for any width request.
    #[test]
    fn config_for_width_always_validates(
        threads in 1u32..64,
        width in 0u32..64,
        seq_endpoints in any::<bool>(),
        seq_alt in any::<bool>(),
        cap in prop::option::of(1u32..16),
    ) {
        let shape = two_level_shape(seq_endpoints, seq_alt, cap);
        let nest = nest::find_two_level(&shape).expect("two-level shape");
        // Feasibility precondition (documented on `config_for_width`):
        // the budget must fit the smallest representable transaction.
        let min_footprint = if seq_alt {
            1
        } else {
            nest::seq_leaves(&shape, &nest) + 1
        };
        prop_assume!(threads >= min_footprint);
        let config = nest::config_for_width(&shape, &nest, threads, width);
        prop_assert!(config.validate(&shape, threads).is_ok(),
            "width {width} threads {threads}: {config}");
    }

    /// Width round-trips through the configuration when it is
    /// representable (above the sequential-endpoint floor and below caps).
    #[test]
    fn width_roundtrips_when_representable(
        threads in 4u32..64,
        width in 1u32..24,
    ) {
        let shape = two_level_shape(true, true, None);
        let nest = nest::find_two_level(&shape).expect("two-level shape");
        let config = nest::config_for_width(&shape, &nest, threads, width);
        let observed = nest::width_of(&config, &nest);
        // Requests are clamped to the thread budget first; below the
        // sequential-endpoint floor they collapse to the sequential
        // alternative.
        let clamped = width.min(threads);
        if clamped > 2 {
            prop_assert_eq!(observed, clamped);
        } else {
            prop_assert_eq!(observed, 1, "sub-floor widths clamp to sequential");
        }
    }

    /// The even static split never exceeds its budget and never assigns a
    /// zero extent.
    #[test]
    fn even_split_respects_budget(
        threads in 1u32..128,
        par_stages in 1usize..6,
        seq_stages in 0usize..3,
    ) {
        let mut stages = Vec::new();
        for i in 0..seq_stages {
            stages.push(ShapeNode::leaf(format!("s{i}"), TaskKind::Seq));
        }
        for i in 0..par_stages {
            stages.push(ShapeNode::leaf(format!("p{i}"), TaskKind::Par));
        }
        let shape = ProgramShape::new(stages);
        let config = Config::even(&shape, threads);
        prop_assert!(config.total_threads() >= (seq_stages + par_stages) as u32);
        // The even split gives sequential tasks one thread and spreads the
        // rest; it may exceed a *tiny* budget (fewer threads than tasks)
        // but never a feasible one.
        if threads >= (seq_stages + par_stages) as u32 {
            prop_assert!(config.total_threads() <= threads.max(1),
                "{} > {threads}", config.total_threads());
        }
    }

    /// WQ-Linear's width is monotone non-increasing in queue occupancy and
    /// always within `[Mmin, Mmax]` (Equation 2).
    #[test]
    fn wq_linear_is_monotone_and_bounded(
        m_min in 1u32..4,
        span in 0u32..12,
        q_max in 1.0f64..64.0,
        occupancies in prop::collection::vec(0.0f64..128.0, 1..32),
    ) {
        let m_max = m_min + span;
        let mech = WqLinear::new(m_min, m_max, q_max);
        let mut sorted = occupancies.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let mut last = u32::MAX;
        for occ in sorted {
            let w = mech.width_for_occupancy(occ);
            prop_assert!(w >= m_min && w <= m_max);
            prop_assert!(w <= last, "width must not grow with occupancy");
            last = w;
        }
    }

    /// Response statistics: percentiles are order statistics — bounded by
    /// min and max, monotone in the quantile.
    #[test]
    fn percentiles_are_monotone(
        samples in prop::collection::vec(0.0f64..1e6, 1..64),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0,
    ) {
        let mut stats = dope_workload::ResponseStats::new();
        for s in &samples {
            stats.record(*s);
        }
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let p_lo = stats.percentile(lo).expect("non-empty");
        let p_hi = stats.percentile(hi).expect("non-empty");
        prop_assert!(p_lo <= p_hi);
        prop_assert!(p_hi <= stats.max().expect("non-empty"));
    }

    /// The open-system simulator conserves requests: everything submitted
    /// completes, exactly once, with non-negative response times.
    #[test]
    fn simulator_conserves_requests(
        load in 0.1f64..1.2,
        width in 1u32..10,
        requests in 10usize..120,
        seed in 0u64..1000,
    ) {
        use dope_core::{Resources, StaticMechanism};
        use dope_sim::system::{run_system, SystemParams};
        use dope_sim::AmdahlProfile;
        use dope_sim::system::TwoLevelModel;
        use dope_workload::ArrivalSchedule;

        let model = TwoLevelModel::pipeline(
            "t",
            AmdahlProfile::new(5.0, 0.95, 0.1, 0.05),
        );
        let schedule = ArrivalSchedule::for_load_factor(
            load,
            model.max_throughput(24, 1),
            requests,
            seed,
        );
        let mut mech = StaticMechanism::new(model.config_for_width(24, width));
        let out = run_system(
            &model,
            &schedule,
            &mut mech,
            Resources::threads(24),
            &SystemParams::default(),
        );
        prop_assert_eq!(out.completed, requests as u64);
        prop_assert_eq!(out.response.count(), requests);
        prop_assert!(out.response.min().expect("non-empty") >= 0.0);
        // Response is never below the pure service time.
        let exec = model.exec_time(model.width_of(&out.final_config));
        prop_assert!(out.response.percentile(0.0).expect("non-empty") >= exec - 1e-9);
    }
}

/// Reference implementation of thread accounting, written independently
/// of `TaskConfig::threads`: leaves cost their extent, nests cost
/// `extent x max(1, sum(children))`, computed in u64 so the property
/// can also assert that no overflow occurred in the tested range.
fn reference_threads(task: &dope_core::TaskConfig) -> u64 {
    match &task.nested {
        None => u64::from(task.extent),
        Some(nest) => {
            let inner: u64 = nest.tasks.iter().map(reference_threads).sum();
            u64::from(task.extent) * inner.max(1)
        }
    }
}

proptest! {
    /// `TaskConfig::threads` agrees with the independent recursive sum on
    /// arbitrary three-level trees (leaves at the root, a nest of leaves,
    /// and a nest containing a further nest).
    #[test]
    fn task_config_threads_matches_reference(
        leaf_extents in prop::collection::vec(0u32..50, 0..6),
        inner_extents in prop::collection::vec(0u32..50, 0..6),
        outer_extent in 0u32..50,
        deep_extent in 0u32..10,
    ) {
        use dope_core::TaskConfig;

        let mut tasks: Vec<TaskConfig> = leaf_extents
            .iter()
            .enumerate()
            .map(|(i, &e)| TaskConfig::leaf(format!("l{i}"), e))
            .collect();
        let mut inner: Vec<TaskConfig> = inner_extents
            .iter()
            .enumerate()
            .map(|(i, &e)| TaskConfig::leaf(format!("i{i}"), e))
            .collect();
        inner.push(TaskConfig::nest(
            "deep",
            deep_extent,
            0,
            vec![TaskConfig::leaf("d0", 3)],
        ));
        tasks.push(TaskConfig::nest("outer", outer_extent, 0, inner));

        let config = Config::new(tasks);
        let expected: u64 = config.tasks.iter().map(reference_threads).sum();
        prop_assert!(expected <= u64::from(u32::MAX), "range keeps sums in u32");
        prop_assert_eq!(u64::from(config.total_threads()), expected);
        for (_, node) in config.paths() {
            prop_assert_eq!(u64::from(node.threads()), reference_threads(node));
        }
    }

    /// Soundness and completeness of the static analyzer with respect to
    /// the runtime validator, over randomly (mis)configured trees:
    ///
    /// * analyzer-clean (no error diagnostics) implies `validate` accepts;
    /// * `validate` rejecting implies the analyzer reports an error.
    #[test]
    fn analyzer_agrees_with_validator(
        outer in 0u32..6,
        read in 0u32..4,
        transform in 0u32..24,
        write in 0u32..4,
        alt in 0usize..3,
        threads in 1u32..64,
        break_name in any::<bool>(),
        drop_stage in any::<bool>(),
    ) {
        use dope_core::{Resources, TaskConfig};

        let shape = ProgramShape::new(vec![ShapeNode {
            name: "txn".into(),
            kind: TaskKind::Par,
            max_extent: None,
            alternatives: vec![
                vec![
                    ShapeNode::leaf("read", TaskKind::Seq),
                    ShapeNode::leaf("transform", TaskKind::Par).with_max_extent(16),
                    ShapeNode::leaf("write", TaskKind::Seq),
                ],
                vec![ShapeNode::leaf("whole", TaskKind::Seq)],
            ],
        }]);
        let mut stages = vec![
            TaskConfig::leaf("read", read),
            TaskConfig::leaf("transform", transform),
            TaskConfig::leaf("write", write),
        ];
        if break_name {
            stages[1].name = "transmogrify".into();
        }
        if drop_stage {
            stages.pop();
        }
        let config = Config::new(vec![TaskConfig::nest("txn", outer, alt, stages)]);

        let report = dope_verify::analyze(&shape, &config, &Resources::threads(threads));
        let verdict = config.validate(&shape, threads);
        if !report.has_errors() {
            prop_assert!(
                verdict.is_ok(),
                "analyzer-clean config rejected by validate: {:?} for {config}",
                verdict
            );
        }
        if let Err(err) = &verdict {
            prop_assert!(
                report.has_errors(),
                "validate rejected ({err}) but the analyzer found nothing for {config}"
            );
        }
    }
}

/// A mechanism replaying a script of consults on a one-leaf program
/// with a budget of 4 threads. Step code `c` proposes nothing
/// (`c % 4 == 0`), the current configuration (`1`), a valid different
/// one (`2`) or an over-budget one (`3`), and explains the decision,
/// predicting 10 items/s, when `c >= 4`.
struct ScriptedMechanism(Vec<u8>, usize);

fn one_leaf_config(extent: u32) -> Config {
    Config::new(vec![dope_core::TaskConfig::leaf("w", extent)])
}

impl dope_core::Mechanism for ScriptedMechanism {
    fn name(&self) -> &'static str {
        "scripted"
    }

    fn reconfigure(
        &mut self,
        _snap: &dope_core::MonitorSnapshot,
        current: &Config,
        _shape: &ProgramShape,
        _res: &dope_core::Resources,
    ) -> Option<Config> {
        self.1 += 1;
        let extent = current.extent_of(&dope_core::TaskPath::root_child(0))?;
        match self.0[self.1 - 1] % 4 {
            0 => None,
            1 => Some(current.clone()),
            2 => Some(one_leaf_config(extent % 4 + 1)),
            _ => Some(one_leaf_config(5)),
        }
    }

    fn explain(&self) -> Option<dope_core::DecisionTrace> {
        (self.0[self.1 - 1] >= 4).then(|| {
            dope_core::DecisionTrace::new(dope_core::Rationale::Hold, "scripted").predicting(10.0)
        })
    }
}

/// Drives a `Decider` over `script` the way every driver does: per tick
/// `score`, then `consult` (applying accepted proposals); a last
/// `score` without a final snapshot. Tick `i` happens at time `i` and realizes
/// `throughput(i)`. Returns the scored decisions and each proposal's
/// `(tick, verdict)`.
fn drive_decider(
    script: &[u8],
    throughput: impl Fn(usize) -> f64,
    initial_extent: u32,
    audit: bool,
) -> (Vec<dope_core::ScoredDecision>, Vec<(usize, Verdict)>) {
    use dope_core::{Decider, MonitorSnapshot, Resources, TaskStats};

    let shape = ProgramShape::new(vec![ShapeNode::leaf("w", TaskKind::Par)]);
    let mut mechanism = ScriptedMechanism(script.to_vec(), 0);
    let mut decider = Decider::new(&shape, Resources::threads(4), 4, audit);
    let mut current = one_leaf_config(initial_extent);
    let (mut scored, mut verdicts) = (Vec::new(), Vec::new());
    for i in 0..script.len() {
        let mut snap = MonitorSnapshot::at(i as f64);
        let stats = TaskStats {
            invocations: 1,
            throughput: throughput(i),
            ..TaskStats::default()
        };
        snap.tasks.insert(dope_core::TaskPath::root_child(0), stats);
        scored.extend(decider.score(Some(&snap)));
        if let Some((proposal, verdict)) =
            decider.consult(&mut mechanism, &snap, &current, i as f64)
        {
            if verdict == Verdict::Accepted {
                current = proposal;
            }
            verdicts.push((i, verdict));
        }
    }
    scored.extend(decider.score(None));
    (scored, verdicts)
}

proptest! {
    /// The decision step's bookkeeping invariant: each explained consult
    /// yields exactly one scored decision — scored against the snapshot
    /// that followed it, unscored when none did, absent when nobody
    /// audits — and each proposal exactly one verdict.
    #[test]
    fn every_consult_yields_one_scored_decision_and_every_proposal_one_verdict(
        script in prop::collection::vec(0u8..8, 0..48),
        audit in any::<bool>(),
    ) {
        use dope_core::DiagCode;

        let (scored, verdicts) = drive_decider(&script, |i| i as f64 + 1.0, 1, audit);
        // Tick i + 1 realizes i + 2; the last decision has no next tick.
        let expected: Vec<(f64, Option<f64>)> = (0..script.len())
            .filter(|&i| audit && script[i] >= 4)
            .map(|i| (i as f64, (i + 1 < script.len()).then_some(i as f64 + 2.0)))
            .collect();
        let got: Vec<_> = scored.iter().map(|d| (d.time_secs, d.realized_throughput)).collect();
        prop_assert_eq!(got, expected);
        for d in &scored {
            prop_assert_eq!(d.prediction_error, d.realized_throughput.map(|r| (10.0 - r) / r));
        }
        let expected: Vec<(usize, Verdict)> = (0..script.len())
            .filter_map(|i| match script[i] % 4 {
                0 => None,
                1 => Some((i, Verdict::Unchanged)),
                2 => Some((i, Verdict::Accepted)),
                _ => Some((i, Verdict::Rejected { code: DiagCode::BudgetExceeded })),
            })
            .collect();
        prop_assert_eq!(verdicts, expected);
    }
}

#[test]
fn a_decision_is_scored_against_the_next_snapshot_not_its_own() {
    let (scored, _) = drive_decider(&[4, 0], |i| [5.0, 8.0][i], 1, true);
    assert_eq!(scored.len(), 1);
    assert_eq!(scored[0].time_secs, 0.0);
    assert_eq!(scored[0].realized_throughput, Some(8.0));
    assert_eq!(scored[0].prediction_error, Some(0.25));
}

#[test]
fn the_prediction_error_is_none_when_nothing_was_realized() {
    let (scored, _) = drive_decider(&[4, 4], |_| 0.0, 1, true);
    assert_eq!(scored.len(), 2);
    assert!(scored
        .iter()
        .all(|d| d.realized_throughput.is_none() && d.prediction_error.is_none()));
}

#[test]
fn an_unchanged_proposal_is_never_validated() {
    // The run starts over budget, so validating an identical proposal
    // would reject it.
    let (_, verdicts) = drive_decider(&[1, 1], |_| 1.0, 5, true);
    assert_eq!(verdicts, [(0, Verdict::Unchanged), (1, Verdict::Unchanged)]);
}

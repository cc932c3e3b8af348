//! End-to-end tests of the live DoPE runtime driving the paper's
//! applications with the paper's mechanisms.

use dope_apps::kernels::search::Corpus;
use dope_apps::{dedup, ferret, swaptions, transcode};
use dope_core::Goal;
use dope_mechanisms::{for_goal, Tbf, WqLinear, WqtH};
use dope_runtime::Dope;
use dope_trace::Recorder;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn transcoding_service_adapts_and_conserves_work() {
    let (service, descriptor) = transcode::live_service();
    let dope = Dope::builder(Goal::MinResponseTime { threads: 4 })
        .mechanism(Box::new(WqLinear::new(1, 4, 8.0)))
        .control_period(Duration::from_millis(10))
        .queue_probe(service.queue_probe())
        .launch(descriptor)
        .expect("launch");

    let params = transcode::VideoParams {
        frames: 4,
        width: 32,
        height: 32,
    };
    // Light phase, then a burst that must push WQ-Linear to narrow widths.
    for id in 0..8u64 {
        service
            .queue
            .enqueue(transcode::make_video(id, params))
            .unwrap();
        std::thread::sleep(Duration::from_millis(25));
    }
    for id in 8..48u64 {
        service
            .queue
            .enqueue(transcode::make_video(id, params))
            .unwrap();
    }
    service.queue.close();
    let report = dope.wait().expect("drains");

    assert_eq!(service.stats.completed(), 48, "every video transcoded");
    assert_eq!(service.stats.response().count(), 48);
    assert!(
        report.reconfigurations >= 1,
        "the burst must trigger at least one reconfiguration"
    );
}

/// Blocks until `recorder` holds a `ReconfigureEpoch` event; panics
/// after `bound`.
fn wait_for_reconfiguration(recorder: &Recorder, bound: Duration) {
    let t0 = Instant::now();
    while !recorder
        .records()
        .iter()
        .any(|r| r.event.kind() == "ReconfigureEpoch")
    {
        assert!(
            t0.elapsed() < bound,
            "no reconfiguration was applied within {bound:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn ferret_conserves_queries_across_reconfigurations() {
    let corpus = Arc::new(Corpus::synthetic(1500, 3));
    let (pipe, descriptor) = ferret::live_pipeline(corpus);
    ferret::submit_queries(&pipe, 600);

    let recorder = Recorder::bounded(1 << 16);
    let dope = Dope::builder(Goal::MaxThroughput { threads: 6 })
        .mechanism(Box::new(Tbf::new()))
        .control_period(Duration::from_millis(20))
        .queue_probe(pipe.queue_probe())
        .recorder(recorder.clone())
        .launch(descriptor)
        .expect("launch");
    // The batch can finish before TBF's first consult; hold the source
    // open until a reconfiguration has been applied, so the queries are
    // conserved across at least one suspend/relaunch cycle.
    wait_for_reconfiguration(&recorder, Duration::from_secs(20));
    pipe.source.close();
    let report = dope.wait().expect("batch completes");

    assert_eq!(
        pipe.stats.completed(),
        600,
        "no query may be lost across suspend/relaunch cycles"
    );
    // TBF balances or fuses; either way it must have acted at least once
    // (the initial even split is not balanced for ferret).
    assert!(report.reconfigurations >= 1);
}

#[test]
fn dedup_pipeline_deduplicates_under_dope() {
    let (pipe, descriptor, store) = dedup::live_pipeline();
    dedup::submit_streams(&pipe, 12, 30_000, 0.5);
    pipe.source.close();

    let dope = Dope::builder(Goal::MaxThroughput { threads: 5 })
        .mechanism(Box::new(Tbf::without_fusion()))
        .control_period(Duration::from_millis(25))
        .queue_probe(pipe.queue_probe())
        .launch(descriptor)
        .expect("launch");
    let _report = dope.wait().expect("batch completes");

    assert_eq!(pipe.stats.completed(), 12);
    let unique = store.lock().len();
    assert!(unique > 0, "chunks were stored");
}

#[test]
fn default_mechanism_for_goal_runs_a_service() {
    let (service, descriptor) = swaptions::live_service();
    let goal = Goal::MinResponseTime { threads: 3 };
    let dope = Dope::builder(goal)
        .mechanism(for_goal(goal))
        .control_period(Duration::from_millis(10))
        .queue_probe(service.queue_probe())
        .launch(descriptor)
        .expect("launch");
    let params = swaptions::PricingParams {
        trials: 400,
        steps: 8,
        chunks: 4,
    };
    for id in 0..20u64 {
        service
            .queue
            .enqueue(swaptions::make_request(id, params))
            .unwrap();
    }
    service.queue.close();
    dope.wait().expect("drains");
    assert_eq!(service.stats.completed(), 20);
}

#[test]
fn wqt_h_live_switches_modes() {
    let (service, descriptor) = transcode::live_service();
    let dope = Dope::builder(Goal::MinResponseTime { threads: 4 })
        .mechanism(Box::new(WqtH::new(3.0, 4, 2, 2)))
        .control_period(Duration::from_millis(8))
        .queue_probe(service.queue_probe())
        .launch(descriptor)
        .expect("launch");
    let params = transcode::VideoParams {
        frames: 2,
        width: 32,
        height: 32,
    };
    // WQT-H starts SEQ; a long light phase must flip it to PAR.
    for id in 0..30u64 {
        service
            .queue
            .enqueue(transcode::make_video(id, params))
            .unwrap();
        std::thread::sleep(Duration::from_millis(12));
    }
    service.queue.close();
    let report = dope.wait().expect("drains");
    assert_eq!(service.stats.completed(), 30);
    assert!(
        report.reconfigurations >= 1,
        "light load must flip WQT-H into the PAR state"
    );
}

#[test]
fn recorded_live_trace_replays_identically() {
    let recorder = dope_trace::Recorder::bounded(1 << 14);
    let (service, descriptor) = transcode::live_service();
    let dope = Dope::builder(Goal::MinResponseTime { threads: 4 })
        .mechanism(Box::new(WqLinear::new(1, 4, 8.0)))
        .control_period(Duration::from_millis(10))
        .queue_probe(service.queue_probe())
        .recorder(recorder.clone())
        .launch(descriptor)
        .expect("launch");

    let params = transcode::VideoParams {
        frames: 4,
        width: 32,
        height: 32,
    };
    // Same slow-then-burst load as the adaptation test above so WQ-Linear
    // is forced through at least one reconfiguration epoch.
    for id in 0..8u64 {
        service
            .queue
            .enqueue(transcode::make_video(id, params))
            .unwrap();
        std::thread::sleep(Duration::from_millis(25));
    }
    for id in 8..48u64 {
        service
            .queue
            .enqueue(transcode::make_video(id, params))
            .unwrap();
    }
    service.queue.close();
    let report = dope.wait().expect("drains");
    assert!(report.reconfigurations >= 1, "burst must force an epoch");

    // The flight recording round-trips through the JSONL wire format.
    let jsonl = recorder.to_jsonl();
    let records = dope_trace::parse_jsonl(&jsonl).expect("live trace parses");
    assert_eq!(records[0].event.kind(), "Launched");
    assert_eq!(records.last().unwrap().event.kind(), "Finished");

    // The human-readable timeline renders every phase of the decision loop.
    let timeline = dope_trace::render_timeline(&records);
    assert!(timeline.contains("LAUNCH"), "timeline: {timeline}");
    assert!(timeline.contains("SNAPSHOT"));
    assert!(timeline.contains("PROPOSE"));
    assert!(timeline.contains("EPOCH"));
    assert!(timeline.contains("FINISH"));

    // Replaying the trace through dope-sim reproduces the exact sequence
    // of accepted configurations the live executive committed.
    let outcome = dope_trace::replay_into_sim(&records).expect("replay");
    assert!(
        outcome.matches(),
        "live trace must replay to the same accepted-config sequence: \
         recorded {:?} vs replayed {:?}",
        outcome.recorded,
        outcome.replayed
    );
    assert!(
        outcome.recorded.len() >= 2,
        "launch config plus at least one epoch"
    );
}

#[test]
fn early_stop_is_orderly() {
    let (service, descriptor) = transcode::live_service();
    let dope = Dope::builder(Goal::MinResponseTime { threads: 2 })
        .control_period(Duration::from_millis(10))
        .queue_probe(service.queue_probe())
        .launch(descriptor)
        .expect("launch");
    let params = transcode::VideoParams {
        frames: 2,
        width: 32,
        height: 32,
    };
    for id in 0..4u64 {
        service
            .queue
            .enqueue(transcode::make_video(id, params))
            .unwrap();
    }
    std::thread::sleep(Duration::from_millis(60));
    dope.stop();
    let report = dope.wait().expect("stops cleanly");
    assert!(report.elapsed >= Duration::from_millis(50));
}

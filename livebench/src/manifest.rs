//! The benchmark's catalogue of workloads and metrics, and the
//! `BENCHMARK.json` rendered from it.

use dope_core::json::Value;

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 30;

/// A workload and why it is in the benchmark.
#[derive(Debug)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// One-line rationale.
    pub why: &'static str,
}

/// Which direction of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// A reported metric.
#[derive(Debug)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Better direction.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// The workloads.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "transcode_open",
        why: "x264 nest under WQ-Linear, open-loop Poisson 150 videos/s (~40% of saturation): kernels do most CPU work, queue wait and ~8 reconfigurations/s set latency",
    },
    Workload {
        name: "ferret_batch",
        why: "ferret pipeline + fused alternative under TBF, closed 25k-query batches: fine-grained items make hand-offs, dispatch and TaskCx/record paths about half the CPU",
    },
    Workload {
        name: "overload_shed",
        why: "admit->serve nest behind a Shed{64} gate, Poisson 8000 offers/s (~2.5x capacity): the only workload whose admission offer path is hot",
    },
];

use Better::{Higher, Lower};

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[Metric] = &[
    e2e("throughput_jobs_per_s", "1/s", Higher, 0.25),
    e2e("goodput_jobs_per_s", "1/s", Higher, 0.25),
    e2e("latency_p50_s", "s", Lower, 0.25),
    e2e("latency_p99_s", "s", Lower, 0.25),
    e2e("cpu_s_per_job", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.2),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Per-layer metrics, printed by every traced run and measured on every
/// workload. Timings that exist only on some workloads (admission offer,
/// stage busy and wait, reconfiguration pause, validation) are printed
/// as text lines instead, so no workload reports a time it never took.
pub const PER_LAYER: &[Metric] = &[
    layer("gen.lag_p99_s", "s", Lower),
    layer("gen.offered", "count", Higher),
    layer("admission.admitted", "count", Higher),
    layer("admission.shed", "count", Lower),
    layer("queue.enqueue_ns_p99", "ns", Lower),
    layer("queue.wait_s_p50", "s", Lower),
    layer("queue.wait_s_p99", "s", Lower),
    layer("queue.depth_mean", "count", Lower),
    layer("kernel.busy_s_per_job", "s", Lower),
    layer("kernel.calls", "count", Lower),
    layer("service_s_p50", "s", Lower),
    layer("runtime.overhead_s_per_job", "s", Lower),
    layer("pool.dispatched_per_job", "count", Lower),
    layer("runtime.invocations_per_job", "count", Lower),
    layer("monitor.overhead_ratio", "ratio", Lower),
    layer("reconfig.count", "count", Lower),
    layer("reconfig.partial_ratio", "ratio", Higher),
    layer("mechanism.consults", "count", Lower),
    layer("mechanism.consult_us_p50", "us", Lower),
    layer("mechanism.consult_us_p99", "us", Lower),
    layer("mechanism.accept_ratio", "ratio", Higher),
    layer("trace.events_per_s", "1/s", Lower),
    layer("trace.dropped", "count", Lower),
    layer("trace.overhead_ratio", "ratio", Lower),
    layer("metrics.render_us_p50", "us", Lower),
];

/// The command that runs the benchmark from the repository root.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "livebench/Cargo.toml",
    "--",
];

fn string(s: &str) -> Value {
    Value::String(s.to_string())
}

fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn metric(m: &Metric) -> Value {
    let better = match m.better {
        Lower => "lower",
        Higher => "higher",
    };
    let mut fields = vec![
        ("name", string(m.name)),
        ("unit", string(m.unit)),
        ("better", string(better)),
    ];
    if let Some(bound) = m.bound {
        fields.push(("bound", Value::from_f64(bound)));
    }
    object(fields)
}

/// The `BENCHMARK.json` document.
#[must_use]
pub fn manifest() -> Value {
    object(vec![
        (
            "command",
            Value::Array(COMMAND.iter().map(|s| string(s)).collect()),
        ),
        ("paths", Value::Array(vec![string("livebench")])),
        ("run_seconds", Value::Number(RUN_SECONDS)),
        (
            "workloads",
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|w| object(vec![("name", string(w.name)), ("why", string(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Value::Array(PER_LAYER.iter().map(metric).collect()),
        ),
    ])
}

/// Renders a document with one array element per line, two-space
/// indented, ending in a newline.
#[must_use]
pub fn pretty(doc: &Value) -> String {
    let Value::Object(fields) = doc else {
        return doc.to_json() + "\n";
    };
    let mut out = String::from("{\n");
    for (i, (key, value)) in fields.iter().enumerate() {
        let body = match value {
            Value::Array(items) if items.iter().any(|v| matches!(v, Value::Object(_))) => {
                let rows: Vec<String> = items
                    .iter()
                    .map(|v| format!("    {}", v.to_json()))
                    .collect();
                format!("[\n{}\n  ]", rows.join(",\n"))
            }
            v => v.to_json(),
        };
        let comma = if i + 1 < fields.len() { "," } else { "" };
        out.push_str(&format!("  \"{key}\": {body}{comma}\n"));
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{valid_name, valid_unit};
    use dope_core::json::parse;
    use std::collections::HashSet;

    #[test]
    fn names_units_and_bounds_follow_the_contract() {
        let mut seen = HashSet::new();
        for w in WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate {}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.unit);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest));
    }

    #[test]
    fn benchmark_json_round_trips_and_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = parse(&text).expect("strict JSON");
        assert_eq!(doc, manifest(), "regenerate with --emit-manifest");
        assert_eq!(pretty(&doc), text, "byte-for-byte round trip");
        assert_eq!(parse(&doc.to_json()).unwrap(), doc);
        let keys: Vec<&str> = match &doc {
            Value::Object(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("top level is an object"),
        };
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(text.len() <= 64 * 1024);
    }
}

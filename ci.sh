#!/usr/bin/env bash
# Offline-friendly CI for the DoPE reproduction workspace.
#
# The build environment has no crates.io access; all third-party
# dependencies are in-tree shims (see shims/README.md), so everything
# below runs with the network hard-disabled.
#
# Usage: ./ci.sh [--quick]
#   --quick   skip the release build (format, lint, debug tests only)

set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true
QUICK=0
[[ "${1:-}" == "--quick" ]] && QUICK=1

step() { printf '\n==> %s\n' "$*"; }

step "cargo fmt --check"
cargo fmt --all -- --check

step "cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

step "dope-lint --strict (workspace contract lint)"
# Findings, reasonless waivers, and blind passes (missing anchors) all
# fail the gate; accepted waivers are printed for review.
cargo run -q --offline -p dope-lint --bin dope-lint -- --strict .

step "dope-lint --json round-trips through the strict codec"
cargo run -q --offline -p dope-lint --bin dope-lint -- --json . \
  | cargo run -q --offline -p dope-lint --bin dope-lint -- --parse-report -

if [[ "$QUICK" -eq 0 ]]; then
  step "cargo build --release"
  cargo build --release --offline
fi

step "cargo test -q"
cargo test -q --offline

step "cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --quiet

step "cargo test --doc"
cargo test -q --doc --workspace --offline

if [[ "$QUICK" -eq 0 ]]; then
  step "metrics smoke: live scrape + overhead regression"
  # A tiny live run that serves and scrapes its own Prometheus endpoint
  # and asserts the monitoring-overhead ratio stays under the ceiling.
  cargo test -q --release --offline --test metrics_smoke

  step "metrics smoke: dope-trace stats on a fresh recording"
  TRACE_TMP="$(mktemp -d)"
  trap 'rm -rf "$TRACE_TMP"' EXIT
  cargo run -q --release --offline -p dope-trace --bin dope-trace -- \
    record "$TRACE_TMP/smoke.jsonl"
  cargo run -q --release --offline -p dope-trace --bin dope-trace -- \
    stats "$TRACE_TMP/smoke.jsonl" | grep -q "finished:"
  cargo run -q --release --offline -p dope-trace --bin dope-trace -- \
    replay "$TRACE_TMP/smoke.jsonl"

  step "fault smoke: panic injection under every failure policy (release)"
  # The supervision layer must hold with release-build optimizations:
  # panicking replicas are contained, accounted, and handled per policy.
  cargo test -q --release --offline --test failure_injection

  step "fault smoke: failure racing a partial drain (release)"
  # The nastiest interleaving the delta path adds: a replica detonates
  # while a partial drain is in flight. The accepted target must be
  # retired as superseded and the failure policy's full drain must win.
  # (The suite above already covers it; this filtered run makes the
  # interleaving visible by name in the CI log.)
  cargo test -q --release --offline --test failure_injection \
    failure_during_partial_drain_supersedes_the_target
  cargo test -q --release --offline --test partial_reconfig

  step "fault smoke: dope-trace record -> stats round trip with TaskFailed"
  # The record CLI cannot inject panics, so a fixture trace carrying
  # TaskFailed events checks the consumer half: stats must count the
  # failures per path and the timeline must render them.
  FAULT_TRACE="$TRACE_TMP/faults.jsonl"
  printf '%s\n' \
    '{"v": 1, "seq": 0, "t": 0.1, "kind": "FeatureRead", "feature": "SystemPower", "value": 612.5}' \
    '{"v": 1, "seq": 1, "t": 0.5, "kind": "TaskFailed", "path": "0.1", "reason": "worker panicked: boom", "policy": "restart"}' \
    '{"v": 1, "seq": 2, "t": 0.9, "kind": "TaskFailed", "path": "0.1", "reason": "worker panicked: boom again", "policy": "restart"}' \
    '{"v": 1, "seq": 3, "t": 1.5, "kind": "Finished", "completed": 48, "reconfigurations": 1, "dropped_events": 0}' \
    > "$FAULT_TRACE"
  cargo run -q --release --offline -p dope-trace --bin dope-trace -- \
    stats "$FAULT_TRACE" | grep -q "2 failed replica(s)"
  cargo run -q --release --offline -p dope-trace --bin dope-trace -- \
    timeline "$FAULT_TRACE" | grep -q "FAILED"

  step "explain smoke: traced fig11 run -> decision audit (text + strict JSON)"
  # A short traced fig11 config must yield a non-empty decision audit:
  # the recording carries DecisionTraced events, `explain` renders them,
  # and `explain --json` re-emits strict JSONL that parses back through
  # the codec (piping it into a second `explain -` proves exactly that —
  # a loose re-encoding would be rejected on the way back in).
  FIG11_TRACE="$TRACE_TMP/fig11.jsonl"
  cargo run -q --release --offline -p dope-bench --bin fig11 -- \
    --quick "--trace=$FIG11_TRACE" > /dev/null
  cargo run -q --release --offline -p dope-trace --bin dope-trace -- \
    explain "$FIG11_TRACE" > "$TRACE_TMP/audit.txt"
  grep -q "decision audit:" "$TRACE_TMP/audit.txt"
  cargo run -q --release --offline -p dope-trace --bin dope-trace -- \
    explain "$FIG11_TRACE" --json > "$TRACE_TMP/decisions.jsonl"
  cargo run -q --release --offline -p dope-trace --bin dope-trace -- \
    explain "$TRACE_TMP/decisions.jsonl" > "$TRACE_TMP/audit-rt.txt"
  grep -q "decision audit:" "$TRACE_TMP/audit-rt.txt"

  step "overload smoke: shedding gate storm -> admission stats -> decision audit"
  # The live overload example (docs/overload.md) storms a Shed-gated
  # two-stage service, asserting conservation and a non-zero shed count
  # in-process; the trace it writes must carry AdmissionDecision events
  # (stats renders the admission section with the gate's totals) and a
  # non-empty decision audit from the ShedAware-wrapped mechanism.
  OVERLOAD_TRACE="$TRACE_TMP/overload.jsonl"
  cargo run -q --release --offline --example overload -- "$OVERLOAD_TRACE" > /dev/null
  cargo run -q --release --offline -p dope-trace --bin dope-trace -- \
    stats "$OVERLOAD_TRACE" > "$TRACE_TMP/overload-stats.txt"
  grep -q "admission:" "$TRACE_TMP/overload-stats.txt"
  grep -q "totals: 20000 offered" "$TRACE_TMP/overload-stats.txt"
  cargo run -q --release --offline -p dope-trace --bin dope-trace -- \
    explain "$OVERLOAD_TRACE" | grep -q "decision audit:"
  cargo test -q --release --offline --test admission_overload

  step "livebench: unit tests (release)"
  # livebench is a package of its own (BENCHMARK.json runs it); nothing
  # else runs its tests. Build into the workspace's target directory and
  # refuse lock-file updates, so the step writes nothing under livebench/.
  LIVEBENCH_TARGET="$PWD/target/livebench"
  CARGO_TARGET_DIR="$LIVEBENCH_TARGET" cargo test -q --release --offline --locked \
    --manifest-path livebench/Cargo.toml

  step "livebench smoke: transcode_open with every video's digest checked"
  # A short run of the two-level service end to end; the last line is
  # the run's JSON verdict, which must report correct outputs.
  CARGO_TARGET_DIR="$LIVEBENCH_TARGET" cargo run -q --release --offline --locked \
    --manifest-path livebench/Cargo.toml -- \
    --workload transcode_open --seed 1 --seconds 3 --trace 0 > "$TRACE_TMP/livebench.txt"
  tail -n 1 "$TRACE_TMP/livebench.txt" | grep -q '"correct": true'

  step "perf smoke: record-path / snapshot / reconfigure / fig11 gates"
  # Reduced-configuration run of the perf gate (docs/performance.md).
  # The binary itself enforces the in-run invariant (sharded record path
  # beats the in-process mutex reference) and diffs against the
  # checked-in quick-mode baseline. The threshold is deliberately loose:
  # shared CI machines jitter, and the gate is for gross regressions (a
  # lock back on the hot path), not scheduler noise.
  PERF_OUT="$TRACE_TMP/BENCH_perf.json"
  cargo run -q --release --offline -p dope-bench --bin perf -- \
    --quick --out="$PERF_OUT" \
    --compare=results/perf-baseline.json --threshold=2.0
  # The emitted report must survive the workspace's strict JSON codec
  # and carry the expected schema tag — and so must the baseline itself.
  cargo run -q --release --offline -p dope-bench --bin perf -- --check="$PERF_OUT"
  cargo run -q --release --offline -p dope-bench --bin perf -- \
    --check=results/perf-baseline.json
fi

step "ci.sh: all checks passed"

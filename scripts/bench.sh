#!/usr/bin/env bash
# Bench telemetry pipeline: builds the workspace twice (hooks on / obs-off),
# measures the small workload suite plus the detector hot path in each, and
# merges the pair into a schema-versioned BENCH_<n>.json whose
# `obs_overhead_pct` field proves the observability layer stays inside its
# <=5% hot-path budget.
#
# Usage:
#   scripts/bench.sh [out.json]                  # default: BENCH_local.json
#   BENCH_ITERS=500 BENCH_HOT_ITERS=200000 scripts/bench.sh quick.json
#   BENCH_BASELINE=BENCH_3.json scripts/bench.sh # also gate vs a baseline
#
# The merged report can be compared across commits with
#   predator bench-diff old.json new.json --tolerance 0.5
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_local.json}"
ITERS="${BENCH_ITERS:-2000}"
HOT_ITERS="${BENCH_HOT_ITERS:-2000000}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

echo "==> criterion smoke (obs overhead groups)"
# The vendored criterion shim runs fast; full statistics come from the
# measure step below, this just keeps the bench targets compiling & running.
cargo bench -q -p predator-bench --bench obs_overhead -- --quick >/dev/null 2>&1 ||
  cargo bench -q -p predator-bench --bench obs_overhead >/dev/null

echo "==> measuring with observability hooks ON"
cargo build --release -q -p predator-bench
target/release/bench_telemetry measure "$WORK/obs_on.json" \
  --iters "$ITERS" --hot-iters "$HOT_ITERS"

echo "==> measuring with observability hooks compiled OUT (obs-off)"
cargo build --release -q -p predator-bench --features obs-off
target/release/bench_telemetry measure "$WORK/obs_off.json" \
  --iters "$ITERS" --hot-iters "$HOT_ITERS"

# Leave the tree in the default (hooks-on) configuration for later steps.
cargo build --release -q -p predator-bench -p predator-cli

echo "==> merging into $OUT"
target/release/bench_telemetry merge "$WORK/obs_on.json" "$WORK/obs_off.json" "$OUT"

if [[ -n "${BENCH_BASELINE:-}" && -f "${BENCH_BASELINE}" ]]; then
  echo "==> gating against ${BENCH_BASELINE}"
  target/release/predator bench-diff "$BENCH_BASELINE" "$OUT" \
    --tolerance "${BENCH_TOLERANCE:-0.5}"
fi

# Trace-pipeline telemetry: .ptrace vs JSONL size, record/decode throughput,
# sharded-analysis speedup. Refresh the committed artifact with
#   BENCH_TRACE_OUT=BENCH_4.json scripts/bench.sh
TRACE_OUT="${BENCH_TRACE_OUT:-BENCH_trace_local.json}"
echo "==> trace pipeline bench -> $TRACE_OUT"
target/release/bench_trace "$TRACE_OUT" --iters "${BENCH_TRACE_ITERS:-100000}"

# Fleet pipeline telemetry: corpus ingest throughput, merged-report build
# time, and trend time over a >=10M-event synthetic multi-trace corpus with
# one deliberately corrupted member (loss accounting always exercised).
# Refresh the committed artifact with
#   BENCH_FLEET_OUT=BENCH_6.json scripts/bench.sh
FLEET_OUT="${BENCH_FLEET_OUT:-BENCH_fleet_local.json}"
echo "==> fleet corpus bench -> $FLEET_OUT"
target/release/bench_fleet "$FLEET_OUT" \
  --traces "${BENCH_FLEET_TRACES:-8}" \
  --events-per-trace "${BENCH_FLEET_EVENTS:-1250000}"

# Live-monitoring overhead: serve-mode passes (HTTP endpoint + scraper +
# self-overhead watchdog + tsdb sampling + alert-rule evaluation over the
# shipped docs/alerts.rules pack) vs a bare relaxed-tracking baseline, plus
# scrape and monitor-tick latency percentiles. The <=5% overhead gate is
# enforced on >=4 cores; advisory elsewhere. Refresh the committed artifact
# with
#   BENCH_SERVE_OUT=BENCH_8.json scripts/bench.sh
SERVE_OUT="${BENCH_SERVE_OUT:-BENCH_serve_local.json}"
echo "==> live-monitoring serve bench -> $SERVE_OUT"
target/release/bench_serve "$SERVE_OUT" \
  --passes "${BENCH_SERVE_PASSES:-200}" \
  --iters "${BENCH_SERVE_ITERS:-20000}"

# What-if layout-replay telemetry: plain-analyze vs full portfolio replay
# throughput, plus the measured ≥90%-removed delta of the suggested padding
# fix (asserted inside the bin, so this step is also a correctness gate).
# Refresh the committed artifact with
#   BENCH_WHATIF_OUT=BENCH_9.json scripts/bench.sh
WHATIF_OUT="${BENCH_WHATIF_OUT:-BENCH_whatif_local.json}"
echo "==> what-if replay bench -> $WHATIF_OUT"
target/release/bench_whatif "$WHATIF_OUT" --iters "${BENCH_WHATIF_ITERS:-50000}"

echo "BENCH OK — wrote $OUT, $TRACE_OUT, $FLEET_OUT, $SERVE_OUT and $WHATIF_OUT"

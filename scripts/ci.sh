#!/usr/bin/env bash
# Local mirror of .github/workflows/ci.yml — run before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test --workspace -q (loom models walked to the end)"
# tests/loom_model.rs bounds its schedule count by default (tier-1);
# here every tree is explored exhaustively.
PREDATOR_LOOM_EXHAUSTIVE=1 cargo test --workspace -q

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> one tracking discipline (the mode fork must not grow back)"
# `if`, not `! grep`: errexit ignores a status inverted with `!`.
if grep -rnE 'TrackingMode|tracking[-_]mode|TrackCore|UnitCore' \
  crates src tests examples README.md DESIGN.md; then
  echo "a second tracking discipline is back" >&2
  exit 1
fi

echo "==> one trace door (format sniffing and the JSONL range knobs must not grow back)"
if grep -rnE 'sniff_format|TraceFormat|jsonl_range' \
  crates src tests examples README.md DESIGN.md; then
  echo "a second way for a file to become events is back" >&2
  exit 1
fi

echo "==> one perf record (the retired bench bins, their schema and gate verb, and the policy registry must not grow back)"
if grep -rnE 'BENCH_[0-9]|bench-diff|bench\.sh|bench_(telemetry|trace|fleet|serve|whatif)|predator-bench/1|register_policy|policy_by_name' \
  --exclude-dir={target,benchmark,.git} \
  --exclude={CHANGES.md,ROADMAP.md,ISSUE.md,ci.sh,ci.yml} .; then
  echo "a second perf record (or the policy registry) is back" >&2
  exit 1
fi

echo "==> one verb table (the parser lists, the second replay, the profiler and the format aliases must not grow back)"
if grep -rnE 'cmd_replay|cmd_profile|profile-period|CostCenter|obs::profile|const (VALUED|SWITCHES)|--(json|markdown)\b' \
  --exclude-dir={target,benchmark,.git} \
  --exclude={CHANGES.md,ROADMAP.md,ISSUE.md,ci.sh,ci.yml} .; then
  echo "something the verb table replaced is back" >&2
  exit 1
fi
test "$(wc -l < crates/cli/src/main.rs)" -le 400

echo "==> one obs build, one snapshot type (the compile-time twin, the core mirror, the second quantile, the criterion harness and the IR optimizer must not grow back)"
if grep -rnE 'obs-off|criterion|ObsMetric|raw_snapshot|hist_quantile|opt::optimize' \
  --exclude-dir={target,benchmark,.git} \
  --exclude={CHANGES.md,ROADMAP.md,ISSUE.md,ci.sh,ci.yml} .; then
  echo "a second obs build, snapshot type or bench harness is back" >&2
  exit 1
fi

echo "==> one shadow constructor (a hand-zeroed shadow array must not grow back)"
if grep -rnE 'resize_with\(.*Atomic' crates/shadow crates/core; then
  echo "a shadow array is zeroed by hand again; use predator_shadow's zeroed()" >&2
  exit 1
fi

echo "==> one MESI store, one line hasher (per-core maps, the unread cache modes and a copied hasher must not grow back)"
if grep -nE 'Vec<Hash(Map|Set)|fn with_capacity' crates/sim/src/mesi.rs ||
  grep -rnE 'MesiSim::with_(capacity|sectors|domains)|SectorGeometry|MissClass|make_room|cross_domain|sector_conflict' crates; then
  echo "MesiSim grew a collection per core or a capacity/sector/domain mode back; it is one holder-set automaton" >&2
  exit 1
fi
test "$(grep -rhE 'struct .*Hasher' crates | wc -l)" -eq 1
grep -q 'pub struct LineHasher' crates/obs/src/recorder.rs
if command -v cc > /dev/null; then
  # The SIGPROF sampler (scripts/sample/) only has to keep building.
  cc -O2 -shared -fPIC -Wall -Wextra -o /dev/null scripts/sample/prof.c
fi

echo "==> one report builder (a second resolver, label or finding constructor must not grow back)"
if grep -rnE 'fn site_(label|of)\b' crates/core crates/policy crates/cli; then
  echo "a second site label is back; ObjectReport::label() is the one" >&2
  exit 1
fi
BUILDER=$(awk '/#\[cfg\(test\)\]/ { exit } { print }' crates/core/src/builder.rs)
test "$(grep -E '\bFinding \{' <<< "$BUILDER" | grep -vc -e '->')" -eq 1
test "$(wc -l < crates/core/src/report.rs)" -le 900
echo "    builder.rs: $(wc -l <<< "$BUILDER") non-test lines"

echo "==> one door to a lock prefix (a detector update goes through its Mode)"
# The hot files may not issue a relaxed read-modify-write of their own: the
# std atomics' RMWs live in crates/shadow/src/mode.rs, behind Shared/Exclusive.
# Release publications (TrackSlots, UnitList) are rare and stay atomic.
for f in crates/core/src/{runtime,track,lockfree,predict}.rs crates/shadow/src/counters.rs; do
  if awk '/#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f" |
    grep -E '\.(fetch_add\(|compare_exchange)' | grep -v 'Ordering::Release'; then
    echo "a read-modify-write bypasses the detector's Mode (predator_shadow::mode)" >&2
    exit 1
  fi
done
grep -q 'compare_exchange' crates/shadow/src/mode.rs

echo "==> one checksum, one decoder (an unsafe or per-arch twin and a second crc32/decode_events must not grow back)"
if grep -rnE 'unsafe|std::arch|core::arch|is_x86_feature_detected' crates/trace/src; then
  echo "crates/trace/src reaches for unsafe or an arch intrinsic; its checksum and decoder are safe, portable code" >&2
  exit 1
fi
# The bitwise CRC and the checked decoder survive only as test oracles.
for name in crc32 decode_events; do
  test "$(for f in crates/trace/src/*.rs; do
    awk '/#\[cfg\(test\)\]/ { exit } { print }' "$f"
  done | grep -cE "fn $name\b")" -eq 1
done

echo "==> one offline loop (the shard planner, the dispatcher and the CPU-count default must not grow back)"
# Offline analysis is one sequential pass (DESIGN.md, "Why there is no
# sharding"). The recorder's tests in segment.rs/writer.rs do spawn scoped
# threads, so that one name is held to the two files of the offline verbs.
if grep -rnE 'ShardPlan|sync_channel|shard_dispatch|trace_scan|DISPATCH_BATCH' crates/trace/src ||
  grep -nE 'thread::(scope|spawn)' crates/trace/src/{analyze,whatif}.rs ||
  grep -rnE 'available_parallelism|shard_count' crates/cli/src; then
  echo "a second offline loop, or a default that picks one, is back" >&2
  exit 1
fi

echo "==> one monitoring system (the embedded TSDB, the alert engine, their routes, option and verbs must not grow back)"
# History and alerting are a Prometheus scraping serve's /metrics (README,
# "History and alerting"); the in-process store and rule engine had no
# other reader.
if grep -rnE 'Tsdb|AlertEngine|parse_rules|"/query"|"/alerts"|--rules|alerts (lint|eval)' crates; then
  echo "a second monitoring system is back; /metrics is all serve exports for history and alerting" >&2
  exit 1
fi

echo "==> one event stream, one snapshot document (the JSONL event sink, its option, the scrape delta and the policy trait must not grow back)"
# The --trace-timeline file carries every detector transition; /snapshot is
# the cumulative snapshot --metrics writes; ThresholdPolicy is the policy.
if grep -rnE 'EventSink|FieldVal|obs::events\b|trace-events|DeltaTracker|SnapshotDelta|snapshot-delta|trait Policy' \
  --exclude={ci.sh,ci.yml} \
  crates src tests examples shims scripts .github; then
  echo "a second event stream, snapshot document or policy interface is back" >&2
  exit 1
fi

echo "==> non-test source lines under crates/ (scripts/loc.sh)"
scripts/loc.sh

echo "==> explain/diff smoke (flight recorder + CI gate)"
cargo build --release -p predator-cli
PRED=target/release/predator
SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT
$PRED run boost --sensitive --threads 4 --iters 300 --format json --fixed > "$SMOKE/clean.json"
$PRED run boost --sensitive --threads 4 --iters 300 --format json > "$SMOKE/bad.json"
$PRED explain "$SMOKE/bad.json" > "$SMOKE/explain.txt"
head -n 12 "$SMOKE/explain.txt"
grep -q "Timeline for cache line" "$SMOKE/explain.txt"
$PRED diff "$SMOKE/clean.json" "$SMOKE/clean.json"
if $PRED diff "$SMOKE/clean.json" "$SMOKE/bad.json"; then
  echo "diff gate failed to fail on a regression" >&2
  exit 1
fi
echo "diff gate correctly rejected the regression"

echo "==> record/analyze smoke (.ptrace pipeline)"
# The tracked histogram run is deterministic, so an offline analysis of a
# recording must reproduce the live detector's findings exactly.
$PRED run histogram --sensitive --iters 2000 --no-recorder --format json > "$SMOKE/live.json"
$PRED record histogram --iters 2000 -o "$SMOKE/run.ptrace"
$PRED trace info "$SMOKE/run.ptrace" | grep -q "events"
$PRED analyze "$SMOKE/run.ptrace" --sensitive --format json > "$SMOKE/offline.json"
$PRED diff "$SMOKE/live.json" "$SMOKE/offline.json"
echo "offline analysis matches the live run"
# The committed fixture was written by the build before the sliced checksum
# and the windowed decoder: read in full, it shows no loss; with one payload
# byte flipped it costs that chunk and a warning (a panic would be exit 101).
FIXTURE=crates/trace/tests/fixtures/v1_small.ptrace
$PRED trace info "$FIXTURE" --deep > "$SMOKE/fixture.txt"
grep -q "events:  368 in 5 event chunk(s)" "$SMOKE/fixture.txt"
grep -q "loss:    0 chunk(s) skipped, 0 record(s) lost, 0 byte(s) skipped, truncated: no" "$SMOKE/fixture.txt"
cp "$FIXTURE" "$SMOKE/flipped.ptrace"
printf '\377' | dd of="$SMOKE/flipped.ptrace" bs=1 seek=100 conv=notrunc status=none
$PRED trace info "$SMOKE/flipped.ptrace" --deep |
  grep -q "loss:    1 chunk(s) skipped, 100 record(s) lost, 388 byte(s) skipped, truncated: no"
$PRED analyze "$SMOKE/flipped.ptrace" --sensitive --format json \
  > "$SMOKE/flipped.json" 2> "$SMOKE/flipped.err"
grep -q '"events": 268' "$SMOKE/flipped.json"
grep -q "warning: .*flipped.ptrace is damaged: 1 chunk(s) skipped, 100 record(s) lost" "$SMOKE/flipped.err"
echo "fixture reads without loss; a flipped byte costs one chunk"

echo "==> import smoke (trace cat -> trace import round trip; replay == analyze)"
# JSONL is an edge conversion: `trace cat` out, `trace import` in, the same
# events either way. The import carries no attribution (JSONL has none) and
# derives its own range, so the recording and its re-import are compared
# event for event; two generations of import, which share both, must also
# analyse to the same findings. An imported trace is an ordinary .ptrace:
# `fleet ingest` takes it. Un-imported text is refused, naming the verb.
$PRED trace cat "$SMOKE/run.ptrace" > "$SMOKE/run.jsonl"
$PRED trace import "$SMOKE/run.jsonl" -o "$SMOKE/back.ptrace"
$PRED trace cat "$SMOKE/back.ptrace" > "$SMOKE/back.jsonl"
cmp "$SMOKE/run.jsonl" "$SMOKE/back.jsonl"
$PRED trace import "$SMOKE/back.jsonl" -o "$SMOKE/back2.ptrace"
$PRED analyze "$SMOKE/back.ptrace" --sensitive --format json > "$SMOKE/back.json"
$PRED analyze "$SMOKE/back2.ptrace" --sensitive --format json > "$SMOKE/back2.json"
$PRED diff "$SMOKE/back.json" "$SMOKE/back2.json"
$PRED diff "$SMOKE/back2.json" "$SMOKE/back.json"
grep -q '"invalidations"' "$SMOKE/back.json"
$PRED fleet ingest "$SMOKE/back.ptrace" --corpus "$SMOKE/imported" --sensitive
if $PRED analyze "$SMOKE/run.jsonl" --sensitive 2> "$SMOKE/refused.txt"; then
  echo "analyze read JSONL without an import" >&2
  exit 1
fi
grep -q "predator trace import" "$SMOKE/refused.txt"
# `replay` is `analyze` with the flight recorder on.
$PRED replay "$SMOKE/run.ptrace" --sensitive --format json > "$SMOKE/replay.json"
$PRED diff "$SMOKE/replay.json" "$SMOKE/offline.json"
$PRED diff "$SMOKE/offline.json" "$SMOKE/replay.json"
echo "import round-trips; replay matches analyze"

echo "==> --shards is inert smoke (analyze + whatif: absent == 1 == 4, text and JSON)"
# `--shards <N>` stays on `analyze` and `whatif` because the benchmark
# harness passes it: validated, then without effect. stdout is the same
# bytes (JSON less the process-global obs block) without it, at 1 and at 4,
# and `diff` is empty both ways. histogram is one line cluster, word_count
# five; the preamble counts them and no longer mentions shards.
$PRED record word_count --iters 3000 -o "$SMOKE/multi.ptrace"
for trace in run multi; do
  for verb in analyze whatif; do
    for k in absent 1 4; do
      out="$SMOKE/$trace-$verb-$k"
      opt=""
      [[ $k == absent ]] || opt="--shards $k"
      $PRED $verb "$SMOKE/$trace.ptrace" --sensitive $opt > "$out.txt"
      $PRED $verb "$SMOKE/$trace.ptrace" --sensitive $opt --format json > "$out.json"
      sed '/^  "obs": {/,/^  }/d' "$out.json" > "$out.body"
      grep -q '"events"' "$out.body"
    done
    for k in 1 4; do
      cmp "$SMOKE/$trace-$verb-absent.txt" "$SMOKE/$trace-$verb-$k.txt"
      cmp "$SMOKE/$trace-$verb-absent.body" "$SMOKE/$trace-$verb-$k.body"
      $PRED diff "$SMOKE/$trace-$verb-absent.json" "$SMOKE/$trace-$verb-$k.json"
      $PRED diff "$SMOKE/$trace-$verb-$k.json" "$SMOKE/$trace-$verb-absent.json"
    done
  done
done
head -n 1 "$SMOKE/run-analyze-4.txt" |
  grep -qx "analyzed [0-9]* events, 1 line cluster(s), attribution metadata applied"
head -n 1 "$SMOKE/multi-analyze-4.txt" |
  grep -qx "analyzed [0-9]* events, 5 line cluster(s), attribution metadata applied"
grep -q '"verified"' "$SMOKE/run-whatif-4.body"
if $PRED analyze "$SMOKE/run.ptrace" --shards 0 2> "$SMOKE/shards0.txt"; then
  echo "--shards 0 was accepted" >&2
  exit 1
fi
grep -q "shards must be at least 1" "$SMOKE/shards0.txt"
echo "--shards changes nothing"

echo "==> policy gate smoke (baseline write -> gated re-analysis, both exit paths)"
# Baseline the histogram trace's findings: a gated re-analysis of the same
# trace must pass (everything baselined), while a different workload's trace
# introduces new warning-severity callsites that must trip the gate. The
# SARIF documents are what CI uploads as artifacts.
$PRED baseline write "$SMOKE/offline.json" -o "$SMOKE/policy-baseline.json"
$PRED analyze "$SMOKE/run.ptrace" --sensitive --format sarif \
  --baseline "$SMOKE/policy-baseline.json" --fail-on warning > "$SMOKE/predator.sarif"
grep -q '"\$schema"' "$SMOKE/predator.sarif"
$PRED record linear_regression --iters 1000 -o "$SMOKE/policy-new.ptrace"
if $PRED analyze "$SMOKE/policy-new.ptrace" --sensitive --format sarif \
    --baseline "$SMOKE/policy-baseline.json" --fail-on warning > "$SMOKE/policy-new.sarif"; then
  echo "policy gate failed to fail on a new finding" >&2
  exit 1
fi
echo "policy gate correctly rejected the new findings"
# The drift view of the same pair, and the HTML reporter's smoke.
$PRED baseline diff "$SMOKE/policy-baseline.json" "$SMOKE/offline.json"
$PRED analyze "$SMOKE/policy-new.ptrace" --sensitive --format html > "$SMOKE/report.html"
grep -qi '<!doctype html>' "$SMOKE/report.html"

echo "==> whatif smoke (record -> verified padding fix -> delta gate, both exit paths)"
# The recorded histogram run has an observed false-sharing finding whose
# suggested padding fix must verify with a measured >=90% invalidation
# reduction at every portfolio geometry; a deliberately useless user edit
# (1 byte of padding far outside the hot object) must trip --min-delta.
$PRED whatif "$SMOKE/run.ptrace" --sensitive > "$SMOKE/whatif.txt"
grep -q "WHAT-IF REPLAY" "$SMOKE/whatif.txt"
grep -q "% removed" "$SMOKE/whatif.txt"
$PRED whatif "$SMOKE/run.ptrace" --sensitive --min-delta 90 > /dev/null
if $PRED whatif "$SMOKE/run.ptrace" --sensitive --pad 0x7f000000:1 \
    --min-delta 90 > /dev/null; then
  echo "whatif gate failed to fail on a useless fix" >&2
  exit 1
fi
echo "whatif gate correctly rejected the useless fix"
# analyze --verify-fixes annotates the same findings inline.
$PRED analyze "$SMOKE/run.ptrace" --sensitive --verify-fixes > "$SMOKE/verify.txt"
grep -q "Verified fix" "$SMOKE/verify.txt"

echo "==> fleet smoke (corpus ingest -> merged report -> trend gate, both exit paths)"
# Two recordings of one workload form the baseline corpus; adding a second
# workload introduces new callsites, which must trip --fail-on-regression.
$PRED record histogram --iters 1000 -o "$SMOKE/f1.ptrace"
$PRED record histogram --iters 1500 -o "$SMOKE/f2.ptrace"
$PRED record linear_regression --iters 1000 -o "$SMOKE/f3.ptrace"
$PRED fleet ingest "$SMOKE/f1.ptrace" "$SMOKE/f2.ptrace" \
  --corpus "$SMOKE/baseline" --sensitive
$PRED fleet ingest "$SMOKE/f1.ptrace" "$SMOKE/f2.ptrace" "$SMOKE/f3.ptrace" \
  --corpus "$SMOKE/current" --sensitive
# grep a file, not a pipe: `grep -q` closes the pipe at first match and the
# writer would die on SIGPIPE.
$PRED fleet report --corpus "$SMOKE/current" > "$SMOKE/fleet-report.txt"
grep -q "FLEET REPORT" "$SMOKE/fleet-report.txt"
# A 1-file corpus's stored run must match `analyze` on the same trace.
$PRED analyze "$SMOKE/f1.ptrace" --sensitive --format json > "$SMOKE/f1-direct.json"
RUN_ID=$($PRED fleet report --corpus "$SMOKE/baseline" --format json |
  grep -o '"trace": "f1-[^"]*"' | head -n 1 | cut -d'"' -f4)
$PRED fleet report --corpus "$SMOKE/baseline" --run "$RUN_ID" --format json > "$SMOKE/f1-stored.json"
$PRED diff "$SMOKE/f1-direct.json" "$SMOKE/f1-stored.json"
$PRED diff "$SMOKE/f1-stored.json" "$SMOKE/f1-direct.json"
# Exit path 1: corpus vs itself is steady — the gate passes.
$PRED fleet trend --corpus "$SMOKE/baseline" --baseline "$SMOKE/baseline" \
  --fail-on-regression
# Exit path 2: the added workload's callsites are NEW — the gate must fail.
if $PRED fleet trend --corpus "$SMOKE/current" --baseline "$SMOKE/baseline/corpus.json" \
    --fail-on-regression; then
  echo "fleet trend gate failed to fail on new callsites" >&2
  exit 1
fi
echo "fleet trend gate correctly rejected the new callsites"
$PRED fleet compact --corpus "$SMOKE/current" --keep 1
$PRED fleet report --corpus "$SMOKE/current" > "$SMOKE/fleet-compacted.txt"
grep -q "3 run(s)" "$SMOKE/fleet-compacted.txt"

echo "==> timeline smoke"
$PRED ir examples/programs/false_sharing.pir --threads 2 --iters 2000 \
  --trace-timeline "$SMOKE/trace.json" > /dev/null
grep -q '"traceEvents"' "$SMOKE/trace.json"

echo "==> paper-figure bins still compile"
cargo build --release -q -p predator-bench

echo "==> repo benchmark: harness tests (every layer probe on tiny inputs + essence gate)"
# benchmark/ is a package of its own (BENCHMARK.json declares it); its tests
# run the real CLI of this checkout and hold every report to its essence.
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "==> live monitoring smoke (serve on an ephemeral port, scrape, clean shutdown)"
# The full endpoint matrix (including auth + SIGTERM semantics) is covered
# by the Rust test client in crates/cli/tests/serve.rs; this exercises the
# shipped binary end to end: serve a workload, render the live /snapshot
# through `stats --url`, check that the retired history and alert routes
# answer 404, and shut down via SIGTERM.
cargo test -q -p predator-cli --test serve
$PRED serve histogram --threads 2 --iters 200 --passes 2 \
  --listen 127.0.0.1:0 --watchdog-interval-ms 50 \
  --ready-file "$SMOKE/serve.addr" &
SERVE_PID=$!
for _ in $(seq 1 100); do [[ -s "$SMOKE/serve.addr" ]] && break; sleep 0.1; done
ADDR=$(head -n 1 "$SMOKE/serve.addr" | tr -d '[:space:]')
$PRED stats --url "http://$ADDR" > "$SMOKE/serve-stats.txt"
grep -q "live snapshot from" "$SMOKE/serve-stats.txt"
for route in query alerts; do
  test "$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/$route")" = 404
done
kill "$SERVE_PID"
wait "$SERVE_PID"
echo "serve smoke OK"

echo "==> ThreadSanitizer (nightly + rust-src; skipped when unavailable)"
if rustup toolchain list 2>/dev/null | grep -q '^nightly' &&
  rustup component list --toolchain nightly 2>/dev/null |
    grep -q 'rust-src (installed)'; then
  HOST=$(rustc -vV | sed -n 's/^host: //p')
  RUSTFLAGS="-Zsanitizer=thread" TSAN_OPTIONS=halt_on_error=1 \
    cargo +nightly test -Zbuild-std --target "$HOST" \
    -p predator-core -p predator-sim -p predator-shadow --tests -q
else
  echo "    nightly toolchain with rust-src not installed; skipping TSan locally"
fi

echo "CI OK"

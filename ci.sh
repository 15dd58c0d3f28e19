#!/usr/bin/env bash
# Repo CI gate. Everything here must pass before a change merges.
# Runs fully offline: all third-party deps are vendored under crates/.
#
#   ./ci.sh         the merge gate (fmt, clippy, build, run_all --only
#                   smoke, tests, bench smoke)
#   ./ci.sh bench   hot-path trajectory: run the codec + controller benches
#                   and diff them against the committed BENCH_codec.json
#                   baseline (tolerance band via BENCH_TOLERANCE, default 4x)
#   ./ci.sh faults  fault-injection campaign: every architecture under
#                   seeded media faults + I-CASH crash/torn-write recovery,
#                   asserting zero silent corruption (fixed seeds; exits
#                   nonzero on any violation)
#   ./ci.sh trace   observability gate: trace-oracle equalities (event
#                   totals vs report/summary counters for all six systems),
#                   zero-perturbation and thread-count determinism of the
#                   JSONL artifact, the pinned golden trace, and the
#                   histogram property suite
#   ./ci.sh pipeline  staged-write-pipeline gate: depth-1 differential
#                   byte-identity (run_faults stdout + run_all trace JSONL
#                   vs golden fixtures), crash proptests with K tickets in
#                   flight, and the pipeline bench vs BENCH_pipeline.json
#   ./ci.sh scale   sharded-engine gate: shards=1 byte-identity (run_faults
#                   stdout + run_all trace vs the same pinned goldens as
#                   the pipeline gate),
#                   one-shard router differential + per-shard trace oracle,
#                   cross-shard crash proptest, campaign determinism across
#                   worker counts, and run_scale vs BENCH_scale.json (the
#                   4x 8-vs-1-shard wall-speedup assert turns on only on
#                   hosts with >= 8 workers)
#   ./ci.sh queue   device command-queue gate: queue=off byte-identity
#                   (run_all trace JSONL + run_faults stdout vs the same
#                   pinned goldens — the default build must not change by
#                   a byte), the queue-free/queued differential suite, the
#                   HDD position-model and scheduler proptests, the queue
#                   trace oracle, the ablation depth trajectory vs
#                   BENCH_queue.json (virtual-time figures, exact), and
#                   the run_scale queue-on > queue-off throughput assert
#   ./ci.sh chaos   device-health gate: health=off byte-identity (run_faults
#                   stdout + run_all trace vs the same pinned goldens), the
#                   health-free and device-death differential/property
#                   suites, and the run_chaos campaign (SSD/HDD death,
#                   double death, crash mid-rebuild, backpressure) with its
#                   output diffed against ci/golden/run_chaos.txt and
#                   asserted identical across worker counts
#   ./ci.sh scenarios  scenario-engine gate: scenario=off byte-identity
#                   (run_all trace JSONL + run_faults stdout vs the same
#                   pinned goldens), the replay-parser and arrival-process
#                   property suites, the scenario-free differential, the
#                   pinned golden MSR replay, the run_scenarios campaign
#                   (replay grid, open-loop trace oracle, churn storm)
#                   diffed against ci/golden/run_scenarios.txt and
#                   asserted identical across worker counts, and the
#                   burst-vs-closed trace_profile contrast (the open-loop
#                   run must show queued time; the closed loop must not)
set -euo pipefail
cd "$(dirname "$0")"

run_benches() {
  mkdir -p target
  CRITERION_JSON="$PWD/target/bench_codec_current.json" \
    cargo bench -q -p icash-bench --bench codec
  CRITERION_JSON="$PWD/target/bench_controller_current.json" \
    cargo bench -q -p icash-bench --bench controller
}

# Default-build byte-identity under the env a gate sets (`ENV=VAL ...`):
# run_faults stdout vs its golden, and the run_all trace JSONL (written to
# target/run_all_trace_<tag>.jsonl) vs the pinned sha256 + line count.
defaults_identical() {
  local tag="$1"
  shift
  cargo build -q --release -p icash-bench
  echo "==> $tag byte-identity: run_faults stdout vs golden"
  env "$@" ./target/release/run_faults > "target/run_faults_$tag.txt"
  diff "target/run_faults_$tag.txt" ci/golden/run_faults_depth1.txt
  echo "==> $tag byte-identity: run_all trace JSONL vs pinned sha256"
  local trace="target/run_all_trace_$tag.jsonl"
  env "$@" ICASH_OPS=300 ICASH_THREADS=1 \
    ./target/release/run_all "target/run_all_$tag.md" --trace "$trace" > /dev/null
  {
    sha256sum "$trace" | cut -d' ' -f1
    wc -l < "$trace"
  } > "target/run_all_trace_$tag.sha256"
  diff "target/run_all_trace_$tag.sha256" ci/golden/run_all_trace_depth1.sha256
}

if [[ "${1:-}" == "faults" ]]; then
  echo "==> fault-injection campaign (run_faults)"
  cargo run -q --release -p icash-bench --bin run_faults
  exit 0
fi

if [[ "${1:-}" == "trace" ]]; then
  echo "==> trace oracle: event totals vs report/summary counters"
  cargo test -q -p icash --test trace_oracle
  echo "==> trace zero-perturbation: attached tracer changes nothing"
  cargo test -q -p icash --test trace_free
  echo "==> trace determinism: JSONL byte-identical across worker counts"
  cargo test -q -p icash-bench --test trace_determinism
  echo "==> golden trace: pinned 64-op I-CASH event stream"
  cargo test -q -p icash-metrics --test golden_trace
  echo "==> histogram properties: merge laws + percentile ordering"
  cargo test -q -p icash-metrics --test prop_histogram
  echo "TRACE OK"
  exit 0
fi

if [[ "${1:-}" == "pipeline" ]]; then
  echo "==> pipeline unit + differential suite (depth-1 golden, group commit, barriers)"
  cargo test -q -p icash --test pipeline
  echo "==> crash proptests with K tickets in flight (fault_recovery)"
  cargo test -q -p icash --test fault_recovery
  defaults_identical depth1
  echo "==> pipeline bench: depth 1 vs 16 write cycle vs BENCH_pipeline.json"
  CRITERION_JSON="$PWD/target/bench_pipeline_current.json" \
    cargo bench -q -p icash-bench --bench pipeline
  cargo run -q --release -p icash-bench --bin bench_diff -- \
    BENCH_pipeline.json \
    target/bench_pipeline_current.json
  echo "PIPELINE OK"
  exit 0
fi

if [[ "${1:-}" == "scale" ]]; then
  echo "==> sharded-engine gate: one-shard differential + span readback + per-shard trace oracle"
  cargo test -q -p icash --test shard
  echo "==> cross-shard crash proptest: per-shard recovery never splices across shards"
  cargo test -q -p icash --test fault_recovery cross_shard
  echo "==> campaign determinism: document independent of ICASH_THREADS"
  cargo test -q -p icash-bench --test scale_determinism
  defaults_identical shards1 ICASH_SHARDS=1
  echo "==> run_scale campaign vs BENCH_scale.json"
  scale_env=(CRITERION_JSON="$PWD/target/bench_scale_current.json")
  if [[ "$(nproc)" -ge 8 ]]; then
    echo "    (>= 8 workers: enforcing the 4x 8-vs-1-shard wall speedup)"
    scale_env+=(ICASH_SCALE_ASSERT=4x)
  fi
  env "${scale_env[@]}" \
    cargo run -q --release -p icash-bench --bin run_scale > target/run_scale.txt
  cargo run -q --release -p icash-bench --bin bench_diff -- \
    BENCH_scale.json \
    target/bench_scale_current.json
  echo "SCALE OK"
  exit 0
fi

if [[ "${1:-}" == "chaos" ]]; then
  echo "==> health-off differential: enabled-but-idle health changes nothing"
  cargo test -q -p icash --test health_free
  echo "==> device-death proptest: kill anywhere, rebuild, valid-or-typed reads"
  cargo test -q -p icash --test fault_recovery device_death
  defaults_identical healthoff ICASH_HEALTH=0
  echo "==> chaos campaign (run_chaos): zero silent corruption under device death"
  ./target/release/run_chaos > target/run_chaos_a.txt
  echo "==> chaos byte-identity: run_chaos stdout vs golden"
  diff target/run_chaos_a.txt ci/golden/run_chaos.txt
  echo "==> chaos determinism: campaign output independent of ICASH_THREADS"
  ICASH_THREADS=7 ./target/release/run_chaos > target/run_chaos_b.txt
  diff target/run_chaos_a.txt target/run_chaos_b.txt
  cat target/run_chaos_a.txt | tail -3
  echo "CHAOS OK"
  exit 0
fi

if [[ "${1:-}" == "queue" ]]; then
  echo "==> queue-free differential: no queue, no counters, no events, identical bytes"
  cargo test -q -p icash --test queue_free
  echo "==> queue trace oracle: queue-event totals vs device reports"
  cargo test -q -p icash --test trace_oracle icash_queue
  echo "==> HDD position-model + scheduler unit/property suite"
  cargo test -q -p icash-storage hdd
  cargo test -q -p icash-storage queue
  defaults_identical queueoff
  echo "==> ablation depth trajectory vs BENCH_queue.json (+ trend assert)"
  ICASH_OPS=8000 ICASH_QUEUE_TREND_ASSERT=1 \
    CRITERION_JSON="$PWD/target/bench_queue_current.json" \
    ./target/release/ablation_queue_depth > target/ablation_queue_depth.txt
  cargo run -q --release -p icash-bench --bin bench_diff -- \
    BENCH_queue.json \
    target/bench_queue_current.json
  echo "==> run_scale: queue-on must beat queue-off at 16 shards (virtual throughput)"
  ICASH_OPS=4000 ICASH_SCALE_SHARDS=1,8,16 ICASH_SCALE_CLIENTS=4 \
    ICASH_QUEUE_DEPTH=16 ICASH_QUEUE_ASSERT=1 \
    ./target/release/run_scale > target/run_scale_queue.txt
  echo "QUEUE OK"
  exit 0
fi

if [[ "${1:-}" == "scenarios" ]]; then
  echo "==> replay-parser + arrival-process property suites"
  cargo test -q -p icash-workloads --test prop_replay
  cargo test -q -p icash-workloads --test prop_arrivals
  echo "==> scenario engine unit suite (parser, dispatcher, churn storm)"
  cargo test -q -p icash-workloads replay
  cargo test -q -p icash-workloads arrivals
  cargo test -q -p icash-workloads scenario
  echo "==> scenario-free differential: closed loop emits no open-loop events"
  cargo test -q -p icash --test scenario_free
  echo "==> golden MSR replay: pinned 64-row event stream through I-CASH"
  cargo test -q -p icash --test golden_replay
  echo "==> queue-latency histogram shard-merge property"
  cargo test -q -p icash-metrics --test prop_histogram
  defaults_identical scenoff
  echo "==> scenario campaign (run_scenarios): replay grid + open-loop oracle + churn"
  ./target/release/run_scenarios > target/run_scenarios_a.txt
  echo "==> scenario byte-identity: run_scenarios stdout vs golden"
  diff target/run_scenarios_a.txt ci/golden/run_scenarios.txt
  echo "==> scenario determinism: campaign output independent of ICASH_THREADS"
  ICASH_THREADS=4 ./target/release/run_scenarios > target/run_scenarios_b.txt
  diff target/run_scenarios_a.txt target/run_scenarios_b.txt
  tail -2 target/run_scenarios_a.txt
  echo "==> burst arrivals queue in trace_profile; the closed loop does not"
  ICASH_OPS=300 ICASH_THREADS=1 ICASH_SCENARIO=open-loop ICASH_ARRIVAL=burst \
    ./target/release/run_all target/run_all_burst.md \
    --trace target/run_all_trace_burst.jsonl > /dev/null
  ./target/release/trace_profile target/run_all_trace_burst.jsonl \
    > target/trace_profile_burst.txt
  grep -q "Open-loop queued" target/trace_profile_burst.txt
  ./target/release/trace_profile target/run_all_trace_scenoff.jsonl \
    > target/trace_profile_scenoff.txt
  if grep -q "Open-loop" target/trace_profile_scenoff.txt; then
    echo "closed-loop trace_profile reports open-loop queueing" >&2
    exit 1
  fi
  echo "SCENARIOS OK"
  exit 0
fi

if [[ "${1:-}" == "bench" ]]; then
  echo "==> bench trajectory: codec + controller benches vs BENCH_codec.json"
  run_benches
  cargo run -q --release -p icash-bench --bin bench_diff -- \
    BENCH_codec.json \
    target/bench_codec_current.json \
    target/bench_controller_current.json
  exit 0
fi

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

echo "==> cargo clippy -p icash-core --no-deps -- -D warnings -D clippy::unwrap_used"
cargo clippy -q -p icash-core --no-deps -- -D warnings -D clippy::unwrap_used

echo "==> cargo build --release"
cargo build --release

echo "==> run_all --only fig13: one exhibit, its five SPECsfs cells"
cargo build -q --release -p icash-bench
ICASH_OPS=300 ICASH_THREADS=1 \
  ./target/release/run_all target/run_all_fig13.md --only fig13 2> /dev/null
grep -q "Figure 13" target/run_all_fig13.md
test "$(grep -c "Figure 6(a)" target/run_all_fig13.md)" -eq 0
grep -q "^5 cells," target/run_all_fig13.md
test "$(grep -c " ops/s |$" target/run_all_fig13.md)" -eq 5

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo test -q -p icash-storage --features debug_validate"
cargo test -q -p icash-storage --features debug_validate

echo "==> bench smoke (benches must run and emit CRITERION_JSON)"
run_benches
test -s target/bench_codec_current.json
test -s target/bench_controller_current.json

echo "CI OK"

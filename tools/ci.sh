#!/usr/bin/env bash
# Tier-1 verify + smoke runs: network ablation and bench-JSON emission.
#
#   tools/ci.sh [build-dir]
#
# Mirrors the checks CI runs: configure, build, ctest, exercise the
# event-driven transport end-to-end with tiny parameters, then run the
# micro benches briefly and emit the bench-JSON perf artifact.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build}"

cmake -B "$build" -S "$repo" -DDDS_BUILD_BENCHES=ON
cmake --build "$build" -j
ctest --test-dir "$build" --output-on-failure -j

# Smoke: the network ablation and the lossy-network walkthrough must run
# end-to-end and emit their tables (JSON mirrors included).
"$build/abl10_network" --runs 1 --n 4000 --domain 800 --slots 150 \
  --latencies 0,2 --drops 0,10 --batches 0,5 \
  --outdir "$build/bench_results" --json
"$build/lossy_network" >/dev/null

# Sharding smoke: the coordinator-sharding ablation over a small shard
# grid, plus the sharded-sliding-over-the-wire ablation (the sharding
# suites themselves run under ctest; `ctest -L sharding` is the targeted
# sub-2-minute loop for sharding work).
"$build/abl11_sharding" --runs 1 --n 20000 --sites 8 --shard-list 1,2 \
  --outdir "$build/bench_results" --json
"$build/abl12_sliding_sharding" --runs 1 --slots 120 --shard-list 1,2 \
  --outdir "$build/bench_results" --json
"$build/sharded_sliding_lossy" >/dev/null

# Chaos smoke: the scripted failover walkthrough (kill + corrupted
# restore transfer + resync on a lossy wire) must run end-to-end, and —
# because every fault is seeded — two runs with the same seed must emit
# bit-identical observability artifacts (the replayability contract the
# chaos layer promises).
chaos_dir="$build/chaos_smoke"
mkdir -p "$chaos_dir"
for run in a b; do
  "$build/chaos_failover" --metrics "$chaos_dir/$run.prom" \
    --json "$chaos_dir/$run.json" --trace "$chaos_dir/$run.trace" >/dev/null
done
cmp "$chaos_dir/a.prom" "$chaos_dir/b.prom"
cmp "$chaos_dir/a.json" "$chaos_dir/b.json"
cmp "$chaos_dir/a.trace" "$chaos_dir/b.trace"
grep -q "dds_chaos_kills 1" "$chaos_dir/a.prom"
grep -q "dds_supervisor_recoveries 1" "$chaos_dir/a.prom"
echo "ci: chaos smoke replayed bit-identically"

# Observability smoke: the lossy sharded walkthrough with metrics +
# tracing on must emit a parseable Chrome trace and a Prometheus
# snapshot that round-trips through the parser (obs_report --check).
obs_dir="$build/obs_smoke"
mkdir -p "$obs_dir"
"$build/sharded_sliding_lossy" --metrics "$obs_dir/snapshot.prom" \
  --json "$obs_dir/snapshot.json" --trace "$obs_dir/trace.json" >/dev/null
"$build/obs_report" --prom "$obs_dir/snapshot.prom" --check >/dev/null
python3 - "$obs_dir/trace.json" "$obs_dir/snapshot.json" <<'PY'
import json, sys
trace = json.load(open(sys.argv[1]))
events = trace["traceEvents"]
assert events, "trace has no events"
assert all("ph" in e and "ts" in e for e in events), "malformed event"
snapshot = json.load(open(sys.argv[2]))
assert snapshot["counters"].get("net.wire.msgs", 0) > 0, "no wire traffic"
print(f"obs smoke: {len(events)} trace events, "
      f"{len(snapshot['counters'])} counters")
PY

# Socket smoke: the infinite-window protocol over real UDP sockets,
# one OS process per node (coordinator + 2 sites via tools/dds_node).
# Two identical runs must produce bit-identical samples — the
# multi-process deployment is deterministic in the seed. (The in-depth
# differential harness against Bus/SimNetwork runs under `ctest -L
# socket` above.)
socket_dir="$build/socket_smoke"
mkdir -p "$socket_dir"
for run in a b; do
  rm -f "$socket_dir/coord.port"
  "$build/dds_node" --coordinator --transport udp --num-sites 2 \
    --seed 7 --sample-size 8 --port-file "$socket_dir/coord.port" \
    --out "$socket_dir/sample_$run.txt" &
  coord_pid=$!
  "$build/dds_node" --site 0 --transport udp --num-sites 2 --seed 7 \
    --sample-size 8 --elements 500 --port-file "$socket_dir/coord.port" &
  site0_pid=$!
  "$build/dds_node" --site 1 --transport udp --num-sites 2 --seed 7 \
    --sample-size 8 --elements 500 --port-file "$socket_dir/coord.port" &
  site1_pid=$!
  wait "$coord_pid" "$site0_pid" "$site1_pid"
done
cmp "$socket_dir/sample_a.txt" "$socket_dir/sample_b.txt"
[[ -s "$socket_dir/sample_a.txt" ]]
echo "ci: socket smoke (3-process UDP) replayed bit-identically"

# Socket ablation smoke: abl16 runs the infinite-window protocol over
# UDP and TCP against the Bus and exits 1 when any socket sample
# diverges from the Bus reference.
"$build/abl16_socket" --runs 1 --outdir "$build/bench_results"
echo "ci: abl16_socket samples agreed with the Bus"

# Multi-tenant smoke: the dashboard example drives the shared
# TenantRegistry against per-tenant naive samplers and exits nonzero
# unless every checked tenant answer is bit-identical.
"$build/multi_tenant_dashboard" --slots 800 >/dev/null
echo "ci: multi-tenant dashboard agreed with naive samplers"

# Bench smoke: short micro-bench run, JSON into bench_results/ — the
# per-commit point on the perf trajectory (archived by CI).
# min_time 0.25: the measured floor below which same-build runs trip
# the 25% compare threshold (see bench_compare.py's noise-floor note).
"$repo/tools/bench_json.sh" "$build" "$build/bench_results" 0.25

# Perf tripwire (SOFT): when a baseline snapshot of bench_results exists
# (CI restores the previous run's artifact into bench_baseline/), diff
# the trajectories and warn — never block — past the noise threshold.
if [[ -d "$build/bench_baseline" ]]; then
  python3 "$repo/tools/bench_compare.py" "$build/bench_results" \
    "$build/bench_baseline" --threshold 0.25 \
    || echo "ci: WARNING: bench_compare flagged a perf regression (soft)"
else
  echo "ci: no bench_baseline/ snapshot; skipping perf compare"
fi

# Ratio gate (HARD): a hardware-independent table column — abl14's
# batched-over-single throughput ratio — must clear its floor even on a
# noisy box. Unlike the timing tripwire above, a failure here blocks:
# these ratios measure algorithmic effects, not wall clock. The baseline
# dir is optional (per-file regression check applies when it exists).
python3 "$repo/tools/bench_compare.py" "$build/bench_results" \
  "$build/bench_baseline" --threshold 0.25 --gates-only \
  --gate-table "abl14_batch_ingest.json:xB/x1:1.2"

# Benchmark self-tests (~12 s): the perfbench harness checks its own
# timers, reference answers and the per-layer attribution of a traced
# run against the untraced one.
python3 "$repo/perfbench/run.py" --selftest
echo "ci: perfbench self-tests passed"

echo "ci: OK"

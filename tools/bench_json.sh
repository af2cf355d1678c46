#!/usr/bin/env bash
# Emit the bench-JSON perf trajectory for this checkout.
#
#   tools/bench_json.sh [build-dir] [outdir] [min-time-seconds]
#
# Runs the Google-Benchmark micro suites (micro_substrates, abl4_treap)
# with JSON output into <outdir>/BENCH_<name>.json, then the table
# benches whose --json mirrors belong in the trajectory (abl11 sharding,
# abl12 sliding sharding over wires, abl7 order statistics). These files
# are the per-PR perf record: CI archives them as artifacts so the
# trajectory of the hot paths is comparable across commits.
#
# Failure policy: any required bench that is missing or exits nonzero
# fails this script LOUDLY (a silently dropped point would read as "no
# regression" in the trajectory). Only the Google-Benchmark micros may
# be skipped, since the library is an optional dependency — and even
# then at least one must run.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build}"
outdir="${2:-$build/bench_results}"
# 0.25s floor: at 0.05 back-to-back identical runs differ by up to
# +180% on this class of 1-core CI box; at 0.25 the worst same-build
# delta is ~±13%, inside bench_compare.py's 25% default threshold.
min_time="${3:-0.25}"

mkdir -p "$outdir"

fail() {
  echo "bench_json: ERROR: $*" >&2
  exit 1
}

ran=0
for micro in micro_substrates abl4_treap; do
  bin="$build/$micro"
  if [[ ! -x "$bin" ]]; then
    echo "bench_json: $micro not built (Google Benchmark missing?); skipping"
    continue
  fi
  # Note: the min_time flag takes a plain double (no 's' suffix) on the
  # benchmark versions we support.
  "$bin" --benchmark_min_time="$min_time" \
         --benchmark_format=console \
         --benchmark_out_format=json \
         --benchmark_out="$outdir/BENCH_${micro}.json" \
    || fail "$micro exited nonzero"
  echo "bench_json: wrote $outdir/BENCH_${micro}.json"
  ran=$((ran + 1))
done

if [[ "$ran" -eq 0 ]]; then
  fail "no micro benches available"
fi

# A table bench in the trajectory: must exist and must succeed.
run_table_bench() {
  local name="$1"
  shift
  local bin="$build/$name"
  [[ -x "$bin" ]] || fail "required bench binary $name is not built"
  "$bin" "$@" --outdir "$outdir" --json > /dev/null \
    || fail "$name exited nonzero"
  echo "bench_json: wrote $outdir/${name%%_*}*.json ($name)"
}

# Coordinator-sharding trajectory: the sharding ablation's JSON mirror
# records throughput, message cost, and route-cache hit rate per shard
# count.
run_table_bench abl11_sharding --runs 2 --n 100000

# Sharded sliding windows over realistic wires: merged-query agreement
# (the exact protocol must stay at 100), message cost vs shards, and
# throughput.
run_table_bench abl12_sliding_sharding --runs 1 --slots 250

# Fault-tolerance trajectory: abl13's table records checkpoint
# bandwidth (bytes/slot vs cadence vs shards) and recovery latency in
# slots under a deterministic kill schedule — with the agree% column
# pinning the exact protocol at 100 through every recovery.
run_table_bench abl13_recovery --runs 1 --slots 200 \
  --shard-list 2,3 --cadence-list 8,16

# Substrate trajectory: abl7's A7b table records the order-statistic
# SDominanceSet's swept-tuples-per-update and ns/update vs |T| — the
# "bottom-s update cost sublinear in |T|" record.
run_table_bench abl7_bottom_s_window --runs 1

# Batched-ingest trajectory: abl14's xB/x1 column is the
# hardware-independent batched-over-single throughput ratio per layer
# (sampler = combined dominance sweep; deployment = per-element wire
# contract preserved). Bit-identity is pinned by the test suite; this
# records only the price.
run_table_bench abl14_batch_ingest --runs 1 --slots 4000

# Multi-tenant serving trajectory: abl15 pins agree% at 100 (shared
# structure vs dedicated per-tenant samplers; the binary exits nonzero
# on any disagreement) and records the sub-linear memory and ingest
# ratios vs tenant count.
run_table_bench abl15_multitenant --runs 1 --slots 2000

#!/usr/bin/env bash
# Bench-regression gate: compare freshly produced benchmark JSON against
# the committed baselines in baselines/ and fail the build when any
# floor metric (speedup, reduction, rows/sec, hit rate) drops more than
# 30% below its baseline. Re-baseline by copying a fresh BENCH_*.json
# over the matching baselines/ file and committing it.
#
#   scripts/bench_compare.sh [fresh_dir]
#
# Expects BENCH_exec.json, BENCH_plan.json, BENCH_cache.json,
# BENCH_wal.json, BENCH_scale.json, and BENCH_route.json in fresh_dir
# (default: the repo root — where scripts/check.sh leaves them).
set -euo pipefail
cd "$(dirname "$0")/.."

fresh_dir="${1:-.}"
status=0

for name in BENCH_exec.json BENCH_plan.json BENCH_cache.json BENCH_wal.json BENCH_scale.json BENCH_route.json; do
  fresh="$fresh_dir/$name"
  baseline="baselines/$name"
  if [ ! -f "$fresh" ]; then
    echo "bench_compare.sh: missing fresh $fresh (run the benches first)" >&2
    exit 1
  fi
  if [ ! -f "$baseline" ]; then
    echo "bench_compare.sh: missing $baseline (commit a baseline to enable the gate)" >&2
    exit 1
  fi
  cargo run --release -q -p bestpeer-bench --bin bench_compare -- \
    --fresh "$fresh" --baseline "$baseline" --tolerance 0.30 || status=1
done

# BENCH_net.json has no committed baseline: its throughput and RTT
# numbers measure real loopback sockets under whatever load the host
# happens to be carrying, too noisy for a relative floor gate. net_bench
# gates itself instead: it hard-asserts that wire digests match the
# in-process answer and that the subquery p50 RTT stays under an
# absolute 10 ms bound (a quarter of the 40 ms delayed-ACK timer that a
# Nagle stall waits on). Here we just surface the numbers.
net="$fresh_dir/BENCH_net.json"
if [ -f "$net" ]; then
  echo "bench_compare.sh: BENCH_net.json (gated inside net_bench, no baseline):"
  cat "$net"
fi

exit $status

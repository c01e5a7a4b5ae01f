#!/usr/bin/env bash
# Repo-wide verification gate. CI runs exactly these phases; run the
# script locally before pushing.
#
#   scripts/check.sh         # everything (lint + test)
#   scripts/check.sh lint    # fmt + clippy + rustdoc + perfbench type-check only
#   scripts/check.sh test    # build + benches + tests + bench gate only
#
# The split mirrors the two CI jobs so a red job maps to one phase.
set -euo pipefail
cd "$(dirname "$0")/.."

phase="${1:-all}"
case "$phase" in
  all|lint|test) ;;
  *) echo "usage: $0 [lint|test]" >&2; exit 2 ;;
esac

run_lint() {
  echo "==> cargo fmt --all --check"
  cargo fmt --all --check

  echo "==> cargo clippy --workspace --all-targets -- -D warnings"
  cargo clippy --workspace --all-targets -- -D warnings

  echo "==> cargo doc --workspace --no-deps (rustdoc warnings denied)"
  RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

  echo "==> cargo check perfbench (its own workspace, which no workspace command builds: an API break in sql or core fails here, not after the benches)"
  CARGO_TARGET_DIR="$PWD/target" cargo check --locked --manifest-path perfbench/Cargo.toml --all-targets
}

run_test() {
  echo "==> cargo build --release"
  cargo build --release

  echo "==> exec micro-bench (writes BENCH_exec.json + BENCH_plan.json; asserts 2x rows/sec, 5x fewer refresh hops, 5x index point-lookup speedup + seq-scan fallback)"
  cargo run --release -q -p bestpeer-bench --bin exec_bench

  echo "==> cache bench (writes BENCH_cache.json; asserts byte-identical results, >=30% latency cut)"
  cargo run --release -q -p bestpeer-bench --bin cache_bench

  echo "==> wal bench (writes BENCH_wal.json; asserts digest-identical replay, group-commit batching)"
  cargo run --release -q -p bestpeer-bench --bin wal_bench

  echo "==> net bench (writes BENCH_net.json; asserts wire results digest-identical to in-process and subquery p50 RTT under 10 ms)"
  cargo run --release -q -p bestpeer-bench --bin net_bench

  echo "==> scale bench (writes BENCH_scale.json; 10^5+ open-loop sessions vs 120 peers; asserts shedding bounds p99 under 2x overload, elastic scale-out/in, same-seed determinism)"
  cargo run --release -q -p bestpeer-bench --bin scale_bench

  echo "==> route bench (writes BENCH_route.json; asserts >=30% overlay-hop reduction, advisor p99 no worse, byte-identical results advisor on/off and at 1/2/8 threads)"
  cargo run --release -q -p bestpeer-bench --bin route_bench

  echo "==> bench-regression gate (fresh BENCH_*.json vs baselines/, fail on >30% regression)"
  ./scripts/bench_compare.sh

  echo "==> end-to-end benchmark self-test (builds perfbench/, its own workspace, which no workspace build compiles)"
  CARGO_TARGET_DIR="$PWD/target" python3 perfbench/selftest.py

  echo "==> Algorithm 1 smoke (the failover example asserts that a wiped, failed-over peer gets its backed-up rows and a fresh log back)"
  cargo run -q --release --example failover

  echo "==> recovery + durability chaos suites (default threads)"
  cargo test -q -p bestpeer-storage --test wal_file
  cargo test -q -p bestpeer-core --test recovery
  cargo test -q -p bestpeer-chaos --test recovery_chaos

  echo "==> recovery + durability chaos suites (BESTPEER_THREADS=1: replay must be byte-identical on the sequential path too)"
  BESTPEER_THREADS=1 cargo test -q -p bestpeer-core --test recovery
  BESTPEER_THREADS=1 cargo test -q -p bestpeer-chaos --test recovery_chaos

  echo "==> saturation smoke (BESTPEER_THREADS=1: the scale bench must be byte-identical on the sequential path too)"
  BESTPEER_THREADS=1 cargo run --release -q -p bestpeer-bench --bin scale_bench -- --out BENCH_scale_seq.json
  cmp BENCH_scale.json BENCH_scale_seq.json
  rm -f BENCH_scale_seq.json

  echo "==> figures smoke run (must be byte-identical to the committed figures_output.txt; a change that moves simulated latencies commits the new file)"
  figures_out="$(mktemp)"
  cargo run --release -q -p bestpeer-bench --bin figures -- \
    --all --sizes 4,8 --rows 1200 --steps 3 > "$figures_out"
  if ! cmp "$figures_out" figures_output.txt; then
    echo "figures output differs from figures_output.txt (new output: $figures_out)" >&2
    exit 1
  fi
  rm -f "$figures_out"

  echo "==> TCP loopback smoke (bestpeer-node processes must agree with the in-process network)"
  cargo test -q --test net_cluster

  echo "==> cargo test -q (root package: integration tests + examples)"
  cargo test -q

  echo "==> cargo test -q --workspace (every crate)"
  cargo test -q --workspace

  echo "==> cargo test -q --workspace with BESTPEER_THREADS=1 (exact sequential path)"
  BESTPEER_THREADS=1 cargo test -q --workspace
}

if [ "$phase" = "lint" ] || [ "$phase" = "all" ]; then
  run_lint
fi
if [ "$phase" = "test" ] || [ "$phase" = "all" ]; then
  run_test
fi

echo "==> all checks passed ($phase)"

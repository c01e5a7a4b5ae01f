#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at tiny size with a fixed query count (so counters
do not depend on machine speed) and checks three things:

1. every metric named in BENCHMARK.json is emitted, and nothing else,
   in both the untraced and the traced run, with every answer correct;
2. deterministic counts repeat exactly across two runs with the same
   seed: rows scanned, overlay hops, cache hits and misses, WAL
   appends, rows changed and bytes per subquery;
3. a different seed changes the generated inputs.

It also checks that metrics.json maps every metric and workload of
BENCHMARK.json.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Counters that must repeat exactly for a fixed seed and query count.
DETERMINISTIC = [
    "sql.rows_scanned_per_query",
    "locate.hops_per_query",
    "rescache.lookups",
    "rescache.misses",
    "rescache.hit_ratio",
    "router.lookups",
    "wal.appends_per_refresh",
    "loader.rows_changed_per_refresh",
    "refresh.count",
    "transport.bytes_per_subquery",
]


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny", "--queries", "120", "--setups", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    ).stdout.splitlines()
    digest = next(line.split()[-1] for line in out if line.startswith("# inputs_digest"))
    return digest, json.loads(out[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    with open(os.path.join(HERE, "metrics.json")) as f:
        layers = json.load(f)
    for kind in ("end_to_end", "per_layer"):
        check([m["name"] for m in layers[kind]] == [m["name"] for m in spec[kind]],
              f"metrics.json maps every {kind} metric")
    check([w["name"] for w in layers["workloads"]] == [w["name"] for w in spec["workloads"]],
          "metrics.json sizes every workload")

    for w in spec["workloads"]:
        name = w["name"]
        d0, plain = run(name, 7, 0)
        d1, first = run(name, 7, 1)
        d2, second = run(name, 7, 1)
        d3, _ = run(name, 8, 0)
        for kind, res in (("end_to_end", plain), ("per_layer", first)):
            want = {m["name"] for m in spec[kind]}
            check(set(res["metrics"]) == want, f"{name}: emits exactly the {kind} metrics")
            check(res["correct"] and res["failed"] == 0, f"{name}: {kind} run answers correct")
        for m in DETERMINISTIC:
            a, b = first["metrics"][m]["value"], second["metrics"][m]["value"]
            check(a == b, f"{name}: {m} repeats ({a} vs {b})")
        check(d0 == d1 == d2, f"{name}: same seed, same inputs")
        check(d3 != d0, f"{name}: another seed, other inputs")
    if failures:
        print(f"{len(failures)} check(s) failed")
        sys.exit(1)
    print("all checks passed")


if __name__ == "__main__":
    main()

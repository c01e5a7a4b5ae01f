#!/usr/bin/env python3
"""Build and run the BestPeer++ end-to-end benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The benchmark package in this
directory is built in release mode against the checkout's crates (into
$CARGO_TARGET_DIR, default .bench_build), then run with the given
arguments. Its output is passed through; the last line is one JSON
object with `correct`, `attempted`, `failed` and `metrics`. Before it is
printed, the metric names are checked against BENCHMARK.json: the
untraced run must report exactly the `end_to_end` metrics, the traced
run exactly the `per_layer` ones. `--workload all` runs every workload
of BENCHMARK.json in turn and prints each one's output.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        return json.load(f)


def run_one(exe, args, out_dir, expected):
    """Run one workload; return its output lines, or exit on an error."""
    run = subprocess.run([exe, *args, "--out-dir", out_dir], stdout=subprocess.PIPE, text=True)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stdout.write("\n".join(line for line in lines if not line.startswith("{")) + "\n")
        fail(f"benchmark exited with code {run.returncode}")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("benchmark printed no result line")
    if expected is not None and expected != set(result["metrics"]):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        got = set(result["metrics"])
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(expected - got)}, "
             f"extra {sorted(got - expected)}")
    return lines, result


def main():
    args = sys.argv[1:]
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        fail(f"no BestPeer++ source tree at {ROOT}; run from a checkout root")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=dict(os.environ, CARGO_TARGET_DIR=target), stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")
    exe = os.path.join(target, "release", "perfbench")
    out_dir = os.path.join(target, "perfbench")
    bench = spec()
    traced = "--trace" in args and args[args.index("--trace") + 1] != "0"
    expected = None if bench is None else {m["name"] for m in bench["per_layer" if traced else "end_to_end"]}
    if "--workload" in args and args[args.index("--workload") + 1] == "all":
        if bench is None:
            fail("--workload all needs BENCHMARK.json")
        i = args.index("--workload") + 1
        correct = True
        for w in bench["workloads"]:
            lines, result = run_one(exe, args[:i] + [w["name"]] + args[i + 1:], out_dir, expected)
            sys.stdout.write("\n".join(lines) + "\n")
            correct = correct and result["correct"]
        sys.exit(0 if correct else 1)
    lines, _ = run_one(exe, args, out_dir, expected)
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()

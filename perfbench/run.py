#!/usr/bin/env python3
"""Builds the perfbench driver from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload annotate_news --seed 1 \
        --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) inside the
current directory. The driver's output is passed through; its last line
is the JSON result. Exits non-zero, without a result line, when the
build fails, the driver crashes or times out, or the result does not
name exactly the metrics BENCHMARK.json declares. A run whose outputs
fail verification prints its result with "correct": false and exits 1.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("annotate_news", "search_small", "search_large")
# Configure + build + run stay under 900 s on a cold checkout; a warm
# run stays under 180 s.
CONFIGURE_TIMEOUT_S = 60
BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds the driver; returns its path."""
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        stdout=sys.stderr, check=True, timeout=CONFIGURE_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench_driver",
         "-j", str(min(4, os.cpu_count() or 1))],
        stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "perfbench_driver")


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Returns the parsed result, or raises ValueError."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a whole number >= 1")
    declared = declared_metrics(trace)
    if declared is not None and set(result["metrics"]) != declared:
        raise ValueError("metrics differ from BENCHMARK.json: "
                         f"{sorted(set(result['metrics']) ^ declared)}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    try:
        driver = build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        log(f"build failed: {e}")
        return 1

    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans", os.path.join(build_dir, f"spans_{args.workload}.tsv"),
           "--git-sha", git_sha()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"driver did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        log(f"driver exited {proc.returncode} without a result")
        return 1
    try:
        result = check_result(lines[-1], args.trace == 1)
    except (ValueError, KeyError, json.JSONDecodeError) as e:
        sys.stderr.write(proc.stdout)
        log(f"malformed result: {e}")
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...   # every workload in turn
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds
`.bench_build/` (the library under src/ plus perfbench/*.cpp, Release);
later calls only rebuild what changed. Build output goes to stderr, so the
last line of stdout is the run's result JSON. The exit code is the
benchmark's: 0 when every checked answer matched its reference.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")

# The seed a run uses when none is given, and the held-out seed a change
# that claims a gain must also be measured on (never tuned against).
DEFAULT_SEED = 1
HELD_OUT_SEED = 982451653

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no src/ next to perfbench/: run from the root of a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            cmd += ["-G", "Ninja"]
        step(cmd)
    jobs = str(min(4, os.cpu_count() or 1))
    step(["cmake", "--build", BUILD, "-j", jobs])


def step(cmd):
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, timeout=BUILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if done.returncode != 0:
        fail("failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    build()
    bench_json = os.path.join(ROOT, "BENCHMARK.json")
    if args.selftest:
        sys.exit(execute([os.path.join(BUILD, "perfbench_selftest"),
                          bench_json]))
    workloads = [args.workload]
    if args.workload == "all":
        with open(bench_json, encoding="utf-8") as f:
            workloads = [w["name"] for w in json.load(f)["workloads"]]
    status = 0
    for workload in workloads:
        code = execute([os.path.join(BUILD, "perfbench"),
                        "--workload", workload, "--seed", str(args.seed),
                        "--seconds", str(args.seconds),
                        "--trace", str(args.trace)])
        status = status or code
    sys.exit(status)


def execute(cmd):
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False).returncode
    except subprocess.TimeoutExpired:
        fail("timed out after %d s: %s" % (RUN_TIMEOUT_S, " ".join(cmd)))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload smoke_grid|bin2_full|reliability \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root.  The first call configures and builds the
benchmark (CMake, Release) into .bench_build/; later calls rebuild
incrementally.  Build output goes to stderr; stdout carries the metric
report, and its last line is the JSON result.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# Untraced runs spawn the benchmark this many extra times up to its first
# unit, so setup_s is a median rather than one process start.
SETUP_SPAWNS = 20


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def check_call(cmd, timeout):
    try:
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=timeout, check=True)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        fail(f"build step failed: {' '.join(cmd)}: {e}")


def build(target):
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found; run from the repository "
             "root")
    source = os.path.abspath("perfbench")
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={source}\n" not in f.read():
                shutil.rmtree(BUILD_DIR)  # configured for another checkout
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not os.path.isfile(cache):
        cmd = ["cmake", "-S", source, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        check_call(cmd, BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    check_call(["cmake", "--build", BUILD_DIR, "--target", target, "-j", jobs],
               max(1.0, deadline - time.monotonic()))
    return os.path.join(BUILD_DIR, target)


def tagged_value(line, tag):
    """The benchmark prints 'ready <CLOCK_MONOTONIC seconds>' just before
    its first timed unit, and an untraced run 'slowdown <ratio>', its
    median host slowdown, just before the result."""
    parts = line.split()
    if len(parts) == 2 and parts[0] == tag:
        return float(parts[1])
    return None


def setup_sample(cmd):
    t0 = time.monotonic()
    try:
        out = subprocess.run(cmd + ["--setup-only"], capture_output=True,
                             text=True, timeout=RUN_TIMEOUT_S, check=True)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail(f"set-up run failed: {e}")
    for line in out.stdout.splitlines():
        stamp = tagged_value(line, "ready")
        if stamp is not None:
            return stamp - t0
    fail("set-up run printed no ready stamp")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload",
                    choices=["smoke_grid", "bin2_full", "reliability"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    if args.selftest:
        binary = build("perfbench_selftest")
        sys.exit(subprocess.run([binary], timeout=RUN_TIMEOUT_S).returncode)
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    binary = build("perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setups = []
    if args.trace == 0:
        setups = [setup_sample(cmd) for _ in range(SETUP_SPAWNS)]

    t0 = time.monotonic()
    try:
        run = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(run.stderr)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        fail(f"benchmark exited with code {run.returncode}")
    result = json.loads(lines[-1])
    slowdown = None
    for line in lines[:-1]:
        stamp = tagged_value(line, "ready")
        if stamp is not None:
            setups.append(stamp - t0)
            continue
        value = tagged_value(line, "slowdown")
        if value is not None:
            slowdown = value
        else:
            print(line)

    if args.trace == 0:
        if slowdown is None or not slowdown > 0:
            fail("benchmark printed no host slowdown")
        # Normalised like the other end-to-end times: set-up slows down
        # with the host too (see perfbench/README.md).
        raw_s = statistics.median(setups)
        setup_s = raw_s / slowdown
        print(f"  {'setup_s':<30} {setup_s:16.9g} s "
              f"(median of {len(setups)} process starts, {raw_s:.6g} s "
              f"raw, over the host slowdown)")
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
        metrics.update(result["metrics"])
        result["metrics"] = metrics
    print(json.dumps(result))


if __name__ == "__main__":
    main()

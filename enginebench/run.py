#!/usr/bin/env python3
"""Builds the engine benchmark from the checkout's sources and runs one workload.

    python3 enginebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 enginebench/run.py --self-test

The build (CMake, Release) goes to .bench_build/ at the checkout root and is
incremental after the first run. Build output goes to stderr; the benchmark's
stdout is passed through, so the last stdout line is the run's JSON result.
With --trace 1 the recorded spans are written under .bench_build/traces/.
Exits nonzero if the build fails, the run exceeds its time limit, or the
results are wrong.
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "enginebench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; returns True on success."""
    steps = []
    if not any(os.path.exists(os.path.join(BUILD_DIR, f))
               for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("enginebench: build failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def run(cmd):
    """Runs cmd in its own process group; on timeout kills the whole group
    (the benchmark forks one process per session)."""
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("enginebench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 3


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark helpers' tests")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")
    sys.stdout.flush()
    if not build():
        return 2
    if args.self_test:
        return run([os.path.join(BUILD_DIR, "enginebench_helpers_test")])
    cmd = [os.path.join(BUILD_DIR, "enginebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(BUILD_DIR, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", trace_dir]
    return run(cmd)


if __name__ == "__main__":
    sys.exit(main())

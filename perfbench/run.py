#!/usr/bin/env python3
"""Repo benchmark entry point.

Builds the simulator and the benchmark driver from source (CMake, into
.bench_build/ at the repo root), runs one workload and forwards the driver's
output; the last line printed is the result JSON object.

    python3 perfbench/run.py --workload city_storm --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the repo root. See perfbench/README.md for the workloads and
metrics.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "digs_perfbench")
WORKLOADS = ("city_storm", "city_sharded", "paper_sweep", "paper_churn")
# Wall-clock cap on one driver run; the benchmark must finish well inside it.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the driver; returns False on any failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: simulator sources (src/) not found; cannot build")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "digs_perfbench",
         "-j", jobs],
    ]
    for step in steps:
        # Build chatter goes to stderr so stdout ends with the result line.
        proc = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if proc.returncode != 0:
            log("perfbench: build step failed: " + " ".join(step))
            return False
    return True


def git_commit():
    """HEAD of the checkout, or "none" when ROOT is not a git work tree's top."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2:
        return "none"
    if os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "none"
    return lines[1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the determinism self-test and exit")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        return 1

    if args.selftest:
        cmd = [BINARY, "--selftest"]
    else:
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--commit", git_commit()]
        if args.trace:
            cmd += ["--spans", os.path.join(
                trace_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: driver exceeded the time limit")
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

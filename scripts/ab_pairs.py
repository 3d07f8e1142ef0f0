#!/usr/bin/env python3
"""Alternating parent/change perfbench pairs for an A/B comparison.

Runs each checkout's perfbench binary (.bench_build/perfbench/digs_perfbench;
`python3 perfbench/run.py --selftest` in a checkout builds it) on the same
workload at the same --seed (default 1) for 20 seconds, alternating which
side runs first in each pair, and prints every pair. Then, per metric: the
parent's median with its quartiles, the change's median, the per-pair
median of change/parent, and in how many pairs the change was better
(direction from BENCHMARK.json). A metric whose median moved by less than
the parent's interquartile range is marked unresolved: the host's own
spread is wider than the change. Last, one claim verdict per metric with a
direction: a gain claim holds when there are at least 10 pairs, the change
is better in at least 9 of every 10 of them, and its median is better than
the parent's by more than the parent's interquartile range.

    python3 scripts/ab_pairs.py PARENT_DIR CHANGE_DIR --workload city_sharded \\
        --pairs 10 [--seed N] [--trace 0|1]

A claimed gain should also hold at a seed not used while writing the
change: pass that seed with --seed.

Exits 1 when the two sides print different `result digest` lines (the
change altered simulated behaviour), 2 when a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BINARY = os.path.join(".bench_build", "perfbench", "digs_perfbench")
# Wall-clock cap on one benchmark run (perfbench/run.py uses the same).
RUN_TIMEOUT_S = 170


def run(checkout, args):
    """One benchmark run; returns (result digest line, {metric: value})."""
    cmd = [os.path.join(checkout, BINARY), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "20",
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"ab_pairs: {checkout} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        sys.exit(2)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(proc.stderr, file=sys.stderr)
        print(f"ab_pairs: {checkout} run failed ({proc.returncode})",
              file=sys.stderr)
        sys.exit(2)
    digest = next((l.strip() for l in lines if "result digest" in l), "")
    result = json.loads(lines[-1])
    return digest, {k: v["value"] for k, v in result["metrics"].items()}


def directions(checkout):
    """Metric name -> "lower"/"higher" from the checkout's BENCHMARK.json."""
    path = os.path.join(checkout, "BENCHMARK.json")
    if not os.path.isfile(path):
        return {}
    with open(path) as f:
        bench = json.load(f)
    return {m["name"]: m["better"]
            for m in bench.get("end_to_end", []) + bench.get("per_layer", [])}


# The claim rule: at least CLAIM_MIN_PAIRS pairs, the change better in at
# least CLAIM_SHARE of them, medians apart by more than the parent's IQR.
CLAIM_MIN_PAIRS = 10
CLAIM_SHARE = 0.9


def claim_verdict(pairs, wins, shift, iqr):
    """"holds", or "fails: <first unmet condition>". `shift` is the median
    change in the better direction (positive = better)."""
    if pairs < CLAIM_MIN_PAIRS:
        return f"fails: {pairs} pairs, needs {CLAIM_MIN_PAIRS}"
    if wins < CLAIM_SHARE * pairs:
        return f"fails: better in {wins}/{pairs}, needs 9 of every 10"
    if not shift > iqr:
        return (f"fails: median better by {shift:.6g}, not more than the "
                f"parent IQR {iqr:.6g}")
    return "holds"


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="parent checkout (repo root)")
    parser.add_argument("change", help="change checkout (repo root)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed, the same on both sides")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    for checkout in sides.values():
        if not os.path.isfile(os.path.join(checkout, BINARY)):
            parser.error(f"no {BINARY} in {checkout}; run "
                         "`python3 perfbench/run.py --selftest` there first")
    better = directions(sides["change"])

    values = {"parent": [], "change": []}
    digests = {"parent": set(), "change": set()}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            digest, metrics = run(sides[side], args)
            digests[side].add(digest)
            values[side].append(metrics)
        print(f"pair {i + 1} ({order[0]} first; parent | change)")
        for name, value in values["parent"][-1].items():
            other = values["change"][-1].get(name, float("nan"))
            print(f"  {name:28s} {value:.6g} | {other:.6g}")
        sys.stdout.flush()

    names = list(values["parent"][0])
    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} pairs, "
          f"trace {args.trace} "
          "(parent median [Q1, Q3] -> change median; per-pair median "
          "change/parent; pairs where the change was better)")
    verdicts = []
    for name in names:
        parent = [v[name] for v in values["parent"] if name in v]
        change = [v[name] for v in values["change"] if name in v]
        if len(parent) != args.pairs or len(change) != args.pairs:
            print(f"  {name}: missing in some runs")
            continue
        p_med, c_med = statistics.median(parent), statistics.median(change)
        q1, q3 = quartiles(parent)
        ratios = [c / p for p, c in zip(parent, change) if p != 0]
        ratio = f"{statistics.median(ratios):.4f}" if ratios else "n/a"
        direction = better.get(name)
        if direction in ("lower", "higher"):
            wins = sum((c < p) if direction == "lower" else (c > p)
                       for p, c in zip(parent, change))
            shift = p_med - c_med if direction == "lower" else c_med - p_med
            verdicts.append(
                (name, claim_verdict(args.pairs, wins, shift, q3 - q1)))
            wins = f"{wins}/{args.pairs}"
        else:
            wins = "n/a"
        note = ("  unresolved" if abs(c_med - p_med) < q3 - q1 else "")
        print(f"  {name:28s} {p_med:.6g} [{q1:.6g}, {q3:.6g}] -> {c_med:.6g}"
              f"  ratio {ratio}  better {wins}{note}")

    print(f"\nclaim verdicts (better in >= 9 of every 10 of >= "
          f"{CLAIM_MIN_PAIRS} pairs, median better by more than the parent "
          "IQR)")
    for name, verdict in verdicts:
        print(f"  claim {name:28s} {verdict}")

    for side in ("parent", "change"):
        if len(digests[side]) != 1:
            print(f"{side} printed more than one result digest: "
                  f"{sorted(digests[side])}")
    if digests["parent"] != digests["change"]:
        print(f"DIGEST MISMATCH: parent {sorted(digests['parent'])} vs "
              f"change {sorted(digests['change'])}")
        return 1
    print(f"digests match: {next(iter(digests['change']))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

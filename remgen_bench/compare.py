#!/usr/bin/env python3
"""Compares two sets of remgen-bench results, refusing mismatched machines.

    python3 remgen_bench/compare.py BASE_DIR HEAD_DIR

Each directory holds the results/*.json files of untraced runs (as run.py
writes them under .bench_build/results/). The two sets must share one
machine fingerprint (CPU count, CPU model, compiler, build type) and, per
workload, one exec-pool width; otherwise nothing is compared and the exit
code is 2. For every workload and end-to-end metric of BENCHMARK.json it
prints both medians and quartile spreads. A head median worse than the base
median by more than the metric's bound is a regression (exit 1); a base
spread wider than the bound makes the metric unresolved.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MACHINE = ("nproc", "cpu_model", "compiler", "build_type")


def load(directory):
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        if path.endswith(".spans.json"):
            continue
        with open(path) as f:
            doc = json.load(f)
        if not doc.get("trace") and not doc.get("smoke"):
            runs.append(doc)
    return runs


def fingerprints(runs):
    machines = {tuple(r["fingerprint"][k] for k in MACHINE) for r in runs}
    widths = {(r["fingerprint"]["workload"], r["fingerprint"]["exec_width"]) for r in runs}
    return machines, widths


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, head = load(sys.argv[1]), load(sys.argv[2])
    if not base or not head:
        print("compare.py: no untraced results in one of the directories", file=sys.stderr)
        return 2
    (base_machines, base_widths), (head_machines, head_widths) = fingerprints(base), fingerprints(head)
    if len(base_machines | head_machines) != 1:
        print(f"compare.py: machine fingerprints differ: {sorted(base_machines | head_machines)}",
              file=sys.stderr)
        return 2
    widths = {}
    for workload, width in base_widths | head_widths:
        widths.setdefault(workload, set()).add(width)
    if any(len(w) > 1 for w in widths.values()):
        print(f"compare.py: exec widths differ: {widths}", file=sys.stderr)
        return 2

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    status = 0
    print(f"{'workload':10} {'metric':16} {'base':>12} {'head':>12} {'change':>8} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for workload in sorted({r["fingerprint"]["workload"] for r in base} &
                           {r["fingerprint"]["workload"] for r in head}):
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            b = [r["gated"][name] for r in base if r["fingerprint"]["workload"] == workload]
            h = [r["gated"][name] for r in head if r["fingerprint"]["workload"] == workload]
            bm, hm = statistics.median(b), statistics.median(h)
            worse = (hm - bm) / bm if metric["better"] == "lower" else (bm - hm) / bm
            if worse > bound:
                verdict = "REGRESSION"
                status = 1
            elif spread(b) > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{workload:10} {name:16} {bm:12.4f} {hm:12.4f} {-worse:+8.3f} "
                  f"{spread(b):7.3f} {bound:6.2f}  {verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""remgen-bench: builds the benchmark program from this checkout and runs it.

One measured run:
    python3 remgen_bench/run.py --workload survey|query_mix|live \
        --seed N --seconds S --trace 0|1

prints the program's metrics, then as its last line one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the `end_to_end` metrics of
BENCHMARK.json with --trace 0, its `per_layer` metrics with --trace 1. The
exit code is 0 only when every correctness check passed.

All three workloads in one go (each prints its metrics; the last line maps
each workload to its summary):
    python3 remgen_bench/run.py --workload all --seed N --seconds S --trace 0|1

Self-test at tiny sizes (all workloads, traced and untraced, every check):
    python3 remgen_bench/run.py --smoke

Run from the repository root. The build and the per-run results go to
.bench_build/ (results/*.json carry the machine fingerprint; compare.py
compares two sets of them).
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
PROGRAM = os.path.join(BUILD, "remgen_bench")
WORKLOADS = ("survey", "query_mix", "live")
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def source_id():
    """The git commit when there is one, else a hash of the sources built."""
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                                capture_output=True, text=True, check=True).stdout.strip()
        if commit:
            return commit
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:12]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no remgen sources under {ROOT}/src; run from a full checkout")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", "remgen_bench"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(step))


def run_program(workload, seed, seconds, trace, smoke=False):
    """Runs one workload; returns (exit code, results dict or None)."""
    tag = f"{workload}-seed{seed}-trace{trace}" + ("-smoke" if smoke else "")
    results_dir = os.path.join(BUILD, "results")
    os.makedirs(results_dir, exist_ok=True)
    out = os.path.join(results_dir, tag + ".json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [PROGRAM, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", out, "--source-id", source_id()]
    if trace:
        cmd += ["--spans", os.path.join(results_dir, tag + ".spans.json")]
    if smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    try:
        code = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    if not os.path.isfile(out):
        return code, None
    with open(out) as f:
        return code, json.load(f)


def summary(spec, results, trace, code):
    """The one-line result: the metrics BENCHMARK.json names, with its units."""
    metrics = {}
    for entry in spec["per_layer" if trace else "end_to_end"]:
        name, unit = entry["name"], entry["unit"]
        if trace:
            found = results["metrics"].get(name)
            if found is None or found["unit"] != unit:
                fail(f"the program did not report {name} in {unit}")
            value = found["value"]
        else:
            if name not in results["gated"]:
                fail(f"the program did not report {name}")
            value = results["gated"][name]
        if not math.isfinite(value):
            fail(f"{name} is not a finite number")
        metrics[name] = {"value": value, "unit": unit}
    attempted, failed = int(results["attempted"]), int(results["failed"])
    return {"correct": code == 0 and failed == 0 and attempted > 0,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def smoke(spec):
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, results = run_program(workload, 1, 3, trace, smoke=True)
            if results is None:
                print(f"smoke {workload} trace={trace}: no results (exit {code})")
                ok = False
                continue
            line = summary(spec, results, trace, code)
            good = line["correct"] and line["failed"] == 0
            print(f"smoke {workload} trace={trace}: attempted={line['attempted']} "
                  f"failed={line['failed']} metrics={len(line['metrics'])} "
                  f"{'ok' if good else 'FAILED'}")
            ok = ok and good
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny self-test of every check")
    args = parser.parse_args()
    if not args.smoke and None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    build()
    spec = load_spec()
    if args.smoke:
        return smoke(spec)
    lines = {}
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        code, results = run_program(workload, args.seed, args.seconds, args.trace)
        if results is None:
            fail(f"{workload} produced no results (exit {code})")
        lines[workload] = summary(spec, results, args.trace, code)
    print(json.dumps(lines if args.workload == "all" else lines[args.workload]))
    return 0 if all(line["correct"] for line in lines.values()) else 1


if __name__ == "__main__":
    sys.exit(main())

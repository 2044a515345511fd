#!/usr/bin/env python3
"""Host-cost benchmark of the Bohr reproduction.

Builds perfbench/ (the repository's src/ libraries plus the hostbench
program) with CMake into .bench_build/perfbench, then runs each requested
workload in its own process, so peak memory and warm caches do not leak
from one workload into the next.

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Run from the repository root. --trace 0 prints the end-to-end metrics;
--trace 1 runs the traced variant, prints the per-layer metrics (with the
end-to-end metric each should move, from perfbench/metrics.json) and
writes the spans to .bench_build/spans/. The last line of standard
output is one JSON object: correct, attempted, failed, metrics. The exit
status is 0 only when every correctness check passed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "hostbench")
WORKLOADS = ["paper-scale", "serve-zipf", "ingest-mixed"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no Bohr sources under {ROOT}/src; run from a full checkout")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "hostbench", "-j", jobs],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def run_one(workload, args):
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans, f"{workload}-seed{args.seed}.tsv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return None
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"{workload}: exited {proc.returncode} without a result line")
        return None
    for line in lines[:-1]:
        print(line)
    if proc.returncode not in (0, 1):
        log(f"{workload}: exited {proc.returncode}")
        return None
    return result


def annotate_layers(workload, result, catalogue):
    """Prints which end-to-end metric each per-layer metric should move."""
    for layer in catalogue["per_layer"]:
        targets = [m for m in layer["moves"] if m.endswith("@" + workload)]
        value = result["metrics"][layer["name"]]["value"]
        print(f"[{workload}] layer {layer['name']:<24} {value:.6g} "
              f"{layer['unit']:<6} moves: {', '.join(targets) or '-'}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=20181204)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    with open(os.path.join(HERE, "metrics.json")) as f:
        catalogue = json.load(f)
    kind = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"] for m in catalogue[kind]}

    if not build():
        return 2
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for workload in workloads:
        result = run_one(workload, args)
        if result is None:
            return 1
        if set(result["metrics"]) != expected:
            log(f"{workload}: metrics differ from metrics.json {kind}")
            return 1
        if args.trace:
            annotate_layers(workload, result, catalogue)
        results[workload] = result

    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m
                        for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

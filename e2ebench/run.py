#!/usr/bin/env python3
"""End-to-end round-time benchmark of the paper's workloads.

Builds e2e_bench (the repository's libraries plus e2ebench/e2e_bench.cc)
into .bench_build/, runs one workload in a fresh process, checks its
outputs and prints the result. Run from the repository root:

    python3 e2ebench/run.py --workload cnn_fedavg_sim1 --seed 1 \\
        --seconds 15 --trace 0
    python3 e2ebench/run.py --workload all          # every workload
    python3 e2ebench/run.py --write-manifest        # regenerate BENCHMARK.json

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are
the end-to-end ones (untraced run); with --trace 1 they are the
per-layer ones (traced run, which also writes a Chrome trace). Metric
definitions live in e2ebench/metrics.json. Every output file goes under
.bench_out/.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "e2e_bench")
RUN_TIMEOUT_S = 170


def load_dictionary():
    with open(os.path.join(HERE, "metrics.json")) as f:
        return json.load(f)


def write_manifest(dictionary):
    """BENCHMARK.json is the contract view of metrics.json."""
    manifest = {
        "command": ["python3", "e2ebench/run.py"],
        "paths": ["e2ebench"],
        "run_seconds": dictionary["run_seconds"],
        "workloads": [{"name": w["name"], "why": w["why"]}
                      for w in dictionary["workloads"] if w.get("gated", True)],
        "end_to_end": [{k: m[k] for k in ("name", "unit", "better", "bound")}
                       for m in dictionary["end_to_end"]],
        "per_layer": [{k: m[k] for k in ("name", "unit", "better")}
                      for m in dictionary["per_layer"]],
    }
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
        json.dump(manifest, f, indent=2)
        f.write("\n")


def build():
    """Configures (once) and builds e2e_bench; logs go to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "e2e_bench",
                  "-j", jobs])
    steps.append([BINARY, "--selftest"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            sys.exit("e2ebench: '%s' failed (exit %d)"
                     % (" ".join(cmd), proc.returncode))


def run_binary(workload, seed, seconds, trace):
    trace_path = os.path.join(OUT_DIR, "trace_%s.json" % workload)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace_out", trace_path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("e2ebench: %s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.exit("e2ebench: %s exited %d without a result"
                 % (workload, proc.returncode))
    return json.loads(lines[-1])


def check_digests(raw):
    """Runs of one workload and seed — traced or not, in any process —
    must land on the same digests; remembered across runs here."""
    path = os.path.join(OUT_DIR, "digests.json")
    known = {}
    if os.path.exists(path):
        with open(path) as f:
            known = json.load(f)
    key = "%s/seed%d" % (raw["workload"], raw["seed"])
    mine = {"state": raw["digests"]["state"], "loss": raw["digests"]["loss"]}
    problems = []
    if key in known and known[key] != mine:
        problems.append("digests differ from an earlier run of %s" % key)
    else:
        known[key] = mine
        with open(path, "w") as f:
            json.dump(known, f, indent=1, sort_keys=True)
    return problems


def run_workload(dictionary, workload, seed, seconds, trace):
    raw = run_binary(workload, seed, seconds, trace)
    problems = list(raw["problems"]) + check_digests(raw)
    wanted = dictionary["per_layer" if trace else "end_to_end"]
    source = raw["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        value = source.get(m["name"])
        if value is None or not math.isfinite(value):
            problems.append("metric %s missing or not finite" % m["name"])
            continue
        if not trace and value <= 0:
            problems.append("end-to-end metric %s is not positive" % m["name"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    correct = raw["correct"] and not problems
    attempted = max(1, raw["attempted"])
    failed = raw["failed"] if correct else attempted

    # Human-readable table, then the run record.
    print("%s seed=%d trace=%d: %s" % (workload, seed, trace,
                                       "correct" if correct else "INCORRECT"))
    units = {m["name"]: m["unit"]
             for m in dictionary["end_to_end"] + dictionary["per_layer"]}
    table = dict(raw["end_to_end"], **raw["per_layer"])
    for name, value in sorted(table.items()):
        print("  %-30s %16.6g %s" % (name, value, units.get(name, "")))
    for p in problems:
        print("  problem: %s" % p)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "default_seed": dictionary["default_seed"],
        "correct": correct, "problems": problems, "digests": raw["digests"],
        "record": raw["record"], "end_to_end": raw["end_to_end"],
        "per_layer": raw["per_layer"],
        "finished_unix_s": time.time(),
    }
    name = "record_%s_seed%d_trace%d.json" % (workload, seed, trace)
    with open(os.path.join(OUT_DIR, name), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main():
    dictionary = load_dictionary()
    names = [w["name"] for w in dictionary["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=dictionary["default_seed"])
    parser.add_argument("--seconds", type=int,
                        default=dictionary["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="regenerate BENCHMARK.json from metrics.json")
    args = parser.parse_args()
    if args.write_manifest:
        write_manifest(dictionary)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    os.makedirs(OUT_DIR, exist_ok=True)
    build()
    if args.workload != "all":
        result = run_workload(dictionary, args.workload, args.seed,
                              args.seconds, args.trace)
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    # Every workload, each in a fresh process.
    results = {w: run_workload(dictionary, w, args.seed, args.seconds,
                               args.trace) for w in names}
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())

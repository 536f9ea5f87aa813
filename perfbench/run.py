#!/usr/bin/env python3
"""Repository benchmark: build the simulator in Release, run one workload.

    python3 perfbench/run.py --workload <quartet|fleet> \
        --seed N --seconds S --trace <0|1>

Run from the repository root. The first run configures and builds an
optimised tree in .bench_build/perfbench (never the repository's own
build/); later runs rebuild incrementally. --trace 0 prints the end-to-end
metrics of BENCHMARK.json, --trace 1 its per-layer metrics. The last stdout
line is the result object {"correct", "attempted", "failed", "metrics"};
the lines before it name every metric with its unit, the simulated-output
digest and the host the result was taken on. Each full record is also
appended to .bench_build/perfbench/results.jsonl.

Exit status is nonzero, with no result line, when the build fails or the
sources are missing, and nonzero after the result line when an output
check failed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "pfsc_perfbench")
WORKLOADS = ("quartet", "fleet")
RUN_TIMEOUT_S = 170


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def cached_build_type():
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        return None
    return ""


def quiet(cmd):
    """Run a build step; show its output only when it fails."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        die("build step failed: " + " ".join(cmd))


def build():
    """Configure (once) and build the Release tree; refuse any other type."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("simulator sources not found in src/; run from a full checkout")
    build_type = cached_build_type()
    if build_type is None:
        quiet(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        build_type = cached_build_type()
    if build_type != "Release":
        die("refusing to benchmark a '%s' build in %s; delete it and rerun"
            % (build_type or "unset", BUILD))
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    quiet(["cmake", "--build", BUILD, "-j", jobs, "--target", "pfsc_perfbench"])


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def metric_mismatches(metrics, trace):
    """Every printed metric is declared with its unit, and vice versa."""
    declared = declared_metrics(trace)
    problems = []
    for name, unit in declared.items():
        if name not in metrics:
            problems.append("declared metric %s was not printed" % name)
        elif metrics[name].get("unit") != unit:
            problems.append("metric %s printed with unit %r, declared %r"
                            % (name, metrics[name].get("unit"), unit))
    for name in metrics:
        if name not in declared:
            problems.append("printed metric %s is not declared" % name)
    for name, m in metrics.items():
        if not isinstance(m.get("value"), (int, float)):
            problems.append("metric %s has no numeric value" % name)
    return problems


def host():
    load = " ".join("%.2f" % x for x in os.getloadavg())
    return {"nproc": os.cpu_count(), "loadavg": load}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    try:
        build()
    except OSError as e:
        die("build failed: %s" % e)

    env = {k: v for k, v in os.environ.items() if not k.startswith("PFSC_")}
    load_before = host()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        die("no result from %s (exit %d)" % (args.workload, proc.returncode))

    metrics = record["metrics"]
    problems = metric_mismatches(metrics, args.trace)
    for p in problems:
        print("perfbench: self-test: " + p, file=sys.stderr)
    record["host"] = dict(load_before, loadavg_after=host()["loadavg"])
    record["exit"] = proc.returncode
    correct = proc.returncode == 0 and record["failed"] == 0 and not problems

    print("perfbench %s seed=%d trace=%d digest=%s attempted=%d failed=%d"
          % (args.workload, args.seed, args.trace, record["digest"],
             record["attempted"], record["failed"]))
    print("host nproc=%s loadavg=%s compiler=%s build_type=%s threads=%d"
          % (record["host"]["nproc"], record["host"]["loadavg"],
             record["compiler"], record["build_type"], record["threads"]))
    if "units" in record:
        print("ungated: unit %s = %.6g s of %d units (reference-host seconds)"
              % (record["tail"], record["tail_s"], record["units"]))
        print("ungated: host seconds, unit p50 = %.6g, set-up median = %.6g of "
              "%d samples; host reference mean = %.6g s"
              % (record["host_p50_s"], record["host_setup_s"],
                 record["setup_samples"], record["reference_mean_s"]))
    for name, m in metrics.items():
        print("%s = %.6g %s" % (name, m["value"], m["unit"]))
    for f in record["failures"]:
        print("check failed: " + f)
    try:
        with open(os.path.join(BUILD, "results.jsonl"), "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    except OSError:
        pass

    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()

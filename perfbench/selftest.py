#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [--workloads quartet,fleet]
                                  [--seconds 1] [--seed 1]

Checks, in order:
  1. BENCHMARK.json has exactly the agreed keys and every name, unit, bound
     and path is within its limits.
  2. For each workload, `run.py --trace 0` and two `run.py --trace 1` runs
     exit 0 and end with a result line that parses, has exactly the keys
     correct/attempted/failed/metrics, is correct, and prints exactly the
     metrics BENCHMARK.json declares for that mode, with their units.
  3. The two traced runs report identical event counts, and all three runs
     print the same simulated-output digest.
  4. In a directory holding only BENCHMARK.json and the benchmark's own
     files, run.py exits nonzero without printing a result.
Exit status is nonzero on the first failed check.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    sys.exit("selftest: FAIL: " + message)


def check_spec(spec):
    if set(spec) != {"command", "paths", "run_seconds", "workloads",
                     "end_to_end", "per_layer"}:
        fail("BENCHMARK.json keys are %s" % sorted(spec))
    if os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) > 64 * 1024:
        fail("BENCHMARK.json is larger than 64 KiB")
    cmd = spec["command"]
    if not (1 <= len(cmd) <= 32) or any(len(c) > 200 or c.startswith("/")
                                         or ".." in c.split("/") for c in cmd):
        fail("command %r is outside its limits" % cmd)
    if not (1 <= len(spec["paths"]) <= 16):
        fail("paths must list 1 to 16 directories")
    for p in spec["paths"]:
        if not PATH.match(p) or ".." in p.split("/"):
            fail("path %r is outside its limits" % p)
        if not os.path.isdir(os.path.join(ROOT, p)):
            fail("path %r is not a directory" % p)
    if not (isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60):
        fail("run_seconds must be a whole number from 1 to 60")
    if not (2 <= len(spec["workloads"]) <= 8):
        fail("2 to 8 workloads are needed")
    names = []
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            fail("workload %r is malformed" % w)
        names.append(w["name"])
    for group, lo, hi, keys in (("end_to_end", 1, 16, {"name", "unit", "better", "bound"}),
                                ("per_layer", 1, 128, {"name", "unit", "better"})):
        if not (lo <= len(spec[group]) <= hi):
            fail("%s must have %d to %d metrics" % (group, lo, hi))
        for m in spec[group]:
            if set(m) != keys or not UNIT.match(m["unit"]) or \
                    m["better"] not in ("lower", "higher"):
                fail("metric %r is malformed" % m)
            if "bound" in m and not (0 < m["bound"] <= 0.25):
                fail("bound of %s must be in (0, 0.25]" % m["name"])
            names.append(m["name"])
    for n in names:
        if not NAME.match(n):
            fail("name %r is outside its limits" % n)
    if len(set(names)) != len(names):
        fail("a name is used twice")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        fail("setup_s (unit s, lower is better) is required")
    if setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        fail("setup_s must carry the largest bound")


def run(cwd, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    return proc.returncode, proc.stdout.strip().splitlines()


def check_run(spec, workload, seed, seconds, trace):
    code, lines = run(ROOT, workload, seed, seconds, trace)
    label = "%s --trace %d" % (workload, trace)
    if code != 0 or not lines:
        fail("%s exited %d:\n%s" % (label, code, "\n".join(lines)))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("%s: last line does not parse: %r" % (label, lines[-1]))
    if set(result) != RESULT_KEYS:
        fail("%s: result keys are %s" % (label, sorted(result)))
    if result["correct"] is not True or result["failed"] != 0 or \
            not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("%s: result is not a correct run: %s" % (label, lines[-1]))
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    if printed != declared:
        fail("%s: printed metrics %s, declared %s" % (label, printed, declared))
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
            fail("%s: metric %s is malformed" % (label, name))
        if not trace and m["value"] == 0:
            fail("%s: end-to-end metric %s is 0" % (label, name))
    digest = re.search(r"digest=([0-9a-f]+)", lines[0])
    if not digest:
        fail("%s: no digest line" % label)
    print("ok  %-24s digest=%s attempted=%d" % (label, digest.group(1),
                                                result["attempted"]), flush=True)
    return digest.group(1), result["metrics"]


def check_bare(spec):
    """Without the simulator sources the command must fail, silently."""
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for p in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p),
                        ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = run(bare, spec["workloads"][0]["name"], 1, 1, 0)
    shutil.rmtree(bare, ignore_errors=True)
    if code == 0:
        fail("run.py succeeded without the simulator sources")
    for line in lines:
        if line.startswith("{") and "correct" in line:
            fail("run.py printed a result without the simulator sources")
    print("ok  bare directory fails (exit %d, no result)" % code)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=1)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_spec(spec)
    print("ok  BENCHMARK.json keys and limits")
    workloads = [w for w in args.workloads.split(",") if w] or \
        [w["name"] for w in spec["workloads"]]
    for w in workloads:
        untraced, _ = check_run(spec, w, args.seed, args.seconds, 0)
        first, counts = check_run(spec, w, args.seed, args.seconds, 1)
        second, again = check_run(spec, w, args.seed, args.seconds, 1)
        if not untraced == first == second:
            fail("%s: digests differ: %s %s %s" % (w, untraced, first, second))
        for m in spec["per_layer"]:
            if m["unit"] == "count" and counts[m["name"]] != again[m["name"]]:
                fail("%s: %s differs between traced runs" % (w, m["name"]))
        print("ok  %s traced counts repeat exactly; digests match" % w)
    check_bare(spec)
    print("selftest: PASS")


if __name__ == "__main__":
    main()

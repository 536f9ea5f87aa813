#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload quartet [--runs 10] [--first-seed 1]
        [--seconds N] [--save FILE] [--compare FILE]

Runs perfbench/run.py once per seed (first-seed, first-seed+1, ...), then
prints for every end-to-end metric its median, quartiles (Python's
statistics.quantiles(values, n=4)) and spread = (Q3 - Q1) / median next to
the metric's bound from BENCHMARK.json. A spread within a third of the
bound is steady; setup_s is exempt from the spread rule. --save writes the
raw values as JSON; --compare reads such a file (for example from the
parent commit) and flags every metric whose median got worse by more than
its bound. Exit status is nonzero when a run fails, a spread exceeds its
bound, or a comparison fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        sys.exit("spread: %s seed %d failed:\n%s" % (workload, seed, proc.stdout))
    return {k: v["value"] for k, v in result["metrics"].items()}


def worse_by(spec, old, new):
    """Relative worsening of `new` against `old` (negative: better)."""
    if old == 0:
        return 0.0
    change = (new - old) / abs(old)
    return change if spec["better"] == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=0,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--save")
    ap.add_argument("--compare")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    specs = {m["name"]: m for m in bench["end_to_end"]}

    values = {name: [] for name in specs}
    for k in range(args.runs):
        seed = args.first_seed + k
        got = run_once(args.workload, seed, seconds)
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.5g" % (n, got[n]) for n in specs)), flush=True)
        for name in specs:
            values[name].append(got[name])

    ok = True
    print("%-14s %12s %12s %12s %8s %6s" % ("metric", "median", "q1", "q3",
                                             "spread", "bound"))
    for name, spec in specs.items():
        v = values[name]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else 0.0
        verdict = "steady" if spread < spec["bound"] / 3 else "noisy"
        if name == "setup_s":
            verdict = "exempt"
        elif spread > spec["bound"]:
            verdict, ok = "TOO WIDE", False
        print("%-14s %12.6g %12.6g %12.6g %8.4f %6.2f %s"
              % (name, med, q1, q3, spread, spec["bound"], verdict))

    if args.compare:
        with open(args.compare) as f:
            old = json.load(f)["values"]
        for name, spec in specs.items():
            delta = worse_by(spec, statistics.median(old[name]),
                             statistics.median(values[name]))
            flag = "REGRESSED" if delta > spec["bound"] else "ok"
            ok = ok and flag == "ok"
            print("compare %-14s worse by %+.4f (bound %.2f) %s"
                  % (name, delta, spec["bound"], flag))

    if args.save:
        with open(args.save, "w") as f:
            json.dump({"workload": args.workload, "seconds": seconds,
                       "first_seed": args.first_seed, "values": values}, f,
                      indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

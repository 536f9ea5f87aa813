#!/usr/bin/env python3
"""Gate micro_simcore throughput against a committed perf baseline.

Reads a Google Benchmark JSON report (--benchmark_out=... format) and
compares it with `.github/bench-baseline.json`, which holds two kinds of
entries:

  * "ratios": machine-independent speedup gates. Each entry divides the
    items_per_second of one benchmark by another's (e.g. the radix hold
    benchmark over the heap one) and fails if the ratio drops below
    `min`. These are the primary CI gate: a ratio of two numbers measured
    in the same process on the same machine is stable across runner
    hardware. An entry may carry `min_cpus`: when the report's
    context.num_cpus is below it the gate is skipped with a notice — used
    for gates whose two sides only compare fairly when the run has a core
    to itself (the disabled-controller gate on BM_AdaptiveQuartet).
  * "events_per_sec": absolute items_per_second floors, one per benchmark
    name. An entry whose value is the string "bootstrap" always passes and
    prints the measured number so a later run (or `--update`) can freeze
    it. A numeric entry fails when the measured rate falls below
    (1 - tolerance) x baseline, and is raised automatically by `--update`
    when the measured rate improves on it.

`--update` rewrites the baseline file in place: bootstrap entries are
frozen to the measured value and numeric entries are raised (never
lowered) on improvement, mirroring the "update file on improvement" half
of the gate.

Usage: check_bench_baseline.py BENCH_simcore.json .github/bench-baseline.json [--update]
"""
import json
import sys

TOLERANCE = 0.15  # fail on >15% regression vs a frozen absolute baseline


def load_report(report_path: str) -> tuple:
    with open(report_path, encoding="utf-8") as f:
        report = json.load(f)
    rates = {}
    for b in report.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        if "items_per_second" in b:
            rates[b["name"]] = float(b["items_per_second"])
    num_cpus = int(report.get("context", {}).get("num_cpus", 0))
    return rates, num_cpus


def main() -> int:
    args = [a for a in sys.argv[1:] if a != "--update"]
    update = "--update" in sys.argv[1:]
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    report_path, baseline_path = args
    rates, num_cpus = load_report(report_path)
    with open(baseline_path, encoding="utf-8") as f:
        baseline = json.load(f)

    failed = False
    changed = False

    for gate in baseline.get("ratios", []):
        num, den = gate["numerator"], gate["denominator"]
        min_cpus = int(gate.get("min_cpus", 0))
        if min_cpus and num_cpus < min_cpus:
            print(f"skip  {num} / {den}: host has {num_cpus} cpus, "
                  f"gate needs {min_cpus}")
            continue
        if num not in rates or den not in rates:
            print(f"ratio gate {num} / {den}: benchmark missing from report",
                  file=sys.stderr)
            failed = True
            continue
        ratio = rates[num] / rates[den]
        if ratio < float(gate["min"]):
            print(f"FAIL  {num} / {den} = {ratio:.2f}x "
                  f"(gate: >= {gate['min']}x)", file=sys.stderr)
            failed = True
        else:
            print(f"ok    {num} / {den} = {ratio:.2f}x "
                  f"(gate: >= {gate['min']}x)")

    abs_gates = baseline.get("events_per_sec", {})
    for name, limit in sorted(abs_gates.items()):
        if name not in rates:
            print(f"absolute gate {name}: benchmark missing from report",
                  file=sys.stderr)
            failed = True
            continue
        measured = rates[name]
        if limit == "bootstrap":
            print(f"boot  {name} = {measured:.3e} items/s (baseline is "
                  f"'bootstrap', passing)")
            if update:
                abs_gates[name] = measured
                changed = True
            continue
        limit = float(limit)
        floor = limit * (1.0 - TOLERANCE)
        if measured < floor:
            print(f"FAIL  {name} = {measured:.3e} items/s, more than "
                  f"{TOLERANCE:.0%} below baseline {limit:.3e}",
                  file=sys.stderr)
            failed = True
        elif measured > limit:
            print(f"ok    {name} = {measured:.3e} items/s, improves on "
                  f"baseline {limit:.3e}")
            if update:
                abs_gates[name] = measured
                changed = True
        else:
            print(f"ok    {name} = {measured:.3e} items/s "
                  f"(baseline {limit:.3e}, floor {floor:.3e})")

    if update and changed and not failed:
        with open(baseline_path, "w", encoding="utf-8") as f:
            json.dump(baseline, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"updated {baseline_path} with improved measurements")

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

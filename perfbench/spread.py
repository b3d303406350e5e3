#!/usr/bin/env python3
"""Spread report and counter-repeat check for the benchmark.

Run from the repository root:

    python3 perfbench/spread.py [--runs 10] [--workloads a,b] [--seed N]
    python3 perfbench/spread.py --counters [--seed N]

The spread report runs the benchmark command of BENCHMARK.json once per run
seed (`seed`, `seed + 1`, ...) on each workload, untraced, and prints
for every end-to-end metric the median, the quartiles (statistics.quantiles,
n=4), the spread (q3 - q1) / median, and that spread as a share of the
metric's bound. A metric is steady when its spread stays below a third of
its bound.

`--counters` runs each workload traced twice at one seed and checks that
every count metric repeats exactly; it also runs the workload untraced once
and reports the tracing overhead, trace.detect_s over detect_s.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 20190416


def load_definition():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_once(definition, workload, seed, trace):
    command = definition["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(definition["run_seconds"]),
        "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit code {done.returncode}, no result\n"
                 + done.stderr)
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}\n" + done.stderr)
    expected = {m["name"] for m in definition["per_layer" if trace else "end_to_end"]}
    if set(result["metrics"]) != expected:
        sys.exit(f"{workload} seed {seed}: metrics {sorted(result['metrics'])} "
                 f"are not the defined {sorted(expected)}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread_report(definition, workloads, runs, first_seed):
    worst = 0.0
    for workload in workloads:
        values = {}
        for i in range(runs):
            metrics = run_once(definition, workload, first_seed + i, 0)
            for name, value in metrics.items():
                values.setdefault(name, []).append(value)
            print(f"  {workload} seed {first_seed + i}: "
                  + ", ".join(f"{k}={v:.6g}" for k, v in metrics.items()),
                  flush=True)
        print(f"\n{workload} ({runs} runs)")
        print(f"  {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6} {'of bound':>9}")
        for metric in definition["end_to_end"]:
            name = metric["name"]
            samples = values[name]
            q1, q2, q3 = statistics.quantiles(samples, n=4)
            spread = (q3 - q1) / q2
            of_bound = spread / metric["bound"]
            if name != "setup_s":
                worst = max(worst, of_bound)
            flag = "" if of_bound < 1 / 3 else "  <-- above a third of the bound"
            print(f"  {name:<14} {q2:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.2%} {metric['bound']:>6} {of_bound:>9.2f}{flag}")
        print(flush=True)
    print(f"largest spread/bound outside setup_s: {worst:.2f}")


def counter_check(definition, workloads, seed):
    units = {m["name"]: m["unit"] for m in definition["per_layer"]}
    ok = True
    for workload in workloads:
        first = run_once(definition, workload, seed, 1)
        second = run_once(definition, workload, seed, 1)
        counts = [name for name in first if units.get(name) == "count"]
        differing = [n for n in counts if first[n] != second[n]]
        untraced = run_once(definition, workload, seed, 0)
        overhead = first["trace.detect_s"] / untraced["detect_s"] - 1
        print(f"{workload}: {len(counts)} counters, "
              f"{'all repeat exactly' if not differing else 'DIFFER: ' + ', '.join(differing)}; "
              f"tracing overhead on detect_s {overhead:+.2%}")
        for name in counts:
            print(f"    {name:<28} {first[name]:>14.0f} {second[name]:>14.0f}")
        ok = ok and not differing
    if not ok:
        sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--counters", action="store_true")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args()
    definition = load_definition()
    workloads = [w["name"] for w in definition["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    if args.counters:
        counter_check(definition, workloads, args.seed)
    else:
        spread_report(definition, workloads, args.runs, args.seed)


if __name__ == "__main__":
    main()

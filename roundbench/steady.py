#!/usr/bin/env python3
"""Steadiness report for the benchmark described in BENCHMARK.json.

Runs each workload in two sets, back to back, each with the seeds
1..runs, and prints per metric:

- the median of each set and the spread within each set (interquartile
  range as a share of the median), against the metric's bound;
- the drift between the two sets: how much worse the second median is than
  the first, as a share of the first, against the same bound.

Then runs each workload once more on a held-out seed and shows the value.
A metric holds when both spreads and the drift stay within its bound; the
last column marks those that do not.

Run from the root of the repository:

    python3 roundbench/steady.py                    # 2 x 10 runs per workload
    python3 roundbench/steady.py --runs 5 --workloads crowd-256
    python3 roundbench/steady.py --trace 1 --runs 3 # per-layer metrics
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

FIRST_SEED = 1
HELD_OUT_SEED = 999331


def run_once(command, workload, seed, seconds, trace):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    start = time.monotonic()
    proc = subprocess.run(args, stdout=subprocess.PIPE, text=True)
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: checks failed\n{proc.stdout}")
    return result, elapsed


def run_set(bench, workload, runs, trace, names):
    values = {name: [] for name in names}
    times = []
    for seed in range(FIRST_SEED, FIRST_SEED + runs):
        result, elapsed = run_once(bench["command"], workload, seed,
                                   bench["run_seconds"], trace)
        times.append(elapsed)
        for name in names:
            values[name].append(result["metrics"][name]["value"])
    return values, statistics.median(times)


def median_and_spread(vals):
    med = statistics.median(vals)
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = med
    return med, (q3 - q1) / med if med else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", default="BENCHMARK.json")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    opts = parser.parse_args()

    with open(opts.bench) as f:
        bench = json.load(f)
    metrics = bench["per_layer"] if opts.trace else bench["end_to_end"]
    spec = {m["name"]: m for m in metrics}
    workloads = opts.workloads or [w["name"] for w in bench["workloads"]]

    misses = []
    for workload in workloads:
        first, t1 = run_set(bench, workload, opts.runs, opts.trace, spec)
        second, t2 = run_set(bench, workload, opts.runs, opts.trace, spec)
        held, _ = run_once(bench["command"], workload, HELD_OUT_SEED,
                           bench["run_seconds"], opts.trace)
        print(f"\n{workload}: 2 sets of {opts.runs} runs, seeds {FIRST_SEED}.."
              f"{FIRST_SEED + opts.runs - 1}, {t1:.1f} s and {t2:.1f} s per run")
        print(f"{'metric':<28}{'median 1':>12}{'median 2':>12}{'spread 1':>9}"
              f"{'spread 2':>9}{'drift':>8}{'bound':>7}{'held-out':>12}")
        for name, m in spec.items():
            med1, spread1 = median_and_spread(first[name])
            med2, spread2 = median_and_spread(second[name])
            # Positive drift: the second set reads worse than the first.
            change = (med2 - med1) / med1 if med1 else 0.0
            drift = change if m["better"] == "lower" else -change
            bound = m.get("bound")
            # The spread of setup_s is not held to its bound, only its drift.
            spreads = [] if name == "setup_s" else [spread1, spread2]
            missed = bound is not None and max(spreads + [drift]) > bound
            if missed:
                misses.append(f"{workload}/{name}")
            bound_txt = f"{bound:7.2f}" if bound is not None else "       "
            print(f"{name:<28}{med1:12.5g}{med2:12.5g}{spread1:9.3f}"
                  f"{spread2:9.3f}{drift:8.3f}{bound_txt}"
                  f"{held['metrics'][name]['value']:12.5g}"
                  f"{'  MISS' if missed else ''}")
    if opts.trace == 0:
        print("\noutside their bound: " + (", ".join(misses) or "none"))


if __name__ == "__main__":
    main()

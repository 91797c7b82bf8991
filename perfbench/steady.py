#!/usr/bin/env python3
"""Steadiness check: two interleaved sets of runs of every workload.

    python3 perfbench/steady.py [--seed 1] [--runs 10]

Run from the repository root. Run i of both sets uses workload seed
seed + i; the two sets alternate which goes first, so host drift spreads
over both. For every end-to-end metric it prints each set's median and
quartiles, the spread (interquartile range over the median), the
difference between the set medians, and the metric's bound from
BENCHMARK.json. Every workload of BENCHMARK.json is run, and every
end-to-end metric must keep both its spread and its set difference within
its bound. Develop against the default seed 1 and confirm a claim
with --seed 1001, whose inputs no change was tuned on.
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
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed ({done.returncode})")
    return json.loads(lines[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    results = {(w, s): [] for w in workloads for s in range(2)}
    for i in range(args.runs):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        for s in order:
            for w in workloads:
                r = run_once(w, args.seed + i, seconds)
                results[(w, s)].append(r)
                values = " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items())
                print(f"run {i} set {s} {w}: attempted {r['attempted']} "
                      f"failed {r['failed']} {values}", flush=True)

    steady = True
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':<14}{'set':>4}{'q1':>12}{'median':>12}{'q3':>12}"
              f"{'spread':>9}{'diff':>9}{'bound':>8}")
        shares = set()
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for s in range(2):
                runs = results[(w, s)]
                shares.add(sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs))
                q1, q2, q3 = quartiles([r["metrics"][name]["value"] for r in runs])
                spread = (q3 - q1) / q2
                medians.append(q2)
                diff = ""
                if s == 1:
                    worse = (medians[0] - q2) if metric["better"] == "higher" else (q2 - medians[0])
                    diff = f"{worse / medians[0]:+.3f}"
                    steady = steady and worse / medians[0] <= bound
                steady = steady and spread <= bound
                print(f"  {name:<14}{s:>4}{q1:>12.5g}{q2:>12.5g}{q3:>12.5g}"
                      f"{spread:>9.3f}{diff:>9}{bound:>8}")
        print(f"  failed share per set: {sorted(shares)}")
        steady = steady and len(shares) == 1
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

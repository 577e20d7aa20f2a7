#!/usr/bin/env python3
"""Steadiness check: rerun workloads with successive seeds and print, for
each end-to-end metric, the median, the quartiles and the spread (distance
between the quartiles as a share of the median) beside the bound recorded in
BENCHMARK.json. With --sets 2 or more, every workload is run set after set,
and each later set's medians are compared with the first set's: a metric may
not be worse by more than its bound. Also checks that the share of failed
operations is the same in every run of a workload.

Run from the repository root:

    python3 tqpbench/steady.py --runs 10 --first-seed 1 --sets 2
    python3 tqpbench/steady.py --workload tpch_adhoc --runs 5
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_set(bench, workload, seeds):
    """Run one set; return {metric: [values]} and the failed shares seen."""
    values, shares = {}, set()
    for seed in seeds:
        cmd = bench["command"] + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if out.returncode != 0:
            sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
        lines = out.stdout.strip().splitlines()
        result, context = json.loads(lines[-1]), json.loads(lines[-2])
        shares.add(result["failed"] / result["attempted"])
        host = context["host"]
        print(f"{workload} seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"late_p95_ms={context['loadgen.late_p95_ms']:.3f} steal_pct={context['steal_pct']} "
              f"parallelism_call_us={host['parallelism_call_us']} spin_ms={host['spin_ms']}",
              flush=True)
        print("    " + "  ".join(f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    return values, shares


def print_spreads(title, values, bounds):
    print(f"\n{title}")
    print(f"{'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds[name]
        if spread <= bound / 3:
            verdict = "steady (< bound/3)"
        elif spread <= bound:
            verdict = "within bound"
        else:
            verdict = "TOO NOISY"
        print(f"{name:<20} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.3f} {bound:>6}  {verdict}")


def print_comparison(title, first, later, metrics):
    print(f"\n{title}")
    print(f"{'metric':<20} {'median 1':>12} {'median 2':>12} {'change':>8} {'worse':>8} {'bound':>6}  verdict")
    for name, m in metrics.items():
        a, b = statistics.median(first[name]), statistics.median(later[name])
        change = (b - a) / a
        worse = change if m["better"] == "lower" else -change
        verdict = "ok" if worse <= m["bound"] else "WORSE BEYOND BOUND"
        print(f"{name:<20} {a:>12.6g} {b:>12.6g} {change:>+8.3f} {worse:>+8.3f} "
              f"{m['bound']:>6}  {verdict}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: every workload)")
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--sets", type=int, default=1)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    bounds = {n: m["bound"] for n, m in metrics.items()}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    results = {}
    seed = args.first_seed
    for k in range(args.sets):
        for w in workloads:
            seeds = range(seed, seed + args.runs)
            seed += args.runs
            results[(k, w)] = (seeds, *run_set(bench, w, seeds))

    for w in workloads:
        for k in range(args.sets):
            seeds, values, _ = results[(k, w)]
            print_spreads(f"{w}, set {k + 1}: {args.runs} runs, seeds "
                          f"{seeds[0]}..{seeds[-1]}", values, bounds)
        for k in range(1, args.sets):
            print_comparison(f"{w}: set {k + 1} against set 1",
                             results[(0, w)][1], results[(k, w)][1], metrics)
        shares = set().union(*(results[(k, w)][2] for k in range(args.sets)))
        print(f"\n{w}: failed share identical in every run: {len(shares) == 1} {sorted(shares)}")


if __name__ == "__main__":
    main()

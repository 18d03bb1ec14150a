#!/usr/bin/env python3
"""Runs each workload repeatedly and reports how steady its metrics are.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
        [--workloads a,b] [--seconds S]

Run from the root of a checkout.  Every run gets its own seed.  For each
metric the script prints the median, the first and third quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median, judged
against the metric's bound in BENCHMARK.json: "steady" when the spread is
below a third of the bound, "in bound" below the bound, "UNSTEADY" above
it.  It also checks that the share of failed operations is the same in every
run.  Exits 1 when a run fails or a metric is unsteady.
"""
import argparse
import fractions
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed, seconds):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {p.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: output check failed")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    ok = True
    for w in names:
        values, shares = {}, set()
        for i in range(args.runs):
            r = run_once(spec, w, args.first_seed + i, seconds)
            shares.add(fractions.Fraction(r["failed"], r["attempted"]))
            for name, m in r["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"\n{w}: {args.runs} runs of {seconds} s, seeds "
              f"{args.first_seed}..{args.first_seed + args.runs - 1}")
        print(f"  {'metric':34} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}  verdict")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            if bound is None:
                verdict = "-"
            elif spread < bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "in bound"
            else:
                verdict, ok = "UNSTEADY", False
            print(f"  {name:34} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {bound if bound is not None else '-':>6}  "
                  f"{verdict}")
        same_share = len(shares) == 1
        print(f"  failed share identical in every run: {same_share}")
        ok = ok and same_share
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

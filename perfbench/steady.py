#!/usr/bin/env python3
"""Steadiness check: two interleaved sets of runs of the same code.

    python3 perfbench/steady.py [--workloads deploy,steady,serve-mix]
        [--runs 5] [--seed0 1000] [--seconds S]

For each workload, runs sets A and B alternately (A B A B ...), every run
with its own seed, and prints for each end-to-end metric the median and
quartiles of each set and of all runs together. A metric passes when the
spread of all runs (interquartile distance over the median) stays within
its bound from BENCHMARK.json, and when set B's median is no worse than
set A's by more than the bound. setup_s is exempt from the spread rule.
The `raw` column is the spread of the same runs' values before host-speed
scaling, for comparison.
Exits 1 when any metric fails.
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
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    stamp = next((l for l in lines if l.startswith("stamp ")), "stamp ?")
    result = json.loads(lines[-1])
    # a workload reported unscaled prints no raw lines
    raw = {l.split()[1]: float(l.split()[2]) for l in lines if l.startswith("raw ")} or {
        k: v["value"] for k, v in result["metrics"].items()}
    return stamp, raw, result


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_by(metric, a, b):
    """How much worse b is than a, as a share of a (negative: better)."""
    change = (b - a) / a
    return change if metric["better"] == "lower" else -change


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--runs", type=int, default=5, help="runs per set")
    p.add_argument("--seed0", type=int, default=1000)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = p.parse_args()

    ok = True
    seed = args.seed0
    for workload in args.workloads.split(","):
        sets = {"A": [], "B": []}
        raws = []
        stamp = None
        for i in range(2 * args.runs):
            name = "AB"[i % 2]
            stamp, raw, result = run_once(workload, seed, args.seconds)
            raws.append(raw)
            seed += 1
            if not result["correct"] or result["failed"]:
                print(f"{workload}: run with seed {seed - 1} failed checks: "
                      f"{result['failed']}/{result['attempted']}")
                ok = False
            sets[name].append(result["metrics"])
        print(f"\n{workload}  ({stamp[6:]}, {args.runs}+{args.runs} runs)")
        print(f"  {'metric':<20} {'A median [q1, q3]':>32} {'B median [q1, q3]':>32}"
              f" {'spread':>7} {'raw':>7} {'B-A':>7} {'bound':>6}  verdict")
        for m in bench["end_to_end"]:
            a = [r[m["name"]]["value"] for r in sets["A"]]
            b = [r[m["name"]]["value"] for r in sets["B"]]
            qa, qb, qall = quartiles(a), quartiles(b), quartiles(a + b)
            spread = (qall[2] - qall[0]) / qall[1]
            rq = quartiles([r[m["name"]] for r in raws])
            raw_spread = (rq[2] - rq[0]) / rq[1]
            drift = worse_by(m, qa[1], qb[1])
            fails = []
            if m["name"] != "setup_s" and spread > m["bound"]:
                fails.append("spread")
            if drift > m["bound"]:
                fails.append("drift")
            note = "ok" if not fails else "FAIL " + "+".join(fails)
            if not fails and m["name"] != "setup_s" and spread > m["bound"] / 3:
                note = "ok (spread above a third of the bound)"
            ok = ok and not fails
            print(f"  {m['name']:<20} {qa[1]:>12.4f} [{qa[0]:.4f}, {qa[2]:.4f}]"
                  f" {qb[1]:>12.4f} [{qb[0]:.4f}, {qb[2]:.4f}]"
                  f" {spread:>7.3f} {raw_spread:>7.3f} {drift:>+7.3f}"
                  f" {m['bound']:>6.2f}  {note}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

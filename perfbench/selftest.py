#!/usr/bin/env python3
"""Check that the traced run's exact counts repeat between two runs.

    python3 perfbench/selftest.py --seed 1

Runs `run.py --trace 1` twice per workload with the same seed, from the
root of a source checkout, and fails unless both runs are correct and every
exact count is identical. (Each traced run also fails on its own when
per-query job counts do not sum to the pass's job total.)
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cliques", "fsm")
EXACT = ("exec.jobs", "exec.tasks", "engine.rows_join", "engine.rows_result",
         "pattern.shapes", "plan.matching_orders")


def traced(workload, seed, seconds):
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload}: traced run was not correct")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=8)
    args = ap.parse_args()
    ok = True
    for w in WORKLOADS:
        a, b = traced(w, args.seed, args.seconds), traced(w, args.seed, args.seconds)
        for k in EXACT:
            same = a[k] == b[k]
            ok &= same
            print(f"{w:8s} {k:22s} {a[k]:>14} {b[k]:>14} {'ok' if same else 'DIFFERS'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 e2ebench/spread.py [--seeds 1-10] [--workloads a,b]

Runs are untraced.  For every workload and end-to-end metric it prints
the median over the runs, the interquartile range as a share of that
median (quartiles as statistics.quantiles(values, n=4) gives them) and the
metric's bound from BENCHMARK.json.  Use it to check that the benchmark is steady before
trusting a comparison: every spread should stay well below its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

import run


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    a = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    bad = 0
    for w in a.workloads.split(","):
        values = {}
        for s in seeds(a.seeds):
            out = subprocess.run(
                [sys.executable, os.path.join(run.HERE, "run.py"),
                 "--workload", w, "--seed", str(s),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            bad += not result["correct"]
            for k, m in result["metrics"].items():
                values.setdefault(k, []).append(m["value"])
            print(f"{w} seed {s}: " + " ".join(
                f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()),
                flush=True)
        for k, v in values.items():
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4) if len(v) > 1 else [med] * 3
            share = (q[2] - q[0]) / med if med else float("nan")
            print(f"  {w} {k}: median {med:.6g}  iqr/median {share:.4f}"
                  f"  bound {bounds[k]}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

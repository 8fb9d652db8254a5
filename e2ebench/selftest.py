#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark itself.

    python3 e2ebench/selftest.py

For a tiny-size version of every workload it checks, end to end:
  - an untraced run prints every end_to_end metric of BENCHMARK.json by
    name with its unit, verifies every call and reports no failures;
  - a traced run prints every per_layer metric with its unit and writes a
    trace holding spans, per-call records and the wall-time accounting;
  - with one reference hash deliberately corrupted, the run reports the
    corrupted call as failed in every pass and names it on stderr -- so
    the correctness check is shown able to fail.
Exits 0 when every check passes.
"""
import json
import os
import subprocess
import sys
import tempfile

import run


def invoke(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "0.01",
           "--trace", trace, "--tiny", *extra]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True)
    if p.returncode != 0:
        raise AssertionError(f"{cmd} exited {p.returncode}:\n{p.stderr}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(result)}")
    return result, p.stderr


def check_metrics(result, declared, what):
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        raise AssertionError(f"{what}: metrics {got} != declared {want}")
    for k, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise AssertionError(f"{what}: {k} has no numeric value")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    run.build()
    for w in (w["name"] for w in bench["workloads"]):
        result, _ = invoke(w, "0")
        check_metrics(result, bench["end_to_end"], f"{w} untraced")
        if not result["correct"] or result["failed"] != 0:
            raise AssertionError(f"{w}: clean run reported failures")

        with tempfile.TemporaryDirectory(dir=run.BUILD_ROOT) as tmp:
            trace_path = os.path.join(tmp, "trace.json")
            result, _ = invoke(w, "1", "--trace-out", trace_path)
            check_metrics(result, bench["per_layer"], f"{w} traced")
            with open(trace_path) as f:
                trace = json.load(f)
        if not result["correct"]:
            raise AssertionError(f"{w}: traced run reported failures")
        for key in ("spans", "calls", "per_call", "accounting"):
            if not trace.get(key):
                raise AssertionError(f"{w}: trace lacks {key}")

        result, err = invoke(w, "0", "--corrupt-reference")
        passes = result["attempted"] // len(trace["per_call"])
        if result["correct"] or result["failed"] != passes:
            raise AssertionError(
                f"{w}: corrupted reference gave correct={result['correct']} "
                f"failed={result['failed']} over {passes} passes")
        first = next(iter(trace["per_call"]))
        if f"MISMATCH {first} " not in err:
            raise AssertionError(f"{w}: mismatch of {first} not named:\n{err}")
        print(f"selftest: {w} ok")
    print("selftest: all ok")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as e:
        print(f"selftest: FAIL: {e}", file=sys.stderr)
        sys.exit(1)

#!/usr/bin/env python3
"""Regenerate e2ebench/reference.txt, the rows hashes the benchmark checks.

    python3 e2ebench/record.py [--figs DIR]

Runs every call of every workload (full size and --tiny) once through the
driver and writes one "<workload> <call> <hash>" line per call.  Output
rows are deterministic virtual time, so the hashes change only when a
change alters a reported number; regenerate them only for an intended
calibration change, and review the diff.

With --figs DIR (a directory holding the built fig14_17_allreduce_cpu and
fig18_21_allgather_cpu binaries, e.g. build/bench), also confirm that the
fullsub_coll rows equal the np=896 tables those figure binaries print, at
the figures' printed precision.
"""
import argparse
import os
import re
import subprocess
import sys

import run

WORKLOADS = ["fullsub_coll", "p2p_small", "p2p_large"]
FIGS = {"allreduce": ("fig14_17_allreduce_cpu", "== Figures 16-17"),
        "allgather": ("fig18_21_allgather_cpu", "== Figures 20-21")}
ROW = re.compile(r"^\s+(\d+)\s+([0-9.]+)\s+([0-9.]+)\s*$")


def record(binary, workload, tiny):
    cmd = [binary, "--workload", workload, "--record"]
    if tiny:
        cmd.append("--tiny")
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                         check=True).stdout.splitlines()
    hashes = [l for l in out if l and not l.startswith("#")]
    rows = {}  # call -> [(size, avg)]
    for l in out:
        if l.startswith("# "):
            _, _, call, size, avg, _, _ = l.split()
            rows.setdefault(call, []).append((int(size), float(avg)))
    return hashes, rows


def figure_tables(figs_dir, bench):
    """{(mode, range): [(size, printed avg)]} of the np=896 half."""
    exe, marker = FIGS[bench]
    out = subprocess.run([os.path.join(figs_dir, exe)], stdout=subprocess.PIPE,
                         text=True, check=True).stdout.splitlines()
    tables = {}  # range -> [(size, OMB avg, OMB-Py avg)]
    in_section = False
    rng = rows = None
    for line in out:
        if line.startswith("== "):
            in_section = line.startswith(marker)
            rows = None
        elif not in_section:
            continue
        elif line.startswith("# Size"):
            rows = tables.setdefault(rng, [])
        elif line.startswith("# "):
            rng = "small" if "small" in line else "large"
            rows = None
        elif rows is not None and (m := ROW.match(line)):
            rows.append((int(m[1]), m[2], m[3]))
    result = {}
    for rng, rows in tables.items():
        result[("c", rng)] = [(s, c) for s, c, _ in rows]
        result[("py", rng)] = [(s, p) for s, _, p in rows]
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--figs", help="directory with the built figure binaries")
    a = ap.parse_args()
    binary = run.build()
    lines = ["# <workload> <call> <rows hash>; regenerate with record.py"]
    full_rows = {}
    for w in WORKLOADS:
        for tiny in (False, True):
            hashes, rows = record(binary, w, tiny)
            lines += hashes
            if w == "fullsub_coll" and not tiny:
                full_rows = rows
    with open(run.REFERENCE, "w") as f:
        f.write("\n".join(lines) + "\n")
    print(f"wrote {len(lines) - 1} reference hashes to {run.REFERENCE}")
    if not a.figs:
        return 0
    bad = 0
    for bench in FIGS:
        tables = figure_tables(a.figs, bench)
        for (mode, rng), printed in sorted(tables.items()):
            mine = full_rows[f"{bench}.{mode}.{rng}"]
            ours = [(s, f"{v:.3f}") for s, v in mine]
            same = ours == printed
            bad += not same
            print(f"{bench}.{mode}.{rng}: {len(printed)} rows "
                  f"{'equal' if same else 'DIFFER'} to {FIGS[bench][0]}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

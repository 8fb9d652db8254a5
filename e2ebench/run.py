#!/usr/bin/env python3
"""Build and run the OMB-X end-to-end host-cost benchmark.

Run from anywhere inside a checkout of the repository:

    python3 e2ebench/run.py --workload p2p_small --seed 1 --seconds 35 --trace 0

The first run configures and builds the driver and the repository's
libraries from source into .bench_build/e2ebench (about a minute on four
cores); later runs only re-check the build.  Build output goes to stderr;
the driver's stdout -- whose last line is the result JSON -- passes
through unchanged.  With --trace 1 the span/counter trace is written to
.bench_build/traces/<workload>-seed<seed>.json unless --trace-out says
otherwise.  Any other argument (--tiny, --corrupt-reference, --record,
--setup-only) is handed to the driver.  See README.md next to this file.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "e2ebench")
REFERENCE = os.path.join(HERE, "reference.txt")


def build():
    """Configure (once) and build the driver; returns its path."""
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                os.remove(cache)  # the checkout moved: configure afresh
    if not os.path.exists(cache):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "ombx_e2e",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "ombx_e2e")


def option(args, name):
    return args[args.index(name) + 1] if name in args[:-1] else None


def main(argv):
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"e2ebench: build failed: {e}", file=sys.stderr)
        return 2
    args = list(argv)
    cmd = [binary, *args, "--reference", REFERENCE, "--scratch", BUILD_ROOT]
    if option(args, "--trace") == "1" and "--trace-out" not in args:
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        name = f"{option(args, '--workload')}-seed{option(args, '--seed')}"
        if "--tiny" in args:
            name += "-tiny"
        cmd += ["--trace-out", os.path.join(traces, name + ".json")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Builds the serving-engine benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The first call configures and builds
`.bench_build/` (CMake, Release); later calls rebuild only what changed.
Build output goes to stderr, so the last line of stdout is always the
benchmark's JSON result. A traced run writes its spans to
`.bench_build/traces/trace_<workload>.jsonl`. The exit code is the
benchmark's: 0 when every output check passed.
"""

import argparse
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "perfbench_engine"


def build(source_dir):
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", source_dir, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "-j", "4", "--target", TARGET],
        stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build(os.path.dirname(os.path.abspath(__file__)))
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1

    command = [os.path.join(BUILD_DIR, TARGET),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(BUILD_DIR, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-dir", trace_dir]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())

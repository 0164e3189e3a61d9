#!/usr/bin/env python3
"""Runs the serving-engine benchmark repeatedly and checks its results.

Run from the repository root. Standard library only.

  collect OUT --runs N [--sets K] [--seed-base S] [--trace]
      Runs perfbench/run.py N times per workload, seed S+i on run i, and
      saves each run's stdout as OUT[/set<k>]/<workload>-<seed>.out. With
      --sets K, run i goes to set i % K, so the sets interleave in time.
      A traced run also keeps its span file next to its output; a run
      that exits non-zero or leaves no span file is reported and makes
      collect exit 1.

  compare DIR [DIR2]
      Prints, per (workload, metric), each set's median, quartiles and
      spread ((q3 - q1) / median) next to the metric's bound from
      BENCHMARK.json. Fails when a run reported a failure or printed no
      result, when a spread exceeds its bound, or when the two sets'
      medians differ by more than the bound.

  trace TRACE.jsonl RESULT.out
      Checks a span file: every span ends at or after its start, and every
      parent span exists within the same request. Checks that the traced
      run's result names every per-layer metric in BENCHMARK.json.

Exit status: 0 when every check passes, 1 otherwise.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
RUNNER = os.path.join(ROOT, "perfbench", "run.py")
TRACE_DIR = os.path.join(".bench_build", "traces")


def load_benchmark(path=BENCHMARK):
    with open(path) as f:
        return json.load(f)


def parse_result(path):
    """The JSON object on the last non-empty line of a run's stdout."""
    with open(path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty output")
    result = json.loads(lines[-1])
    for key in ("correct", "attempted", "failed", "metrics"):
        if key not in result:
            raise ValueError(f"{path}: result has no '{key}'")
    return result


def workload_of(filename):
    """'<workload>-<seed>.out' -> '<workload>'."""
    return os.path.basename(filename).rsplit("-", 1)[0]


def load_runs(directory, failures):
    """{workload: [result, ...]} for every *.out file in `directory`.

    A file without a valid result line is appended to `failures`."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".out"):
            continue
        try:
            result = parse_result(os.path.join(directory, name))
        except ValueError as err:
            failures.append(f"{name}: no result ({err})")
            continue
        runs.setdefault(workload_of(name), []).append(result)
    return runs


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def summarize(runs, metric):
    values = [r["metrics"][metric]["value"] for r in runs
              if metric in r["metrics"]]
    if not values:
        return None
    q1, median, q3 = quartiles(values)
    return {"n": len(values), "q1": q1, "median": median, "q3": q3,
            "spread": spread(values)}


def compare(dirs, bench, out=None):
    """Returns the list of failures; prints one row per (workload, metric)."""
    out = out or sys.stdout
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    layer = {m["name"]: m for m in bench["per_layer"]}
    failures = []
    sets = [load_runs(d, failures) for d in dirs]
    for runs in sets:
        for workload, results in runs.items():
            for r in results:
                if not r["correct"] or r["failed"] > 0:
                    failures.append(
                        f"{workload}: a run failed {r['failed']} of "
                        f"{r['attempted']} checks")
    workloads = sorted(set().union(*[set(s) for s in sets]))
    header = f"{'workload':<12} {'metric':<36} {'set':>3} {'n':>3} " \
             f"{'q1':>12} {'median':>12} {'q3':>12} {'spread':>7} {'bound':>6}"
    print(header, file=out)
    for workload in workloads:
        metrics = sorted(set().union(*[
            set(r["metrics"]) for s in sets for r in s.get(workload, [])]))
        for metric in metrics:
            spec = bounds.get(metric) or layer.get(metric) or {}
            bound = spec.get("bound")
            rows = [summarize(s.get(workload, []), metric) for s in sets]
            for k, row in enumerate(rows):
                if row is None:
                    continue
                print(f"{workload:<12} {metric:<36} {k + 1:>3} {row['n']:>3} "
                      f"{row['q1']:>12.6g} {row['median']:>12.6g} "
                      f"{row['q3']:>12.6g} {row['spread']:>7.2%} "
                      f"{'' if bound is None else f'{bound:.0%}':>6}",
                      file=out)
                if bound is not None and row["spread"] > bound:
                    failures.append(
                        f"{workload} {metric}: spread {row['spread']:.2%} "
                        f"of set {k + 1} exceeds its bound {bound:.0%}")
            if (bound is not None and len(rows) == 2 and None not in rows
                    and rows[0]["median"]):
                change = (rows[1]["median"] - rows[0]["median"]) / \
                    abs(rows[0]["median"])
                if abs(change) > bound:
                    failures.append(
                        f"{workload} {metric}: medians differ by "
                        f"{change:+.2%}, bound {bound:.0%}")
    return failures


def check_trace(trace_path, result_path, bench):
    """Returns the list of problems in one traced run."""
    problems = []
    spans = {}
    with open(trace_path) as f:
        for lineno, line in enumerate(f, 1):
            s = json.loads(line)
            if s["end_ns"] < s["start_ns"]:
                problems.append(f"line {lineno}: span {s['span']} ends "
                                f"before it starts")
            spans[s["span"]] = s
    for s in spans.values():
        parent = spans.get(s["parent"]) if s["parent"] else None
        if s["parent"] and (parent is None
                            or parent["request"] != s["request"]):
            problems.append(f"span {s['span']} ({s['name']}): parent "
                            f"{s['parent']} is not in request {s['request']}")
    if not spans:
        problems.append(f"{trace_path}: no spans")
    metrics = parse_result(result_path)["metrics"]
    for m in bench["per_layer"]:
        if m["name"] not in metrics:
            problems.append(f"{result_path}: per-layer metric "
                            f"{m['name']} missing")
    return problems


def collect(args):
    bench = load_benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = str(bench["run_seconds"])
    failed = 0
    for i in range(args.runs):
        directory = args.out
        if args.sets > 1:
            directory = os.path.join(args.out, f"set{i % args.sets + 1}")
        os.makedirs(directory, exist_ok=True)
        seed = args.seed_base + i
        for workload in workloads:
            path = os.path.join(directory, f"{workload}-{seed}.out")
            trace = os.path.join(TRACE_DIR, f"trace_{workload}.jsonl")
            if args.trace and os.path.exists(trace):
                os.remove(trace)  # never file an earlier run's spans
            with open(path, "w") as out:
                code = subprocess.run(
                    [sys.executable, RUNNER, "--workload", workload,
                     "--seed", str(seed), "--seconds", seconds,
                     "--trace", "1" if args.trace else "0"],
                    stdout=out).returncode
            print(f"{path}: exit {code}", flush=True)
            if code != 0:
                failed += 1
            elif args.trace:
                if os.path.exists(trace):
                    shutil.copy(trace, os.path.join(
                        directory, f"{workload}-{seed}.jsonl"))
                else:
                    print(f"{path}: no span file", flush=True)
                    failed += 1
    if failed:
        print(f"{failed} run(s) failed", flush=True)
    return 1 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect")
    c.add_argument("out")
    c.add_argument("--runs", type=int, required=True)
    c.add_argument("--sets", type=int, default=1)
    c.add_argument("--seed-base", type=int, default=1)
    c.add_argument("--trace", action="store_true")
    p = sub.add_parser("compare")
    p.add_argument("dirs", nargs="+")
    t = sub.add_parser("trace")
    t.add_argument("trace")
    t.add_argument("result")
    args = parser.parse_args(argv)

    if args.command == "collect":
        return collect(args)
    if args.command == "compare":
        if len(args.dirs) > 2:
            parser.error("compare takes one or two directories")
        problems = compare(args.dirs, load_benchmark())
    else:
        problems = check_trace(args.trace, args.result, load_benchmark())
    for p in problems:
        print(f"FAIL {p}")
    print("ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compares fresh BENCH_*.json runs against committed baselines.

The regression gate of the scenario suite: given a baseline file (the
committed perf trajectory) and a fresh file (the run just produced), the
two must describe the SAME experiment — same schema, scenario, scale,
seed and index — and the fresh run must hold the baseline's performance
within per-metric thresholds:

  qps            >= baseline * --min-qps-ratio        (per phase)
  p50_ns         <= baseline * --max-p50-ratio
  p99_ns         <= baseline * --max-p99-ratio
  passed         must be true in the fresh run

Phases are matched by name, never by position. A phase present in the
baseline but missing from the fresh run is a failure (a silently
dropped phase looks like a win otherwise); a NEW fresh phase is allowed
(suites grow).

The default thresholds are tuned for same-machine runs (CI re-running
the committed dev-box baselines passes --min-qps-ratio etc. suited to
its own hardware via flags). Throughput below ~--min-abs-qps in BOTH
files is compared on absolute slack instead of ratios: tiny-denominator
rows (e.g. a 0.05s smoke phase) would otherwise flap.

Usage:
  compare_bench_json.py BASELINE.json FRESH.json [more pairs...]
  compare_bench_json.py --baseline-dir DIR --fresh-dir DIR [flags]

Exits non-zero with one line per regression.
"""

import argparse
import glob
import json
import os
import sys

IDENTITY_KEYS = ("schema", "scenario", "scale", "seed", "index", "transport")


def _load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def _compare_phases(baseline_rows, fresh_rows, opts, where, errors):
    """Gates matched phases; missing fresh phases fail, new ones are allowed."""
    for key, base in baseline_rows.items():
        fresh = fresh_rows.get(key)
        label = f"phase {key!r}"
        if fresh is None:
            errors.append(f"{where}: {label} missing from the fresh run")
            continue
        base_qps = base.get("qps", 0)
        fresh_qps = fresh.get("qps", 0)
        if base_qps > 0:
            if (base_qps < opts.min_abs_qps and fresh_qps < opts.min_abs_qps):
                pass  # both below the noise floor: don't gate on ratios
            elif fresh_qps < base_qps * opts.min_qps_ratio:
                errors.append(
                    f"{where}: {label} qps regressed: {fresh_qps:.0f} < "
                    f"{base_qps:.0f} * {opts.min_qps_ratio}")
        for metric, max_ratio in (("p50_ns", opts.max_p50_ratio),
                                  ("p99_ns", opts.max_p99_ratio)):
            base_v = base.get(metric, 0)
            fresh_v = fresh.get(metric, 0)
            if base_v <= 0:
                continue
            # Sub-floor baselines skip the ratio gate: a 200ns p50
            # "doubling" to 400ns is timer noise, not a regression
            # signal. Base-relative so the decision is deterministic.
            if base_v < opts.min_abs_latency_ns:
                continue
            if fresh_v > base_v * max_ratio:
                errors.append(
                    f"{where}: {label} {metric} regressed: {fresh_v:.0f} > "
                    f"{base_v:.0f} * {max_ratio}")


def compare(baseline_path, fresh_path, opts):
    where = os.path.basename(fresh_path)
    try:
        base = _load(baseline_path)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{where}: baseline unreadable: {exc}"]
    try:
        fresh = _load(fresh_path)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{where}: fresh run unreadable: {exc}"]

    errors = []
    # The gate only means something when both files describe the same
    # experiment; a drifted seed or scale silently compares apples to
    # oranges.
    for key in IDENTITY_KEYS:
        if key in base and base.get(key) != fresh.get(key):
            errors.append(
                f"{where}: identity mismatch on '{key}': baseline "
                f"{base.get(key)!r} vs fresh {fresh.get(key)!r}")
    if errors:
        return errors

    schema = base.get("schema")
    if schema == "wazi.bench.scenario/1":
        if fresh.get("passed") is not True:
            for failure in fresh.get("failures", []) or ["(no detail)"]:
                errors.append(f"{where}: fresh run failed invariants: "
                              f"{failure}")
        baseline_rows = {p.get("name"): p for p in base.get("phases", [])}
        fresh_rows = {p.get("name"): p for p in fresh.get("phases", [])}
        _compare_phases(baseline_rows, fresh_rows, opts, where, errors)
    else:
        errors.append(f"{where}: unknown schema {schema!r}")
    return errors


def _pair_dirs(baseline_dir, fresh_dir, allow_missing_baseline, errors):
    pairs = []
    fresh_files = sorted(
        glob.glob(os.path.join(fresh_dir, "BENCH_*.json")))
    if not fresh_files:
        errors.append(f"{fresh_dir}: no BENCH_*.json fresh files found")
    for fresh in fresh_files:
        baseline = os.path.join(baseline_dir, os.path.basename(fresh))
        if not os.path.exists(baseline):
            if allow_missing_baseline:
                print(f"SKIP {os.path.basename(fresh)}: no baseline yet")
                continue
            errors.append(
                f"{os.path.basename(fresh)}: no baseline at {baseline}")
            continue
        pairs.append((baseline, fresh))
    # Baselines whose fresh run vanished entirely are regressions too.
    for baseline in sorted(
            glob.glob(os.path.join(baseline_dir, "BENCH_*.json"))):
        fresh = os.path.join(fresh_dir, os.path.basename(baseline))
        if not os.path.exists(fresh):
            errors.append(
                f"{os.path.basename(baseline)}: baseline has no fresh run")
    return pairs


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("files", nargs="*", metavar="BASELINE FRESH",
                        help="explicit baseline/fresh file pairs")
    parser.add_argument("--baseline-dir")
    parser.add_argument("--fresh-dir")
    parser.add_argument("--min-qps-ratio", type=float, default=0.6,
                        help="fresh qps must be >= baseline * this")
    parser.add_argument("--max-p50-ratio", type=float, default=1.8,
                        help="fresh p50 must be <= baseline * this")
    parser.add_argument("--max-p99-ratio", type=float, default=1.8,
                        help="fresh p99 must be <= baseline * this")
    parser.add_argument("--min-abs-qps", type=float, default=1000.0,
                        help="rows below this qps in both files skip the "
                             "ratio gate")
    parser.add_argument("--min-abs-latency-ns", type=float, default=500.0,
                        help="baseline latencies below this skip the ratio "
                             "gate (timer-noise floor)")
    parser.add_argument("--allow-missing-baseline", action="store_true",
                        help="skip fresh files with no committed baseline "
                             "instead of failing")
    opts = parser.parse_args(argv[1:])

    errors = []
    pairs = []
    if opts.baseline_dir or opts.fresh_dir:
        if not (opts.baseline_dir and opts.fresh_dir):
            parser.error("--baseline-dir and --fresh-dir go together")
        if opts.files:
            parser.error("pass file pairs OR directory flags, not both")
        pairs = _pair_dirs(opts.baseline_dir, opts.fresh_dir,
                           opts.allow_missing_baseline, errors)
    else:
        if not opts.files or len(opts.files) % 2 != 0:
            parser.error("pass BASELINE FRESH file pairs (an even count)")
        pairs = list(zip(opts.files[0::2], opts.files[1::2]))

    failures = 0
    for baseline, fresh in pairs:
        pair_errors = compare(baseline, fresh, opts)
        if pair_errors:
            failures += 1
            for line in pair_errors:
                print(f"FAIL {line}", file=sys.stderr)
        else:
            print(f"OK   {os.path.basename(fresh)} vs baseline")
    if errors:
        failures += 1
        for line in errors:
            print(f"FAIL {line}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

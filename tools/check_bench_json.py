#!/usr/bin/env python3
"""Validates the BENCH_*.json files the bench binaries emit.

Stdlib-only schema checks, dispatched on the document's "schema" field:

  wazi.bench.serve/1     bench_serve_throughput --json   (sweep cells,
                         optional repartition arms)
  wazi.bench.scenario/1  bench_scenarios                 (named scenario,
                         per-phase rows, invariant verdict)
  wazi.bench.micro/1     bench_acquire / bench_scan_kernel (microbench
                         rows: name + ops + ns_per_op, optional summary)

Run by the CI bench jobs so a drive-by change to a bench's JSON writer
cannot silently break downstream perf-trajectory tooling (including
tools/compare_bench_json.py, which trusts these shapes).

Usage: check_bench_json.py BENCH_foo.json [more.json ...]
Exits non-zero with one line per violation.
"""

import json
import sys

SERVE_SCHEMA = "wazi.bench.serve/1"
SCENARIO_SCHEMA = "wazi.bench.scenario/1"
MICRO_SCHEMA = "wazi.bench.micro/1"

NUMBER = (int, float)

# Microbenchmark rows are deliberately loose: every micro bench shares
# name/ops/ns_per_op and adds its own sweep axes (threads, leaf_points,
# selectivity, ...), which downstream tooling treats as opaque.
MICRO_ROW_REQUIRED = {
    "name": str,
    "ops": int,
    "ns_per_op": NUMBER,
}

CELL_REQUIRED = {
    "shards": int,
    "cache_mb": int,
    "admission_window_us": int,
    "write_pct": int,
    "threads": int,
    "qps": NUMBER,
    "writes_per_s": NUMBER,
    "p50_ns": NUMBER,
    "p90_ns": NUMBER,
    "p99_ns": NUMBER,
    "cache_hit_rate": NUMBER,
}

ARM_REQUIRED = {
    "arm": str,
    "qps_pre": NUMBER,
    "qps_post": NUMBER,
    "p99_post_ns": NUMBER,
    "migrations": int,
    "incremental": int,
    "moved_points": int,
}

PHASE_REQUIRED = {
    "name": str,
    "queries": int,
    "writes": int,
    "elapsed_seconds": NUMBER,
    "qps": NUMBER,
    "writes_per_s": NUMBER,
    "p50_ns": NUMBER,
    "p90_ns": NUMBER,
    "p99_ns": NUMBER,
    "cache_hit_rate": NUMBER,
}

TOTALS_REQUIRED = {
    "queries": int,
    "writes": int,
    "migrations": int,
    "incremental": int,
    "moved_points": int,
    "last_moved_shards": int,
    "last_carried_shards": int,
    "epoch": int,
}

# Counters the serve stack always registers; their presence proves the
# metrics snapshot actually came from a wired-up ServeLoop.
METRIC_COUNTERS_REQUIRED = [
    "serve_migrations_total",
    "serve_snapshot_publishes_total",
    "serve_cache_hits_total",
    "serve_cache_misses_total",
]

TRANSPORTS = ("embedded", "wire")


def _check_fields(obj, required, where, errors):
    for key, types in required.items():
        if key not in obj:
            errors.append(f"{where}: missing key '{key}'")
        elif not isinstance(obj[key], types) or isinstance(obj[key], bool):
            errors.append(
                f"{where}: '{key}' has type {type(obj[key]).__name__}, "
                f"expected {types}")


def _check_metrics(doc, path, errors):
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        errors.append(f"{path}: 'metrics' missing or not an object")
        return
    counters = metrics.get("counters")
    if not isinstance(counters, dict):
        errors.append(f"{path}: metrics.counters missing")
    else:
        for name in METRIC_COUNTERS_REQUIRED:
            if name not in counters:
                errors.append(f"{path}: metrics.counters['{name}'] missing")
    for section in ("gauges", "histograms"):
        if not isinstance(metrics.get(section), dict):
            errors.append(f"{path}: metrics.{section} missing")


def _validate_serve(doc, path):
    errors = []
    for key in ("bench", "scenario", "index"):
        if not isinstance(doc.get(key), str):
            errors.append(f"{path}: missing or non-string '{key}'")
    for key in ("points", "seconds_per_cell"):
        if key not in doc:
            errors.append(f"{path}: missing '{key}'")

    cells = doc.get("cells")
    if not isinstance(cells, list):
        errors.append(f"{path}: 'cells' missing or not a list")
    elif not cells and not doc.get("repartition_arms"):
        # The sweep is empty only in --repartition mode, where the arms
        # carry the results instead.
        errors.append(f"{path}: 'cells' empty without repartition_arms")
    else:
        for i, cell in enumerate(cells):
            where = f"{path}: cells[{i}]"
            if not isinstance(cell, dict):
                errors.append(f"{where}: not an object")
                continue
            _check_fields(cell, CELL_REQUIRED, where, errors)
            # Optional: --net mode tags each cell with how clients reached
            # the engine.
            transport = cell.get("transport")
            if transport is not None and transport not in TRANSPORTS:
                errors.append(
                    f"{where}: transport {transport!r} not in {TRANSPORTS}")
            if isinstance(cell.get("qps"), NUMBER) and cell["qps"] < 0:
                errors.append(f"{where}: negative qps")
            rate = cell.get("cache_hit_rate")
            if isinstance(rate, NUMBER) and not 0 <= rate <= 1:
                errors.append(f"{where}: cache_hit_rate {rate} not in [0,1]")

    arms = doc.get("repartition_arms")
    if arms is not None:
        if not isinstance(arms, list):
            errors.append(f"{path}: 'repartition_arms' is not a list")
        else:
            for i, arm in enumerate(arms):
                where = f"{path}: repartition_arms[{i}]"
                if not isinstance(arm, dict):
                    errors.append(f"{where}: not an object")
                    continue
                _check_fields(arm, ARM_REQUIRED, where, errors)

    _check_metrics(doc, path, errors)
    return errors


def _validate_scenario(doc, path):
    errors = []
    for key in ("bench", "scenario", "description", "scale", "index"):
        if not isinstance(doc.get(key), str):
            errors.append(f"{path}: missing or non-string '{key}'")
    for key in ("seed", "points", "seconds_per_phase", "threads",
                "invariant_checks"):
        if not isinstance(doc.get(key), NUMBER) or isinstance(
                doc.get(key), bool):
            errors.append(f"{path}: missing or non-numeric '{key}'")
    if not isinstance(doc.get("passed"), bool):
        errors.append(f"{path}: missing or non-bool 'passed'")
    transport = doc.get("transport")
    if transport not in TRANSPORTS:
        errors.append(f"{path}: transport {transport!r} not in {TRANSPORTS}")

    failures = doc.get("failures")
    if not isinstance(failures, list) or any(
            not isinstance(f, str) for f in failures or []):
        errors.append(f"{path}: 'failures' missing or not a string list")
    elif doc.get("passed") is True and failures:
        errors.append(f"{path}: passed=true but failures is non-empty")
    elif doc.get("passed") is False and not failures:
        errors.append(f"{path}: passed=false but failures is empty")

    phases = doc.get("phases")
    if not isinstance(phases, list) or not phases:
        errors.append(f"{path}: 'phases' missing or empty")
    else:
        names = set()
        for i, phase in enumerate(phases):
            where = f"{path}: phases[{i}]"
            if not isinstance(phase, dict):
                errors.append(f"{where}: not an object")
                continue
            _check_fields(phase, PHASE_REQUIRED, where, errors)
            name = phase.get("name")
            if isinstance(name, str):
                if name in names:
                    errors.append(f"{where}: duplicate phase name {name!r}")
                names.add(name)
            if isinstance(phase.get("qps"), NUMBER) and phase["qps"] < 0:
                errors.append(f"{where}: negative qps")
            rate = phase.get("cache_hit_rate")
            if isinstance(rate, NUMBER) and not 0 <= rate <= 1:
                errors.append(f"{where}: cache_hit_rate {rate} not in [0,1]")

    totals = doc.get("totals")
    if not isinstance(totals, dict):
        errors.append(f"{path}: 'totals' missing or not an object")
    else:
        _check_fields(totals, TOTALS_REQUIRED, f"{path}: totals", errors)
        if isinstance(phases, list) and all(
                isinstance(p, dict) and isinstance(p.get("queries"), int)
                for p in phases):
            summed = sum(p["queries"] for p in phases)
            if totals.get("queries") not in (None, summed):
                errors.append(
                    f"{path}: totals.queries {totals.get('queries')} != "
                    f"sum of phases {summed}")

    _check_metrics(doc, path, errors)
    return errors


def _validate_micro(doc, path):
    errors = []
    for key in ("bench", "scenario"):
        if not isinstance(doc.get(key), str):
            errors.append(f"{path}: missing or non-string '{key}'")
    spr = doc.get("seconds_per_row")
    if not isinstance(spr, NUMBER) or isinstance(spr, bool):
        errors.append(f"{path}: missing or non-numeric 'seconds_per_row'")

    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        errors.append(f"{path}: 'rows' missing or empty")
    else:
        for i, row in enumerate(rows):
            where = f"{path}: rows[{i}]"
            if not isinstance(row, dict):
                errors.append(f"{where}: not an object")
                continue
            _check_fields(row, MICRO_ROW_REQUIRED, where, errors)
            if isinstance(row.get("ops"), int) and not isinstance(
                    row.get("ops"), bool) and row["ops"] <= 0:
                errors.append(f"{where}: ops {row['ops']} not positive")
            nspo = row.get("ns_per_op")
            if isinstance(nspo, NUMBER) and not isinstance(
                    nspo, bool) and nspo < 0:
                errors.append(f"{where}: negative ns_per_op")

    # summary is optional but, when present, must be an object of plain
    # numbers (compare tooling diffs it key by key).
    summary = doc.get("summary")
    if summary is not None:
        if not isinstance(summary, dict):
            errors.append(f"{path}: 'summary' is not an object")
        else:
            for key, value in summary.items():
                if not isinstance(value, NUMBER) or isinstance(value, bool):
                    errors.append(
                        f"{path}: summary['{key}'] is not a number")
    return errors


def validate(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: unreadable or invalid JSON: {exc}"]
    if not isinstance(doc, dict):
        return [f"{path}: top level is not an object"]

    schema = doc.get("schema")
    if schema == SERVE_SCHEMA:
        return _validate_serve(doc, path)
    if schema == SCENARIO_SCHEMA:
        return _validate_scenario(doc, path)
    if schema == MICRO_SCHEMA:
        return _validate_micro(doc, path)
    return [f"{path}: unknown schema {schema!r} "
            f"(known: {SERVE_SCHEMA!r}, {SCENARIO_SCHEMA!r}, "
            f"{MICRO_SCHEMA!r})"]


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failures = 0
    for path in argv[1:]:
        errors = validate(path)
        if errors:
            failures += 1
            for line in errors:
                print(f"FAIL {line}", file=sys.stderr)
        else:
            print(f"OK   {path}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

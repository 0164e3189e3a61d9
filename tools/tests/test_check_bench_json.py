"""Unit tests for tools/check_bench_json.py (both schemas).

Run from the repo root:  python3 -m unittest discover -s tools/tests
"""

import copy
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir))

import check_bench_json as chk


def _metrics():
    return {
        "counters": {
            "serve_migrations_total": 0,
            "serve_snapshot_publishes_total": 3,
            "serve_cache_hits_total": 10,
            "serve_cache_misses_total": 5,
        },
        "gauges": {},
        "histograms": {},
    }


def scenario_doc():
    return {
        "schema": "wazi.bench.scenario/1",
        "bench": "scenarios",
        "scenario": "poi_lookup",
        "description": "d",
        "scale": "smoke",
        "seed": 42,
        "index": "wazi",
        "transport": "embedded",
        "points": 1000,
        "seconds_per_phase": 0.2,
        "threads": 2,
        "passed": True,
        "failures": [],
        "invariant_checks": 7,
        "phases": [{
            "name": "zipf_lookups",
            "queries": 100,
            "writes": 0,
            "elapsed_seconds": 0.2,
            "qps": 500.0,
            "writes_per_s": 0.0,
            "p50_ns": 1500,
            "p90_ns": 2000,
            "p99_ns": 3000,
            "cache_hit_rate": 0.0,
        }],
        "totals": {
            "queries": 100,
            "writes": 0,
            "migrations": 0,
            "incremental": 0,
            "moved_points": 0,
            "last_moved_shards": 0,
            "last_carried_shards": 0,
            "epoch": 1,
        },
        "metrics": _metrics(),
    }


def micro_doc():
    return {
        "schema": "wazi.bench.micro/1",
        "bench": "acquire",
        "scenario": "snapshot_acquire_sweep",
        "seconds_per_row": 0.3,
        "rows": [
            {"name": "shared_ptr", "threads": 8, "ops": 1000000,
             "ns_per_op": 812.5},
            {"name": "epoch", "threads": 8, "ops": 9000000,
             "ns_per_op": 71.2},
        ],
        "summary": {"speedup_at_max_threads": 11.4},
    }


class ValidateTest(unittest.TestCase):

    def _validate(self, doc):
        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         delete=False) as f:
            json.dump(doc, f)
            path = f.name
        try:
            return chk.validate(path)
        finally:
            os.unlink(path)

    def test_valid_scenario_doc_passes(self):
        self.assertEqual(self._validate(scenario_doc()), [])

    def test_unknown_schema_fails(self):
        doc = scenario_doc()
        doc["schema"] = "wazi.bench.other/9"
        errors = self._validate(doc)
        self.assertEqual(len(errors), 1)
        self.assertIn("unknown schema", errors[0])

    def test_scenario_missing_phase_field(self):
        doc = scenario_doc()
        del doc["phases"][0]["qps"]
        self.assertTrue(any("qps" in e for e in self._validate(doc)))

    def test_scenario_passed_failures_consistency(self):
        doc = scenario_doc()
        doc["failures"] = ["something broke"]
        self.assertTrue(
            any("passed=true but failures" in e
                for e in self._validate(doc)))
        doc = scenario_doc()
        doc["passed"] = False
        self.assertTrue(
            any("passed=false but failures is empty" in e
                for e in self._validate(doc)))

    def test_scenario_duplicate_phase_names(self):
        doc = scenario_doc()
        doc["phases"].append(copy.deepcopy(doc["phases"][0]))
        doc["totals"]["queries"] = 200
        self.assertTrue(
            any("duplicate phase name" in e for e in self._validate(doc)))

    def test_scenario_totals_must_sum_phases(self):
        doc = scenario_doc()
        doc["totals"]["queries"] = 999
        self.assertTrue(
            any("totals.queries" in e for e in self._validate(doc)))

    def test_scenario_bad_transport(self):
        doc = scenario_doc()
        doc["transport"] = "carrier-pigeon"
        self.assertTrue(
            any("transport" in e for e in self._validate(doc)))

    def test_scenario_cache_hit_rate_bounds(self):
        doc = scenario_doc()
        doc["phases"][0]["cache_hit_rate"] = 1.5
        self.assertTrue(
            any("cache_hit_rate" in e for e in self._validate(doc)))

    def test_missing_required_metric_counter(self):
        doc = scenario_doc()
        del doc["metrics"]["counters"]["serve_migrations_total"]
        self.assertTrue(
            any("serve_migrations_total" in e for e in self._validate(doc)))

    def test_valid_micro_doc_passes(self):
        self.assertEqual(self._validate(micro_doc()), [])

    def test_micro_doc_without_summary_passes(self):
        doc = micro_doc()
        del doc["summary"]
        self.assertEqual(self._validate(doc), [])

    def test_micro_extra_sweep_axes_are_opaque(self):
        # scan_kernel rows carry leaf_points/selectivity instead of
        # threads; unknown axes must not be errors.
        doc = micro_doc()
        doc["bench"] = "scan_kernel"
        doc["rows"] = [{"name": "avx2", "leaf_points": 4096,
                        "selectivity": 0.1, "ops": 123456,
                        "ns_per_op": 0.8}]
        self.assertEqual(self._validate(doc), [])

    def test_micro_missing_row_field(self):
        doc = micro_doc()
        del doc["rows"][0]["ns_per_op"]
        self.assertTrue(
            any("ns_per_op" in e for e in self._validate(doc)))

    def test_micro_empty_rows(self):
        doc = micro_doc()
        doc["rows"] = []
        self.assertTrue(
            any("'rows' missing or empty" in e for e in self._validate(doc)))

    def test_micro_rejects_bool_ops(self):
        doc = micro_doc()
        doc["rows"][0]["ops"] = True
        self.assertTrue(any("ops" in e for e in self._validate(doc)))

    def test_micro_rejects_nonpositive_ops(self):
        doc = micro_doc()
        doc["rows"][0]["ops"] = 0
        self.assertTrue(
            any("not positive" in e for e in self._validate(doc)))

    def test_micro_rejects_negative_ns_per_op(self):
        doc = micro_doc()
        doc["rows"][1]["ns_per_op"] = -1.0
        self.assertTrue(
            any("negative ns_per_op" in e for e in self._validate(doc)))

    def test_micro_rejects_non_numeric_summary(self):
        doc = micro_doc()
        doc["summary"]["speedup_at_max_threads"] = "fast"
        self.assertTrue(
            any("summary['speedup_at_max_threads']" in e
                for e in self._validate(doc)))

    def test_unknown_schema_message_lists_micro(self):
        doc = micro_doc()
        doc["schema"] = "wazi.bench.micro/99"
        errors = self._validate(doc)
        self.assertEqual(len(errors), 1)
        self.assertIn("wazi.bench.micro/1", errors[0])

    def test_invalid_json_reported(self):
        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         delete=False) as f:
            f.write("{nope")
            path = f.name
        try:
            errors = chk.validate(path)
        finally:
            os.unlink(path)
        self.assertEqual(len(errors), 1)
        self.assertIn("invalid JSON", errors[0])


if __name__ == "__main__":
    unittest.main()

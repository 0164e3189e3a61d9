"""Unit tests for tools/compare_bench_json.py (the regression gate).

Run from the repo root:  python3 -m unittest discover -s tools/tests
"""

import copy
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir))

import compare_bench_json as cmp_mod

from test_check_bench_json import scenario_doc


class _Opts:
    min_qps_ratio = 0.75
    max_p50_ratio = 1.8
    max_p99_ratio = 1.8
    min_abs_qps = 10.0
    min_abs_latency_ns = 100.0


class CompareTest(unittest.TestCase):

    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self._tmp.cleanup)

    def _write(self, name, doc):
        path = os.path.join(self._tmp.name, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        return path

    def _compare(self, base_doc, fresh_doc, opts=None):
        base = self._write("base.json", base_doc)
        fresh = self._write("fresh.json", fresh_doc)
        return cmp_mod.compare(base, fresh, opts or _Opts())

    def test_identical_runs_pass(self):
        doc = scenario_doc()
        self.assertEqual(self._compare(doc, copy.deepcopy(doc)), [])

    def test_small_jitter_passes(self):
        base = scenario_doc()
        fresh = copy.deepcopy(base)
        fresh["phases"][0]["qps"] = base["phases"][0]["qps"] * 0.9
        fresh["phases"][0]["p99_ns"] = int(base["phases"][0]["p99_ns"] * 1.2)
        self.assertEqual(self._compare(base, fresh), [])

    def test_qps_regression_fails(self):
        base = scenario_doc()
        fresh = copy.deepcopy(base)
        fresh["phases"][0]["qps"] = base["phases"][0]["qps"] * 0.5
        errors = self._compare(base, fresh)
        self.assertTrue(any("qps regressed" in e for e in errors))

    def test_doubled_latency_fails(self):
        base = scenario_doc()
        fresh = copy.deepcopy(base)
        fresh["phases"][0]["p99_ns"] = base["phases"][0]["p99_ns"] * 2
        errors = self._compare(base, fresh)
        self.assertTrue(any("p99_ns regressed" in e for e in errors))

    def test_tiny_latencies_skip_ratio_gate(self):
        # 40ns -> 80ns is timer noise, not a regression: both sit below
        # min_abs_latency_ns.
        base = scenario_doc()
        base["phases"][0]["p50_ns"] = 40
        base["phases"][0]["p99_ns"] = 40
        fresh = copy.deepcopy(base)
        fresh["phases"][0]["p50_ns"] = 80
        fresh["phases"][0]["p99_ns"] = 80
        self.assertEqual(self._compare(base, fresh), [])

    def test_identity_mismatch_fails(self):
        base = scenario_doc()
        fresh = copy.deepcopy(base)
        fresh["seed"] = 43
        errors = self._compare(base, fresh)
        self.assertTrue(any("identity mismatch on 'seed'" in e
                            for e in errors))

    def test_fresh_invariant_failure_fails(self):
        base = scenario_doc()
        fresh = copy.deepcopy(base)
        fresh["passed"] = False
        fresh["failures"] = ["sentinel lost"]
        errors = self._compare(base, fresh)
        self.assertTrue(any("failed invariants" in e for e in errors))
        self.assertTrue(any("sentinel lost" in e for e in errors))

    def test_missing_phase_fails_new_phase_allowed(self):
        base = scenario_doc()
        fresh = copy.deepcopy(base)
        extra = copy.deepcopy(fresh["phases"][0])
        extra["name"] = "brand_new"
        fresh["phases"].append(extra)
        self.assertEqual(self._compare(base, fresh), [])

        fresh = copy.deepcopy(base)
        fresh["phases"] = []
        errors = self._compare(base, fresh)
        self.assertTrue(any("missing from the fresh run" in e
                            for e in errors))

    def test_main_dir_mode_and_missing_baseline(self):
        os.makedirs(os.path.join(self._tmp.name, "base"))
        os.makedirs(os.path.join(self._tmp.name, "fresh"))
        doc = scenario_doc()
        for d in ("base", "fresh"):
            with open(os.path.join(self._tmp.name, d, "BENCH_a.json"), "w",
                      encoding="utf-8") as f:
                json.dump(doc, f)
        with open(os.path.join(self._tmp.name, "fresh", "BENCH_b.json"), "w",
                  encoding="utf-8") as f:
            json.dump(doc, f)
        argv = ["compare_bench_json.py",
                "--baseline-dir", os.path.join(self._tmp.name, "base"),
                "--fresh-dir", os.path.join(self._tmp.name, "fresh")]
        # BENCH_b has no baseline: fails without the flag, passes with it.
        self.assertEqual(cmp_mod.main(argv), 1)
        self.assertEqual(cmp_mod.main(argv + ["--allow-missing-baseline"]),
                         0)

    def test_main_pair_mode(self):
        doc = scenario_doc()
        base = self._write("b.json", doc)
        fresh = self._write("f.json", doc)
        self.assertEqual(
            cmp_mod.main(["compare_bench_json.py", base, fresh]), 0)
        bad = copy.deepcopy(doc)
        bad["phases"][0]["qps"] = 1.0
        bad["phases"][0]["p99_ns"] = 10 ** 9
        fresh_bad = self._write("fb.json", bad)
        self.assertEqual(
            cmp_mod.main(["compare_bench_json.py", base, fresh_bad]), 1)


if __name__ == "__main__":
    unittest.main()

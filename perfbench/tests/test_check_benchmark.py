"""Tests for perfbench/check_benchmark.py.

    python3 -m unittest discover -s perfbench/tests
"""

import io
import json
import os
import statistics
import sys
import tempfile
import unittest
import unittest.mock

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import check_benchmark as cb  # noqa: E402

BENCH = {
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "read_qps", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
    "per_layer": [
        {"name": "index.scan_us", "unit": "us", "better": "lower"},
    ],
}


def result_line(metrics, failed=0):
    return json.dumps({
        "correct": failed == 0, "attempted": 100, "failed": failed,
        "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()},
    })


class RunDir:
    """A temporary directory of run outputs."""

    def __init__(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.path = self._tmp.name

    def add(self, workload, seed, metrics, failed=0):
        with open(os.path.join(self.path, f"{workload}-{seed}.out"), "w") as f:
            f.write("metric read_qps 1 1/s n=1\n")
            f.write(result_line(metrics, failed) + "\n")

    def cleanup(self):
        self._tmp.cleanup()


class ParseTest(unittest.TestCase):
    def test_result_is_the_last_line(self):
        d = RunDir()
        self.addCleanup(d.cleanup)
        d.add("churn", 3, {"read_qps": 5.0})
        r = cb.parse_result(os.path.join(d.path, "churn-3.out"))
        self.assertEqual(r["metrics"]["read_qps"]["value"], 5.0)

    def test_result_without_verdict_is_rejected(self):
        d = RunDir()
        self.addCleanup(d.cleanup)
        path = os.path.join(d.path, "x-1.out")
        with open(path, "w") as f:
            f.write('{"metrics": {}}\n')
        with self.assertRaises(ValueError):
            cb.parse_result(path)

    def test_workload_comes_from_the_file_name(self):
        self.assertEqual(cb.workload_of("/a/paper_reads-12.out"), "paper_reads")
        self.assertEqual(cb.workload_of("wire_hot-7.out"), "wire_hot")

    def test_quartiles_match_statistics(self):
        values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
        self.assertEqual(cb.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))
        self.assertEqual(cb.quartiles([2.0]), (2.0, 2.0, 2.0))


class CompareTest(unittest.TestCase):
    def make(self, qps, setup=None, failed=0):
        d = RunDir()
        self.addCleanup(d.cleanup)
        for i, v in enumerate(qps):
            d.add("churn", i, {"read_qps": v,
                               "setup_s": setup[i] if setup else 1.0},
                  failed=failed if i == 0 else 0)
        return d.path

    def run_compare(self, *dirs):
        return cb.compare(list(dirs), BENCH, out=io.StringIO())

    def test_steady_sets_pass(self):
        a = self.make([100, 101, 99, 100, 102])
        b = self.make([101, 100, 100, 99, 101])
        self.assertEqual(self.run_compare(a, b), [])

    def test_medians_apart_by_more_than_the_bound_fail(self):
        a = self.make([100, 101, 99, 100, 102])
        b = self.make([85, 86, 84, 85, 86])
        failures = self.run_compare(a, b)
        self.assertEqual(len(failures), 1)
        self.assertIn("medians differ", failures[0])

    def test_wide_spread_fails_for_every_metric(self):
        wide = self.make([50, 100, 150, 100, 60],
                         setup=[0.5, 1.0, 1.5, 1.0, 0.6])
        failures = self.run_compare(wide)
        self.assertEqual(len(failures), 2)
        self.assertIn("read_qps: spread", failures[0])
        self.assertIn("setup_s: spread", failures[1])

    def test_a_run_without_result_fails(self):
        a = self.make([100, 100, 100])
        with open(os.path.join(a, "churn-9.out"), "w") as f:
            f.write("run.py: build failed\n")
        failures = self.run_compare(a)
        self.assertEqual(len(failures), 1)
        self.assertIn("churn-9.out: no result", failures[0])

    def test_a_failed_run_fails(self):
        a = self.make([100, 100, 100], failed=2)
        failures = self.run_compare(a)
        self.assertEqual(len(failures), 1)
        self.assertIn("failed 2 of 100", failures[0])

    def test_benchmark_file_bounds_drive_the_cli(self):
        bench = cb.load_benchmark()
        metrics = {m["name"]: 1.0 for m in bench["end_to_end"]}
        d = RunDir()
        self.addCleanup(d.cleanup)
        for seed in range(3):
            d.add("paper_reads", seed, metrics)
        with unittest.mock.patch("sys.stdout", io.StringIO()):
            self.assertEqual(cb.main(["compare", d.path]), 0)
            d.add("paper_reads", 9, metrics, failed=1)
            self.assertEqual(cb.main(["compare", d.path]), 1)


class CollectTest(unittest.TestCase):
    """collect with --trace, the runner replaced by a stub."""

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)
        self.trace_dir = os.path.join(self.tmp.name, "traces")
        os.makedirs(self.trace_dir)
        self.out = os.path.join(self.tmp.name, "out")
        bench = {"run_seconds": 1, "workloads": [{"name": "churn"}]}
        for target, value in (("TRACE_DIR", self.trace_dir),
                              ("load_benchmark", lambda: bench)):
            patcher = unittest.mock.patch.object(cb, target, value)
            patcher.start()
            self.addCleanup(patcher.stop)

    def collect(self, code, writes_trace):
        def run(argv, stdout):
            if writes_trace:
                with open(os.path.join(self.trace_dir,
                                       "trace_churn.jsonl"), "w") as f:
                    f.write("{}\n")
            return unittest.mock.Mock(returncode=code)
        args = unittest.mock.Mock(out=self.out, runs=1, sets=1, seed_base=1,
                                  trace=True)
        with unittest.mock.patch.object(cb.subprocess, "run", run), \
                unittest.mock.patch("sys.stdout", io.StringIO()):
            return cb.collect(args)

    def test_successful_run_keeps_its_spans(self):
        self.assertEqual(self.collect(0, writes_trace=True), 0)
        self.assertTrue(os.path.exists(os.path.join(self.out, "churn-1.jsonl")))

    def test_stale_spans_are_never_filed(self):
        with open(os.path.join(self.trace_dir, "trace_churn.jsonl"), "w") as f:
            f.write("{}\n")
        self.assertEqual(self.collect(0, writes_trace=False), 1)
        self.assertFalse(os.path.exists(os.path.join(self.out, "churn-1.jsonl")))

    def test_failed_run_is_reported(self):
        self.assertEqual(self.collect(1, writes_trace=True), 1)
        self.assertFalse(os.path.exists(os.path.join(self.out, "churn-1.jsonl")))


class TraceTest(unittest.TestCase):
    def write(self, spans, metrics):
        d = RunDir()
        self.addCleanup(d.cleanup)
        trace = os.path.join(d.path, "t.jsonl")
        with open(trace, "w") as f:
            for s in spans:
                f.write(json.dumps(s) + "\n")
        d.add("paper_reads", 1, metrics)
        return trace, os.path.join(d.path, "paper_reads-1.out")

    @staticmethod
    def span(span, parent, request, start=0, end=5, name="index.scan"):
        return {"name": name, "request": request, "span": span,
                "parent": parent, "start_ns": start, "end_ns": end}

    def test_well_formed_trace_passes(self):
        trace, result = self.write(
            [self.span(1, 0, 7, 0, 10, "read.range"), self.span(2, 1, 7, 2, 4)],
            {"index.scan_us": 1.0})
        self.assertEqual(cb.check_trace(trace, result, BENCH), [])

    def test_span_ending_before_its_start_fails(self):
        trace, result = self.write([self.span(1, 0, 7, 10, 3)],
                                   {"index.scan_us": 1.0})
        problems = cb.check_trace(trace, result, BENCH)
        self.assertEqual(len(problems), 1)
        self.assertIn("ends before it starts", problems[0])

    def test_parent_in_another_request_fails(self):
        trace, result = self.write(
            [self.span(1, 0, 7), self.span(2, 1, 8), self.span(3, 99, 8)],
            {"index.scan_us": 1.0})
        problems = cb.check_trace(trace, result, BENCH)
        self.assertEqual(len(problems), 2)

    def test_missing_per_layer_metric_fails(self):
        trace, result = self.write([self.span(1, 0, 7)], {"other": 1.0})
        problems = cb.check_trace(trace, result, BENCH)
        self.assertEqual(len(problems), 1)
        self.assertIn("index.scan_us missing", problems[0])


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Unit tests for tools/bench_compare.py on synthetic Google-Benchmark JSON.

Run: python3 tools/bench_compare_test.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_compare  # noqa: E402


def iteration(name, items_per_second=None, cpu_time=None):
    entry = {"name": name, "run_type": "iteration", "time_unit": "ns"}
    if items_per_second is not None:
        entry["items_per_second"] = items_per_second
    if cpu_time is not None:
        entry["cpu_time"] = cpu_time
    return entry


def aggregate(name, kind, items_per_second):
    return {"name": f"{name}_{kind}", "run_type": "aggregate", "aggregate_name": kind,
            "items_per_second": items_per_second, "time_unit": "ns"}


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.dir.cleanup()

    def write(self, file_name, benchmarks):
        path = os.path.join(self.dir.name, file_name)
        with open(path, "w") as f:
            json.dump({"context": {}, "benchmarks": benchmarks}, f)
        return path

    def repeated(self, file_name, rates):
        """A --benchmark_repetitions=len(rates) file for BM_Op, with the
        aggregate entries Google Benchmark appends."""
        benchmarks = [iteration("BM_Op", items_per_second=r) for r in rates]
        benchmarks.append(aggregate("BM_Op", "mean", sum(rates) / len(rates)))
        benchmarks.append(aggregate("BM_Op", "median", sorted(rates)[len(rates) // 2]))
        return self.write(file_name, benchmarks)

    def test_repetitions_reduce_to_their_median(self):
        path = self.repeated("BENCH_op.json", [100.0, 300.0, 200.0])
        self.assertEqual(bench_compare.load_rates(path), {"BM_Op": (200.0, "items/s", 3)})

    def test_single_run_files_keep_their_rate(self):
        path = self.write("BENCH_op.json", [iteration("BM_Op", cpu_time=4.0)])
        self.assertEqual(bench_compare.load_rates(path),
                         {"BM_Op": (0.25, "1/cpu_time[ns]", 1)})

    def test_a_bad_last_repetition_does_not_decide(self):
        base = self.repeated("base.json", [100.0, 100.0, 100.0])
        fresh = self.repeated("fresh.json", [100.0, 101.0, 50.0])
        self.assertEqual(bench_compare.compare_file(fresh, base, 10.0), [])

    def test_a_regressed_median_fails(self):
        base = self.repeated("base.json", [100.0, 100.0, 100.0])
        fresh = self.repeated("fresh.json", [80.0, 85.0, 100.0])
        failures = bench_compare.compare_file(fresh, base, 10.0)
        self.assertEqual([name for name, _ in failures], ["BM_Op"])
        self.assertAlmostEqual(failures[0][1], -15.0)

    def test_a_spread_beyond_the_tolerance_is_marked_noisy_but_rules_alone(self):
        base = self.repeated("base.json", [100.0, 100.0, 100.0])
        fresh = self.repeated("fresh.json", [70.0, 100.0, 130.0])  # cv 30%
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            failures = bench_compare.compare_file(fresh, base, 10.0)
        self.assertEqual(failures, [])  # the median held: no gate moved
        self.assertIn("cv 0.0%->30.0%  noisy", out.getvalue())
        self.assertAlmostEqual(bench_compare.cv_percent([70.0, 100.0, 130.0]), 30.0)
        self.assertEqual(bench_compare.cv_percent([5.0]), 0.0)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            failures = bench_compare.compare_file(fresh, base, 40.0)
        self.assertNotIn("noisy", out.getvalue())

    def test_a_noisy_regression_still_fails(self):
        base = self.repeated("base.json", [100.0, 100.0, 100.0])
        fresh = self.repeated("fresh.json", [40.0, 80.0, 120.0])
        with contextlib.redirect_stdout(io.StringIO()):
            failures = bench_compare.compare_file(fresh, base, 10.0)
        self.assertEqual([name for name, _ in failures], ["BM_Op"])


if __name__ == "__main__":
    unittest.main()

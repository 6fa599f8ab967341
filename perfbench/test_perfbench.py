#!/usr/bin/env python3
"""Tests of the benchmark itself: the statistics helpers, the shape of
BENCHMARK.json, and a smoke run of every workload at toy size.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The smoke tests build the harness first (perfbench/run.py does it) and take
a few seconds once the build exists.
"""

import json
import os
import re
import statistics
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class StatsTest(unittest.TestCase):
    def test_median(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 2, 3]), 2.5)
        with self.assertRaises(ValueError):
            stats.median([])

    def test_quartiles_match_statistics_quantiles(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0]
        self.assertEqual(stats.quartiles(values), tuple(statistics.quantiles(values, n=4)))
        with self.assertRaises(ValueError):
            stats.quartiles([1.0])

    def test_spread_is_iqr_over_median(self):
        values = [10.0, 10.0, 10.0, 10.0]
        self.assertEqual(stats.spread(values), 0.0)
        q1, q2, q3 = statistics.quantiles([8.0, 9.0, 10.0, 11.0, 12.0], n=4)
        self.assertAlmostEqual(stats.spread([8.0, 9.0, 10.0, 11.0, 12.0]), (q3 - q1) / q2)

    def test_percentile_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 90), 90)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertEqual(stats.percentile([7.0], 90), 7.0)

    def test_tail_percentile_keeps_ten_samples_beyond(self):
        self.assertIsNone(stats.tail_percentile(list(range(19))))
        self.assertEqual(stats.tail_percentile(list(range(20)))[0], 50.0)
        self.assertEqual(stats.tail_percentile(list(range(40)))[0], 75.0)
        # 100 samples: p90 leaves exactly 10 beyond, p95 only 5.
        self.assertEqual(stats.tail_percentile(list(range(1, 101))), (90.0, 90))
        self.assertEqual(stats.tail_percentile(list(range(1000)))[0], 99.0)
        self.assertEqual(stats.tail_percentile(list(range(10000)))[0], 99.9)

    def test_ratio_reports_its_base(self):
        r = stats.ratio(3, 4, "cache lookups")
        self.assertEqual(r, {"value": 0.75, "base": "cache lookups", "base_count": 4})
        self.assertEqual(stats.ratio(0, 0, "cache lookups")["value"], 0.0)

    def test_unstolen_scales_by_the_share_not_stolen(self):
        import run
        self.assertEqual(run.unstolen([2.0, 1.0], [0.0, 0.25]), [2.0, 0.75])


class SpecTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.spec = json.load(f)

    def test_shape(self):
        s = self.spec
        self.assertEqual(set(s), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        self.assertEqual(s["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(s["paths"], ["perfbench"])
        self.assertIsInstance(s["run_seconds"], int)
        self.assertTrue(1 <= s["run_seconds"] <= 60)
        self.assertEqual([w["name"] for w in s["workloads"]],
                         ["shipped_split", "hmp_balanced", "survey_io", "serve_mixed"])
        for w in s["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])

    def test_metrics(self):
        names = set()
        for m in self.spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
            self.assertNotIn(m["name"], names)
            names.add(m["name"])
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in self.spec["end_to_end"]))


class SmokeTest(unittest.TestCase):
    """Every workload end to end at toy size, with and without tracing."""

    def run_bench(self, trace):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "all", "--smoke",
             "--seed", "7", "--trace", str(trace)],
            capture_output=True, text=True, timeout=900)
        self.assertEqual(proc.returncode, 0, proc.stderr + proc.stdout[-2000:])
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def check(self, trace, section):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        result = self.run_bench(trace)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = {"%s.%s" % (w["name"], m["name"])
                    for w in spec["workloads"] for m in spec[section]}
        self.assertEqual(set(result["metrics"]), expected)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
        return result

    def test_end_to_end(self):
        result = self.check(0, "end_to_end")
        for name, m in result["metrics"].items():
            self.assertGreater(m["value"], 0, name)

    def test_traced(self):
        result = self.check(1, "per_layer")
        m = result["metrics"]
        for w in ("shipped_split", "hmp_balanced", "survey_io", "serve_mixed"):
            self.assertGreaterEqual(m[w + ".fs.residual_s_max"]["value"], 0)
            self.assertGreater(m[w + ".haralick.pair_updates_per_roi"]["value"], 0)
        self.assertGreater(m["serve_mixed.io.cache_hit_ratio"]["value"], 0.5)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Self-test for tools/bench_trend (standard library only).

Each case writes a doctored BENCHMARK.json and BENCH_pr*.json history into a
temporary directory, runs bench_trend on it as a subprocess, and checks the
exit code and the lines it prints:

    python3 tools/test_bench_trend.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_TREND = os.path.join(HERE, "bench_trend")

SPEC = {
    "end_to_end": [
        {"name": "latency_ms_mean", "unit": "ms", "better": "lower", "bound": 0.25},
    ],
    "per_layer": [
        {"name": "speedup_p4", "unit": "x", "better": "higher"},
        {"name": "obs.trace_overhead_pct", "unit": "%", "better": "lower"},
    ],
}


def perfbench_doc(latency, speedup=None, overhead=None):
    """A perfbench-schema BENCH file with one solve_zp workload."""
    traced = {}
    if speedup is not None:
        traced["speedup_p4"] = {"value": speedup, "unit": "x"}
    if overhead is not None:
        traced["obs.trace_overhead_pct"] = {"value": overhead, "unit": "%"}
    return {"bench": "perfbench", "workloads": {"solve_zp": {
        "metrics": {"latency_ms_mean": {"value": latency, "unit": "ms"}},
        "traced": {"metrics": traced}}}}


class BenchTrendTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = self.tmp.name
        self.write("BENCHMARK.json", SPEC)

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, name, doc):
        path = os.path.join(self.dir, name)
        with open(path, "w") as f:
            json.dump(doc, f)
        return path

    def run_trend(self, *args):
        proc = subprocess.run([sys.executable, BENCH_TREND, "--dir", self.dir, *args],
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        return proc.returncode, proc.stdout

    # ---- history mode -------------------------------------------------------

    def test_history_flags_a_regression_against_the_best_earlier_pr(self):
        self.write("BENCH_pr1.json", perfbench_doc(latency=50.0))
        self.write("BENCH_pr2.json", perfbench_doc(latency=40.0))
        self.write("BENCH_pr3.json", perfbench_doc(latency=48.0))  # 20% worse than pr2
        code, out = self.run_trend()
        self.assertEqual(code, 1, out)
        self.assertIn("REGRESSION  perfbench/solve_zp [latency_ms_mean]", out)
        self.assertIn("40.000 (pr2) -> 48.000", out)

    def test_history_within_threshold_passes(self):
        self.write("BENCH_pr1.json", perfbench_doc(latency=40.0))
        self.write("BENCH_pr2.json", perfbench_doc(latency=44.0))  # 10% worse
        code, out = self.run_trend()
        self.assertEqual(code, 0, out)
        self.assertIn("1 key(s) checked, 0 regression(s)", out)

    def test_history_orders_files_by_pr_number_not_name(self):
        self.write("BENCH_pr9.json", perfbench_doc(latency=40.0))
        self.write("BENCH_pr10.json", perfbench_doc(latency=60.0))  # newest, and worse
        code, out = self.run_trend()
        self.assertEqual(code, 1, out)
        self.assertIn("40.000 (pr9) -> 60.000", out)

    def test_history_compares_a_file_with_a_parent_block_against_its_parent(self):
        # The newest session measured its parent on the same host: 60 -> 55
        # is a gain there, though 55 is worse than an earlier session's 40.
        self.write("BENCH_pr1.json", perfbench_doc(latency=40.0))
        doc = perfbench_doc(latency=55.0)
        doc["parent"] = {"workloads": perfbench_doc(latency=60.0)["workloads"]}
        self.write("BENCH_pr2.json", doc)
        code, out = self.run_trend("-v")
        self.assertEqual(code, 0, out)
        self.assertIn("ok  perfbench/solve_zp [latency_ms_mean]v: 60.000 (pr2 parent) -> 55.000",
                      out)
        doc["parent"] = {"workloads": perfbench_doc(latency=45.0)["workloads"]}
        self.write("BENCH_pr2.json", doc)
        code, out = self.run_trend()
        self.assertEqual(code, 1, out)
        self.assertIn("45.000 (pr2 parent) -> 55.000", out)

    # ---- --fresh ------------------------------------------------------------

    def test_fresh_compares_against_the_committed_best(self):
        self.write("BENCH_pr1.json", perfbench_doc(latency=50.0))
        self.write("BENCH_pr2.json", perfbench_doc(latency=40.0))
        fresh = os.path.join(self.dir, "fresh.json")
        with open(fresh, "w") as f:
            json.dump(perfbench_doc(latency=60.0), f)
        code, out = self.run_trend("--fresh", fresh)
        self.assertEqual(code, 1, out)
        self.assertIn("40.000 (pr2) -> 60.000", out)
        with open(fresh, "w") as f:
            json.dump(perfbench_doc(latency=41.0), f)
        code, out = self.run_trend("--fresh", fresh)
        self.assertEqual(code, 0, out)

    def test_fresh_reports_keys_without_history_but_does_not_fail(self):
        self.write("BENCH_pr1.json", perfbench_doc(latency=50.0))
        fresh = os.path.join(self.dir, "fresh.json")
        with open(fresh, "w") as f:
            json.dump(perfbench_doc(latency=50.0, speedup=0.1), f)
        code, out = self.run_trend("--fresh", fresh, "-v")
        self.assertEqual(code, 0, out)
        self.assertIn("new  perfbench/solve_zp [speedup_p4]", out)

    # ---- direction normalisation -------------------------------------------

    def test_higher_is_better_regresses_when_it_falls(self):
        self.write("BENCH_pr1.json", perfbench_doc(latency=40.0, speedup=2.0))
        self.write("BENCH_pr2.json", perfbench_doc(latency=40.0, speedup=1.5))
        code, out = self.run_trend()
        self.assertEqual(code, 1, out)
        self.assertIn("REGRESSION  perfbench/solve_zp [speedup_p4]^", out)

    def test_improvements_in_either_direction_pass(self):
        self.write("BENCH_pr1.json", perfbench_doc(latency=40.0, speedup=1.0))
        self.write("BENCH_pr2.json", perfbench_doc(latency=20.0, speedup=3.0))
        code, out = self.run_trend("-v")
        self.assertEqual(code, 0, out)
        self.assertIn("ok  perfbench/solve_zp [latency_ms_mean]v", out)
        self.assertIn("ok  perfbench/solve_zp [speedup_p4]^", out)
        self.assertIn("(2.00x)", out)  # goodness-relative: a halved latency reads 2x
        self.assertIn("(3.00x)", out)

    def test_legacy_rows_are_watched_by_field_suffix(self):
        # Older BENCH files carry rows with watchable field names, not the
        # perfbench schema: *_speedup is higher-is-better, *_latency_ms lower.
        def legacy(speedup, latency):
            return {"bench": "kernel", "rows": [
                {"problem": "katsura4", "order": "grlex", "coeff": "zp",
                 "wall_speedup": speedup, "p50_latency_ms": latency, "ignored": 1e9}]}
        self.write("BENCH_pr1.json", legacy(speedup=4.0, latency=10.0))
        self.write("BENCH_pr2.json", legacy(speedup=4.0, latency=13.0))
        code, out = self.run_trend()
        self.assertEqual(code, 1, out)
        self.assertIn("kernel/katsura4/grlex/zp [p50_latency_ms]v", out)
        self.assertNotIn("wall_speedup]^", out)
        self.assertIn("2 key(s) checked, 1 regression(s)", out)

    # ---- the informational key ----------------------------------------------

    def test_trace_overhead_is_informational(self):
        self.write("BENCH_pr1.json", perfbench_doc(latency=40.0, overhead=0.5))
        self.write("BENCH_pr2.json", perfbench_doc(latency=40.0, overhead=23.9))
        code, out = self.run_trend()
        self.assertEqual(code, 0, out)
        self.assertNotIn("trace_overhead_pct", out)
        code, out = self.run_trend("-v")
        self.assertEqual(code, 0, out)
        self.assertIn("info  perfbench/solve_zp [obs.trace_overhead_pct]v: 0.500 (pr1) -> 23.900",
                      out)
        fresh = os.path.join(self.dir, "fresh.json")
        with open(fresh, "w") as f:
            json.dump(perfbench_doc(latency=40.0, overhead=90.0), f)
        code, out = self.run_trend("--fresh", fresh)
        self.assertEqual(code, 0, out)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Self-test of the perfbench benchmark.

    python3 perfbench/test_perfbench.py

Checks BENCHMARK.json against the benchmark contract, that every metric the
benchmark is specified to report is declared there, and runs every workload
for two seconds untraced and traced: each run must be correct and print
every declared metric with its declared unit, and each workload must report
(not merely default to 0) the per-layer metrics of the layers it exercises.
"""

import os
import re
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# The end-to-end metrics. Each is printed by every workload; the latency pair
# is the solve time on solve_zp and the job latency at the reference rate on
# serve_mix.
END_TO_END = ["setup_s", "latency_ms_mean", "latency_ms_tail", "peak_rss_mb"]

# Per-layer metrics each workload must measure itself.
LAYERS = {
    "solve": ["solve_ms_p50"],
    "io": ["io.parse_us"],
    "serve": ["serve.canonicalize_us", "serve.cache_hit_ratio", "serve.cache_evictions",
              "serve.queue_wait_ms_p50", "serve.queue_wait_ms_p99", "serve.exec_ms_p50",
              "serve.exec_ms_p99", "serve.cold_exec_us_p50", "loadgen.lag_us_p99",
              "job_latency_us_p50", "job_latency_us_p99", "hit_latency_us_p99",
              "max_rate_jobs_per_s"],
    "gb": ["gb.engine_ms", "gb.spolys_computed", "gb.zeroed_ratio", "gb.work_units"],
    "reduce_basis": ["gb.reduce_basis_ms"],
    "verify": ["verify.cert_ms", "verify.cert_share"],
    "matrix": ["kernel.matrix.batches", "kernel.matrix.frame_cols", "kernel.matrix.pivot_rows",
               "kernel.matrix.axpys", "kernel.matrix.dense_cells", "kernel.matrix.rows_zeroed",
               "kernel.matrix.memo_hit_ratio", "kernel.simd.sweep_ms", "kernel.simd.cells"],
    "reducer": ["kernel.find_reducer.probes", "kernel.find_reducer.mask_reject_ratio",
                "kernel.geobucket.axpys"],
    "poly": ["poly.symbolic_us", "poly.build_matrix_us", "poly.echelon_us", "poly.spoly_us",
             "poly.reduce_full_us"],
    "bigint": ["bigint.heap_allocs"],
    "glp": ["speedup_p4", "glp.reduce_pct", "glp.comm_pct", "glp.hold_pct", "glp.idle_pct",
            "glp.load_imbalance", "comm.messages_sent", "comm.bytes_sent",
            "basis.invalidations_sent", "basis.fetches_sent", "basis.bodies_received",
            "taskq.steals_sent", "taskq.steals_won", "mailbox.wakeups",
            "mailbox.lock_contended"],
    "obs": ["obs.trace_overhead_pct"],
    "errors": ["error_rate"],
}
WORKLOAD_LAYERS = {
    "solve_zp": ["solve", "io", "gb", "reduce_basis", "matrix", "reducer", "poly", "bigint",
                 "glp", "obs", "errors"],
    "serve_mix": ["io", "serve", "gb", "verify", "matrix", "reducer", "poly", "bigint", "obs",
                  "errors"],
}


class ContractTest(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec()

    def test_schema(self):
        s = self.spec
        self.assertEqual(set(s), {"command", "paths", "run_seconds", "workloads", "end_to_end",
                                  "per_layer"})
        self.assertTrue(1 <= len(s["paths"]) <= 16)
        self.assertTrue(all(re.match(r"^[A-Za-z0-9_.\-/]{1,200}$", p) for p in s["paths"]))
        self.assertTrue(len(s["command"]) <= 32 and all(len(a) <= 200 for a in s["command"]))
        self.assertIsInstance(s["run_seconds"], int)
        self.assertTrue(1 <= s["run_seconds"] <= 60)
        self.assertTrue(2 <= len(s["workloads"]) <= 8)
        for w in s["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        self.assertEqual([w["name"] for w in s["workloads"]], list(run.WORKLOADS))
        self.assertTrue(1 <= len(s["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(s["per_layer"]) <= 128)
        names = [m["name"] for m in s["end_to_end"] + s["per_layer"]] + list(run.WORKLOADS)
        self.assertEqual(len(names), len(set(names)))
        for m in s["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in s["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in s["end_to_end"] + s["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = [m for m in s["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in s["end_to_end"]))

    def test_every_specified_metric_is_declared(self):
        self.assertEqual([m["name"] for m in self.spec["end_to_end"]], END_TO_END)
        declared = [m["name"] for m in self.spec["per_layer"]]
        specified = [n for layer in LAYERS.values() for n in layer]
        self.assertEqual(sorted(declared), sorted(specified))


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = run.load_spec()
        if not run.build():
            raise RuntimeError("perfbench build failed")

    def check(self, workload, trace):
        code, result, not_applicable = run.run_once(workload, 1, 2, trace, self.spec, echo=False)
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        section = self.spec["per_layer"] if trace else self.spec["end_to_end"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in section])
        for m in section:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
        if trace:
            for layer in WORKLOAD_LAYERS[workload]:
                for name in LAYERS[layer]:
                    self.assertNotIn(name, not_applicable, "%s on %s" % (name, workload))
        else:
            for name in END_TO_END:
                self.assertGreater(result["metrics"][name]["value"], 0, name)

    def test_solve_zp(self):
        self.check("solve_zp", False)
        self.check("solve_zp", True)

    def test_serve_mix(self):
        self.check("serve_mix", False)
        self.check("serve_mix", True)


if __name__ == "__main__":
    unittest.main()

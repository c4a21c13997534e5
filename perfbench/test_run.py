#!/usr/bin/env python3
"""Self-test of the benchmark at tiny scale.

    python3 perfbench/test_run.py

Checks that run.py prints every metric BENCHMARK.json names, with its unit;
that the traced run's span file parses; and that a run that cannot succeed
(an unknown dataset, which returns a non-OK Status) counts as failed.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCALE = "0.05"


def bench(*args):
    p = subprocess.run([sys.executable, os.path.join(HERE, "run.py")] +
                       list(args), cwd=ROOT, capture_output=True, text=True,
                       timeout=600)
    lines = p.stdout.strip().splitlines()
    return p.returncode, lines[:-1], json.loads(lines[-1])


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class BenchmarkSelfTest(unittest.TestCase):

    def assertMetrics(self, metrics, wanted):
        self.assertEqual(sorted(metrics), sorted(m["name"] for m in wanted))
        for m in wanted:
            got = metrics[m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_end_to_end_metrics(self):
        for workload in (w["name"] for w in spec()["workloads"]):
            rc, rows, out = bench("--workload", workload, "--seed", "3",
                                  "--seconds", "1", "--trace", "0",
                                  "--scale", SCALE)
            self.assertEqual(rc, 0, "\n".join(rows))
            self.assertTrue(out["correct"])
            self.assertEqual(out["failed"], 0)
            self.assertGreaterEqual(out["attempted"], 1)
            self.assertMetrics(out["metrics"], spec()["end_to_end"])
            for m in spec()["end_to_end"]:
                self.assertGreater(out["metrics"][m["name"]]["value"], 0)
            text = "\n".join(rows)
            for name, unit in (("epoch1_s", "s"), ("device_peak_mb", "MB"),
                               ("failed_frac", "ratio")):
                self.assertRegex(text, r"%s\s+\S+ %s" % (name, unit))

    def test_per_layer_metrics_and_spans(self):
        for workload in (w["name"] for w in spec()["workloads"]):
            rc, rows, out = bench("--workload", workload, "--seed", "3",
                                  "--seconds", "1", "--trace", "1",
                                  "--scale", SCALE)
            self.assertEqual(rc, 0, "\n".join(rows))
            self.assertTrue(out["correct"])
            self.assertMetrics(out["metrics"], spec()["per_layer"])
            path = os.path.join(ROOT, ".bench_out",
                                "trace-%s-s3.json" % workload)
            with open(path) as f:
                events = json.load(f)["traceEvents"]
            self.assertTrue(events)
            ids = {e["args"]["id"] for e in events}
            for e in events:
                self.assertEqual(e["ph"], "X")
                self.assertGreaterEqual(e["dur"], 0)
                self.assertTrue(e["args"]["parent"] == -1 or
                                e["args"]["parent"] in ids)
            names = {e["name"] for e in events}
            for n in ("graph.load", "partition.build", "comm.plan",
                      "comm.load", "comm.accum", "gnn.fwd", "gnn.bwd",
                      "gnn.loss", "tensor.adam", "engine.epoch"):
                self.assertIn(n, names)

    def test_failing_run_is_counted(self):
        rc, rows, out = bench("--workload", "sage-reddit", "--seed", "3",
                              "--seconds", "1", "--trace", "0",
                              "--dataset", "no-such-dataset")
        self.assertNotEqual(rc, 0)
        self.assertFalse(out["correct"])
        self.assertGreaterEqual(out["attempted"], 1)
        self.assertEqual(out["failed"], out["attempted"])
        self.assertRegex("\n".join(rows),
                         r"failed_frac\s+1 ratio\s+\(%d of %d runs\)" % (
                             out["attempted"], out["attempted"]))


if __name__ == "__main__":
    unittest.main()

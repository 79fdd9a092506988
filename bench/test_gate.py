"""Self-test of the benchmark's own checks.

    python3 bench/test_gate.py

Shows that each correctness gate passes a right answer and trips on a
wrong one, that a counter mismatch between passes is caught, that the
trace wraps every binding of a layer function, and that BENCHMARK.json
names exactly the metrics and workloads run.py reports.
"""

from __future__ import annotations

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import LAGRANGIAN_PG33, WORKLOADS  # noqa: E402


def tiny_search(expected_max):
    """search_ex(4,2,2,3): rank 2 on 4 elements without a 3-point line has
    2 * 2 bases."""
    return workloads._search_op("tiny", "op1_s", "search_ex", (4, 2, 2, 3), 2, 2, 3, expected_max)


def cli_answer(payload, code=0):
    return {"argv": ["cmd"], "code": code, "stdout": json.dumps(payload) + "\n"}


class SearchGate(unittest.TestCase):
    def test_right_expected_value_passes(self):
        op = tiny_search(4)
        self.assertEqual(op.check(op.run({}), {}), [])

    def test_wrong_expected_value_trips(self):
        op = tiny_search(5)
        bad = op.check(op.run({}), {})
        self.assertTrue(any("max_bases 4 != 5" in msg for msg in bad), bad)

    def test_witness_with_forbidden_minor_trips(self):
        op = tiny_search(4)
        answer = op.run({})
        # U(2,4): every pair is a basis, so it has a U(2,3)-minor
        answer["witnesses"] = [[4, 2, [3, 5, 6, 9, 10, 12]]]
        answer["max_bases"] = 6
        check = workloads._search_gate(6, 2, 2, 3)
        self.assertIn("witness has a U(2,3)-minor", check(answer, {}))

    def test_partial_search_trips(self):
        op = tiny_search(4)
        answer = op.run({})
        answer["exhaustive"] = False
        self.assertIn("search not exhaustive", op.check(answer, {}))


class PipelineGates(unittest.TestCase):
    def test_lagrangian(self):
        value = float(LAGRANGIAN_PG33)
        good = cli_answer({"certified": True, "value": value})
        self.assertEqual(workloads.check_lagrangian(good, {}), [])
        off = cli_answer({"certified": True, "value": value + 1e-6})
        self.assertTrue(workloads.check_lagrangian(off, {}))
        uncertified = cli_answer({"certified": False, "value": value})
        self.assertTrue(workloads.check_lagrangian(uncertified, {}))
        self.assertTrue(workloads.check_lagrangian(cli_answer({}, code=1), {}))

    def test_minor(self):
        self.assertEqual(workloads.check_minor(cli_answer({"present": False}), {}), [])
        self.assertTrue(workloads.check_minor(cli_answer({"present": True}), {}))
        self.assertTrue(workloads.check_minor(cli_answer({"present": False}, code=2), {}))

    def test_structure(self):
        perm = list(range(14))
        inputs = {"lines77.perm": perm}
        classify = cli_answer(
            {"outcome": "two-lines", "line1": list(range(7)), "line2": list(range(7, 14))}
        )
        decompose = cli_answer(
            {"certificate": {"point_cap": True}, "lines": [], "leftover": list(range(14))}
        )
        cover = cli_answer({"tau2": 4})
        self.assertEqual(workloads.check_structure([classify, decompose, cover], inputs), [])
        wrong_cover = cli_answer({"tau2": 5})
        self.assertTrue(workloads.check_structure([classify, decompose, wrong_cover], inputs))
        failed_cert = cli_answer(
            {"certificate": {"point_cap": False}, "lines": [], "leftover": list(range(14))}
        )
        self.assertTrue(workloads.check_structure([classify, failed_cert, cover], inputs))
        wrong_lines = cli_answer(
            {"outcome": "two-lines", "line1": list(range(8)), "line2": list(range(7, 14))}
        )
        self.assertTrue(workloads.check_structure([wrong_lines, decompose, cover], inputs))


class Consistency(unittest.TestCase):
    def test_counter_mismatch_is_reported(self):
        op = {"name": "x", "answer": "a", "counters": {"nodes_explored": 1}}
        other = dict(op, counters={"nodes_explored": 2})
        self.assertEqual(run.consistency_problems([{"ops": [op]}, {"ops": [op]}], "w"), [])
        self.assertTrue(run.consistency_problems([{"ops": [op]}, {"ops": [other]}], "w"))


class Tracing(unittest.TestCase):
    def test_every_binding_is_wrapped_and_counted(self):
        import tracing

        tracer = tracing.install()
        self.assertEqual(tracing.unwrapped_references(tracer), [])
        from turan_matroids import extremal, matroid

        self.assertIs(extremal.validate_exchange, matroid.validate_exchange)
        tracer.reset()
        tracer.op = 1
        self.assertTrue(extremal.validate_exchange(3, [3, 5, 6]))
        tracer.op = 0
        calls, self_s = tracer.summary()
        self.assertEqual(calls["matroid.validate_exchange"], 1)
        self.assertEqual(calls["matroid.exchange_violation"], 1)
        self.assertEqual(tracer.extra["matroid.exchange_violation.pairs"], 9)
        self.assertGreaterEqual(self_s["matroid.validate_exchange"], 0.0)


class BenchmarkFile(unittest.TestCase):
    def test_names_match_run_py(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END)
        )
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], list(run.PER_LAYER))


if __name__ == "__main__":
    unittest.main()

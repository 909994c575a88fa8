#!/usr/bin/env python3
"""Unit tests for compare.py's verdict rules (stdlib unittest).

Run: python3 bench/e2e/test_compare.py
"""

import io
import json
import os
import sys
import tempfile
import unittest
from contextlib import redirect_stdout

sys.dont_write_bytecode = True  # leave no __pycache__ beside the sources
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402


def result(metrics, attempted=1000, failed=0):
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": "ms"}
                        for name, value in metrics.items()}}


BENCHMARK = {
    "workloads": [{"name": "w", "why": "test"}],
    "end_to_end": [{"name": "latency_ms", "unit": "ms", "better": "lower",
                    "bound": 0.1}],
    "per_layer": [{"name": "plan_rho_mean", "unit": "req/s", "better": "higher"},
                  {"name": "layer_ms", "unit": "ms", "better": "lower"}],
}


class VerdictTest(unittest.TestCase):
    def test_ties_count_for_neither_side(self):
        pairs = [(10.0, 10.0)] * 10
        self.assertEqual(compare.verdict(pairs, "lower", 0.1), ("unchanged", 0.0))

    def test_clear_gain_is_better(self):
        pairs = [(10.0 + 0.01 * k, 8.0 + 0.01 * k) for k in range(10)]
        self.assertEqual(compare.verdict(pairs, "lower", 0.1), ("better", 1.0))

    def test_gain_within_parent_spread_is_not_better(self):
        # The change wins every pair, but by less than the parent's own
        # quartile distance.
        parent = [10.0, 11.0, 12.0, 13.0, 14.0, 10.0, 11.0, 12.0, 13.0, 14.0]
        pairs = [(p, p - 0.1) for p in parent]
        result, share = compare.verdict(pairs, "lower", 0.5)
        self.assertEqual(share, 1.0)
        self.assertEqual(result, "unchanged")

    def test_spread_wider_than_bound_is_unresolved(self):
        parent = [10.0, 14.0, 10.0, 14.0, 10.0, 14.0, 10.0, 14.0]
        change = [14.5, 10.0, 14.5, 10.0, 14.5, 10.0, 14.5, 10.0]
        result, _ = compare.verdict(list(zip(parent, change)), "lower", 0.1)
        self.assertEqual(result, "unresolved")

    def test_regression_beyond_bound_is_worse(self):
        pairs = [(10.0, 12.0)] * 9 + [(10.0, 12.5)]
        self.assertEqual(compare.verdict(pairs, "lower", 0.1)[0], "worse")
        # Higher-is-better metrics read the other way round.
        flipped = [(12.0, 10.0)] * 10
        self.assertEqual(compare.verdict(flipped, "higher", 0.1)[0], "worse")

    def test_regression_within_bound_is_unchanged(self):
        pairs = [(10.0, 10.5)] * 10
        self.assertEqual(compare.verdict(pairs, "lower", 0.1)[0], "unchanged")


class SpecialRuleTest(unittest.TestCase):
    def test_error_rate_may_not_rise_at_all(self):
        parent = [result({}, attempted=100000)] * 5
        change = [result({}, attempted=100000)] * 4 + [
            result({}, attempted=100000, failed=1)]
        self.assertEqual(compare.error_verdict(parent, change)[0], "worse")
        self.assertEqual(compare.error_verdict(parent, parent)[0], "unchanged")
        self.assertEqual(compare.error_verdict(change, parent)[0], "better")

    def test_plan_rho_mean_is_exact(self):
        self.assertEqual(compare.rho_verdict([(1000.0, 1000.0)]), "unchanged")
        self.assertEqual(compare.rho_verdict([(1000.0, 1000.0 + 1e-8)]),
                         "unchanged")
        self.assertEqual(compare.rho_verdict([(1000.0, 1000.001)]), "changed")


class EndToEndTest(unittest.TestCase):
    def write(self, directory, name, payload):
        with open(os.path.join(directory, name), "w") as handle:
            handle.write("table line\n" + json.dumps(payload) + "\n")

    def test_directories_pair_by_seed_and_flag_regressions(self):
        with tempfile.TemporaryDirectory() as root:
            parent, change = os.path.join(root, "p"), os.path.join(root, "c")
            os.mkdir(parent)
            os.mkdir(change)
            for seed in range(1, 6):
                self.write(parent, f"w.seed{seed}.json", result({"latency_ms": 10.0}))
                self.write(change, f"w.seed{seed}.json", result({"latency_ms": 13.0}))
                traced = {"plan_rho_mean": 500.0 + seed, "layer_ms": 1.0}
                self.write(parent, f"w.seed{seed}.trace.json", result(traced))
                self.write(change, f"w.seed{seed}.trace.json", result(traced))
            with tempfile.NamedTemporaryFile("w", suffix=".json") as bench:
                json.dump(BENCHMARK, bench)
                bench.flush()
                out = io.StringIO()
                with redirect_stdout(out):
                    code = compare.main([parent, change, "--benchmark", bench.name])
        self.assertEqual(code, 1)
        text = out.getvalue()
        self.assertIn("latency_ms", text)
        self.assertIn("worse", text)
        self.assertRegex(text, r"plan_rho_mean .* unchanged")


if __name__ == "__main__":
    unittest.main()

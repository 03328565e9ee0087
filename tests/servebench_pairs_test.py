#!/usr/bin/env python3
"""Tests the per-metric verdict of scripts/servebench_pairs.py on synthetic runs.

    python3 tests/servebench_pairs_test.py
"""

import importlib.util
import os
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "scripts", "servebench_pairs.py")
spec = importlib.util.spec_from_file_location("servebench_pairs", SCRIPT)
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)
verdict = pairs.verdict

# Ten parent runs with median 100 and quartile spread 4 (98 .. 102).
BASE = [96, 97, 98, 98, 99, 101, 102, 102, 103, 104]


class VerdictTest(unittest.TestCase):
    def test_clear_gain_on_a_lower_is_better_metric(self):
        head = [x - 10 for x in BASE]
        self.assertEqual(verdict(BASE, head, "lower", 0.25), "gain")

    def test_gain_needs_nine_wins_in_ten(self):
        head = [x - 10 for x in BASE]
        head[0], head[1] = BASE[0] + 1, BASE[1] + 1  # two lost pairs
        self.assertEqual(verdict(BASE, head, "lower", 0.25), "within bound")
        head[1] = BASE[1]  # a tie wins for neither side
        self.assertEqual(verdict(BASE, head, "lower", 0.25), "within bound")
        head[1] = BASE[1] - 10
        self.assertEqual(verdict(BASE, head, "lower", 0.25), "gain")

    def test_gain_needs_the_median_to_beat_the_parent_spread(self):
        head = [x - 3 for x in BASE]  # wins every pair, moves less than 4
        self.assertEqual(verdict(BASE, head, "lower", 0.25), "within bound")

    def test_direction_follows_better(self):
        head = [x + 10 for x in BASE]
        self.assertEqual(verdict(BASE, head, "higher", 0.25), "gain")
        self.assertEqual(verdict(BASE, head, "lower", 0.25), "within bound")

    def test_worse_beyond_the_bound(self):
        head = [x * 1.3 for x in BASE]
        self.assertEqual(verdict(BASE, head, "lower", 0.25), "worse")
        self.assertEqual(verdict(BASE, head, "lower", 0.5), "within bound")
        self.assertEqual(verdict(BASE, [x * 0.7 for x in BASE], "higher",
                                 0.25), "worse")

    def test_spread_wider_than_the_bound_is_unresolved(self):
        noisy = [50, 60, 70, 90, 100, 100, 110, 130, 140, 150]
        self.assertEqual(verdict(BASE, noisy, "lower", 0.25), "unresolved")
        self.assertEqual(verdict(noisy, BASE, "lower", 0.25), "unresolved")

    def test_constant_ratio_is_within_bound(self):
        ones = [1.0] * 10
        self.assertEqual(verdict(ones, ones, "higher", 0.2), "within bound")
        self.assertEqual(verdict([0.0] * 10, [0.0] * 10, "higher", 0.2),
                         "within bound")


if __name__ == "__main__":
    unittest.main()

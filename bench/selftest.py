"""Self-test of the benchmark harness.

Usage (from the root of a checkout): python3 bench/selftest.py

Checks that op_tail_s picks the right percentile for a given sample count,
and that an op whose output does not match its pinned digest is counted
as a failure.
"""

from __future__ import annotations

import random
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(1, str(BENCH_DIR))

from run import closed_loop, tail  # noqa: E402
from workloads import WORKLOADS, load_pins  # noqa: E402


class TailTest(unittest.TestCase):
    def check(self, n: int, rank: int) -> None:
        samples = [float(i) for i in range(1, n + 1)]
        random.Random(n).shuffle(samples)
        value, percentile, beyond = tail(samples)
        self.assertEqual(value, float(rank))
        self.assertAlmostEqual(percentile, 100.0 * rank / n)
        self.assertEqual(beyond, n - rank)

    def test_ten_samples_beyond(self):
        self.check(100, 90)  # p90
        self.check(1000, 990)  # p99
        self.check(26, 16)
        self.check(20, 10)

    def test_never_below_the_median(self):
        self.check(19, 10)
        self.check(12, 6)
        self.check(4, 2)
        self.check(1, 1)


class DigestGateTest(unittest.TestCase):
    def run_once(self, pins: dict) -> int:
        _, _, _, failed = closed_loop(WORKLOADS["ablation"], random.Random(0), 0, pins)
        return failed

    def test_pinned_digest_passes(self):
        self.assertEqual(self.run_once(load_pins()), 0)

    def test_tampered_digest_is_a_failure(self):
        pins = load_pins()
        digest = pins["ablation_e1e1_csv_sha256"]
        pins["ablation_e1e1_csv_sha256"] = ("0" if digest[0] != "0" else "1") + digest[1:]
        self.assertEqual(self.run_once(pins), 1)


if __name__ == "__main__":
    unittest.main()

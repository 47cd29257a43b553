#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Builds `pb` the way run.py does, then checks that each workload's op
stream is a pure function of the seed: the same seed gives a
byte-identical stream (equal hashes) and another seed a different one.
"""
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class SeedDeterminism(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.pb = run.build()

    def stream_hash(self, workload, seed):
        out = subprocess.run(
            [self.pb, "opstream", "--workload", workload, "--seed", str(seed),
             "--seconds", "10"],
            capture_output=True, text=True, check=True, timeout=120)
        return out.stdout.strip()

    def test_same_seed_same_stream(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                self.assertEqual(self.stream_hash(w, 7), self.stream_hash(w, 7))

    def test_other_seed_other_stream(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                self.assertNotEqual(self.stream_hash(w, 7), self.stream_hash(w, 8))


if __name__ == "__main__":
    unittest.main()

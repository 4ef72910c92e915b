#!/usr/bin/env python3
"""Tests of the benchmark itself: its generators are seeded and its
correctness gates can fail.

Run from the root of a checkout (builds the benchmark on first use):

    python3 perfbench/tests/test_perfbench.py
"""

import json
import os
import re
import subprocess
import sys
import unittest

RUN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "run.py")
WORKLOADS = ["read-zipf", "read-cold", "write-phased", "write-mixed"]


def run(*args):
    result = subprocess.run([sys.executable, RUN] + list(args),
                            capture_output=True, text=True, timeout=600)
    return result.returncode, result.stdout


def digests(workload, seed):
    code, out = run("--workload", workload, "--seed", str(seed),
                    "--seconds", "2", "--digest-only")
    assert code == 0, out
    found = re.findall(r"^digest (\S+) ([0-9a-f]{16})", out, re.M)
    assert found, out
    return dict(found)


def result_line(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class SeededGenerators(unittest.TestCase):
    def test_same_seed_same_digests(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(digests(workload, 7), digests(workload, 7))

    def test_different_seeds_different_digests(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                a = digests(workload, 7)
                b = digests(workload, 8)
                self.assertEqual(a.keys(), b.keys())
                for name in a:
                    self.assertNotEqual(a[name], b[name], name)


class GatesCanFail(unittest.TestCase):
    def test_clean_run_passes(self):
        code, out = run("--workload", "read-cold", "--seed", "3",
                        "--seconds", "1", "--trace", "0")
        self.assertEqual(code, 0, out)
        result = result_line(out)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)

    def test_wrong_expected_answer_fails_the_run(self):
        code, out = run("--workload", "read-cold", "--seed", "3",
                        "--seconds", "1", "--trace", "0",
                        "--inject", "wrong-answer")
        self.assertNotEqual(code, 0, out)
        result = result_line(out)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_dropped_wal_record_fails_the_run(self):
        code, out = run("--workload", "write-phased", "--seed", "3",
                        "--seconds", "2", "--trace", "0",
                        "--inject", "drop-wal")
        self.assertNotEqual(code, 0, out)
        self.assertIn("wal check:", out)
        self.assertIn("MISMATCH", out)
        self.assertFalse(result_line(out)["correct"])


if __name__ == "__main__":
    unittest.main()

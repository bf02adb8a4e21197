"""Self-tests of the benchmark harness (no build needed):

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import unittest

import bench_lib
import run

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["w%d" % i for i in range(20)]
MODELS = ["m%d" % i for i in range(10)]


class PercentileTest(unittest.TestCase):
    def test_known_samples(self):
        xs = [5, 1, 4, 2, 3]
        self.assertEqual(bench_lib.percentile(xs, 0), 1)
        self.assertEqual(bench_lib.percentile(xs, 50), 3)
        self.assertEqual(bench_lib.percentile(xs, 100), 5)
        self.assertAlmostEqual(bench_lib.percentile(xs, 90), 4.6)
        self.assertAlmostEqual(bench_lib.percentile(range(1, 11), 90), 9.1)
        self.assertEqual(bench_lib.median([1, 2, 3, 4]), 2.5)
        self.assertEqual(bench_lib.percentile([7.5], 90), 7.5)

    def test_sub_second_samples_keep_their_values(self):
        # The program's log-2 histograms put all of these in one [0, 1)
        # bucket; raw samples must not be bucketed.
        xs = [0.03, 0.05, 0.1, 0.16, 0.2, 0.9]
        self.assertAlmostEqual(bench_lib.median(xs), 0.13)

    def test_no_samples(self):
        with self.assertRaises(ValueError):
            bench_lib.percentile([], 50)


class DigestTest(unittest.TestCase):
    REPORT = json.dumps({"study": "server-suite", "runs": [
        {"workload": "kv", "tech": "Oh", "stats": {"cycles": 1.5e6}}]},
        separators=(",", ":")).encode()

    def test_one_byte_change_is_caught(self):
        pin = bench_lib.digest(self.REPORT)
        self.assertTrue(bench_lib.digest_matches(self.REPORT, pin))
        for i in range(len(self.REPORT)):
            changed = bytearray(self.REPORT)
            changed[i] ^= 0x01
            self.assertFalse(bench_lib.digest_matches(bytes(changed), pin))

    def test_raw_members_keep_the_program_bytes(self):
        line = ('{"coalesced":false,"id":"r3","ok":true,'
                '"result":{"speedup":1.0,"x":[1e-05,2]},"runSeconds":0.5}')
        raw = bench_lib.raw_members(line)
        self.assertEqual(raw["result"], '{"speedup":1.0,"x":[1e-05,2]}')
        self.assertEqual(raw["id"], '"r3"')
        self.assertEqual(json.loads(raw["runSeconds"]), 0.5)


class SequenceTest(unittest.TestCase):
    def test_same_seed_same_classes(self):
        a = bench_lib.make_sequence("7/0", WORKLOADS, MODELS)
        b = bench_lib.make_sequence("7/0", WORKLOADS, MODELS)
        self.assertEqual(a, b)
        self.assertEqual(bench_lib.classify(a), bench_lib.classify(b))

    def test_other_seed_other_classes(self):
        a = bench_lib.make_sequence("7/0", WORKLOADS, MODELS)
        b = bench_lib.make_sequence("8/0", WORKLOADS, MODELS)
        self.assertNotEqual(bench_lib.classify(a), bench_lib.classify(b))

    def test_shape(self):
        seq = bench_lib.make_sequence("7/0", WORKLOADS, MODELS)
        classes = bench_lib.classify(seq)
        cold = [p for p, c in zip(seq, classes) if c == "cold"]
        self.assertEqual(len(seq), 360)
        self.assertEqual(len(cold), len(set(seq)))
        self.assertGreaterEqual(classes.count("cold"), 100)
        self.assertGreaterEqual(classes.count("warm"), 100)
        for w in WORKLOADS:
            self.assertEqual(sum(1 for p in cold if p[0] == w),
                             bench_lib.COLD_PER_WORKLOAD)


class BenchmarkJsonTest(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(run.PER_LAYER))
        # Every workload the harness runs is benchmarked, and only those.
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()

"""Tests of the benchmark's statistics, tail selection, digest check and
result emission, on synthetic inputs.

    python3 perfbench/run.py --self-test    (also runs the C++ digest test)
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spec  # noqa: E402
import stats  # noqa: E402


def synthetic_raw(passes=2, intervals=60, trace=False):
    """A raw run shaped like perfbench_e2e's output."""
    def one_pass(k):
        return {
            "packets": 1000, "skipped": 0, "decode_s": 0.1,
            "wall_s": 2.0 + 0.5 * k, "cpu_s": 4.0,
            "ingest_s": [0.01] * intervals,
            "seal_s": [0.001 * (i + 1) for i in range(intervals)],
            "latency_s": [0.002 * (i + 1) for i in range(intervals)],
            "epoch_cpu_s": [0.002] * intervals,
            "scored": [0] + [1] * (intervals - 1),
            "truncated": [0, 0, 1] + [0] * (intervals - 3),
            "ops_offered": [100] * intervals,
            "ops_shed": [25] * intervals,
            "ring_full_spins": [1] * intervals,
            "drain_spin_yields": [2] * intervals,
            "occupancy_max": [1.0] * intervals,
            "digests": [f"{i:016x}" for i in range(intervals)],
            "recall": 0.8, "precision": 0.9,
            "onset_s": [60.0, 70.0, 80.0],
        }
    raw = {
        "workload": "synthetic", "seed": 1, "build_type": "Release",
        "simd_backend": "scalar", "consistent": 1, "measured_s": 5.0,
        "peak_rss_mb": 100.0, "setup_s": [1.0, 3.0, 2.0],
        "bank_memory_hw_bytes": 4096, "bank_accesses_per_packet": 52,
        "shards": 2, "min_intervals": 100,
        "passes": [one_pass(k) for k in range(passes)],
    }
    if trace:
        spans = {f"{s}_s": 0.1 for s in stats.TRACE_SPANS}
        raw["trace"] = dict(
            spans, wall_s=1.05, roll_s=0.02, reverse_dip_dport_s=0.01,
            reverse_sip_dip_s=0.02, reverse_sip_dport_s=0.03,
            merge_ms=[1.0, 3.0], epoch_ms=[2.0, 4.0], roll_ms=[1.0],
            reverse_ms=[5.0, 7.0], packets=1000, skipped=3, ops=800,
            ops_recorded=600, ops_offered=800, ops_shed=200,
            shed_level_max=2, heavy_buckets=10, heavy_buckets_dropped=0,
            work_units=2000, keys=40, raw_alerts=9, after_2d_alerts=8,
            final_alerts=7, tracked=3, confirmed=2, killed=1,
            digests=[f"{i:016x}" for i in range(intervals)])
    return raw


class PercentileTest(unittest.TestCase):
    def test_linear_interpolation(self):
        xs = [1.0, 2.0, 3.0, 4.0, 5.0]
        self.assertEqual(stats.percentile(xs, 0.0), 1.0)
        self.assertEqual(stats.percentile(xs, 0.5), 3.0)
        self.assertEqual(stats.percentile(xs, 1.0), 5.0)
        self.assertAlmostEqual(stats.percentile(xs, 0.9), 4.6)

    def test_order_and_single_sample(self):
        self.assertEqual(stats.percentile([9.0, 1.0, 5.0], 0.5), 5.0)
        self.assertEqual(stats.percentile([7.0], 0.99), 7.0)

    def test_empty_sample_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 0.5)


class TailPercentileTest(unittest.TestCase):
    def test_highest_rung_with_ten_beyond(self):
        self.assertIsNone(stats.tail_percentile(19))
        self.assertEqual(stats.tail_percentile(20), 0.5)
        self.assertEqual(stats.tail_percentile(40), 0.75)
        self.assertEqual(stats.tail_percentile(99), 0.75)
        self.assertEqual(stats.tail_percentile(100), 0.9)
        self.assertEqual(stats.tail_percentile(199), 0.9)
        self.assertEqual(stats.tail_percentile(200), 0.95)
        self.assertEqual(stats.tail_percentile(1000), 0.99)

    def test_every_rung_leaves_ten_samples(self):
        for n in range(20, 5000, 7):
            p = stats.tail_percentile(n)
            self.assertGreaterEqual(round(n * (1 - p), 6), 10)


class DigestCheckTest(unittest.TestCase):
    def test_agreeing_runs(self):
        raw = synthetic_raw(passes=3, trace=True)
        self.assertEqual(stats.digest_failures(raw), (240, 0))

    def test_mismatch_and_missing_intervals_fail(self):
        raw = synthetic_raw(passes=2, trace=True)
        raw["passes"][1]["digests"][5] = "ffffffffffffffff"
        raw["trace"]["digests"] = raw["trace"]["digests"][:-2]
        self.assertEqual(stats.digest_failures(raw), (178, 3))


class MetricTest(unittest.TestCase):
    def test_end_to_end_from_synthetic_passes(self):
        m = stats.end_to_end(synthetic_raw(passes=2))
        self.assertEqual(set(m), {n for n, *_ in spec.END_TO_END})
        self.assertAlmostEqual(m["throughput_pps"], (500.0 + 400.0) / 2)
        self.assertAlmostEqual(m["ingest_pps"], 1000 / 0.6)
        self.assertAlmostEqual(m["seal_p50_ms"], 30.5)
        self.assertEqual(m["setup_s"], 2.0)
        self.assertEqual(m["onset_to_alert_s"], 70.0)
        self.assertAlmostEqual(m["admit_frac"], 0.75)
        self.assertAlmostEqual(m["complete_frac"], 58 / 59)

    def test_too_few_intervals_for_the_tail(self):
        with self.assertRaises(ValueError):
            stats.end_to_end(synthetic_raw(passes=1))

    def test_per_layer_covers_the_spec(self):
        m = stats.per_layer(synthetic_raw(passes=2, trace=True))
        self.assertEqual(set(m), {n for n, _ in spec.PER_LAYER})
        self.assertAlmostEqual(m["detect.phases.ms_sum"], 100 - 20 - 60)
        self.assertAlmostEqual(m["trace.uncovered_frac"], 1 - 1.0 / 1.05)
        self.assertAlmostEqual(m["sketch.reverse.keys_per_kwork"], 20.0)
        self.assertAlmostEqual(m["detect.alert_latency.ms_p50"], 61.0)
        # p90 of 120 pooled samples, two copies each of 1..60 ms.
        self.assertAlmostEqual(m["detect.seal.ms_tail"],
                               stats.percentile(
                                   [i + 1.0 for i in range(60)] * 2, 0.9))

    def test_span_table_accounts_for_wall_time(self):
        rows = stats.span_table(synthetic_raw(passes=2, trace=True))
        self.assertAlmostEqual(sum(ms for _, ms in rows), 1050.0)
        self.assertEqual(rows[0][1], max(ms for _, ms in rows))


class ResultLineTest(unittest.TestCase):
    def test_shape(self):
        line = stats.result_line(True, 10, 0, {"latency_ms": (1.25, "ms")})
        obj = json.loads(line)
        self.assertEqual(set(obj), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertEqual(obj["metrics"]["latency_ms"],
                         {"value": 1.25, "unit": "ms"})
        self.assertIs(obj["correct"], True)
        self.assertNotIn("\n", line)

    def test_non_finite_value_is_refused(self):
        with self.assertRaises(ValueError):
            stats.result_line(True, 1, 0, {"x": (float("nan"), "ms")})


class SpecTest(unittest.TestCase):
    def test_benchmark_json_limits(self):
        doc = spec.benchmark_json()
        self.assertEqual(set(doc), {"command", "paths", "run_seconds",
                                    "workloads", "end_to_end", "per_layer"})
        names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        self.assertTrue(2 <= len(doc["workloads"]) <= 8)
        for w in doc["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
        for m in doc["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in doc["end_to_end"]))


if __name__ == "__main__":
    unittest.main()

"""Tests for the benchmark's statistics and span arithmetic.

Run: python3 perfbench/test_stats.py
"""

import math
import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        self.assertEqual(stats.percentile([1, 2, 3, 4, 5], 50), 3)
        self.assertEqual(stats.percentile([1, 2, 3, 4], 50), 2.5)
        self.assertAlmostEqual(stats.percentile(list(range(101)), 99), 99)
        self.assertEqual(stats.percentile([7], 99), 7)

    def test_order_does_not_matter(self):
        self.assertEqual(stats.percentile([5, 1, 4, 2, 3], 25), 2)

    def test_p99_needs_ten_samples_beyond(self):
        values = list(range(1000))
        got = stats.guarded_percentile(values, 99)
        self.assertEqual(got["p"], 99)
        self.assertEqual(got["note"], "")

    def test_falls_back_to_highest_valid_percentile(self):
        values = list(range(200))
        got = stats.guarded_percentile(values, 99)
        # 200 samples: p95 leaves exactly 10 beyond it.
        self.assertEqual(got["p"], 95)
        self.assertEqual(got["value"], stats.percentile(values, 95))
        self.assertIn("reporting p95 of n=200", got["note"])

    def test_too_few_samples_fall_back_to_median(self):
        got = stats.guarded_percentile([3, 1, 2], 99)
        self.assertEqual(got["p"], 50)
        self.assertEqual(got["value"], 2)
        self.assertNotEqual(got["note"], "")

    def test_highest_valid_percentile(self):
        self.assertEqual(stats.highest_valid_percentile(1000), 99)
        self.assertEqual(stats.highest_valid_percentile(2880), 99)
        self.assertEqual(stats.highest_valid_percentile(100), 90)
        self.assertIsNone(stats.highest_valid_percentile(19))


class SummaryTest(unittest.TestCase):
    def test_median_quartiles_and_count(self):
        got = stats.summarize([4, 1, 3, 2, 5])
        self.assertEqual(got["median"], 3)
        self.assertEqual(got["n"], 5)
        self.assertLessEqual(got["q1"], got["median"])
        self.assertGreaterEqual(got["q3"], got["median"])

    def test_single_and_empty(self):
        self.assertEqual(stats.summarize([2.5])["q3"], 2.5)
        self.assertEqual(stats.summarize([2.5])["fast"], 2.5)
        self.assertEqual(stats.summarize([])["n"], 0)
        self.assertIsNone(stats.summarize([])["fast"])

    def test_fast_decile_follows_the_better_direction(self):
        values = list(range(101))
        self.assertEqual(stats.summarize(values)["fast"], 10)
        self.assertEqual(stats.summarize(values, better="higher")["fast"],
                         90)


class HistogramTest(unittest.TestCase):
    BUCKETS = [(0.1, 0), (0.5, 50), (1.0, 90), (5.0, 100),
               (math.inf, 100)]

    def test_linear_within_bucket(self):
        self.assertAlmostEqual(
            stats.histogram_quantile(self.BUCKETS, 0.25), 0.3)
        self.assertAlmostEqual(
            stats.histogram_quantile(self.BUCKETS, 0.5), 0.5)
        self.assertAlmostEqual(
            stats.histogram_quantile(self.BUCKETS, 0.7), 0.75)

    def test_guarded(self):
        got = stats.guarded_histogram_percentile(self.BUCKETS, 99)
        self.assertEqual(got["p"], 90)
        self.assertAlmostEqual(got["value"], 1.0)


def span(id_, parent, name, start, end, cls=""):
    return {"id": id_, "parent": parent, "name": name, "start": start,
            "end": end, "class": cls}


class SpanTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [span(0, -1, "run", 0, 100),
                 span(1, 0, "tick", 10, 60, "base"),
                 span(2, 1, "stream.stage", 10, 20),
                 span(3, 1, "obs.publish", 50, 60)]
        selfs = stats.self_times(spans)
        self.assertEqual(selfs, {0: 50, 1: 30, 2: 10, 3: 10})

    def test_overlapping_children_count_once(self):
        spans = [span(0, -1, "run", 0, 100),
                 span(1, 0, "a", 10, 50),
                 span(2, 0, "b", 40, 70),
                 span(3, 0, "c", 90, 120)]  # clipped to its parent
        self.assertEqual(stats.self_times(spans)[0], 100 - 60 - 10)

    def test_rows_plus_unattributed_sum_to_wall_time(self):
        spans = [span(0, -1, "trace.gen", 0, 5),
                 span(1, -1, "run", 10, 110),
                 span(2, 1, "tick", 10, 40, "gm"),
                 span(3, 2, "stream.stage", 10, 15),
                 span(4, 2, "obs.publish", 35, 40),
                 span(5, 1, "tick", 45, 105, "base"),
                 span(6, 5, "stream.stage", 45, 50)]
        rows, total = stats.attribute(spans)
        self.assertEqual(total, 100)
        self.assertEqual(sum(rows.values()), total)
        self.assertEqual(rows["unattributed"], 10)
        self.assertEqual(rows["tick.gm"], 20)
        self.assertEqual(rows["tick.base"], 55)
        self.assertEqual(rows["stream.stage"], 10)
        self.assertEqual(rows["obs.publish"], 5)
        self.assertNotIn("trace.gen", rows)


if __name__ == "__main__":
    unittest.main()

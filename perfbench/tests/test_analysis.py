"""Tests for perfbench's metric helpers.

    python3 -m unittest discover -s perfbench/tests
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import analysis  # noqa: E402


class TailPercentile(unittest.TestCase):
    def test_leaves_ten_samples_beyond(self):
        values = list(range(1, 81))  # 80 samples, shuffled order is fine
        values.reverse()
        value, pct, rank, n = analysis.tail_percentile(values)
        self.assertEqual((value, rank, n), (70, 70, 80))
        self.assertAlmostEqual(pct, 87.5)
        self.assertEqual(sum(v > value for v in values), 10)

    def test_eleven_samples_reach_the_minimum(self):
        value, pct, rank, _ = analysis.tail_percentile(range(100, 111))
        self.assertEqual((value, rank), (100, 1))
        self.assertAlmostEqual(pct, 100.0 / 11)

    def test_too_few_samples(self):
        self.assertIsNone(analysis.tail_percentile(range(10)))
        self.assertIsNone(analysis.tail_percentile([]))

    def test_ties_count_as_beyond_only_when_larger(self):
        values = [5] * 20 + [9] * 10
        value, _, rank, _ = analysis.tail_percentile(values)
        self.assertEqual((value, rank), (5, 20))


def span(name, start, end, tid=0):
    return [name, tid, start, end - start]


class SelfTime(unittest.TestCase):
    def test_no_children(self):
        out = analysis.span_breakdown([span("p", 0, 100)], ["p"])
        self.assertEqual(out["p"]["self_ns"], 100)
        self.assertEqual(analysis.attribution_rows(out["p"]),
                         [("unattributed", 100)])

    def test_nested_children_count_once(self):
        spans = [span("p", 0, 100), span("a", 10, 50), span("b", 20, 40),
                 span("c", 60, 70)]
        out = analysis.span_breakdown(spans, ["p", "a"])
        self.assertEqual(out["p"]["self_ns"], 100 - 40 - 10)
        self.assertEqual(out["p"]["children_ns"], {"a": 40, "c": 10})
        self.assertEqual(out["a"]["self_ns"], 40 - 20)
        self.assertEqual(out["a"]["children_ns"], {"b": 20})

    def test_overlapping_children_use_the_union(self):
        spans = [span("p", 0, 100), span("a", 10, 50), span("b", 30, 70)]
        out = analysis.span_breakdown(spans, ["p"])
        self.assertEqual(out["p"]["self_ns"], 100 - 60)
        rows = analysis.attribution_rows(out["p"])
        self.assertEqual(rows, [("a", 40), ("b", 40), ("overlap", -20),
                                ("unattributed", 40)])
        self.assertEqual(sum(ns for _, ns in rows), 100)

    def test_other_threads_and_outside_spans_are_not_children(self):
        spans = [span("p", 0, 100), span("x", 10, 20, tid=1),
                 span("y", 90, 120), span("z", 200, 210)]
        out = analysis.span_breakdown(spans, ["p"])
        self.assertEqual(out["p"]["self_ns"], 100)

    def test_repeated_parents_accumulate(self):
        spans = [span("p", 0, 10), span("c", 2, 4), span("p", 20, 30),
                 span("c", 21, 29)]
        out = analysis.span_breakdown(spans, ["p"])
        self.assertEqual(out["p"]["count"], 2)
        self.assertEqual(out["p"]["total_ns"], 20)
        self.assertEqual(out["p"]["self_ns"], 8 + 2)
        self.assertEqual(sum(ns for _, ns in
                             analysis.attribution_rows(out["p"])), 20)

    def test_interval_union(self):
        self.assertEqual(analysis.interval_union([]), 0)
        self.assertEqual(analysis.interval_union([(0, 5), (5, 7), (9, 10)]),
                         8)
        self.assertEqual(analysis.interval_union([(0, 10), (2, 3)]), 10)


class FailedAccounting(unittest.TestCase):
    def test_percentage(self):
        self.assertEqual(analysis.failed_pct(80, 0), 0.0)
        self.assertEqual(analysis.failed_pct(80, 2), 2.5)

    def test_rejects_impossible_counts(self):
        with self.assertRaises(ValueError):
            analysis.failed_pct(0, 0)
        with self.assertRaises(ValueError):
            analysis.failed_pct(3, 4)

    def test_tally_counts_every_check(self):
        t = analysis.Tally(10, ["runner failure"])
        t.check(True, "unused")
        t.check(False, "second failure")
        self.assertEqual((t.attempted, t.failed), (12, 2))
        self.assertEqual(t.failures, ["runner failure", "second failure"])
        self.assertAlmostEqual(t.pct(), 100.0 * 2 / 12)

    def test_train_repetition_and_expected_set(self):
        def iteration(conflicts):
            return {"counters": {"smt.conflicts": conflicts,
                                 "verify.cache.hit": conflicts,
                                 "grpo.rollouts": 1},
                    "diff_correct_pct": 50.0, "geomean_speedup": 2.0}
        report = {"workload": "train", "seed": 7,
                  "checks": {"attempted": 24, "failures": []},
                  "iterations": [iteration(5), iteration(6)]}
        expected = analysis.deterministic_plane(iteration(5))
        tally = analysis.check_report(report, expected)
        # One repetition check and one expected-set check per iteration;
        # the second iteration fails both.
        self.assertEqual((tally.attempted, tally.failed), (27, 2))
        self.assertIn("smt.conflicts", tally.failures[0])

        tally = analysis.check_report(report, None)
        self.assertEqual((tally.attempted, tally.failed), (25, 1))

    def test_cache_counters_are_outside_the_plane(self):
        plane = analysis.deterministic_plane(
            {"counters": {"verify.cache.hit": 3, "verify.queries": 2,
                          "store.hits": 1, "smt.decisions": 4},
             "diff_correct_pct": 1.0, "geomean_speedup": 1.0})
        self.assertEqual(plane["counters"],
                         {"verify.queries": 2, "smt.decisions": 4})


class Spread(unittest.TestCase):
    def test_matches_the_quartile_rule(self):
        values = [10, 11, 9, 10, 10, 12, 8, 10, 10, 10]
        self.assertAlmostEqual(analysis.spread(values), 0.05)


if __name__ == "__main__":
    unittest.main()

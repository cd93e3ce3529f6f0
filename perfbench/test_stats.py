"""Tests of the benchmark's statistics code.

Run from the repository root:  python3 -m unittest discover -s perfbench
"""

import math
import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(values, 50)["value"], 50)
        self.assertEqual(stats.percentile(values, 99)["value"], 99)
        self.assertEqual(stats.percentile(values, 100)["value"], 100)
        self.assertEqual(stats.percentile([7], 99)["value"], 7)

    def test_unsorted_input_and_count(self):
        p = stats.percentile([5, 1, 4, 2, 3], 50)
        self.assertEqual(p, {"value": 3, "count": 5, "beyond": 2})

    def test_rank_has_no_float_rounding(self):
        # 0.99 * 1000 is not exactly 990 in binary floating point.
        self.assertEqual(stats.rank(1000, 99), 990)
        self.assertEqual(stats.rank(1000, 99.9), 999)
        self.assertEqual(stats.rank(3, 50), 2)

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.rank(10, 0)
        with self.assertRaises(ValueError):
            stats.rank(10, 101)


class SupportedTailTest(unittest.TestCase):
    def test_ten_beyond(self):
        self.assertEqual(stats.beyond(1000, 99), 10)
        self.assertEqual(stats.supported_tail(1000), 99)
        self.assertEqual(stats.supported_tail(999), 98)
        self.assertEqual(stats.supported_tail(10000), 99.9)
        self.assertEqual(stats.supported_tail(100000), 99.99)

    def test_small_samples(self):
        self.assertEqual(stats.supported_tail(20), 50)
        self.assertIsNone(stats.supported_tail(19))
        self.assertIsNone(stats.supported_tail(0))

    def test_chosen_percentile_really_has_ten_beyond(self):
        for n in range(1, 3000, 7):
            p = stats.supported_tail(n)
            if p is None:
                self.assertLess(stats.beyond(n, 50), 10)
                continue
            self.assertGreaterEqual(stats.beyond(n, p), 10)
            higher = [q for q in stats.TAIL_LADDER if q > p]
            for q in higher:
                self.assertLess(stats.beyond(n, q), 10)


class OpenLoopTest(unittest.TestCase):
    def test_delays_from_due_time(self):
        # 1000/s: request i is due at i ms.
        vis, late = stats.open_loop(1000, [0, 1000, 2500], [300, 1400, 2600])
        self.assertEqual(late, [0, 0, 500])
        self.assertEqual(vis, [300, 400, 600])

    def test_stall_charges_later_requests(self):
        # A 5 ms stall holds back the next requests too: each is timed from
        # its own due time, not from when it was finally sent.
        sent = [0, 5000, 5001, 5002]
        visible = [100, 5100, 5101, 5102]
        vis, late = stats.open_loop(1000, sent, visible)
        self.assertEqual(late, [0, 4000, 3001, 2002])
        self.assertEqual(vis, [100, 4100, 3101, 2102])

    def test_lost_request_is_infinitely_late(self):
        vis, _ = stats.open_loop(100, [0, 10000], [50, -1])
        self.assertEqual(vis[0], 50)
        self.assertTrue(math.isinf(vis[1]))
        self.assertTrue(math.isinf(stats.percentile(vis, 99)["value"]))

    def test_length_mismatch(self):
        with self.assertRaises(ValueError):
            stats.open_loop(100, [0], [])


class WindowedRateTest(unittest.TestCase):
    def test_rates_over_event_windows(self):
        # 1000 events/s for 2 s; windows of 100 events last 0.1 s.
        times = [i * 1000 for i in range(2001)]
        rates = stats.windowed_rates(times, 100)
        self.assertEqual(len(rates), 20)
        for r in rates:
            self.assertAlmostEqual(r, 1000.0)

    def test_stall_moves_only_its_windows(self):
        times = [i * 1000 for i in range(2001)]
        stalled = [t if t < 500_000 else t + 100_000 for t in times]
        rates = stats.windowed_rates(stalled, 100)
        self.assertEqual(sum(1 for r in rates if r < 1000 - 1e-9), 1)
        self.assertAlmostEqual(statistics.median(rates), 1000.0)

    def test_grouped_events_do_not_quantize(self):
        # Acknowledgements arrive 64 at a time every 10 ms: 6400/s.
        times = [g * 10_000 for g in range(100) for _ in range(64)]
        rates = stats.windowed_rates(times, 512)
        self.assertTrue(all(abs(r - 6400.0) < 1e-6 for r in rates))

    def test_needs_more_than_one_window(self):
        with self.assertRaises(ValueError):
            stats.windowed_rates([1, 2, 3], 3)
        with self.assertRaises(ValueError):
            stats.windowed_rates([1, 2, 3], 0)


if __name__ == "__main__":
    unittest.main()

"""Unit tests of the benchmark's own helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The fixtures under testdata/ were captured from a running daemon: two
/metrics expositions taken before and after two /query requests, and the
daemon's stderr (banner plus access log) over the same requests."""

import os
import unittest

import benchlib as bl

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "testdata")


def read(name):
    with open(os.path.join(DATA, name)) as f:
        return f.read()


class Percentile(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertEqual(bl.percentile(list(range(1, 1001)), 99), 990)
        self.assertIsNone(bl.percentile(list(range(1, 1000)), 99))
        self.assertEqual(bl.percentile(list(range(1, 21)), 50), 10)
        self.assertIsNone(bl.percentile(list(range(1, 20)), 50))
        self.assertIsNone(bl.percentile([], 50))

    def test_tail_falls_back_to_highest_supported(self):
        values = list(range(1, 101))
        self.assertIsNone(bl.percentile(values, 99))
        self.assertEqual(bl.tail(values, 99), 90)
        self.assertEqual(bl.tail(list(range(1, 11)), 99), 0.0)

    def test_chunk_percentile_is_a_median_over_chunks(self):
        # Three chunks of 20: medians 10, 110 and 210.
        values = [float(c * 100 + i + 1) for c in range(3) for i in range(20)]
        self.assertEqual(bl.chunk_percentile(values, 3, 50), 110.0)
        self.assertEqual(bl.chunk_percentile(values, 1, 50), 110.0)
        self.assertIsNone(bl.chunk_percentile(values, 4, 50))
        self.assertIsNone(bl.chunk_percentile([], 1, 50))

    def test_slice_rate_is_a_median_over_slices(self):
        # 10 slices of 0.1 s: nine hold 5 completions, one holds 50.
        times = [k * 100_000_000 + i for k in range(10) for i in range(5)]
        times += [300_000_000 + i for i in range(45)]
        times += [1_000_000_000 + 1]  # after the window: not counted
        self.assertAlmostEqual(bl.slice_rate(times, 0, 1_000_000_000), 50.0)


class Exposition(unittest.TestCase):
    def test_reads_captured_exposition(self):
        before = bl.parse_exposition(read("metrics_before.txt"))
        after = bl.parse_exposition(read("metrics_after.txt"))
        self.assertEqual(after["serve_requests_total"], 2.0)
        self.assertEqual(bl.delta(before, after, "serve_requests_total"), 2.0)
        self.assertGreater(bl.delta(before, after, "anxor_gf_nodes_total"), 0)
        self.assertGreater(bl.delta(before, after, "anxor_genfunc_seconds_sum"), 0)
        # Labelled series keep their label set; exemplars are dropped.
        self.assertIn('serve_request_seconds_bucket{le="+Inf"}', after)
        self.assertEqual(bl.delta(before, after, "no_such_series"), 0.0)


class AccessLog(unittest.TestCase):
    def test_join_matches_lines_by_request_id(self):
        events = bl.parse_access_log(read("daemon.log").splitlines())
        self.assertEqual(sorted(events), ["req-000000", "req-000001"])
        ops = [{"request": "req-000001"}, {"request": "req-000000"},
               {"request": "req-000099"}]
        pairs, unmatched = bl.join_access(ops, events)
        self.assertEqual(unmatched, 1)
        self.assertEqual([(op["request"], ev["request"]) for op, ev in pairs],
                         [("req-000001", "req-000001"),
                          ("req-000000", "req-000000")])
        self.assertEqual(pairs[0][1]["family"], "rank-footrule-mean")


class Checker(unittest.TestCase):
    REFERENCE = b'{"family":"topk","keys":[3,1],"expected":{"symdiff":0.25575}}'
    BODY = (b'{"request":"req-000007","db":"main","query":"topk k=2",'
            b'"elapsed_ms":0.41,"answer":' + REFERENCE + b"}\n")

    def test_accepts_the_reference_answer(self):
        self.assertTrue(bl.answer_matches(self.BODY, self.REFERENCE))
        self.assertEqual(bl.request_id(self.BODY), "req-000007")

    def test_flags_a_corrupted_answer(self):
        for corrupt in (self.BODY.replace(b"[3,1]", b"[1,3]"),
                        self.BODY.replace(b"0.25575", b"0.25576"),
                        self.BODY[:-3] + b"}\n",
                        b'{"error":"deadline exceeded"}\n'):
            self.assertFalse(bl.answer_matches(corrupt, self.REFERENCE))


if __name__ == "__main__":
    unittest.main()

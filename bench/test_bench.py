"""Self-tests of the benchmark's own code.

    python3 -m unittest discover -s bench
"""

from __future__ import annotations

import json
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from erbimatch import Matching  # noqa: E402

import run  # noqa: E402
from catalogs import make_catalogs  # noqa: E402
from checks import CheckFailed, EdgeIndex, compare, sweep_summary  # noqa: E402
from spans import NULL, Recorder  # noqa: E402
from workloads import build_graph, sweep_and_match  # noqa: E402

TOKENS = "bag-cosine-t1"


def _as_rows(collection):
    return [(p.id, p.attributes) for p in collection]


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_catalogs(self):
        first, second = make_catalogs(7, 60), make_catalogs(7, 60)
        self.assertEqual(_as_rows(first[0]), _as_rows(second[0]))
        self.assertEqual(_as_rows(first[1]), _as_rows(second[1]))
        self.assertEqual(first[2].pairs, second[2].pairs)

    def test_other_seed_other_catalogs(self):
        self.assertNotEqual(_as_rows(make_catalogs(7, 60)[1]),
                            _as_rows(make_catalogs(8, 60)[1]))

    def test_shape_and_sparse_token_graph(self):
        left, right, gt = make_catalogs(3, 200)
        self.assertEqual((len(left), len(right), len(gt)), (200, 220, 200))
        graph = build_graph(TOKENS, left, right, NULL)
        self.assertLess(graph.edge_count, 0.3 * len(left) * len(right))


class CheckTest(unittest.TestCase):
    def setUp(self):
        left, right, self.gt = make_catalogs(5, 80)
        self.graph = build_graph(TOKENS, left, right, NULL)
        self.index = EdgeIndex(self.graph)
        self.sweep, self.matching = sweep_and_match(self.graph, "umc",
                                                    self.gt, NULL)

    def summary(self, matching):
        return sweep_summary("umc", self.graph, self.index, self.gt,
                             self.sweep, matching)

    def test_good_matching_passes(self):
        summary = self.summary(self.matching)
        self.assertEqual(summary["pairs"], len(self.matching))
        compare("same", summary, dict(summary))

    def test_flags_an_edge_below_the_threshold(self):
        l, r = next((l, r) for l, r, w in self.graph.edge_list()
                    if w < self.sweep.optimal_t)
        pairs = [p for p in self.matching.pairs if p[0] != l and p[1] != r]
        with self.assertRaisesRegex(CheckFailed, "weighs less"):
            self.summary(Matching([*pairs, (l, r)]))

    def test_flags_a_pair_that_is_not_an_edge(self):
        edges = {(l, r) for l, r, _ in self.graph.edge_list()}
        l, r = next(iter(self.matching.pairs))
        other = next(j for j in range(self.graph.right_count)
                     if (l, j) not in edges)
        pairs = [p for p in self.matching.pairs if p[0] != l and p[1] != other]
        with self.assertRaisesRegex(CheckFailed, "not an edge"):
            self.summary(Matching([*pairs, (l, other)]))

    def test_flags_a_changed_summary(self):
        summary = self.summary(self.matching)
        changed = {**summary, "true_positives": summary["true_positives"] - 1}
        with self.assertRaisesRegex(CheckFailed, "true_positives"):
            compare("seed", changed, summary)


class SpanTest(unittest.TestCase):
    def test_self_time_excludes_children(self):
        rec = Recorder()
        rec.pass_id = "p"
        with rec.span("outer"):
            with rec.span("inner") as counts:
                time.sleep(0.02)
                counts["items"] = 3
            time.sleep(0.01)
        own = rec.self_times()
        outer, inner = rec.spans
        self.assertAlmostEqual(own[outer["id"]], (outer["end"] - outer["start"])
                               - (inner["end"] - inner["start"]))
        self.assertEqual(inner["parent"], outer["id"])
        self.assertEqual(rec.per_pass()["p"]["inner:items"], 3)


class CalibratedTest(unittest.TestCase):
    def test_scales_by_the_mean_of_the_neighbouring_calibrations(self):
        readings = iter([0.2, 0.3, 0.1])
        saved = run.calibration_s
        run.calibration_s = lambda: next(readings)
        try:
            timer = run.Calibrated()
            timer.add(5.0)
            timer.add(None)  # a failed pass: no time, but a calibration
        finally:
            run.calibration_s = saved
        self.assertEqual(timer.raw, [5.0])
        self.assertAlmostEqual(timer.scaled[0],
                               5.0 * run.CALIBRATION_REF_S / 0.25)
        self.assertEqual(timer.calibrations, [0.2, 0.3, 0.1])


class BenchmarkFileTest(unittest.TestCase):
    def test_per_layer_metrics_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        produced = run.layer_metrics(lambda key: (0.0, 0))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         [(name, unit) for name, (_, unit, _) in
                          produced.items()])


if __name__ == "__main__":
    unittest.main()

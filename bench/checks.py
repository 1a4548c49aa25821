"""Output checks run after every pass, outside the timed region.

A pass is summarised by integers and grid values only (edge counts, optimal
thresholds, true positives, output pairs), so a last-ulp change of a weight
goes unnoticed while a changed matching does not.  Every matching is checked
to hold only edges of the graph with weight >= its threshold.
"""

from __future__ import annotations

import numpy as np


class CheckFailed(Exception):
    pass


class EdgeIndex:
    """Weight lookup for (left, right) index pairs of one graph."""

    def __init__(self, graph):
        self.stride = max(graph.right_count, 1)
        keys = graph.lefts * self.stride + graph.rights
        order = np.argsort(keys, kind="stable")
        self.keys = keys[order]
        self.weights = graph.weights[order]

    def weights_of(self, pairs: np.ndarray) -> np.ndarray:
        """Weights of ``pairs`` (an n x 2 array); NaN marks a non-edge."""
        query = pairs[:, 0] * self.stride + pairs[:, 1]
        if not len(self.keys):
            return np.full(len(query), np.nan)
        pos = np.minimum(np.searchsorted(self.keys, query), len(self.keys) - 1)
        return np.where(self.keys[pos] == query, self.weights[pos], np.nan)


def check_matching(label: str, index: EdgeIndex, pairs, threshold: float
                   ) -> None:
    """Raise unless ``pairs`` is one-to-one and every pair is an edge of
    weight >= ``threshold``."""
    arr = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)
    if len(np.unique(arr[:, 0])) != len(arr) or \
            len(np.unique(arr[:, 1])) != len(arr):
        raise CheckFailed(f"{label}: a node is matched twice")
    weights = index.weights_of(arr)
    if np.isnan(weights).any():
        raise CheckFailed(f"{label}: a matched pair is not an edge")
    if (weights < threshold).any():
        raise CheckFailed(f"{label}: a matched edge weighs less than "
                          f"t={threshold}")


def check_weights(label: str, records, threshold: float) -> None:
    """The file form of :func:`check_matching`: ``(left_id, right_id,
    weight)`` records, one-to-one, each weighing >= ``threshold``."""
    if len({r[0] for r in records}) != len(records) or \
            len({r[1] for r in records}) != len(records):
        raise CheckFailed(f"{label}: a node is matched twice")
    if any(w < threshold for _, _, w in records):
        raise CheckFailed(f"{label}: a matched edge weighs less than "
                          f"t={threshold}")


def count_true(id_pairs, gt) -> int:
    return sum(1 for pair in id_pairs if pair in gt.pairs)


def sweep_summary(label: str, graph, index: EdgeIndex, gt, sweep, matching
                  ) -> dict:
    """Summary of one matcher's sweep and its matching at the optimal t."""
    check_matching(label, index, matching.pairs, sweep.optimal_t)
    return consistent_summary(label, sweep.optimal_t,
                              sweep.optimal_score.true_positives,
                              sweep.optimal_score.output_pairs,
                              count_true(matching.id_pairs(graph), gt),
                              len(matching))


def consistent_summary(label: str, optimal_t, true_positives, output_pairs,
                       matched_true, pairs) -> dict:
    """The matching at the optimal t must be the one the sweep scored."""
    if pairs != output_pairs or matched_true != true_positives:
        raise CheckFailed(
            f"{label}: matching at t={optimal_t} has {pairs} pairs "
            f"({matched_true} true), the sweep scored {output_pairs} "
            f"({true_positives} true)")
    return {"optimal_t": optimal_t, "true_positives": true_positives,
            "output_pairs": output_pairs, "pairs": pairs}


def compare(label: str, summary: dict, expected: dict) -> None:
    if summary != expected:
        raise CheckFailed(f"{label}: summary differs from the reference: "
                          + "; ".join(_differences(summary, expected)))


def _differences(got, want, path="") -> list[str]:
    if isinstance(got, dict) and isinstance(want, dict):
        out = []
        for key in sorted(set(got) | set(want)):
            out += _differences(got.get(key), want.get(key), f"{path}/{key}")
        return out
    return [] if got == want else [f"{path or '/'}: {got!r} != {want!r}"]

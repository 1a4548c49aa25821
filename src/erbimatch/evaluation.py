"""Effectiveness and efficiency evaluation.

Precision counts the portion of output pairs that are true duplicates;
recall the portion of true duplicates recovered; F1 is their harmonic mean.
A threshold sweep scores a matcher over the grid 0.05..1.00 (step 0.05 by
default) and selects the LARGEST threshold attaining the best F1.  Every
named matcher shares work across the grid: cnc, rca, exc and umc are swept
from one matcher run, whose interval form gives the matching at every grid
point; rsr, bah, bmc and krc are prepared once and then run per grid point
on the prepared state.  Only a callable runs from scratch at each grid
point.  Every path gives the scores of a per-threshold run, bit for bit.
Run-time benchmarks time only the matcher call (graph already in memory),
with one untimed warm-up before the timed repetitions, on a monotonic
clock, strictly serialized.  Friedman/Nemenyi statistics compare algorithms
across many input graphs by mean rank.
"""

from __future__ import annotations

import csv
import json
import math
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, fields
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .critical_values import CHI2_CRITICAL, NEMENYI_Q
from .fileio import open_text
from .graph import Matching, SimilarityGraph
from .matchers import (
    _INTERVAL_FORMS,
    _PREPARED_RUNS,
    _check_threshold,
    _resolve,
    get_matcher,
)

__all__ = [
    "GroundTruth",
    "PrfScore",
    "SweepResult",
    "BenchmarkResult",
    "FriedmanResult",
    "DEFAULT_GRID",
    "evaluate",
    "threshold_sweep",
    "benchmark",
    "mean_ranks",
    "friedman_test",
    "nemenyi_cd",
    "sweep_report",
    "emit_report",
    "parse_report",
    "sweep_rows",
]

DEFAULT_GRID: tuple[float, ...] = tuple(round(0.05 * k, 2) for k in range(1, 21))


class GroundTruth:
    """The true duplicate pairs, as external id pairs, one-to-one."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: Iterable[tuple[str, str]] = ()):
        pairs = frozenset((str(l), str(r)) for l, r in pairs)
        seen_left: set[str] = set()
        seen_right: set[str] = set()
        for l, r in sorted(pairs):
            if l in seen_left:
                raise ValueError(f"left id {l!r} appears in two true pairs")
            if r in seen_right:
                raise ValueError(f"right id {r!r} appears in two true pairs")
            seen_left.add(l)
            seen_right.add(r)
        self.pairs = pairs

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(sorted(self.pairs))

    def left_ids(self) -> set[str]:
        return {l for l, _ in self.pairs}

    def right_ids(self) -> set[str]:
        return {r for _, r in self.pairs}

    def __repr__(self):
        return f"GroundTruth({len(self.pairs)} pairs)"


@dataclass(frozen=True)
class PrfScore:
    precision: float
    recall: float
    f_measure: float
    true_positives: int
    output_pairs: int
    gt_pairs: int

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "PrfScore":
        return cls(**{f.name: data[f.name] for f in fields(cls)})


def _score(tp: int, output: int, gt: int) -> PrfScore:
    """The one place scores are computed, for :func:`evaluate` and sweeps."""
    precision = tp / output if output else 0.0
    recall = tp / gt if gt else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return PrfScore(precision=precision, recall=recall, f_measure=f1,
                    true_positives=tp, output_pairs=output, gt_pairs=gt)


def evaluate(matching: Matching, gt: GroundTruth,
             left_ids: Sequence[str], right_ids: Sequence[str]) -> PrfScore:
    """Score a matching against the ground truth via external identifiers.

    Empty outputs score precision 0 by convention; an empty ground truth
    scores recall 0.
    """
    output = {(left_ids[l], right_ids[r]) for l, r in matching.pairs}
    return _score(len(output & gt.pairs), len(output), len(gt))


@dataclass(frozen=True)
class SweepResult:
    grid: tuple[float, ...]
    scores: tuple[PrfScore, ...]
    optimal_t: float
    optimal_score: PrfScore


def _resolve_matcher(algorithm, matcher_config=None) -> Callable:
    if callable(algorithm):
        return algorithm
    return get_matcher(algorithm, **(matcher_config or {}))


def _true_index_pairs(gt: GroundTruth,
                      graph: SimilarityGraph) -> set[tuple[int, int]]:
    """The true pairs as ``(left, right)`` indices of ``graph``; pairs with
    an id absent from the graph can never be output and are left out."""
    left = {id_: i for i, id_ in enumerate(graph.left_ids)}
    right = {id_: j for j, id_ in enumerate(graph.right_ids)}
    return {(left[l], right[r]) for l, r in gt.pairs
            if l in left and r in right}


def _count_between(lo: np.ndarray, hi: np.ndarray,
                   ts: np.ndarray) -> np.ndarray:
    """``#{k : lo[k] < t <= hi[k]}`` for every t, given lo <= hi."""
    return np.searchsorted(np.sort(lo), ts) - np.searchsorted(np.sort(hi), ts)


def _interval_counts(form, truth: set[tuple[int, int]],
                     grid: tuple[float, ...]) -> list[tuple[int, int]]:
    """``(true positives, output pairs)`` per grid point from an interval
    form, with no matcher run and no matching built."""
    lefts, rights, lo, hi = form
    true = np.fromiter(
        map(truth.__contains__, zip(lefts.tolist(), rights.tolist())),
        dtype=bool, count=len(lefts))
    ts = np.asarray(grid, dtype=np.float64)
    return list(zip(_count_between(lo[true], hi[true], ts).tolist(),
                    _count_between(lo, hi, ts).tolist()))


def threshold_sweep(graph: SimilarityGraph, algorithm, gt: GroundTruth, *,
                    grid: Sequence[float] = DEFAULT_GRID,
                    matcher_config: dict | None = None) -> SweepResult:
    """Score the matcher at every grid threshold and pick the optimal one.

    ``algorithm`` is a matcher name (see the matcher registry) or any
    callable of ``(graph, threshold)``.  The optimal threshold is the
    largest grid point attaining the maximum F1.

    Named matchers share their threshold-independent work across the
    grid, on one of two paths.  ``cnc``, ``rca``, ``exc`` and ``umc`` are
    swept from their interval form, one run at the smallest grid point:
    the matching at every larger threshold follows from it in closed form.
    ``rsr``, ``bah``, ``bmc`` and ``krc`` are prepared once at the smallest
    grid point (neighbor lists, bah's edge keys and its proposal sequence),
    then run at each grid point on the prepared state; bah's time limit
    still applies to each run from its own start.  Only a callable runs
    from scratch at each grid point.  Every path scores in graph-index
    space, and the result equals scoring each ``matcher(graph, t)`` with
    :func:`evaluate`.
    """
    if not grid:
        raise ValueError("threshold grid must be non-empty")
    # Resolving rejects an unknown name or option before any grid point.
    key, option = ((None, None) if callable(algorithm)
                   else _resolve(algorithm, matcher_config or {}))
    grid = tuple(grid)
    for t in grid:
        _check_threshold(t)
    truth = _true_index_pairs(gt, graph)
    if key in _INTERVAL_FORMS:
        counts = _interval_counts(_INTERVAL_FORMS[key](graph, min(grid)),
                                  truth, grid)
    else:
        if key is None:
            matchings = (algorithm(graph, t) for t in grid)
        else:
            prepare, run = _PREPARED_RUNS[key]
            prepared = prepare(graph, min(grid), option)
            matchings = (run(prepared, t) for t in grid)
        counts = [(len(m.pairs & truth), len(m)) for m in matchings]
    scores = tuple(_score(tp, output, len(gt)) for tp, output in counts)
    best = max(score.f_measure for score in scores)
    optimal_index = max(i for i, score in enumerate(scores)
                        if score.f_measure == best)
    return SweepResult(grid=grid, scores=scores,
                       optimal_t=grid[optimal_index],
                       optimal_score=scores[optimal_index])


@dataclass(frozen=True)
class BenchmarkResult:
    times: tuple[float, ...]
    mean: float
    stddev: float

    @property
    def repetitions(self) -> int:
        return len(self.times)


def benchmark(graph: SimilarityGraph, algorithm, threshold: float, *,
              repetitions: int = 10,
              matcher_config: dict | None = None) -> BenchmarkResult:
    """Wall-time the matcher alone over repeated runs.

    One untimed warm-up execution precedes the timed ones; the population
    standard deviation is reported (0 for a single repetition).
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    matcher = _resolve_matcher(algorithm, matcher_config)
    matcher(graph, threshold)  # warm-up, excluded from statistics
    times = []
    for _ in range(repetitions):
        start = time.perf_counter()
        matcher(graph, threshold)
        times.append(time.perf_counter() - start)
    return BenchmarkResult(times=tuple(times), mean=float(np.mean(times)),
                           stddev=float(np.std(times)))


# ----------------------------------------------------------------------
# rank statistics

def _fractional_ranks_descending(row: np.ndarray) -> np.ndarray:
    """Rank 1 = best (largest); tied entries share the average rank."""
    order = np.argsort(-row, kind="stable")
    ranks = np.empty(len(row), dtype=np.float64)
    i = 0
    while i < len(row):
        j = i
        while j + 1 < len(row) and row[order[j + 1]] == row[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2 + 1
        i = j + 1
    return ranks


def mean_ranks(scores) -> np.ndarray:
    """Per-algorithm mean rank over the score matrix rows (1 = best)."""
    matrix = np.asarray(scores, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] < 2:
        raise ValueError("score matrix needs at least two rows")
    all_ranks = np.vstack([_fractional_ranks_descending(row) for row in matrix])
    return all_ranks.mean(axis=0)


@dataclass(frozen=True)
class FriedmanResult:
    statistic: float
    degrees_of_freedom: int
    critical_value: float
    alpha: float
    reject: bool


def friedman_test(scores, alpha: float = 0.05) -> FriedmanResult:
    """Rank-based test that the algorithms perform identically.

    Uses the rank-sum form chi2 = 12/(N k (k+1)) * sum(R_j^2) - 3N(k+1) and
    rejects when it exceeds the chi-square critical value at k-1 degrees of
    freedom.
    """
    matrix = np.asarray(scores, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("score matrix must be two-dimensional")
    n_inputs, k = matrix.shape
    if n_inputs < 2 or k < 3:
        raise ValueError("need at least 2 inputs and 3 algorithms")
    if alpha not in CHI2_CRITICAL:
        raise ValueError(f"alpha must be one of {sorted(CHI2_CRITICAL)}")
    if k - 1 not in CHI2_CRITICAL[alpha]:
        raise ValueError(f"no tabulated critical value for k={k}")
    rank_sums = np.vstack(
        [_fractional_ranks_descending(row) for row in matrix]
    ).sum(axis=0)
    statistic = (12.0 / (n_inputs * k * (k + 1))) * float(
        np.sum(rank_sums ** 2)) - 3.0 * n_inputs * (k + 1)
    critical = CHI2_CRITICAL[alpha][k - 1]
    return FriedmanResult(statistic=statistic, degrees_of_freedom=k - 1,
                          critical_value=critical, alpha=alpha,
                          reject=statistic > critical)


def nemenyi_cd(k: int, n_inputs: int, alpha: float = 0.05) -> float:
    """Critical mean-rank distance: q_alpha(k) * sqrt(k (k+1) / (6 N))."""
    if alpha not in NEMENYI_Q:
        raise ValueError(f"alpha must be one of {sorted(NEMENYI_Q)}")
    if k not in NEMENYI_Q[alpha]:
        raise ValueError(f"no tabulated q constant for k={k}")
    if n_inputs < 2:
        raise ValueError("need at least 2 inputs")
    return NEMENYI_Q[alpha][k] * math.sqrt(k * (k + 1) / (6.0 * n_inputs))


# ----------------------------------------------------------------------
# reports

def sweep_report(sweep: SweepResult, *, algorithm: str,
                 config: Mapping | None = None,
                 dataset: str | None = None) -> dict:
    """JSON-ready payload for one sweep (round-trips via parse_report)."""
    payload = {
        "kind": "sweep",
        "algorithm": algorithm,
        "config": dict(config or {}),
        "grid": list(sweep.grid),
        "scores": [s.as_dict() for s in sweep.scores],
        "optimal_t": sweep.optimal_t,
        "optimal_score": sweep.optimal_score.as_dict(),
    }
    if dataset is not None:
        payload["dataset"] = dataset
    return payload


def sweep_rows(payloads: Iterable[Mapping]) -> list[dict]:
    """Flatten sweep payloads into one row per algorithm x threshold."""
    rows = []
    for payload in payloads:
        for t, score in zip(payload["grid"], payload["scores"]):
            rows.append({
                "dataset": payload.get("dataset", ""),
                "algorithm": payload["algorithm"],
                "threshold": t,
                "precision": score["precision"],
                "recall": score["recall"],
                "f_measure": score["f_measure"],
                "optimal": t == payload["optimal_t"],
            })
    return rows


def emit_report(payload: dict, path, fmt: str = "json") -> None:
    """Serialize a report deterministically (canonical JSON or CSV rows) to
    ``path``, or to standard output when ``path`` is None."""
    if fmt not in ("json", "csv"):
        raise ValueError(f"unknown report format {fmt!r}")
    if fmt == "csv" and payload.get("kind") != "sweep":
        raise ValueError("csv output is defined for sweep reports only")
    with (nullcontext(sys.stdout) if path is None else open_text(path, "w")) as fh:
        if fmt == "json":
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
        else:
            rows = sweep_rows([payload])
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)


def parse_report(path) -> dict:
    with open_text(path) as fh:
        return json.load(fh)

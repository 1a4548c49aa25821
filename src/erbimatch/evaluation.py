"""Effectiveness and efficiency evaluation.

Precision counts the portion of output pairs that are true duplicates;
recall the portion of true duplicates recovered; F1 is their harmonic mean.
A threshold sweep scores a matcher over the grid 0.05..1.00 (step 0.05 by
default) and selects the LARGEST threshold attaining the best F1.  It has
one engine: the matcher is prepared once, at the smallest grid point, then
run at each grid point, and the run's matched pairs, two index columns,
are counted against the ground truth with no Matching built.  A callable
is the same pair with nothing prepared.  The scores equal those of a
per-threshold run, bit for bit.
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
from .graph import Matching, SimilarityGraph, _index_columns
from .matchers import _RUNS, _check_threshold, _resolve, get_matcher

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
    scores recall 0.  A pair naming a node outside the id tables raises
    ValueError.
    """
    lefts, rights = _index_columns(matching.pairs, len(left_ids),
                                   len(right_ids))
    output = {(left_ids[l], right_ids[r])
              for l, r in zip(lefts.tolist(), rights.tolist())}
    return _score(len(output & gt.pairs), len(output), len(gt))


@dataclass(frozen=True)
class SweepResult:
    grid: tuple[float, ...]
    scores: tuple[PrfScore, ...]
    optimal_t: float
    optimal_score: PrfScore


def _true_rights(gt: GroundTruth, graph: SimilarityGraph) -> np.ndarray:
    """Each left node's true partner as a right index of ``graph``, or -1
    (also for a true pair with an id absent from the graph)."""
    left = {id_: i for i, id_ in enumerate(graph.left_ids)}
    right = {id_: j for j, id_ in enumerate(graph.right_ids)}
    true_right = np.full(graph.left_count, -1, dtype=np.int64)
    for l, r in gt.pairs:
        if l in left and r in right:
            true_right[left[l]] = right[r]
    return true_right


def _callable_runs(matcher: Callable) -> tuple[Callable, Callable]:
    """A callable as a prepare/run pair that prepares nothing."""
    def run(graph, threshold):
        return _index_columns(matcher(graph, threshold).pairs,
                              graph.left_count, graph.right_count)
    return (lambda graph, floor, option: graph), run


def threshold_sweep(graph: SimilarityGraph, algorithm, gt: GroundTruth, *,
                    grid: Sequence[float] = DEFAULT_GRID,
                    matcher_config: dict | None = None) -> SweepResult:
    """Score the matcher at every grid threshold and pick the optimal one.

    ``algorithm`` is a matcher name (see the matcher registry) or any
    callable of ``(graph, threshold)``.  The optimal threshold is the
    largest grid point attaining the maximum F1.

    The matcher is prepared once, at the smallest grid point, so the whole
    grid shares its threshold-independent work, then run at each grid
    point (bah's time limit applies to each run).  A run's matched pairs,
    two index columns, are counted against a left -> true right array.  A
    callable runs from scratch at each grid point; a pair it outputs that
    names a node outside the graph raises ValueError.  The result equals
    scoring each ``matcher(graph, t)`` with :func:`evaluate`.
    """
    if not grid:
        raise ValueError("threshold grid must be non-empty")
    # Resolving rejects an unknown name or option before any grid point.
    if callable(algorithm):
        (prepare, run), option = _callable_runs(algorithm), None
    else:
        key, option = _resolve(algorithm, matcher_config or {})
        prepare, run = _RUNS[key]
    grid = tuple(grid)
    for t in grid:
        _check_threshold(t)
    true_right = _true_rights(gt, graph)
    prepared = prepare(graph, min(grid), option)
    scores = []
    for t in grid:
        lefts, rights = run(prepared, t)
        true_positives = int(np.count_nonzero(true_right[lefts] == rights))
        scores.append(_score(true_positives, len(lefts), len(gt)))
    best = max(score.f_measure for score in scores)
    optimal_index = max(i for i, score in enumerate(scores)
                        if score.f_measure == best)
    return SweepResult(grid=grid, scores=tuple(scores),
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
    matcher = (algorithm if callable(algorithm)
               else get_matcher(algorithm, **(matcher_config or {})))
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

"""The eight bipartite graph matching algorithms.

Every matcher maps ``(graph, threshold, config)`` to a :class:`Matching`
whose pairs all correspond to edges of weight >= threshold, with each node
matched at most once.  All matchers are pure functions of their inputs
(``bah`` included, under a fixed seed) and share one pruning convention:
edges with weight >= t are retained.

    cnc  connected components whose component is exactly one cross pair
    rsr  sequential rippling: seeds ranked by average adjacent weight
         re-assign neighbors, orphaned centers re-attach to singletons
    rca  row/column greedy assignment, better-valued pass wins
    bah  random swap search over an index-aligned initial assignment
    bmc  rca's greedy pass from one basis side, on the pruned graph
    exc  mutual-best pairs only
    krc  proposal scheme with one second chance per proposer
         (3/2-approximation family for maximum stable marriage)
    umc  globally greedy by descending weight

All eight run on one engine (see below): ``prepare(graph, floor, option)``
does the work that does not depend on the threshold, and ``run(prepared,
t)`` gives the matched pairs at any t >= floor as two index columns.  A
matcher is its run at t, prepared at t; a threshold sweep prepares once, at
the smallest grid point, and counts each run's columns.
"""

from __future__ import annotations

import enum
import random
import time
from array import array
from collections import deque
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .fileio import (
    check_ids,
    open_text,
    read_records,
    write_header,
    write_records,
)
from .errors import DataFormatError
from .graph import Matching, Side, SimilarityGraph

__all__ = [
    "Basis",
    "BahConfig",
    "match_cnc",
    "match_rsr",
    "match_rca",
    "match_bah",
    "match_bmc",
    "match_exc",
    "match_krc",
    "match_umc",
    "rca_passes",
    "ALGORITHMS",
    "get_matcher",
    "write_matching",
    "read_matching",
]


def _check_threshold(t: float) -> None:
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {t}")


class Basis(enum.Enum):
    """Which partition ``bmc`` iterates over; AUTO picks the smaller one."""

    LEFT = "left"
    RIGHT = "right"
    AUTO = "auto"


@dataclass(frozen=True)
class BahConfig:
    """Search budget for the random-swap matcher.

    ``max_moves`` bounds the number of proposed swaps (0 means the filtered
    initial assignment is returned untouched), ``time_limit`` is wall-clock
    seconds, and ``rng_seed`` fixes the proposal sequence.
    """

    max_moves: int = 10_000
    time_limit: float = 120.0
    rng_seed: int = 42

    def __post_init__(self):
        if self.max_moves < 0:
            raise ValueError("max_moves must be >= 0")
        if self.time_limit <= 0:
            raise ValueError("time_limit must be positive")


# ----------------------------------------------------------------------


def match_cnc(graph: SimilarityGraph, threshold: float) -> Matching:
    """Cross pairs that form complete connected components after pruning.

    A 2-node cross component is exactly an edge whose endpoints both have
    degree 1 in the pruned graph, so no explicit closure pass is needed.
    """
    return _match("cnc", graph, threshold)


def match_rsr(graph: SimilarityGraph, threshold: float) -> Matching:
    """Sequential rippling over seeds ranked by average adjacent weight.

    Seeds are visited in descending average-adjacent-weight order (ties:
    left partition first, then index).  A seed claims the first neighbor
    that would be strictly closer to it than both the neighbor's current
    center and the seed's own, then centers its partition.  A center whose
    partition shrinks to a singleton is re-attached to its most similar
    partition that still has fewer than two members.  Only partitions with
    exactly one node per side survive as pairs.
    """
    return _match("rsr", graph, threshold)


def rca_passes(graph: SimilarityGraph) -> tuple[list[tuple[int, int]], float,
                                                list[tuple[int, int]], float]:
    """Both row/column greedy assignments and their values, unfiltered.

    Pass 1 scans left nodes in index order, each taking its most similar
    still-unassigned right node; pass 2 is the mirror image.  Absent edges
    count as similarity 0 and never produce an assignment.
    """
    rows, value_rows = _greedy_pass(graph, Side.LEFT)
    cols, value_cols = _greedy_pass(graph, Side.RIGHT)
    return (list(zip(graph.lefts[rows].tolist(), graph.rights[rows].tolist())),
            value_rows,
            list(zip(graph.lefts[cols].tolist(), graph.rights[cols].tolist())),
            value_cols)


def match_rca(graph: SimilarityGraph, threshold: float) -> Matching:
    """Greedy row and column assignment passes; the better-valued pass wins.

    Both passes run on the unpruned graph (the assignment view treats every
    pairing as admissible); sub-threshold pairs are dropped from the winning
    pass at the end.  A value tie returns the column pass.
    """
    return _match("rca", graph, threshold)


def match_bah(
    graph: SimilarityGraph,
    threshold: float,
    config: BahConfig | None = None,
    *,
    value_trace: list[float] | None = None,
) -> Matching:
    """Random-swap search for a high-value assignment.

    Starts from the index-aligned assignment that fully matches the smaller
    partition, then repeatedly proposes swapping the partners of two random
    nodes of the larger partition, accepting whenever the assignment value
    does not decrease.  Stops at ``max_moves`` proposals or at the time
    limit, whichever comes first; the final pairs are filtered to edges of
    weight >= threshold.  ``value_trace``, when given, records the running
    assignment value after every accepted swap.
    """
    return _match("bah", graph, threshold, config, value_trace=value_trace)


def match_bmc(graph: SimilarityGraph, threshold: float,
              basis: Basis = Basis.AUTO) -> Matching:
    """Each basis-side node takes its best not-yet-matched counterpart.

    This is rca's greedy pass from the basis side, run on the pruned graph.
    Basis nodes are visited in index order; AUTO resolves to the smaller
    partition (left on ties).
    """
    return _match("bmc", graph, threshold, basis)


def match_exc(graph: SimilarityGraph, threshold: float) -> Matching:
    """Pairs whose members are mutually each other's best match.

    Ties are resolved by the deterministic adjacency order (descending
    weight, then ascending index), so "best" is the first neighbor.
    """
    return _match("exc", graph, threshold)


def match_krc(graph: SimilarityGraph, threshold: float) -> Matching:
    """Proposal-based matcher with one second chance per left node.

    Left nodes propose down their preference lists (best surviving edge
    first) in a FIFO free list.  A right node accepts a proposal when it is
    free, when the proposal is strictly heavier than its engagement, or on
    equal weight when the incumbent is on its second chance and the
    proposer is not.  A left node that exhausts its list once recovers the
    full list and tries again; after the second exhaustion it stays single.
    """
    return _match("krc", graph, threshold)


def match_umc(graph: SimilarityGraph, threshold: float) -> Matching:
    """Global greedy: scan edges by descending weight, take both-free pairs.

    The edge order is the canonical one (ties by ascending (left, right)).
    """
    return _match("umc", graph, threshold)


# ----------------------------------------------------------------------
# neighbor walks, all over SimilarityGraph._adjacency in canonical order

class _Walk(NamedTuple):
    """Every node's neighbors, best first, as flat lists: node i's are at
    positions ``starts[i]`` up to ``starts[i + 1]``, and ``order`` maps a
    position back to its edge.  rsr, krc, bmc and rca read them."""

    order: np.ndarray
    others: list[int]
    weights: list[float]
    starts: list[int]

    def stops(self, degrees: np.ndarray) -> list[int]:
        """Where each node's list ends when the nodes have ``degrees``:
        pruning keeps a prefix of every list."""
        return (np.asarray(self.starts[:-1]) + degrees).tolist()


def _walk_lists(graph: SimilarityGraph, side: Side, offset: int = 0) -> _Walk:
    """The walk of the nodes of ``side``, their neighbors shifted by
    ``offset``."""
    order, starts = graph._adjacency(side)
    ends = graph.rights if side is Side.LEFT else graph.lefts
    return _Walk(order, (ends[order] + offset).tolist(),
                 graph.weights[order].tolist(), starts.tolist())


def _greedy_pass(graph: SimilarityGraph, side: Side, walk: _Walk | None = None,
                 stops: list[int] | None = None) -> tuple[np.ndarray, float]:
    """One rca pass, and the whole of bmc: the nodes of ``side``, in index
    order, each take their best still-free neighbor.  Node i reads its list
    in ``walk`` (the graph's by default) up to ``stops[i]`` (all of it by
    default).  Returns the taken edges' positions and the sum of their
    weights, added up in pass order.  The walk stops at the first free
    neighbor, so it never builds a pair per edge."""
    if walk is None:
        walk = _walk_lists(graph, side)
    others, weights, starts = walk.others, walk.weights, walk.starts
    taken = bytearray(graph.right_count if side is Side.LEFT
                      else graph.left_count)
    picked = []
    value = 0.0
    for a, b in zip(starts, starts[1:] if stops is None else stops):
        for k in range(a, b):
            j = others[k]
            if not taken[j]:
                taken[j] = 1
                picked.append(k)
                value += weights[k]
                break
    return walk.order[np.array(picked, dtype=np.int64)], value


# ----------------------------------------------------------------------
# the sweep engine
#
# Every matcher is a pair in ``_RUNS``: ``prepare(graph, floor, option)``
# does the work that does not depend on t, once, and ``run(prepared, t)``
# returns the pairs matched at any t >= floor as two int64 index columns
# ``(lefts, rights)``.  Pruning at such a t keeps a prefix of the canonical
# edge order and of every neighbor list, so a run reads the prepared state
# up to where t cuts it.  ``match_x(g, t)`` turns one run, prepared at t,
# into a Matching; a threshold sweep prepares once, at its smallest grid
# point, and counts each grid point's columns against the ground truth.

_Columns = tuple[np.ndarray, np.ndarray]


def _match(key: str, graph: SimilarityGraph, threshold: float, option=None,
           **run_options) -> Matching:
    _check_threshold(threshold)
    prepare, run = _RUNS[key]
    lefts, rights = run(prepare(graph, threshold, option), threshold,
                        **run_options)
    return Matching(zip(lefts.tolist(), rights.tolist()))


def _columns(lefts: list[int], rights: list[int]) -> _Columns:
    return np.array(lefts, dtype=np.int64), np.array(rights, dtype=np.int64)


# rsr, bah, bmc and krc: the prepared state is the floor graph's neighbor
# lists (bah: its edge keys and proposal sequence), and each run repeats
# the matcher's own pass over the part that survives t.

def _rsr_prepare(graph: SimilarityGraph, floor: float, option=None):
    g = graph.prune(floor)
    # Nodes are numbered left first: right node j is n1 + j, and the right
    # nodes' lists follow the left nodes' lists.  rsr outputs node pairs, so
    # its walk keeps no edge order.
    left = _walk_lists(g, Side.LEFT, offset=g.left_count)
    right = _walk_lists(g, Side.RIGHT)
    return g, _Walk(None, left.others + right.others,
                    left.weights + right.weights,
                    left.starts[:-1] + [g.edge_count + s for s in right.starts])


def _rsr_run(prepared, threshold: float) -> _Columns:
    floor_graph, walk = prepared
    others, weights, starts = walk.others, walk.weights, walk.starts
    g = floor_graph.prune(threshold)
    n1 = g.left_count
    n = g.node_count
    stops = walk.stops(np.concatenate([g.degrees(Side.LEFT),
                                       g.degrees(Side.RIGHT)]))
    averages = [sum(weights[a:b]) / (b - a) if b > a else 0.0
                for a, b in zip(starts, stops)]

    seeds = sorted((v for v in range(n) if stops[v] > starts[v]),
                   key=lambda v: (-averages[v], v))

    sim_with_center = [0.0] * n
    center_of = list(range(n))
    partitions: list[set[int]] = [set() for _ in range(n)]
    centers: set[int] = set()

    for seed in seeds:
        to_reassign: set[int] = set()
        for k in range(starts[seed], stops[seed]):
            other = others[k]
            if other in centers:
                continue
            w = weights[k]
            if w > sim_with_center[other] and w > sim_with_center[seed]:
                partitions[center_of[other]].discard(other)
                partitions[seed].add(other)
                if center_of[other] != other:
                    to_reassign.add(center_of[other])
                sim_with_center[other] = w
                center_of[other] = seed
                break
        if partitions[seed]:
            if center_of[seed] != seed:
                partitions[center_of[seed]].discard(seed)
                to_reassign.add(center_of[seed])
            centers.add(seed)
            partitions[seed].add(seed)
            center_of[seed] = seed
            sim_with_center[seed] = 1.0
        for orphan in sorted(to_reassign):
            best_sim = 0.0
            best_owner = None
            for k in range(starts[orphan], stops[orphan]):
                other = others[k]
                w = weights[k]
                if w > best_sim and len(partitions[other]) < 2:
                    best_owner = other
                    best_sim = w
            if best_owner is not None:
                partitions[orphan].clear()
                partitions[best_owner].add(orphan)

    lefts, rights = [], []
    for members in partitions:
        if len(members) != 2:
            continue
        a, b = sorted(members)
        if a < n1 <= b:
            lefts.append(a)
            rights.append(b - n1)
    return _columns(lefts, rights)


def _bah_prepare(graph: SimilarityGraph, floor: float,
                 config: BahConfig | None = None):
    cfg = config or BahConfig()
    g = graph.prune(floor)
    swap_left = g.left_count >= g.right_count
    bigs, smalls = (g.lefts, g.rights) if swap_left else (g.rights, g.lefts)
    keys = list(zip(bigs.tolist(), smalls.tolist()))
    # The proposal sequence depends only on the seed and the node count, so
    # every run shares it: the first run to reach a proposal draws it.  Each
    # proposal is a pair of distinct nodes, held in two int64 arrays.
    proposals = (array("q"), array("q"), random.Random(cfg.rng_seed).randrange)
    return g, cfg, swap_left, keys, g.weights.tolist(), proposals


def _bah_run(prepared, threshold: float,
             value_trace: list[float] | None = None) -> _Columns:
    floor_graph, cfg, swap_left, keys, weights, proposals = prepared
    g = floor_graph.prune(threshold)
    n_big = g.left_count if swap_left else g.right_count
    n_small = g.right_count if swap_left else g.left_count
    # The surviving edges are the first ones, in canonical order.
    contribution = dict(zip(keys, weights[:g.edge_count]))

    partner: list[int | None] = [k if k < n_small else None for k in range(n_big)]
    get = contribution.get
    value = sum(get((k, k), 0.0) for k in range(n_small))

    firsts, seconds, randrange = proposals
    start = time.perf_counter()
    if n_big >= 2:
        for begin in range(0, cfg.max_moves, 1024):
            if time.perf_counter() - start > cfg.time_limit:
                break
            end = min(begin + 1024, cfg.max_moves)
            for _ in range(end - len(firsts)):
                i = randrange(n_big)
                j = randrange(n_big)
                while j == i:
                    j = randrange(n_big)
                firsts.append(i)
                seconds.append(j)
            for i, j in zip(firsts[begin:end], seconds[begin:end]):
                p_i = partner[i]
                p_j = partner[j]
                delta = 0.0
                if p_i is not None:
                    delta += get((j, p_i), 0.0) - get((i, p_i), 0.0)
                if p_j is not None:
                    delta += get((i, p_j), 0.0) - get((j, p_j), 0.0)
                if delta >= 0:
                    partner[i] = p_j
                    partner[j] = p_i
                    value += delta
                    if value_trace is not None:
                        value_trace.append(value)

    bigs, smalls = [], []
    for big, small in enumerate(partner):
        if small is not None and (big, small) in contribution:
            bigs.append(big)
            smalls.append(small)
    return _columns(bigs, smalls) if swap_left else _columns(smalls, bigs)


def _bmc_prepare(graph: SimilarityGraph, floor: float,
                 basis: Basis = Basis.AUTO):
    if basis is Basis.AUTO:
        basis = Basis.LEFT if graph.left_count <= graph.right_count else Basis.RIGHT
    side = Side.LEFT if basis is Basis.LEFT else Side.RIGHT
    g = graph.prune(floor)
    return g, side, _walk_lists(g, side)


def _bmc_run(prepared, threshold: float) -> _Columns:
    floor_graph, side, walk = prepared
    g = floor_graph.prune(threshold)
    picked, _ = _greedy_pass(g, side, walk, walk.stops(g.degrees(side)))
    return g.lefts[picked], g.rights[picked]


def _krc_prepare(graph: SimilarityGraph, floor: float, option=None):
    g = graph.prune(floor)
    return g, _walk_lists(g, Side.LEFT)


def _krc_run(prepared, threshold: float) -> _Columns:
    floor_graph, walk = prepared
    others, weights, starts = walk.others, walk.weights, walk.starts
    stops = walk.stops(floor_graph.prune(threshold).degrees(Side.LEFT))
    n1 = floor_graph.left_count
    position = starts[:-1]
    second_chance = [False] * n1
    fiance: dict[int, int] = {}
    engagement_weight: dict[int, float] = {}
    free = deque(i for i in range(n1) if stops[i] > starts[i])

    while free:
        man = free.popleft()
        k = position[man]
        if k >= stops[man]:
            if not second_chance[man]:
                second_chance[man] = True
                position[man] = starts[man]
                free.append(man)
            continue
        woman = others[k]
        weight = weights[k]
        position[man] = k + 1
        incumbent = fiance.get(woman)
        if incumbent is None:
            fiance[woman] = man
            engagement_weight[woman] = weight
            continue
        current = engagement_weight[woman]
        accepts = weight > current or (
            weight == current
            and second_chance[incumbent]
            and not second_chance[man]
        )
        if accepts:
            fiance[woman] = man
            engagement_weight[woman] = weight
            free.append(incumbent)
        else:
            free.append(man)

    return _columns(list(fiance.values()), list(fiance.keys()))


# cnc, rca, exc and umc: the prepared state is an interval form
# ``(lefts, rights, lo, hi)``, the index pairs the matcher can output and,
# per pair, bounds such that the pair is matched at t exactly when
# lo < t <= hi.  Their one run is that mask.

_Intervals = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _interval_run(form: _Intervals, threshold: float) -> _Columns:
    lefts, rights, lo, hi = form
    keep = (lo < threshold) & (threshold <= hi)
    return lefts[keep], rights[keep]


def _edge_intervals(graph: SimilarityGraph, positions,
                    lo: np.ndarray | None = None) -> _Intervals:
    """The edges at ``positions``, each matched while its weight is >= t."""
    hi = graph.weights[positions]
    if lo is None:
        lo = np.full(len(hi), -np.inf)
    return graph.lefts[positions], graph.rights[positions], lo, hi


def _mutual_best(graph: SimilarityGraph) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the edges that are the first neighbor of both ends, and
    per such edge the larger of its ends' second-neighbor weights (-inf for
    an end of degree 1).  A node's neighbors are its edges in canonical
    order, so its first and second neighbors are its two lowest positions.
    """
    m = graph.edge_count
    positions = np.arange(m)
    best = np.ones(m, dtype=bool)
    seconds = []
    for ends, count in ((graph.lefts, graph.left_count),
                        (graph.rights, graph.right_count)):
        first = np.full(count, m)
        np.minimum.at(first, ends, positions)
        head = first[ends] == positions
        second = np.full(count, m)
        np.minimum.at(second, ends, np.where(head, m, positions))
        best &= head
        seconds.append(second)
    best = np.flatnonzero(best)
    weights = np.append(graph.weights, -np.inf)  # position m: no neighbor
    return best, np.maximum(weights[seconds[0][graph.lefts[best]]],
                            weights[seconds[1][graph.rights[best]]])


def _cnc_prepare(graph: SimilarityGraph, floor: float, option=None):
    """An edge is a whole component at t when it survives and every other
    edge at both ends does not: max(second best at each end) < t <= w.
    Only mutual-best edges can pass, as any other edge has an end whose
    best edge is at least as heavy."""
    g = graph.prune(floor)
    return _edge_intervals(g, *_mutual_best(g))


def _exc_prepare(graph: SimilarityGraph, floor: float, option=None):
    """Pruning cuts a prefix off each neighbor list, so a mutual-best edge
    stays mutual best while it survives, and no new one appears."""
    g = graph.prune(floor)
    return _edge_intervals(g, _mutual_best(g)[0])


def _rca_prepare(graph: SimilarityGraph, floor: float, option=None):
    """The passes ignore the threshold, so ``floor`` is unused: the winning
    pass is filtered to weight >= t at every t."""
    rows, value_rows = _greedy_pass(graph, Side.LEFT)
    cols, value_cols = _greedy_pass(graph, Side.RIGHT)
    return _edge_intervals(graph, rows if value_rows > value_cols else cols)


def _umc_prepare(graph: SimilarityGraph, floor: float, option=None):
    """Pruning at t >= floor keeps a prefix of the greedy scan, and the
    scan's choices within a prefix do not depend on what follows."""
    g = graph.prune(floor)
    taken_l = bytearray(g.left_count)
    taken_r = bytearray(g.right_count)
    picked = []
    for k, l, r in zip(range(g.edge_count), g.lefts.tolist(),
                       g.rights.tolist()):
        if not taken_l[l] and not taken_r[r]:
            taken_l[l] = 1
            taken_r[r] = 1
            picked.append(k)
    return _edge_intervals(g, np.array(picked, dtype=np.int64))


# The engine's registry: every matcher's (prepare, run) pair.
_RUNS: dict[str, tuple[Callable, Callable]] = {
    "cnc": (_cnc_prepare, _interval_run),
    "rsr": (_rsr_prepare, _rsr_run),
    "rca": (_rca_prepare, _interval_run),
    "bah": (_bah_prepare, _bah_run),
    "bmc": (_bmc_prepare, _bmc_run),
    "exc": (_exc_prepare, _interval_run),
    "krc": (_krc_prepare, _krc_run),
    "umc": (_umc_prepare, _interval_run),
}


# ----------------------------------------------------------------------
# registry: the public matchers, by name; each is one run of its pair in
# ``_RUNS``, and a threshold sweep runs the pair itself

ALGORITHMS: dict[str, Callable] = {
    "cnc": match_cnc,
    "rsr": match_rsr,
    "rca": match_rca,
    "bah": match_bah,
    "bmc": match_bmc,
    "exc": match_exc,
    "krc": match_krc,
    "umc": match_umc,
}


def get_matcher(name: str, **config) -> Callable[[SimilarityGraph, float], Matching]:
    """Resolve an algorithm abbreviation (case-insensitive) to a matcher.

    ``bah`` accepts ``max_moves``/``time_limit``/``rng_seed`` (or a ready
    ``config=BahConfig``); ``bmc`` accepts ``basis``.  The returned callable
    takes ``(graph, threshold)``.
    """
    key, option = _resolve(name, config)
    if key == "bah":
        return lambda g, t: match_bah(g, t, option)
    if key == "bmc":
        return lambda g, t: match_bmc(g, t, option)
    return ALGORITHMS[key]


def _resolve(name: str, config: dict) -> tuple[str, BahConfig | Basis | None]:
    """The registry key of ``name`` and its one option: a :class:`BahConfig`
    for bah, a :class:`Basis` for bmc, None for the others.  An unknown
    name or option raises ValueError."""
    key = name.lower()
    if key not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {name!r}; expected one of "
                         + ", ".join(sorted(ALGORITHMS)))
    config = dict(config)
    option = None
    if key == "bah":
        option = config.pop("config", None)
        if option is None:
            option = BahConfig(**{opt: config.pop(opt)
                                  for opt in ("max_moves", "time_limit", "rng_seed")
                                  if opt in config})
    elif key == "bmc":
        option = config.pop("basis", Basis.AUTO)
        if isinstance(option, str):
            option = Basis(option.lower())
    _reject_extra(config)
    return key, option


def _reject_extra(config: dict) -> None:
    if config:
        raise ValueError(f"unexpected matcher options: {sorted(config)}")


# ----------------------------------------------------------------------
# matching files (the format is described in `fileio`)

def write_matching(matching: Matching, graph: SimilarityGraph, path, *,
                   algorithm: str, threshold: float, config: str = "",
                   wall_time: float | None = None) -> None:
    pairs = list(matching)
    check_ids((graph.left_ids[l] for l, _ in pairs), path, leading=True)
    check_ids((graph.right_ids[r] for _, r in pairs), path)
    fields = {"algorithm": algorithm, "threshold": repr(threshold),
              "config": config}
    if wall_time is not None:
        fields["wall_time_s"] = f"{wall_time:.6f}"
    with open_text(path, "w") as fh:
        write_header(fh, fields)
        write_records(fh, ((graph.left_ids[l], graph.right_ids[r], w) for
                           (l, r), w in zip(pairs, graph._weights_of(pairs))))


def read_matching(path) -> tuple[list[tuple[str, str, float]], dict[str, str]]:
    """Parse a matching file into id-pair records plus its header fields."""
    header: dict[str, str] = {}
    records: list[tuple[str, str, float]] = []
    for lineno, (left_id, right_id, weight) in read_records(path, 3, header):
        try:
            records.append((left_id, right_id, float(weight)))
        except ValueError:
            raise DataFormatError(f"bad weight {weight!r}", path=path,
                                  line=lineno) from None
    return records, header

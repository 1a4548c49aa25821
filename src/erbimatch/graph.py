"""Bipartite similarity graphs and matchings.

A :class:`SimilarityGraph` is a weighted bipartite graph over two node
partitions (``left`` and ``right``).  Nodes are dense 0-based indices within
their partition; external string identifiers live in side tables.  Edges are
stored once, in a canonical deterministic order: descending weight, ties
broken by ascending ``(left, right)``.  Every construction, from triples,
from arrays or by normalization, goes through one array path that validates
the edges and sorts them once; pruning returns views onto a prefix of the
sorted arrays without checking or sorting again.  Instances are immutable
after construction and safe to share across threads.

A :class:`Matching` is a set of cross-partition pairs in which no node
appears twice (the unique mapping constraint of clean-clean resolution).
"""

from __future__ import annotations

import enum
import json
import logging
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, count, islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DataFormatError, EmptyGraphError
from .fileio import (
    check_ids,
    open_text,
    read_records,
    write_header,
    write_records,
)

__all__ = [
    "Side",
    "NodeRef",
    "SimilarityGraph",
    "Matching",
    "min_max_normalize",
    "prune_edges",
    "connected_components",
    "read_edge_list",
    "write_edge_list",
]

logger = logging.getLogger(__name__)


class Side(enum.Enum):
    """Which of the two node partitions a node belongs to."""

    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class NodeRef:
    """A node identified by its partition and dense index."""

    side: Side
    index: int

    def sort_key(self) -> tuple[bool, int]:
        """Total order: left partition first, then ascending index."""
        return (self.side is Side.RIGHT, self.index)

    def __lt__(self, other):
        if not isinstance(other, NodeRef):
            return NotImplemented
        return self.sort_key() < other.sort_key()


def _canonical_edges(left_count, right_count, lefts, rights, weights):
    """Validate parallel edge arrays; return them read-only, in canonical order."""
    if left_count < 0 or right_count < 0:
        raise ValueError("partition sizes must be non-negative")
    lefts = np.asarray(lefts, dtype=np.int64)
    rights = np.asarray(rights, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    if not lefts.ndim == rights.ndim == weights.ndim == 1:
        raise ValueError("edge arrays must be one-dimensional")
    if not (len(lefts) == len(rights) == len(weights)):
        raise ValueError("edge arrays must have equal length")
    if len(lefts):
        if lefts.min() < 0 or lefts.max() >= left_count:
            raise ValueError("left endpoint out of bounds")
        if rights.min() < 0 or rights.max() >= right_count:
            raise ValueError("right endpoint out of bounds")
        if not np.all(np.isfinite(weights)):
            raise ValueError("edge weights must be finite")
        # Sorting by the packed (left, right) key puts duplicates side by
        # side; a stable sort on -weight then keeps that order within ties.
        packed = lefts * max(right_count, 1) + rights
        order = np.argsort(packed, kind="stable")
        keys = packed[order]
        if np.any(keys[1:] == keys[:-1]):
            raise ValueError("duplicate (left, right) edge")
        order = order[np.argsort(-weights[order], kind="stable")]
        lefts, rights, weights = lefts[order], rights[order], weights[order]
    for arr in (lefts, rights, weights):
        arr.setflags(write=False)
    return lefts, rights, weights


def _index_columns(pairs, left_count, right_count):
    """``(left, right)`` index pairs as two int64 columns.  A pair that
    names a node outside ``left_count`` x ``right_count`` raises ValueError,
    as numpy would wrap a negative index round to a real node."""
    lefts, rights = np.array(list(pairs), dtype=np.int64).reshape(-1, 2).T
    if lefts.size and (min(lefts.min(), rights.min()) < 0
                       or lefts.max() >= left_count
                       or rights.max() >= right_count):
        raise ValueError("pair names a node outside the graph")
    return lefts, rights


def _min_max(weights: np.ndarray) -> np.ndarray:
    """``(w - min) / (max - min)``, or all ones when every weight is equal."""
    w_min = float(weights.min())
    w_max = float(weights.max())
    if w_max == w_min:
        return np.ones_like(weights)
    return (weights - w_min) / (w_max - w_min)


class SimilarityGraph:
    """Immutable weighted bipartite graph.

    Both constructors validate the edges (endpoints in bounds, finite
    weights, no duplicate ``(left, right)`` pair) and sort them into the
    canonical order once, through the same array path.  :meth:`prune`
    returns views onto these arrays.

    Parameters
    ----------
    left_count, right_count:
        Partition sizes.
    edges:
        Iterable of ``(left, right, weight)`` triples, or None for an
        edgeless graph.
    left_ids, right_ids:
        External string identifiers per index.  Synthesized as ``L{i}`` /
        ``R{i}`` when omitted.
    """

    __slots__ = (
        "left_count",
        "right_count",
        "left_ids",
        "right_ids",
        "lefts",
        "rights",
        "weights",
        "_groups",
    )

    def __init__(
        self,
        left_count: int,
        right_count: int,
        edges: Iterable[tuple[int, int, float]] | None = None,
        *,
        left_ids: Sequence[str] | None = None,
        right_ids: Sequence[str] | None = None,
    ):
        columns = list(zip(*(() if edges is None else edges))) or [(), (), ()]
        self._init(left_count, right_count,
                   *_canonical_edges(left_count, right_count, *columns),
                   self._make_ids(left_ids, left_count, "L"),
                   self._make_ids(right_ids, right_count, "R"))

    @classmethod
    def from_arrays(
        cls,
        left_count: int,
        right_count: int,
        lefts: np.ndarray,
        rights: np.ndarray,
        weights: np.ndarray,
        *,
        left_ids: Sequence[str] | None = None,
        right_ids: Sequence[str] | None = None,
    ) -> "SimilarityGraph":
        """Build a graph from parallel edge arrays."""
        g = cls.__new__(cls)
        g._init(left_count, right_count,
                *_canonical_edges(left_count, right_count, lefts, rights, weights),
                cls._make_ids(left_ids, left_count, "L"),
                cls._make_ids(right_ids, right_count, "R"))
        return g

    def _init(self, left_count, right_count, lefts, rights, weights,
              left_ids, right_ids):
        # Edges (in canonical order) and ids arrive checked by a constructor.
        self.left_count = int(left_count)
        self.right_count = int(right_count)
        self.lefts = lefts
        self.rights = rights
        self.weights = weights
        self.left_ids = left_ids
        self.right_ids = right_ids
        self._groups = {}  # side -> (order, starts), see _adjacency

    @staticmethod
    def _make_ids(ids, count, prefix) -> tuple[str, ...]:
        if ids is None:
            return tuple(f"{prefix}{i}" for i in range(count))
        ids = tuple(ids)
        if len(ids) != count:
            raise ValueError(f"expected {count} node identifiers, got {len(ids)}")
        if len(set(ids)) != count:
            raise ValueError("node identifiers must be unique")
        return ids

    # ------------------------------------------------------------------
    # basic queries

    @property
    def edge_count(self) -> int:
        return len(self.weights)

    @property
    def node_count(self) -> int:
        return self.left_count + self.right_count

    def __repr__(self):
        return (f"SimilarityGraph(left={self.left_count}, right={self.right_count}, "
                f"edges={self.edge_count})")

    def edge_list(self) -> list[tuple[int, int, float]]:
        """All edges as ``(left, right, weight)`` in canonical order."""
        return list(zip(self.lefts.tolist(), self.rights.tolist(), self.weights.tolist()))

    def edge_records(self) -> list[tuple[str, str, float]]:
        """All edges as ``(left_id, right_id, weight)`` in canonical order."""
        return list(zip(map(self.left_ids.__getitem__, self.lefts.tolist()),
                        map(self.right_ids.__getitem__, self.rights.tolist()),
                        self.weights.tolist()))

    def pair_weights(self) -> dict[tuple[int, int], float]:
        """A ``(left, right) -> weight`` lookup table, built on each call."""
        return dict(zip(zip(self.lefts.tolist(), self.rights.tolist()),
                        self.weights.tolist()))

    def _weights_of(self, pairs) -> list[float]:
        """The weights of one-to-one ``(left, right)`` index pairs, in order
        (0.0 where there is no edge), found with a left -> right partner
        array in one pass over the edges."""
        lefts, rights = _index_columns(pairs, self.left_count,
                                       self.right_count)
        partner = np.full(self.left_count, -1, dtype=np.int64)
        partner[lefts] = rights
        hit = partner[self.lefts] == self.rights
        weight = np.zeros(self.left_count)
        weight[self.lefts[hit]] = self.weights[hit]
        return weight[lefts].tolist()

    def _adjacency(self, side: Side):
        # Group canonical edge positions by endpoint.  A stable sort keeps
        # the canonical (descending weight) order inside each group.
        if side not in self._groups:
            ends, size = ((self.lefts, self.left_count) if side is Side.LEFT
                          else (self.rights, self.right_count))
            order = np.argsort(ends, kind="stable")
            self._groups[side] = order, np.searchsorted(ends[order],
                                                        np.arange(size + 1))
        return self._groups[side]

    def neighbors(self, side: Side, index: int) -> tuple[np.ndarray, np.ndarray]:
        """Adjacent opposite-side indices and weights, best first.

        The order is total and deterministic: descending weight, ties by
        ascending ``(left, right)``.
        """
        order, starts = self._adjacency(side)
        sel = order[starts[index]:starts[index + 1]]
        if side is Side.LEFT:
            return self.rights[sel], self.weights[sel]
        return self.lefts[sel], self.weights[sel]

    def degrees(self, side: Side) -> np.ndarray:
        if side is Side.LEFT:
            return np.bincount(self.lefts, minlength=self.left_count)
        return np.bincount(self.rights, minlength=self.right_count)

    # ------------------------------------------------------------------
    # transformations

    def prune(self, threshold: float) -> "SimilarityGraph":
        """Keep exactly the edges with weight >= ``threshold``.

        Node counts and identifiers are unchanged.  Because edges are stored
        in descending-weight order the retained set is a prefix, so this is
        cheap and returns views onto the same arrays.
        """
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {threshold}")
        # The weights descend: count those < threshold in the reversed view.
        cut = self.edge_count - int(np.searchsorted(self.weights[::-1],
                                                    threshold, side="left"))
        g = SimilarityGraph.__new__(SimilarityGraph)
        g._init(self.left_count, self.right_count,
                self.lefts[:cut], self.rights[:cut], self.weights[:cut],
                self.left_ids, self.right_ids)
        return g

    def normalized(self) -> "SimilarityGraph":
        """Min-max normalize edge weights to span [0, 1].

        Weights map to ``(w - min) / (max - min)``.  When all weights are
        equal the graph carries no contrast and every weight becomes 1.0.
        Raises :class:`EmptyGraphError` for edgeless graphs.
        """
        if self.edge_count == 0:
            raise EmptyGraphError("cannot normalize a graph with no edges")
        # Re-canonicalize: rounding can collapse distinct weights into ties,
        # which then need the (left, right) tie-break.
        return SimilarityGraph.from_arrays(
            self.left_count, self.right_count,
            self.lefts, self.rights, _min_max(self.weights),
            left_ids=self.left_ids, right_ids=self.right_ids,
        )

    def connected_components(self) -> list[set[NodeRef]]:
        """Partition all nodes of both sides into maximal connected sets.

        Isolated nodes form singletons.  Union-find with path compression,
        O(n + m α(n)).  Components are returned ordered by their smallest
        member (left partition first, then index); membership sets are
        unordered.
        """
        n = self.node_count
        parent = list(range(n))
        size = [1] * n

        def find(x: int) -> int:
            root = x
            while parent[root] != root:
                root = parent[root]
            while parent[x] != root:
                parent[x], x = root, parent[x]
            return root

        offset = self.left_count
        for l, r in zip(self.lefts.tolist(), self.rights.tolist()):
            a, b = find(l), find(r + offset)
            if a != b:
                if size[a] < size[b]:
                    a, b = b, a
                parent[b] = a
                size[a] += size[b]

        groups: dict[int, set[NodeRef]] = {}
        for node in range(n):
            ref = (NodeRef(Side.LEFT, node) if node < offset
                   else NodeRef(Side.RIGHT, node - offset))
            groups.setdefault(find(node), set()).add(ref)
        return sorted(groups.values(), key=lambda comp: min(comp).sort_key())


class Matching:
    """A set of cross-partition pairs obeying the unique mapping constraint."""

    __slots__ = ("pairs", "_left_map", "_right_map")

    def __init__(self, pairs: Iterable[tuple[int, int]] = ()):
        pairs = frozenset((int(l), int(r)) for l, r in pairs)
        left_map: dict[int, int] = {}
        right_map: dict[int, int] = {}
        for l, r in sorted(pairs):
            if l in left_map:
                raise ValueError(f"left node {l} matched twice")
            if r in right_map:
                raise ValueError(f"right node {r} matched twice")
            left_map[l] = r
            right_map[r] = l
        self.pairs = pairs
        self._left_map = left_map
        self._right_map = right_map

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self.pairs))

    def __contains__(self, pair) -> bool:
        return pair in self.pairs

    def __eq__(self, other) -> bool:
        if isinstance(other, Matching):
            return self.pairs == other.pairs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.pairs)

    def __repr__(self):
        return f"Matching({sorted(self.pairs)})"

    def is_left_matched(self, index: int) -> bool:
        return index in self._left_map

    def is_right_matched(self, index: int) -> bool:
        return index in self._right_map

    def left_partner(self, index: int) -> int | None:
        return self._left_map.get(index)

    def right_partner(self, index: int) -> int | None:
        return self._right_map.get(index)

    def total_weight(self, graph: SimilarityGraph) -> float:
        """Sum of the graph's weights over the matched pairs.

        Recomputed from scratch on every call; pairs without a corresponding
        edge contribute 0.
        """
        return sum(graph._weights_of(self.pairs))

    def id_pairs(self, graph: SimilarityGraph) -> set[tuple[str, str]]:
        """Pairs translated to external identifiers."""
        return {
            (graph.left_ids[l], graph.right_ids[r]) for l, r in self.pairs
        }


# ----------------------------------------------------------------------
# free-function forms of the graph operations

def prune_edges(graph: SimilarityGraph, threshold: float) -> SimilarityGraph:
    """Return the subgraph with exactly the edges of weight >= ``threshold``."""
    return graph.prune(threshold)


def min_max_normalize(graph: SimilarityGraph) -> SimilarityGraph:
    """Return a copy of ``graph`` with weights min-max normalized to [0, 1]."""
    return graph.normalized()


def connected_components(graph: SimilarityGraph) -> list[set[NodeRef]]:
    """Maximal connected node sets of ``graph`` (both partitions)."""
    return graph.connected_components()


# ----------------------------------------------------------------------
# edge-list files (the format is described in `fileio`)

def write_edge_list(graph: SimilarityGraph, path, *, comments: Sequence[str] = ()) -> None:
    check_ids(graph.left_ids, path, leading=True)
    check_ids(graph.right_ids, path)
    with open_text(path, "w") as fh:
        write_header(fh, {"left_ids": json.dumps(graph.left_ids),
                          "right_ids": json.dumps(graph.right_ids)}, comments)
        write_records(fh, graph.edge_records())


def _node_index(header: dict[str, str], key: str, path) -> dict[str, int]:
    """The id -> index table in header field ``key``; without that field, a
    table that numbers ids in order of first appearance."""
    if key not in header:
        logger.warning("%s has no %s table; it is inferred from the edges, "
                       "without isolated nodes", path, key)
        return defaultdict(count().__next__)
    try:
        ids = json.loads(header[key])
        if (isinstance(ids, list) and all(isinstance(i, str) for i in ids)
                and len(set(ids)) == len(ids)):
            return {node_id: i for i, node_id in enumerate(ids)}
    except ValueError:
        pass
    raise DataFormatError(f"{key} is not a JSON array of distinct strings",
                          path=path)


def read_edge_list(path) -> SimilarityGraph:
    header: dict[str, str] = {}
    records = read_records(path, 3, header)
    first = list(islice(records, 1))  # the header precedes the first edge
    left_index, right_index = (_node_index(header, key, path)
                               for key in ("left_ids", "right_ids"))
    lefts, rights, weights = [], [], []
    for lineno, (left_id, right_id, weight) in chain(first, records):
        try:
            lefts.append(left_index[left_id])
            rights.append(right_index[right_id])
            weights.append(float(weight))
        except KeyError as exc:
            raise DataFormatError(f"id {exc.args[0]!r} is not in the node "
                                  "tables", path=path, line=lineno) from None
        except ValueError:
            raise DataFormatError(f"bad weight {weight!r}", path=path,
                                  line=lineno) from None
    try:
        return SimilarityGraph.from_arrays(
            len(left_index), len(right_index), lefts, rights, weights,
            left_ids=list(left_index), right_ids=list(right_index))
    except ValueError as exc:
        raise DataFormatError(str(exc), path=path) from None

"""Similarity-graph construction: similarity function x entity collections.

A similarity function is a representation model plus a compatible measure:

    raw_string  character measures (levenshtein, damerau_levenshtein, jaro,
                needleman_wunsch, qgrams, lc_substring, lc_subsequence) or
                word measures (cosine, euclidean, block, overlap, dice,
                simon_white, jaccard, generalized_jaccard, monge_elkan),
                schema-based only
    bag         n-gram frequency vectors: cosine, jaccard,
                generalized_jaccard, arcs
    graph       n-gram graphs: containment, value, normalized_value, overall
    vector      precomputed embeddings: cosine, euclidean

The builder scores every cross-collection pair (no blocking) into parallel
``(lefts, rights, sims)`` arrays, keeps pairs with similarity strictly above
zero, min-max normalizes the similarities, and only then hands the arrays to
:meth:`SimilarityGraph.from_arrays`, which validates and sorts them once.
Raw strings are preprocessed with NFC + casefold + whitespace collapse;
bag/graph models apply the gram extractor's own normalization.  Profiles
without usable content for the configured scope contribute no edges.

Scoring is one loop over row blocks.  ``kernels.KERNELS`` maps each
``(model, measure)`` to a row kernel, which indexes the right side once and
scores a block of left representations against all of it:

    DP strings    raw_string levenshtein, damerau_levenshtein,
                  needleman_wunsch, lc_subsequence, lc_substring
    shared keys   every graph measure; bag jaccard, generalized_jaccard, arcs
    whole matrix  bag cosine, vector cosine and euclidean
    per pair      raw_string jaro, qgrams and the word measures

With ``workers > 1`` the pool shards the left rows of every kernel except
the whole-matrix ones into one contiguous block per worker; each worker
builds the representations of its own block.  The whole-matrix kernels
score in-process in one call.
"""

from __future__ import annotations

import logging
import unicodedata
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from ..errors import ConfigurationError
from ..graph import SimilarityGraph, _min_max
from ..profiles import EntityProfile, ProfileCollection
from .bags import (
    BAG_MEASURES,
    CorpusStats,
    WeightScheme,
    build_bag_model,
    corpus_stats,
)
from .kernels import KERNELS
from .ngram_graphs import GRAPH_MEASURES, build_ngram_graph
from .strings import EDIT_MEASURES
from .text import GramUnit, tokenize
from .tokens import TOKEN_MEASURES
from .vectors import VECTOR_MEASURES

__all__ = ["SimFnConfig", "build_similarity_graph", "model_coverage"]

logger = logging.getLogger(__name__)

_MODELS = ("raw_string", "bag", "graph", "vector")


@dataclass(frozen=True)
class SimFnConfig:
    """Fully determines how pair similarities are computed.

    ``scope`` is an attribute name for schema-based functions or None to use
    every attribute value.  ``unit``/``n`` configure gram extraction for bag
    and graph models, ``scheme`` the bag weighting.
    """

    model: str
    measure: str
    scope: str | None = None
    unit: GramUnit = GramUnit.TOKEN
    n: int = 1
    scheme: WeightScheme = WeightScheme.TF

    def __post_init__(self):
        if self.model not in _MODELS:
            raise ConfigurationError(
                f"unknown model {self.model!r}; expected one of {_MODELS}")
        table = {
            "raw_string": set(EDIT_MEASURES) | set(TOKEN_MEASURES),
            "bag": set(BAG_MEASURES),
            "graph": set(GRAPH_MEASURES),
            "vector": set(VECTOR_MEASURES),
        }[self.model]
        if self.measure not in table:
            raise ConfigurationError(
                f"measure {self.measure!r} is not defined for model "
                f"{self.model!r}; expected one of {sorted(table)}")
        if self.model == "raw_string" and self.scope is None:
            raise ConfigurationError(
                "raw_string functions are schema-based; set scope to an "
                "attribute name")
        if self.n < 1:
            raise ConfigurationError("n-gram order must be >= 1")

    def describe(self) -> str:
        parts = [f"model={self.model}", f"measure={self.measure}",
                 f"scope={self.scope or 'schema-agnostic'}"]
        if self.model in ("bag", "graph"):
            parts.append(f"unit={self.unit.value}")
            parts.append(f"n={self.n}")
        if self.model == "bag":
            parts.append(f"scheme={self.scheme.value}")
        return " ".join(parts)


def _normalize_raw(value: str) -> str:
    value = unicodedata.normalize("NFC", value).casefold()
    return " ".join(value.split())


def _raw_string(profile: EntityProfile, scope: str | None) -> str | None:
    values = profile.values(scope)
    if not values:
        return None
    return _normalize_raw(" ".join(values))


def _representations(collection: ProfileCollection, cfg: SimFnConfig,
                     stats: CorpusStats | None,
                     embeddings: Mapping[str, np.ndarray] | None) -> list:
    reps: list = []
    for profile in collection:
        if cfg.model == "raw_string":
            text = _raw_string(profile, cfg.scope)
            if text is None:
                reps.append(None)
            elif cfg.measure in EDIT_MEASURES:
                reps.append(text)
            else:
                reps.append(Counter(tokenize(text)))
        elif cfg.model == "bag":
            model = build_bag_model(profile, cfg.unit, cfg.n, cfg.scheme,
                                    stats, attribute=cfg.scope)
            reps.append(model if model.weights else None)
        elif cfg.model == "graph":
            graph = build_ngram_graph(profile, cfg.unit, cfg.n,
                                      attribute=cfg.scope)
            reps.append(graph if graph.nodes else None)
        else:
            reps.append(None if embeddings is None
                        else embeddings.get(profile.id))
    return reps


# -- the scoring loop ------------------------------------------------------

_WORKER_STATE: tuple | None = None


def _init_worker(*state):
    global _WORKER_STATE
    _WORKER_STATE = state


def _score_rows(bounds: tuple[int, int]):
    return _score_block(*_WORKER_STATE, bounds)


def _score_block(score, index, left, cfg, stats_left, emb_left, bounds):
    """Represent the left profiles in ``bounds`` and score them."""
    lo, hi = bounds
    block = _representations(left.profiles[lo:hi], cfg, stats_left, emb_left)
    rows, cols, sims = score(block, index)
    return rows + lo, cols, sims


def _as_collection(profiles) -> ProfileCollection:
    if isinstance(profiles, ProfileCollection):
        return profiles
    return ProfileCollection(profiles)


def model_coverage(collection: ProfileCollection, cfg: SimFnConfig,
                   embeddings: Mapping[str, np.ndarray] | None = None) -> int:
    """How many profiles carry usable content for this configuration."""
    if cfg.model == "vector":
        if embeddings is None:
            return 0
        return sum(1 for p in collection if p.id in embeddings)
    return sum(1 for p in collection if p.values(cfg.scope))


def build_similarity_graph(
    left: Iterable[EntityProfile],
    right: Iterable[EntityProfile],
    cfg: SimFnConfig,
    *,
    embeddings: tuple[Mapping[str, np.ndarray], Mapping[str, np.ndarray]] | None = None,
    workers: int = 1,
    max_pairs: int | None = None,
) -> SimilarityGraph:
    """Score all cross-collection pairs and return the normalized graph.

    Emits an edge for every pair with similarity > 0, then min-max
    normalizes the weights (a graph that ends up with no edges is returned
    as-is).  ``embeddings`` is the pair of id->vector maps for the vector
    model.  ``max_pairs`` aborts runs whose Cartesian product would exceed
    the budget.  ``workers`` shards the pair space by rows; results are
    identical regardless of the worker count.
    """
    left = _as_collection(left)
    right = _as_collection(right)
    if len(left) == 0 or len(right) == 0:
        raise ConfigurationError("both collections must be non-empty")
    if max_pairs is not None and len(left) * len(right) > max_pairs:
        raise ConfigurationError(
            f"{len(left) * len(right)} pairs exceed the --max-pairs budget "
            f"of {max_pairs}")

    emb_left = emb_right = None
    if cfg.model == "vector":
        if embeddings is None:
            raise ConfigurationError(
                "the vector model needs precomputed embeddings for both "
                "collections")
        emb_left, emb_right = embeddings
        dim = None
        for side_name, coll, table in (("left", left, emb_left),
                                       ("right", right, emb_right)):
            for profile in coll:
                if profile.id not in table:
                    continue
                shape = np.shape(table[profile.id])
                if dim is None and len(shape) == 1:
                    dim = shape[0]
                if shape != (dim,):
                    raise ConfigurationError(
                        f"{side_name} embedding {profile.id!r} has shape "
                        f"{shape}; expected ({dim},)")
            unknown = set(table) - set(coll.by_id)
            if unknown:
                logger.warning(
                    "%d embedding ids have no %s profile (e.g. %s)",
                    len(unknown), side_name, sorted(unknown)[0])
    elif cfg.scope is not None:
        for name, coll in (("left", left), ("right", right)):
            if not any(p.values(cfg.scope) for p in coll):
                raise ConfigurationError(
                    f"attribute {cfg.scope!r} is absent from every {name} "
                    "profile")

    # the representations and the kernel's index are freed before the
    # arrays are normalized and sorted
    lefts, rights, sims = _score_pairs(left, right, cfg, emb_left, emb_right,
                                       workers)
    if len(sims):
        sims = _min_max(sims)
    return SimilarityGraph.from_arrays(len(left), len(right), lefts, rights,
                                       sims, left_ids=left.ids,
                                       right_ids=right.ids)


def _score_pairs(left, right, cfg, emb_left, emb_right, workers):
    """``(lefts, rights, sims)`` of every pair with similarity above zero,
    from the configuration's row kernel.  The pool shards the left rows, and
    each worker builds the left representations of its own rows."""
    stats_left = stats_right = None
    if cfg.model == "bag":
        stats_left = corpus_stats(left, cfg.unit, cfg.n, attribute=cfg.scope)
        stats_right = corpus_stats(right, cfg.unit, cfg.n, attribute=cfg.scope)

    right_reps = _representations(right, cfg, stats_right, emb_right)
    kernel = KERNELS[cfg.model, cfg.measure]
    state = (kernel.score, kernel.prepare(right_reps, stats_left, stats_right),
             left, cfg, stats_left, emb_left)
    if kernel.shard and workers > 1 and len(left) > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                 initargs=state) as pool:
            blocks = list(pool.map(_score_rows,
                                   _split_rows(len(left), workers)))
        return tuple(np.concatenate(parts) for parts in zip(*blocks))
    return _score_block(*state, (0, len(left)))


def _split_rows(total: int, workers: int) -> list[tuple[int, int]]:
    step = max(1, (total + workers - 1) // workers)
    return [(lo, min(lo + step, total)) for lo in range(0, total, step)]

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
    BagModel,
    CorpusStats,
    WeightScheme,
    bag_similarity,
    build_bag_model,
    corpus_stats,
)
from .ngram_graphs import GRAPH_MEASURES, build_ngram_graph, graph_similarity
from .strings import EDIT_MEASURES, edit_similarity
from .text import GramUnit, tokenize
from .tokens import TOKEN_MEASURES, token_set_similarity
from .vectors import VECTOR_MEASURES

__all__ = ["SimFnConfig", "build_similarity_graph", "model_coverage"]

logger = logging.getLogger(__name__)

# measures whose raw form is asymmetric; the builder keeps the larger value
# of both directions (containment and overlap are symmetric already)
_SYMMETRIZED = {"monge_elkan"}

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


def _make_scorer(cfg: SimFnConfig, stats_left, stats_right):
    if cfg.model == "raw_string" and cfg.measure in EDIT_MEASURES:
        base = lambda a, b: edit_similarity(cfg.measure, a, b)
    elif cfg.model == "raw_string":
        base = lambda a, b: token_set_similarity(cfg.measure, a, b)
    elif cfg.model == "bag":
        base = lambda a, b: bag_similarity(cfg.measure, a, b,
                                           stats_left, stats_right)
    else:  # graph; the vector model is scored by _vector_edges
        base = lambda a, b: graph_similarity(cfg.measure, a, b)
    if cfg.measure in _SYMMETRIZED:
        return lambda a, b: max(base(a, b), base(b, a))
    return base


# -- worker-pool plumbing ------------------------------------------------

_WORKER_STATE: tuple | None = None


def _init_worker(left_reps, right_reps, cfg, stats_left, stats_right):
    global _WORKER_STATE
    _WORKER_STATE = (left_reps, right_reps, _make_scorer(cfg, stats_left,
                                                         stats_right))


def _score_rows(bounds: tuple[int, int]):
    left_reps, right_reps, scorer = _WORKER_STATE
    return _score_rows_direct(left_reps, right_reps, scorer, bounds)


def _score_rows_direct(left_reps, right_reps, scorer, bounds):
    lo, hi = bounds
    lefts: list[int] = []
    rights: list[int] = []
    sims: list[float] = []
    for i in range(lo, hi):
        a = left_reps[i]
        if a is None:
            continue
        for j, b in enumerate(right_reps):
            if b is None:
                continue
            sim = scorer(a, b)
            if sim > 0.0:
                lefts.append(i)
                rights.append(j)
                sims.append(sim)
    return (np.asarray(lefts, dtype=np.int64),
            np.asarray(rights, dtype=np.int64),
            np.asarray(sims, dtype=np.float64))


# -- vectorized fast paths -----------------------------------------------

def _bag_cosine_edges(left_reps: list[BagModel | None],
                      right_reps: list[BagModel | None]):
    from scipy import sparse

    vocab: dict[str, int] = {}
    for reps in (left_reps, right_reps):
        for model in reps:
            if model is not None:
                for gram in model.weights:
                    vocab.setdefault(gram, len(vocab))

    def matrix(reps, rows):
        data, indices, indptr = [], [], [0]
        for model in reps:
            if model is not None:
                for gram, w in model.weights.items():
                    indices.append(vocab[gram])
                    data.append(w)
            indptr.append(len(data))
        mat = sparse.csr_matrix(
            (np.asarray(data, dtype=np.float64),
             np.asarray(indices, dtype=np.int64),
             np.asarray(indptr, dtype=np.int64)),
            shape=(rows, max(len(vocab), 1)),
        )
        norms = np.sqrt(np.asarray(mat.multiply(mat).sum(axis=1)).ravel())
        scale = np.divide(1.0, norms, out=np.zeros_like(norms),
                          where=norms > 0)
        return sparse.diags(scale) @ mat

    left = matrix(left_reps, len(left_reps))
    right_t = matrix(right_reps, len(right_reps)).T.tocsc()

    chunk = max(1, 2_000_000 // max(len(right_reps), 1))
    lefts, rights, sims = [], [], []
    for lo in range(0, len(left_reps), chunk):
        block = (left[lo:lo + chunk] @ right_t).tocoo()
        keep = block.data > 0.0
        lefts.append(block.row[keep].astype(np.int64) + lo)
        rights.append(block.col[keep].astype(np.int64))
        sims.append(block.data[keep])
    return np.concatenate(lefts), np.concatenate(rights), np.concatenate(sims)


def _vector_edges(left_reps, right_reps, measure):
    present_l = [i for i, v in enumerate(left_reps) if v is not None]
    present_r = [j for j, v in enumerate(right_reps) if v is not None]
    if not present_l or not present_r:
        return [], [], []
    lmat = np.asarray([left_reps[i] for i in present_l], dtype=np.float64)
    rmat = np.asarray([right_reps[j] for j in present_r], dtype=np.float64)
    if measure == "cosine":
        lnorm = np.linalg.norm(lmat, axis=1, keepdims=True)
        rnorm = np.linalg.norm(rmat, axis=1, keepdims=True)
        lmat = np.divide(lmat, lnorm, out=np.zeros_like(lmat), where=lnorm > 0)
        rmat = np.divide(rmat, rnorm, out=np.zeros_like(rmat), where=rnorm > 0)
        sims = lmat @ rmat.T
    else:
        from scipy.spatial.distance import cdist

        sims = 1.0 / (1.0 + cdist(lmat, rmat, metric="euclidean"))
    li, rj = np.nonzero(sims > 0.0)
    values = sims[li, rj]
    lefts = np.asarray(present_l, dtype=np.int64)[li]
    rights = np.asarray(present_r, dtype=np.int64)[rj]
    return lefts, rights, values


# -------------------------------------------------------------------------

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

    stats_left = stats_right = None
    if cfg.model == "bag":
        stats_left = corpus_stats(left, cfg.unit, cfg.n, attribute=cfg.scope)
        stats_right = corpus_stats(right, cfg.unit, cfg.n, attribute=cfg.scope)

    left_reps = _representations(left, cfg, stats_left, emb_left)
    right_reps = _representations(right, cfg, stats_right, emb_right)

    if cfg.model == "bag" and cfg.measure == "cosine":
        lefts, rights, sims = _bag_cosine_edges(left_reps, right_reps)
    elif cfg.model == "vector":
        lefts, rights, sims = _vector_edges(left_reps, right_reps, cfg.measure)
    elif workers > 1 and len(left) > 1:
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(left_reps, right_reps, cfg, stats_left, stats_right),
        ) as pool:
            blocks = list(pool.map(_score_rows,
                                   _split_rows(len(left), workers)))
        lefts, rights, sims = (np.concatenate(parts) for parts in zip(*blocks))
    else:
        scorer = _make_scorer(cfg, stats_left, stats_right)
        lefts, rights, sims = _score_rows_direct(left_reps, right_reps, scorer,
                                                 (0, len(left)))

    if len(sims):
        sims = _min_max(sims)
    return SimilarityGraph.from_arrays(len(left), len(right), lefts, rights,
                                       sims, left_ids=left.ids,
                                       right_ids=right.ids)


def _split_rows(total: int, workers: int) -> list[tuple[int, int]]:
    step = max(1, (total + workers - 1) // workers)
    return [(lo, min(lo + step, total)) for lo in range(0, total, step)]

"""Row kernels: one scoring routine per (model, measure).

A :class:`Kernel` scores a block of left representations against the whole
right side.  ``prepare(right_reps, stats_left, stats_right)`` builds the
right side's index once; ``score(block, index)`` returns ``(rows, cols,
sims)`` for the pairs of the block whose similarity is above zero, with rows
counted from the block's first row and columns indexing ``right_reps``.
``None`` representations (profiles without usable content) score nothing.

Four kernel families cover every measure:

    DP strings    levenshtein, damerau_levenshtein, needleman_wunsch,
                  lc_subsequence, lc_substring: the DP runs over a code-point
                  matrix of the padded right strings, one vector step per left
                  character, the in-row dependency as a cumulative min or max
    shared keys   graph measures and bag jaccard, generalized_jaccard, arcs:
                  an inverted index from right key to (right ids, weights) and
                  one ``np.bincount`` per left row
    whole matrix  bag cosine (sparse product) and the vector measures (dense)
    per pair      jaro, qgrams and the token measures: the per-pair function
                  looped over the row (monge_elkan symmetrized)

The kernels reproduce the per-pair functions of the measure modules, which
stay as their reference.  Integer DPs and count ratios agree exactly.  Sums
of floats run in the left representation's key order (``bincount`` adds
sequentially), so they equal the per-pair functions wherever those also sum
in that order; elsewhere they agree to a few ulps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from operator import attrgetter
from typing import Callable, NamedTuple

import numpy as np

from .ngram_graphs import GRAPH_MEASURES
from .strings import edit_similarity
from .tokens import TOKEN_MEASURES, token_set_similarity
from .vectors import VECTOR_MEASURES

__all__ = ["Kernel", "KERNELS"]


@dataclass(frozen=True)
class Kernel:
    """``prepare(right_reps, stats_left, stats_right) -> index`` and
    ``score(block, index) -> (rows, cols, sims)``, as described above;
    ``shard`` tells whether the worker pool may split the left rows."""

    prepare: Callable
    score: Callable
    shard: bool = True


def _as_is(right_reps, stats_left, stats_right):
    return right_reps


_NO_IDS = np.zeros(0, dtype=np.int64)
_NO_SIMS = np.zeros(0, dtype=np.float64)


def _edges(rows, cols, sims):
    return (np.concatenate([_NO_IDS, *rows]), np.concatenate([_NO_IDS, *cols]),
            np.concatenate([_NO_SIMS, *sims]))


def _row_block(row_fn, block, index):
    """Run ``row_fn(rep, index) -> (cols, sims)`` over the block's rows."""
    rows, cols, sims = [], [], []
    for r, rep in enumerate(block):
        if rep is None:
            continue
        found = row_fn(rep, index)
        if found is None:
            continue
        col, sim = found
        keep = sim > 0.0
        rows.append(np.full(int(keep.sum()), r, dtype=np.int64))
        cols.append(col[keep])
        sims.append(sim[keep])
    return _edges(rows, cols, sims)


# -- DP string measures ----------------------------------------------------
#
# Column j of a DP row is stored transposed, as row j of a (width + 1, n)
# matrix over the n present right strings; code -1 pads the shorter strings,
# so padded cells never match and never feed a column at or before len(s2).

class _Strings(NamedTuple):
    codes: np.ndarray    # (width, n) int32 code points, -1 past each end
    lengths: np.ndarray  # (n,) string lengths
    present: np.ndarray  # (n,) right indices of the strings


def _code_matrix(right_reps, stats_left, stats_right) -> _Strings:
    present = [j for j, s in enumerate(right_reps) if s is not None]
    lengths = np.asarray([len(right_reps[j]) for j in present], dtype=np.int64)
    width = int(lengths.max()) if len(present) else 0
    codes = np.full((width, len(present)), -1, dtype=np.int32)
    for k, j in enumerate(present):
        codes[:lengths[k], k] = [ord(c) for c in right_reps[j]]
    return _Strings(codes, lengths, np.asarray(present, dtype=np.int64))


def _at_lengths(table, strings):
    return table[strings.lengths, np.arange(len(strings.lengths))]


def _levenshtein_distances(s1, strings):
    # u[j] = d[j] - j turns the in-row step d[j-1] + 1 into a cumulative min
    codes = strings.codes
    u = np.zeros((codes.shape[0] + 1, codes.shape[1]), dtype=np.int32)
    t = np.empty_like(u)
    for i, c in enumerate(s1, start=1):
        t[0] = i
        np.minimum(u[1:] + 1, u[:-1] - (codes == ord(c)), out=t[1:])
        np.minimum.accumulate(t, axis=0, out=u)
    return _at_lengths(u, strings) + strings.lengths


def _damerau_distances(s1, strings):
    # as levenshtein, plus the transposition d[i-2][j-2] + 1 = u2[j-2] - 1
    codes = strings.codes
    u = np.zeros((codes.shape[0] + 1, codes.shape[1]), dtype=np.int32)
    u2 = u.copy()
    t = np.empty_like(u)
    same_prev = None
    for i, c in enumerate(s1, start=1):
        same = codes == ord(c)
        t[0] = i
        np.minimum(u[1:] + 1, u[:-1] - same, out=t[1:])
        if same_prev is not None:
            np.minimum(t[2:], u2[:-2] - 1, out=t[2:],
                       where=same[:-1] & same_prev[1:])
        u2, u = u, u2
        np.minimum.accumulate(t, axis=0, out=u)
        same_prev = same
    return _at_lengths(u, strings) + strings.lengths


def _needleman_wunsch_scores(s1, strings):
    # match 0, mismatch -1, gap -2 (needleman_wunsch_score's defaults);
    # v[j] = score[j] + 2j turns the in-row gap into a cumulative max
    codes = strings.codes
    v = np.zeros((codes.shape[0] + 1, codes.shape[1]), dtype=np.int32)
    t = np.empty_like(v)
    for i, c in enumerate(s1, start=1):
        t[0] = -2 * i
        np.maximum(v[1:] - 2, v[:-1] + 1 + (codes == ord(c)), out=t[1:])
        np.maximum.accumulate(t, axis=0, out=v)
    return _at_lengths(v, strings) - 2 * strings.lengths


def _subsequence_lengths(s1, strings):
    # on a match, d[i-1][j-1] + 1 is never below d[i-1][j] or d[i][j-1]
    codes = strings.codes
    d = np.zeros((codes.shape[0] + 1, codes.shape[1]), dtype=np.int32)
    t = np.zeros_like(d)
    for c in s1:
        np.copyto(t[1:], np.where(codes == ord(c), d[:-1] + 1, d[1:]))
        np.maximum.accumulate(t, axis=0, out=d)
    return _at_lengths(d, strings)


def _substring_lengths(s1, strings):
    codes = strings.codes
    run = np.zeros((codes.shape[0] + 1, codes.shape[1]), dtype=np.int32)
    best = np.zeros(codes.shape[1], dtype=np.int32)
    for c in s1:
        run[1:] = (run[:-1] + 1) * (codes == ord(c))
        np.maximum(best, run.max(axis=0, initial=0), out=best)
    return best


def _length_scaled(distances, longest):
    return 1.0 - distances / np.maximum(longest, 1)


def _length_share(lengths, longest):
    return np.where(longest > 0, lengths / np.maximum(longest, 1), 1.0)


def _needleman_wunsch_sims(scores, longest):
    worst = -2 * longest
    return np.where(worst < 0, (scores - worst) / np.maximum(-worst, 1), 1.0)


_DP_MEASURES = {
    "levenshtein": (_levenshtein_distances, _length_scaled),
    "damerau_levenshtein": (_damerau_distances, _length_scaled),
    "needleman_wunsch": (_needleman_wunsch_scores, _needleman_wunsch_sims),
    "lc_subsequence": (_subsequence_lengths, _length_share),
    "lc_substring": (_substring_lengths, _length_share),
}


def _dp_row(measure, s1, strings):
    if not len(strings.present):
        return None
    dp, to_similarity = _DP_MEASURES[measure]
    longest = np.maximum(len(s1), strings.lengths)
    return strings.present, to_similarity(dp(s1, strings), longest)


# -- shared-key measures ---------------------------------------------------

class _Postings(NamedTuple):
    keys: dict           # key -> key id, in first-seen order
    starts: np.ndarray   # (keys + 1,) offsets of each key's postings
    ids: np.ndarray      # right ids, grouped by key id
    weights: np.ndarray  # their weights
    sizes: np.ndarray    # (right,) key count per right representation
    low: np.ndarray      # (right,) sum of the negative weights
    high: np.ndarray     # (right,) sum of the positive weights


_GRAPH_KEYS = attrgetter("edges")
_BAG_KEYS = attrgetter("weights")


def _postings(keyed, right_reps, stats_left, stats_right) -> _Postings:
    tables = [{} if rep is None else keyed(rep) for rep in right_reps]
    sizes = np.fromiter(map(len, tables), dtype=np.int64, count=len(tables))
    total = int(sizes.sum())
    keys: dict = {}
    kids = np.fromiter((keys.setdefault(key, len(keys))
                        for table in tables for key in table),
                       dtype=np.int64, count=total)
    weights = np.fromiter((w for table in tables for w in table.values()),
                          dtype=np.float64, count=total)
    ids = np.repeat(np.arange(len(tables)), sizes)
    order = np.argsort(kids, kind="stable")
    starts = np.zeros(len(keys) + 1, dtype=np.int64)
    np.cumsum(np.bincount(kids, minlength=len(keys)), out=starts[1:])
    return _Postings(keys, starts, ids[order], weights[order], sizes,
                     np.bincount(ids, np.minimum(weights, 0.0), len(tables)),
                     np.bincount(ids, np.maximum(weights, 0.0), len(tables)))


def _arcs_postings(keyed, right_reps, stats_left, stats_right) -> _Postings:
    """Bag postings weighted by each gram's arcs term, not by the bag."""
    if stats_left is None or stats_right is None:
        raise ValueError("arcs needs the corpus statistics of both collections")
    index = _postings(keyed, right_reps, stats_left, stats_right)
    # a gram unique to one document per side would make the denominator
    # log(1) = 0; clamping the df product at 2 caps the contribution at 1
    terms = [math.log(2) / math.log(max(stats_left.df(g) * stats_right.df(g),
                                        2))
             for g in index.keys]
    return index._replace(weights=np.repeat(
        np.asarray(terms, dtype=np.float64), np.diff(index.starts)))


class _Join(NamedTuple):
    """The postings of one left representation's keys, in its key order."""

    table: dict            # the left representation: key -> weight
    cand: np.ndarray       # right ids that share a key with it, ascending
    shared: np.ndarray     # (cand,) number of shared keys
    ids: np.ndarray        # per posting: the right id
    left_w: np.ndarray     # per posting: the left key's weight
    right_w: np.ndarray    # per posting: the right weight
    right_count: int

    def total(self, values: np.ndarray) -> np.ndarray:
        """Per-candidate sums of per-posting values, added in key order."""
        return np.bincount(self.ids, values, self.right_count)[self.cand]


def _join_row(combine, keyed, rep, index):
    table = keyed(rep)
    kids, left_w = [], []
    for key, w in table.items():
        kid = index.keys.get(key)
        if kid is not None:
            kids.append(kid)
            left_w.append(w)
    if not kids:
        return None
    kids = np.asarray(kids, dtype=np.int64)
    first = index.starts[kids]
    counts = index.starts[kids + 1] - first
    ends = np.cumsum(counts)
    pos = np.arange(ends[-1]) + np.repeat(first - (ends - counts), counts)
    ids = index.ids[pos]
    shared = np.bincount(ids, minlength=len(index.sizes))
    cand = np.flatnonzero(shared)
    join = _Join(table, cand, shared[cand], ids, np.repeat(left_w, counts),
                 index.weights[pos], len(index.sizes))
    return cand, combine(join, index)


def _graph_sims(measure, join, index):
    sizes = index.sizes[join.cand]
    smaller = np.minimum(sizes, len(join.table))
    containment = join.shared / smaller
    if measure == "containment":
        return containment
    ratios = join.total(np.minimum(join.left_w, join.right_w)
                        / np.maximum(join.left_w, join.right_w))
    value = ratios / np.maximum(sizes, len(join.table))
    if measure == "value":
        return value
    normalized = ratios / smaller
    if measure == "normalized_value":
        return normalized
    return (containment + value + normalized) / 3


def _bag_jaccard_sims(join, index):
    union = len(join.table) + index.sizes[join.cand] - join.shared
    return join.shared / union


def _bag_generalized_jaccard_sims(join, index):
    # a key on one side only adds min(w, 0) above and max(w, 0) below; a
    # shared key replaces its two terms with min(wl, wr) and max(wl, wr)
    left = np.fromiter(join.table.values(), dtype=np.float64,
                       count=len(join.table))
    wl, wr = join.left_w, join.right_w
    numer = (np.minimum(left, 0.0).sum() + index.low[join.cand]
             + join.total(np.minimum(wl, wr) - np.minimum(wl, 0.0)
                          - np.minimum(wr, 0.0)))
    denom = (np.maximum(left, 0.0).sum() + index.high[join.cand]
             + join.total(np.maximum(wl, wr) - np.maximum(wl, 0.0)
                          - np.maximum(wr, 0.0)))
    return np.divide(numer, denom, out=np.zeros_like(numer),
                     where=denom != 0.0)


def _bag_arcs_sims(join, index):
    return join.total(join.right_w)


# -- whole-matrix measures -------------------------------------------------

def _bag_cosine_block(block, right_reps):
    from scipy import sparse

    vocab: dict[str, int] = {}
    for reps in (block, right_reps):
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

    left = matrix(block, len(block))
    right_t = matrix(right_reps, len(right_reps)).T.tocsc()

    chunk = max(1, 2_000_000 // max(len(right_reps), 1))
    rows, cols, sims = [], [], []
    for lo in range(0, len(block), chunk):
        part = (left[lo:lo + chunk] @ right_t).tocoo()
        keep = part.data > 0.0
        rows.append(part.row[keep] + lo)
        cols.append(part.col[keep])
        sims.append(part.data[keep])
    return _edges(rows, cols, sims)


def _vector_block(measure, block, right_reps):
    present_l = [i for i, v in enumerate(block) if v is not None]
    present_r = [j for j, v in enumerate(right_reps) if v is not None]
    if not present_l or not present_r:
        return _edges([], [], [])
    lmat = np.asarray([block[i] for i in present_l], dtype=np.float64)
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
    return _edges([np.asarray(present_l, dtype=np.int64)[li]],
                  [np.asarray(present_r, dtype=np.int64)[rj]],
                  [sims[li, rj]])


# -- per-pair measures -----------------------------------------------------

def _pair_row(similarity, a, right_reps):
    cols, sims = [], []
    for j, b in enumerate(right_reps):
        if b is not None:
            cols.append(j)
            sims.append(similarity(a, b))
    return (np.asarray(cols, dtype=np.int64),
            np.asarray(sims, dtype=np.float64))


def _symmetrized(similarity, a, b):
    """The larger value of both directions, for asymmetric measures."""
    return max(similarity(a, b), similarity(b, a))


def _per_pair(similarity) -> Kernel:
    return Kernel(_as_is, partial(_row_block, partial(_pair_row, similarity)))


def _joined(keyed, combine, prepare=None) -> Kernel:
    return Kernel(partial(prepare or _postings, keyed),
                  partial(_row_block, partial(_join_row, combine, keyed)))


KERNELS: dict[tuple[str, str], Kernel] = {
    **{("raw_string", m): Kernel(_code_matrix,
                                 partial(_row_block, partial(_dp_row, m)))
       for m in _DP_MEASURES},
    **{("raw_string", m): _per_pair(partial(edit_similarity, m))
       for m in ("jaro", "qgrams")},
    **{("raw_string", m): _per_pair(partial(token_set_similarity, m))
       for m in TOKEN_MEASURES if m != "monge_elkan"},
    ("raw_string", "monge_elkan"): _per_pair(
        partial(_symmetrized, partial(token_set_similarity, "monge_elkan"))),
    **{("graph", m): _joined(_GRAPH_KEYS, partial(_graph_sims, m))
       for m in GRAPH_MEASURES},
    ("bag", "jaccard"): _joined(_BAG_KEYS, _bag_jaccard_sims),
    ("bag", "generalized_jaccard"): _joined(_BAG_KEYS,
                                            _bag_generalized_jaccard_sims),
    ("bag", "arcs"): _joined(_BAG_KEYS, _bag_arcs_sims, _arcs_postings),
    ("bag", "cosine"): Kernel(_as_is, _bag_cosine_block, shard=False),
    **{("vector", m): Kernel(_as_is, partial(_vector_block, m), shard=False)
       for m in VECTOR_MEASURES},
}

"""Every row kernel against the per-pair reference function of its measure."""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erbimatch import EntityProfile, ProfileCollection, build_similarity_graph
from erbimatch.simgen import (
    BAG_MEASURES,
    EDIT_MEASURES,
    GRAPH_MEASURES,
    TOKEN_MEASURES,
    VECTOR_MEASURES,
    GramUnit,
    SimFnConfig,
    WeightScheme,
    bag_similarity,
    corpus_stats,
    edit_similarity,
    graph_similarity,
    token_set_similarity,
    vector_similarity,
)
from erbimatch.simgen.builder import _representations
from erbimatch.simgen.kernels import KERNELS

from conftest import assert_same_graph

# ASCII, Latin-1, CJK and two non-BMP characters; few enough that strings
# share characters, grams and tokens, and repeat them
ALPHABET = "ab é中\U0001F600\U0001D538"

# measures whose kernel sums floats in another order than the per-pair
# function may (Python >= 3.12 also compensates the per-pair sums)
SUMMED = {("graph", "value"), ("graph", "normalized_value"),
          ("graph", "overall"), ("bag", "cosine"),
          ("bag", "generalized_jaccard"), ("bag", "arcs"),
          ("vector", "cosine"), ("vector", "euclidean")}


def test_every_measure_has_a_kernel():
    valid = ({("raw_string", m) for m in [*EDIT_MEASURES, *TOKEN_MEASURES]}
             | {("bag", m) for m in BAG_MEASURES}
             | {("graph", m) for m in GRAPH_MEASURES}
             | {("vector", m) for m in VECTOR_MEASURES})
    assert set(KERNELS) == valid


def _reference(cfg, stats_left, stats_right):
    if cfg.model == "raw_string" and cfg.measure in EDIT_MEASURES:
        return partial(edit_similarity, cfg.measure)
    if cfg.model == "raw_string":
        sim = partial(token_set_similarity, cfg.measure)
        if cfg.measure == "monge_elkan":
            return lambda a, b: max(sim(a, b), sim(b, a))
        return sim
    if cfg.model == "bag":
        return lambda a, b: bag_similarity(cfg.measure, a, b, stats_left,
                                           stats_right)
    if cfg.model == "graph":
        return partial(graph_similarity, cfg.measure)
    return partial(vector_similarity, cfg.measure)


def _collection(side, texts):
    return ProfileCollection(
        EntityProfile(f"{side}{i}", {} if text is None else {"t": (text,)})
        for i, text in enumerate(texts))


texts = st.lists(st.none() | st.text(alphabet=ALPHABET, max_size=10),
                 min_size=1, max_size=6)
vectors = st.lists(st.none() | st.lists(st.integers(-2, 2), min_size=3,
                                        max_size=3),
                   min_size=1, max_size=6)


@st.composite
def inputs(draw, model, measure):
    """(cfg, left reps, right reps, left stats, right stats)."""
    unit = draw(st.sampled_from(GramUnit))
    cfg = SimFnConfig(model, measure,
                      scope="t" if model == "raw_string" else None, unit=unit,
                      n=draw(st.integers(1, 3)),
                      scheme=draw(st.sampled_from(WeightScheme)))
    left_texts = draw(texts)
    # near-copies of the left texts, each with two neighbours swapped, so
    # that the DPs meet transpositions as well as matches and edits
    swapped = []
    for text in left_texts:
        if text is not None and len(text) > 1:
            k = draw(st.integers(0, len(text) - 2))
            swapped.append(text[:k] + text[k + 1] + text[k] + text[k + 2:])
    left = _collection("l", left_texts)
    right = _collection("r", draw(texts) + swapped)
    stats = [None, None]
    embeddings = [None, None]
    if model == "bag":
        stats = [corpus_stats(c, cfg.unit, cfg.n) for c in (left, right)]
    if model == "vector":
        embeddings = [{p.id: np.asarray(v, dtype=np.float64)
                       for p, v in zip(c, draw(vectors)) if v is not None}
                      for c in (left, right)]
    return (cfg, _representations(left, cfg, stats[0], embeddings[0]),
            _representations(right, cfg, stats[1], embeddings[1]), *stats)


@pytest.mark.parametrize("key", sorted(KERNELS), ids="-".join)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_kernel_equals_per_pair_reference(key, data):
    cfg, left, right, stats_left, stats_right = data.draw(inputs(*key))
    kernel = KERNELS[key]
    rows, cols, sims = kernel.score(
        left, kernel.prepare(right, stats_left, stats_right))
    assert rows.dtype == cols.dtype == np.int64
    got = dict(zip(zip(rows.tolist(), cols.tolist()), sims.tolist()))
    assert len(got) == len(sims)

    similarity = _reference(cfg, stats_left, stats_right)
    want = {}
    for i, a in enumerate(left):
        for j, b in enumerate(right):
            if a is not None and b is not None:
                s = similarity(a, b)
                if s > 0.0:
                    want[(i, j)] = s
    if key not in SUMMED:
        assert got == want
    else:
        for pair in got.keys() | want.keys():
            assert got.get(pair, 0.0) == pytest.approx(want.get(pair, 0.0),
                                                        rel=0, abs=1e-12)


@pytest.mark.parametrize("cfg", [
    SimFnConfig("raw_string", "damerau_levenshtein", scope="name"),
    SimFnConfig("bag", "jaccard", unit=GramUnit.CHARACTER, n=2,
                scheme=WeightScheme.TFIDF),
    SimFnConfig("graph", "value", unit=GramUnit.CHARACTER, n=3),
    SimFnConfig("vector", "cosine"),
], ids=lambda cfg: f"{cfg.model}-{cfg.measure}")
def test_workers_do_not_change_results(cfg):
    names = ["green apple pie", "banana split", "cherry cake", "", "apple",
             "grape soda", "pie au pomme", "cake"]
    left, right = (ProfileCollection(
        EntityProfile(f"{side}{k}", {"name": (names[i],)})
        for k, i in enumerate(rows))
        for side, rows in (("l", (0, 1, 2, 3, 4, 0, 6)), ("r", (4, 5, 0, 7, 3))))
    rng = np.random.default_rng(7)
    embeddings = tuple({p.id: rng.normal(size=4) for p in coll}
                       for coll in (left, right))
    serial = build_similarity_graph(left, right, cfg, workers=1,
                                    embeddings=embeddings)
    sharded = build_similarity_graph(left, right, cfg, workers=3,
                                     embeddings=embeddings)
    assert serial.edge_count > 0
    assert_same_graph(serial, sharded)

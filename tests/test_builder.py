import math
import random
from collections import Counter

import numpy as np
import pytest

from erbimatch import (
    ConfigurationError,
    EntityProfile,
    ProfileCollection,
    SimFnConfig,
    WeightScheme,
    build_similarity_graph,
)
from erbimatch.simgen import GramUnit, tokenize
from erbimatch.simgen.builder import model_coverage


def collection(*rows, attr="name"):
    return ProfileCollection(
        EntityProfile(f"{attr[0]}{i}", {attr: (value,)})
        for i, value in enumerate(rows)
    )


LEFT = ProfileCollection([
    EntityProfile("l0", {"name": ("green apple pie",)}),
    EntityProfile("l1", {"name": ("banana split",)}),
    EntityProfile("l2", {"name": ("cherry cake",)}),
])
RIGHT = ProfileCollection([
    EntityProfile("r0", {"name": ("green apple pie",)}),
    EntityProfile("r1", {"name": ("banana cake",)}),
    EntityProfile("r2", {"name": ("grape soda",)}),
])


class TestConfigValidation:
    def test_measure_model_compatibility(self):
        with pytest.raises(ConfigurationError):
            SimFnConfig(model="bag", measure="containment")
        with pytest.raises(ConfigurationError):
            SimFnConfig(model="graph", measure="arcs")
        with pytest.raises(ConfigurationError):
            SimFnConfig(model="vector", measure="jaccard")

    def test_raw_string_requires_scope(self):
        with pytest.raises(ConfigurationError, match="schema-based"):
            SimFnConfig(model="raw_string", measure="levenshtein")

    def test_unknown_model(self):
        with pytest.raises(ConfigurationError):
            SimFnConfig(model="transformer", measure="cosine")


class TestBuilder:
    def test_identical_single_values_normalize_to_one(self):
        g = build_similarity_graph(
            [EntityProfile("a", {"x": ("hello",)})],
            [EntityProfile("b", {"x": ("hello",)})],
            SimFnConfig(model="raw_string", measure="jaro", scope="x"),
        )
        assert g.edge_records() == [("a", "b", 1.0)]

    def test_matches_brute_force_oracle(self):
        # independent recomputation: token-unigram TF cosine by hand
        cfg = SimFnConfig(model="bag", measure="cosine", unit=GramUnit.TOKEN,
                          n=1, scheme=WeightScheme.TF)
        g = build_similarity_graph(LEFT, RIGHT, cfg)

        def tf(text):
            tokens = tokenize(text)
            counts = Counter(tokens)
            return {t: c / len(tokens) for t, c in counts.items()}

        def cosine(d1, d2):
            dot = sum(w * d2.get(t, 0.0) for t, w in d1.items())
            n1 = math.sqrt(sum(w * w for w in d1.values()))
            n2 = math.sqrt(sum(w * w for w in d2.values()))
            return dot / (n1 * n2) if n1 and n2 else 0.0

        raw = {}
        for i, lp in enumerate(LEFT):
            for j, rp in enumerate(RIGHT):
                s = cosine(tf(lp.values()[0]), tf(rp.values()[0]))
                if s > 0:
                    raw[(i, j)] = s
        lo, hi = min(raw.values()), max(raw.values())
        expected = {
            pair: 1.0 if hi == lo else (s - lo) / (hi - lo)
            for pair, s in raw.items()
        }
        got = {(l, r): w for l, r, w in g.edge_list()}
        assert got.keys() == expected.keys()
        for pair in expected:
            assert got[pair] == pytest.approx(expected[pair], abs=1e-12)

    def test_fast_path_equals_generic_loop(self):
        # the sparse cosine kernel must agree with the per-pair bag_similarity
        # on the edge set and on every normalized weight
        from erbimatch.simgen.bags import (
            bag_similarity,
            build_bag_model,
            corpus_stats,
        )

        cfg = SimFnConfig(model="bag", measure="cosine",
                          unit=GramUnit.CHARACTER, n=2,
                          scheme=WeightScheme.TFIDF)
        g = build_similarity_graph(LEFT, RIGHT, cfg)

        stats_l = corpus_stats(LEFT, cfg.unit, cfg.n)
        stats_r = corpus_stats(RIGHT, cfg.unit, cfg.n)
        raw = {}
        for i, lp in enumerate(LEFT):
            a = build_bag_model(lp, cfg.unit, cfg.n, cfg.scheme, stats_l)
            for j, rp in enumerate(RIGHT):
                b = build_bag_model(rp, cfg.unit, cfg.n, cfg.scheme, stats_r)
                s = bag_similarity("cosine", a, b, stats_l, stats_r)
                if s > 0:
                    raw[(i, j)] = s
        lo, hi = min(raw.values()), max(raw.values())
        got = {(l, r): w for l, r, w in g.edge_list()}
        assert got.keys() == raw.keys()
        for pair, s in raw.items():
            assert got[pair] == pytest.approx((s - lo) / (hi - lo), abs=1e-12)

    def test_workers_do_not_change_results(self):
        cfg = SimFnConfig(model="raw_string", measure="levenshtein", scope="name")
        serial = build_similarity_graph(LEFT, RIGHT, cfg, workers=1)
        sharded = build_similarity_graph(LEFT, RIGHT, cfg, workers=3)
        assert serial.edge_records() == sharded.edge_records()

    def test_missing_attribute_on_some_profiles(self):
        left = ProfileCollection([
            EntityProfile("a0", {"name": ("alpha",)}),
            EntityProfile("a1", {"other": ("beta",)}),  # no 'name'
        ])
        right = ProfileCollection([EntityProfile("b0", {"name": ("alpha",)})])
        cfg = SimFnConfig(model="raw_string", measure="jaro", scope="name")
        g = build_similarity_graph(left, right, cfg)
        assert {l for l, _, _ in g.edge_list()} == {0}
        assert model_coverage(left, cfg) == 1

    def test_attribute_absent_everywhere_is_an_error(self):
        cfg = SimFnConfig(model="raw_string", measure="jaro", scope="missing")
        with pytest.raises(ConfigurationError, match="missing"):
            build_similarity_graph(LEFT, RIGHT, cfg)

    def test_max_pairs_guard(self):
        cfg = SimFnConfig(model="raw_string", measure="jaro", scope="name")
        with pytest.raises(ConfigurationError, match="max-pairs"):
            build_similarity_graph(LEFT, RIGHT, cfg, max_pairs=8)

    def test_empty_collection_rejected(self):
        cfg = SimFnConfig(model="raw_string", measure="jaro", scope="name")
        with pytest.raises(ConfigurationError):
            build_similarity_graph(ProfileCollection([]), RIGHT, cfg)

    def test_vector_model(self):
        emb_l = {"l0": np.array([1.0, 0.0]), "l1": np.array([0.0, 1.0])}
        emb_r = {"r0": np.array([1.0, 0.0])}
        left = ProfileCollection([EntityProfile("l0"), EntityProfile("l1")])
        right = ProfileCollection([EntityProfile("r0")])
        cfg = SimFnConfig(model="vector", measure="cosine")
        g = build_similarity_graph(left, right, cfg, embeddings=(emb_l, emb_r))
        # only l0-r0 has positive cosine; single edge normalizes to 1.0
        assert g.edge_records() == [("l0", "r0", 1.0)]

    def test_ragged_embeddings_name_side_and_id(self):
        left = ProfileCollection([EntityProfile("l0"), EntityProfile("l1")])
        right = ProfileCollection([EntityProfile("r0")])
        emb_r = {"r0": np.array([1.0, 0.0])}
        cfg = SimFnConfig(model="vector", measure="cosine")
        for emb_l, culprit in (
            ({"l0": np.array([1.0, 0.0]), "l1": np.array([0.0, 1.0, 0.0])},
             "left embedding 'l1'"),
            ({"l0": np.array([1.0, 0.0, 0.0])}, "right embedding 'r0'"),
            ({"l0": np.ones((2, 2))}, "left embedding 'l0'"),
        ):
            with pytest.raises(ConfigurationError, match=culprit):
                build_similarity_graph(left, right, cfg,
                                       embeddings=(emb_l, emb_r))

    def test_vector_model_requires_embeddings(self):
        cfg = SimFnConfig(model="vector", measure="cosine")
        with pytest.raises(ConfigurationError, match="embeddings"):
            build_similarity_graph(LEFT, RIGHT, cfg)

    def test_symmetrized_measures_are_symmetric(self):
        rng = random.Random(3)
        vocab = ["ab", "cd", "ef", "gh", "ij"]
        rows_l = [" ".join(rng.choices(vocab, k=rng.randint(1, 4))) for _ in range(4)]
        rows_r = [" ".join(rng.choices(vocab, k=rng.randint(1, 4))) for _ in range(4)]
        for cfg in (
            SimFnConfig(model="raw_string", measure="overlap", scope="name"),
            SimFnConfig(model="raw_string", measure="monge_elkan", scope="name"),
            SimFnConfig(model="graph", measure="containment",
                        unit=GramUnit.CHARACTER, n=2),
        ):
            g_fwd = build_similarity_graph(collection(*rows_l),
                                           collection(*rows_r), cfg)
            g_rev = build_similarity_graph(collection(*rows_r),
                                           collection(*rows_l), cfg)
            fwd = {(l, r): w for l, r, w in g_fwd.edge_list()}
            rev = {(r, l): w for l, r, w in g_rev.edge_list()}
            assert fwd.keys() == rev.keys()
            for pair, w in fwd.items():
                assert w == pytest.approx(rev[pair])

    def test_containment_and_overlap_are_exactly_symmetric(self):
        # why the builder scores them in one direction only
        from erbimatch.simgen import graph_similarity, token_set_similarity
        from erbimatch.simgen.ngram_graphs import value_ngram_graph

        rng = random.Random(5)
        vocab = ["ab", "cd", "abc", "dab", "e"]
        for _ in range(300):
            a, b = (" ".join(rng.choices(vocab, k=rng.randint(1, 6)))
                    for _ in range(2))
            ta, tb = Counter(tokenize(a)), Counter(tokenize(b))
            assert (token_set_similarity("overlap", ta, tb)
                    == token_set_similarity("overlap", tb, ta))
            ga, gb = (value_ngram_graph(v, GramUnit.CHARACTER, 2) for v in (a, b))
            assert (graph_similarity("containment", ga, gb)
                    == graph_similarity("containment", gb, ga))

    def test_all_weights_in_unit_interval(self):
        cfg = SimFnConfig(model="bag", measure="arcs", unit=GramUnit.CHARACTER,
                          n=2, scheme=WeightScheme.TFIDF)
        g = build_similarity_graph(LEFT, RIGHT, cfg)
        if g.edge_count:
            assert g.weights.min() >= 0.0 and g.weights.max() <= 1.0

import random
import zlib

import pytest

from erbimatch import (
    BahConfig,
    Basis,
    DataFormatError,
    SimilarityGraph,
    connected_components,
    match_bah,
    match_bmc,
    match_cnc,
    match_exc,
    match_krc,
    match_rca,
    match_rsr,
    match_umc,
    prune_edges,
    read_edge_list,
    read_matching,
    write_edge_list,
    write_matching,
)
from erbimatch.graph import Side
from erbimatch.matchers import ALGORITHMS, get_matcher, rca_passes

from conftest import assert_same_graph, make_random_graph
from oracles import (
    best_match_reference,
    best_matching_value,
    kiraly_reference,
    mutual_best_pairs,
    rippling_reference,
)

FIG_D_PAIRS = {("A5", "B1"), ("A2", "B2"), ("A3", "B4")}
OPTIMAL_PAIRS = {("A1", "B1"), ("A5", "B3"), ("A2", "B2"), ("A3", "B4")}


def id_pairs(matching, graph):
    return matching.id_pairs(graph)


class TestCnc:
    def test_reference_trace(self, g_ref):
        assert id_pairs(match_cnc(g_ref, 0.5), g_ref) == {("A2", "B2"), ("A3", "B4")}

    def test_high_threshold_empty(self, g_ref):
        assert len(match_cnc(g_ref, 0.95)) == 0

    def test_isolated_pair(self):
        g = SimilarityGraph(1, 1, [(0, 0, 0.9)])
        assert match_cnc(g, 0.5).pairs == {(0, 0)}

    def test_agrees_with_component_construction(self):
        rng = random.Random(202)
        for _ in range(40):
            g = make_random_graph(rng, max_side=10)
            t = rng.choice([0.0, 0.2, 0.5, 0.8])
            pruned = prune_edges(g, t)
            expected = set()
            for comp in connected_components(pruned):
                if len(comp) == 2:
                    sides = {n.side for n in comp}
                    if sides == {Side.LEFT, Side.RIGHT}:
                        l = next(n.index for n in comp if n.side is Side.LEFT)
                        r = next(n.index for n in comp if n.side is Side.RIGHT)
                        expected.add((l, r))
            assert match_cnc(g, t).pairs == expected


class TestRsr:
    def test_reference_trace(self, g_ref):
        assert id_pairs(match_rsr(g_ref, 0.5), g_ref) == FIG_D_PAIRS

    def test_edgeless(self):
        assert len(match_rsr(SimilarityGraph(3, 3), 0.4)) == 0

    @pytest.mark.parametrize("grid", [None, 5])
    def test_matches_straight_line_interpreter(self, grid):
        rng = random.Random(99 if grid else 98)
        for _ in range(120):
            g = make_random_graph(rng, max_side=6, density=0.5, weight_grid=grid)
            t = rng.choice([0.0, 0.3, 0.5])
            got = match_rsr(g, t).pairs
            want = rippling_reference(g.left_count, g.right_count,
                                      g.edge_list(), t)
            assert got == want


class TestRca:
    def test_reference_trace_and_value(self, g_ref):
        m = match_rca(g_ref, 0.5)
        assert id_pairs(m, g_ref) == OPTIMAL_PAIRS
        assert m.total_weight(g_ref) == pytest.approx(2.70)

    def test_single_edge_below_threshold_filtered(self):
        g = SimilarityGraph(1, 1, [(0, 0, 0.3)])
        assert len(match_rca(g, 0.5)) == 0

    def test_value_never_exceeds_optimum(self):
        rng = random.Random(31)
        for _ in range(40):
            g = make_random_graph(rng, max_side=5, density=0.7)
            opt = best_matching_value(g.edge_list())
            assert match_rca(g, 0.0).total_weight(g) <= opt + 1e-9

    def test_returns_better_pass(self):
        rng = random.Random(32)
        for _ in range(40):
            g = make_random_graph(rng, max_side=6, density=0.6)
            pairs_r, value_r, pairs_c, value_c = rca_passes(g)
            chosen = match_rca(g, 0.0)
            assert chosen.total_weight(g) == pytest.approx(max(value_r, value_c))
            # pairs of the winning pass survive a zero threshold untouched
            winning = pairs_r if value_r > value_c else pairs_c
            assert chosen.pairs == set(winning)


    def test_value_tie_returns_column_pass(self):
        g = SimilarityGraph(3, 3, [(0, 1, 0.5), (1, 0, 0.5), (1, 1, 1.0),
                                   (2, 0, 1.0), (2, 2, 1.0)])
        pairs_r, value_r, pairs_c, value_c = rca_passes(g)
        assert value_r == value_c == 2.0
        assert set(pairs_r) == {(0, 1), (1, 0), (2, 2)}
        assert match_rca(g, 0.0).pairs == set(pairs_c) == {(2, 0), (1, 1)}


class TestBah:
    def test_deterministic_under_seed(self):
        rng = random.Random(77)
        g = make_random_graph(rng, max_side=4, density=0.8)
        cfg = BahConfig(max_moves=500, rng_seed=13)
        assert match_bah(g, 0.2, cfg) == match_bah(g, 0.2, cfg)

    def test_zero_moves_returns_filtered_initial_assignment(self, g_ref):
        m = match_bah(g_ref, 0.5, BahConfig(max_moves=0))
        # aligned start pairs A1-B1 .. A4-B4; only A1-B1 and A2-B2 are real
        # edges above the threshold
        assert id_pairs(m, g_ref) == {("A1", "B1"), ("A2", "B2")}

    def test_statistical_quality_on_reference(self, g_ref):
        # frozen regression bound: the 2.70 optimum is found from almost any
        # seed within 10k moves; require value in [2.5, 2.70] for >= 95/100
        hits = 0
        for seed in range(100):
            m = match_bah(g_ref, 0.5, BahConfig(max_moves=10_000, rng_seed=seed))
            value = m.total_weight(g_ref)
            assert value <= 2.70 + 1e-9
            if value >= 2.5:
                hits += 1
        assert hits >= 95

    def test_accepted_values_non_decreasing(self):
        rng = random.Random(5150)
        for _ in range(10):
            g = make_random_graph(rng, max_side=6, density=0.7)
            trace: list[float] = []
            match_bah(g, 0.1, BahConfig(max_moves=400, rng_seed=1), value_trace=trace)
            assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))

    def test_unset_options_keep_config_defaults(self, monkeypatch):
        import erbimatch.matchers as matchers

        seen = []
        monkeypatch.setattr(matchers, "match_bah",
                            lambda g, t, cfg: seen.append(cfg))
        get_matcher("bah", max_moves=5)(None, 0.5)
        get_matcher("bah", rng_seed=7, time_limit=2.0)(None, 0.5)
        assert seen == [BahConfig(max_moves=5),
                        BahConfig(rng_seed=7, time_limit=2.0)]
        with pytest.raises(ValueError, match="unexpected matcher options"):
            get_matcher("bah", max_moves=5, seed=1)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BahConfig(max_moves=-1)
        with pytest.raises(ValueError):
            BahConfig(time_limit=0)


class TestBmc:
    def test_right_basis_trace(self, g_ref):
        assert id_pairs(match_bmc(g_ref, 0.5, Basis.RIGHT), g_ref) == FIG_D_PAIRS

    def test_left_basis_trace(self, g_ref):
        assert id_pairs(match_bmc(g_ref, 0.5, Basis.LEFT), g_ref) == {
            ("A1", "B1"), ("A2", "B2"), ("A3", "B4"), ("A5", "B3"),
        }

    def test_empty_graph(self):
        assert len(match_bmc(SimilarityGraph(2, 2), 0.5)) == 0

    def test_auto_uses_smaller_side(self, g_ref):
        # right side is smaller (4 < 5), so AUTO must equal RIGHT here
        assert match_bmc(g_ref, 0.5, Basis.AUTO) == match_bmc(g_ref, 0.5, Basis.RIGHT)

    @pytest.mark.parametrize("grid", [None, 4])
    def test_matches_straight_line_reference(self, grid):
        rng = random.Random(61 if grid else 60)
        for _ in range(100):
            g = make_random_graph(rng, max_side=7, density=0.5,
                                  weight_grid=grid, spare=2)
            for t in (0.0, 0.3, 0.5):
                for basis in (Basis.LEFT, Basis.RIGHT):
                    want = best_match_reference(
                        g.left_count, g.right_count, g.edge_list(), t,
                        basis is Basis.LEFT)
                    assert match_bmc(g, t, basis).pairs == want

    @pytest.mark.parametrize("grid", [None, 4])
    def test_basis_pass_is_rca_pass(self, grid):
        # weights are >= 0, so t = 0 prunes nothing and bmc from each basis
        # is the rca pass from that side
        rng = random.Random(63 if grid else 62)
        for _ in range(60):
            g = make_random_graph(rng, max_side=8, density=0.5,
                                  weight_grid=grid, spare=2)
            pairs_r, _, pairs_c, _ = rca_passes(g)
            assert set(pairs_r) == match_bmc(g, 0.0, Basis.LEFT).pairs
            assert set(pairs_c) == match_bmc(g, 0.0, Basis.RIGHT).pairs


class TestExc:
    def test_reference_trace(self, g_ref):
        assert id_pairs(match_exc(g_ref, 0.5), g_ref) == FIG_D_PAIRS

    def test_unreciprocated_best_is_dropped(self):
        # both left nodes prefer right 0; only the reciprocated one matches
        g = SimilarityGraph(2, 1, [(0, 0, 0.5), (1, 0, 0.9)])
        assert match_exc(g, 0.4).pairs == {(1, 0)}

    def test_equals_mutual_best_oracle(self):
        rng = random.Random(88)
        for _ in range(60):
            g = make_random_graph(rng, max_side=6, density=0.6)
            t = rng.choice([0.0, 0.4])
            assert match_exc(g, t).pairs == mutual_best_pairs(g.edge_list(), t)

    def test_relation_to_bmc(self):
        # For every mutual-best pair (i, j): the right node j is matched in
        # BMC(left) -- by i, or by a lower-index left node that claimed it
        # first -- and symmetrically for BMC(right).  (Plain containment of
        # EXC in the BMC outputs does not hold: an earlier basis node can
        # snipe j away from i.)
        rng = random.Random(89)
        for _ in range(60):
            g = make_random_graph(rng, max_side=6, density=0.6)
            exc = match_exc(g, 0.0)
            bmc_l = match_bmc(g, 0.0, Basis.LEFT)
            bmc_r = match_bmc(g, 0.0, Basis.RIGHT)
            for i, j in exc.pairs:
                owner = bmc_l.right_partner(j)
                assert owner is not None and owner <= i
                owner = bmc_r.left_partner(i)
                assert owner is not None and owner <= j


class TestKrc:
    def test_reference_trace(self, g_ref):
        assert id_pairs(match_krc(g_ref, 0.5), g_ref) == FIG_D_PAIRS

    def test_distinct_partners_all_matched(self):
        rng = random.Random(4)
        for _ in range(20):
            n = rng.randint(1, 8)
            perm = list(range(n))
            rng.shuffle(perm)
            g = SimilarityGraph(n, n, [(i, perm[i], 0.5 + 0.4 * rng.random())
                                       for i in range(n)])
            assert match_krc(g, 0.3).pairs == {(i, perm[i]) for i in range(n)}

    @pytest.mark.parametrize("grid", [None, 4])
    def test_matches_straight_line_reference(self, grid):
        rng = random.Random(43 if grid else 42)
        for _ in range(100):
            g = make_random_graph(rng, max_side=7, density=0.5,
                                  weight_grid=grid, spare=2)
            for t in (0.0, 0.3, 0.5):
                assert match_krc(g, t).pairs == kiraly_reference(
                    g.left_count, g.edge_list(), t)

    def test_maximal_no_free_cross_edge(self):
        rng = random.Random(41)
        for _ in range(60):
            g = make_random_graph(rng, max_side=5, density=0.6)
            t = rng.choice([0.0, 0.4])
            m = match_krc(g, t)
            for l, r, w in g.edge_list():
                if w >= t:
                    assert m.is_left_matched(l) or m.is_right_matched(r)


class TestUmc:
    def test_reference_trace(self, g_ref):
        assert id_pairs(match_umc(g_ref, 0.5), g_ref) == FIG_D_PAIRS

    def test_single_edge(self):
        g = SimilarityGraph(1, 1, [(0, 0, 0.6)])
        assert match_umc(g, 0.5).pairs == {(0, 0)}

    def test_half_approximation_bound(self):
        rng = random.Random(55)
        for _ in range(40):
            g = make_random_graph(rng, max_side=8, density=0.4)
            t = rng.choice([0.0, 0.3])
            kept = [(l, r, w) for l, r, w in g.edge_list() if w >= t]
            opt = best_matching_value(kept)
            assert match_umc(g, t).total_weight(g) >= opt / 2 - 1e-9


class TestSharedContracts:
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_output_is_valid_and_above_threshold(self, name):
        rng = random.Random(zlib.crc32(name.encode()))
        matcher = get_matcher(name, **({"max_moves": 300} if name == "bah" else {}))
        for _ in range(30):
            g = make_random_graph(rng, max_side=8, density=0.5, weight_grid=4)
            t = rng.choice([0.0, 0.25, 0.5, 0.75])
            m = matcher(g, t)  # Matching() constructor enforces uniqueness
            lookup = g.pair_weights()
            for pair in m.pairs:
                assert lookup[pair] >= t

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_deterministic(self, name):
        rng = random.Random(1234)
        matcher = get_matcher(name, **({"max_moves": 300} if name == "bah" else {}))
        for _ in range(5):
            g = make_random_graph(rng, max_side=7, density=0.5, weight_grid=3)
            assert matcher(g, 0.3) == matcher(g, 0.3)

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_threshold_validated(self, name, g_ref):
        with pytest.raises(ValueError):
            get_matcher(name)(g_ref, 1.5)

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            get_matcher("hungarian")


class TestMatchingFile:
    def test_round_trip_with_header(self, g_ref, tmp_path):
        m = match_umc(g_ref, 0.5)
        path = tmp_path / "matching.tsv"
        write_matching(m, g_ref, path, algorithm="umc", threshold=0.5,
                       config="{}", wall_time=0.01)
        records, header = read_matching(path)
        assert {(l, r) for l, r, _ in records} == FIG_D_PAIRS
        assert header["algorithm"] == "umc"
        assert float(header["threshold"]) == 0.5
        assert "wall_time_s" in header

    def test_non_numeric_weight_is_a_format_error(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("# algorithm: umc\nA1\tB1\t0.5\nA2\tB2\theavy\n",
                        encoding="utf-8")
        with pytest.raises(DataFormatError,
                           match=r"m\.tsv: line 3: bad weight 'heavy'"):
            read_matching(path)

    def test_ids_round_trip_verbatim(self, tmp_path):
        g = SimilarityGraph(2, 2, [(0, 1, 0.5), (1, 0, 0.25)],
                            left_ids=("", " a "), right_ids=("#b", "c "))
        path = tmp_path / "m.tsv.gz"
        write_matching(match_umc(g, 0.0), g, path, algorithm="umc",
                       threshold=0.0)
        records, header = read_matching(path)
        assert records == [("", "c ", 0.5), (" a ", "#b", 0.25)]
        assert header == {"algorithm": "umc", "threshold": "0.0", "config": ""}


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_edge_list_round_trip_keeps_every_matching(tmp_path, name):
    """Writing and reading a tied graph with isolated nodes, plain or
    gzipped, gives the same graph, so every matcher's id pairs agree."""
    rng = random.Random(29)
    matcher = get_matcher(name, **({"max_moves": 500} if name == "bah" else {}))
    for _ in range(60):
        g = make_random_graph(rng, max_side=12, density=0.4, weight_grid=4,
                              spare=2)
        for path in (tmp_path / "g.tsv", tmp_path / "g.tsv.gz"):
            write_edge_list(g, path)
            back = read_edge_list(path)
            assert_same_graph(back, g)
            for t in (0.0, 0.3):
                assert matcher(back, t).id_pairs(back) == matcher(g, t).id_pairs(g)

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erbimatch import (
    DataFormatError,
    EmptyGraphError,
    Matching,
    NodeRef,
    Side,
    SimilarityGraph,
    connected_components,
    min_max_normalize,
    prune_edges,
    read_edge_list,
    write_edge_list,
)

from conftest import assert_same_graph, make_random_graph
from oracles import canonical_edge_order


@st.composite
def edge_sets(draw):
    """Partition sizes with spare (isolated) nodes, and edges on a few
    weight levels so that ties are common."""
    n1, n2 = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    pairs = draw(st.dictionaries(
        st.tuples(st.integers(0, n1 - 1), st.integers(0, n2 - 1)),
        st.sampled_from([0.1, 0.5, 0.5000000000000001, 1.0]),
        max_size=n1 * n2))
    edges = [(l, r, w) for (l, r), w in pairs.items()]
    return n1 + draw(st.integers(0, 2)), n2 + draw(st.integers(0, 2)), edges


def build(constructor, n1, n2, edges):
    if constructor == "tuples":
        return SimilarityGraph(n1, n2, edges)
    columns = [np.array([e[k] for e in edges]) for k in range(3)]
    return SimilarityGraph.from_arrays(n1, n2, *columns)


BAD_EDGES = {
    "duplicate": ([(0, 1, 0.3), (0, 1, 0.4)], "duplicate"),
    "left-out-of-range": ([(2, 0, 0.5)], "left endpoint"),
    "right-out-of-range": ([(0, 2, 0.5)], "right endpoint"),
    "negative-index": ([(0, -1, 0.5)], "right endpoint"),
    "nan": ([(0, 0, 0.5), (1, 1, float("nan"))], "finite"),
    "inf": ([(0, 0, float("inf"))], "finite"),
}


def refs(*specs):
    return {NodeRef(Side.LEFT if s == "L" else Side.RIGHT, i) for s, i in specs}


class TestConstruction:
    def test_canonical_edge_order(self):
        g = SimilarityGraph(3, 3, [(2, 1, 0.5), (0, 0, 0.9), (1, 2, 0.5)])
        assert g.edge_list() == [(0, 0, 0.9), (1, 2, 0.5), (2, 1, 0.5)]

    @pytest.mark.parametrize("constructor", ["tuples", "arrays"])
    @given(case=edge_sets())
    @settings(max_examples=150, deadline=None)
    def test_constructors_match_oracle_order(self, constructor, case):
        n1, n2, edges = case
        g = build(constructor, n1, n2, edges)
        assert g.edge_list() == canonical_edge_order(edges)
        assert (g.left_count, g.right_count) == (n1, n2)

    @pytest.mark.parametrize("constructor", ["tuples", "arrays"])
    @pytest.mark.parametrize("edges, message", BAD_EDGES.values(),
                             ids=list(BAD_EDGES))
    def test_bad_edges_rejected(self, constructor, edges, message):
        with pytest.raises(ValueError, match=message):
            build(constructor, 2, 2, edges)

    def test_duplicate_edges_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SimilarityGraph(2, 2, [(0, 1, 0.3), (0, 1, 0.4)])

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            SimilarityGraph(2, 2, [(2, 0, 0.5)])
        with pytest.raises(ValueError):
            SimilarityGraph(2, 2, [(0, 2, 0.5)])

    def test_ids_default_and_custom(self):
        g = SimilarityGraph(2, 1, [(0, 0, 0.5)])
        assert g.left_ids == ("L0", "L1") and g.right_ids == ("R0",)
        g2 = SimilarityGraph(1, 1, [(0, 0, 1.0)], left_ids=["x"], right_ids=["y"])
        assert g2.edge_records() == [("x", "y", 1.0)]

    def test_immutable_arrays(self):
        g = SimilarityGraph(1, 1, [(0, 0, 0.5)])
        with pytest.raises(ValueError):
            g.weights[0] = 0.9

    def test_adjacency_order_is_deterministic(self):
        # equal weights fall back to ascending (left, right)
        g = SimilarityGraph(2, 3, [(0, 2, 0.7), (0, 0, 0.7), (0, 1, 0.9), (1, 1, 0.7)])
        nbrs, ws = g.neighbors(Side.LEFT, 0)
        assert nbrs.tolist() == [1, 0, 2]
        assert ws.tolist() == [0.9, 0.7, 0.7]
        nbrs, _ = g.neighbors(Side.RIGHT, 1)
        assert nbrs.tolist() == [0, 1]


class TestPrune:
    def test_reference_graph_keeps_all_at_half(self, g_ref):
        assert prune_edges(g_ref, 0.5).edge_count == 5

    def test_reference_graph_at_065(self, g_ref):
        got = {(g_ref.left_ids[l], g_ref.right_ids[r], w)
               for l, r, w in prune_edges(g_ref, 0.65).edge_list()}
        assert got == {("A5", "B1", 0.90), ("A2", "B2", 0.80), ("A3", "B4", 0.70)}

    def test_zero_threshold_is_identity(self, g_ref):
        assert prune_edges(g_ref, 0.0).edge_list() == g_ref.edge_list()

    def test_threshold_validation(self, g_ref):
        with pytest.raises(ValueError):
            prune_edges(g_ref, 1.5)
        with pytest.raises(ValueError):
            prune_edges(g_ref, -0.1)

    def test_boundary_edges_kept(self):
        g = SimilarityGraph(1, 2, [(0, 0, 0.5), (0, 1, 0.4999)])
        assert prune_edges(g, 0.5).edge_list() == [(0, 0, 0.5)]

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_threshold(self, seed):
        g = make_random_graph(random.Random(seed), max_side=8)
        t1, t2 = sorted((random.Random(seed + 1).random(),
                         random.Random(seed + 2).random()))
        e1 = set(prune_edges(g, t1).edge_list())
        e2 = set(prune_edges(g, t2).edge_list())
        assert e2 <= e1

    @given(case=edge_sets(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_keeps_exactly_the_edges_at_or_above(self, case, data):
        # tied weight levels, and thresholds that equal the graph's own
        # weights as well as ones between them
        n1, n2, edges = case
        g = SimilarityGraph(n1, n2, edges,
                            left_ids=[f"a{i}" for i in range(n1)])
        t = data.draw(st.sampled_from(
            [0.0, 0.05, 0.3, 0.5, 1.0] + [w for _, _, w in edges]))
        pruned = g.prune(t)
        assert pruned.edge_list() == [e for e in g.edge_list() if e[2] >= t]
        assert (pruned.left_count, pruned.right_count) == (n1, n2)
        assert (pruned.left_ids, pruned.right_ids) == (g.left_ids, g.right_ids)


class TestNormalize:
    def test_affine_endpoints(self):
        g = SimilarityGraph(3, 1, [(0, 0, 0.2), (1, 0, 0.6), (2, 0, 1.0)])
        assert min_max_normalize(g).weights.tolist() == pytest.approx([1.0, 0.5, 0.0])

    def test_degenerate_all_equal(self):
        g = SimilarityGraph(2, 1, [(0, 0, 0.7), (1, 0, 0.7)])
        assert min_max_normalize(g).weights.tolist() == [1.0, 1.0]

    def test_interior_value(self):
        g = SimilarityGraph(3, 1, [(0, 0, 0.1), (1, 0, 0.4), (2, 0, 0.7)])
        assert np.allclose(sorted(min_max_normalize(g).weights), [0.0, 0.5, 1.0])

    def test_rounding_ties_are_re_sorted(self):
        # the two middle weights differ in the last bit and normalize to the
        # same value, so the (left, right) tie-break reorders them
        w = [0.00034648000551222515, 8.959681133457559e-05,
             8.959681133457557e-05, 3.707167516575627e-06]
        g = SimilarityGraph(2, 3, [(0, 0, w[0]), (1, 1, w[1]),
                                   (0, 1, w[2]), (1, 2, w[3])])
        assert [(l, r) for l, r, _ in g.edge_list()] == \
            [(0, 0), (1, 1), (0, 1), (1, 2)]
        norm = g.normalized()
        assert norm.weights.tolist()[1:3] == [0.2505730743434521] * 2
        assert [(l, r) for l, r, _ in norm.edge_list()] == \
            [(0, 0), (0, 1), (1, 1), (1, 2)]

    def test_empty_graph_rejected(self):
        with pytest.raises(EmptyGraphError):
            min_max_normalize(SimilarityGraph(2, 2))

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_idempotent(self, seed):
        g = make_random_graph(random.Random(seed), max_side=8)
        if g.edge_count == 0:
            return
        once = min_max_normalize(g)
        twice = min_max_normalize(once)
        assert np.allclose(once.weights, twice.weights, atol=1e-12)
        assert once.weights.min() >= 0.0 and once.weights.max() <= 1.0


class TestConnectedComponents:
    def test_reference_graph_pruned(self, g_ref):
        comps = connected_components(prune_edges(g_ref, 0.5))
        expected = [
            refs(("L", 0), ("R", 0), ("L", 4), ("R", 2)),  # A1,B1,A5,B3
            refs(("L", 1), ("R", 1)),                       # A2,B2
            refs(("L", 2), ("R", 3)),                       # A3,B4
            refs(("L", 3),),                                # A4
        ]
        assert sorted(map(frozenset, comps), key=lambda c: min(c).sort_key()) == \
            sorted(map(frozenset, expected), key=lambda c: min(c).sort_key())

    def test_edgeless_graph_is_all_singletons(self):
        comps = connected_components(SimilarityGraph(3, 2))
        assert len(comps) == 5
        assert all(len(c) == 1 for c in comps)

    def test_single_edge(self):
        comps = connected_components(SimilarityGraph(1, 1, [(0, 0, 0.9)]))
        assert comps == [refs(("L", 0), ("R", 0))]

    def test_partition_covers_all_nodes(self):
        rng = random.Random(5)
        for _ in range(25):
            g = make_random_graph(rng, max_side=10)
            comps = connected_components(g)
            seen = [n for c in comps for n in c]
            assert len(seen) == g.node_count
            assert len(set(seen)) == g.node_count

    def test_component_count_matches_union_find_oracle(self):
        from oracles import union_find_component_count

        rng = random.Random(11)
        for _ in range(25):
            g = make_random_graph(rng, max_side=10)
            offset = g.left_count
            count, _ = union_find_component_count(
                g.node_count,
                [(l, r + offset) for l, r, _ in g.edge_list()],
            )
            assert len(connected_components(g)) == count


class TestMatching:
    def test_unique_mapping_enforced(self):
        with pytest.raises(ValueError):
            Matching([(0, 0), (0, 1)])
        with pytest.raises(ValueError):
            Matching([(0, 0), (1, 0)])

    def test_total_weight_recomputable(self, g_ref):
        m = Matching([(4, 0), (1, 1)])  # A5-B1, A2-B2
        assert m.total_weight(g_ref) == pytest.approx(1.7)

    def test_total_weight_counts_non_edges_as_zero(self):
        g = SimilarityGraph(3, 3, [(0, 0, 0.5), (1, 2, 0.25), (2, 1, 0.75)])
        assert Matching([(0, 0), (1, 2), (2, 1)]).total_weight(g) == 1.5
        assert Matching([(0, 0), (1, 1), (2, 2)]).total_weight(g) == 0.5
        assert g._weights_of([(2, 1), (0, 1), (1, 2)]) == [0.75, 0.0, 0.25]
        assert g._weights_of([]) == []
        for outside in ([(-1, 2)], [(0, -1)], [(3, 0)], [(0, 3)]):
            with pytest.raises(ValueError, match="outside the graph"):
                Matching(outside).total_weight(g)

    def test_weights_of_equals_pair_weights(self):
        rng = random.Random(17)
        for _ in range(50):
            g = make_random_graph(rng, max_side=8, density=0.5, weight_grid=3,
                                  spare=2)
            lefts = rng.sample(range(g.left_count), g.left_count)
            rights = rng.sample(range(g.right_count), g.right_count)
            pairs = list(zip(lefts, rights))
            lookup = g.pair_weights()
            assert g._weights_of(pairs) == [lookup.get(p, 0.0) for p in pairs]

    def test_partner_lookup(self):
        m = Matching([(0, 3), (2, 1)])
        assert m.left_partner(0) == 3
        assert m.right_partner(1) == 2
        assert m.left_partner(5) is None
        assert m.is_left_matched(2) and not m.is_right_matched(0)


class TestEdgeListIO:
    def test_round_trip(self, g_ref, tmp_path):
        path = tmp_path / "graph.tsv"
        write_edge_list(g_ref, path, comments=["demo graph"])
        back = read_edge_list(path)
        # the node tables travel in the header, so the isolated A4 survives
        assert_same_graph(back, g_ref)
        assert back.left_count == 5

    def test_gzip_round_trip(self, g_ref, tmp_path):
        path = tmp_path / "graph.tsv.gz"
        write_edge_list(g_ref, path)
        assert_same_graph(read_edge_list(path), g_ref)

    @pytest.mark.parametrize("left_ids, right_ids, edges", [
        ((), ("b", "c"), []),
        (("", " a", "a ", " ", " #d"), ("", "#b", " c "),
         [(0, 0, 0.5), (1, 2, 0.25), (3, 1, 0.5), (2, 0, 1.0), (4, 1, 0.75)]),
        (("é\u00a0x", "[1]", "\"q\""), ("r: s", "t\\u"), [(2, 1, 1e-300)]),
    ], ids=["empty-partition", "blank-and-spaced-ids", "escapes"])
    @pytest.mark.parametrize("name", ["g.tsv", "g.tsv.gz"])
    def test_node_tables_round_trip_exactly(self, tmp_path, name, left_ids,
                                            right_ids, edges):
        g = SimilarityGraph(len(left_ids), len(right_ids), edges,
                            left_ids=left_ids, right_ids=right_ids)
        write_edge_list(g, tmp_path / name)
        assert_same_graph(read_edge_list(tmp_path / name), g)

    def test_file_without_tables_falls_back_with_a_warning(self, tmp_path,
                                                           caplog):
        path = tmp_path / "old.tsv"
        path.write_text("# written by hand\n\nA2\tB1\t0.5\nA1\tB1\t0.9\n"
                        "A1\tB2\t0.5\n", encoding="utf-8")
        with caplog.at_level("WARNING", logger="erbimatch.graph"):
            g = read_edge_list(path)
        assert "left_ids" in caplog.text and "right_ids" in caplog.text
        # first appearance in the file, not in the canonical order
        assert g.left_ids == ("A2", "A1") and g.right_ids == ("B1", "B2")
        assert g.edge_records() == [("A1", "B1", 0.9), ("A2", "B1", 0.5),
                                    ("A1", "B2", 0.5)]

    def test_id_missing_from_the_tables_is_a_format_error(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text('# left_ids: ["A1"]\n# right_ids: ["B1"]\n'
                        "A1\tB1\t0.5\nA1\tB2\t0.4\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=r"line 4: id 'B2'"):
            read_edge_list(path)

    @pytest.mark.parametrize("table", ['["A1", "A1"]', "A1 A2", '[1, 2]',
                                       '{"A1": 0}'])
    def test_bad_node_table_is_a_format_error(self, tmp_path, table):
        path = tmp_path / "bad.tsv"
        path.write_text(f'# left_ids: {table}\n# right_ids: ["B1"]\n',
                        encoding="utf-8")
        with pytest.raises(DataFormatError, match="left_ids"):
            read_edge_list(path)

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tb\t0.5\na\tb\n", encoding="utf-8")
        with pytest.raises(Exception, match="line 2"):
            read_edge_list(path)

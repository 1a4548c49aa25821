import gzip
import json

import pytest

from erbimatch import DataFormatError, SimilarityGraph
from erbimatch.evaluation import GroundTruth, threshold_sweep
from erbimatch.ingest import (
    DatasetBundle,
    detect_duplicates,
    quality_filter,
    read_embeddings,
    read_ground_truth,
    read_profiles,
    write_ground_truth,
    write_profiles,
)
from erbimatch.profiles import EntityProfile, ProfileCollection
from erbimatch.reference import REFERENCE_TRUE_PAIRS, reference_graph


class TestReadProfilesCsv:
    def test_two_rows_one_attribute(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("id,name\n1,alice\n2,bob\n", encoding="utf-8")
        coll = read_profiles(path)
        assert len(coll) == 2
        assert coll.by_id["1"].attributes == {"name": ("alice",)}

    def test_empty_cells_are_missing_not_empty_strings(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("id,name,phone\n1,alice,\n", encoding="utf-8")
        profile = read_profiles(path)[0]
        assert "phone" not in profile.attributes

    def test_quoted_fields(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text('id,name\n1,"smith, alice"\n', encoding="utf-8")
        assert read_profiles(path)[0].values("name") == ["smith, alice"]

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("id,name\n1,a\n1,b\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="duplicate"):
            read_profiles(path)

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("id,name\n1,a\n2,b,extra\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="line 3"):
            read_profiles(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DataFormatError, match="header"):
            read_profiles(path)

    def test_gzip_autodetect(self, tmp_path):
        path = tmp_path / "c.csv.gz"
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,name\n1,alice\n")
        assert len(read_profiles(path)) == 1


class TestReadProfilesJsonl:
    def test_multi_valued_attribute_preserved(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text(
            json.dumps({"id": "1", "attrs": {"author": ["knuth", "dijkstra"]}})
            + "\n", encoding="utf-8")
        profile = read_profiles(path)[0]
        assert profile.values("author") == ["knuth", "dijkstra"]

    def test_bare_string_accepted(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text('{"id": "1", "attrs": {"name": "alice"}}\n',
                        encoding="utf-8")
        assert read_profiles(path)[0].values("name") == ["alice"]

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text('{"id": "1"}\n{broken\n', encoding="utf-8")
        with pytest.raises(DataFormatError, match="line 2"):
            read_profiles(path)


class TestWriteProfiles:
    def test_csv_round_trip(self, tmp_path):
        coll = ProfileCollection([
            EntityProfile("1", {"name": ("alice",), "city": ("berlin",)}),
            EntityProfile("2", {"name": ("bob",)}),
        ])
        path = tmp_path / "out.csv"
        write_profiles(coll, path)
        back = read_profiles(path)
        assert [p.id for p in back] == ["1", "2"]
        assert back.by_id["1"].attributes == coll.by_id["1"].attributes
        assert back.by_id["2"].attributes == coll.by_id["2"].attributes

    def test_jsonl_round_trip_multivalued(self, tmp_path):
        coll = ProfileCollection([
            EntityProfile("1", {"author": ("a", "b")}),
        ])
        path = tmp_path / "out.jsonl"
        write_profiles(coll, path)
        assert read_profiles(path)[0].attributes == coll[0].attributes

    def test_csv_rejects_multivalued(self, tmp_path):
        coll = ProfileCollection([EntityProfile("1", {"author": ("a", "b")})])
        with pytest.raises(DataFormatError, match="multi-valued"):
            write_profiles(coll, tmp_path / "out.csv")


class TestGroundTruthIO:
    def test_round_trip(self, tmp_path):
        gt = GroundTruth([("a", "x"), ("b", "y")])
        path = tmp_path / "gt.tsv"
        write_ground_truth(gt, path)
        assert read_ground_truth(path).pairs == gt.pairs

    def test_empty_file(self, tmp_path):
        path = tmp_path / "gt.tsv"
        path.write_text("", encoding="utf-8")
        assert len(read_ground_truth(path)) == 0

    def test_comments_and_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "gt.tsv"
        path.write_text("# pairs: 2\n\na\tx\n \n b\ty \n", encoding="utf-8")
        assert read_ground_truth(path).pairs == {("a", "x"), (" b", "y ")}

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "gt.tsv"
        path.write_text("a\tx\n# comment\nb\ty\tz\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="line 3: expected 2"):
            read_ground_truth(path)

    def test_one_to_one_violation(self, tmp_path):
        path = tmp_path / "gt.tsv"
        path.write_text("a\tx\na\ty\n", encoding="utf-8")
        with pytest.raises(DataFormatError):
            read_ground_truth(path)


class TestEmbeddings:
    def test_small_file(self, tmp_path):
        path = tmp_path / "e.tsv"
        path.write_text("a\t1 0 0 0\nb\t0 1 0 0\nc\t0 0 1 0\n", encoding="utf-8")
        vectors = read_embeddings(path)
        assert len(vectors) == 3
        assert vectors["a"].shape == (4,)

    def test_single_300_dim_line(self, tmp_path):
        path = tmp_path / "e.tsv"
        path.write_text("x\t" + " ".join(["0.5"] * 300) + "\n", encoding="utf-8")
        assert read_embeddings(path)["x"].shape == (300,)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "e.tsv"
        path.write_text("a\t1 2\na\t3 4\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="duplicate"):
            read_embeddings(path)

    def test_ragged_dimensions_rejected(self, tmp_path):
        path = tmp_path / "e.tsv"
        path.write_text("a\t1 2\nb\t1 2 3\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="dimension"):
            read_embeddings(path)


class TestBundle:
    def test_validation_passes_when_ids_resolve(self):
        bundle = DatasetBundle(
            name="toy",
            left=ProfileCollection([EntityProfile("a", {"n": ("x",)})]),
            right=ProfileCollection([EntityProfile("b", {"n": ("x",)})]),
            ground_truth=GroundTruth([("a", "b")]),
        )
        bundle.validate()

    def test_validation_rejects_unresolvable_id(self):
        bundle = DatasetBundle(
            name="toy",
            left=ProfileCollection([EntityProfile("a", {"n": ("x",)})]),
            right=ProfileCollection([EntityProfile("b", {"n": ("x",)})]),
            ground_truth=GroundTruth([("missing", "b")]),
        )
        with pytest.raises(DataFormatError, match="missing"):
            bundle.validate()


def _sweeps_for(graph, gt, algorithms=("umc", "cnc")):
    return {name: threshold_sweep(graph, name, gt) for name in algorithms}


class TestQualityFilter:
    def test_noisy_when_every_algorithm_fails(self):
        g = reference_graph()
        gt = GroundTruth([("A1", "B2")])  # no edge supports this pair
        flags = quality_filter(g, gt, _sweeps_for(g, gt))
        assert flags.noisy
        assert flags.all_matches_zero_weight

    def test_clean_graph(self):
        g = reference_graph()
        gt = GroundTruth(REFERENCE_TRUE_PAIRS)
        flags = quality_filter(g, gt, _sweeps_for(g, gt))
        assert not flags.noisy
        assert not flags.all_matches_zero_weight

    def test_ids_absent_from_the_graph_carry_no_weight(self):
        g = reference_graph()
        absent = GroundTruth([("ghost", "B1"), ("A1", "phantom")])
        assert quality_filter(g, absent, {}).all_matches_zero_weight
        mixed = GroundTruth([("ghost", "B2"), ("A1", "B1")])
        assert not quality_filter(g, mixed, {}).all_matches_zero_weight

    def test_a_zero_weight_edge_carries_no_weight(self):
        # min-max normalization gives the lightest edge weight 0
        g = SimilarityGraph(2, 2, [(0, 0, 0.0), (1, 1, 0.5)])
        zero = GroundTruth([("L0", "R0")])
        assert quality_filter(g, zero, {}).all_matches_zero_weight
        both = GroundTruth([("L0", "R0"), ("L1", "R1")])
        assert not quality_filter(g, both, {}).all_matches_zero_weight

    def test_duplicate_detection(self):
        g = reference_graph()
        gt = GroundTruth(REFERENCE_TRUE_PAIRS)
        sweeps = _sweeps_for(g, gt)
        records = [
            ("g1", "toy", g.edge_count, sweeps),
            ("g2", "toy", g.edge_count, sweeps),         # same everything
            ("g3", "other", g.edge_count, sweeps),       # different dataset
            ("g4", "toy", g.edge_count + 1, sweeps),     # different size
        ]
        links = detect_duplicates(records)
        assert links == {"g2": "g1"}

    def test_duplicate_needs_two_agreeing_algorithms(self):
        g = reference_graph()
        gt = GroundTruth(REFERENCE_TRUE_PAIRS)
        sweeps = _sweeps_for(g, gt)
        only_one = {"umc": sweeps["umc"]}
        records = [
            ("g1", "toy", g.edge_count, only_one),
            ("g2", "toy", g.edge_count, only_one),
        ]
        assert detect_duplicates(records) == {}

import gzip
import inspect

import pytest

from erbimatch import DataFormatError, SimilarityGraph
from erbimatch.evaluation import GroundTruth
from erbimatch.fileio import open_text, read_records, write_header, write_records
from erbimatch.graph import read_edge_list, write_edge_list
from erbimatch.ingest import (
    read_embeddings,
    read_ground_truth,
    read_profiles,
    write_ground_truth,
)
from erbimatch.matchers import get_matcher, read_matching, write_matching


def test_records_comments_header_fields_and_blank_lines(tmp_path):
    path = tmp_path / "r.tsv"
    path.write_text("# free text\n#key :  a: b \n\n   \n x\t y \n"
                    "#late: 1\nz\t\n", encoding="utf-8")
    header = {}
    records = read_records(path, 2, header)
    assert inspect.isgenerator(records)
    assert next(records) == (5, [" x", " y "])
    # header fields before the first record are there when it is yielded
    assert header == {"key": "a: b"}
    assert list(records) == [(7, ["z", ""])]
    assert header == {"key": "a: b", "late": "1"}


@pytest.mark.parametrize("text, line", [("a\tb\n", 1), ("# h: 1\na\tb\tc\na\n", 3)])
def test_wrong_field_count_names_path_and_line(tmp_path, text, line):
    path = tmp_path / "r.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataFormatError,
                       match=rf"r\.tsv: line {line}: expected 3 tab-separated"):
        list(read_records(path, 3))


@pytest.mark.parametrize("name", ["w.tsv", "w.tsv.gz"])
def test_written_records_read_back(tmp_path, name):
    path = tmp_path / name
    records = [("a b", "", 0.1 + 0.2), (" c", "d ", 1e-300)]
    with open_text(path, "w") as fh:
        write_header(fh, {"kind": "test", "empty": ""}, comments=["made here"])
        write_records(fh, records)
    header = {}
    back = [(l, r, float(w)) for _, (l, r, w) in read_records(path, 3, header)]
    assert back == records
    assert header == {"kind": "test", "empty": ""}
    with open_text(path) as fh:
        assert fh.readline() == "# made here\n"


def _writers(left_id, right_id):
    """Each TSV writer, bound to a one-edge graph between the two ids."""
    graph = SimilarityGraph(1, 1, [(0, 0, 0.5)], left_ids=[left_id],
                            right_ids=[right_id])
    matching = get_matcher("umc")(graph, 0.0)
    return {
        "edge list": lambda path: write_edge_list(graph, path),
        "matching": lambda path: write_matching(matching, graph, path,
                                                algorithm="umc", threshold=0.0),
        "ground truth": lambda path: write_ground_truth(
            GroundTruth([(left_id, right_id)]), path),
    }


@pytest.mark.parametrize("left_id, right_id", [
    ("#a", "b"), ("a\tx", "b"), ("a\nx", "b"), ("a\rx", "b"),
    ("a", "b\tx"), ("a", "b\nx"), ("a", "b\rx"),
])
def test_writers_reject_ids_a_record_cannot_hold(tmp_path, left_id, right_id):
    for name, write in _writers(left_id, right_id).items():
        path = tmp_path / f"{name}.tsv"
        with pytest.raises(DataFormatError, match="cannot be written"):
            write(path)
        assert not path.exists(), name


def test_writers_keep_a_right_id_that_begins_with_hash(tmp_path):
    writers = _writers("a #1", "#b")
    for name, write in writers.items():
        write(tmp_path / f"{name}.tsv")
    graph = read_edge_list(tmp_path / "edge list.tsv")
    assert (graph.left_ids, graph.right_ids) == (("a #1",), ("#b",))
    assert [r[:2] for r in read_matching(tmp_path / "matching.tsv")[0]] == \
        [("a #1", "#b")]
    assert list(read_ground_truth(tmp_path / "ground truth.tsv")) == \
        [("a #1", "#b")]


@pytest.mark.parametrize("pair", [(" ", ""), ("", "  "), ("", ""),
                                  ("\u00a0", " \u3000")])
def test_ground_truth_writer_rejects_a_blank_record(tmp_path, pair):
    path = tmp_path / "gt.tsv"
    with pytest.raises(DataFormatError, match="all empty or whitespace"):
        write_ground_truth(GroundTruth([("a", "b"), pair]), path)
    assert not path.exists()


def test_blank_ids_round_trip_where_a_weight_follows(tmp_path):
    writers = _writers(" ", "")
    for name in ("edge list", "matching"):
        writers[name](tmp_path / f"{name}.tsv")
    graph = read_edge_list(tmp_path / "edge list.tsv")
    assert (graph.left_ids, graph.right_ids) == ((" ",), ("",))
    assert [r[:2] for r in read_matching(tmp_path / "matching.tsv")[0]] == \
        [(" ", "")]


_NOT_UTF8 = b"id\tb\n\xff\xfe\t1\n"


@pytest.mark.parametrize("name", ["bad.tsv", "bad.tsv.gz"])
@pytest.mark.parametrize("read", [
    lambda path: list(read_records(path, 2)),
    read_ground_truth,
    lambda path: read_profiles(path, fmt="csv"),
    lambda path: read_profiles(path, fmt="jsonl"),
    read_embeddings,
], ids=["records", "ground-truth", "profiles-csv", "profiles-jsonl",
        "embeddings"])
def test_invalid_utf8_is_a_data_format_error(tmp_path, name, read):
    path = tmp_path / name
    data = _NOT_UTF8
    path.write_bytes(gzip.compress(data) if name.endswith(".gz") else data)
    with pytest.raises(DataFormatError, match="not valid UTF-8") as info:
        read(path)
    assert info.value.path == path

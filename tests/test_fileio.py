import inspect

import pytest

from erbimatch import DataFormatError
from erbimatch.fileio import open_text, read_records, write_header, write_records


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

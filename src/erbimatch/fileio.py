"""Text files: UTF-8, transparently (de)compressed when the name ends in .gz.

Edge lists, matchings and ground truth are TSV record files, read by
:func:`read_records` and written by :func:`write_header` and
:func:`write_records`.  A line that begins with ``#`` is a comment; a
comment ``# key: value`` is a header field (key and value trimmed), and
header fields precede the records.  Blank lines are skipped.  Any other line
is a record: tab-separated fields, taken verbatim, so ids may hold spaces
but no tab or line break, and a record may not begin with ``#``; the
writers check their ids with :func:`check_ids` before they open the file.

* edge list: ``left_id<TAB>right_id<TAB>weight`` in canonical edge order,
  after the header fields ``left_ids`` and ``right_ids``: the node tables in
  index order, as JSON arrays of strings.  An edge naming an id absent from
  them is an error.  Without them (hand-written or older files) the tables
  follow first appearance in the edges, and isolated nodes are lost.
* matching: ``left_id<TAB>right_id<TAB>weight`` in index order, after the
  header fields ``algorithm``, ``threshold``, ``config`` and ``wall_time_s``.
* ground truth: ``left_id<TAB>right_id``, one true pair per line.

Embedding files have no comments, and their ids may begin with ``#``, so
:func:`erbimatch.ingest.read_embeddings` reads them with its own loop.
"""

from __future__ import annotations

import gzip
import os
import re
from contextlib import contextmanager
from typing import IO, Iterable, Iterator, Mapping

from .errors import DataFormatError

_UNWRITABLE = re.compile("[\t\n\r]")


@contextmanager
def open_text(path: str | os.PathLike, mode: str = "r") -> Iterator[IO[str]]:
    """Open ``path`` as UTF-8 text, gunzipping when the name ends in .gz.

    Text that is not valid UTF-8 raises :class:`DataFormatError` naming the
    path.
    """
    if mode not in ("r", "w"):
        raise ValueError(f"unsupported mode {mode!r}")
    opener = gzip.open if str(path).endswith(".gz") else open
    try:
        with opener(path, mode + "t", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"not valid UTF-8: {exc.reason}",
                              path=path) from None


def read_records(path, width: int, header: dict[str, str] | None = None
                 ) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(line number, fields)`` per record of a TSV file, storing the
    header fields in ``header`` as they are read (all of them are there when
    the first record is yielded).  A record without exactly ``width``
    fields raises :class:`DataFormatError`."""
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line[0] == "#":
                key, colon, value = line[1:].partition(":")
                if colon and header is not None:
                    header[key.strip()] = value.strip()
            elif not line.isspace():
                parts = line.rstrip("\n").split("\t")
                if len(parts) != width:
                    raise DataFormatError(
                        f"expected {width} tab-separated fields, "
                        f"got {len(parts)}", path=path, line=lineno)
                yield lineno, parts


def write_header(fh: IO[str], fields: Mapping[str, str],
                 comments: Iterable[str] = ()) -> None:
    """Write free-text comment lines, then ``# key: value`` header fields."""
    for line in [*comments, *(f"{key}: {value}" for key, value in fields.items())]:
        fh.write(f"# {line}\n")


def check_ids(ids: Iterable[str], path, *, leading: bool = False) -> None:
    """Raise :class:`DataFormatError` for an id that a record cannot hold:
    one with a tab or a line break, or, for the ``leading`` field of a
    record, one that begins with ``#`` and would read back as a comment."""
    for value in ids:
        if _UNWRITABLE.search(value) or (leading and value.startswith("#")):
            raise DataFormatError(
                f"id {value!r} cannot be written: a record field holds no tab "
                "or line break, and a record does not begin with '#'",
                path=path)


def write_records(fh: IO[str], records: Iterable[tuple]) -> None:
    """Write each tuple as one line of tab-separated ``str`` fields (for a
    float that is its ``repr``, which reads back exactly)."""
    line = None
    for record in records:
        line = line or "\t".join(["%s"] * len(record)) + "\n"
        fh.write(line % record)

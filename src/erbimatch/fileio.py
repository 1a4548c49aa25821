"""Text files: UTF-8, transparently (de)compressed when the name ends in .gz.

Edge lists, matchings and ground truth are TSV record files, read by
:func:`read_records` and written by :func:`write_header` and
:func:`write_records`.  A line that begins with ``#`` is a comment; a
comment ``# key: value`` is a header field (key and value trimmed), and
header fields precede the records.  Blank lines are skipped.  Any other line
is a record: tab-separated fields, taken verbatim, so ids may hold spaces
but no tab or line break, and a record may not begin with ``#``.

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
from typing import IO, Iterable, Iterator, Mapping

from .errors import DataFormatError


def open_text(path: str | os.PathLike, mode: str = "r") -> IO[str]:
    """Open ``path`` as UTF-8 text, gunzipping when the name ends in .gz."""
    if mode not in ("r", "w"):
        raise ValueError(f"unsupported mode {mode!r}")
    if str(path).endswith(".gz"):
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


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


def write_records(fh: IO[str], records: Iterable[tuple]) -> None:
    """Write each tuple as one line of tab-separated ``str`` fields (for a
    float that is its ``repr``, which reads back exactly)."""
    line = None
    for record in records:
        line = line or "\t".join(["%s"] * len(record)) + "\n"
        fh.write(line % record)

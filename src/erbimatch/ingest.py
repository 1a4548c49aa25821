"""Dataset ingestion: entity profiles, ground truth, embeddings, bundles.

File formats (UTF-8 text, ``.gz`` transparently decompressed):

* profiles CSV  -- RFC-4180, mandatory header; first column is the id,
  every other column one attribute; empty cells are missing values.
* profiles JSONL -- one ``{"id": ..., "attrs": {name: [values]}}`` object
  per line (a bare string value is accepted as a single-value list).
* ground truth  -- two tab-separated external ids per line (see fileio).
* embeddings    -- ``entity_id<TAB>dim1 dim2 ... dimK``, constant K.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import DataFormatError
from .evaluation import GroundTruth, SweepResult, _true_index_pairs
from .fileio import (
    check_ids,
    check_records,
    open_text,
    read_records,
    write_records,
)
from .graph import SimilarityGraph
from .profiles import EntityProfile, ProfileCollection

__all__ = [
    "DatasetBundle",
    "GraphQualityFlags",
    "read_profiles",
    "write_profiles",
    "read_ground_truth",
    "write_ground_truth",
    "read_embeddings",
    "quality_filter",
    "detect_duplicates",
]

logger = logging.getLogger(__name__)


def _infer_format(path, fmt: str | None) -> str:
    if fmt is not None:
        return fmt.lower()
    name = str(path)
    if name.endswith(".gz"):
        name = name[:-3]
    if name.endswith(".jsonl"):
        return "jsonl"
    if name.endswith(".csv"):
        return "csv"
    raise DataFormatError("cannot infer format; pass fmt='csv' or 'jsonl'",
                          path=path)


def read_profiles(path, fmt: str | None = None) -> ProfileCollection:
    """Load a clean entity collection; duplicate ids are an error."""
    fmt = _infer_format(path, fmt)
    if fmt == "csv":
        profiles = _read_profiles_csv(path)
    elif fmt == "jsonl":
        profiles = _read_profiles_jsonl(path)
    else:
        raise DataFormatError(f"unknown profile format {fmt!r}", path=path)
    try:
        return ProfileCollection(profiles)
    except ValueError as exc:
        raise DataFormatError(str(exc), path=path) from None


def _read_profiles_csv(path) -> list[EntityProfile]:
    profiles = []
    with open_text(path) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError("missing header row", path=path) from None
        if len(header) < 1:
            raise DataFormatError("empty header row", path=path)
        attr_names = header[1:]
        for row in reader:
            if not row:
                continue
            lineno = reader.line_num
            if len(row) != len(header):
                raise DataFormatError(
                    f"expected {len(header)} columns, got {len(row)}",
                    path=path, line=lineno)
            attrs = {
                name: (cell,)
                for name, cell in zip(attr_names, row[1:])
                if cell != ""
            }
            profiles.append(EntityProfile(row[0], attrs))
    return profiles


def _read_profiles_jsonl(path) -> list[EntityProfile]:
    profiles = []
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataFormatError(f"bad JSON: {exc.msg}",
                                      path=path, line=lineno) from None
            if not isinstance(record, dict) or "id" not in record:
                raise DataFormatError("object with an 'id' field expected",
                                      path=path, line=lineno)
            attrs = {}
            for name, values in (record.get("attrs") or {}).items():
                if isinstance(values, str):
                    values = [values]
                if not isinstance(values, list) or \
                        not all(isinstance(v, str) for v in values):
                    raise DataFormatError(
                        f"attribute {name!r} must be a string or a list of "
                        "strings", path=path, line=lineno)
                if values:
                    attrs[name] = tuple(values)
            profiles.append(EntityProfile(str(record["id"]), attrs))
    return profiles


def write_profiles(collection: ProfileCollection, path,
                   fmt: str | None = None) -> None:
    """Write profiles; CSV needs a uniform schema, JSONL is lossless."""
    fmt = _infer_format(path, fmt)
    if fmt == "jsonl":
        with open_text(path, "w") as fh:
            for p in collection:
                fh.write(json.dumps(
                    {"id": p.id, "attrs": {k: list(v) for k, v in p.attributes.items()}},
                    sort_keys=True) + "\n")
        return
    attr_names = sorted({name for p in collection for name in p.attributes})
    multi = [name for p in collection for name, vals in p.attributes.items()
             if len(vals) > 1]
    if multi:
        raise DataFormatError(
            f"attribute {multi[0]!r} is multi-valued; use the jsonl format",
            path=path)
    with open_text(path, "w") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", *attr_names])
        for p in collection:
            writer.writerow([p.id] + [p.values(a)[0] if p.values(a) else ""
                                      for a in attr_names])


def read_ground_truth(path) -> GroundTruth:
    """Two tab-separated ids per line; repeated side ids are an error."""
    try:
        return GroundTruth(ids for _, ids in read_records(path, 2))
    except ValueError as exc:
        raise DataFormatError(str(exc), path=path) from None


def write_ground_truth(gt: GroundTruth, path) -> None:
    check_ids((left for left, _ in gt), path, leading=True)
    check_ids((right for _, right in gt), path)
    check_records(gt, path)
    with open_text(path, "w") as fh:
        write_records(fh, gt)


def read_embeddings(path) -> dict[str, np.ndarray]:
    """id -> dense vector map; ragged dimensions or repeated ids error out."""
    vectors: dict[str, np.ndarray] = {}
    dim = None
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DataFormatError(
                    "expected `id<TAB>dim1 dim2 ...`", path=path, line=lineno)
            entity_id, payload = parts
            if entity_id in vectors:
                raise DataFormatError(f"duplicate id {entity_id!r}",
                                      path=path, line=lineno)
            try:
                vector = np.array([float(x) for x in payload.split()],
                                  dtype=np.float64)
            except ValueError:
                raise DataFormatError("non-numeric vector component",
                                      path=path, line=lineno) from None
            if vector.size == 0:
                raise DataFormatError("empty vector", path=path, line=lineno)
            if dim is None:
                dim = vector.size
            elif vector.size != dim:
                raise DataFormatError(
                    f"dimension {vector.size} != {dim} of earlier lines",
                    path=path, line=lineno)
            vectors[entity_id] = vector
    return vectors


# ----------------------------------------------------------------------


@dataclass
class DatasetBundle:
    """Two clean collections, their ground truth, and metadata."""

    name: str
    left: ProfileCollection
    right: ProfileCollection
    ground_truth: GroundTruth
    attributes: tuple[str, ...] = ()

    def validate(self) -> "DatasetBundle":
        """Every ground-truth id must resolve to a profile."""
        for l, r in self.ground_truth:
            if l not in self.left.by_id:
                raise DataFormatError(
                    f"{self.name}: ground-truth id {l!r} has no left profile")
            if r not in self.right.by_id:
                raise DataFormatError(
                    f"{self.name}: ground-truth id {r!r} has no right profile")
        return self


@dataclass
class GraphQualityFlags:
    """Noise indicators computed from ground truth and sweep results."""

    all_matches_zero_weight: bool
    noisy: bool
    duplicate_of: str | None = None


def quality_filter(graph: SimilarityGraph, gt: GroundTruth,
                   sweeps: Mapping[str, SweepResult],
                   noise_f1: float = 0.25) -> GraphQualityFlags:
    """Flag graphs that carry no usable signal.

    ``noisy`` means no algorithm's optimal F1 reaches ``noise_f1``;
    ``all_matches_zero_weight`` means not a single true pair has a
    positive-weight edge.
    """
    best = max((s.optimal_score.f_measure for s in sweeps.values()),
               default=0.0)
    weights = graph._weights_of(_true_index_pairs(gt, graph))
    return GraphQualityFlags(
        all_matches_zero_weight=not any(w > 0 for w in weights),
        noisy=best < noise_f1,
    )


def detect_duplicates(records: Iterable[tuple[str, str, int, Mapping[str, SweepResult]]],
                      tolerance: float = 0.002) -> dict[str, str]:
    """Identify near-identical inputs among generated graphs.

    Two graphs of the same dataset with the same edge count are duplicates
    when at least two algorithms reach their optimum at the same threshold
    with F1 differing by less than ``tolerance`` and precision or recall
    also within it.  Returns ``graph_id -> earlier graph_id`` links.

    ``records`` rows are ``(graph_id, dataset, edge_count, sweeps)``.
    """
    seen: list[tuple[str, str, int, Mapping[str, SweepResult]]] = []
    links: dict[str, str] = {}
    for graph_id, dataset, edge_count, sweeps in records:
        for prev_id, prev_dataset, prev_edges, prev_sweeps in seen:
            if dataset != prev_dataset or edge_count != prev_edges:
                continue
            agreeing = 0
            for name, sweep in sweeps.items():
                other = prev_sweeps.get(name)
                if other is None or sweep.optimal_t != other.optimal_t:
                    continue
                a, b = sweep.optimal_score, other.optimal_score
                if abs(a.f_measure - b.f_measure) < tolerance and (
                        abs(a.precision - b.precision) < tolerance
                        or abs(a.recall - b.recall) < tolerance):
                    agreeing += 1
            if agreeing >= 2:
                links[graph_id] = prev_id
                break
        else:
            seen.append((graph_id, dataset, edge_count, sweeps))
    return links

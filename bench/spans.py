"""Spans recorded by the benchmark around its calls into erbimatch.

A span has a name, a start and an end on the monotonic clock, the span that
was open when it started (its parent), the pass it belongs to, and optional
counts.  Spans stay in memory until :meth:`Recorder.write` stores them as
JSON lines.  ``NULL`` records nothing, so the timed passes run the same code
with tracing off.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Recorder:
    active = True

    def __init__(self):
        self.spans: list[dict] = []
        self.pass_id: str | None = None
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str):
        """Time the body; the yielded dict takes counts, e.g. ``{"edges": n}``."""
        record = {"id": len(self.spans), "name": name, "pass": self.pass_id,
                  "parent": self._open[-1]["id"] if self._open else None,
                  "counts": {}}
        self.spans.append(record)
        self._open.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record["counts"]
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> dict[int, float]:
        """Span duration minus the time its child spans cover."""
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def per_pass(self) -> dict[str, dict[str, float]]:
        """Per pass: total duration of each span name, and each count
        (named ``<span name>:<count name>``) summed over the pass."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for s in self.spans:
            totals = out[s["pass"]]
            totals[s["name"]] += s["end"] - s["start"]
            for key, value in s["counts"].items():
                totals[f"{s['name']}:{key}"] += value
        return out

    def write(self, path, header: dict) -> None:
        own = self.self_times()
        origin = self.spans[0]["start"] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"kind": "header", **header}) + "\n")
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s["id"], "name": s["name"], "pass": s["pass"],
                    "parent": s["parent"],
                    "start_s": s["start"] - origin, "end_s": s["end"] - origin,
                    "self_s": own[s["id"]], "counts": s["counts"],
                }) + "\n")


class _NullRecorder:
    active = False
    pass_id = None

    @contextmanager
    def span(self, name: str):
        yield {}


NULL = _NullRecorder()

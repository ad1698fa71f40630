"""In-memory span recorder for the traced run.

Spans are recorded from the benchmark's own files, around the calls
into each layer's public functions; nothing inside ``repro`` is touched.
A span is ``(name, start, end, parent, run_id)``: spans of one timed
operation share a ``run_id``, and a layer's *self time* is its span's
duration minus the part its child spans cover.  Spans stay in memory
and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Iterator


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []
        self.run_id = 0

    def next_run(self) -> int:
        """Start a new operation: later spans carry a fresh ``run_id``."""
        self.run_id += 1
        return self.run_id

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = len(self.spans)
        record = {
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": self._stack[-1] if self._stack else None,
            "run_id": self.run_id,
        }
        self.spans.append(record)
        self._stack.append(index)
        record["start"] = time.perf_counter()
        try:
            yield index
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, parent: int | None = None) -> None:
        """Record a span measured elsewhere: a child of *parent* (e.g. an
        engine phase accumulated by ``PhaseProfile``), or with no parent an
        operation of its own (e.g. one request of the load generator)."""
        run_id = self.next_run() if parent is None else self.spans[parent]["run_id"]
        self.spans.append({"name": name, "start": start, "end": end, "parent": parent, "run_id": run_id})

    def self_times(self, run_id: int | None = None) -> dict[str, float]:
        """Self seconds per span name (summed), optionally for one run."""
        covered: dict[int, float] = defaultdict(float)
        for record in self.spans:
            if record["parent"] is not None:
                covered[record["parent"]] += record["end"] - record["start"]
        totals: dict[str, float] = defaultdict(float)
        for index, record in enumerate(self.spans):
            if run_id is not None and record["run_id"] != run_id:
                continue
            totals[record["name"]] += record["end"] - record["start"] - covered[index]
        return dict(totals)

    def dump(self, path: str, meta: dict[str, Any]) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "spans": self.spans}, fh, sort_keys=True)

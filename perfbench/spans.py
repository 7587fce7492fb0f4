"""In-memory spans and counts recorded around the benchmark's calls into geopack."""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Spans (name, start, end, parent, instance) and counts, written out at the end."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, instance: str):
        record = {"id": len(self.spans), "name": name, "instance": instance,
                  "parent": self._open[-1] if self._open else None,
                  "start": 0.0, "end": 0.0}
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, instance: str, value: float) -> None:
        self.counts.append({"name": name, "instance": instance, "value": value,
                            "span": self._open[-1] if self._open else None})

    def durations(self, name: str) -> dict[int, float]:
        """Duration of every span called ``name``, keyed by its root span id."""
        out = {}
        for s in self.spans:
            if s["name"] == name:
                out[self.root(s)] = s["end"] - s["start"]
        return out

    def root(self, span: dict) -> int:
        while span["parent"] is not None:
            span = self.spans[span["parent"]]
        return span["id"]

    def values(self, name: str) -> dict[int, float]:
        out = {}
        for c in self.counts:
            if c["name"] == name and c["span"] is not None:
                out[self.root(self.spans[c["span"]])] = c["value"]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans, "counts": self.counts}) + "\n", encoding="utf-8")

"""In-memory span recorder for the traced run.

A span has a name, a start, an end, its parent span and the run id.
Spans stay in memory until the run ends, then :meth:`Recorder.write`
saves them.  A span's self time is its duration minus the part of it
that its child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from collections.abc import Iterator
from contextlib import contextmanager


class Recorder:
    def __init__(self, run_id: str):
        self.run_id = run_id
        #: Round of the traced run; every span records it.
        self.round = 0
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "run_id": self.run_id, "round": self.round,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> dict[int, float]:
        """Span id to duration minus the union of its children's intervals."""
        children: dict[int, list[dict]] = defaultdict(list)
        for span in self.spans:
            if span["parent"] is not None:
                children[span["parent"]].append(span)
        result = {}
        for span in self.spans:
            covered = 0.0
            reach = span["start"]
            for child in sorted(children[span["id"]], key=lambda s: s["start"]):
                start = max(child["start"], reach)
                end = min(child["end"], span["end"])
                if end > start:
                    covered += end - start
                    reach = end
            result[span["id"]] = span["end"] - span["start"] - covered
        return result

    def per_round(self) -> dict[str, list[float]]:
        """Span name to its summed duration in each round that has it."""
        sums: dict[str, dict[int, float]] = defaultdict(
            lambda: defaultdict(float))
        for span in self.spans:
            sums[span["name"]][span["round"]] += span["end"] - span["start"]
        return {name: list(by_key.values()) for name, by_key in sums.items()}

    def write(self, path: str) -> None:
        origin = self.spans[0]["start"] if self.spans else 0.0
        rows = [dict(span, start=span["start"] - origin,
                     end=span["end"] - origin) for span in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"run_id": self.run_id, "spans": rows}, handle)

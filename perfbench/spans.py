"""Span and counter recorder for the traced benchmark run.

Spans nest: each records its parent, so a layer's self time is its duration
minus the durations of its direct children.  Everything stays in memory
until `summary()` is called at the end of the run.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Iterator


class Recorder:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        """Time the block; the yielded record's name may be set inside it,
        for spans whose layer is known only from the call's outcome."""
        record = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child_time[rec["parent"]] += rec["end"] - rec["start"]
        out: dict[str, dict] = {}
        for rec, children in zip(self.spans, child_time):
            total = rec["end"] - rec["start"]
            entry = out.setdefault(rec["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += total
            entry["self_s"] += total - children
        return {"spans": out, "counts": dict(self.counts)}

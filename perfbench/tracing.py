"""In-memory spans recorded by the benchmark around its calls into flowrag.

A span has a name (``<module>.<call>``), start and end times, the span that
was open when it started, and a run id shared by every span of one
operation (one question, one pair, one query). Nothing is written while a
run is timed; ``write_jsonl`` dumps the spans once the run has ended.
"""
from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str


class Tracer:
    """Records spans and counts; a stack gives each span its parent."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.sets: dict[str, set] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, run_id: str | None = None):
        parent = self._stack[-1] if self._stack else None
        if run_id is None:
            run_id = self.spans[parent].run_id if parent is not None else "run"
        record = Span(name, time.perf_counter(), 0.0, parent, run_id)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def seen(self, name: str, items) -> None:
        """Remember distinct items, for distinct-over-total ratios."""
        self.sets.setdefault(name, set()).update(items)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "run_id": s.run_id,
                }) + "\n")


class NullTracer:
    """Tracing off: the same call sites, no recording."""

    enabled = False
    _null = nullcontext()

    def span(self, name: str, run_id: str | None = None):
        return self._null

    def count(self, name: str, n: float = 1) -> None:
        pass

    def seen(self, name: str, items) -> None:
        pass


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children may overlap each other (calls made from several threads); the
    overlap is counted once.
    """
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [
        (s.end - s.start) - covered(children[i], s.start, s.end)
        for i, s in enumerate(spans)
    ]


def busy_by_name(spans: list[Span]) -> Counter:
    """Self time summed per span name."""
    totals: Counter = Counter()
    for s, t in zip(spans, self_times(spans)):
        totals[s.name] += t
    return totals


def durations(spans: list[Span], name: str) -> list[float]:
    return [s.end - s.start for s in spans if s.name == name]

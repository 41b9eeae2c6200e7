"""In-memory span recorder and the arithmetic the per-layer metrics need.

A span is one timed call from the benchmark into a reidkit layer: its name,
start and end (``time.perf_counter`` seconds), the span that was open when
it started, the op it belongs to, and optional counts (FLOPs, bytes,
queries, ...).  Spans are kept in a list and written out once, when the
run ends, so recording costs two clock reads and one append.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: str
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; ``op`` tags every span opened until it changes."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = ""
        self._stack: list[int] = []

    @contextmanager
    def span(self, name, **counts):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = Span(span_id, name, 0.0, 0.0, parent, self.op, dict(counts))
        self.spans.append(rec)
        self._stack.append(span_id)
        rec.start = time.perf_counter()
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


class NullTracer:
    """Tracing off: the same interface, nothing recorded."""

    op = ""

    def span(self, name, **counts):
        return nullcontext(None)


def self_times(spans) -> dict:
    """Span id -> its duration minus the part its child spans cover.

    Children are clipped to the parent's interval and their union is taken,
    so overlapping or overhanging children are not subtracted twice.
    """
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.span_id, []), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.span_id] = s.duration - covered
    return out


def per_op(spans, name, value="self") -> dict:
    """Op id -> summed self time of spans named ``name``.

    ``value`` may instead be ``"duration"``, ``"calls"`` (one per span) or
    the key of a count recorded on the spans.
    """
    own = self_times(spans) if value == "self" else None
    out: dict = {}
    for s in spans:
        if s.name != name:
            continue
        if value == "self":
            v = own[s.span_id]
        elif value == "duration":
            v = s.duration
        elif value == "calls":
            v = 1
        else:
            v = s.counts.get(value, 0)
        out[s.op] = out.get(s.op, 0.0) + v
    return out


def median_over(ops, table) -> float:
    """Median of ``table[op]`` over ``ops``; an op without spans counts as 0."""
    if not ops:
        return 0.0
    return statistics.median(table.get(op, 0.0) for op in ops)

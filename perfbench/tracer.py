"""In-memory spans recorded by the benchmark around calls into conghom.

A span has a name, a start, an end, the span that was open when it
started (its parent) and the id of the configuration it belongs to.
Spans are kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    trace_id: str
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans; ``span`` nests, so the open span becomes the parent."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str, trace_id: str, **attrs):
        parent = self._open[-1].id if self._open else None
        s = Span(len(self.spans), trace_id, parent, name, self.clock(), attrs=attrs)
        self.spans.append(s)
        self._open.append(s)
        try:
            yield s
        finally:
            s.end = self.clock()
            self._open.pop()

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.id]

    def total(self, name: str) -> float:
        return sum((s.duration for s in self.spans if s.name == name), 0.0)

    def to_json(self) -> list[dict]:
        return [
            {"id": s.id, "trace_id": s.trace_id, "parent": s.parent, "name": s.name,
             "start": s.start, "end": s.end, **({"attrs": s.attrs} if s.attrs else {})}
            for s in self.spans
        ]


def self_time(span: Span, children: list[Span]) -> float:
    """Duration of ``span`` minus the part of it that its children cover.

    Children are clipped to the parent's interval and overlaps between
    them are counted once, so the result is never negative.
    """
    covered = 0.0
    cur_start = cur_end = None
    for c in sorted(children, key=lambda s: s.start):
        a, b = max(c.start, span.start), min(c.end, span.end)
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        covered += cur_end - cur_start
    return span.duration - covered

"""In-memory span recorder for the traced benchmark run.

A span is one timed call: name, start, end, the span that encloses it, and
the id of the benchmark op it belongs to. Spans are kept in a list while
the run is going and written as JSONL once it ends. Nothing here touches
the program under test; the benchmark wraps calls into it from outside.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter


@dataclass(slots=True)
class Span:
    span_id: int
    parent: int | None
    op_id: int
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; ``op_id`` tags every span opened while it is set."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op_id = 0
        self._stack: list[Span] = []
        self.origin = perf_counter()

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1].span_id if self._stack else None
        record = Span(len(self.spans), parent, self.op_id, name, 0.0, attrs=attrs)
        self.spans.append(record)
        self._stack.append(record)
        record.start = perf_counter()
        try:
            yield record
        finally:
            record.end = perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, /, *args, attrs=None, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        with self.span(name, **(attrs or {})):
            return fn(*args, **kwargs)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time its direct children cover.

    Children of one span run one after another, so the covered time is the
    sum of their durations.
    """
    covered: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            covered[s.parent] = covered.get(s.parent, 0.0) + s.duration
    return {s.span_id: s.duration - covered.get(s.span_id, 0.0) for s in spans}


def write_jsonl(path, spans: list[Span], origin: float, header: dict) -> None:
    """One header line, then one line per span, times in seconds from ``origin``."""
    own = self_times(spans)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"header": header}) + "\n")
        for s in spans:
            handle.write(
                json.dumps(
                    {
                        "span_id": s.span_id,
                        "parent": s.parent,
                        "op_id": s.op_id,
                        "name": s.name,
                        "start": s.start - origin,
                        "end": s.end - origin,
                        "self": own[s.span_id],
                        "attrs": s.attrs,
                    }
                )
                + "\n"
            )

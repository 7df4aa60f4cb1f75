"""Span recording for the traced run, from outside the btevolve package.

`Tracer.patch` swaps a module or class attribute for a wrapper that records
one span per call: name, start, end, parent span and op id.  Parents follow
a per-thread stack; a call on a worker thread with nothing open on its own
stack gets the op's root span as parent.  Spans stay in memory until
`write` puts them in a JSONL file at the end of the run.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []
        self.op: int | None = None
        self._op_span: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        """Record one span around the body; yields the attrs dict so the body can add to it."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else self._op_span
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield attrs
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(
                {"id": span_id, "name": name, "start": start, "end": end, "parent": parent, "op": self.op, **attrs}
            )

    @contextmanager
    def op_scope(self, op: int):
        """Root span ("op") of one op; spans opened inside carry its op id."""
        self.op = op
        with self.span("op"):
            self._op_span = self._stack()[-1]
            try:
                yield
            finally:
                self._op_span = None
        self.op = None

    def wrap(self, name: str, fn, attrs_of=None):
        """`fn` recording a span per call; `attrs_of(result)` adds attributes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
                if attrs_of is not None:
                    attrs.update(attrs_of(result))
                return result

        return traced

    def patch(self, owner, attribute: str, name: str, attrs_of=None) -> None:
        original = getattr(owner, attribute)
        self._restore.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(name, original, attrs_of))

    def unpatch(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as sink:
            for record in self.spans:
                sink.write(json.dumps(record, sort_keys=True) + "\n")


def durations_ns(spans, name: str) -> list[int]:
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def median_of(spans, name: str, scale: float) -> float:
    """Median span duration in units of `scale` nanoseconds, 0.0 if never called."""
    values = durations_ns(spans, name)
    return statistics.median(values) / scale if values else 0.0


def covered_ns(intervals, start: int, end: int) -> int:
    """Length of [start, end] covered by the union of the given intervals."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals if b > start and a < end)
    total, reach = 0, start
    for a, b in clipped:
        if b > reach:
            total += b - max(a, reach)
            reach = b
    return total


def by_op(spans) -> dict[int, list[dict]]:
    grouped: dict[int, list[dict]] = {}
    for s in spans:
        if s["op"] is not None:
            grouped.setdefault(s["op"], []).append(s)
    return grouped

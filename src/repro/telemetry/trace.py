"""Nested monotonic-clock span tracing.

A :class:`Span` is one timed phase of a run (``round``, ``client_train``,
``aggregate``, …): a name, start/end seconds relative to the tracer's epoch,
an id/parent-id pair expressing nesting, and a small attribute dict (round
index, client id, worker pid).  A :class:`SpanTracer` collects spans from
any thread: span ids come from an atomic counter, finished spans are
appended under the GIL, and nesting is tracked per thread — a span opened
on a pool thread nests under whatever that *thread* has open, never under
another thread's span.  Every instrumentation point therefore also stamps
the ``round`` attribute, which is the key the renderer groups by.

Timing uses ``time.monotonic()`` exclusively — never the wall clock, and
never anything that consumes RNG state: tracing must not perturb what a
run computes.  The one deliberate simplification versus full distributed
tracing: spans merged from remote workers (see
:meth:`SpanTracer.add_span`) carry their measured durations placed on the
driver's clock at frame-arrival time, with the per-link clock offset
recorded separately rather than applied (see
:class:`~repro.telemetry.core.RunTelemetry`).
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    """One timed phase; ``end`` is ``None`` while the span is open."""

    span_id: int
    name: str
    start: float
    end: float | None = None
    parent_id: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Elapsed seconds (0.0 while the span is still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.span_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent_id,
            "attrs": dict(self.attrs),
        }


class SpanTracer:
    """Thread-safe collector of :class:`Span` records for one run.

    All timestamps are seconds since the tracer's construction (its
    *epoch*), so serialised traces are small, diffable numbers rather than
    absolute monotonic readings that differ per process.
    """

    def __init__(self) -> None:
        self._epoch = time.monotonic()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._local = threading.local()

    def now(self) -> float:
        """Seconds since the tracer's epoch (monotonic)."""
        return time.monotonic() - self._epoch

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        """Record a span around the ``with`` body (exception-safe)."""
        stack = self._stack()
        parent = stack[-1].span_id if stack else None
        record = Span(
            span_id=next(self._ids),
            name=name,
            start=self.now(),
            parent_id=parent,
            attrs=attrs,
        )
        stack.append(record)
        try:
            yield record
        finally:
            record.end = self.now()
            stack.pop()
            with self._lock:
                self._spans.append(record)

    def add_span(
        self,
        name: str,
        start: float,
        end: float,
        parent_id: int | None = None,
        **attrs,
    ) -> Span:
        """Record an externally timed span (e.g. merged from a remote worker)."""
        record = Span(
            span_id=next(self._ids),
            name=name,
            start=start,
            end=end,
            parent_id=parent_id,
            attrs=attrs,
        )
        with self._lock:
            self._spans.append(record)
        return record

    def spans(self) -> list[Span]:
        """Snapshot of the finished spans, in completion order."""
        with self._lock:
            return list(self._spans)

    def to_dict(self) -> list[dict]:
        return [span.to_dict() for span in self.spans()]

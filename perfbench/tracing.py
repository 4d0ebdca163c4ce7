"""Benchmark-side spans and per-layer self time.

The benchmark records a span around each call it makes into a layer of
the program (``circuit.parse``, ``service.submit``, ``store.get_hit``
...).  The program's own :class:`repro.obs.Recorder` spans (``mft.solve``,
``spectral.*`` ...) come from the recorders the benchmark passes in
through the public ``recorder=`` arguments.  Both use
``time.perf_counter`` in one process, so they merge onto one time line.

A span's *self time* is its duration minus the part of it covered by
the spans nested inside it.  Nesting is read from the time line, not
from recorder parent ids: the requests run one at a time (closed loop),
so when the caller thread waits in ``service.wait`` while the queue's
dispatcher thread runs ``mft.sweep``, the sweep lies inside the wait
and the wait's self time is what the queue itself costs.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterable, Iterator, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float


class Tracer:
    """Collects :class:`Span` records while ``enabled`` is true.

    List appends are atomic under the interpreter lock, so the store
    wrapper may record from the queue's dispatcher thread.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: "list[Span]" = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append(Span(name, start, time.perf_counter()))

    def add(self, name: str, start: float, end: float) -> None:
        if self.enabled:
            self.spans.append(Span(name, start, end))


def _covered(intervals: "list[tuple[float, float]]") -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Iterable[Span]) -> "dict[str, float]":
    """Total self time [s] per span name.

    Each span's parent is the innermost earlier span that contains it.
    A child's interval is clipped to its parent, so the self times of
    properly nested spans sum to the length of the union of the
    outermost spans.
    """
    ordered = sorted(spans, key=lambda s: (s.start, -s.end))
    children: "list[list[tuple[float, float]]]" = [[] for _ in ordered]
    stack: "list[int]" = []
    for index, span in enumerate(ordered):
        while stack and ordered[stack[-1]].end < span.end:
            stack.pop()
        if stack:
            parent = ordered[stack[-1]]
            children[stack[-1]].append(
                (max(span.start, parent.start), min(span.end, parent.end)))
        stack.append(index)
    totals: "dict[str, float]" = {}
    for span, kids in zip(ordered, children):
        own = (span.end - span.start) - _covered(kids)
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals

"""Spans recorded by the benchmark around its calls into flexjoint.

A span holds a name, start and end (``time.perf_counter`` seconds), the
index of its parent span (-1 at the top), the id of the operation it
belongs to, and ``per``: the units of work it covered (RK4 steps,
frequency points, CSV rows), so a per-unit time can be derived.  Spans
stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Records nested spans in memory."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent, op, per]
        self._stack = []
        self._op = 0

    def call(self, name, fn, *args, per=1, **kwargs):
        """Call ``fn(*args, **kwargs)`` inside a span called ``name``."""
        with self.span(name, per):
            return fn(*args, **kwargs)

    @contextmanager
    def span(self, name, per=1):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, perf_counter(), 0.0, parent, self._op, per]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    @contextmanager
    def operation(self, name):
        """Span for one operation; spans opened inside it share its id."""
        self._op += 1
        with self.span(name):
            yield

    def durations(self, name):
        """Durations of the spans called ``name``, divided by their ``per``."""
        return [(end - start) / per for n, start, end, _, _, per in self.spans if n == name]

    def median(self, name):
        values = self.durations(name)
        return statistics.median(values) if values else None

    def self_times(self):
        """Seconds per span name, each span minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {}
        for i, (name, start, end, _, _, _) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start) - child[i]
        return totals

    def dump(self, path):
        keys = ("name", "start", "end", "parent", "op", "per")
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(dict(zip(keys, record))) + "\n")


class NullTracer:
    """Same interface as ``Tracer``; records nothing."""

    def call(self, name, fn, *args, per=1, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def span(self, name, per=1):
        yield

    @contextmanager
    def operation(self, name):
        yield

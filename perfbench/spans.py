"""Spans around the benchmark's calls into the toolkit.

Nothing inside the package is instrumented: a span covers one call made
from the benchmark's own code, so calls the toolkit makes internally
(for example calibrate's forward passes) are part of the caller's span.
Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class NullTracer:
    """Untraced runs: calls go straight through."""

    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Records (name, start, end, parent index, unit id) per span."""

    enabled = True

    def __init__(self):
        self.spans = []
        self.unit = "setup"
        self._stack = []

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.unit])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def self_times(self, unit):
        """{name: (self seconds, calls)} over the spans of one unit.

        A span's self time is its duration minus that of its direct
        children; children of one span never overlap.
        """
        child = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(lambda: [0.0, 0])
        for i, (name, start, end, _, u) in enumerate(self.spans):
            if u == unit:
                out[name][0] += end - start - child[i]
                out[name][1] += 1
        return {k: tuple(v) for k, v in out.items()}

    def dump(self):
        return [{"name": n, "start": s, "end": e, "parent": p, "unit": u}
                for n, s, e, p, u in self.spans]

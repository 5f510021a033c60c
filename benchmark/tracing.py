"""Spans around roughsim's public functions, patched in from outside the package.

A `Tracer` replaces a module attribute (the name a caller looks up, such as
`roughsim.pricing.draw_shocks`) with a wrapper that records one span per
call: name, start, end and the index of the enclosing span. Spans stay in
memory; `layer_times` derives inclusive and self time per span name from
them, where self time is a span's duration minus the time its direct
children cover. `NullTracer` has the same interface and records nothing, so
an op runs through identical code with tracing off.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class NullTracer:
    """Tracing off: spans and counts are no-ops."""

    @contextmanager
    def span(self, name):
        yield

    def add(self, key, amount):
        pass


class Tracer:
    """In-memory span recorder with per-name counts."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index or -1]
        self.counts = {}
        self._stack = [-1]
        self._patched = []

    # -- recording -----------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1]])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def add(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def parent_name(self):
        parent = self._stack[-1]
        return None if parent < 0 else self.spans[parent][0]

    # -- patching ------------------------------------------------------

    def wrap(self, module, attr, name, count=None, skip_inside=None):
        """Replace `module.attr` by a span-recording wrapper.

        `count(tracer, result, *args, **kwargs)` runs after each call to
        record sizes. Calls made directly inside a span named
        `skip_inside` are passed through unrecorded: they belong to that
        span's own work (for example the Black-Scholes calls that the
        implied-vol root finder makes).
        """
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            if skip_inside is not None and self.parent_name() == skip_inside:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                count(self, result, *args, **kwargs)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, fn))

    def unwrap_all(self):
        """Restore every patched attribute, newest first."""
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)


def layer_times(spans):
    """Per span name: (inclusive seconds, self seconds, span count)."""
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = {}
    for (name, start, end, _), child in zip(spans, covered):
        total, own, calls = out.get(name, (0.0, 0.0, 0))
        out[name] = (total + end - start, own + end - start - child, calls + 1)
    return out

"""Spans recorded from outside helios by rebinding module attributes.

A `Tracer` rebinds a function name in the namespace of the helios module
that calls it (for example `helios.evo.sequence_cost`, the binding made by
`from .costing import sequence_cost`) to a wrapper that records one span
per call: name id, parent span, window id, start and end.  Binding per
calling module is what attributes a layer to its caller.  Spans live in
flat `array` columns, so a traced pass of a few hundred thousand calls
stays a few MB.  No file under `src/` is touched and `restore()` puts every
original back.
"""

from __future__ import annotations

import time
from array import array

perf_counter = time.perf_counter


class Tracer:
    """Spans and counts of one pass, and the wrappers that record them."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.window = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.current_window = -1
        self.windows_opened = 0
        self.counts: dict[str, float] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def add_span(self, name: str, start: float, end: float,
                 parent: int = -1, window: int = -1) -> int:
        """Append a finished span (used by tests and hand-built trees)."""
        i = len(self.start)
        self.name.append(self.name_id(name))
        self.parent.append(parent)
        self.window.append(window)
        self.start.append(start)
        self.end.append(end)
        return i

    def wrap(self, fn, name, before=None, after=None, opens_window=False):
        """Wrapper that records a span around each call of `fn`.

        `name` is a span name or a callable (args, kwargs) -> name, for
        layers whose identity is observable from the input.
        `before(args, kwargs)` runs ahead of the span and
        `after(span_index, args, kwargs, result)` after it closes, so
        neither is charged to the wrapped layer.
        """
        names, parents, windows = self.name, self.parent, self.window
        starts, ends, stack = self.start, self.end, self.stack
        fixed = None if callable(name) else self.name_id(name)

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            nid = fixed if fixed is not None else self.name_id(name(args, kwargs))
            i = len(starts)
            if opens_window:
                self.current_window = self.windows_opened
                self.windows_opened += 1
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            windows.append(self.current_window)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if after is not None:
                after(i, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching ----------------------------------------------------------

    def patch(self, module, attr: str, wrapper) -> None:
        """Rebind `module.attr` to `wrapper` until restore()."""
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def self_times(parent, start, end) -> list[float]:
    """Per-span self time: its duration minus its direct children's.

    Tracer.wrap keeps a call stack in one thread, so child spans lie inside
    their parent and never overlap each other.
    """
    out = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            out[p] -= end[i] - start[i]
    return out


def layer_totals(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds."""
    selfs = self_times(tracer.parent, tracer.start, tracer.end)
    totals = {name: {"calls": 0, "s": 0.0, "self_s": 0.0}
              for name in tracer.names}
    for nid, s, e, own in zip(tracer.name, tracer.start, tracer.end, selfs):
        t = totals[tracer.names[nid]]
        t["calls"] += 1
        t["s"] += e - s
        t["self_s"] += own
    return totals

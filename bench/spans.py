"""In-memory spans around calls into the package's layers.

A span has a name, the layer (module) it belongs to, start and end times,
the span that caused it and the thread it ran on. Calls made on a worker
thread that has no open span of its own are parented to the innermost span
open on the main thread, which is how the bake's thread pool ends up under
the `bake` span. Spans stay in memory until `dump`.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict


class Recorder:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.phase = "op"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, name: str, fn, attrs=None):
        """Return `fn` wrapped in a span; `attrs(args, result)` adds counts."""
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = rec._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = rec._main_stack[-1] if rec._main_stack else None
            sid = next(rec._ids)
            phase = rec.phase
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
            span = {"id": sid, "name": name, "layer": layer, "start": start,
                    "end": end, "parent": parent, "phase": phase,
                    "thread": threading.get_ident()}
            if attrs is not None:
                span.update(attrs(args, result))
            rec.spans.append(span)
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump(sorted(self.spans, key=lambda s: s["start"]), f)


def _covered(intervals: list[tuple[int, int]]) -> int:
    total, end = 0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def self_ms_by_layer(spans: list[dict], phase: str = "op") -> dict[str, float]:
    """Each layer's time not covered by its spans' children, in ms.

    Children on several threads may overlap; their union is subtracted once.
    """
    kids: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            kids[s["parent"]].append((s["start"], s["end"]))
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        if s["phase"] != phase:
            continue
        inside = [(max(a, s["start"]), min(b, s["end"]))
                  for a, b in kids.get(s["id"], ())]
        inside = [(a, b) for a, b in inside if b > a]
        own = (s["end"] - s["start"]) - _covered(inside)
        out[s["layer"]] += own / 1e6
    return dict(out)

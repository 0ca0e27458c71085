"""In-memory spans around calls into stutterkit, recorded from outside src/.

A span is (name, start, end, parent, attrs). Spans nest through a stack, so
a span's parent is whichever span was open when it started; self time is a
span's duration minus the durations of its direct children. Nothing is
written while the workload runs: `dump` writes the spans once at the end.

Modules import names directly (`from .training import make_batch`), so a
wrapper must be installed where the caller looks the name up: on the module
whose globals the caller reads, on the class for methods looked up through
the type, or on the instance for per-layer methods. `Tracer.patch` does all
three and `Tracer.restore` undoes them in reverse order.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

_MISSING = object()


class Tracer:
    """Records spans when enabled; when disabled `call` is a plain call."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.attrs: list[dict | None] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording ------------------------------------------------------------
    def _open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.attrs.append(None)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def _close(self, i: int):
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs), inside a span named `name` when enabled."""
        if not self.enabled:
            return fn(*args, **kwargs)
        i = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(i)

    def wrap(self, fn, name: str, after=None):
        """A traced stand-in for fn; after(result, args, kwargs) -> span attrs."""
        tracer = self

        def traced(*args, **kwargs):
            i = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if after is not None:
                tracer.attrs[i] = after(result, args, kwargs)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, after=None):
        """Replace owner.attr by a traced wrapper until `restore`."""
        previous = vars(owner).get(attr, _MISSING)
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, after))
        self._patches.append((owner, attr, previous))

    def restore(self):
        while self._patches:
            owner, attr, previous = self._patches.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    # -- analysis -------------------------------------------------------------
    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        dur = self.durations()
        out = list(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                out[p] -= dur[i]
        return out

    def by_name(self) -> dict[str, list[int]]:
        idx = defaultdict(list)
        for i, n in enumerate(self.names):
            idx[n].append(i)
        return idx

    def ancestor(self, i: int, names) -> int:
        """Index of the nearest enclosing span whose name is in `names`, or -1."""
        p = self.parents[i]
        while p >= 0 and self.names[p] not in names:
            p = self.parents[p]
        return p

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total, median and self-total seconds."""
        dur = self.durations()
        own = self.self_times()
        out = {}
        for name, ids in sorted(self.by_name().items()):
            out[name] = {
                "calls": len(ids),
                "total_s": sum(dur[i] for i in ids),
                "median_s": statistics.median(dur[i] for i in ids),
                "self_s": sum(own[i] for i in ids),
            }
        return out

    def dump(self, path, extra: dict):
        """Write every span (columnar) plus `extra` as one JSON file."""
        t0 = min(self.starts) if self.starts else 0.0
        doc = dict(extra)
        doc["spans"] = {
            "name": self.names,
            "start_s": [round(s - t0, 7) for s in self.starts],
            "end_s": [round(e - t0, 7) for e in self.ends],
            "parent": self.parents,
            "attrs": self.attrs,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def median_ms(tracer: Tracer, ids, times=None) -> float:
    """Median over the given spans of their duration (or of `times`), in ms."""
    if not ids:
        return 0.0
    src = times if times is not None else tracer.durations()
    return 1000.0 * statistics.median(src[i] for i in ids)

"""In-memory spans and the outside-in wrappers that produce them.

A span is ``(name, start, end, parent)``: ``parent`` is the index of the
span that was open on the same thread when this one started, or ``-1``.
Spans live in a list until the run ends, then :meth:`Tracer.write` dumps
them as Chrome trace events.  *Self time* is a span's duration minus the
time covered by its direct children, so nested layers (a publish that
sends frames, a fold that runs the optimizer) are never counted twice.

Wrappers patch public functions of the program *from outside* and are
always undone by :meth:`Tracer.restore`.  They must be installed after a
process or socket backend has forked its workers: a forked worker would
inherit the wrappers, and its spans would never reach the driver.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from dataclasses import dataclass

_MISSING = object()


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int = -1
    thread: int = 0
    nbytes: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Per-span self time: duration minus the summed durations of its
    direct children (clamped at zero against clock jitter)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    return [max(0.0, s.duration - c) for s, c in zip(spans, child)]


def totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: ``count``, summed ``self_s``, summed ``total_s`` and
    ``nbytes`` (own bytes plus every descendant's, so a publish span
    carries the bytes of the frames it sent)."""
    selfs = self_times(spans)
    subtree_bytes = [s.nbytes for s in spans]
    # Children always come after their parent, so one reverse pass
    # accumulates every subtree.
    for i in range(len(spans) - 1, -1, -1):
        p = spans[i].parent
        if p >= 0:
            subtree_bytes[p] += subtree_bytes[i]
    out: dict[str, dict[str, float]] = {}
    for s, st, nb in zip(spans, selfs, subtree_bytes):
        agg = out.setdefault(s.name, {"count": 0, "self_s": 0.0, "total_s": 0.0, "nbytes": 0})
        agg["count"] += 1
        agg["self_s"] += st
        agg["total_s"] += s.duration
        agg["nbytes"] += nb
    return out


class Tracer:
    """Collects spans from any thread; patches and restores wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        span = Span(name, time.perf_counter(), 0.0, stack[-1] if stack else -1,
                    threading.get_ident())
        with self._lock:
            idx = len(self.spans)
            self.spans.append(span)
        stack.append(idx)
        return idx

    def close(self, idx: int, nbytes: int = 0) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.nbytes = nbytes
        self._stack().pop()

    def wrap(self, fn, name: str, nbytes=None):
        """``fn`` timed as span ``name``; ``nbytes(args, kwargs, result)``
        (optional) sizes the payload the call moved."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.close(idx, nbytes(args, kwargs, result) if nbytes else 0)

        return wrapper

    def patch(self, owner, attr: str, name: str, nbytes=None) -> None:
        """Replace ``owner.attr`` (a class, module or instance attribute)
        with a timed wrapper; :meth:`restore` puts the original back."""
        original = owner.__dict__.get(attr, _MISSING)
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, nbytes))
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: str, meta: dict) -> None:
        """Chrome trace events (``chrome://tracing`` / Perfetto), one
        complete event per span, with the parent index kept in ``args``."""
        t0 = min((s.start for s in self.spans), default=0.0)
        events = [
            {"name": s.name, "ph": "X", "pid": 0, "tid": s.thread,
             "ts": (s.start - t0) * 1e6, "dur": s.duration * 1e6,
             "args": {"id": i, "parent": s.parent, "bytes": s.nbytes}}
            for i, s in enumerate(self.spans)
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "otherData": meta}, fh)


"""In-memory span recorder: timed spans around calls into a layer.

The benchmark records spans from its own files, around calls into each
layer's public functions (:mod:`probes` installs the wrappers); the
program under test is not edited.  A span has a name, a start and an end,
the span that caused it (its parent on the same thread) and the trace id
of the top-level span it belongs to, so the spans of one request share an
identifier.  A span's self time is its duration minus the time its child
spans cover.

Spans stay in memory; :meth:`SpanRecorder.records` hands them out when
the benchmark ends.  Appending one finished span is a single ``list.append``
(atomic under the interpreter lock), so threads record without a lock.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
import time
from typing import Callable, Dict, List, NamedTuple, Optional


class SpanRecord(NamedTuple):
    name: str
    parent: Optional[str]
    trace: int
    start: float
    end: float
    self_time: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Span:
    __slots__ = ("recorder", "name", "parent", "trace", "start", "child")

    def __init__(self, recorder: "SpanRecorder", name: str) -> None:
        self.recorder = recorder
        self.name = name

    def __enter__(self) -> "_Span":
        recorder = self.recorder
        stack = recorder._stack()
        parent = stack[-1] if stack else None
        self.parent = parent
        self.trace = parent.trace if parent is not None else next(recorder._traces)
        self.child = 0.0
        stack.append(self)
        self.start = recorder.clock()
        return self

    def __exit__(self, *exc_info) -> bool:
        recorder = self.recorder
        end = recorder.clock()
        recorder._stack().pop()
        duration = end - self.start
        parent = self.parent
        if parent is not None:
            parent.child += duration
        recorder._records.append(SpanRecord(
            self.name,
            parent.name if parent is not None else None,
            self.trace,
            self.start,
            end,
            duration - self.child,
        ))
        return False


class SpanRecorder:
    """Collects spans and named counts; ``clock`` is injectable for tests."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._local = threading.local()
        self._traces = itertools.count(1)
        self._records: List[SpanRecord] = []
        self.counts: Dict[str, int] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def records(self) -> List[SpanRecord]:
        return list(self._records)

    def clear(self) -> None:
        self._records = []
        self.counts = {}

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a wrapper that records span ``name``.

        ``owner`` is a class or a module.  Static and class methods keep
        their binding: the wrapper calls the already-bound original.
        """
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else None
        fn = getattr(owner, attr)
        span = self.span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with span(name):
                return fn(*args, **kwargs)

        if isinstance(raw, (staticmethod, classmethod)):
            wrapper = staticmethod(wrapper)
        setattr(owner, attr, wrapper)


def summarize(records: List[SpanRecord]) -> Dict[str, Dict[str, list]]:
    """Per span name: durations and self times in milliseconds, parents."""
    out: Dict[str, Dict[str, list]] = {}
    for rec in records:
        entry = out.setdefault(rec.name, {"ms": [], "self_ms": [], "parent": []})
        entry["ms"].append((rec.end - rec.start) * 1000.0)
        entry["self_ms"].append(rec.self_time * 1000.0)
        entry["parent"].append(rec.parent)
    return out


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0

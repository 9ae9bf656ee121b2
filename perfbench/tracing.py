"""In-memory spans recorded from the benchmark's own code.

A span is (name, start, end, parent).  Spans are kept in a list while the
benchmark runs and written out once at the end as Chrome Trace Event JSON
(viewable in Perfetto).  A layer's self time is its span's duration minus the
time its direct child spans cover.

With tracing off, :data:`OFF` hands out one shared no-op context manager, so
the untraced run pays one attribute lookup and call per operation.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from typing import Dict, List


class _NoSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class _Off:
    enabled = False
    _span = _NoSpan()

    def span(self, name: str):
        return self._span


OFF = _Off()


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", index: int):
        self.tracer = tracer
        self.index = index

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.index)
        return False


class Tracer:
    """Records nested spans on ``time.perf_counter`` (one thread per tracer)."""

    enabled = True

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self._stack: List[int] = []

    def span(self, name: str) -> _Span:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return _Span(self, index)

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def durations(self, name: str) -> List[float]:
        return [e - s for n, s, e in zip(self.names, self.starts, self.ends) if n == name]

    def self_times(self) -> Dict[str, List[float]]:
        """Per layer name, the self time (seconds) of every span."""
        covered = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += self.ends[i] - self.starts[i]
        out: Dict[str, List[float]] = defaultdict(list)
        for i, name in enumerate(self.names):
            out[name].append(self.ends[i] - self.starts[i] - covered[i])
        return dict(out)

    def write_chrome_trace(self, path: str) -> None:
        events = []
        for i, name in enumerate(self.names):
            event = {
                "name": name,
                "ph": "X",
                "ts": self.starts[i] * 1e6,
                "dur": (self.ends[i] - self.starts[i]) * 1e6,
                "pid": os.getpid(),
                "tid": 0,
                "args": {"trace_id": self.trace_id, "parent": self.parents[i]},
            }
            events.append(event)
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)

"""In-memory span recording, self-time arithmetic and the Chrome trace.

A span is one call into a layer: name, start, end, the span that caused
it (its parent on the same thread), thread and repetition.  Spans stay
in memory until the run ends.  A span's *self time* is its duration
minus the part its child spans cover; because a thread's spans nest,
the self times of one thread's spans sum to the duration of its root
spans — which is how the layer table sums to client wall.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

#: Name of the root span the client thread opens around each timed section.
CLIENT = "bench.client"


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "thread", "rep", "counts")

    def __init__(self, sid, name, start, parent, thread, rep):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread
        self.rep = rep
        self.counts: Optional[Dict[str, float]] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans from any thread; each thread nests its own spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.thread_names: Dict[int, str] = {}
        self.rep = 0
        self._ids = itertools.count(1)
        self._local = threading.local()

    def begin(self, name: str) -> Span:
        stack = self._local.__dict__.setdefault("stack", [])
        thread = threading.get_ident()
        if thread not in self.thread_names:
            self.thread_names[thread] = threading.current_thread().name
        span = Span(
            next(self._ids),
            name,
            time.perf_counter(),
            stack[-1].sid if stack else 0,
            thread,
            self.rep,
        )
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._local.stack.pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    def wrap(
        self,
        name: str,
        function: Callable,
        counts: Optional[Callable[[tuple, Any], Dict[str, float]]] = None,
    ) -> Callable:
        """``function`` with a span around every call.

        ``counts(args, result)`` runs after the span closed, so what it
        costs is charged to the caller, not to the layer.
        """

        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self.end(span)
            if counts is not None:
                span.counts = counts(args, result)
            return result

        traced.__wrapped__ = function
        return traced


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id → duration minus the time its direct children cover."""
    spans = list(spans)
    covered: Dict[int, float] = defaultdict(float)
    for span in spans:
        covered[span.parent] += span.duration
    return {span.sid: span.duration - covered[span.sid] for span in spans}


def layer_table(spans: Iterable[Span], thread_names: Dict[int, str]) -> List[dict]:
    """One row per (thread, span name): calls, busy and self seconds.

    On the client thread (the one that opened ``bench.client`` spans) the
    self times sum to client wall, and ``share`` is the row's part of it;
    the ``bench.client`` row itself is the unattributed remainder.
    """
    spans = list(spans)
    own = self_times(spans)
    client_threads = {span.thread for span in spans if span.name == CLIENT}
    wall = sum(span.duration for span in spans if span.name == CLIENT)
    rows: Dict[tuple, dict] = {}
    for span in spans:
        row = rows.setdefault(
            (span.thread, span.name),
            {
                "thread": thread_names.get(span.thread, str(span.thread)),
                "span": span.name,
                "calls": 0,
                "busy_s": 0.0,
                "self_s": 0.0,
            },
        )
        row["calls"] += 1
        row["busy_s"] += span.duration
        row["self_s"] += own[span.sid]
    for (thread, _name), row in rows.items():
        if thread in client_threads and wall > 0:
            row["share"] = row["self_s"] / wall
    return sorted(
        rows.values(), key=lambda row: (row["thread"], -row["self_s"])
    )


def chrome_trace(spans: Iterable[Span], thread_names: Dict[int, str]) -> dict:
    """The spans as Chrome-trace JSON (``chrome://tracing``, Perfetto)."""
    events: List[dict] = [
        {
            "ph": "M",
            "name": "thread_name",
            "pid": 1,
            "tid": thread,
            "args": {"name": name},
        }
        for thread, name in thread_names.items()
    ]
    for span in spans:
        args: Dict[str, Any] = {"rep": span.rep, "id": span.sid, "parent": span.parent}
        if span.counts:
            args.update(span.counts)
        events.append(
            {
                "ph": "X",
                "name": span.name,
                "cat": span.name.split(".")[0],
                "pid": 1,
                "tid": span.thread,
                "ts": span.start * 1e6,
                "dur": span.duration * 1e6,
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path, spans, thread_names) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(spans, thread_names), handle)

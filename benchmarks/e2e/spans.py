"""The benchmark's own span recorder.

Spans are recorded from the benchmark's files, around its calls into
each layer (``bench.query`` > ``bench.parse``, ``bench.plan``,
``bench.sql``); they stay in memory and are written as Chrome
trace_event JSON when the run ends. Each client thread keeps its own
stack, so a span's parent is the span the same client had open.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    #: one id per query: the spans of one request share it
    qid: int
    start: float
    end: float = 0.0
    parent: "Span | None" = None
    children: list["Span"] = field(default_factory=list)
    args: dict = field(default_factory=dict)
    tid: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """The span's duration minus what its child spans cover."""
        return self.duration - sum(c.duration for c in self.children)


class SpanRecorder:
    def __init__(self):
        self.epoch = time.perf_counter()
        self.spans: list[Span] = []
        self._tls = threading.local()
        self._qids = itertools.count(1)
        self._tids = itertools.count(1)

    def next_qid(self) -> int:
        return next(self._qids)

    @contextmanager
    def span(self, name: str, qid: int = 0, **args):
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
            self._tls.tid = next(self._tids)
        parent = stack[-1] if stack else None
        sp = Span(name, qid, time.perf_counter(), parent=parent, args=args, tid=self._tls.tid)
        if parent is not None:
            parent.children.append(sp)
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            self.spans.append(sp)  # list.append is atomic under the GIL

    def chrome_trace(self) -> dict:
        events = [
            {
                "name": s.name,
                "cat": "bench",
                "ph": "X",
                "ts": round((s.start - self.epoch) * 1e6, 3),
                "dur": round(s.duration * 1e6, 3),
                "pid": 1,
                "tid": s.tid,
                "args": {"qid": s.qid, "parent": s.parent.name if s.parent else None,
                         "self_us": round(s.self_time * 1e6, 3), **s.args},
            }
            for s in sorted(self.spans, key=lambda s: s.start)
        ]
        meta = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
                 "args": {"name": "benchmarks/e2e"}}]
        return {"traceEvents": meta + events, "displayTimeUnit": "ms"}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)

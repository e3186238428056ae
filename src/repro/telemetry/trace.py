"""Distributed query tracing.

A :class:`Tracer` opens hierarchical spans over a query's lifetime:

    query → phase (plan / execute) → attempt → operator/exchange
          → per-site pipeline → network send/recv leg

Spans carry the query id, the cluster node they ran against, and the
exchange tag of any network traffic they caused, and record wall time,
simulated time (the fault clock), rows, and bytes. The executor and
:class:`~repro.network.simnet.SimNetwork` push spans from the query's
driver thread, so a shuffle's send, hub-forward, and recv legs land in
one trace under the operator that caused them; exchange tags
(``q<id>|shuf3``) correlate the legs across sites.

Span stacks are thread-local: concurrent queries each trace on their own
driver thread without contention. The only shared state — the qid → root
registry — is touched once per query under a small lock.

Export is Chrome ``trace_event`` JSON (the *JSON Array Format* with a
``traceEvents`` wrapper), loadable in ``chrome://tracing`` and Perfetto:
every span becomes a complete (``"ph": "X"``) event with the query as
the pid and the cluster node as the tid, so Perfetto renders one track
per site and nesting must — and does — never overlap within a site.
Span events (chaos faults, retries) become instant (``"ph": "i"``)
events on the same track.

Operator spans are the engine's one per-operator record: their args
carry the operator's counter delta (batches, scan rows, pages, sets
skipped / total, pages skipped and pushed, network and spilled bytes)
and a chain's folded operators are listed under ``fused``. EXPLAIN
ANALYZE (:mod:`repro.telemetry.profile`) and ``sys.query_operators``
render them; EXPLAIN ANALYZE on an untraced cluster runs its query
under a one-query tracer. The slow-query view is a ``sys.queries``
select (``duration_s``, ``restarts``) plus the exported trace of a qid.

When tracing is disabled the tracer is simply *absent* (``None``) at
every instrumentation point; the cost of disabled telemetry is one
attribute load and ``is not None`` test per operator, and no span is
ever built (``tests/test_telemetry.py::test_untraced_query_constructs_no_spans``).
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

#: pseudo-node for spans not pinned to a cluster node (planner, driver)
DRIVER_TID = 99_999


class Span:
    """One timed region of a query's lifetime.

    ``ts``/``dur`` are wall seconds relative to the tracer epoch;
    ``sim_ts``/``sim_dur`` are fault-clock ticks (simulated time) when a
    sim clock is wired. ``rows``/``bytes`` summarize the data the region
    produced or moved; anything else goes in ``args``.
    """

    __slots__ = (
        "name",
        "cat",
        "qid",
        "node",
        "tag",
        "ts",
        "dur",
        "sim_ts",
        "sim_dur",
        "rows",
        "bytes",
        "args",
        "children",
        "events",
    )

    def __init__(
        self,
        name: str,
        cat: str = "",
        qid: Optional[int] = None,
        node: Optional[int] = None,
        tag: str = "",
        ts: float = 0.0,
        sim_ts: int = 0,
        **args,
    ):
        self.name = name
        self.cat = cat
        self.qid = qid
        self.node = node
        self.tag = tag
        self.ts = ts
        self.dur = 0.0
        self.sim_ts = sim_ts
        self.sim_dur = 0
        self.rows: Optional[int] = None
        self.bytes: Optional[int] = None
        self.args = args
        self.children: list["Span"] = []
        self.events: list[tuple[str, float, dict]] = []

    # -- introspection helpers (tests, EXPLAIN ANALYZE) ------------------------
    def walk(self) -> Iterator["Span"]:
        yield self
        for c in self.children:
            yield from c.walk()

    def find(self, name: str) -> list["Span"]:
        return [s for s in self.walk() if s.name == name]

    def pretty(self, indent: int = 0) -> str:
        """Text rendering of the span tree (the README's screenshot-
        equivalent walkthrough uses this)."""
        pad = "  " * indent
        bits = [f"{self.dur * 1e3:8.3f}ms"]
        if self.node is not None:
            bits.append(f"node={self.node}")
        if self.rows is not None:
            bits.append(f"rows={self.rows}")
        if self.bytes is not None:
            bits.append(f"bytes={self.bytes}")
        if self.tag:
            bits.append(f"tag={self.tag}")
        lines = [f"{pad}{self.name:<24s} {' '.join(bits)}"]
        for name, _ts, args in self.events:
            detail = " ".join(f"{k}={v}" for k, v in args.items() if v not in (None, ""))
            lines.append(f"{pad}  ! {name} {detail}".rstrip())
        for c in self.children:
            lines.append(c.pretty(indent + 1))
        return "\n".join(lines)


class Tracer:
    """Hierarchical span collector with per-thread span stacks.

    ``sim_clock`` (optional) supplies simulated time — the chaos fault
    clock — so spans carry both wall and simulated durations and fault
    post-mortems line up with the injector's event log.
    """

    def __init__(
        self,
        enabled: bool = True,
        retention: int = 16,
        sim_clock: Optional[Callable[[], int]] = None,
    ):
        self.enabled = enabled
        self.retention = max(1, retention)
        self.sim_clock = sim_clock
        #: called (outside the registry lock) with each qid whose trace
        #: falls out of the retention window — lets the query registry
        #: drop dangling profile references while keeping summary rows
        self.on_evict: Optional[Callable[[int], None]] = None
        self._epoch = time.perf_counter()
        self._tls = threading.local()
        self._traces: "OrderedDict[int, Span]" = OrderedDict()
        self._mu = threading.Lock()

    # -- clocks ----------------------------------------------------------------
    def now(self) -> float:
        return time.perf_counter() - self._epoch

    def _sim_now(self) -> int:
        return self.sim_clock() if self.sim_clock is not None else 0

    def _stack(self) -> list[Span]:
        st = getattr(self._tls, "stack", None)
        if st is None:
            st = self._tls.stack = []
        return st

    def current(self) -> Optional[Span]:
        st = self._stack()
        return st[-1] if st else None

    # -- span lifecycle -----------------------------------------------------------
    def begin(
        self,
        name: str,
        cat: str = "",
        node: Optional[int] = None,
        tag: str = "",
        **args,
    ) -> Span:
        """Open a span as a child of the thread's current span.

        A span opened with an empty stack is an *orphan*: it still
        nests anything opened beneath it, but belongs to no query trace
        and is dropped when it closes (background 2PC traffic outside
        any query traces nothing).
        """
        st = self._stack()
        parent = st[-1] if st else None
        sp = Span(
            name,
            cat=cat,
            qid=parent.qid if parent is not None else None,
            node=node if node is not None else (parent.node if parent else None),
            tag=tag,
            ts=self.now(),
            sim_ts=self._sim_now(),
            **args,
        )
        if parent is not None:
            parent.children.append(sp)
        st.append(sp)
        return sp

    def end(
        self,
        span: Span,
        rows: Optional[int] = None,
        nbytes: Optional[int] = None,
        **args,
    ) -> None:
        span.dur = self.now() - span.ts
        span.sim_dur = self._sim_now() - span.sim_ts
        if rows is not None:
            span.rows = rows
        if nbytes is not None:
            span.bytes = nbytes
        if args:
            span.args.update(args)
        st = self._stack()
        # robust unwind: an exception may have skipped inner end() calls
        while st and st[-1] is not span:
            st.pop()
        if st:
            st.pop()

    @contextmanager
    def span(self, name: str, cat: str = "", node: Optional[int] = None, tag: str = "", **args):
        sp = self.begin(name, cat=cat, node=node, tag=tag, **args)
        try:
            yield sp
        finally:
            self.end(sp)

    def point(self, name: str, cat: str = "", node: Optional[int] = None, tag: str = "", **args) -> Span:
        """A zero-duration child span (network legs, fsyncs)."""
        sp = self.begin(name, cat=cat, node=node, tag=tag, **args)
        self.end(sp)
        return sp

    def event(self, name: str, **args) -> None:
        """Attach an instant event to the current span (chaos faults,
        retries, admission waits). No-op outside any span."""
        cur = self.current()
        if cur is not None:
            args.setdefault("sim_tick", self._sim_now())
            cur.events.append((name, self.now(), args))

    # -- query registry -----------------------------------------------------------
    def start_query(self, qid: int, text: str = "") -> Span:
        """Open a query root span and register it for export."""
        root = self.begin("query", cat="query", sql=text)
        root.qid = qid
        evicted: list[int] = []
        with self._mu:
            self._traces[qid] = root
            while len(self._traces) > self.retention:
                old_qid, _ = self._traces.popitem(last=False)
                evicted.append(old_qid)
        # retention eviction is observable state: the query registry
        # drops its heavy per-operator references (but keeps the
        # summary row) when a trace falls out of the window
        if self.on_evict is not None:
            for old_qid in evicted:
                self.on_evict(old_qid)
        return root

    def root(self, qid: Optional[int] = None) -> Optional[Span]:
        with self._mu:
            if qid is None:
                return next(reversed(self._traces.values()), None)
            return self._traces.get(qid)

    def qids(self) -> list[int]:
        with self._mu:
            return list(self._traces)

    # -- Chrome trace_event export ---------------------------------------------
    def export(self, qid: Optional[int] = None) -> Optional[dict]:
        """The trace of ``qid`` (default: latest) as a Chrome
        ``trace_event`` JSON object, or None when no such trace exists."""
        root = self.root(qid)
        if root is None:
            return None
        return export_span(root)


def _tid(span: Span) -> int:
    return span.node if span.node is not None else DRIVER_TID


def export_span(root: Span) -> dict:
    """Serialize one span tree to the Chrome trace_event JSON format."""
    pid = root.qid if root.qid is not None else 0
    events: list[dict] = []
    tids: dict[int, str] = {}

    def emit(sp: Span) -> None:
        tid = _tid(sp)
        tids.setdefault(tid, "driver" if tid == DRIVER_TID else f"node {sp.node}")
        args = {k: v for k, v in sp.args.items() if v is not None}
        if sp.rows is not None:
            args["rows"] = sp.rows
        if sp.bytes is not None:
            args["bytes"] = sp.bytes
        if sp.tag:
            args["tag"] = sp.tag
        args["sim_ticks"] = sp.sim_dur
        events.append(
            {
                "name": sp.name,
                "cat": sp.cat or "span",
                "ph": "X",
                "ts": round(sp.ts * 1e6, 3),
                "dur": round(max(sp.dur, 0.0) * 1e6, 3),
                "pid": pid,
                "tid": tid,
                "args": args,
            }
        )
        for name, ts, eargs in sp.events:
            events.append(
                {
                    "name": name,
                    "cat": "event",
                    "ph": "i",
                    "s": "t",
                    "ts": round(ts * 1e6, 3),
                    "pid": pid,
                    "tid": tid,
                    "args": {k: v for k, v in eargs.items() if v not in (None, "")},
                }
            )
        for c in sp.children:
            emit(c)

    emit(root)
    meta = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": f"query {pid}"},
        }
    ]
    for tid, name in sorted(tids.items()):
        meta.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": name},
            }
        )
    return {
        "traceEvents": meta + events,
        "displayTimeUnit": "ms",
        "otherData": {"qid": root.qid, "format": "repro-trace-v1"},
    }


#: phases legal in traces we emit (subset of the Chrome spec)
_KNOWN_PHASES = {"X", "B", "E", "i", "I", "M", "s", "f", "t", "C"}


def validate_trace(obj: object) -> list[str]:
    """Validate ``obj`` against the Chrome trace_event schema (the subset
    chrome://tracing and Perfetto require). Returns a list of problems —
    empty means the trace is loadable."""
    errors: list[str] = []
    if not isinstance(obj, dict):
        return ["top-level value must be an object with 'traceEvents'"]
    events = obj.get("traceEvents")
    if not isinstance(events, list) or not events:
        return ["'traceEvents' must be a non-empty array"]
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if not isinstance(ev.get("name"), str):
            errors.append(f"{where}: missing string 'name'")
        if ph not in _KNOWN_PHASES:
            errors.append(f"{where}: unknown phase {ph!r}")
            continue
        if ph == "M":
            continue  # metadata events need no timestamp
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            errors.append(f"{where}: 'ts' must be a non-negative number")
        for key in ("pid", "tid"):
            if not isinstance(ev.get(key), int):
                errors.append(f"{where}: '{key}' must be an integer")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"{where}: complete event needs non-negative 'dur'")
        if ph == "i" and ev.get("s") not in (None, "g", "p", "t"):
            errors.append(f"{where}: instant scope must be g/p/t")
        if "args" in ev:
            try:
                json.dumps(ev["args"])
            except TypeError:
                errors.append(f"{where}: args not JSON-serializable")
    return errors

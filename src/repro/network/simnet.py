"""Simulated cluster network.

Connects in-process node objects and *actually routes* payloads hop by
hop through a :class:`~repro.network.topology.Topology`, so hub
forwarding is real data movement, not an annotation. Per-link message
and byte counters plus the set of distinct connections ever opened per
node let tests and benchmarks verify the paper's central claim — the
``N_max`` bound on per-node connections.
"""

from __future__ import annotations

import itertools
import threading
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from ..common.errors import NetworkError
from .topology import Topology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..fault.injector import FaultInjector


@dataclass
class LinkStats:
    messages: int = 0
    bytes: int = 0


@dataclass
class TrafficStats:
    """Per-query-prefix traffic totals (concurrent-stats isolation)."""

    messages: int = 0
    bytes: int = 0
    forwarded_bytes: int = 0


def tag_prefix(tag: str) -> str:
    """The query prefix of an exchange tag.

    Concurrent queries namespace their exchange tags as
    ``q<id>|<exchange>`` so messages never cross-deliver between
    queries; everything before (and including) the first ``|`` is the
    query prefix. Untagged/legacy traffic accounts under ``""``.
    """
    i = tag.find("|")
    return tag[: i + 1] if i >= 0 else ""


class SimNetwork:
    """Thread-safe: concurrent queries send/receive under one reentrant
    lock (the real system's per-socket serialization), and per-query
    byte/message counters are kept alongside the global ones so each
    query's ExecStats stay isolated under concurrency."""

    def __init__(self, node_ids: Iterable[int]):
        self.node_ids = set(node_ids)
        self._inbox: dict[int, deque] = {n: deque() for n in self.node_ids}
        self.links: dict[tuple[int, int], LinkStats] = defaultdict(LinkStats)
        self.connections: dict[int, set[int]] = defaultdict(set)
        self.total_messages = 0
        self.total_bytes = 0
        self.forwarded_bytes = 0  # bytes relayed through hub nodes
        #: per query-prefix traffic (see :func:`tag_prefix`)
        self.tagged: dict[str, TrafficStats] = defaultdict(TrafficStats)
        #: chaos substrate; every send/recv consults it when attached
        self.injector: "FaultInjector | None" = None
        #: telemetry tracer; when set, sends/receives leave point spans
        #: on the calling query's active span (None == zero overhead)
        self.tracer = None
        self._msg_seq = itertools.count(1)
        #: per-node delivered message ids (duplicate suppression)
        self._seen: dict[int, set[int]] = defaultdict(set)
        self._lock = threading.RLock()

    def add_node(self, node_id: int) -> None:
        """Register a new node (elastic scale-out): it gets an inbox and
        may immediately send/receive. Idempotent."""
        with self._lock:
            if node_id in self.node_ids:
                return
            self.node_ids.add(node_id)
            self._inbox[node_id] = deque()

    def attach(self, injector: "FaultInjector | None") -> None:
        """Install (or remove, with None) the fault injector.

        Attaching one — even with the empty schedule — also switches
        receives to canonical ``(src, send-order)`` delivery order, so
        faulted runs compare byte-for-byte against a baseline run that
        attaches an empty-schedule injector.
        """
        self.injector = injector

    # -- raw link sends --------------------------------------------------------
    def send(self, src: int, dst: int, payload: bytes, tag: str = "") -> None:
        """Direct send over the (src, dst) link; opens the connection."""
        self._check(src)
        self._check(dst)
        with self._lock:
            copies = 1
            if self.injector is not None:
                copies = self.injector.on_send(src, dst, len(payload), tag)
            msg_id = next(self._msg_seq)
            # a dropped message still used the wire; charge every copy
            for _ in range(max(copies, 1)):
                self._account(src, dst, len(payload), forwarded=False, tag=tag)
            for _ in range(copies):
                self._deliver(dst, (src, tag, payload, msg_id))
            if self.tracer is not None:
                sp = self.tracer.point(
                    "net.send", cat="net", node=src, tag=tag,
                    dst=dst, hops=1, payload=len(payload),
                )
                # wire bytes == what _account charged (per hop, per copy)
                sp.bytes = len(payload) * max(copies, 1)

    def route_send(
        self, topology: Topology, src: int, dst: int, payload: bytes, tag: str = ""
    ) -> int:
        """Send along the topology's route; returns the hop count.

        Intermediate hops are charged as real link traffic (the hub
        forwarding cost of the n-to-m topology) but the payload is only
        delivered to ``dst``'s inbox.
        """
        with self._lock:
            if src == dst:
                self._deliver(dst, (src, tag, payload, next(self._msg_seq)))
                return 0
            copies = 1
            if self.injector is not None:
                copies = self.injector.on_send(src, dst, len(payload), tag)
            path = topology.route(src, dst)
            if self.injector is not None:
                for hop in path[:-1]:
                    self.injector.on_hop(hop, src, dst, tag)
            for _ in range(max(copies, 1)):
                prev = src
                for hop in path:
                    self._account(prev, hop, len(payload), forwarded=prev != src, tag=tag)
                    prev = hop
            if path[-1] != dst:  # pragma: no cover - topology contract
                raise NetworkError("route did not terminate at destination")
            msg_id = next(self._msg_seq)
            for _ in range(copies):
                self._deliver(dst, (src, tag, payload, msg_id))
            if self.tracer is not None:
                sp = self.tracer.point(
                    "net.send", cat="net", node=src, tag=tag,
                    dst=dst, hops=len(path), payload=len(payload),
                )
                sp.bytes = len(payload) * len(path) * max(copies, 1)
            return len(path)

    def _account(self, src: int, dst: int, nbytes: int, forwarded: bool, tag: str = "") -> None:
        stats = self.links[(src, dst)]
        stats.messages += 1
        stats.bytes += nbytes
        self.connections[src].add(dst)
        self.connections[dst].add(src)
        self.total_messages += 1
        self.total_bytes += nbytes
        q = self.tagged[tag_prefix(tag)]
        q.messages += 1
        q.bytes += nbytes
        if forwarded:
            self.forwarded_bytes += nbytes
            q.forwarded_bytes += nbytes

    def _deliver(self, dst: int, msg: tuple[int, str, bytes, int]) -> None:
        box = self._inbox[dst]
        pos = None
        if self.injector is not None:
            pos = self.injector.reorder_position(len(box))
        if pos is None:
            box.append(msg)
        else:
            box.insert(pos, msg)

    # -- receive ----------------------------------------------------------------
    def recv_all(self, node: int, tag: str | None = None) -> list[tuple[int, str, bytes]]:
        """Drain the node's inbox (optionally only messages with ``tag``).

        With an injector attached, a down node cannot receive, duplicate
        deliveries are suppressed by message id, and the drained messages
        are returned in canonical ``(src, send-order)`` order so fault-
        induced reorderings never change downstream results.
        """
        self._check(node)
        with self._lock:
            if self.injector is not None:
                self.injector.on_recv(node)
            box = self._inbox[node]
            if tag is None:
                out = list(box)
                box.clear()
            else:
                keep: deque = deque()
                out = []
                while box:
                    msg = box.popleft()
                    (out if msg[1] == tag else keep).append(msg)
                self._inbox[node] = keep
            if self.injector is not None:
                seen = self._seen[node]
                fresh = []
                for msg in out:
                    if msg[3] in seen:
                        self.injector.record("dedup", node=node, src=msg[0], tag=msg[1])
                        continue
                    seen.add(msg[3])
                    fresh.append(msg)
                fresh.sort(key=lambda m: (m[0], m[3]))
                out = fresh
            if self.tracer is not None and out:
                sp = self.tracer.point(
                    "net.recv", cat="net", node=node,
                    tag=tag or "", msgs=len(out),
                )
                sp.bytes = sum(len(m[2]) for m in out)
            return [(src, t, payload) for src, t, payload, _ in out]

    def pending(self, node: int) -> int:
        with self._lock:
            return len(self._inbox[node])

    def _check(self, node: int) -> None:
        if node not in self.node_ids:
            raise NetworkError(f"unknown node {node}")

    # -- accounting ---------------------------------------------------------------
    def max_connections(self) -> int:
        """Maximum distinct neighbors any node has talked to."""
        with self._lock:
            return max((len(v) for v in self.connections.values()), default=0)

    def traffic_of(self, prefix: str) -> TrafficStats:
        """A snapshot of one query prefix's traffic totals."""
        with self._lock:
            t = self.tagged.get(prefix)
            return TrafficStats(t.messages, t.bytes, t.forwarded_bytes) if t else TrafficStats()

    def traffic_by_prefix(self) -> dict[str, TrafficStats]:
        """Snapshot of every prefix's traffic (incl. untagged ``""``)."""
        with self._lock:
            return {
                p: TrafficStats(t.messages, t.bytes, t.forwarded_bytes)
                for p, t in self.tagged.items()
            }

    def clear_inboxes(self, prefix: str | None = None) -> None:
        """Drop undelivered messages (query-restart cleanup).

        With ``prefix``, only messages whose tag belongs to that query
        prefix are dropped — concurrent queries' in-flight exchanges
        survive a neighbour's restart. Message-id dedup state is kept in
        the prefix case (restarts send fresh ids; other queries' dedup
        must not be forgotten).
        """
        with self._lock:
            if prefix is None:
                for box in self._inbox.values():
                    box.clear()
                self._seen.clear()
                return
            for node, box in self._inbox.items():
                kept = deque(m for m in box if tag_prefix(m[1]) != prefix)
                self._inbox[node] = kept

    def reset_stats(self) -> None:
        with self._lock:
            self.links.clear()
            self.connections.clear()
            self.tagged.clear()
            self.total_messages = 0
            self.total_bytes = 0
            self.forwarded_bytes = 0

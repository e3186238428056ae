"""Cluster flight recorder: an always-on, bounded ring of structured
operational events for post-incident reconstruction.

The recorder answers "what happened?" after a chaos run, an elastic
event, or a slow query — admission grants and timeouts, fault
injections, health-breaker transitions, placement-epoch publishes,
slow queries, and spills all land here with monotonic per-shard
sequence numbers.

Design constraints (this sits on the query hot path):

- **Lock-sharded.** Threads hash onto ``nshards`` independent rings by
  thread id, so concurrent sessions never contend on one lock. Each
  shard owns its lock, its bounded ``deque``, and its own monotonic
  sequence counter.
- **Bounded.** Each shard ring holds at most ``capacity`` events; the
  oldest drop first. Because events append in sequence order and the
  ring drops from the head, the retained events of a shard are always
  a *contiguous* run of sequence numbers — gapless per shard by
  construction (asserted by the chaos tests).
- **SQL-friendly.** Every event flattens to scalar columns (shard,
  seq, tick, ts, kind, qid, node) plus a ``detail`` payload rendered
  as a sorted-keys JSON string, so ``sys.events`` can expose the ring
  as a relation without any schema gymnastics.

The canonical event order — used by both ``sys.events`` and the CLI
JSON dump so the two agree byte-for-byte — is ``(shard, seq)``.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass

__all__ = ["FlightEvent", "FlightRecorder"]


@dataclass(frozen=True)
class FlightEvent:
    """One recorded cluster event (immutable once recorded)."""

    shard: int  #: ring shard the recording thread hashed onto
    seq: int  #: per-shard monotonic sequence number (gapless among retained)
    tick: int  #: simulated-network tick at record time (0 without chaos)
    ts: float  #: wall-clock seconds since the recorder started
    kind: str  #: event type, e.g. "admission_grant", "breaker_open"
    qid: int  #: query id, or -1 when the event is not query-scoped
    node: int  #: worker/coordinator node id, or -1 when not node-scoped
    detail: str  #: sorted-keys JSON object with event-specific fields

    def as_dict(self) -> dict:
        return {
            "shard": self.shard,
            "seq": self.seq,
            "tick": self.tick,
            "ts": self.ts,
            "kind": self.kind,
            "qid": self.qid,
            "node": self.node,
            "detail": self.detail,
        }


class _Shard:
    __slots__ = ("lock", "ring", "next_seq", "dropped")

    def __init__(self, capacity: int):
        self.lock = threading.Lock()
        self.ring: deque[FlightEvent] = deque(maxlen=capacity)
        self.next_seq = 0
        self.dropped = 0


class FlightRecorder:
    """Always-on bounded event ring, sharded by recording thread."""

    def __init__(self, nshards: int = 4, capacity: int = 4096, clock=None):
        if nshards < 1:
            raise ValueError("recorder needs at least one shard")
        if capacity < 1:
            raise ValueError("recorder shard capacity must be positive")
        self.nshards = nshards
        self.capacity = capacity
        self._shards = [_Shard(capacity) for _ in range(nshards)]
        #: returns the current simulated tick; Database points this at
        #: the chaos injector's tick counter when chaos is attached
        self.clock = clock
        self._t0 = time.perf_counter()

    # -- recording ------------------------------------------------------

    def record(self, kind: str, qid: int = -1, node: int = -1, **detail) -> None:
        """Record one event. Cheap and thread-safe: one sharded lock
        acquisition plus a deque append."""
        tick = 0
        if self.clock is not None:
            try:
                tick = int(self.clock())
            except Exception:
                tick = 0
        payload = json.dumps(detail, sort_keys=True, default=str) if detail else "{}"
        ts = time.perf_counter() - self._t0
        shard_id = threading.get_ident() % self.nshards
        shard = self._shards[shard_id]
        with shard.lock:
            seq = shard.next_seq
            shard.next_seq = seq + 1
            if len(shard.ring) == self.capacity:
                shard.dropped += 1
            shard.ring.append(
                FlightEvent(shard_id, seq, tick, ts, kind, int(qid), int(node), payload)
            )

    # -- reading --------------------------------------------------------

    def events(self) -> list[FlightEvent]:
        """All retained events in canonical ``(shard, seq)`` order."""
        out: list[FlightEvent] = []
        for shard in self._shards:
            with shard.lock:
                out.extend(shard.ring)
        out.sort(key=lambda e: (e.shard, e.seq))
        return out

    def dump(self) -> list[dict]:
        """Retained events as plain dicts, canonical order."""
        return [e.as_dict() for e in self.events()]

    def dump_json(self) -> str:
        """The post-incident artifact: the full retained ring as JSON.

        ``sys.events`` rows are materialized from the same
        ``events()`` snapshot, so a dump taken while the cluster is
        quiet matches the table byte-for-byte.
        """
        return json.dumps(
            {"nshards": self.nshards, "capacity": self.capacity, "events": self.dump()},
            indent=2,
            sort_keys=True,
        )

    def stats(self) -> dict:
        recorded = dropped = retained = 0
        for shard in self._shards:
            with shard.lock:
                recorded += shard.next_seq
                dropped += shard.dropped
                retained += len(shard.ring)
        return {
            "recorded": recorded,
            "retained": retained,
            "dropped": dropped,
            "nshards": self.nshards,
            "capacity": self.capacity,
        }

    def clear(self) -> None:
        for shard in self._shards:
            with shard.lock:
                shard.ring.clear()
                # sequence numbers keep counting: a cleared shard's next
                # event continues the monotonic series

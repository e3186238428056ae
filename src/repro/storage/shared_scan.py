"""Cooperative shared scans (one page pass serves K concurrent queries).

When several sessions scan the same table fragment at the same time, the
first one becomes the *leader* of a shared pass: it walks the page sets
in order exactly as a solo scan would, and — once at least one
*follower* has attached — additionally publishes each surviving set's
decoded column arrays into the pass. Followers walk the same set order,
apply their **own** predicate bitmaps to the published arrays, and only
fall back to reading pages themselves for sets the leader skipped (its
predicate pruned them), already evicted, or has not reached within the
wait budget. The result is one physical page pass plus per-query filter
evaluation, instead of K redundant decode passes.

Safety properties:

* the leader never waits on anyone — it advances ``progress`` for every
  set (including pruned ones) and marks the pass ``done`` in a
  ``finally``, so an abandoned leader (LIMIT, error, generator close)
  can never strand followers;
* followers wait bounded: each scan carries a small wall-clock wait
  budget, and once it is spent (leader stalled or descheduled) the
  follower degrades to plain self-reads for the rest of the pass —
  published sets whose ``progress`` already passed are still used for
  free;
* a follower's output is byte-identical to its solo scan: published
  arrays are the same decoded values it would have produced itself, and
  set order / batch boundaries are unchanged.

Placement-epoch pinning needs no special handling here: elastic
rebalances publish *new* ``TableStorage``/fragment objects per epoch, so
scans pinned to different epochs coordinate on different
:class:`SharedScanState` instances and can never share pages across an
epoch boundary.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict

#: decoded sets a pass retains for late followers; oldest evicted first
MAX_PUBLISHED_SETS = 64

#: total wall-clock seconds a follower may spend waiting on its leader
#: across one whole scan before degrading to self-reads
FOLLOWER_WAIT_BUDGET_S = 2.0

#: granularity of a single bounded wait on the pass condition
_WAIT_STEP_S = 0.05


class SharedPass:
    """One in-flight leader pass over a fragment's page sets."""

    __slots__ = ("cond", "published", "progress", "done", "followers", "max_sets")

    def __init__(self, max_sets: int):
        self.cond = threading.Condition()
        #: set_id -> {column: decoded full (pre-tombstone) array}
        self.published: OrderedDict[int, dict] = OrderedDict()
        self.progress = -1  # highest set_id the leader has completed
        self.done = False
        self.followers = 0
        self.max_sets = max_sets

    # -- leader side ------------------------------------------------------------
    def publish(self, set_id: int, cols: dict) -> None:
        with self.cond:
            if self.followers <= 0 or self.max_sets <= 0:
                return
            self.published[set_id] = cols
            while len(self.published) > self.max_sets:
                self.published.popitem(last=False)

    def advance(self, set_id: int) -> None:
        with self.cond:
            self.progress = set_id
            self.cond.notify_all()

    def finish(self) -> None:
        with self.cond:
            self.done = True
            self.cond.notify_all()

    # -- follower side ----------------------------------------------------------
    def fetch(self, set_id: int, timeout_s: float) -> tuple[dict | None, float]:
        """Published columns for ``set_id`` (or None) plus seconds waited.

        Returns as soon as the leader's progress covers ``set_id`` or the
        pass is done; otherwise waits in small steps up to ``timeout_s``.
        ``None`` means the leader pruned, evicted, or never reached the
        set — the caller self-reads, which is always correct.
        """
        start = time.monotonic()
        with self.cond:
            deadline = start + max(0.0, timeout_s)
            while self.progress < set_id and not self.done:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self.cond.wait(min(_WAIT_STEP_S, remaining))
            return self.published.get(set_id), time.monotonic() - start


class SharedScanState:
    """Per-fragment coordination point for shared passes."""

    def __init__(self):
        self.lock = threading.Lock()
        self.current: SharedPass | None = None
        #: cumulative follower attach count (metrics)
        self.attaches = 0

    def join(self, max_sets: int | None = None) -> tuple[SharedPass, bool]:
        """Join (or start) the fragment's shared pass.

        Returns ``(pass, is_leader)``. The caller MUST pair this with
        :meth:`leave` in a ``finally``.
        """
        cap = MAX_PUBLISHED_SETS if max_sets is None else max_sets
        with self.lock:
            p = self.current
            if p is None or p.done:
                p = SharedPass(cap)
                self.current = p
                return p, True
            with p.cond:
                p.followers += 1
            self.attaches += 1
            return p, False

    def leave(self, p: SharedPass, is_leader: bool) -> None:
        if is_leader:
            p.finish()
            with self.lock:
                if self.current is p:
                    self.current = None
        else:
            with p.cond:
                p.followers -= 1

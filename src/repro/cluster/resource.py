"""Three-level resource management (paper §I-A).

HRDBMS deliberately manages its own resources instead of delegating to
YARN/Mesos, decentralizing decisions:

1. **Cluster level** — the optimizer balances load and communication
   across workers (in this codebase: the Phase-3 planner's placement and
   exchange decisions in :mod:`repro.optimizer.dataflow`).
   Coordinators also gate query starts against the aggregate memory
   budget (:class:`AdmissionController` below).
2. **Worker level** — each worker owns its memory budget
   (:class:`~repro.core.spill.MemoryGovernor`) and its operators draw on
   it without asking a coordinator. The paper also scales a worker's
   degree of parallelism back under memory pressure; here a query runs
   on one thread, so there is no parallelism to scale.
3. **Operator level** — operators spill to disk to bound memory
   (:mod:`repro.core.spill`).

The decentralization matters for scalability: coordinators never make
per-worker micro-decisions (paper: "avoids overloading coordinators with
decisions that can be better made locally").
"""

from __future__ import annotations

import threading
import time
from collections import deque

from ..common.errors import ReproError


class AdmissionTimeout(ReproError):
    """A query waited longer than ``admission_timeout`` for admission."""


class AdmissionController:
    """Coordinator-side query admission (resource-management level 1).

    Gates query starts against the cluster's aggregate memory budget so
    concurrency never oversubscribes what the per-worker
    :class:`MemoryGovernor` instances can hold: each query takes a
    memory *grant* at admission and returns it at completion, and at
    most ``max_concurrent`` queries run at once. Waiters queue FIFO —
    a ticket enters the deque and a queued query is admitted only when
    it reaches the head, preventing small queries from starving a large
    one (no sidestepping the queue just because its grant fits).

    Usage::

        with controller.admit(grant):
            ...run the query...
    """

    def __init__(
        self,
        total_budget: int,
        max_concurrent: int,
        default_grant: int = 0,
        timeout: float = 60.0,
    ):
        self.total_budget = max(1, total_budget)
        self.max_concurrent = max(1, max_concurrent)
        #: grant used when a query does not size itself (0 = even split);
        #: auto grants are recomputed when the budget resizes
        self._auto_grant = default_grant <= 0
        self.default_grant = default_grant if default_grant > 0 else max(
            1, self.total_budget // self.max_concurrent
        )
        self.timeout = timeout
        self._cv = threading.Condition()
        self._queue: deque[int] = deque()
        self._ticket = 0
        self.active = 0
        self.granted = 0
        # observability
        self.admitted_total = 0
        self.waited_total = 0
        self.peak_active = 0
        self.peak_granted = 0
        #: wall seconds queries spent queued before their grant
        self.grant_wait_s = 0.0
        #: admissions that gave up after ``timeout`` seconds
        self.timeouts = 0
        #: membership-driven budget changes applied (elasticity)
        self.resizes = 0

    def _may_admit(self, ticket: int, grant: int) -> bool:
        return (
            self._queue[0] == ticket
            and self.active < self.max_concurrent
            and self.granted + grant <= self.total_budget
        )

    def admit(self, grant: int = 0) -> "_Admission":
        """Block until admitted; returns a context manager releasing the
        grant on exit. Raises :class:`AdmissionTimeout` after
        ``timeout`` seconds of queueing."""
        grant = grant if grant > 0 else self.default_grant
        grant = min(grant, self.total_budget)  # a huge query still runs (alone)
        with self._cv:
            self._ticket += 1
            ticket = self._ticket
            self._queue.append(ticket)
            waited = False
            t0 = time.monotonic()
            deadline = t0 + self.timeout
            while not self._may_admit(ticket, grant):
                waited = True
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self._queue.remove(ticket)
                    self.timeouts += 1
                    self.grant_wait_s += time.monotonic() - t0
                    self._cv.notify_all()
                    raise AdmissionTimeout(
                        f"query not admitted within {self.timeout}s "
                        f"(active={self.active}, granted={self.granted}B)"
                    )
                self._cv.wait(timeout=remaining)
            self._queue.popleft()
            self.active += 1
            self.granted += grant
            self.admitted_total += 1
            if waited:
                self.waited_total += 1
                self.grant_wait_s += time.monotonic() - t0
            self.peak_active = max(self.peak_active, self.active)
            self.peak_granted = max(self.peak_granted, self.granted)
            self._cv.notify_all()
            return _Admission(self, grant)

    def _release(self, grant: int) -> None:
        with self._cv:
            self.active -= 1
            self.granted -= grant
            self._cv.notify_all()

    def resize(self, total_budget: int) -> None:
        """Track live membership: the admission budget follows the
        aggregate memory of the *current* worker set, so grants shrink
        when workers drain and grow on scale-out. Already-held grants
        are unaffected (shrinking only gates new admissions); queued
        waiters re-check against the new budget immediately."""
        with self._cv:
            self.total_budget = max(1, total_budget)
            if self._auto_grant:
                self.default_grant = max(1, self.total_budget // self.max_concurrent)
            self.resizes += 1
            self._cv.notify_all()

    @property
    def queue_depth(self) -> int:
        """Queries currently queued awaiting admission."""
        return len(self._queue)

    def stats(self) -> dict:
        with self._cv:
            return {
                "admitted": self.admitted_total,
                "waited": self.waited_total,
                "queue_depth": len(self._queue),
                "grant_wait_s": self.grant_wait_s,
                "timeouts": self.timeouts,
                "peak_active": self.peak_active,
                "peak_granted_bytes": self.peak_granted,
                "max_concurrent": self.max_concurrent,
                "total_budget_bytes": self.total_budget,
                "resizes": self.resizes,
            }


class _Admission:
    """Context manager holding one admitted query's memory grant."""

    def __init__(self, controller: AdmissionController, grant: int):
        self.controller = controller
        self.grant = grant
        self._released = False

    def __enter__(self) -> "_Admission":
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def release(self) -> None:
        if not self._released:
            self._released = True
            self.controller._release(self.grant)

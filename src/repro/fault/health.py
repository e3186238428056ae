"""Per-worker health tracking for blacklist, probation, and drain.

The executor records every scan probe outcome here. A worker that fails
``blacklist_after`` consecutive probes is blacklisted: reads of
*replicated* tables stop probing it and go straight to a healthy replica
(graceful degradation instead of a query restart). Partitioned tables
keep probing — the data lives only there.

Blacklisting is not permanent. A blacklisted worker enters a
*half-open* cycle: after every ``probe_interval`` avoided reads the
tracker lets one probe through (:meth:`allow_probe`). A successful
probe moves the worker to **probation**; it re-earns live traffic only
after ``probe_after`` consecutive successes, and any failure along the
way sends it straight back to the blacklist. This is the classic
circuit-breaker shape: a flapping worker keeps tripping the breaker,
a genuinely recovered one climbs back in bounded time.

Elastic membership adds a third state: **draining**. A draining worker
is being removed from the placement map; replicated reads route around
it immediately (no probes — it is leaving, not sick) while partitioned
reads keep working until the rebalance moves its fragments away.
"""

from __future__ import annotations

import threading

HEALTHY = "healthy"
BLACKLISTED = "blacklisted"
PROBATION = "probation"


class WorkerHealthTracker:
    """Thread-safe: shared across concurrent queries so one query's
    failed probes steer every query away from the sick worker."""

    def __init__(
        self,
        blacklist_after: int = 3,
        probe_after: int = 2,
        probe_interval: int = 8,
    ):
        self.blacklist_after = max(1, blacklist_after)
        #: consecutive successes a blacklisted worker needs to re-earn traffic
        self.probe_after = max(1, probe_after)
        #: avoided reads between half-open probes of a blacklisted worker
        self.probe_interval = max(1, probe_interval)
        self._failures: dict[int, int] = {}
        #: consecutive successes since blacklisting (probation progress)
        self._successes: dict[int, int] = {}
        #: avoided reads since the last half-open probe
        self._skips: dict[int, int] = {}
        #: workers being drained out of the placement map
        self._draining: set[int] = set()
        self._mu = threading.Lock()
        #: called (outside the lock) as listener(worker, old_state,
        #: new_state) on every breaker transition — the Database points
        #: this at the flight recorder
        self.listener = None

    def _state_locked(self, worker: int) -> str:
        if self._failures.get(worker, 0) < self.blacklist_after:
            return HEALTHY
        return PROBATION if self._successes.get(worker, 0) > 0 else BLACKLISTED

    def _notify(self, worker: int, old: str, new: str) -> None:
        if old != new and self.listener is not None:
            self.listener(worker, old, new)

    def record_failure(self, worker: int) -> None:
        with self._mu:
            old = self._state_locked(worker)
            self._failures[worker] = self._failures.get(worker, 0) + 1
            self._successes.pop(worker, None)  # probation progress resets
            new = self._state_locked(worker)
        self._notify(worker, old, new)

    def record_success(self, worker: int) -> None:
        with self._mu:
            old = self._state_locked(worker)
            fails = self._failures.get(worker, 0)
            if fails < self.blacklist_after:
                # healthy: a success clears transient failure noise
                self._failures.pop(worker, None)
                return
            # blacklisted: successes accumulate toward re-earning traffic
            n = self._successes.get(worker, 0) + 1
            if n >= self.probe_after:
                self._failures.pop(worker, None)
                self._successes.pop(worker, None)
                self._skips.pop(worker, None)
            else:
                self._successes[worker] = n
            new = self._state_locked(worker)
        self._notify(worker, old, new)

    def failures(self, worker: int) -> int:
        with self._mu:
            return self._failures.get(worker, 0)

    def is_blacklisted(self, worker: int) -> bool:
        with self._mu:
            return self._failures.get(worker, 0) >= self.blacklist_after

    def state(self, worker: int) -> str:
        with self._mu:
            if self._failures.get(worker, 0) < self.blacklist_after:
                return HEALTHY
            return PROBATION if self._successes.get(worker, 0) > 0 else BLACKLISTED

    def allow_probe(self, worker: int) -> bool:
        """Half-open gate, consulted when a read is about to avoid a
        blacklisted worker: every ``probe_interval``-th call (and every
        call once the worker is in probation) lets one probe through so
        a recovered worker can re-earn traffic."""
        with self._mu:
            if self._failures.get(worker, 0) < self.blacklist_after:
                return True
            if self._successes.get(worker, 0) > 0:
                return True  # probation: keep probing until re-earned
            n = self._skips.get(worker, 0) + 1
            if n >= self.probe_interval:
                self._skips[worker] = 0
                return True
            self._skips[worker] = n
            return False

    def blacklisted(self) -> set[int]:
        with self._mu:
            return {w for w, n in self._failures.items() if n >= self.blacklist_after}

    # -- draining (elastic membership) ----------------------------------------
    def mark_draining(self, worker: int) -> None:
        with self._mu:
            self._draining.add(worker)

    def clear_draining(self, worker: int) -> None:
        with self._mu:
            self._draining.discard(worker)

    def is_draining(self, worker: int) -> bool:
        with self._mu:
            return worker in self._draining

    def draining(self) -> set[int]:
        with self._mu:
            return set(self._draining)


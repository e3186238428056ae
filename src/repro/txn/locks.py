"""Lock manager (SS2PL, shared/exclusive page locks).

Each node runs its own lock manager, responsible only for locks on that
node (paper §VI). Strict strong 2PL: locks are held until commit or
abort. Conflicting requests either enqueue the requester (returning
``False`` so the simulated scheduler can retry) or — when the request
would close a cycle in the local wait-for graph — raise
:class:`DeadlockError` immediately, naming the victim. A timeout path
covers deadlocks spanning multiple nodes, exactly the paper's two-level
scheme (local wait-for graph + timeout for distributed cycles).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..common.errors import DeadlockError, LockTimeoutError


class LockMode(enum.Enum):
    S = "shared"
    X = "exclusive"


@dataclass
class _LockState:
    holders: dict[int, LockMode] = field(default_factory=dict)
    waiters: list[tuple[int, LockMode]] = field(default_factory=list)


class LockManager:
    def __init__(self, node_id: int = 0, timeout: float = 10.0):
        self.node_id = node_id
        self.timeout = timeout
        self._locks: dict[object, _LockState] = {}
        self._held_by_txn: dict[int, set[object]] = {}
        #: txn -> (resource, waited-for txns); feeds the wait-for graph
        self._waiting: dict[int, tuple[object, LockMode]] = {}
        #: simulated wait durations per txn (for timeout tests)
        self._wait_time: dict[int, float] = {}
        # observability (sampled by the cluster metrics registry)
        #: requests that had to enqueue behind a conflicting holder
        self.waits = 0
        #: total simulated seconds spent waiting for locks
        self.wait_time_s = 0.0
        #: requests refused because waiting would close a local wait-for cycle
        self.deadlocks = 0

    # -- acquisition ----------------------------------------------------------------
    def acquire(self, txn: int, resource: object, mode: LockMode) -> bool:
        """Try to take the lock. Returns True when granted; False when the
        transaction must wait (it is enqueued). Raises DeadlockError when
        waiting would create a local wait-for cycle."""
        state = self._locks.setdefault(resource, _LockState())
        held = state.holders.get(txn)
        if held is not None:
            if held == mode or held == LockMode.X:
                return True
            # upgrade S -> X: allowed when sole holder
            if len(state.holders) == 1:
                state.holders[txn] = LockMode.X
                return True
        if self._grantable(state, txn, mode):
            state.holders[txn] = _strongest(state.holders.get(txn), mode)
            self._held_by_txn.setdefault(txn, set()).add(resource)
            self._waiting.pop(txn, None)
            return True
        # must wait: deadlock check first
        blockers = {t for t in state.holders if t != txn}
        if self._would_deadlock(txn, blockers):
            self.deadlocks += 1
            raise DeadlockError(
                f"txn {txn} waiting on {sorted(blockers)} closes a wait-for cycle"
            )
        if (txn, mode) not in state.waiters:
            state.waiters.append((txn, mode))
            self.waits += 1
        self._waiting[txn] = (resource, mode)
        return False

    def _grantable(self, state: _LockState, txn: int, mode: LockMode) -> bool:
        others = {t: m for t, m in state.holders.items() if t != txn}
        ahead: list[tuple[int, LockMode]] = []
        for t, m in state.waiters:
            if t == txn:
                break
            ahead.append((t, m))
        if not others:
            # FIFO fairness: only waiters queued BEFORE us block the grant
            return not ahead
        if mode == LockMode.S and all(m == LockMode.S for m in others.values()):
            return not any(m == LockMode.X for _, m in ahead)
        return False

    def retry_waiters(self, resource: object) -> list[int]:
        """Grant queued requests that became compatible; returns granted txns."""
        state = self._locks.get(resource)
        if state is None:
            return []
        granted = []
        still = []
        for txn, mode in state.waiters:
            if self._grantable(state, txn, mode):
                state.holders[txn] = _strongest(state.holders.get(txn), mode)
                self._held_by_txn.setdefault(txn, set()).add(resource)
                self._waiting.pop(txn, None)
                granted.append(txn)
            else:
                still.append((txn, mode))
        state.waiters = still
        return granted

    # -- release ---------------------------------------------------------------------
    def release_all(self, txn: int) -> list[int]:
        """SS2PL: release everything at commit/abort. Returns txns granted."""
        granted: list[int] = []
        for resource in self._held_by_txn.pop(txn, set()):
            state = self._locks.get(resource)
            if state is None:
                continue
            state.holders.pop(txn, None)
            granted.extend(self.retry_waiters(resource))
            if not state.holders and not state.waiters:
                del self._locks[resource]
        # drop any queued request of the txn
        for state in self._locks.values():
            state.waiters = [(t, m) for t, m in state.waiters if t != txn]
        self._waiting.pop(txn, None)
        self._wait_time.pop(txn, None)
        return granted

    def cancel_wait(self, txn: int) -> None:
        """Withdraw a queued (ungranted) request, e.g. after a timeout;
        locks already held by the transaction are unaffected."""
        for state in self._locks.values():
            state.waiters = [(t, m) for t, m in state.waiters if t != txn]
        self._waiting.pop(txn, None)
        self._wait_time.pop(txn, None)

    # -- deadlock handling --------------------------------------------------------------
    def _wait_for_edges(self) -> dict[int, set[int]]:
        edges: dict[int, set[int]] = {}
        for txn, (resource, mode) in self._waiting.items():
            state = self._locks.get(resource)
            if state is None:
                continue
            edges[txn] = {t for t in state.holders if t != txn}
        return edges

    def _would_deadlock(self, txn: int, blockers: set[int]) -> bool:
        edges = self._wait_for_edges()
        edges[txn] = set(blockers)
        # DFS from each blocker: can we reach txn?
        seen: set[int] = set()
        stack = list(blockers)
        while stack:
            t = stack.pop()
            if t == txn:
                return True
            if t in seen:
                continue
            seen.add(t)
            stack.extend(edges.get(t, ()))
        return False

    def advance_time(self, txn: int, seconds: float) -> None:
        """Simulated waiting; raises on timeout (distributed-deadlock escape)."""
        if txn not in self._waiting:
            return
        self.wait_time_s += seconds
        self._wait_time[txn] = self._wait_time.get(txn, 0.0) + seconds
        if self._wait_time[txn] > self.timeout:
            raise LockTimeoutError(f"txn {txn} exceeded lock timeout on {self._waiting[txn][0]!r}")

    # -- introspection ---------------------------------------------------------------------
    def holds(self, txn: int, resource: object) -> LockMode | None:
        state = self._locks.get(resource)
        return state.holders.get(txn) if state else None

    def held_resources(self, txn: int) -> set[object]:
        return set(self._held_by_txn.get(txn, set()))


def _strongest(a: LockMode | None, b: LockMode) -> LockMode:
    if a == LockMode.X or b == LockMode.X:
        return LockMode.X
    return LockMode.S

"""Q-error observation: how far the planner's estimates were from actuals.

The executor records per-operator output rows on every execution
(``Executor.op_rows``). This module scores them the way the
DuckDB/Snowflake playbooks describe: per-operator Q-error
``max(est/actual, actual/est)`` (EXPLAIN ANALYZE ``q=``,
``sys.query_operators.qerror``), and a per-statement record of the
worst one (``optimizer.qerror_worst``). Nothing here feeds back into
planning; the numbers point at the estimator loci to fix.

Operators are named by a **locus** — a structural key
``(category, tables-under-subtree, detail)`` that is stable across plan
rebuilds: a scan of ``lineitem`` has the same locus in every plan
regardless of operator ids. Fused physical scans carry their filter's
estimate (``fuse_scans`` merges the predicate down), so a
scan-with-predicate reports the *filter* locus.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Optional


def qerror(est: float, actual: float) -> float:
    """Symmetric relative estimation error, clamped finite.

    Both sides clamp to >= 1 row so empty results stay well-defined:
    q(0, 0) == 1 (a correct "nothing"), q(0, n) == n, q(n, 0) == n.
    """
    e = max(float(est), 1.0)
    a = max(float(actual), 1.0)
    return e / a if e >= a else a / e


# ---------------------------------------------------------------------------
# operator loci
# ---------------------------------------------------------------------------


def _physical_tables(op) -> frozenset:
    out = set()
    for o in op.walk():
        if o.op in ("scan", "sysscan"):
            out.add((o.attrs["table"], o.attrs.get("alias") or ""))
        elif o.op == "dual":
            out.add(("__dual", ""))
    return frozenset(out)


def physical_locus(op) -> Optional[tuple]:
    """Locus of a physical operator, or None for operators not scored.

    A scan with a fused predicate reports the *filter* locus — its
    ``est_rows``/actuals are post-predicate (``fuse_scans`` copies the
    filter's estimate onto the scan), so that's what they calibrate.
    """
    if op.op in ("scan", "sysscan"):
        tabs = frozenset({(op.attrs["table"], op.attrs.get("alias") or "")})
        pred = op.attrs.get("predicate")
        if pred is not None:
            return ("filter", tabs, repr(pred))
        return ("scan", tabs, "")
    if op.op == "filter":
        return ("filter", _physical_tables(op), repr(op.attrs["predicate"]))
    if op.op == "hashjoin":
        return (
            "join",
            _physical_tables(op),
            f"{op.attrs['kind']}|{sorted(_physical_tables(op.children[0]))!r}",
        )
    if op.op == "agg" and op.attrs.get("mode") in ("complete", "final"):
        return ("agg", _physical_tables(op), ",".join(op.attrs.get("group_keys") or ()))
    return None


@dataclass
class OpScore:
    """One operator's estimate vs actual for a single execution."""

    op_id: int
    locus: tuple
    est: float
    actual: float
    q: float


def score_plan(physical, op_rows: dict) -> list[OpScore]:
    """Q-error per locus-bearing operator that has both est and actual."""
    out = []
    for op in physical.walk():
        locus = physical_locus(op)
        if locus is None or op.id not in op_rows:
            continue
        est = op.attrs.get("est_rows")
        if not isinstance(est, (int, float)) or isinstance(est, bool):
            continue
        actual = float(op_rows[op.id])
        out.append(OpScore(op.id, locus, float(est), actual, qerror(est, actual)))
    return out


# ---------------------------------------------------------------------------
# per-statement worst Q-error
# ---------------------------------------------------------------------------


class FeedbackStore:
    """Bounded LRU of each statement's latest worst Q-error, keyed like
    the plan cache: DDL or ANALYZE bumps a version and starts fresh."""

    def __init__(self, capacity: int = 256):
        self.capacity = max(1, capacity)
        self._worst: OrderedDict[Hashable, float] = OrderedDict()
        self._mu = threading.Lock()
        self.runs_total = 0

    def observe(self, key: Hashable, worst_q: float) -> None:
        """Record one execution's worst Q-error for ``key``."""
        with self._mu:
            self._worst[key] = worst_q
            self._worst.move_to_end(key)
            while len(self._worst) > self.capacity:
                self._worst.popitem(last=False)
            self.runs_total += 1

    def worst_q(self) -> float:
        with self._mu:
            return max(self._worst.values(), default=1.0)

    def stats(self) -> dict:
        with self._mu:
            return {
                "entries": len(self._worst),
                "runs": self.runs_total,
                # always 0: nothing re-plans, but benchmarks/e2e/run.py
                # reports this key as optimizer.replans
                "replans": 0,
                "worst_q": max(self._worst.values(), default=1.0),
            }

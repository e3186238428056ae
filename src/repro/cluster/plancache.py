"""Coordinator plan cache.

OLAP dashboards replay the same parameterized statements continuously;
parse/bind/optimize is pure overhead on every repeat. The cache maps
*normalized SQL text* plus everything that could change the plan — the
coordinating node, the catalog version (DDL), and the statistics
version (ANALYZE) — to the already-optimized physical
plan. Physical plans are immutable after optimization, so concurrent
queries can execute one shared plan object simultaneously; only the
executor's per-query state (counters, exchange tags) is cloned per run.

Normalization is deliberately light: whitespace collapsing only, and
only *outside* single-quoted string literals. SQL literals are
case- and whitespace-sensitive — lowercasing the text or collapsing
runs inside ``'a  b'`` would alias distinct queries (and serve one
query the other's cached plan) — so literal spans pass through
verbatim while formatting-only variation around them still folds.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from typing import Hashable

_WS = re.compile(r"\s+")
#: a single-quoted SQL literal; '' is the escaped quote, so 'a''b' is one span
_LITERAL = re.compile(r"'(?:[^']|'')*'")


def normalize_sql(sql: str) -> str:
    """Collapse whitespace runs outside string literals; keep case."""
    out = []
    pos = 0
    for m in _LITERAL.finditer(sql):
        out.append(_WS.sub(" ", sql[pos : m.start()]))
        out.append(m.group(0))
        pos = m.end()
    out.append(_WS.sub(" ", sql[pos:]))
    return "".join(out).strip()


class PlanCache:
    """A bounded LRU of optimized physical plans, thread-safe."""

    def __init__(self, capacity: int = 64):
        self.capacity = max(0, capacity)
        self._plans: OrderedDict[Hashable, object] = OrderedDict()
        self._mu = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @staticmethod
    def key(
        sql: str, coordinator: int, catalog_version: int, stats_version: int
    ) -> Hashable:
        return (normalize_sql(sql), coordinator, catalog_version, stats_version)

    def get(self, key: Hashable):
        with self._mu:
            plan = self._plans.get(key)
            if plan is None:
                self.misses += 1
                return None
            self._plans.move_to_end(key)
            self.hits += 1
            return plan

    def put(self, key: Hashable, plan: object) -> None:
        if self.capacity == 0:
            return
        with self._mu:
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > self.capacity:
                self._plans.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        with self._mu:
            self._plans.clear()

    def entries(self) -> list:
        """Cached plan keys, LRU-oldest first (``sys.plan_cache``)."""
        with self._mu:
            return list(self._plans.keys())

    def __len__(self) -> int:
        with self._mu:
            return len(self._plans)

    def stats(self) -> dict:
        with self._mu:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "entries": len(self._plans),
                "capacity": self.capacity,
            }

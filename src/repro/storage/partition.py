"""Table partitioning strategies.

Tables are hash- or range-partitioned across worker nodes, or replicated
to every node; within a node a second hash level spreads rows across the
node's disks (paper §III). The strategy is fixed at table-creation time
and recorded in the catalog, which is what lets the optimizer reason
about co-location (Phase 3) and prune fragments.

The node-assignment hash is *identical* to the execution engine's shuffle
hash (:meth:`RowBatch.hash_codes`), so "table is partitioned on X" and
"stream was shuffled on X" are interchangeable facts for the optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..common.batch import DictColumn, RowBatch
from ..common.errors import CatalogError


@dataclass(frozen=True)
class PartitionScheme:
    """Base class; concrete schemes below."""

    def assign_nodes(self, batch: RowBatch, n_nodes: int) -> np.ndarray:
        """Per-row target node ids (replicated tables override placement)."""
        raise NotImplementedError

    #: columns that determine node placement ((), for replicated/roundrobin)
    @property
    def keys(self) -> tuple[str, ...]:
        return ()

    def co_located_on(self, columns: Sequence[str]) -> bool:
        """True if equal values on ``columns`` imply same node.

        Holds when the partition keys are a subset of ``columns`` (the
        paper's shuffle-elimination rule: partitioned on ``a`` implies
        partitioned on ``(a, b)``).
        """
        ks = self.keys
        return bool(ks) and set(ks) <= {c.rsplit(".", 1)[-1] for c in columns}


@dataclass(frozen=True)
class HashPartition(PartitionScheme):
    columns: tuple[str, ...]

    def __post_init__(self):
        if not self.columns:
            raise CatalogError("hash partitioning needs at least one column")

    @property
    def keys(self) -> tuple[str, ...]:
        return self.columns

    def assign_nodes(self, batch: RowBatch, n_nodes: int) -> np.ndarray:
        keys = [batch.schema.resolve(c) for c in self.columns]
        return (batch.hash_codes(keys) % np.uint64(n_nodes)).astype(np.int64)

@dataclass(frozen=True)
class RangePartition(PartitionScheme):
    """Range partitioning on one column with explicit split points.

    ``bounds`` are upper-exclusive split points; node ``i`` holds values in
    ``[bounds[i-1], bounds[i])``. ``len(bounds) == n_nodes - 1``.
    """

    column: str
    bounds: tuple

    @property
    def keys(self) -> tuple[str, ...]:
        return (self.column,)

    def assign_nodes(self, batch: RowBatch, n_nodes: int) -> np.ndarray:
        if len(self.bounds) != n_nodes - 1:
            raise CatalogError(
                f"range partition has {len(self.bounds)} bounds for {n_nodes} nodes"
            )
        key = batch.schema.resolve(self.column)
        bounds = np.asarray(self.bounds)

        def node_of(values: np.ndarray) -> np.ndarray:
            return np.searchsorted(bounds, values, side="right").astype(np.int64)

        arr = batch.col(key)
        return arr.map_entries(node_of) if isinstance(arr, DictColumn) else node_of(arr)

@dataclass(frozen=True)
class Replicated(PartitionScheme):
    """Full copy on every node (paper: small tables, e.g. nation)."""

    def assign_nodes(self, batch: RowBatch, n_nodes: int) -> np.ndarray:
        raise CatalogError("replicated tables are copied, not row-assigned")

    def co_located_on(self, columns: Sequence[str]) -> bool:
        return True  # every node has all rows: any join key is co-located


@dataclass(frozen=True)
class RoundRobin(PartitionScheme):
    """Even spread with no placement key (load files, staging tables)."""

    def assign_nodes(self, batch: RowBatch, n_nodes: int) -> np.ndarray:
        return np.arange(batch.length, dtype=np.int64) % n_nodes


def disk_of_rows(batch: RowBatch, scheme: PartitionScheme, n_disks: int) -> np.ndarray:
    """Second-level partitioning across a node's disks.

    Uses the same keys when available (keeps clustering) or row position.
    """
    if n_disks == 1:
        return np.zeros(batch.length, dtype=np.int64)
    keys = [batch.schema.resolve(c) for c in scheme.keys] if scheme.keys else None
    if keys:
        # decorrelate from the node hash by salting
        h = batch.hash_codes(keys)
        h ^= h >> np.uint64(17)
        h *= np.uint64(0xC2B2AE3D27D4EB4F)
        return (h % np.uint64(n_disks)).astype(np.int64)
    return np.arange(batch.length, dtype=np.int64) % n_disks

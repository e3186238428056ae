"""Cluster catalog: table metadata replicated across coordinators.

Coordinators store metadata and statistics; HRDBMS replicates both
across *all* coordinators so any coordinator can plan queries, keeping
them in sync with the 2PC-backed metadata transaction path (paper §VI
"Synchronization of Coordinator Metadata" — wired up in
:mod:`repro.txn`). :class:`CatalogEntry` records what Phase 2/3 need:
schema, partitioning scheme, storage format, clustering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..common.errors import CatalogError
from ..common.schema import Schema
from ..optimizer.binder import Catalog as BinderCatalog
from ..optimizer.physical import ARBITRARY, REPLICATED, SINGLETON, Partitioning, hash_part
from ..storage.partition import (
    HashPartition,
    PartitionScheme,
    RangePartition,
    Replicated,
    RoundRobin,
)


@dataclass(frozen=True)
class PlacementMap:
    """One epoch of the cluster's data placement.

    The placement map is versioned: every membership change (scale-out,
    drain, re-replication) re-shards fragments and publishes a new epoch.
    In-flight queries finish against the epoch they planned under (their
    executor clone pins the epoch's worker set and storages); new queries
    plan and execute against the current epoch. ``draining`` lists
    workers that are leaving but still hold old-epoch fragments.
    """

    epoch: int = 0
    workers: tuple[int, ...] = ()
    draining: tuple[int, ...] = ()


@dataclass
class CatalogEntry:
    name: str
    schema: Schema
    scheme: PartitionScheme
    fmt: str = "column"
    clustering: tuple[str, ...] = ()
    external: bool = False
    #: virtual (sys.*) relation: no storage, materialized on demand at
    #: the coordinator by an executor-side provider
    virtual: bool = False

    def partitioning(self) -> Partitioning:
        if self.virtual:
            # non-fragmented: the whole relation exists at the
            # coordinator — this is what routes the planner to a
            # sysscan instead of a worker scan
            return SINGLETON
        if isinstance(self.scheme, Replicated):
            return REPLICATED
        if isinstance(self.scheme, HashPartition):
            return hash_part(self.scheme.columns)
        if isinstance(self.scheme, RangePartition):
            # range partitioning co-locates equal keys just like hash
            return Partitioning("hash", (self.scheme.column,))
        return ARBITRARY


class ClusterCatalog(BinderCatalog):
    """One coordinator's copy of the metadata tables."""

    def __init__(self):
        self.tables: dict[str, CatalogEntry] = {}
        #: virtual (sys.*) relations, kept out of ``tables`` so
        #: placement/rebalance/DML paths that iterate stored tables
        #: never see them
        self.virtual: dict[str, CatalogEntry] = {}
        self.version = 0
        #: current placement epoch (membership + fragment assignment)
        self.placement = PlacementMap()
        #: every epoch ever published (epoch -> worker set), so in-flight
        #: queries' pinned epochs stay explicable after the fact
        self.placement_history: dict[int, PlacementMap] = {0: self.placement}

    def table_schema(self, name: str) -> Schema:
        return self.entry(name).schema

    def entry(self, name: str) -> CatalogEntry:
        try:
            return self.tables[name]
        except KeyError:
            pass
        try:
            return self.virtual[name]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name in self.tables or name in self.virtual

    def add(self, entry: CatalogEntry) -> None:
        if entry.name in self.tables or entry.name in self.virtual:
            raise CatalogError(f"table {entry.name!r} already exists")
        self.tables[entry.name] = entry
        self.version += 1

    def add_virtual(self, entry: CatalogEntry) -> None:
        """Register a virtual relation. Does not bump ``version``:
        virtual schemas are fixed at wiring time and must not
        invalidate cached plans."""
        if entry.name in self.tables:
            raise CatalogError(f"table {entry.name!r} already exists")
        self.virtual[entry.name] = entry

    def drop(self, name: str) -> None:
        if name not in self.tables:
            raise CatalogError(f"unknown table {name!r}")
        del self.tables[name]
        self.version += 1

    @property
    def placement_epoch(self) -> int:
        return self.placement.epoch

    def set_placement(
        self, workers: tuple[int, ...], draining: tuple[int, ...] = ()
    ) -> PlacementMap:
        """Publish the next placement epoch.

        Bumps ``version`` too: plan-cache keys carry the catalog version,
        so every cached plan from the old epoch is invalidated the moment
        the new placement lands.
        """
        pm = PlacementMap(
            epoch=self.placement.epoch + 1,
            workers=tuple(workers),
            draining=tuple(draining),
        )
        self.placement = pm
        self.placement_history[pm.epoch] = pm
        self.version += 1
        return pm


def scheme_from_clause(
    partition: Optional[tuple[str, tuple[str, ...]]], n_workers: int
) -> PartitionScheme:
    """CREATE TABLE's PARTITION BY clause -> a concrete scheme."""
    if partition is None:
        return RoundRobin()
    kind, cols = partition
    if kind == "hash":
        return HashPartition(tuple(cols))
    if kind == "replicated":
        return Replicated()
    raise CatalogError(f"unsupported partition kind {kind!r}")

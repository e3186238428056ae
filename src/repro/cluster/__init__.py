"""Cluster orchestration: workers, coordinators, catalog, Database façade."""

from .catalog import CatalogEntry, ClusterCatalog, PlacementMap
from .database import (
    Coordinator,
    Database,
    QueryResult,
    RebalanceReport,
    Session,
    Worker,
)
from .plancache import PlanCache
from .resource import AdmissionController, AdmissionTimeout

__all__ = [
    "Database",
    "QueryResult",
    "Session",
    "Worker",
    "Coordinator",
    "ClusterCatalog",
    "CatalogEntry",
    "PlacementMap",
    "RebalanceReport",
    "PlanCache",
    "AdmissionController",
    "AdmissionTimeout",
]

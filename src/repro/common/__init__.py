"""Shared primitives: types, schemas, batches, dates, config, errors."""

from .batch import RowBatch
from .config import ClusterConfig, GB, KB, MB
from .dates import add_months, add_years, date_to_days, days_to_date, days_to_year
from .dtypes import DataType
from .errors import (
    CatalogError,
    ConfigError,
    ExecutionError,
    ParseError,
    PlanError,
    ReproError,
    SQLError,
    StorageError,
    TxnError,
)
from .schema import Column, Schema

__all__ = [
    "RowBatch",
    "ClusterConfig",
    "DataType",
    "Column",
    "Schema",
    "date_to_days",
    "days_to_date",
    "days_to_year",
    "add_months",
    "add_years",
    "KB",
    "MB",
    "GB",
    "ReproError",
    "ConfigError",
    "CatalogError",
    "StorageError",
    "SQLError",
    "ParseError",
    "PlanError",
    "ExecutionError",
    "TxnError",
]

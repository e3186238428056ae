"""Column data types.

The engine is columnar: every column is a NumPy array. ``DataType``
establishes the mapping between SQL types and NumPy dtypes:

========  =================  =========================================
SQL       DataType           NumPy representation
========  =================  =========================================
INTEGER   INT64              ``int64``
BIGINT    INT64              ``int64``
DOUBLE    FLOAT64            ``float64``
DECIMAL   DECIMAL            ``float64`` (sufficient for TPC-H sums)
DATE      DATE               ``int32`` — days since 1970-01-01
CHAR/VARCHAR  STRING         ``object`` array of ``str``
BOOLEAN   BOOL               ``bool_``
========  =================  =========================================

Dates as int32 day numbers make date arithmetic vectorizable and cheap to
hash/partition, which matters for shuffle and data-skipping paths.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import ConfigError


class DataType(enum.Enum):
    INT64 = "int64"
    FLOAT64 = "float64"
    DECIMAL = "decimal"
    DATE = "date"
    STRING = "string"
    BOOL = "bool"

    @property
    def numpy_dtype(self) -> np.dtype:
        return _NUMPY[self]

    @property
    def is_numeric(self) -> bool:
        return self in (DataType.INT64, DataType.FLOAT64, DataType.DECIMAL)

    @property
    def fixed_width(self) -> int | None:
        """Bytes per value for fixed-width types; None for STRING."""
        return _WIDTH[self]

    @classmethod
    def from_sql(cls, name: str) -> "DataType":
        key = name.strip().upper()
        # strip parameter lists:  DECIMAL(12,2) -> DECIMAL
        if "(" in key:
            key = key[: key.index("(")].strip()
        try:
            return _SQL_NAMES[key]
        except KeyError:
            raise ConfigError(f"unknown SQL type: {name!r}") from None


_NUMPY = {
    DataType.INT64: np.dtype(np.int64),
    DataType.FLOAT64: np.dtype(np.float64),
    DataType.DECIMAL: np.dtype(np.float64),
    DataType.DATE: np.dtype(np.int32),
    DataType.STRING: np.dtype(object),
    DataType.BOOL: np.dtype(np.bool_),
}

_WIDTH = {
    DataType.INT64: 8,
    DataType.FLOAT64: 8,
    DataType.DECIMAL: 8,
    DataType.DATE: 4,
    DataType.STRING: None,
    DataType.BOOL: 1,
}

_SQL_NAMES = {
    "INT": DataType.INT64,
    "INTEGER": DataType.INT64,
    "BIGINT": DataType.INT64,
    "SMALLINT": DataType.INT64,
    "DOUBLE": DataType.FLOAT64,
    "FLOAT": DataType.FLOAT64,
    "REAL": DataType.FLOAT64,
    "DECIMAL": DataType.DECIMAL,
    "NUMERIC": DataType.DECIMAL,
    "DATE": DataType.DATE,
    "CHAR": DataType.STRING,
    "VARCHAR": DataType.STRING,
    "TEXT": DataType.STRING,
    "STRING": DataType.STRING,
    "BOOLEAN": DataType.BOOL,
    "BOOL": DataType.BOOL,
}


#: Average on-disk width (bytes) assumed for STRING columns when the caller
#: has no better statistics. TPC-H strings average roughly this size.
DEFAULT_STRING_WIDTH = 16


def width_of(dt: DataType, avg_string_width: float = DEFAULT_STRING_WIDTH) -> float:
    """Estimated bytes per value, usable for cardinality -> bytes math."""
    w = dt.fixed_width
    return float(w) if w is not None else float(avg_string_width)


def coerce_column(values, dt: DataType) -> np.ndarray:
    """Convert a Python sequence or ndarray to the canonical column dtype."""
    arr = np.asarray(values, dtype=dt.numpy_dtype)
    return arr


def common_type(a: DataType, b: DataType) -> DataType:
    """Result type of arithmetic between two numeric columns."""
    if a == b:
        return a
    if not (a.is_numeric and b.is_numeric):
        if {a, b} == {DataType.DATE, DataType.INT64}:
            # date +/- integer days stays a date; comparisons coerce fine
            return DataType.DATE
        raise ConfigError(f"no common type for {a} and {b}")
    if DataType.FLOAT64 in (a, b):
        return DataType.FLOAT64
    if DataType.DECIMAL in (a, b):
        return DataType.DECIMAL
    return DataType.INT64

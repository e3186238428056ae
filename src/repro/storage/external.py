"""External table framework.

HRDBMS can query data that was never ingested: a *user-defined external
table type* (UET) exposes the horizontal partitioning of an external
source, and the system distributes fragment scans across workers
(paper §III). The proof-of-concept UET in the paper reads CSV from HDFS;
here we provide a CSV UET over any directory-of-files source plus an
HDFS-like namespace shim (block-aligned splits, one scan per split).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ..common.batch import RowBatch
from ..common.dates import date_to_days
from ..common.dtypes import DataType
from ..common.errors import StorageError
from ..common.schema import Schema


@dataclass(frozen=True)
class ExternalFragment:
    """One independently scannable unit of an external source."""

    locator: str  # file path or (path, block) spec
    preferred_node: int | None = None  # locality hint, like HDFS block hosts


class ExternalTableType:
    """Interface every UET implements."""

    name = "base"

    def schema(self) -> Schema:
        raise NotImplementedError

    def fragments(self, n_workers: int) -> list[ExternalFragment]:
        """Expose horizontal partitioning; the planner spreads these."""
        raise NotImplementedError

    def scan_fragment(self, frag: ExternalFragment, batch_size: int) -> Iterator[RowBatch]:
        raise NotImplementedError


class CsvExternalTable(ExternalTableType):
    """CSV-over-filesystem UET (also used as the HDFS stand-in).

    ``paths`` may be many files; each file is one fragment, assigned
    round-robin to workers (mirroring HDFS block placement exposure).
    """

    name = "csv"

    def __init__(
        self,
        paths: Sequence[str],
        schema: Schema,
        delimiter: str = "|",
        header: bool = False,
    ):
        if not paths:
            raise StorageError("external CSV table needs at least one file")
        self.paths = list(paths)
        self._schema = schema
        self.delimiter = delimiter
        self.header = header

    def schema(self) -> Schema:
        return self._schema

    def fragments(self, n_workers: int) -> list[ExternalFragment]:
        return [
            ExternalFragment(p, preferred_node=i % n_workers)
            for i, p in enumerate(self.paths)
        ]

    def scan_fragment(self, frag: ExternalFragment, batch_size: int) -> Iterator[RowBatch]:
        with open(frag.locator, newline="") as fh:
            yield from _parse_csv(fh, self._schema, self.delimiter, self.header, batch_size)


class InMemoryCsvTable(ExternalTableType):
    """CSV from strings — used in tests and to emulate HDFS blocks."""

    name = "csv-mem"

    def __init__(self, blocks: Sequence[str], schema: Schema, delimiter: str = "|"):
        self.blocks = list(blocks)
        self._schema = schema
        self.delimiter = delimiter

    def schema(self) -> Schema:
        return self._schema

    def fragments(self, n_workers: int) -> list[ExternalFragment]:
        return [
            ExternalFragment(str(i), preferred_node=i % n_workers)
            for i in range(len(self.blocks))
        ]

    def scan_fragment(self, frag: ExternalFragment, batch_size: int) -> Iterator[RowBatch]:
        fh = io.StringIO(self.blocks[int(frag.locator)])
        yield from _parse_csv(fh, self._schema, self.delimiter, False, batch_size)


def _parse_csv(
    fh, schema: Schema, delimiter: str, header: bool, batch_size: int
) -> Iterator[RowBatch]:
    reader = csv.reader(fh, delimiter=delimiter)
    if header:
        next(reader, None)
    buf: list[list] = []
    for row in reader:
        if not row:
            continue
        buf.append(row[: len(schema)])
        if len(buf) >= batch_size:
            yield _rows_to_batch(buf, schema)
            buf = []
    if buf:
        yield _rows_to_batch(buf, schema)


def _rows_to_batch(rows: list[list], schema: Schema) -> RowBatch:
    cols: dict[str, np.ndarray] = {}
    for i, col in enumerate(schema.columns):
        raw = [r[i] for r in rows]
        if col.dtype == DataType.INT64:
            cols[col.name] = np.asarray([int(v) for v in raw], dtype=np.int64)
        elif col.dtype in (DataType.FLOAT64, DataType.DECIMAL):
            cols[col.name] = np.asarray([float(v) for v in raw], dtype=np.float64)
        elif col.dtype == DataType.DATE:
            cols[col.name] = np.asarray([date_to_days(v) for v in raw], dtype=np.int32)
        elif col.dtype == DataType.BOOL:
            cols[col.name] = np.asarray(
                [v.strip().lower() in ("1", "true", "t", "y") for v in raw], dtype=bool
            )
        else:
            cols[col.name] = raw
    return RowBatch(schema, cols)

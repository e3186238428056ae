"""Storage engine: pages, buffer manager, tables, indexes, data skipping."""

from .btree import BPlusTree
from .buffer import BufferManager
from .compression import HuffmanCoder, get_codec
from .external import CsvExternalTable, ExternalFragment, ExternalTableType, InMemoryCsvTable
from .page import PagedFile
from .partition import HashPartition, PartitionScheme, RangePartition, Replicated, RoundRobin
from .predicate_cache import Atom, Op, PageMinMax, PredicateCache, ScanPredicate
from .table import COLUMN, ROW, ScanStats, TableStorage

__all__ = [
    "PagedFile",
    "BufferManager",
    "TableStorage",
    "ScanStats",
    "ROW",
    "COLUMN",
    "BPlusTree",
    "PredicateCache",
    "ScanPredicate",
    "Atom",
    "Op",
    "PageMinMax",
    "HashPartition",
    "RangePartition",
    "Replicated",
    "RoundRobin",
    "PartitionScheme",
    "HuffmanCoder",
    "get_codec",
    "ExternalTableType",
    "ExternalFragment",
    "CsvExternalTable",
    "InMemoryCsvTable",
]

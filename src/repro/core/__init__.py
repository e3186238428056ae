"""The distributed execution engine (the paper's core contribution)."""

from .kernels import (
    JoinHashTable,
    bloom_filter_codes,
    bloom_filter_test,
    factorize,
    group_aggregate,
    sort_indices,
    top_k,
)

__all__ = [
    "JoinHashTable",
    "factorize",
    "group_aggregate",
    "sort_indices",
    "top_k",
    "bloom_filter_codes",
    "bloom_filter_test",
]

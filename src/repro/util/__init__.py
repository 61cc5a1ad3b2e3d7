"""Shared utilities: intersection kernels, orderings, counters, formatting."""

from repro.util.intersect import (
    gallop_intersect,
    hash_intersect,
    merge_intersect,
)
from repro.util.opcount import OpCounter
from repro.util.tables import format_table

__all__ = [
    "OpCounter",
    "format_table",
    "gallop_intersect",
    "hash_intersect",
    "merge_intersect",
]

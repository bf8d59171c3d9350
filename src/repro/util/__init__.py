"""Shared utilities: intersection kernels, ragged arrays, formatting."""

from repro.util.intersect import (
    IntersectionKernel,
    gallop_intersect,
    hash_intersect,
    intersect_count_ops,
    intersect_sorted,
    merge_intersect,
)
from repro.util.tables import format_table

__all__ = [
    "IntersectionKernel",
    "format_table",
    "gallop_intersect",
    "hash_intersect",
    "intersect_count_ops",
    "intersect_sorted",
    "merge_intersect",
]

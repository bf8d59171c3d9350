"""Shared utilities: intersection kernels, ragged arrays, formatting."""

from repro.util.intersect import (
    gallop_intersect,
    intersect_sorted,
    merge_intersect,
)
from repro.util.tables import format_table

__all__ = [
    "format_table",
    "gallop_intersect",
    "intersect_sorted",
    "merge_intersect",
]

"""Shared machinery for the disk-based baseline methods.

The "slow group" baselines (CC-Seq, CC-DS, GraphChi-Tri) share a
partition-shrink-rewrite structure: process a vertex range whose data fits
the memory buffer, list every triangle whose minimum vertex falls in the
range, then rewrite the *remaining* graph (vertices above the range) to
disk.  Their CPU work is the same intersection workload as EdgeIterator≻
— one :func:`~repro.exec.block.block_range` call per range, so their
triangle output is exact; what distinguishes them — and what the paper's
Figure 5 shows — is the I/O pattern of re-reading and re-writing the
shrinking remainder every round.  The planning (ranges, page counts) is
array code too.
"""

from __future__ import annotations

import numpy as np

from repro.exec.block import block_range
from repro.graph.graph import Graph
from repro.memory.base import TriangleSink, emit_block
from repro.storage.page import DEFAULT_PAGE_SIZE

__all__ = [
    "induced_pages",
    "partition_ranges",
    "range_triangle_pass",
    "RECORD_HEADER_BYTES",
    "NEIGHBOR_BYTES",
]

RECORD_HEADER_BYTES = 8
NEIGHBOR_BYTES = 4


def induced_pages(graph: Graph, lo: int, page_size: int = DEFAULT_PAGE_SIZE) -> int:
    """Page count of the subgraph induced on vertices ``>= lo``.

    Uses the same record encoding as the slotted-page layout, so the
    baselines' rewrite volumes are directly comparable to OPT's page
    counts.
    """
    n = graph.num_vertices
    if lo >= n:
        return 0
    kept = np.count_nonzero(graph.indices[graph.indptr[lo]:] >= lo)
    total_bytes = RECORD_HEADER_BYTES * (n - lo) + NEIGHBOR_BYTES * int(kept)
    return -(-total_bytes // page_size)


def partition_ranges(
    graph: Graph,
    budget_pages: int,
    page_size: int = DEFAULT_PAGE_SIZE,
) -> list[tuple[int, int]]:
    """Split vertices into contiguous ranges of ~*budget_pages* each.

    Greedy: extend the current range until its adjacency data exceeds the
    budget (every range keeps at least one vertex, mirroring the paper's
    requirement that a partition holds at least one adjacency list).
    """
    budget_bytes = max(1, budget_pages) * page_size
    # ends[v]: the bytes of the records of vertices 0..v-1.
    ends = np.zeros(graph.num_vertices + 1, dtype=np.int64)
    np.cumsum(RECORD_HEADER_BYTES + NEIGHBOR_BYTES * graph.degrees(),
              out=ends[1:])
    ranges: list[tuple[int, int]] = []
    lo = 0
    while lo < graph.num_vertices:
        hi = max(lo, int(ends.searchsorted(ends[lo] + budget_bytes,
                                           side="right")) - 2)
        ranges.append((lo, hi))
        lo = hi + 1
    return ranges


def range_triangle_pass(
    graph: Graph,
    lo: int,
    hi: int,
    sink: TriangleSink | None = None,
) -> tuple[int, int]:
    """List all triangles whose minimum vertex lies in ``[lo, hi]``.

    Returns ``(triangles, cpu_ops)`` with the paper's probe cost measure.
    Exactness: every triangle has a unique minimum vertex, so summing
    passes over a partition of the vertex range lists each triangle once.
    """
    triangles, ops, groups = block_range(graph.indptr, graph.indices,
                                         graph.succ_start, lo, hi + 1,
                                         sink is not None)
    if sink is not None:
        emit_block(sink, groups)
    return triangles, ops

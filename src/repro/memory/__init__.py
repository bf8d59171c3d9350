"""In-memory triangulation methods (the paper's Section 2 baselines)."""

from repro.memory.base import (
    CollectSink,
    CountSink,
    TriangleSink,
    TriangulationResult,
    canonical_triangles,
    emit_block,
)
from repro.memory.compact_forward import compact_forward
from repro.memory.edge_iterator import edge_iterator
from repro.memory.forward import forward
from repro.memory.matrix import matrix_count
from repro.memory.vertex_iterator import vertex_iterator

__all__ = [
    "CollectSink",
    "CountSink",
    "TriangleSink",
    "TriangulationResult",
    "canonical_triangles",
    "compact_forward",
    "edge_iterator",
    "emit_block",
    "forward",
    "matrix_count",
    "vertex_iterator",
]

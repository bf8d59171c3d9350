"""Incremental construction of simple undirected graphs.

:class:`GraphBuilder` accepts arbitrary (possibly duplicated, possibly
out-of-range) edge input, enforces the *simple undirected graph* contract
from the paper's problem definition (no self loops, no parallel edges),
and emits an immutable CSR :class:`~repro.graph.graph.Graph`.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.errors import GraphError
from repro.graph.graph import Graph

__all__ = ["GraphBuilder", "from_edges"]


class GraphBuilder:
    """Accumulates edges and builds a :class:`Graph`.

    Parameters
    ----------
    num_vertices:
        Optional fixed vertex count.  When omitted, the vertex count is
        ``max vertex id + 1`` at build time (isolated trailing vertices can
        be forced by passing ``num_vertices`` explicitly).
    strict:
        When true, adding a self loop raises :class:`GraphError`; when
        false (default), self loops are silently dropped — convenient for
        raw edge-list files.  Duplicate edges are always deduplicated.
    """

    def __init__(self, num_vertices: int | None = None, *, strict: bool = False):
        if num_vertices is not None and num_vertices < 0:
            raise GraphError("num_vertices must be non-negative")
        self._num_vertices = num_vertices
        self._strict = strict
        self._sources: list[int] = []
        self._targets: list[int] = []
        #: ``(src, dst)`` blocks taken by :meth:`add_edge_array`
        self._blocks: list[tuple[np.ndarray, np.ndarray]] = []

    def add_edge(self, u: int, v: int) -> None:
        """Add the undirected edge ``(u, v)``."""
        u, v = int(u), int(v)
        if u < 0 or v < 0:
            raise GraphError(f"negative vertex id in edge ({u}, {v})")
        if u == v:
            if self._strict:
                raise GraphError(f"self loop at vertex {u}")
            return
        if self._num_vertices is not None and max(u, v) >= self._num_vertices:
            raise GraphError(
                f"edge ({u}, {v}) exceeds fixed vertex count {self._num_vertices}"
            )
        self._sources.append(u)
        self._targets.append(v)

    def add_edges(self, edges: Iterable[tuple[int, int]]) -> None:
        """Add many undirected edges."""
        for u, v in edges:
            self.add_edge(u, v)

    def add_edge_array(self, src: np.ndarray, dst: np.ndarray) -> None:
        """Add the undirected edges ``(src[i], dst[i])`` in one step.

        The rules are :meth:`add_edge`'s, applied to whole arrays; when
        an edge breaks one, the first such edge raises :meth:`add_edge`'s
        error and none of the block is added.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape or src.ndim != 1:
            raise GraphError("src and dst must be one-dimensional and equally long")
        loops = src == dst
        bad = (src < 0) | (dst < 0)
        if self._strict:
            bad |= loops
        if self._num_vertices is not None:
            bad |= ~loops & (np.maximum(src, dst) >= self._num_vertices)
        if bad.any():
            first = int(bad.argmax())
            self.add_edge(src[first], dst[first])  # raises, in its words
        if loops.any():
            src, dst = src[~loops], dst[~loops]
        self._blocks.append((src, dst))

    def build(self) -> Graph:
        """Deduplicate, symmetrize, sort, and emit the CSR graph."""
        src = np.concatenate([np.asarray(self._sources, dtype=np.int64),
                              *(block[0] for block in self._blocks)])
        dst = np.concatenate([np.asarray(self._targets, dtype=np.int64),
                              *(block[1] for block in self._blocks)])
        n = self._num_vertices
        if n is None:
            n = int(max(src.max(), dst.max())) + 1 if len(src) else 0
        # One key per direction: sorted, they are the CSR entries in row
        # order, and a key equal to its predecessor is a parallel edge.
        keys = np.concatenate([src * n + dst, dst * n + src])
        keys.sort()
        fresh = np.ones(len(keys), dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
        keys = keys[fresh]
        indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
        np.remainder(keys, n, out=keys)
        return Graph(indptr, keys, validate=False)


def from_edges(
    edges: Iterable[tuple[int, int]],
    num_vertices: int | None = None,
    *,
    strict: bool = False,
) -> Graph:
    """Build a :class:`Graph` from an edge iterable in one call."""
    builder = GraphBuilder(num_vertices, strict=strict)
    builder.add_edges(edges)
    return builder.build()

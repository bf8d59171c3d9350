"""Compressed-sparse-row graph representation.

The paper operates on simple undirected graphs with integer vertex ids and
*sorted* adjacency lists (sortedness is what makes ``n_succ``/``n_prec``
cheap slices and intersections linear).  :class:`Graph` is immutable after
construction; all mutation goes through :class:`repro.graph.builder.GraphBuilder`.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import GraphError
from repro.util import ragged

__all__ = ["Graph"]


class Graph:
    """A simple undirected graph in CSR form with sorted adjacency lists.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``num_vertices + 1``; row *v*'s neighbors
        are ``indices[indptr[v]:indptr[v + 1]]``.
    indices:
        ``int64`` array of neighbor ids, sorted ascending within each row.
    validate:
        When true (the default), check CSR invariants: monotone ``indptr``,
        in-range sorted neighbor ids, no self loops, symmetric edges.
        Pass ``False`` only for arrays produced by trusted code paths.
    """

    __slots__ = ("indptr", "indices", "_num_edges", "_succ_start")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, *, validate: bool = True):
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        if validate:
            self._validate()
        self._num_edges = int(len(self.indices)) // 2
        self._succ_start: np.ndarray | None = None

    def _validate(self) -> None:
        indptr, indices = self.indptr, self.indices
        if indptr.ndim != 1 or indices.ndim != 1:
            raise GraphError("indptr and indices must be one-dimensional")
        if len(indptr) == 0 or indptr[0] != 0:
            raise GraphError("indptr must start with 0")
        if indptr[-1] != len(indices):
            raise GraphError("indptr[-1] must equal len(indices)")
        if np.any(np.diff(indptr) < 0):
            raise GraphError("indptr must be non-decreasing")
        n = len(indptr) - 1
        if len(indices) and (indices.min() < 0 or indices.max() >= n):
            raise GraphError("neighbor id out of range")
        if len(indices) % 2 != 0:
            raise GraphError("undirected CSR must hold an even number of entries")
        for v in range(n):
            row = indices[indptr[v]:indptr[v + 1]]
            if len(row) > 1 and np.any(np.diff(row) <= 0):
                raise GraphError(f"adjacency list of {v} not strictly sorted")
            if len(row) and np.any(row == v):
                raise GraphError(f"self loop at vertex {v}")
        # Symmetry: every (u, v) entry must have a matching (v, u) entry.
        degrees = np.diff(indptr)
        sources = np.repeat(np.arange(n, dtype=np.int64), degrees)
        forward = set(zip(sources.tolist(), indices.tolist()))
        for u, v in forward:
            if (v, u) not in forward:
                raise GraphError(f"edge ({u}, {v}) has no reverse entry")

    # -- basic accessors ---------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``|V|``."""
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``|E|``."""
        return self._num_edges

    def degree(self, v: int) -> int:
        """Degree of vertex *v*."""
        return int(self.indptr[v + 1] - self.indptr[v])

    def degrees(self) -> np.ndarray:
        """Array of all vertex degrees."""
        return np.diff(self.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted adjacency list ``n(v)`` (a read-only view)."""
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    @property
    def succ_start(self) -> np.ndarray:
        """Offset into ``indices`` where each vertex's ``n_succ`` begins.

        ``succ_start[v] = indptr[v] + #{w in n(v): w <= v}``, for all
        vertices in one ``bincount``; built on first use and cached (the
        graph is immutable), so ``n_succ`` is a plain slice and the
        block-batched kernel can gather successor lists without a
        per-vertex search.
        """
        start = self._succ_start
        if start is None:
            n = self.num_vertices
            sources = np.repeat(np.arange(n, dtype=np.int64),
                                np.diff(self.indptr))
            start = self.indptr[:-1] + np.bincount(
                sources[self.indices <= sources], minlength=n)
            self._succ_start = start
        return start

    def rows(self, vertices: np.ndarray) -> np.ndarray:
        """The adjacency lists of *vertices*, concatenated in that order."""
        starts = self.indptr[vertices]
        return ragged.take_rows(self.indices, starts,
                                self.indptr[vertices + 1] - starts)

    def n_succ(self, v: int) -> np.ndarray:
        """``n_succ(v)``: neighbors with id greater than *v* (sorted view)."""
        return self.indices[self.succ_start[v]:self.indptr[v + 1]]

    def n_prec(self, v: int) -> np.ndarray:
        """``n_prec(v)``: neighbors with id smaller than *v* (sorted view)."""
        row = self.neighbors(v)
        cut = int(np.searchsorted(row, v, side="left"))
        return row[:cut]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``(u, v)`` exists."""
        if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
            return False
        row = self.neighbors(u)
        pos = int(np.searchsorted(row, v))
        return pos < len(row) and row[pos] == v

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate undirected edges once each as ``(u, v)`` with ``u < v``."""
        for u in range(self.num_vertices):
            for v in self.n_succ(u):
                yield u, int(v)

    def edge_array(self) -> np.ndarray:
        """All undirected edges as an ``(m, 2)`` array with ``u < v`` rows."""
        degrees = np.diff(self.indptr)
        sources = np.repeat(np.arange(self.num_vertices, dtype=np.int64), degrees)
        mask = sources < self.indices
        return np.column_stack([sources[mask], self.indices[mask]])

    # -- transformations ---------------------------------------------------

    def relabel(self, mapping: np.ndarray) -> "Graph":
        """Return a new graph with vertex *v* renamed to ``mapping[v]``.

        *mapping* must be a permutation of ``0..n-1``.
        """
        mapping = np.asarray(mapping, dtype=np.int64)
        n = self.num_vertices
        if mapping.shape != (n,) or (n and (
                mapping.min() < 0 or mapping.max() >= n
                or np.bincount(mapping, minlength=n).max() > 1)):
            raise GraphError("mapping must be a permutation of the vertex ids")
        degrees = np.diff(self.indptr)
        new_indptr = np.zeros(n + 1, dtype=np.int64)
        new_degrees = np.empty(n, dtype=np.int64)
        new_degrees[mapping] = degrees
        np.cumsum(new_degrees, out=new_indptr[1:])
        # Sorted ``new_u * n + new_v`` keys are the new rows in order.
        keys = np.repeat(mapping * n, degrees)
        keys += mapping[self.indices]
        keys.sort()
        np.remainder(keys, n, out=keys)
        return Graph(new_indptr, keys, validate=False)

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return np.array_equal(self.indptr, other.indptr) and np.array_equal(
            self.indices, other.indices
        )

    def __hash__(self) -> int:  # pragma: no cover - identity hashing only
        return id(self)

    def __repr__(self) -> str:
        return f"Graph(num_vertices={self.num_vertices}, num_edges={self.num_edges})"

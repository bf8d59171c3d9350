"""Graph serialization: edge lists, adjacency lists, binary CSR.

The text formats are the usual whitespace-separated ``u v`` edge list
(SNAP-style, ``#`` comments) and the ``u: v1 v2 ...`` adjacency format;
both transparently support gzip compression when the path ends in
``.gz``.  The binary format is a little-endian CSR dump with a magic
header, suitable for fast reloads of large generated graphs.
"""

from __future__ import annotations

import gzip
import struct
import warnings
from pathlib import Path
from typing import IO

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.builder import GraphBuilder
from repro.graph.graph import Graph

__all__ = [
    "read_adjacency",
    "read_binary",
    "read_edge_list",
    "write_adjacency",
    "write_binary",
    "write_edge_list",
]


def _open_text(path: Path, mode: str) -> IO[str]:
    """Open *path* as text, transparently gzipped for ``.gz`` suffixes."""
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def _open_bytes(path: Path) -> IO[bytes]:
    """Open *path* for reading its (decompressed) bytes."""
    return gzip.open(path, "rb") if path.suffix == ".gz" else open(path, "rb")


_BINARY_MAGIC = b"OPTG"
_BINARY_VERSION = 1

#: Edges formatted per ``write`` call of :func:`write_edge_list`.
_WRITE_BLOCK = 1 << 16


def write_edge_list(graph: Graph, path: str | Path, *, header: bool = True) -> None:
    """Write *graph* as a text edge list (one ``u v`` line per edge)."""
    path = Path(path)
    edges = graph.edge_array()
    with _open_text(path, "w") as handle:
        if header:
            handle.write(f"# undirected simple graph: {graph.num_vertices} "
                         f"vertices, {graph.num_edges} edges\n")
        for start in range(0, len(edges), _WRITE_BLOCK):
            block = edges[start:start + _WRITE_BLOCK]
            handle.write(("%d %d\n" * len(block)) % tuple(block.ravel().tolist()))


def read_edge_list(path: str | Path, *, num_vertices: int | None = None) -> Graph:
    """Parse a text edge list into a :class:`Graph`.

    Lines starting with ``#`` or ``%`` are comments; blank lines and
    columns after the second are skipped; self loops are dropped (raw
    web-graph dumps contain them).
    """
    path = Path(path)
    with _open_bytes(path) as handle:
        percent = any(b"%" in block
                      for block in iter(lambda: handle.read(1 << 20), b""))
    try:
        with warnings.catch_warnings():
            # an edge list without edges is a graph without edges
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            # np.loadtxt strips two comment characters in a per-line
            # Python pass (~8x the time of one): ask only when needed.
            pairs = np.loadtxt(str(path), dtype=np.int64, usecols=(0, 1), ndmin=2,
                               comments=["#", "%"] if percent else "#",
                               encoding="utf-8")
    except ValueError as exc:
        raise _edge_list_defect(path, exc) from exc
    builder = GraphBuilder(num_vertices)
    builder.add_edge_array(pairs[:, 0], pairs[:, 1])
    return builder.build()


def _edge_list_defect(path: Path, cause: ValueError) -> GraphFormatError:
    """Name the first line of an edge list the array parser rejected."""
    with _open_text(path, "r") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith(("#", "%")):
                continue
            parts = line.split()
            if len(parts) < 2:
                return GraphFormatError(f"{path}:{lineno}: expected 'u v', got {line!r}")
            try:
                for token in parts[:2]:
                    int(token)
            except ValueError:
                return GraphFormatError(f"{path}:{lineno}: non-integer vertex id")
    # Every line reads as two Python integers: an id past int64, or a
    # spelling only ``int`` takes (``1_000``).
    return GraphFormatError(f"{path}: {cause}")


def write_adjacency(graph: Graph, path: str | Path) -> None:
    """Write *graph* in the adjacency format: ``u: v1 v2 ...`` per line."""
    path = Path(path)
    with _open_text(path, "w") as handle:
        handle.write(f"# adjacency: {graph.num_vertices} vertices\n")
        for u in range(graph.num_vertices):
            row = " ".join(str(int(v)) for v in graph.neighbors(u))
            handle.write(f"{u}: {row}\n")


def read_adjacency(path: str | Path) -> Graph:
    """Parse an adjacency-format file into a :class:`Graph`."""
    path = Path(path)
    builder = GraphBuilder()
    max_vertex = -1
    with _open_text(path, "r") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith(("#", "%")):
                continue
            head, _, rest = line.partition(":")
            if not _:
                raise GraphFormatError(f"{path}:{lineno}: missing ':' separator")
            try:
                u = int(head)
                neighbors = [int(token) for token in rest.split()]
            except ValueError as exc:
                raise GraphFormatError(f"{path}:{lineno}: non-integer id") from exc
            max_vertex = max(max_vertex, u, *(neighbors or [u]))
            for v in neighbors:
                if u < v:  # the reverse direction appears on v's line
                    builder.add_edge(u, v)
    graph = builder.build()
    if graph.num_vertices < max_vertex + 1:
        # Preserve trailing isolated vertices.
        rebuilt = GraphBuilder(max_vertex + 1)
        rebuilt.add_edges(graph.edges())
        return rebuilt.build()
    return graph


def write_binary(graph: Graph, path: str | Path) -> None:
    """Write *graph* in the binary CSR format."""
    path = Path(path)
    with path.open("wb") as handle:
        handle.write(_BINARY_MAGIC)
        handle.write(struct.pack("<IQQ", _BINARY_VERSION,
                                 graph.num_vertices, len(graph.indices)))
        handle.write(graph.indptr.astype("<i8").tobytes())
        handle.write(graph.indices.astype("<i8").tobytes())


def read_binary(path: str | Path) -> Graph:
    """Load a graph written by :func:`write_binary`."""
    path = Path(path)
    with path.open("rb") as handle:
        magic = handle.read(4)
        if magic != _BINARY_MAGIC:
            raise GraphFormatError(f"{path}: bad magic {magic!r}")
        header = handle.read(struct.calcsize("<IQQ"))
        version, num_vertices, num_entries = struct.unpack("<IQQ", header)
        if version != _BINARY_VERSION:
            raise GraphFormatError(f"{path}: unsupported version {version}")
        indptr = np.frombuffer(handle.read((num_vertices + 1) * 8), dtype="<i8")
        indices = np.frombuffer(handle.read(num_entries * 8), dtype="<i8")
        if len(indptr) != num_vertices + 1 or len(indices) != num_entries:
            raise GraphFormatError(f"{path}: truncated file")
    return Graph(indptr.astype(np.int64), indices.astype(np.int64), validate=False)

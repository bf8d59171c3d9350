"""Network-analysis metrics built on triangle counts.

The paper motivates triangulation via clustering coefficients, transitivity
and trigonal connectivity; these are provided as library features so the
examples can compute them through the public API.
"""

from __future__ import annotations

import numpy as np

from repro.exec.block import block_range
from repro.graph.graph import Graph
from repro.util.intersect import intersect_sorted

__all__ = [
    "clustering_coefficients",
    "global_clustering_coefficient",
    "per_vertex_triangles",
    "transitivity",
    "trigonal_connectivity",
]


def per_vertex_triangles(graph: Graph) -> np.ndarray:
    """Number of triangles each vertex participates in.

    One EdgeIterator≻ pass (:func:`repro.exec.block.block_range`) lists
    every triangle once, as a completion ``w`` of its group ``<u, v,
    {w…}>``; each completion credits ``u``, ``v`` and ``w``.
    """
    n = graph.num_vertices
    _, _, groups = block_range(graph.indptr, graph.indices,
                               graph.succ_start, 0, n, collect=True)
    return np.bincount(np.concatenate((groups.us.repeat(groups.counts),
                                       groups.vs.repeat(groups.counts),
                                       groups.ws)),
                       minlength=n).astype(np.int64, copy=False)


def clustering_coefficients(graph: Graph) -> np.ndarray:
    """Local clustering coefficient of every vertex (0 for degree < 2)."""
    triangles = per_vertex_triangles(graph)
    degrees = graph.degrees().astype(np.float64)
    pairs = degrees * (degrees - 1) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        coefficients = np.where(pairs > 0, triangles / pairs, 0.0)
    return coefficients


def global_clustering_coefficient(graph: Graph) -> float:
    """Average of the local clustering coefficients (Watts–Strogatz)."""
    if graph.num_vertices == 0:
        return 0.0
    return float(clustering_coefficients(graph).mean())


def transitivity(graph: Graph) -> float:
    """Global transitivity: ``3 * #triangles / #connected-triples``."""
    triangles = int(per_vertex_triangles(graph).sum()) // 3
    degrees = graph.degrees().astype(np.int64)
    triples = int((degrees * (degrees - 1) // 2).sum())
    if triples == 0:
        return 0.0
    return 3.0 * triangles / triples


def trigonal_connectivity(graph: Graph, u: int, v: int) -> int:
    """Number of triangles the edge ``(u, v)`` participates in.

    A tightness measure for the connection between *u* and *v* (Batagelj &
    Zaveršnik); 0 when the edge does not exist.
    """
    if not graph.has_edge(u, v):
        return 0
    return len(intersect_sorted(graph.neighbors(u), graph.neighbors(v)))


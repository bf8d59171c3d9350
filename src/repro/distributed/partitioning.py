"""Graph partitioning helpers shared by the distributed methods.

All placement decisions are computed on the actual input graph so the
cluster model's volumes (partition sizes, cut edges, per-node op counts,
replication factors) are measured quantities rather than assumptions.
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph
from repro.util import ragged

__all__ = [
    "edge_cut",
    "hash_partition",
    "per_partition_ops",
    "vertex_cut_replication",
]

#: Multiplier/modulus of the universal hash used for vertex placement.
_HASH_A = 2654435761
_HASH_MOD = 2**32


def hash_partition(num_vertices: int, parts: int, *, seed: int = 0) -> np.ndarray:
    """Universal-hash vertex placement: ``part[v] in [0, parts)``."""
    ids = np.arange(num_vertices, dtype=np.uint64)
    hashed = ((ids + np.uint64(seed + 1)) * np.uint64(_HASH_A)) % np.uint64(_HASH_MOD)
    return (hashed % np.uint64(parts)).astype(np.int64)


def edge_cut(graph: Graph, placement: np.ndarray) -> int:
    """Number of edges whose endpoints land on different partitions."""
    edges = graph.edge_array()
    if len(edges) == 0:
        return 0
    return int(np.count_nonzero(placement[edges[:, 0]] != placement[edges[:, 1]]))


def per_partition_ops(graph: Graph, placement: np.ndarray, parts: int) -> np.ndarray:
    """EdgeIterator probe ops charged to each partition.

    An edge's intersection work — Eq. 3's ``min(|n_succ(u)|,
    |n_succ(v)|)`` for the oriented edge ``(u, v)``, ``u < v`` — is
    charged to the partition owning its lower endpoint (where the
    triangle is counted); the spread of this array is the cluster's
    compute imbalance.
    """
    succ_len = graph.indptr[1:] - graph.succ_start
    us = np.repeat(np.arange(graph.num_vertices, dtype=np.int64), succ_len)
    vs = graph.indices[ragged.expand(graph.succ_start, succ_len)]
    # Float weights are exact below 2**53, far above any op total here.
    return np.bincount(placement[us],
                       weights=np.minimum(succ_len[us], succ_len[vs]),
                       minlength=parts).astype(np.int64)


def vertex_cut_replication(graph: Graph, parts: int, *, seed: int = 0) -> float:
    """Average replication factor of a greedy balanced vertex cut.

    PowerGraph places *edges* on machines and replicates vertices across
    every machine holding one of their edges.  With hash edge placement
    the replication factor of vertex ``v`` is the expected number of
    distinct machines among ``deg(v)`` hashed choices — computed exactly
    per vertex and averaged.
    """
    if graph.num_vertices == 0:
        return 1.0
    degrees = graph.degrees().astype(np.float64)
    # E[#distinct machines] = parts * (1 - (1 - 1/parts)^deg)
    expected = parts * (1.0 - np.power(1.0 - 1.0 / parts, degrees))
    expected = np.maximum(expected, 1.0)
    return float(expected.mean())

"""k-core decomposition and degeneracy.

The paper's complexity statements rest on arboricity (``O(alpha |E|)``,
Eq. 1); arboricity is sandwiched by the degeneracy ``d`` of the graph
(``ceil(d/2) <= alpha <= d``), and degeneracy comes from the classic
linear-time core decomposition (Matula & Beck / Batagelj & Zaveršnik,
whose triad work the paper cites).  Exposing it lets the analysis module
report a much tighter arboricity bound than ``sqrt(|E|)``, and the core
numbers themselves are a standard network-analysis product.

The peel runs in rounds of array operations, not one vertex at a time: a
round removes every live vertex whose current degree is at most the
current level ``k``, decrements the live neighbors, and the vertices
that fell to ``k`` or below are the next round; ``k`` rises to the live
minimum when a round leaves none.  Core numbers are those of the
bucket queue.  The peel *sequence* is not the bucket queue's, because a
round has no internal order of its own: within a round vertices go by
``(original degree, id)``, and that is a round's only sort.  The
decrement is one ``np.subtract.at`` over the removed vertices' live
neighbors, and the next round's vertices are deduplicated through an
``n``-long scratch (each keeps the one position whose write survived),
so no round sorts its neighbors.  Any order inside a round is a degeneracy
ordering (a round's vertices had at most ``k`` live neighbors when it
began); this one is chosen because, used as a vertex ordering, its
Eq. 3 bill is below the bucket queue's on every graph measured
(EXPERIMENTS.md "Wall clock: setup"), where plain id order inside a
round is 0.2–0.5 % above it.
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph

__all__ = [
    "core_decomposition",
    "core_numbers",
    "degeneracy",
    "degeneracy_arboricity_bounds",
    "peeling_order",
]


def core_decomposition(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """``(core, order)`` from one round-synchronous peeling pass.

    ``core[v]`` is the core number of vertex ``v``; ``order[i]`` is the
    vertex peeled *i*-th.  Core numbers are non-decreasing along the
    peel sequence (the current peeling level never drops) and every
    vertex has at most ``core[v]`` neighbors later in it, which are the
    properties the degeneracy vertex ordering relies on.
    """
    n = graph.num_vertices
    core = np.zeros(n, dtype=np.int64)
    order = np.empty(n, dtype=np.int64)
    initial = graph.degrees()
    degree = initial.copy()
    live = np.ones(n, dtype=bool)
    slot = np.empty(n, dtype=np.int64)  # dedupe scratch, read where written
    remaining = np.arange(n, dtype=np.int64)
    frontier = remaining[:0]
    level = peeled = 0
    while peeled < n:
        if len(frontier) == 0:
            # Raise the level to the live minimum.  A vertex is looked at
            # here once per level up to its own, so O(|E|) over the run.
            remaining = remaining[live[remaining]]
            current = degree[remaining]
            level = int(current.min())
            frontier = remaining[current <= level]
        # Ids are distinct, so this is one total (degree, id) order.
        frontier = frontier[np.lexsort((frontier, initial[frontier]))]
        order[peeled:peeled + len(frontier)] = frontier
        peeled += len(frontier)
        core[frontier] = level
        live[frontier] = False
        neighbors = graph.rows(frontier)
        neighbors = neighbors[live[neighbors]]
        np.subtract.at(degree, neighbors, 1)
        candidates = neighbors[degree[neighbors] <= level]
        # One write per distinct vertex survives in ``slot``; keeping the
        # position that won leaves each candidate once, in no set order.
        positions = np.arange(len(candidates))
        slot[candidates] = positions
        frontier = candidates[slot[candidates] == positions]
    return core, order


def core_numbers(graph: Graph) -> np.ndarray:
    """Core number of every vertex."""
    return core_decomposition(graph)[0]


def peeling_order(graph: Graph) -> np.ndarray:
    """The degeneracy peel sequence: ``order[i]`` = vertex removed *i*-th."""
    return core_decomposition(graph)[1]


def degeneracy(graph: Graph) -> int:
    """The graph's degeneracy: the maximum core number."""
    cores = core_numbers(graph)
    return int(cores.max()) if len(cores) else 0


def degeneracy_arboricity_bounds(graph: Graph) -> tuple[float, float]:
    """``(lower, upper)`` bounds on arboricity from the degeneracy.

    ``ceil(d/2) <= arboricity <= d`` for any graph of degeneracy ``d``.
    """
    d = degeneracy(graph)
    return (float(np.ceil(d / 2.0)), float(d))

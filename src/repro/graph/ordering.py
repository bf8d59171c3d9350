"""Vertex-id orderings.

The paper (following Schank & Wagner) relabels vertices so that ids follow
non-decreasing degree: ``degree(u) < degree(v)  =>  id(u) < id(v)``.  High-
degree vertices get high ids, which shrinks their ``n_succ`` lists and cuts
intersection cost by orders of magnitude on power-law graphs.  All five
evaluated methods use this heuristic, so it lives in the graph substrate.

Beyond degree order the catalogue carries two further heuristics from the
tailored-ordering literature (Lécuyer et al.):

* ``degeneracy`` — the k-core peel sequence (Matula & Beck): vertices get
  ids in the order the core decomposition removes them, so the ordering
  tracks coreness rather than raw degree and bounds every ``n_succ``
  list by the graph's degeneracy.  The peel removes a whole round of
  vertices at once and orders a round by ``(original degree, id)``
  (:mod:`repro.graph.cores` says why), so ids inside one core level are
  not the sequential bucket queue's;
* ``locality`` — deterministic BFS from a min-degree root with sorted
  neighbor visits: ids follow neighborhood proximity, which compacts the
  successor ranges the range-pruning adaptive kernel feeds on.  It moves
  a frontier at a time and ranks exactly as the sequential queue does.

No single ordering wins on every graph, so ``auto`` measures the exact
Eq. 3 bill of each candidate via :func:`ordering_op_cost` — a vectorized
closed form over the edge array, no relabeled graph or engine run needed
— and :func:`choose_ordering` picks the cheapest, deterministically.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from repro.graph.cores import peeling_order
from repro.graph.graph import Graph

__all__ = [
    "Ordering",
    "apply_ordering",
    "choose_ordering",
    "degeneracy_order_mapping",
    "degree_order_mapping",
    "locality_order_mapping",
    "ordering_costs",
    "ordering_op_cost",
]


class Ordering(str, Enum):
    """Supported vertex-id orderings."""

    NATURAL = "natural"
    DEGREE = "degree"
    REVERSE_DEGREE = "reverse-degree"  # ablation: the pessimal choice
    RANDOM = "random"
    DEGENERACY = "degeneracy"
    LOCALITY = "locality"
    AUTO = "auto"  # per-graph: cheapest measured Eq. 3 bill wins


#: The orderings ``auto`` measures, in tie-break preference order
#: (earlier wins on equal cost; degree first — it is the paper's default
#: and the cheapest mapping to build).
AUTO_CANDIDATES = (Ordering.DEGREE, Ordering.DEGENERACY, Ordering.LOCALITY,
                   Ordering.NATURAL)


#: Root candidates :func:`locality_order_mapping` tests per lookup.
_ROOT_WINDOW = 1024


def degree_order_mapping(graph: Graph, *, reverse: bool = False) -> np.ndarray:
    """Mapping ``old id -> new id`` sorting vertices by degree.

    Ties break by original id, making the mapping deterministic.  With
    ``reverse=True`` high-degree vertices get *low* ids (the pessimal
    ordering, used by the ordering ablation benchmark).
    """
    degrees = graph.degrees()
    if reverse:
        degrees = -degrees
    order = np.lexsort((np.arange(graph.num_vertices), degrees))
    mapping = np.empty(graph.num_vertices, dtype=np.int64)
    mapping[order] = np.arange(graph.num_vertices, dtype=np.int64)
    return mapping


def degeneracy_order_mapping(graph: Graph) -> np.ndarray:
    """Mapping ``old id -> new id`` following the k-core peel sequence.

    The vertex peeled *i*-th gets id ``i``; core numbers are
    non-decreasing along the sequence, so low-core periphery gets low
    ids and the dense core gets high ids — every ``n_succ`` list is then
    bounded by the graph's degeneracy.
    """
    order = peeling_order(graph)
    mapping = np.empty(graph.num_vertices, dtype=np.int64)
    mapping[order] = np.arange(graph.num_vertices, dtype=np.int64)
    return mapping


def locality_order_mapping(graph: Graph) -> np.ndarray:
    """Mapping ``old id -> new id`` by deterministic BFS visit rank.

    Each component is traversed breadth-first from its minimum-degree
    vertex (ties by lowest id), neighbors visited in ascending id order;
    components start from the lowest-id unvisited root candidate.  Ids
    then follow neighborhood proximity, which narrows the successor-range
    spans the range-pruning adaptive kernel intersects.

    One round of array calls per BFS level of each component: the ranks
    are the sequential queue's, the cost is not per vertex.  A level's
    new frontier is the unranked vertices of its rows laid end to end, each
    at its first occurrence: ``np.minimum.at`` writes every vertex's first
    position into an ``n``-long scratch and a vertex is kept where its
    position is that one, so no level sorts.
    """
    n = graph.num_vertices
    degrees = graph.degrees()
    mapping = np.full(n, -1, dtype=np.int64)
    # Degree-0 vertices lead the root sequence and each is a whole
    # component, so together they take the first ranks in id order.
    isolated = np.flatnonzero(degrees == 0)
    mapping[isolated] = np.arange(len(isolated))
    ranked = len(isolated)
    # Root preference: min degree, then min id — one lexsort gives the
    # global candidate sequence; per component the first unvisited
    # candidate is the root.
    roots = np.lexsort((np.arange(n), degrees))
    # Per vertex, its first position in the level being expanded; reset to
    # ``unseen`` after each level, so only the cells a level wrote change.
    unseen = np.iinfo(np.int64).max
    first = np.full(n, unseen, dtype=np.int64)
    cursor = ranked
    while ranked < n:
        # The next root is the first unranked candidate past the last
        # root; a window at a time keeps the search O(n) over the run.
        unranked = np.flatnonzero(
            mapping[roots[cursor:cursor + _ROOT_WINDOW]] < 0)
        if len(unranked) == 0:
            cursor += _ROOT_WINDOW
            continue
        cursor += int(unranked[0])
        frontier = roots[cursor:cursor + 1]
        while len(frontier):
            mapping[frontier] = np.arange(ranked, ranked + len(frontier))
            ranked += len(frontier)
            # The sequential queue ranks a vertex when the earliest-ranked
            # neighbor reaches it: its first occurrence in the frontier's
            # rows laid end to end.
            reached = graph.rows(frontier)
            reached = reached[mapping[reached] < 0]
            positions = np.arange(len(reached))
            np.minimum.at(first, reached, positions)
            frontier = reached[first[reached] == positions]
            first[frontier] = unseen
    return mapping


def ordering_op_cost(graph: Graph, mapping: np.ndarray) -> int:
    """The exact Eq. 3 bill of EdgeIterator≻ under *mapping*.

    For each undirected edge, orient it low-to-high under the new ids;
    the hash kernel then charges ``min(|n_succ(u')|, |n_succ(v')|)`` for
    that pair.  Out-degrees under the mapping are one ``bincount`` over
    the oriented edge array, so the whole bill is closed-form — no
    relabeled graph, no engine run — and matches the relabeled run's
    ``cpu_ops`` exactly (asserted by the ordering property tests).
    """
    return _op_cost(graph.num_vertices, _oriented_edges(graph), mapping)


def _oriented_edges(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Every undirected edge once, as contiguous ``(low id, high id)`` columns."""
    sources = np.repeat(np.arange(graph.num_vertices, dtype=np.int64),
                        graph.degrees())
    keep = sources < graph.indices
    return sources[keep], graph.indices[keep]


def _op_cost(n: int, edges: tuple[np.ndarray, np.ndarray],
             mapping: np.ndarray | None) -> int:
    """:func:`ordering_op_cost` over edge columns computed once.

    ``mapping=None`` prices the identity, under which the columns are
    already oriented low-to-high.
    """
    lo, hi = edges
    if n == 0 or len(lo) == 0:
        return 0
    if mapping is not None:
        mapped_u = mapping[lo]
        mapped_v = mapping[hi]
        lo = np.minimum(mapped_u, mapped_v)
        hi = np.maximum(mapped_u, mapped_v)
    outdeg = np.bincount(lo, minlength=n)
    return int(np.minimum(outdeg[lo], outdeg[hi]).sum())


def _mapping_for(graph: Graph, ordering: Ordering, seed: int) -> np.ndarray:
    if ordering is Ordering.NATURAL:
        return np.arange(graph.num_vertices, dtype=np.int64)
    if ordering is Ordering.DEGREE:
        return degree_order_mapping(graph)
    if ordering is Ordering.REVERSE_DEGREE:
        return degree_order_mapping(graph, reverse=True)
    if ordering is Ordering.DEGENERACY:
        return degeneracy_order_mapping(graph)
    if ordering is Ordering.LOCALITY:
        return locality_order_mapping(graph)
    if ordering is Ordering.RANDOM:
        rng = np.random.default_rng(seed)
        return rng.permutation(graph.num_vertices).astype(np.int64)
    raise ValueError(f"ordering {ordering!r} has no direct mapping")


def _priced(graph: Graph) -> dict[Ordering, tuple[int, np.ndarray]]:
    """``(Eq. 3 bill, mapping)`` of every ``auto`` candidate on *graph*."""
    edges = _oriented_edges(graph)
    priced = {}
    for ordering in AUTO_CANDIDATES:
        mapping = _mapping_for(graph, ordering, 0)
        priced_by = None if ordering is Ordering.NATURAL else mapping
        priced[ordering] = (_op_cost(graph.num_vertices, edges, priced_by),
                            mapping)
    return priced


def _cheapest(graph: Graph) -> tuple[Ordering, np.ndarray]:
    """:func:`choose_ordering`'s pick and the mapping it was priced by."""
    priced = _priced(graph)
    ordering = min(AUTO_CANDIDATES, key=lambda ordering: priced[ordering][0])
    return ordering, priced[ordering][1]


def ordering_costs(graph: Graph) -> dict[Ordering, int]:
    """Measured Eq. 3 bill of every ``auto`` candidate on *graph*."""
    return {ordering: cost for ordering, (cost, _) in _priced(graph).items()}


def choose_ordering(graph: Graph) -> Ordering:
    """The cheapest candidate by measured Eq. 3 bill, deterministically.

    Ties break by :data:`AUTO_CANDIDATES` position, so the choice is a
    pure function of the graph — same graph (same generator seed), same
    answer, which the ordering property tests pin.
    """
    return _cheapest(graph)[0]


def apply_ordering(
    graph: Graph,
    ordering: Ordering | str = Ordering.DEGREE,
    *,
    seed: int = 0,
) -> tuple[Graph, np.ndarray]:
    """Relabel *graph* under *ordering*; returns ``(graph, mapping)``.

    ``mapping[old_id] == new_id``; for ``Ordering.NATURAL`` the mapping is
    the identity and the input graph object is returned unchanged.
    ``Ordering.AUTO`` resolves through :func:`choose_ordering` first and
    relabels by the very mapping it priced.
    """
    ordering = Ordering(ordering)
    mapping = None
    if ordering is Ordering.AUTO:
        ordering, mapping = _cheapest(graph)
    if ordering is Ordering.NATURAL:
        return graph, np.arange(graph.num_vertices, dtype=np.int64)
    if mapping is None:
        mapping = _mapping_for(graph, ordering, seed)
    return graph.relabel(mapping), mapping

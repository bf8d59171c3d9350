"""Hypothesis properties of the vertex-ordering catalogue.

Orderings silently corrupt results when a mapping is not a permutation
or when a relabeled run lists different triangles; they silently corrupt
*costs* when the measured-op heuristic disagrees with what the engine
actually charges.  These properties pin all of it, over arbitrary simple
graphs:

* every ordering mapping is a valid permutation of the vertex ids;
* triangle listings are isomorphic under relabeling — same count, and
  the oracle's triangles map exactly onto the relabeled oracle's;
* the degeneracy order respects core numbers (non-decreasing along the
  peel sequence);
* :func:`~repro.graph.ordering.ordering_op_cost` equals the relabeled
  engine's measured Eq. 3 bill exactly;
* :func:`~repro.graph.ordering.choose_ordering` is deterministic per
  graph seed and actually picks the measured minimum, and ``auto``
  relabels by the mapping it priced instead of building it again;
* the round-synchronous peel and the frontier-at-a-time BFS agree with
  the sequential bucket-queue peel and queue BFS they replaced, which
  are kept below as reference models (:func:`reference_peel`,
  :func:`reference_bfs_ranks`): equal core numbers, a valid degeneracy
  ordering, and the BFS mapping element for element;
* the peel *sequence* is the per-vertex round model's
  (:func:`reference_round_peel`), element for element;
* the four ``auto`` bills and the pick on the four end-to-end benchmark
  graphs are the measured values.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import ordering as ordering_module
from repro.graph.builder import from_edges
from repro.graph.cores import (
    core_decomposition,
    core_numbers,
    degeneracy,
    peeling_order,
)
from repro.graph.generators import holme_kim, rmat
from repro.graph.ordering import (
    AUTO_CANDIDATES,
    Ordering,
    apply_ordering,
    choose_ordering,
    degeneracy_order_mapping,
    locality_order_mapping,
    ordering_costs,
    ordering_op_cost,
)
from repro.memory import edge_iterator
from repro.verify import oracle_triangles

#: An arbitrary simple graph as (num_vertices, edge list) — same shape
#: as the chunk-planning property suite.
graphs = st.integers(min_value=0, max_value=40).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, max(0, n - 1)),
                      st.integers(0, max(0, n - 1))),
            max_size=120,
        ) if n > 0 else st.just([]),
    )
)

#: Every ordering with a direct mapping (AUTO resolves to one of these).
DIRECT_ORDERINGS = [ordering for ordering in Ordering
                    if ordering is not Ordering.AUTO]


def _build(spec):
    num_vertices, edges = spec
    return from_edges([(u, v) for u, v in edges if u != v],
                      num_vertices=num_vertices)


@settings(max_examples=60, deadline=None)
@given(spec=graphs, ordering=st.sampled_from(DIRECT_ORDERINGS))
def test_every_mapping_is_a_permutation(spec, ordering):
    graph = _build(spec)
    _, mapping = apply_ordering(graph, ordering, seed=7)
    n = graph.num_vertices
    assert len(mapping) == n
    assert sorted(mapping.tolist()) == list(range(n))


@settings(max_examples=40, deadline=None)
@given(spec=graphs, ordering=st.sampled_from(DIRECT_ORDERINGS))
def test_listings_are_isomorphic_under_relabeling(spec, ordering):
    graph = _build(spec)
    relabeled, mapping = apply_ordering(graph, ordering, seed=7)
    original = oracle_triangles(graph)
    remapped = sorted(
        tuple(sorted((int(mapping[u]), int(mapping[v]), int(mapping[w]))))
        for u, v, w in original
    )
    assert remapped == [tuple(t) for t in oracle_triangles(relabeled)]


@settings(max_examples=60, deadline=None)
@given(spec=graphs)
def test_degeneracy_order_respects_core_numbers(spec):
    graph = _build(spec)
    core = core_numbers(graph)
    order = peeling_order(graph)
    assert sorted(order.tolist()) == list(range(graph.num_vertices))
    along_peel = core[order]
    assert (np.diff(along_peel) >= 0).all(), (
        "core numbers must be non-decreasing along the peel sequence")


@settings(max_examples=40, deadline=None)
@given(spec=graphs, ordering=st.sampled_from(DIRECT_ORDERINGS))
def test_op_cost_formula_matches_measured_engine_bill(spec, ordering):
    graph = _build(spec)
    relabeled, mapping = apply_ordering(graph, ordering, seed=7)
    assert ordering_op_cost(graph, mapping) == edge_iterator(relabeled).cpu_ops


@settings(max_examples=30, deadline=None)
@given(spec=graphs)
def test_choose_ordering_picks_the_measured_minimum(spec):
    graph = _build(spec)
    chosen = choose_ordering(graph)
    costs = ordering_costs(graph)
    assert chosen in AUTO_CANDIDATES
    assert costs[chosen] == min(costs.values())
    # Deterministic tie-break: the earliest candidate at the minimum.
    assert chosen == next(ordering for ordering in AUTO_CANDIDATES
                          if costs[ordering] == costs[chosen])


@settings(max_examples=30, deadline=None)
@given(spec=graphs)
def test_auto_relabels_by_the_mapping_it_priced(spec):
    """``apply_ordering(graph, AUTO)`` is the chosen ordering applied, and
    builds each candidate's mapping once: the winner is not rebuilt."""
    graph = _build(spec)
    built = []
    real = ordering_module._mapping_for

    def counted(graph, ordering, seed):
        built.append(ordering)
        return real(graph, ordering, seed)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ordering_module, "_mapping_for", counted)
        relabeled, mapping = apply_ordering(graph, Ordering.AUTO)
    assert built == list(AUTO_CANDIDATES)
    expected, expected_mapping = apply_ordering(graph, choose_ordering(graph))
    assert np.array_equal(mapping, expected_mapping)
    assert np.array_equal(relabeled.indptr, expected.indptr)
    assert np.array_equal(relabeled.indices, expected.indices)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 50))
def test_choose_ordering_is_deterministic_per_graph_seed(seed):
    first = choose_ordering(rmat(64, 300, seed=seed))
    second = choose_ordering(rmat(64, 300, seed=seed))
    assert first == second
    # AUTO resolves to the same relabeled graph both times.
    graph_a, map_a = apply_ordering(rmat(64, 300, seed=seed), Ordering.AUTO)
    graph_b, map_b = apply_ordering(rmat(64, 300, seed=seed), Ordering.AUTO)
    assert (map_a == map_b).all()
    assert (graph_a.indptr == graph_b.indptr).all()
    assert (graph_a.indices == graph_b.indices).all()


# -- the sequential algorithms the array forms replaced, as reference models ---


def reference_peel(graph):
    """``(core, order)`` by the Batagelj–Zaveršnik bucket queue, one vertex
    at a time: what ``core_decomposition`` was before it peeled in rounds."""
    n = graph.num_vertices
    if n == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    degree = graph.degrees().astype(np.int64).copy()
    bin_start = np.zeros(int(degree.max()) + 2, dtype=np.int64)
    for d in degree:
        bin_start[d + 1] += 1
    bin_start = np.cumsum(bin_start)
    position = np.zeros(n, dtype=np.int64)
    order = np.zeros(n, dtype=np.int64)
    fill = bin_start[:-1].copy()
    for v in range(n):
        position[v] = fill[degree[v]]
        order[position[v]] = v
        fill[degree[v]] += 1
    core = degree.copy()
    bin_ptr = bin_start[:-1].copy()
    for index in range(n):
        v = int(order[index])
        for u in graph.neighbors(v):
            u = int(u)
            if core[u] > core[v]:
                du = core[u]
                pu = position[u]
                pw = bin_ptr[du]
                w = int(order[pw])
                if u != w:
                    order[pu], order[pw] = w, u
                    position[u], position[w] = pw, pu
                bin_ptr[du] += 1
                core[u] -= 1
    return core, order


def reference_bfs_ranks(graph):
    """BFS visit ranks by an explicit queue, one vertex at a time: what
    ``locality_order_mapping`` was before it moved a frontier at a time."""
    n = graph.num_vertices
    mapping = np.full(n, -1, dtype=np.int64)
    roots = np.lexsort((np.arange(n), graph.degrees()))
    next_rank = 0
    for root in roots.tolist():
        if mapping[root] >= 0:
            continue
        queue = [root]
        mapping[root] = next_rank
        next_rank += 1
        for u in queue:  # grows while iterated: the BFS queue
            for v in graph.neighbors(u).tolist():
                if mapping[v] < 0:
                    mapping[v] = next_rank
                    next_rank += 1
                    queue.append(v)
    return mapping


def reference_round_peel(graph):
    """``(core, order)`` of the round-synchronous peel, one vertex at a time.

    Each round removes every live vertex whose degree is at most the
    level ``k``, in ``(original degree, id)`` order, then decrements their
    live neighbors; ``k`` rises to the live minimum when a round would
    remove none.
    """
    n = graph.num_vertices
    initial = graph.degrees().tolist()
    degree = list(initial)
    live = [True] * n
    core = [0] * n
    order = []
    level = 0
    while len(order) < n:
        peel = [v for v in range(n) if live[v] and degree[v] <= level]
        if not peel:
            level = min(degree[v] for v in range(n) if live[v])
            continue
        peel.sort(key=lambda v: (initial[v], v))
        for v in peel:
            live[v] = False
            core[v] = level
        for v in peel:
            for u in graph.neighbors(v).tolist():
                if live[u]:
                    degree[u] -= 1
        order.extend(peel)
    return core, order


def _later_neighbors(graph, order):
    """Per vertex, how many neighbors come after it in *order*."""
    rank = np.empty(graph.num_vertices, dtype=np.int64)
    rank[order] = np.arange(graph.num_vertices)
    edges = graph.edge_array()
    first = np.where(rank[edges[:, 0]] < rank[edges[:, 1]],
                     edges[:, 0], edges[:, 1])
    return np.bincount(first, minlength=graph.num_vertices)


@settings(max_examples=120, deadline=None)
@given(spec=graphs)
def test_round_peel_matches_the_bucket_queue(spec):
    graph = _build(spec)
    core, order = core_decomposition(graph)
    expected_core, expected_order = reference_peel(graph)
    assert core.tolist() == expected_core.tolist()
    assert degeneracy(graph) == int(expected_core.max(initial=0))
    # The sequence differs from the bucket queue's (ties inside a round
    # go by (degree, id)); what a degeneracy ordering owes is unchanged.
    assert sorted(order.tolist()) == list(range(graph.num_vertices))
    assert (np.diff(core[order]) >= 0).all()
    assert (_later_neighbors(graph, order) <= core).all()
    assert (_later_neighbors(graph, expected_order) <= core).all()


@settings(max_examples=120, deadline=None)
@given(spec=graphs)
def test_round_peel_sequence_matches_the_round_model(spec):
    """The sequence ``degeneracy`` relabels by, not only its properties."""
    graph = _build(spec)
    core, order = core_decomposition(graph)
    expected_core, expected_order = reference_round_peel(graph)
    assert order.tolist() == expected_order
    assert core.tolist() == expected_core


@settings(max_examples=120, deadline=None)
@given(spec=graphs)
def test_frontier_bfs_matches_the_queue_bfs(spec):
    # ``graphs`` leaves isolated vertices and several components in.
    graph = _build(spec)
    assert (locality_order_mapping(graph).tolist()
            == reference_bfs_ranks(graph).tolist())


def test_rewritten_orderings_match_the_models_on_seeded_graphs():
    """Larger than hypothesis goes: skewed, many components, many rounds."""
    for seed in range(4):
        graph = rmat(600, 1500, seed=seed)  # sparse: dozens of components
        core, order = core_decomposition(graph)
        assert core.tolist() == reference_peel(graph)[0].tolist()
        assert order.tolist() == reference_round_peel(graph)[1]
        assert (_later_neighbors(graph, order) <= core).all()
        assert (locality_order_mapping(graph).tolist()
                == reference_bfs_ranks(graph).tolist())


def test_round_peel_bill_is_not_above_the_bucket_queues():
    """The stated reason for the new tie-break: a lower Eq. 3 bill."""
    for seed in range(3):
        graph = rmat(800, 8000, seed=seed)
        queue_mapping = np.empty(graph.num_vertices, dtype=np.int64)
        queue_mapping[reference_peel(graph)[1]] = np.arange(graph.num_vertices)
        assert (ordering_op_cost(graph, degeneracy_order_mapping(graph))
                <= ordering_op_cost(graph, queue_mapping))


#: The four ``auto`` bills (in ``AUTO_CANDIDATES`` order) and the pick on
#: the end-to-end benchmark's graphs at seed 1, as measured.
BENCHMARK_BILLS = {
    "mem-count-skew": (lambda: rmat(7500, 75000, seed=1),
                       (812_280, 866_774, 898_340, 910_715), Ordering.DEGREE),
    "mem-list-dense": (lambda: holme_kim(1250, 40, 0.9, seed=1),
                       (1_506_180, 1_572_317, 1_486_759, 1_582_395),
                       Ordering.LOCALITY),
    "proc-list-social": (lambda: holme_kim(5000, 14, 0.9, seed=1),
                         (840_552, 921_701, 861_816, 904_369), Ordering.DEGREE),
    "disk-opt-web": (lambda: holme_kim(5000, 16, 0.45, seed=1),
                     (1_092_895, 1_199_258, 1_117_093, 1_176_207),
                     Ordering.DEGREE),
}


@pytest.mark.parametrize("workload", sorted(BENCHMARK_BILLS))
def test_bills_on_the_benchmark_graphs(workload):
    generate, bills, pick = BENCHMARK_BILLS[workload]
    graph = generate()
    assert ordering_costs(graph) == dict(zip(AUTO_CANDIDATES, bills))
    assert choose_ordering(graph) is pick


def test_path_graph_peels_and_ranks_fast():
    """A path is the worst case for rounds: two vertices a round, and one
    BFS level per vertex from the end the root sits at."""
    n = 2000
    path = from_edges([(v, v + 1) for v in range(n - 1)])
    start = time.perf_counter()
    core, order = core_decomposition(path)
    mapping = locality_order_mapping(path)
    elapsed = time.perf_counter() - start
    assert core.tolist() == [1] * n
    assert (_later_neighbors(path, order) <= 1).all()
    assert mapping.tolist() == list(range(n))
    assert elapsed < 1.0

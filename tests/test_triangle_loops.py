"""The batched triangle loops against their per-pair reference models.

In-memory VertexIterator≻ is one :func:`~repro.exec.block.probe_pairs`
over the whole CSR, and the partition baselines' range pass is one
:func:`~repro.exec.block.block_range`; their planning (ranges, page
counts) and GraphChi-Tri's parallel / sequential work split are array
code.  The loops they replaced live here as reference models, next to
``tests/test_opt_block.py::reference_run`` (the disk plugins'):

* :func:`reference_vertex_iterator` — Algorithm 1, a pair at a time;
* :func:`reference_range_pass` — EdgeIterator≻ over a range, an edge at
  a time;
* :func:`reference_graphchi_split` — GraphChi's bill, an edge at a time;
* :func:`reference_partition_ranges` / :func:`reference_induced_pages` —
  the greedy planner and the page count, a vertex at a time.

Each is diffed on triangles, ops and the exact group sequence over the
zoo and hypothesis graphs, and once with ``BLOCK_ENTRIES`` cut to 1.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import cc_ds, cc_seq, graphchi_tri
from repro.baselines.common import (
    NEIGHBOR_BYTES,
    RECORD_HEADER_BYTES,
    induced_pages,
    partition_ranges,
    range_triangle_pass,
)
from repro.exec import block
from repro.graph import from_edges, generators
from repro.graph.ordering import apply_ordering
from repro.memory import vertex_iterator
from repro.sim import CostModel
from repro.util.intersect import HASH_PROBE_COST
from tests import zoo
from tests.test_opt_block import GroupSink

COST = CostModel()

random_graphs = st.integers(1, 30).flatmap(lambda n: st.lists(
    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=150,
).map(lambda edges: from_edges([(u, v) for u, v in edges if u != v],
                               num_vertices=n)))


# ---------------------------------------------------------------------------
# The reference models
# ---------------------------------------------------------------------------


def reference_vertex_iterator(graph, sink):
    """Algorithm 1, a pair at a time: for each ``v`` of ``n_succ(u)``, the
    ``w`` of ``n_succ(u)`` above ``v`` that are neighbors of ``v``, one
    probe per ``w``.  Returns ``(triangles, ops)``."""
    triangles = ops = 0
    for u in range(graph.num_vertices):
        succ_u = graph.n_succ(u)
        for at, v in enumerate(succ_u.tolist()):
            above = succ_u[at + 1:]
            ops += HASH_PROBE_COST * len(above)
            hits = above[np.isin(above, graph.neighbors(v), assume_unique=True)]
            if len(hits):
                triangles += len(hits)
                sink.emit(u, v, hits.tolist())
    return triangles, ops


def reference_range_pass(graph, lo, hi, sink):
    """EdgeIterator≻ over ``[lo, hi]``, an edge at a time: ``n_succ(u) ∩
    n_succ(v)``, charged the shorter list (Eq. 3).  Returns
    ``(triangles, ops)``."""
    triangles = ops = 0
    for u in range(lo, hi + 1):
        succ_u = graph.n_succ(u)
        for v in succ_u.tolist():
            succ_v = graph.n_succ(v)
            ops += min(len(succ_u), len(succ_v))
            common = np.intersect1d(succ_u, succ_v, assume_unique=True)
            if len(common):
                triangles += len(common)
                sink.emit(u, v, common.tolist())
    return triangles, ops


def reference_graphchi_split(graph, ranges):
    """``(parallel, sequential)`` Eq. 3 ops of GraphChi's rounds, one edge
    at a time: edge ``(u, v)`` of round ``[lo, hi]`` is sequential when
    *v* lies in the same interval."""
    parallel = sequential = 0
    for lo, hi in ranges:
        for u in range(lo, hi + 1):
            succ_u = graph.n_succ(u)
            for v in succ_u.tolist():
                probe = min(len(succ_u), len(graph.n_succ(v)))
                if lo <= v <= hi:
                    sequential += probe
                else:
                    parallel += probe
    return parallel, sequential


def reference_partition_ranges(graph, budget_pages, page_size):
    """The greedy planner, a vertex at a time."""
    ranges = []
    budget_bytes = max(1, budget_pages) * page_size
    lo = 0
    current_bytes = 0
    for v in range(graph.num_vertices):
        record_bytes = RECORD_HEADER_BYTES + NEIGHBOR_BYTES * graph.degree(v)
        if current_bytes and current_bytes + record_bytes > budget_bytes:
            ranges.append((lo, v - 1))
            lo = v
            current_bytes = 0
        current_bytes += record_bytes
    if graph.num_vertices:
        ranges.append((lo, graph.num_vertices - 1))
    return ranges


def reference_induced_pages(graph, lo, page_size):
    """Pages of the records of vertices ``>= lo``, a vertex at a time."""
    total_bytes = 0
    for v in range(lo, graph.num_vertices):
        row = graph.neighbors(v)
        kept = len(row) - int(np.searchsorted(row, lo, side="left"))
        total_bytes += RECORD_HEADER_BYTES + NEIGHBOR_BYTES * kept
    return int(np.ceil(total_bytes / page_size)) if total_bytes else 0


# ---------------------------------------------------------------------------
# In-memory VertexIterator≻
# ---------------------------------------------------------------------------


def assert_vertex_iterator(graph):
    expected_sink, sink = GroupSink(), GroupSink()
    expected = reference_vertex_iterator(graph, expected_sink)
    result = vertex_iterator(graph, sink)
    assert (result.triangles, result.cpu_ops) == expected
    assert sink.groups == expected_sink.groups
    assert vertex_iterator(graph) == result  # count only: the same bill


@pytest.mark.parametrize("name", zoo.zoo_names())
def test_vertex_iterator_is_the_reference_model(name):
    assert_vertex_iterator(zoo.build(name))


@given(random_graphs)
@settings(max_examples=40, deadline=None)
def test_vertex_iterator_on_random_graphs(graph):
    assert_vertex_iterator(graph)


# ---------------------------------------------------------------------------
# The partition baselines
# ---------------------------------------------------------------------------


def assert_partition_baselines(graph, buffer_pages, page_size):
    ranges = reference_partition_ranges(graph, buffer_pages, page_size)
    assert partition_ranges(graph, buffer_pages, page_size) == ranges
    for lo in range(graph.num_vertices + 2):
        assert (induced_pages(graph, lo, page_size)
                == reference_induced_pages(graph, lo, page_size)), lo
    expected_sink = GroupSink()
    triangles = ops = 0
    for lo, hi in ranges:
        expected_groups = len(expected_sink.groups)
        expected = reference_range_pass(graph, lo, hi, expected_sink)
        sink = GroupSink()
        assert range_triangle_pass(graph, lo, hi, sink) == expected
        assert range_triangle_pass(graph, lo, hi) == expected
        assert sink.groups == expected_sink.groups[expected_groups:]
        triangles += expected[0]
        ops += expected[1]

    sink = GroupSink()
    result = cc_seq(graph, buffer_pages=buffer_pages, page_size=page_size,
                    cost=COST, sink=sink)
    assert (result.triangles, result.cpu_ops) == (triangles, ops)
    assert sink.groups == expected_sink.groups

    sink = GroupSink()
    result = graphchi_tri(graph, buffer_pages=buffer_pages,
                          page_size=page_size, cost=COST, sink=sink)
    assert result.triangles == triangles
    assert sink.groups == expected_sink.groups
    assert_graphchi_split(result, graph, ranges)


def assert_graphchi_split(result, graph, ranges):
    """*result* bills GraphChi's rounds over *ranges* as the per-edge
    model splits them."""
    parallel, sequential = reference_graphchi_split(graph, ranges)
    assert result.cpu_ops == 2 * (parallel + sequential)
    serial = result.extra["serial_elapsed"]
    assert result.extra["parallel_fraction"] == (
        COST.cpu(parallel) * 2.0 / serial if serial else 0.0)


@pytest.mark.parametrize("name", zoo.zoo_names())
@pytest.mark.parametrize("page_size, buffer_pages", [(64, 2), (256, 1), (256, 5)])
def test_partition_baselines_are_the_reference_model(name, page_size,
                                                     buffer_pages):
    assert_partition_baselines(zoo.build(name), buffer_pages, page_size)


@given(random_graphs, st.sampled_from([64, 128]), st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_partition_baselines_on_random_graphs(graph, page_size, buffer_pages):
    assert_partition_baselines(graph, buffer_pages, page_size)


def test_graphchi_split_on_a_skewed_graph():
    """An edge to an interval's last vertex stays inside the interval."""
    graph, _ = apply_ordering(generators.rmat(2000, 16000, seed=0), "degree")
    result = graphchi_tri(graph, buffer_pages=6, page_size=4096, cost=COST)
    assert_graphchi_split(result, graph,
                          reference_partition_ranges(graph, 6, 4096))


def test_graphchi_one_interval_is_all_sequential(small_rmat_ordered):
    result = graphchi_tri(small_rmat_ordered, buffer_pages=10_000,
                          page_size=256, cost=COST)
    assert result.extra["intervals"] == 1
    assert result.extra["parallel_fraction"] == 0.0


def test_cc_ds_plans_coarser_ranges(small_rmat_ordered):
    """CC-DS is CC-Seq's pass over 1.4x the budget."""
    ds = cc_ds(small_rmat_ordered, buffer_pages=5, page_size=256, cost=COST)
    ranges = reference_partition_ranges(small_rmat_ordered, 7, 256)
    assert ds.iterations == len(ranges)
    assert ds.cpu_ops == sum(reference_range_pass(
        small_rmat_ordered, lo, hi, GroupSink())[1] for lo, hi in ranges)


# ---------------------------------------------------------------------------
# Probes cut into one-entry blocks
# ---------------------------------------------------------------------------


def test_one_entry_blocks_change_nothing():
    """``BLOCK_ENTRIES`` bounds every gather; cut to 1, every batched loop
    still answers as its reference model."""
    graph = zoo.build("star-of-cliques")
    with mock.patch.object(block, "BLOCK_ENTRIES", 1):
        assert_vertex_iterator(graph)
        assert_partition_baselines(graph, 2, 128)

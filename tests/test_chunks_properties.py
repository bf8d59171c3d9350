"""Property tests for the degree-balanced chunk planner.

:func:`repro.parallel.chunks.plan_chunks` is the root of the parallel
engine's determinism guarantee: the chunk list is planned once in the
parent, and "every triangle listed at its minimum vertex" turns any
contiguous-disjoint-covering split into a correct parallel plan.  These
properties pin the contract over *arbitrary* degree sequences —
including the skewed, the empty, and the all-isolated — rather than the
handful of graphs the unit tests use:

* chunks are half-open, non-empty, sorted, and pairwise disjoint;
* their union is exactly ``[0, num_vertices)`` (no vertex lost or
  duplicated ⇒ no triangle lost or double-listed);
* the plan never exceeds the requested chunk count;
* :func:`default_chunk_count` stays within the oversubscription bound
  ``workers * OVERSUBSCRIPTION`` and never exceeds the vertex count.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.graph.builder import from_edges
from repro.parallel.chunks import (
    OVERSUBSCRIPTION,
    default_chunk_count,
    plan_chunks,
)

#: An arbitrary simple graph as (num_vertices, edge list): degree
#: sequences from empty through star-skewed arise naturally.
graphs = st.integers(min_value=0, max_value=60).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, max(0, n - 1)),
                      st.integers(0, max(0, n - 1))),
            max_size=150,
        ) if n > 0 else st.just([]),
    )
)


def _build(spec):
    num_vertices, edges = spec
    return from_edges([(u, v) for u, v in edges if u != v],
                      num_vertices=num_vertices)


@settings(max_examples=60, deadline=None)
@given(spec=graphs, chunks=st.integers(min_value=1, max_value=24))
def test_plan_is_a_disjoint_cover(spec, chunks):
    graph = _build(spec)
    plan = plan_chunks(graph, chunks)
    assert plan, "plan is never empty (degenerate graphs get one range)"
    if graph.num_vertices == 0:
        # The degenerate contract: one explicitly empty range.
        assert plan == [(0, 0)]
        return
    # Non-empty half-open ranges in sorted order.
    for lo, hi in plan:
        assert 0 <= lo < hi <= graph.num_vertices, (lo, hi)
    # Adjacent ranges chain exactly: disjoint and gap-free, and together
    # they cover [0, num_vertices) — no vertex lost or duplicated.
    for (_, prev_hi), (lo, _) in zip(plan, plan[1:]):
        assert lo == prev_hi
    assert plan[0][0] == 0
    assert plan[-1][1] == graph.num_vertices
    assert sum(hi - lo for lo, hi in plan) == graph.num_vertices


@settings(max_examples=60, deadline=None)
@given(spec=graphs, chunks=st.integers(min_value=1, max_value=24))
def test_plan_respects_requested_chunk_count(spec, chunks):
    graph = _build(spec)
    plan = plan_chunks(graph, chunks)
    assert len(plan) <= max(chunks, 1)


@settings(max_examples=60, deadline=None)
@given(spec=graphs, workers=st.integers(min_value=1, max_value=16))
def test_default_chunk_count_oversubscription_bound(spec, workers):
    graph = _build(spec)
    count = default_chunk_count(graph, workers)
    assert 1 <= count <= workers * OVERSUBSCRIPTION
    if graph.num_vertices:
        assert count <= graph.num_vertices
    # The bound composes with the planner: the realized plan respects it.
    plan = plan_chunks(graph, count)
    assert len(plan) <= count


@settings(max_examples=40, deadline=None)
@given(spec=graphs, chunks=st.integers(min_value=1, max_value=24))
def test_plan_is_deterministic(spec, chunks):
    graph = _build(spec)
    assert plan_chunks(graph, chunks) == plan_chunks(graph, chunks)


@settings(max_examples=20, deadline=None)
@given(num_vertices=st.integers(min_value=1, max_value=60),
       chunks=st.integers(min_value=1, max_value=24))
def test_zero_edge_graph_is_one_full_range_chunk(num_vertices, chunks):
    """No successor mass to balance: one chunk, not *chunks* empty ones."""
    graph = from_edges([], num_vertices=num_vertices)
    assert plan_chunks(graph, chunks) == [(0, num_vertices)]


@pytest.mark.parametrize("chunks", [0, -3])
def test_chunk_count_below_one_is_rejected(chunks):
    with pytest.raises(ConfigurationError):
        plan_chunks(from_edges([(0, 1)], num_vertices=2), chunks)

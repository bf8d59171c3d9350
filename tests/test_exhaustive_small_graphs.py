"""Exhaustive agreement testing on small graphs.

Every graph on 5 vertices (all 2^10 = 1024 edge subsets) runs through the
in-memory methods and, for a deterministic sample, the full disk stack —
brute-force triangle counting is the independent oracle.  Exhaustiveness
at this scale catches boundary cases (empty graphs, isolated vertices,
stars, near-cliques) that random generators rarely emit.
"""

from __future__ import annotations

from itertools import combinations

import pytest

from repro.core import triangulate_disk
from repro.graph.builder import from_edges
from repro.memory import (
    compact_forward,
    edge_iterator,
    forward,
    matrix_count,
    vertex_iterator,
)
from repro.parallel import triangulate_parallel

VERTICES = 5
ALL_EDGES = list(combinations(range(VERTICES), 2))  # 10 possible edges


def possible_edges(vertices: int) -> list[tuple[int, int]]:
    return list(combinations(range(vertices), 2))


def brute_force_triangles(edge_set: frozenset, vertices: int = VERTICES) -> int:
    count = 0
    for a, b, c in combinations(range(vertices), 3):
        if ({(a, b), (a, c), (b, c)} <= edge_set):
            count += 1
    return count


def graph_of(mask: int, vertices: int = VERTICES):
    universe = possible_edges(vertices)
    edges = [edge for bit, edge in enumerate(universe) if mask >> bit & 1]
    return from_edges(edges, num_vertices=vertices), frozenset(edges)


class TestExhaustive:
    def test_all_1024_graphs_in_memory(self):
        """Every 5-vertex graph, every in-memory method, vs brute force."""
        for mask in range(1 << len(ALL_EDGES)):
            graph, edge_set = graph_of(mask)
            expected = brute_force_triangles(edge_set)
            assert edge_iterator(graph).triangles == expected, mask
            assert vertex_iterator(graph).triangles == expected, mask
            assert forward(graph).triangles == expected, mask
            assert compact_forward(graph).triangles == expected, mask

    def test_matrix_method_sample(self):
        """The matmul hybrid on every 32nd graph (it is the slowest)."""
        for mask in range(0, 1 << len(ALL_EDGES), 32):
            graph, edge_set = graph_of(mask)
            assert matrix_count(graph).triangles == brute_force_triangles(
                edge_set
            ), mask

    @pytest.mark.parametrize("plugin", ["edge-iterator", "vertex-iterator", "mgt"])
    def test_disk_stack_sample(self, plugin):
        """Every 16th graph through the full disk pipeline."""
        for mask in range(0, 1 << len(ALL_EDGES), 16):
            graph, edge_set = graph_of(mask)
            if graph.num_edges == 0:
                continue
            result = triangulate_disk(graph, plugin=plugin, page_size=128,
                                      buffer_pages=2)
            assert result.triangles == brute_force_triangles(edge_set), (
                mask, plugin,
            )


class TestExhaustiveParallel:
    """The process-parallel engine over every graph on up to 6 vertices.

    ``workers=1`` takes the inline path (no fork), so the full 2^15
    sweep on 6 vertices stays cheap while covering every chunk-plan
    boundary the planner can produce at this scale.  Real forked
    workers are exercised on a deterministic stride — process spawn
    costs ~10ms each, so exhaustive forking would dominate the suite.
    """

    @pytest.mark.parametrize("vertices", [5, 6])
    def test_all_graphs_inline(self, vertices):
        universe = possible_edges(vertices)
        for mask in range(1 << len(universe)):
            graph, edge_set = graph_of(mask, vertices)
            expected = brute_force_triangles(edge_set, vertices)
            result = triangulate_parallel(graph, workers=1)
            assert result.triangles == expected, (vertices, mask)

    @pytest.mark.parametrize("vertices", [5, 6])
    def test_forked_workers_sample(self, vertices):
        """Every 512th graph through real processes and shared memory."""
        universe = possible_edges(vertices)
        span = 1 << len(universe)
        masks = list(range(0, span, 512)) + [span - 1]
        for mask in masks:
            graph, edge_set = graph_of(mask, vertices)
            expected = brute_force_triangles(edge_set, vertices)
            serial = edge_iterator(graph)
            result = triangulate_parallel(graph, workers=2)
            assert result.triangles == expected, (vertices, mask)
            assert result.cpu_ops == serial.cpu_ops, (vertices, mask)

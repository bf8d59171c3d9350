"""Tests for graph metrics against networkx ground truth."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import generators
from repro.graph.builder import GraphBuilder, from_edges
from repro.graph.metrics import (
    clustering_coefficients,
    global_clustering_coefficient,
    per_vertex_triangles,
    transitivity,
    trigonal_connectivity,
)
from repro.verify import oracle_triangles
from tests import zoo


def _nx_graph(graph):
    import networkx as nx

    nxg = nx.Graph(list(graph.edges()))
    nxg.add_nodes_from(range(graph.num_vertices))
    return nxg


class TestPerVertexTriangles:
    def test_figure1(self, figure1):
        counts = per_vertex_triangles(figure1)
        # c (vertex 2) participates in 4 of the 5 triangles.
        assert counts[2] == 4
        assert counts.sum() == 3 * 5

    def test_matches_networkx(self, clustered_graph):
        import networkx as nx

        expected = nx.triangles(_nx_graph(clustered_graph))
        counts = per_vertex_triangles(clustered_graph)
        assert all(counts[v] == expected[v] for v in range(clustered_graph.num_vertices))


def oracle_per_vertex(graph):
    """Each vertex's triangles, counted from the brute-force listing."""
    counts = np.zeros(graph.num_vertices, dtype=np.int64)
    for triangle in oracle_triangles(graph):
        counts[list(triangle)] += 1
    return counts


class TestPerVertexOracle:
    @pytest.mark.parametrize("name", zoo.zoo_names())
    def test_zoo_matches_oracle(self, graph_zoo, name):
        graph = graph_zoo(name)
        counts = per_vertex_triangles(graph)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, oracle_per_vertex(graph))

    def test_empty_graph(self):
        counts = per_vertex_triangles(GraphBuilder(0).build())
        assert counts.dtype == np.int64 and len(counts) == 0

    def test_isolated_vertices_count_zero(self):
        # Two triangles sharing vertex 2, and vertices 5-9 untouched.
        graph = from_edges([(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)],
                           num_vertices=10)
        assert per_vertex_triangles(graph).tolist() == [
            1, 1, 2, 1, 1, 0, 0, 0, 0, 0]


class TestClustering:
    def test_complete_graph_is_one(self):
        graph = generators.complete_graph(6)
        assert np.allclose(clustering_coefficients(graph), 1.0)
        assert global_clustering_coefficient(graph) == pytest.approx(1.0)

    def test_triangle_free_is_zero(self):
        graph = generators.cycle_graph(12)
        assert global_clustering_coefficient(graph) == 0.0

    def test_matches_networkx(self, clustered_graph):
        import networkx as nx

        expected = nx.average_clustering(_nx_graph(clustered_graph))
        assert global_clustering_coefficient(clustered_graph) == pytest.approx(expected)

    def test_transitivity_matches_networkx(self, clustered_graph):
        import networkx as nx

        expected = nx.transitivity(_nx_graph(clustered_graph))
        assert transitivity(clustered_graph) == pytest.approx(expected)

    def test_empty_graph(self):
        from repro.graph.builder import GraphBuilder

        graph = GraphBuilder(0).build()
        assert global_clustering_coefficient(graph) == 0.0
        assert transitivity(graph) == 0.0


class TestTrigonalConnectivity:
    def test_figure1_edges(self, figure1):
        # edge (c=2, f=5) participates in triangles (c,d,f) and (c,f,g).
        assert trigonal_connectivity(figure1, 2, 5) == 2
        # edge (a=0, b=1) participates only in (a,b,c).
        assert trigonal_connectivity(figure1, 0, 1) == 1

    def test_missing_edge_is_zero(self, figure1):
        assert trigonal_connectivity(figure1, 0, 7) == 0

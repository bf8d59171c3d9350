"""Tests for the GAS vertex-centric engine and its programs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.vertex_centric import (
    GASEngine,
    PageRankProgram,
    TriangleCountProgram,
)
from repro.errors import ConfigurationError
from repro.graph import generators
from repro.memory import edge_iterator
from repro.parallel import plan_chunks, triangulate_parallel


class TestTriangleProgram:
    def test_figure1(self, figure1):
        engine = GASEngine(figure1)
        values = engine.run(TriangleCountProgram())
        assert TriangleCountProgram.total_triangles(values) == 5
        assert engine.supersteps == 1

    def test_per_vertex_counts(self, figure1):
        values = GASEngine(figure1).run(TriangleCountProgram())
        # c (vertex 2) participates in 4 triangles.
        assert values[2] == 4.0

    def test_matches_edge_iterator(self, clustered_graph):
        values = GASEngine(clustered_graph).run(TriangleCountProgram())
        assert (TriangleCountProgram.total_triangles(values)
                == edge_iterator(clustered_graph).triangles)

    def test_work_metering(self, figure1):
        engine = GASEngine(figure1)
        engine.run(TriangleCountProgram())
        stats = engine.history[0]
        assert stats.active_vertices == figure1.num_vertices
        assert stats.edges_gathered == 2 * figure1.num_edges


class TestPageRank:
    def test_sums_to_one(self, clustered_graph):
        values = GASEngine(clustered_graph).run(PageRankProgram())
        assert values.sum() == pytest.approx(1.0, abs=1e-3)

    def test_matches_networkx(self, clustered_graph):
        import networkx as nx

        nxg = nx.Graph(list(clustered_graph.edges()))
        nxg.add_nodes_from(range(clustered_graph.num_vertices))
        expected = nx.pagerank(nxg, alpha=0.85, tol=1e-10)
        values = GASEngine(clustered_graph).run(PageRankProgram(tolerance=1e-9))
        for v in range(clustered_graph.num_vertices):
            assert values[v] == pytest.approx(expected[v], abs=2e-4)

    def test_ring_is_uniform(self):
        graph = generators.cycle_graph(10)
        values = GASEngine(graph).run(PageRankProgram())
        assert np.allclose(values, 0.1, atol=1e-4)

    def test_converges_and_deactivates(self, figure1):
        engine = GASEngine(figure1)
        engine.run(PageRankProgram(tolerance=1e-8))
        assert 1 < engine.supersteps < 200
        # Work shrinks as vertices converge and deactivate.
        assert engine.history[-1].active_vertices <= engine.history[0].active_vertices

    def test_damping_validation(self):
        with pytest.raises(ConfigurationError):
            PageRankProgram(damping=1.5)


class TestParallelEdgeIterator:
    """The historical ``memory.parallel`` facade's contract, held by what
    it wrapped: ``plan_chunks`` (one stripe per worker) and
    ``triangulate_parallel``."""

    def test_matches_serial(self, small_rmat_ordered):
        serial = edge_iterator(small_rmat_ordered)
        parallel = triangulate_parallel(small_rmat_ordered, workers=2)
        assert parallel.triangles == serial.triangles
        assert parallel.cpu_ops == serial.cpu_ops

    def test_single_worker(self, figure1):
        assert triangulate_parallel(figure1, workers=1).triangles == 5

    def test_stripes_partition_vertices(self, small_rmat_ordered):
        stripes = plan_chunks(small_rmat_ordered, 4)
        covered = [v for lo, hi in stripes for v in range(lo, hi)]
        assert covered == list(range(small_rmat_ordered.num_vertices))

    def test_worker_validation(self, figure1):
        with pytest.raises(ConfigurationError):
            triangulate_parallel(figure1, workers=2, chunks=0)

    def test_zero_edge_graph_single_stripe(self):
        from repro.graph.graph import Graph

        empty = Graph(np.zeros(6, dtype=np.int64),
                      np.array([], dtype=np.int32))
        # No successor mass to balance: one full-range chunk, not five
        # empty ones — so the run stays in-process.
        result = triangulate_parallel(empty, workers=4)
        assert result.extra["chunks"] == [(0, empty.num_vertices)]
        assert result.extra["workers"] == 1
        assert result.triangles == 0

    def test_more_workers_than_vertices(self, figure1):
        stripes = plan_chunks(figure1, figure1.num_vertices + 10)
        covered = [v for lo, hi in stripes for v in range(lo, hi)]
        assert covered == list(range(figure1.num_vertices))
        assert all(hi > lo for lo, hi in stripes)
        result = triangulate_parallel(figure1,
                                      workers=figure1.num_vertices + 10)
        assert result.triangles == 5
        assert result.extra["workers"] == len(result.extra["chunks"])

"""Tests for the GAS vertex-centric engine and its programs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.vertex_centric import (
    GASEngine,
    TriangleCountProgram,
)
from repro.errors import ConfigurationError
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

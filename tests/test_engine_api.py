"""Coverage for the engine-level public API and assorted edge cases."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    EdgeIteratorPlugin,
    buffer_pages_for_ratio,
    ideal_elapsed,
    make_store,
    replay,
    resolve_plugin,
    triangulate_disk,
)
from repro.distributed import ClusterSpec
from repro.graph.builder import GraphBuilder, from_edges
from repro.sim import CostModel, simulate

COST = CostModel()


class TestEngineHelpers:
    def test_replay_matches_direct_simulation(self, small_rmat_ordered):
        base = triangulate_disk(small_rmat_ordered, page_size=256,
                                buffer_pages=6, cost=COST)
        trace = base.extra["trace"]
        replayed = replay(trace, COST, cores=3, morphing=True)
        direct = simulate(trace, COST, cores=3, morphing=True)
        assert replayed.elapsed == direct.elapsed
        assert replayed.triangles == base.triangles

    def test_resolve_plugin_passthrough(self):
        plugin = EdgeIteratorPlugin()
        assert resolve_plugin(plugin) is plugin

    def test_buffer_pages_minimum_two(self, figure1):
        store = make_store(figure1, 128)
        assert buffer_pages_for_ratio(store, 1e-9) == 2

    def test_ideal_elapsed_components(self, small_rmat_ordered):
        store = make_store(small_rmat_ordered, 256)
        io_only = ideal_elapsed(store, 0, COST)
        assert io_only == pytest.approx(
            store.num_pages * COST.page_read_time / COST.channels
        )
        with_cpu = ideal_elapsed(store, 1000, COST)
        assert with_cpu == pytest.approx(io_only + 1000 * COST.op_time)

    def test_serial_flag_default_follows_cores(self, small_rmat_ordered):
        store = make_store(small_rmat_ordered, 256)
        one = triangulate_disk(store, buffer_pages=6, cost=COST, cores=1)
        assert one.extra["sim"].serial
        six = triangulate_disk(store, buffer_pages=6, cost=COST, cores=6)
        assert not six.extra["sim"].serial

    def test_explicit_serial_override(self, small_rmat_ordered):
        store = make_store(small_rmat_ordered, 256)
        result = triangulate_disk(store, buffer_pages=6, cost=COST,
                                  cores=6, serial=True)
        assert result.extra["sim"].cores == 1


class TestDegenerateGraphs:
    def test_single_vertex(self):
        graph = GraphBuilder(1).build()
        result = triangulate_disk(graph, page_size=128, buffer_pages=2)
        assert result.triangles == 0

    def test_single_edge(self):
        graph = from_edges([(0, 1)])
        result = triangulate_disk(graph, page_size=128, buffer_pages=2)
        assert result.triangles == 0
        assert result.iterations >= 1

    def test_two_disconnected_triangles(self):
        graph = from_edges([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        for plugin in ("edge-iterator", "vertex-iterator", "mgt"):
            result = triangulate_disk(graph, plugin=plugin, page_size=128,
                                      buffer_pages=2)
            assert result.triangles == 2


class TestClusterSpecHelpers:
    def test_compute_time_uses_cores(self):
        spec = ClusterSpec(nodes=4, cores_per_node=8)
        assert spec.compute_time(8000) == pytest.approx(
            spec.cost.cpu(8000) / 8
        )
        assert spec.total_cores == 32

    def test_network_efficiency_scales(self):
        spec = ClusterSpec(nodes=10)
        assert spec.network_time(100, efficiency=0.5) == pytest.approx(
            2 * spec.network_time(100)
        )

    def test_disk_read_uses_channels(self):
        spec = ClusterSpec()
        assert spec.disk_read_time(spec.cost.channels) == pytest.approx(
            spec.cost.page_read_time
        )


class TestOrderingEdgeCases:
    def test_relabeled_graph_same_triangles(self, small_rmat):
        from repro.graph.ordering import apply_ordering
        from repro.memory import edge_iterator

        base = edge_iterator(small_rmat).triangles
        for ordering in ("degree", "random", "reverse-degree"):
            relabeled, mapping = apply_ordering(small_rmat, ordering, seed=4)
            assert edge_iterator(relabeled).triangles == base
            assert np.array_equal(np.sort(mapping),
                                  np.arange(small_rmat.num_vertices))

"""Cross-subsystem consistency: independent paths must agree.

Each test ties together two subsystems that were built independently and
checks they tell the same story — the strongest regression net a
multi-substrate reproduction can have.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.vertex_centric import GASEngine, TriangleCountProgram
from repro.core import make_store, triangulate_disk
from repro.graph import datasets
from repro.graph.cores import degeneracy
from repro.graph.metrics import per_vertex_triangles
from repro.graph.ordering import apply_ordering
from repro.memory import edge_iterator
from repro.sim import CostModel

COST = CostModel()


class TestTriangleAgreement:
    @pytest.mark.parametrize("name", ["LJ", "ORKUT"])
    def test_gas_engine_vs_disk_opt(self, name):
        graph, _ = apply_ordering(datasets.load(name), "degree")
        gas_values = GASEngine(graph).run(TriangleCountProgram())
        gas_total = TriangleCountProgram.total_triangles(gas_values)
        opt = triangulate_disk(make_store(graph, 1024), buffer_ratio=0.15,
                               cost=COST)
        assert gas_total == opt.triangles

    def test_gas_per_vertex_vs_metrics(self, clustered_graph):
        gas_values = GASEngine(clustered_graph).run(TriangleCountProgram())
        expected = per_vertex_triangles(clustered_graph)
        assert np.array_equal(gas_values.astype(np.int64), expected)


class TestCostBoundConsistency:
    def test_ei_ops_within_degeneracy_bound(self, small_rmat):
        """Eq. 1: intersection cost is O(alpha * |E|); alpha <= degeneracy."""
        ops = edge_iterator(small_rmat).cpu_ops
        bound = degeneracy(small_rmat) * small_rmat.num_edges
        assert ops <= bound

    @pytest.mark.parametrize("name", ["LJ", "TWITTER"])
    def test_dataset_ops_within_degeneracy_bound(self, name):
        graph, _ = apply_ordering(datasets.load(name), "degree")
        ops = edge_iterator(graph).cpu_ops
        assert ops <= degeneracy(graph) * graph.num_edges

    def test_opt_io_at_least_one_graph_read(self, small_rmat_ordered):
        """No disk method can read less than the graph once (Eq. 6 floor)."""
        store = make_store(small_rmat_ordered, 256)
        result = triangulate_disk(store, buffer_ratio=0.15, cost=COST)
        assert result.pages_read + result.pages_buffered >= store.num_pages


class TestEngineRobustness:
    def test_trace_replay_stability_across_datasets(self):
        """Replaying any dataset's trace at 6 cores is always faster
        than serial and never beats the CPU lower bound."""
        for name in ("LJ", "ORKUT"):
            graph, _ = apply_ordering(datasets.load(name), "degree")
            base = triangulate_disk(make_store(graph, 1024),
                                    buffer_ratio=0.15, cost=COST, cores=1)
            from repro.core import replay

            six = replay(base.extra["trace"], COST, cores=6, morphing=True)
            assert six.elapsed < base.elapsed
            cpu_floor = COST.cpu(base.extra["trace"].total_ops) / 6
            assert six.elapsed >= cpu_floor

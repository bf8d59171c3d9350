"""Tests for the distributed-method simulation (Table 7)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributed import (
    ClusterSpec,
    akm,
    edge_cut,
    hash_partition,
    per_partition_ops,
    powergraph,
    sv_mapreduce,
    vertex_cut_replication,
)
from repro.errors import ConfigurationError
from repro.memory import edge_iterator
from tests import zoo


def reference_partition_ops(graph, placement, parts):
    """The per-edge form of :func:`per_partition_ops`: each oriented
    edge ``(u, v)`` charges ``min(|n_succ(u)|, |n_succ(v)|)`` to
    ``placement[u]``."""
    ops = np.zeros(parts, dtype=np.int64)
    for u in range(graph.num_vertices):
        succ_u = graph.n_succ(u)
        for v in succ_u:
            ops[placement[u]] += min(len(succ_u), len(graph.n_succ(int(v))))
    return ops


class TestPartitioning:
    def test_hash_partition_in_range(self):
        placement = hash_partition(1000, 7)
        assert placement.min() >= 0 and placement.max() < 7

    def test_hash_partition_roughly_balanced(self):
        placement = hash_partition(10000, 10)
        counts = np.bincount(placement, minlength=10)
        assert counts.min() > 0.5 * counts.mean()

    def test_deterministic_per_seed(self):
        assert np.array_equal(hash_partition(100, 4, seed=1),
                              hash_partition(100, 4, seed=1))
        assert not np.array_equal(hash_partition(100, 4, seed=1),
                                  hash_partition(100, 4, seed=2))

    def test_edge_cut_bounds(self, small_rmat):
        placement = hash_partition(small_rmat.num_vertices, 8)
        cut = edge_cut(small_rmat, placement)
        assert 0 <= cut <= small_rmat.num_edges

    def test_single_partition_cuts_nothing(self, small_rmat):
        placement = hash_partition(small_rmat.num_vertices, 1)
        assert edge_cut(small_rmat, placement) == 0

    def test_per_partition_ops_sum(self, small_rmat):
        placement = hash_partition(small_rmat.num_vertices, 5)
        ops = per_partition_ops(small_rmat, placement, 5)
        assert int(ops.sum()) == edge_iterator(small_rmat).cpu_ops

    @pytest.mark.parametrize("parts", [1, 5, 31])
    def test_per_partition_ops_match_the_per_edge_bill(self, small_rmat, parts):
        placement = hash_partition(small_rmat.num_vertices, parts)
        ops = per_partition_ops(small_rmat, placement, parts)
        assert ops.dtype == np.int64
        assert np.array_equal(
            ops, reference_partition_ops(small_rmat, placement, parts))

    @pytest.mark.parametrize("name", zoo.zoo_names())
    def test_per_partition_ops_on_the_zoo(self, graph_zoo, name):
        graph = graph_zoo(name)
        placement = hash_partition(graph.num_vertices, 5, seed=3)
        assert np.array_equal(per_partition_ops(graph, placement, 5),
                              reference_partition_ops(graph, placement, 5))

    def test_replication_factor_bounds(self, small_rmat):
        replication = vertex_cut_replication(small_rmat, 8)
        assert 1.0 <= replication <= 8.0


class TestMethods:
    @pytest.mark.parametrize("method", [sv_mapreduce, akm, powergraph])
    def test_exact_counts(self, small_rmat_ordered, method):
        expected = edge_iterator(small_rmat_ordered).triangles
        assert method(small_rmat_ordered).triangles == expected

    def test_sv_much_slower_than_others(self, small_rmat_ordered):
        sv = sv_mapreduce(small_rmat_ordered)
        pg = powergraph(small_rmat_ordered)
        assert sv.elapsed > 10 * pg.elapsed

    def test_akm_slower_than_powergraph(self, small_rmat_ordered):
        assert akm(small_rmat_ordered).elapsed > powergraph(small_rmat_ordered).elapsed

    def test_extras_populated(self, small_rmat_ordered):
        assert akm(small_rmat_ordered).extra["cut_edges"] > 0
        assert powergraph(small_rmat_ordered).extra["replication"] > 1.0
        assert sv_mapreduce(small_rmat_ordered).extra["shuffle_pages"] > 0

    def test_cluster_spec_validation(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec(nodes=0)
        with pytest.raises(ConfigurationError):
            ClusterSpec(network_page_time=0)

    def test_more_nodes_speed_up_sv_compute(self, small_rmat_ordered):
        small = sv_mapreduce(small_rmat_ordered, ClusterSpec(nodes=2))
        large = sv_mapreduce(small_rmat_ordered, ClusterSpec(nodes=31))
        assert large.elapsed <= small.elapsed

"""Tests for the library extensions: compact-forward, the kernel axis."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import compose
from repro.exec.registry import KERNELS
from repro.graph.builder import from_edges
from repro.memory import (
    CollectSink,
    canonical_triangles,
    compact_forward,
    edge_iterator,
)
from tests.conftest import nx_triangle_count


class TestCompactForward:
    def test_figure1(self, figure1):
        assert compact_forward(figure1).triangles == 5

    def test_matches_networkx(self, small_rmat):
        assert compact_forward(small_rmat).triangles == nx_triangle_count(small_rmat)

    def test_lists_same_triangles(self, small_rmat_ordered):
        reference = CollectSink()
        edge_iterator(small_rmat_ordered, reference)
        sink = CollectSink()
        compact_forward(small_rmat_ordered, sink)
        assert canonical_triangles(sink) == canonical_triangles(reference)

    def test_counts_merge_steps(self, small_rmat_ordered):
        result = compact_forward(small_rmat_ordered)
        merge = compose("memory", "merge", "serial",
                        graph=small_rmat_ordered).run()
        # Truncated merges can never cost more than full succ-list merges.
        assert 0 < result.cpu_ops <= merge.cpu_ops

    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)), max_size=80))
    @settings(max_examples=30, deadline=None)
    def test_property_agrees(self, edges):
        graph = from_edges(edges)
        assert compact_forward(graph).triangles == edge_iterator(graph).triangles


class TestKernelParameter:
    """Every kernel of the registry, composed in memory, against the
    ``edge_iterator`` façade."""

    @pytest.mark.parametrize("kernel", list(KERNELS))
    def test_all_kernels_agree(self, small_rmat_ordered, kernel):
        expected = edge_iterator(small_rmat_ordered).triangles
        composed = compose("memory", kernel, "serial", graph=small_rmat_ordered)
        assert composed.run().triangles == expected

    def test_kernel_listing_identical(self, clustered_graph):
        reference = CollectSink()
        edge_iterator(clustered_graph, reference)
        for kernel in KERNELS:
            sink = CollectSink()
            compose("memory", kernel, "serial", graph=clustered_graph).run(sink)
            assert canonical_triangles(sink) == canonical_triangles(reference)

    def test_hash_kernel_matches_analytic_ops(self, small_rmat_ordered):
        graph = small_rmat_ordered
        succ_len = [len(graph.n_succ(u)) for u in range(graph.num_vertices)]
        analytic = sum(min(succ_len[u], succ_len[int(v)])
                       for u in range(graph.num_vertices)
                       for v in graph.n_succ(u))
        assert edge_iterator(graph).cpu_ops == analytic

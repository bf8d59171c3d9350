"""Tests for the library extensions: compact-forward, kernels."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.builder import from_edges
from repro.memory import (
    CollectSink,
    canonical_triangles,
    compact_forward,
    edge_iterator,
)
from repro.util.intersect import IntersectionKernel
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
        merge = edge_iterator(small_rmat_ordered, kernel="merge")
        # Truncated merges can never cost more than full succ-list merges.
        assert 0 < result.cpu_ops <= merge.cpu_ops

    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)), max_size=80))
    @settings(max_examples=30, deadline=None)
    def test_property_agrees(self, edges):
        graph = from_edges(edges)
        assert compact_forward(graph).triangles == edge_iterator(graph).triangles


class TestKernelParameter:
    @pytest.mark.parametrize("kernel", list(IntersectionKernel))
    def test_all_kernels_agree(self, small_rmat_ordered, kernel):
        expected = edge_iterator(small_rmat_ordered).triangles
        assert edge_iterator(small_rmat_ordered, kernel=kernel).triangles == expected

    def test_kernel_listing_identical(self, clustered_graph):
        reference = CollectSink()
        edge_iterator(clustered_graph, reference)
        for kernel in IntersectionKernel:
            sink = CollectSink()
            edge_iterator(clustered_graph, sink, kernel=kernel)
            assert canonical_triangles(sink) == canonical_triangles(reference)

    def test_hash_kernel_matches_analytic_ops(self, small_rmat_ordered):
        analytic = edge_iterator(small_rmat_ordered).cpu_ops
        hashed = edge_iterator(small_rmat_ordered, kernel="hash").cpu_ops
        assert hashed == analytic

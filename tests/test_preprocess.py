"""Tests for the out-of-core build pipeline (external sort + packing)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import make_store, triangulate_disk
from repro.errors import StorageError
from repro.graph import generators
from repro.graph.builder import from_edges
from repro.graph.ordering import apply_ordering
from repro.memory import edge_iterator
from repro.preprocess import build_store_external, external_sort_edges, merge_runs


class TestExternalSort:
    def test_sorts_and_dedups(self, tmp_path):
        edges = [(3, 1), (0, 2), (1, 3), (2, 0), (5, 5), (4, 0)]
        runs = external_sort_edges(edges, tmp_path, chunk_edges=2)
        merged = list(merge_runs(runs))
        assert merged == [(0, 2), (0, 4), (1, 3)]

    def test_single_run(self, tmp_path):
        runs = external_sort_edges([(1, 0), (2, 1)], tmp_path, chunk_edges=100)
        assert len(runs) == 1
        assert list(merge_runs(runs)) == [(0, 1), (1, 2)]

    def test_run_count_respects_chunk(self, tmp_path):
        edges = [(i, i + 1) for i in range(100)]
        runs = external_sort_edges(edges, tmp_path, chunk_edges=10)
        assert len(runs) == 10

    def test_empty_input(self, tmp_path):
        assert external_sort_edges([], tmp_path) == []
        assert list(merge_runs([])) == []

    def test_chunk_validation(self, tmp_path):
        with pytest.raises(StorageError):
            external_sort_edges([(0, 1)], tmp_path, chunk_edges=0)

    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=150))
    @settings(max_examples=25, deadline=None)
    def test_merge_equals_in_memory_dedup(self, tmp_path_factory, edges):
        tmp = tmp_path_factory.mktemp("runs")
        runs = external_sort_edges(edges, tmp, chunk_edges=7)
        merged = list(merge_runs(runs))
        expected = sorted({(min(u, v), max(u, v)) for u, v in edges if u != v})
        assert merged == expected


class TestBuildPipeline:
    def test_matches_in_memory_path(self, tmp_path):
        graph = generators.rmat(300, 2000, seed=31)
        store, mapping, stats = build_store_external(
            list(graph.edges()), tmp_path, chunk_edges=256, page_size=512
        )
        ordered, expected_mapping = apply_ordering(graph, "degree")
        reference = make_store(ordered, 512)
        assert np.array_equal(mapping, expected_mapping)
        assert store.rows.tobytes() == reference.rows.tobytes()
        assert np.array_equal(store.first_page, reference.first_page)
        assert stats.num_edges == graph.num_edges

    def test_triangles_from_built_store(self, tmp_path):
        graph = generators.holme_kim(200, 5, 0.5, seed=32)
        store, _mapping, _stats = build_store_external(
            list(graph.edges()), tmp_path, chunk_edges=128, page_size=512
        )
        result = triangulate_disk(store, buffer_pages=6)
        assert result.triangles == edge_iterator(graph).triangles

    def test_from_edge_list_file(self, tmp_path, figure1):
        from repro.graph.io import write_edge_list

        path = tmp_path / "graph.txt"
        write_edge_list(figure1, path)
        store, _mapping, stats = build_store_external(
            path, tmp_path / "work", page_size=256
        )
        assert stats.num_edges == figure1.num_edges
        result = triangulate_disk(store, buffer_pages=4)
        assert result.triangles == 5

    def test_duplicates_and_self_loops_removed(self, tmp_path):
        edges = [(0, 1), (1, 0), (0, 1), (2, 2), (1, 2)]
        store, _mapping, stats = build_store_external(
            edges, tmp_path, page_size=256
        )
        assert stats.num_edges == 2

    def test_isolated_vertices_padded(self, tmp_path):
        store, _mapping, stats = build_store_external(
            [(0, 1)], tmp_path, num_vertices=5, page_size=256
        )
        assert stats.num_vertices == 5
        assert store.num_vertices == 5

    def test_natural_order_mode(self, tmp_path):
        graph = generators.rmat(100, 500, seed=33)
        store, mapping, _stats = build_store_external(
            list(graph.edges()), tmp_path, page_size=512, degree_order=False
        )
        assert np.array_equal(mapping, np.arange(graph.num_vertices))
        reference = make_store(graph, 512)
        assert store.rows.tobytes() == reference.rows.tobytes()

    def test_tiny_chunks_still_exact(self, tmp_path):
        graph = from_edges([(0, 1), (1, 2), (0, 2), (2, 3), (3, 0)])
        store, _mapping, stats = build_store_external(
            list(graph.edges()), tmp_path, chunk_edges=1, page_size=256
        )
        assert stats.runs_phase1 == graph.num_edges
        assert triangulate_disk(store, buffer_pages=4).triangles == edge_iterator(
            graph
        ).triangles

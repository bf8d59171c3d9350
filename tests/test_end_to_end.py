"""End-to-end integration: raw edge file to triangle queries.

Exercises the full production pipeline a downstream user would run:
raw text edge list → out-of-core build (external sort + degree remap +
packing) → OPT triangulation with nested output to a file → indexed
per-vertex triangle counts — checking exactness at every stage against independent
references.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    NestedOutputWriter,
    read_nested_groups,
    triangulate_disk,
    triangulate_threaded,
)
from repro.errors import ConfigurationError
from repro.graph import generators
from repro.graph.io import write_edge_list
from repro.graph.metrics import per_vertex_triangles
from repro.memory import edge_iterator
from repro.preprocess import build_store_external


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("e2e")
    raw = generators.holme_kim(350, 7, 0.5, seed=77)
    edge_file = tmp / "raw_edges.txt"
    write_edge_list(raw, edge_file)

    store, mapping, stats = build_store_external(
        edge_file, tmp / "work", page_size=512, chunk_edges=512
    )
    ordered = raw.relabel(mapping)

    output_path = tmp / "triangles.nested"
    writer = NestedOutputWriter(output_path, page_size=512)
    result = triangulate_disk(store, buffer_ratio=0.15, sink=writer)
    writer.close()
    return raw, ordered, store, stats, result, output_path


class TestPipeline:
    def test_build_stats(self, pipeline):
        raw, _ordered, store, stats, _result, _path = pipeline
        assert stats.num_edges == raw.num_edges
        assert stats.num_pages == store.num_pages

    def test_triangle_count_exact(self, pipeline):
        raw, _ordered, _store, _stats, result, _path = pipeline
        assert result.triangles == edge_iterator(raw).triangles

    def test_output_file_complete(self, pipeline):
        *_, result, path = pipeline
        total = sum(len(ws) for _, _, ws in read_nested_groups(path))
        assert total == result.triangles

    def test_queries_under_relabeling(self, pipeline):
        raw, ordered, _store, _stats, _result, path = pipeline
        corners = [vertex for u, v, ws in read_nested_groups(path)
                   for w in ws for vertex in (u, v, w)]
        counts = np.bincount(corners, minlength=ordered.num_vertices)
        expected = per_vertex_triangles(ordered)
        assert np.array_equal(counts, expected)
        # The relabeling permutes, never changes, the count multiset.
        assert sorted(counts) == sorted(per_vertex_triangles(raw))

    def test_threaded_engine_agrees(self, pipeline, tmp_path):
        _raw, _ordered, store, _stats, result, _path = pipeline
        threaded = triangulate_threaded(store, tmp_path, buffer_pages=8)
        assert threaded.triangles == result.triangles

    def test_threaded_rejects_rescan_plugins(self, pipeline, tmp_path):
        _raw, _ordered, store, *_ = pipeline
        with pytest.raises(ConfigurationError):
            triangulate_threaded(store, tmp_path, plugin="mgt", buffer_pages=8)


class TestDeterminism:
    def test_same_input_same_results(self, tmp_path, seeded_graph):
        graph = seeded_graph("rmat", 200, 1200, seed=55)
        runs = [
            triangulate_disk(graph, page_size=512, buffer_pages=6)
            for _ in range(2)
        ]
        assert runs[0].triangles == runs[1].triangles
        assert runs[0].elapsed == runs[1].elapsed
        assert runs[0].pages_read == runs[1].pages_read

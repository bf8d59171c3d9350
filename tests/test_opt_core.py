"""Tests for the OPT framework: correctness, I/O accounting, overlap wins."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    OPTConfig,
    buffer_pages_for_ratio,
    ideal_elapsed,
    make_store,
    replay,
    resolve_plugin,
    run_opt,
    triangulate_disk,
)
from repro.errors import ConfigurationError
from repro.graph import generators
from repro.graph.builder import from_edges
from repro.graph.ordering import apply_ordering
from repro.memory import CollectSink, canonical_triangles, edge_iterator
from repro.sim import CostModel

PLUGIN_NAMES = ["edge-iterator", "vertex-iterator", "mgt"]
COST = CostModel()


class TestCorrectness:
    @pytest.mark.parametrize("plugin", PLUGIN_NAMES)
    def test_figure1(self, figure1, plugin):
        result = triangulate_disk(figure1, plugin=plugin, page_size=64, buffer_pages=3)
        assert result.triangles == 5

    @pytest.mark.parametrize(
        "plugin,page_size,buffer_pages",
        list(itertools.product(PLUGIN_NAMES, [128, 512], [2, 5, 11])),
    )
    def test_exact_listing_sweep(self, small_rmat_ordered, plugin, page_size, buffer_pages):
        reference = CollectSink()
        edge_iterator(small_rmat_ordered, reference)
        sink = CollectSink()
        result = triangulate_disk(
            small_rmat_ordered,
            plugin=plugin,
            page_size=page_size,
            buffer_pages=buffer_pages,
            sink=sink,
        )
        assert result.triangles == reference.count
        assert canonical_triangles(sink) == canonical_triangles(reference)

    @pytest.mark.parametrize("plugin", PLUGIN_NAMES)
    def test_triangle_free(self, plugin):
        graph = generators.cycle_graph(50)
        result = triangulate_disk(graph, plugin=plugin, page_size=128, buffer_pages=2)
        assert result.triangles == 0

    @pytest.mark.parametrize("plugin", PLUGIN_NAMES)
    def test_spanning_hub(self, plugin):
        """Correct even when one adjacency list spans many pages."""
        graph = generators.complete_graph(40)
        sink = CollectSink()
        result = triangulate_disk(graph, plugin=plugin, page_size=64,
                                  buffer_pages=4, sink=sink)
        assert result.triangles == 40 * 39 * 38 // 6

    @given(st.lists(st.tuples(st.integers(0, 25), st.integers(0, 25)),
                    min_size=1, max_size=100))
    @settings(max_examples=25, deadline=None)
    def test_property_matches_in_memory(self, edges):
        graph = from_edges(edges)
        if graph.num_vertices < 2:
            return
        ordered, _ = apply_ordering(graph, "degree")
        expected = edge_iterator(ordered).triangles
        for plugin in PLUGIN_NAMES:
            result = triangulate_disk(ordered, plugin=plugin, page_size=128,
                                      buffer_pages=2)
            assert result.triangles == expected


class TestTrace:
    def test_internal_plus_external_covers_all(self, small_rmat_ordered):
        sink = CollectSink()
        result = triangulate_disk(small_rmat_ordered, page_size=256,
                                  buffer_pages=6, sink=sink)
        trace = result.extra["trace"]
        internal = sum(it.internal_ops for it in trace.iterations)
        external = sum(it.external_ops for it in trace.iterations)
        assert internal > 0 and external > 0
        assert trace.triangles == result.triangles

    def test_opt_ops_close_to_in_memory(self, small_rmat_ordered):
        """Theorem 1: OPT executes the same intersections as EdgeIterator."""
        mem_ops = edge_iterator(small_rmat_ordered).cpu_ops
        result = triangulate_disk(small_rmat_ordered, page_size=256, buffer_pages=6)
        trace = result.extra["trace"]
        # Chunked lists can split one intersection into several smaller
        # ones, so the disk op count may exceed the in-memory count by the
        # chunking overhead only — never by 2x.
        assert mem_ops <= trace.total_ops <= 2 * mem_ops

    def test_delta_in_buffering_happens(self, small_rmat_ordered):
        result = triangulate_disk(small_rmat_ordered, page_size=256, buffer_pages=10)
        assert result.pages_buffered > 0

    def test_mgt_reads_more(self, small_rmat_ordered):
        opt = triangulate_disk(small_rmat_ordered, page_size=256, buffer_pages=6)
        mgt = triangulate_disk(small_rmat_ordered, plugin="mgt", page_size=256,
                               buffer_pages=6)
        assert mgt.pages_read > 1.5 * opt.pages_read

    def test_single_iteration_when_buffer_huge(self, small_rmat_ordered):
        store = make_store(small_rmat_ordered, 256)
        result = triangulate_disk(store, buffer_pages=4 * store.num_pages)
        assert result.iterations == 1
        trace = result.extra["trace"]
        assert trace.iterations[0].external_reads == []


class TestPerformanceShape:
    def test_opt_serial_close_to_ideal(self):
        """The headline claim: OPT_serial within a small factor of ideal."""
        graph = generators.holme_kim(1200, 12, 0.4, seed=11)
        ordered, _ = apply_ordering(graph, "degree")
        store = make_store(ordered, 1024)
        mem = edge_iterator(ordered)
        ideal = ideal_elapsed(store, mem.cpu_ops, COST)
        result = triangulate_disk(store, buffer_ratio=0.15, cost=COST, cores=1)
        assert result.elapsed <= 1.35 * ideal

    def test_opt_beats_mgt(self, small_rmat_ordered):
        store = make_store(small_rmat_ordered, 256)
        opt = triangulate_disk(store, buffer_ratio=0.15, cost=COST)
        mgt = triangulate_disk(store, plugin="mgt", buffer_ratio=0.15, cost=COST)
        assert opt.elapsed < mgt.elapsed

    def test_more_cores_never_slower(self, small_rmat_ordered):
        store = make_store(small_rmat_ordered, 256)
        base = triangulate_disk(store, buffer_ratio=0.15, cost=COST, cores=1)
        trace = base.extra["trace"]
        previous = base.elapsed
        for cores in (2, 4, 6):
            now = replay(trace, COST, cores=cores, morphing=True).elapsed
            assert now <= previous * 1.01
            previous = now

    def test_morphing_helps(self):
        graph = generators.holme_kim(800, 10, 0.4, seed=12)
        ordered, _ = apply_ordering(graph, "degree")
        store = make_store(ordered, 512)
        base = triangulate_disk(store, buffer_ratio=0.15, cost=COST, cores=1)
        trace = base.extra["trace"]
        on = replay(trace, COST, cores=2, morphing=True).elapsed
        off = replay(trace, COST, cores=2, morphing=False).elapsed
        assert on <= off


class TestConfig:
    def test_even_split(self):
        config = OPTConfig.even_split(10)
        assert config.m_in == 5 and config.m_ex == 5

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            OPTConfig(m_in=0, m_ex=1)
        with pytest.raises(ConfigurationError):
            OPTConfig.even_split(1)

    def test_resolve_plugin_unknown(self):
        with pytest.raises(ConfigurationError):
            resolve_plugin("nope")

    def test_buffer_ratio_validation(self, small_rmat_ordered):
        store = make_store(small_rmat_ordered, 256)
        with pytest.raises(ConfigurationError):
            buffer_pages_for_ratio(store, 0)

    @pytest.mark.parametrize("ratio", [float("nan"), float("inf"),
                                       float("-inf"), 0.0, -0.5])
    def test_buffer_ratio_must_be_finite_and_positive(self, small_rmat_ordered,
                                                      ratio):
        store = make_store(small_rmat_ordered, 256)
        with pytest.raises(ConfigurationError, match="finite and positive"):
            buffer_pages_for_ratio(store, ratio)
        with pytest.raises(ConfigurationError, match="finite and positive"):
            triangulate_disk(store, buffer_ratio=ratio)

    def test_empty_graph(self):
        from repro.graph.builder import GraphBuilder

        store = make_store(GraphBuilder(0).build(), 128)
        trace = run_opt(store, OPTConfig(m_in=1, m_ex=1))
        assert trace.triangles == 0
        assert trace.iterations == []

"""Tests for MGT, CC-Seq, CC-DS, and GraphChi-Tri."""

from __future__ import annotations

import pytest

from repro.baselines import cc_ds, cc_seq, graphchi_tri
from repro.baselines.common import induced_pages, partition_ranges, range_triangle_pass
from repro.core import buffer_pages_for_ratio, make_store, triangulate_disk
from repro.errors import ConfigurationError
from repro.graph import generators
from repro.memory import CollectSink, canonical_triangles, edge_iterator
from repro.sim import CostModel

COST = CostModel()
BASELINES = [
    pytest.param(lambda g, bp, ps: triangulate_disk(g, plugin="mgt", buffer_pages=bp, page_size=ps, cost=COST, cores=1), id="mgt"),
    pytest.param(lambda g, bp, ps: cc_seq(g, buffer_pages=bp, page_size=ps, cost=COST), id="cc-seq"),
    pytest.param(lambda g, bp, ps: cc_ds(g, buffer_pages=bp, page_size=ps, cost=COST), id="cc-ds"),
    pytest.param(lambda g, bp, ps: graphchi_tri(g, buffer_pages=bp, page_size=ps, cost=COST), id="graphchi"),
]


class TestCorrectness:
    @pytest.mark.parametrize("method", BASELINES)
    def test_figure1(self, figure1, method):
        assert method(figure1, 2, 128).triangles == 5

    @pytest.mark.parametrize("method", BASELINES)
    @pytest.mark.parametrize("buffer_pages", [2, 6, 20])
    def test_rmat_counts(self, small_rmat_ordered, method, buffer_pages):
        expected = edge_iterator(small_rmat_ordered).triangles
        assert method(small_rmat_ordered, buffer_pages, 256).triangles == expected

    def test_cc_seq_lists_exactly(self, small_rmat_ordered):
        reference = CollectSink()
        edge_iterator(small_rmat_ordered, reference)
        sink = CollectSink()
        cc_seq(small_rmat_ordered, buffer_pages=4, page_size=256, cost=COST,
               sink=sink)
        assert canonical_triangles(sink) == canonical_triangles(reference)

    @pytest.mark.parametrize("method", BASELINES)
    def test_triangle_free(self, method):
        assert method(generators.cycle_graph(60), 3, 128).triangles == 0


class TestPartitioning:
    def test_partition_ranges_cover_all(self, small_rmat_ordered):
        ranges = partition_ranges(small_rmat_ordered, 4, 256)
        flattened = [v for lo, hi in ranges for v in range(lo, hi + 1)]
        assert flattened == list(range(small_rmat_ordered.num_vertices))

    def test_budget_respected_up_to_one_vertex(self, small_rmat_ordered):
        ranges = partition_ranges(small_rmat_ordered, 2, 256)
        assert len(ranges) >= 2

    def test_range_pass_partition_sums_to_total(self, small_rmat_ordered):
        expected = edge_iterator(small_rmat_ordered).triangles
        ranges = partition_ranges(small_rmat_ordered, 3, 256)
        total = sum(
            range_triangle_pass(small_rmat_ordered, lo, hi)[0] for lo, hi in ranges
        )
        assert total == expected

    def test_induced_pages_monotone(self, small_rmat_ordered):
        pages = [induced_pages(small_rmat_ordered, lo, 256)
                 for lo in range(0, small_rmat_ordered.num_vertices, 50)]
        assert pages == sorted(pages, reverse=True)
        assert induced_pages(small_rmat_ordered, small_rmat_ordered.num_vertices) == 0


class TestCostShapes:
    def test_slow_group_writes_fast_group_does_not(self, small_rmat_ordered):
        store = make_store(small_rmat_ordered, 256)
        bp = buffer_pages_for_ratio(store, 0.15)
        opt = triangulate_disk(store, buffer_pages=bp, cost=COST)
        slow = cc_seq(small_rmat_ordered, buffer_pages=bp, page_size=256, cost=COST)
        assert opt.pages_written == 0
        assert slow.pages_written > 0

    def test_opt_fastest(self, small_rmat_ordered):
        store = make_store(small_rmat_ordered, 256)
        bp = buffer_pages_for_ratio(store, 0.15)
        opt = triangulate_disk(store, buffer_pages=bp, cost=COST)
        for method in (
            triangulate_disk(store, plugin="mgt", buffer_pages=bp, cost=COST,
                             cores=1),
            cc_seq(small_rmat_ordered, buffer_pages=bp, page_size=256, cost=COST),
            cc_ds(small_rmat_ordered, buffer_pages=bp, page_size=256, cost=COST),
            graphchi_tri(small_rmat_ordered, buffer_pages=bp, page_size=256, cost=COST),
        ):
            assert opt.elapsed < method.elapsed

    def test_slow_group_buffer_sensitive(self, small_rmat_ordered):
        tight = cc_seq(small_rmat_ordered, buffer_pages=2, page_size=256, cost=COST)
        roomy = cc_seq(small_rmat_ordered, buffer_pages=30, page_size=256, cost=COST)
        assert tight.elapsed > roomy.elapsed

    def test_graphchi_speedup_saturates(self, small_rmat_ordered):
        one = graphchi_tri(small_rmat_ordered, buffer_pages=6, page_size=256,
                           cost=COST, cores=1)
        six = graphchi_tri(small_rmat_ordered, buffer_pages=6, page_size=256,
                           cost=COST, cores=6)
        speedup = one.elapsed / six.elapsed
        assert 1.0 <= speedup < 2.5  # the paper's Figure 6 ceiling

    def test_graphchi_parallel_fraction_reported(self, small_rmat_ordered):
        result = graphchi_tri(small_rmat_ordered, buffer_pages=6, page_size=256,
                              cost=COST)
        assert 0.0 < result.extra["parallel_fraction"] < 1.0


class TestValidation:
    def test_bad_buffer(self, figure1):
        with pytest.raises(ConfigurationError):
            cc_seq(figure1, buffer_pages=0, page_size=128, cost=COST)
        with pytest.raises(ConfigurationError):
            graphchi_tri(figure1, buffer_pages=0, page_size=128, cost=COST)

    def test_bad_cores(self, figure1):
        with pytest.raises(ConfigurationError):
            graphchi_tri(figure1, buffer_pages=2, page_size=128, cost=COST, cores=0)

"""Tests for the intersection kernels and their op accounting."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.intersect import (
    ADAPTIVE_BITMAP_SKEW,
    ADAPTIVE_GALLOP_SKEW,
    adaptive_intersect_detail,
    gallop_intersect,
    intersect_sorted,
    merge_intersect,
)

sorted_unique = st.lists(st.integers(0, 500), max_size=60).map(
    lambda xs: sorted(set(xs))
)


class TestIntersectSorted:
    def test_basic(self):
        a = np.array([1, 3, 5, 7])
        b = np.array([3, 4, 5, 9])
        assert intersect_sorted(a, b).tolist() == [3, 5]

    def test_empty_left(self):
        assert len(intersect_sorted(np.array([], dtype=np.int64), np.array([1]))) == 0

    def test_empty_right(self):
        assert len(intersect_sorted(np.array([1, 2]), np.array([], dtype=np.int64))) == 0

    def test_disjoint(self):
        assert len(intersect_sorted(np.array([1, 2]), np.array([3, 4]))) == 0

    def test_identical(self):
        a = np.array([2, 4, 6])
        assert intersect_sorted(a, a).tolist() == [2, 4, 6]


class TestOpsAccounting:
    def test_hash_ops_match_paper_measure(self):
        from repro.exec import compose
        from repro.graph.builder import from_edges

        # A 4-clique {0, 1, 2, 3} with a 100-vertex fan on vertex 3: the
        # edge (0, 3) costs min(|n_succ(0)|, |n_succ(3)|) = 3, not 100.
        graph = from_edges([(0, v) for v in (1, 2, 3)]
                           + [(1, 2), (1, 3), (2, 3)]
                           + [(3, w) for w in range(4, 104)])
        result = compose("memory", "hash", "serial", graph=graph).run()
        assert result.triangles == 4
        # (0,1): min(3, 2); (0,2): min(3, 1); (0,3): min(3, 100);
        # (1,2): min(2, 1); (1,3): min(2, 100); (2,3): min(1, 100).
        assert result.cpu_ops == 2 + 1 + 3 + 1 + 2 + 1


class TestReferenceKernels:
    @pytest.mark.parametrize("kernel", [merge_intersect, gallop_intersect])
    def test_known_case(self, kernel):
        result, ops = kernel([1, 4, 6, 9], [2, 4, 9, 12])
        assert result == [4, 9]
        assert ops > 0

    @pytest.mark.parametrize("kernel", [merge_intersect, gallop_intersect])
    def test_empty(self, kernel):
        result, _ = kernel([], [1, 2])
        assert result == []

    @given(sorted_unique, sorted_unique)
    def test_kernels_agree(self, a, b):
        expected = sorted(set(a) & set(b))
        for kernel in (merge_intersect, gallop_intersect):
            result, _ = kernel(a, b)
            assert result == expected
        common, _ops, _branch = adaptive_intersect_detail(
            np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
        assert common.tolist() == expected

    @given(sorted_unique, sorted_unique)
    def test_numpy_kernel_agrees(self, a, b):
        a, b = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
        assert intersect_sorted(a, b).tolist() == sorted(set(a) & set(b))


class TestAdaptiveEdgeCases:
    """Degenerate and extreme-skew shapes for the adaptive kernel."""

    def test_empty_lists(self):
        for a, b in ([], []), ([], [1, 2, 3]), ([5], []):
            common, ops, branch = adaptive_intersect_detail(
                np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
            assert len(common) == 0 and ops == 0 and branch == "empty"

    def test_singletons(self):
        common, ops, branch = adaptive_intersect_detail(
            np.array([7]), np.array([7]))
        assert common.tolist() == [7] and ops == 1 and branch == "merge"
        common, ops, _branch = adaptive_intersect_detail(
            np.array([7]), np.array([9]))
        assert len(common) == 0 and ops == 0

    def test_fully_overlapping_lists(self):
        a = np.arange(0, 100, 2)
        common, ops, branch = adaptive_intersect_detail(a, a.copy())
        assert common.tolist() == a.tolist()
        assert ops == len(a)  # pruning cannot help identical spans
        assert branch == "merge"

    def test_maximal_skew_one_against_100k(self):
        b = np.arange(100_000, dtype=np.int64)
        for needle, hits in ((50_000, True), (200_000, False)):
            a = np.array([needle], dtype=np.int64)
            common, ops, _branch = adaptive_intersect_detail(a, b)
            assert common.tolist() == ([needle] if hits else [])
            # |a| = 1 bounds the pruned min: at most one op, and a miss
            # outside b's span costs nothing.
            assert ops <= 1
            assert hits or ops == 0

    def test_disjoint_spans_charge_zero(self):
        common, ops, branch = adaptive_intersect_detail(
            np.arange(0, 50), np.arange(100, 200))
        assert len(common) == 0 and ops == 0 and branch == "disjoint"

    def test_gallop_band_threshold(self):
        a = np.array([10, 500_000], dtype=np.int64)
        b = np.arange(0, 2 * ADAPTIVE_GALLOP_SKEW + 20, dtype=np.int64)
        common, ops, branch = adaptive_intersect_detail(a, b)
        assert branch == "gallop" and common.tolist() == [10] and ops == 1

    def test_bitmap_band_threshold(self):
        a = np.array([10, 20, 30, 40], dtype=np.int64)
        # Pruned to a's span, b keeps 31 members: ratio 31 // 4 = 7,
        # inside [ADAPTIVE_BITMAP_SKEW, ADAPTIVE_GALLOP_SKEW).
        b = np.arange(0, 51, dtype=np.int64)
        common, ops, branch = adaptive_intersect_detail(a, b)
        assert ADAPTIVE_BITMAP_SKEW <= 31 // 4 < ADAPTIVE_GALLOP_SKEW
        assert branch == "bitmap"
        assert ops == len(common) == 4

    @given(sorted_unique, sorted_unique)
    def test_charge_never_exceeds_the_hash_min(self, a, b):
        _common, ops, _branch = adaptive_intersect_detail(
            np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
        assert ops <= min(len(a), len(b))


class TestAdaptiveScratchMask:
    """The engine binding's bitmap scratch mask survives reuse."""

    def _binding(self, num_vertices=200):
        from repro.exec import AdaptiveKernel

        return AdaptiveKernel().bind(num_vertices)

    def test_mask_reuse_across_calls(self):
        binding = self._binding()
        a = np.array([10, 20, 30, 40], dtype=np.int64)
        b = np.arange(0, 40 + 1, dtype=np.int64)  # bitmap band (ratio >= 4)
        first = binding.intersect(binding.prep(a), b)
        second = binding.intersect(binding.prep(a), b)
        assert first[0].tolist() == second[0].tolist() == a.tolist()
        assert first[1] == second[1]
        # The mask is unmarked after every call; stale marks would leak
        # phantom members into later pairs.
        assert not binding._mask.any()
        other = np.array([15, 25], dtype=np.int64)
        common, _ops = binding.intersect(binding.prep(other),
                                         np.arange(0, 41, dtype=np.int64))
        assert common.tolist() == [15, 25]

    def test_branch_tally_accumulates(self):
        binding = self._binding()
        binding.intersect(np.array([10, 20, 30, 40]), np.arange(41))
        binding.intersect(np.array([], dtype=np.int64), np.arange(5))
        stats = binding.stats()
        assert stats["bitmap"] == [1, 4]
        assert stats["empty"] == [1, 0]
        # stats() returns a copy, not a live view.
        stats["bitmap"][0] = 99
        assert binding.stats()["bitmap"] == [1, 4]


class TestAdaptiveMinChargeConservation:
    """Eq. 3 min-charge conservation vs. the hash reference, full zoo."""

    def test_adaptive_bill_bounded_by_hash_on_every_member(self):
        from repro.exec import compose
        from tests import zoo

        for name in zoo.zoo_names():
            graph = zoo.build(name)
            adaptive = compose("memory", "adaptive", "serial",
                               graph=graph).run()
            hash_run = compose("memory", "hash", "serial", graph=graph).run()
            assert adaptive.triangles == hash_run.triangles, name
            assert adaptive.cpu_ops <= hash_run.cpu_ops, (
                f"{name}: adaptive charged {adaptive.cpu_ops} ops, above "
                f"the hash reference's {hash_run.cpu_ops}")
            if name in zoo.SKEW_MEMBERS:
                assert adaptive.cpu_ops < hash_run.cpu_ops, name

"""Tests for the CSR Graph, builder, and orderings."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph.builder import GraphBuilder, from_edges
from repro.graph.graph import Graph
from repro.graph.ordering import Ordering, apply_ordering, degree_order_mapping

edges_strategy = st.lists(
    st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=120
)


class TestBuilder:
    def test_empty(self):
        graph = GraphBuilder().build()
        assert graph.num_vertices == 0
        assert graph.num_edges == 0

    def test_single_edge(self):
        graph = from_edges([(0, 1)])
        assert graph.num_vertices == 2
        assert graph.num_edges == 1
        assert graph.neighbors(0).tolist() == [1]
        assert graph.neighbors(1).tolist() == [0]

    def test_deduplicates(self):
        graph = from_edges([(0, 1), (1, 0), (0, 1)])
        assert graph.num_edges == 1

    def test_drops_self_loops_by_default(self):
        graph = from_edges([(0, 0), (0, 1)])
        assert graph.num_edges == 1

    def test_strict_rejects_self_loops(self):
        with pytest.raises(GraphError):
            from_edges([(2, 2)], strict=True)

    def test_rejects_negative_ids(self):
        with pytest.raises(GraphError):
            from_edges([(-1, 2)])

    def test_fixed_vertex_count_bounds(self):
        with pytest.raises(GraphError):
            from_edges([(0, 5)], num_vertices=3)

    def test_isolated_trailing_vertices(self):
        graph = from_edges([(0, 1)], num_vertices=5)
        assert graph.num_vertices == 5
        assert graph.degree(4) == 0

    @given(edges_strategy)
    def test_symmetry_and_sortedness(self, edges):
        graph = from_edges(edges)
        for v in range(graph.num_vertices):
            row = graph.neighbors(v)
            assert np.all(np.diff(row) > 0) or len(row) <= 1
            for u in row:
                assert v in graph.neighbors(int(u))

    @given(edges_strategy)
    def test_edge_count_matches_edge_iteration(self, edges):
        graph = from_edges(edges)
        assert sum(1 for _ in graph.edges()) == graph.num_edges


class TestGraphAccessors:
    def test_succ_prec_partition(self, figure1):
        for v in range(figure1.num_vertices):
            succ = figure1.n_succ(v).tolist()
            prec = figure1.n_prec(v).tolist()
            assert sorted(succ + prec) == figure1.neighbors(v).tolist()
            assert all(u > v for u in succ)
            assert all(u < v for u in prec)

    def test_n_succ_offsets_equal_the_searchsorted_slice(self, graph_zoo):
        from tests import zoo

        for name in zoo.zoo_names():
            graph = graph_zoo(name)
            for v in range(graph.num_vertices):
                row = graph.neighbors(v)
                expected = row[np.searchsorted(row, v, side="right"):]
                assert graph.n_succ(v).tolist() == expected.tolist(), (name, v)

    def test_offset_cache_survives_pickle_and_shared_memory(self, graph_zoo):
        """The cached offsets are heap data: a pickled copy and a
        shared-memory attachment both answer ``n_succ`` identically, and
        the attachment still closes (no view into the segment is kept)."""
        import pickle

        from repro.parallel.shm import SharedCSR

        def successor_lists(g):
            return [g.n_succ(v).tolist() for v in range(g.num_vertices)]

        graph = graph_zoo("rmat-small")
        cold = pickle.loads(pickle.dumps(graph))
        expected = successor_lists(graph)
        warm = pickle.loads(pickle.dumps(graph))
        for copy in (cold, warm):
            assert copy == graph
            assert successor_lists(copy) == expected
        with SharedCSR.publish(graph) as shared:
            attached = SharedCSR.attach(shared.handle)
            try:
                assert successor_lists(attached.graph()) == expected
            finally:
                attached.close()

    def test_has_edge(self, figure1):
        assert figure1.has_edge(0, 1)
        assert figure1.has_edge(1, 0)
        assert not figure1.has_edge(0, 7)
        assert not figure1.has_edge(0, 99)

    def test_edge_array(self, figure1):
        array = figure1.edge_array()
        assert array.shape == (figure1.num_edges, 2)
        assert np.all(array[:, 0] < array[:, 1])

    def test_degrees(self, figure1):
        assert figure1.degrees().sum() == 2 * figure1.num_edges

    def test_validation_rejects_asymmetric(self):
        indptr = np.array([0, 1, 1])
        indices = np.array([1, 0])[:1]
        with pytest.raises(GraphError):
            Graph(np.array([0, 1, 2]), np.array([1, 1]))

    def test_validation_rejects_self_loop(self):
        with pytest.raises(GraphError):
            Graph(np.array([0, 1, 2]), np.array([0, 1]))


class TestRelabel:
    def test_identity(self, figure1):
        relabeled = figure1.relabel(np.arange(8))
        assert relabeled == figure1

    def test_permutation_preserves_structure(self, small_rmat):
        rng = np.random.default_rng(1)
        mapping = rng.permutation(small_rmat.num_vertices)
        relabeled = small_rmat.relabel(mapping)
        assert relabeled.num_edges == small_rmat.num_edges
        # Spot check: edge (u, v) maps to (mapping[u], mapping[v]).
        for u, v in list(small_rmat.edges())[:50]:
            assert relabeled.has_edge(int(mapping[u]), int(mapping[v]))

    def test_rejects_non_permutation(self, figure1):
        with pytest.raises(GraphError):
            figure1.relabel(np.zeros(8, dtype=np.int64))

    @pytest.mark.parametrize("mapping", [
        [-1, 0, 1],        # used to wrap around: indices held -1
        [0, 1, 5],         # used to raise a bare IndexError
        [0, 0, 2],
        [0.0, 0.5, 2.0],   # truncates to a duplicate
        [0, 1],
        [[0, 1, 2]],
    ], ids=str)
    def test_rejects_out_of_range_duplicate_and_misshapen(self, mapping):
        path = from_edges([(0, 1), (1, 2)])
        with pytest.raises(GraphError, match="mapping must be a permutation "
                                             "of the vertex ids"):
            path.relabel(mapping)

    @given(edges_strategy, st.integers(0, 2**32 - 1))
    def test_equals_the_row_by_row_relabel(self, edges, seed):
        """The key sort against the loop it replaced: one sort per row."""
        graph = from_edges(edges)
        n = graph.num_vertices
        mapping = np.random.default_rng(seed).permutation(n)
        inverse = np.argsort(mapping)
        rows = [np.sort(mapping[graph.neighbors(int(old))]) for old in inverse]
        relabeled = graph.relabel(mapping)
        assert relabeled.indptr.tolist() == [0, *np.cumsum(
            [len(row) for row in rows]).tolist()]
        assert relabeled.indices.tolist() == [
            int(v) for row in rows for v in row]


class TestOrdering:
    def test_degree_mapping_monotone(self, small_rmat):
        mapping = degree_order_mapping(small_rmat)
        degrees = small_rmat.degrees()
        new_degree = np.empty_like(degrees)
        new_degree[mapping] = degrees
        assert np.all(np.diff(new_degree) >= 0)

    def test_reverse_degree_monotone_decreasing(self, small_rmat):
        mapping = degree_order_mapping(small_rmat, reverse=True)
        degrees = small_rmat.degrees()
        new_degree = np.empty_like(degrees)
        new_degree[mapping] = degrees
        assert np.all(np.diff(new_degree) <= 0)

    def test_natural_is_identity(self, small_rmat):
        graph, mapping = apply_ordering(small_rmat, Ordering.NATURAL)
        assert graph is small_rmat
        assert np.array_equal(mapping, np.arange(small_rmat.num_vertices))

    def test_degree_ordering_reduces_cost(self, small_rmat):
        """The Schank-Wagner heuristic must cut EdgeIterator op counts."""
        from repro.memory import edge_iterator

        natural_ops = edge_iterator(small_rmat).cpu_ops
        ordered, _ = apply_ordering(small_rmat, Ordering.DEGREE)
        assert edge_iterator(ordered).cpu_ops < natural_ops

    def test_random_is_seeded(self, small_rmat):
        g1, m1 = apply_ordering(small_rmat, Ordering.RANDOM, seed=3)
        g2, m2 = apply_ordering(small_rmat, Ordering.RANDOM, seed=3)
        assert np.array_equal(m1, m2)

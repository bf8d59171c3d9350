"""Tests for the text chart helpers and the core decomposition."""

from __future__ import annotations

import pytest

from repro.analysis.ascii_chart import bar_chart, series_chart


class TestCharts:
    def test_bar_chart_shape(self):
        chart = bar_chart(["OPT", "MGT"], [1.0, 2.0], width=10)
        lines = chart.splitlines()
        assert len(lines) == 2
        assert lines[1].count("#") == 10  # max value fills the width
        assert lines[0].count("#") == 5

    def test_bar_chart_validation(self):
        with pytest.raises(ValueError):
            bar_chart(["a"], [1.0, 2.0])

    def test_bar_chart_empty(self):
        assert "(no data)" in bar_chart([], [], title="t")

    def test_series_chart_contains_markers(self):
        chart = series_chart(
            [1, 2, 3],
            {"opt": [1.0, 2.0, 3.0], "mgt": [3.0, 2.0, 1.0]},
            height=5,
        )
        assert "O" in chart and "M" in chart
        assert "legend" in chart

    def test_series_chart_validation(self):
        with pytest.raises(ValueError):
            series_chart([1, 2], {"a": [1.0]})
        with pytest.raises(ValueError):
            series_chart([1], {})


class TestCoreDecomposition:
    def test_complete_graph(self):
        from repro.graph import generators
        from repro.graph.cores import core_numbers, degeneracy

        graph = generators.complete_graph(7)
        assert degeneracy(graph) == 6
        assert all(core_numbers(graph) == 6)

    def test_tree_is_one_degenerate(self):
        from repro.graph.cores import degeneracy
        from repro.graph.generators import star_graph

        assert degeneracy(star_graph(50)) == 1

    def test_matches_networkx(self, clustered_graph):
        import networkx as nx

        from repro.graph.cores import core_numbers

        nxg = nx.Graph(list(clustered_graph.edges()))
        nxg.add_nodes_from(range(clustered_graph.num_vertices))
        expected = nx.core_number(nxg)
        computed = core_numbers(clustered_graph)
        assert all(computed[v] == expected[v]
                   for v in range(clustered_graph.num_vertices))

    def test_arboricity_bounds_bracket(self, small_rmat):
        from repro.graph.cores import degeneracy_arboricity_bounds

        lower, upper = degeneracy_arboricity_bounds(small_rmat)
        assert 1 <= lower <= upper

    def test_empty_graph(self):
        from repro.graph.builder import GraphBuilder
        from repro.graph.cores import core_numbers, degeneracy

        empty = GraphBuilder(0).build()
        assert len(core_numbers(empty)) == 0
        assert degeneracy(empty) == 0

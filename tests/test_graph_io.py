"""Tests for graph serialization round trips."""

from __future__ import annotations

import gzip

import numpy as np
import pytest

from repro.errors import GraphError, GraphFormatError
from repro.graph.builder import GraphBuilder, from_edges
from repro.graph.io import read_binary, read_edge_list, write_binary, write_edge_list


class TestEdgeList:
    def test_round_trip(self, tmp_path, small_rmat):
        path = tmp_path / "graph.txt"
        write_edge_list(small_rmat, path)
        loaded = read_edge_list(path, num_vertices=small_rmat.num_vertices)
        assert loaded == small_rmat

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# comment\n\n% other comment\n0 1\n1 2\n")
        graph = read_edge_list(path)
        assert graph.num_edges == 2

    def test_self_loops_dropped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 0\n0 1\n")
        assert read_edge_list(path).num_edges == 1

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0\n")
        with pytest.raises(GraphFormatError):
            read_edge_list(path)

    def test_non_integer(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("a b\n")
        with pytest.raises(GraphFormatError):
            read_edge_list(path)


#: Inputs of ``read_edge_list`` and what the per-line parser it replaced
#: made of them: ``(id, text, num_vertices, edges)`` for a graph, or
#: ``(id, text, num_vertices, exception type, message)`` where ``{path}``
#: stands for the file.  Rows named ``.gz`` are written gzipped.
PARSER_TABLE = [
    ("plain", "0 1\n1 2\n", None, [(0, 1), (1, 2)]),
    ("third-column-ignored", "0 1 0.75\n1 2 x y z\n", None, [(0, 1), (1, 2)]),
    ("ragged-columns", "0 1 7 8 9\n1 2\n2 3 4\n", None, [(0, 1), (1, 2), (2, 3)]),
    ("tabs", "0\t1\n1\t\t2\n", None, [(0, 1), (1, 2)]),
    ("crlf", "0 1\r\n1 2\r\n", None, [(0, 1), (1, 2)]),
    ("padded", "  0   1  \n\t1 2\t\n", None, [(0, 1), (1, 2)]),
    ("trailing-blanks", "0 1\n1 2\n\n   \n\n", None, [(0, 1), (1, 2)]),
    ("no-final-newline", "0 1\n1 2", None, [(0, 1), (1, 2)]),
    ("comments-mid-file", "# head\n0 1\n% note\n  # indented\n1 2\n"
                          "#2 3\n%3 4\n", None, [(0, 1), (1, 2)]),
    ("hash-only-comments", "# head\n0 1\n# 5 6\n1 2\n", None, [(0, 1), (1, 2)]),
    ("comment-after-edge", "0 1 # why\n1 2 % why\n", None, [(0, 1), (1, 2)]),
    ("comment-only", "# nothing\n% here\n", None, []),
    ("comment-only-fixed-n", "# nothing\n", 4, []),
    ("empty", "", None, []),
    ("empty-fixed-n", "", 3, []),
    ("blank-lines-only", "\n  \n\n", None, []),
    ("duplicates-and-reversed", "0 1\n1 0\n0 1\n2 1\n", None, [(0, 1), (1, 2)]),
    ("self-loops-dropped", "0 0\n0 1\n7 7\n", None, [(0, 1)]),
    ("self-loop-past-fixed-n", "0 1\n9 9\n", 2, [(0, 1)]),
    ("fixed-n-pads", "0 1\n", 5, [(0, 1)]),
    ("plus-sign", "+0 +1\n", None, [(0, 1)]),
    ("plain.gz", "# head\n0 1\n1 2\n", None, [(0, 1), (1, 2)]),
    ("percent.gz", "% head\n0 1\n", None, [(0, 1)]),
    ("one-token", "0 1\n\n2\n3 4\n", None, GraphFormatError,
     "{path}:3: expected 'u v', got '2'"),
    ("one-token-padded", "# c\n  7 \n", None, GraphFormatError,
     "{path}:2: expected 'u v', got '7'"),
    ("one-token-after-percent", "% c\n0 1\n5\n", None, GraphFormatError,
     "{path}:3: expected 'u v', got '5'"),
    ("non-integer", "0 1\na b\n", None, GraphFormatError,
     "{path}:2: non-integer vertex id"),
    ("non-integer-second", "0 1\n\n# c\n1 x\n2 y\n", None, GraphFormatError,
     "{path}:4: non-integer vertex id"),
    ("float-id", "0 1.0\n", None, GraphFormatError,
     "{path}:1: non-integer vertex id"),
    ("comma-separated", "0,1\n", None, GraphFormatError,
     "{path}:1: expected 'u v', got '0,1'"),
    ("comment-glued-to-first-id", "0# 1\n", None, GraphFormatError,
     "{path}:1: non-integer vertex id"),
    ("first-defect-wins", "0 1\nx y\n3\n", None, GraphFormatError,
     "{path}:2: non-integer vertex id"),
    ("defect.gz", "0 1\n2\n", None, GraphFormatError,
     "{path}:2: expected 'u v', got '2'"),
    ("negative-id", "0 1\n-1 2\n", None, GraphError,
     "negative vertex id in edge (-1, 2)"),
    ("negative-self-loop", "-3 -3\n", None, GraphError,
     "negative vertex id in edge (-3, -3)"),
    ("id-past-fixed-n", "0 1\n1 5\n6 0\n", 3, GraphError,
     "edge (1, 5) exceeds fixed vertex count 3"),
]


class TestParserParity:
    @pytest.mark.parametrize("row", PARSER_TABLE, ids=lambda row: row[0])
    def test_row(self, tmp_path, row):
        name, text, num_vertices, *expected = row
        if name.endswith(".gz"):
            path = tmp_path / "g.txt.gz"
            path.write_bytes(gzip.compress(text.encode()))
        else:
            path = tmp_path / "g.txt"
            path.write_bytes(text.encode())
        if len(expected) == 2:
            with pytest.raises(expected[0]) as caught:
                read_edge_list(path, num_vertices=num_vertices)
            assert type(caught.value) is expected[0]
            assert str(caught.value) == expected[1].format(path=path)
        else:
            graph = read_edge_list(path, num_vertices=num_vertices)
            assert graph == from_edges(expected[0], num_vertices=num_vertices)
            assert graph.edge_array().tolist() == [list(e) for e in expected[0]]

    def test_no_warning_for_an_empty_file(self, tmp_path, recwarn):
        path = tmp_path / "g.txt"
        path.write_text("# nothing\n")
        assert read_edge_list(path).num_vertices == 0
        assert not recwarn.list

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_edge_list(tmp_path / "absent.txt")

    def test_undecodable_bytes(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_bytes(b"0 1\n\xff\xfe 2\n")
        with pytest.raises(UnicodeDecodeError):
            read_edge_list(path)


#: ``(id, builder kwargs, edges)``: the three rules of ``add_edge``.
RULE_TABLE = [
    ("clean", {}, [(0, 1), (2, 1), (1, 0)]),
    ("nothing", {}, []),
    ("loops-dropped", {}, [(0, 0), (0, 1), (4, 4)]),
    ("loop-strict", {"strict": True}, [(0, 1), (2, 2), (3, 3)]),
    ("negative-first", {}, [(0, 1), (-1, 2), (2, -5)]),
    ("negative-second", {}, [(3, -2)]),
    ("negative-loop", {}, [(-4, -4)]),
    ("negative-before-strict-loop", {"strict": True}, [(-1, -1), (2, 2)]),
    ("strict-loop-before-negative", {"strict": True}, [(2, 2), (-1, 0)]),
    ("past-fixed-n", {"num_vertices": 3}, [(0, 1), (1, 3), (7, 0)]),
    ("at-fixed-n", {"num_vertices": 3}, [(3, 0)]),
    ("inside-fixed-n", {"num_vertices": 3}, [(0, 2), (2, 1)]),
    ("loop-past-fixed-n-dropped", {"num_vertices": 2}, [(5, 5), (0, 1)]),
    ("loop-past-fixed-n-strict", {"num_vertices": 2, "strict": True}, [(5, 5)]),
    ("past-fixed-n-before-negative", {"num_vertices": 2}, [(0, 9), (-1, 0)]),
    ("fixed-n-zero", {"num_vertices": 0}, [(0, 1)]),
]


class TestAddEdgeArray:
    @pytest.mark.parametrize("row", RULE_TABLE, ids=lambda row: row[0])
    def test_same_rules_as_add_edge(self, row):
        _, kwargs, edges = row
        outcomes = []
        for add in (
                lambda b: [b.add_edge(u, v) for u, v in edges],
                lambda b: b.add_edge_array(
                    np.array([u for u, _ in edges], dtype=np.int64),
                    np.array([v for _, v in edges], dtype=np.int64))):
            builder = GraphBuilder(**kwargs)
            try:
                add(builder)
            except GraphError as exc:
                outcomes.append((type(exc), str(exc)))
            else:
                outcomes.append(builder.build())
        assert outcomes[0] == outcomes[1]

    def test_mixes_with_add_edge(self):
        builder = GraphBuilder()
        builder.add_edge(5, 0)
        builder.add_edge_array([0, 1], [1, 2])
        builder.add_edge_array(np.array([2]), np.array([1]))
        assert builder.build() == from_edges([(0, 1), (1, 2), (0, 5)])

    def test_a_rejected_block_adds_nothing(self):
        builder = GraphBuilder()
        with pytest.raises(GraphError):
            builder.add_edge_array([0, 1], [1, -1])
        assert builder.build().num_vertices == 0

    def test_rejects_mismatched_arrays(self):
        with pytest.raises(GraphError):
            GraphBuilder().add_edge_array([0, 1], [1])


class TestWriteEdgeList:
    """The block writer against the per-edge f-string loop it replaced."""

    @pytest.mark.parametrize("fixture", ["figure1", "small_rmat"])
    @pytest.mark.parametrize("header", [True, False])
    @pytest.mark.parametrize("suffix", [".txt", ".txt.gz"])
    def test_bytes_equal_the_per_edge_writer(self, request, tmp_path, fixture,
                                             header, suffix):
        graph = request.getfixturevalue(fixture)
        expected = "".join(f"{u} {v}\n" for u, v in graph.edges())
        if header:
            expected = (f"# undirected simple graph: {graph.num_vertices} "
                        f"vertices, {graph.num_edges} edges\n") + expected
        path = tmp_path / f"g{suffix}"
        write_edge_list(graph, path, header=header)
        raw = path.read_bytes()
        if suffix.endswith(".gz"):
            raw = gzip.decompress(raw)
        assert raw == expected.encode()

    def test_more_edges_than_one_block(self, tmp_path, small_rmat, monkeypatch):
        from repro.graph import io

        monkeypatch.setattr(io, "_WRITE_BLOCK", 7)
        path = tmp_path / "g.txt"
        write_edge_list(small_rmat, path, header=False)
        assert path.read_text() == "".join(
            f"{u} {v}\n" for u, v in small_rmat.edges())

    def test_graph_without_edges(self, tmp_path):
        path = tmp_path / "g.txt"
        write_edge_list(GraphBuilder(3).build(), path)
        assert path.read_text() == (
            "# undirected simple graph: 3 vertices, 0 edges\n")


class TestBinary:
    def test_round_trip(self, tmp_path, small_rmat):
        path = tmp_path / "graph.bin"
        write_binary(small_rmat, path)
        assert read_binary(path) == small_rmat

    def test_round_trip_empty(self, tmp_path):
        from repro.graph.builder import GraphBuilder

        graph = GraphBuilder(3).build()
        path = tmp_path / "empty.bin"
        write_binary(graph, path)
        loaded = read_binary(path)
        assert loaded.num_vertices == 3
        assert loaded.num_edges == 0

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"JUNKxxxxxxxxxxxxxxxxxxxx")
        with pytest.raises(GraphFormatError):
            read_binary(path)

    def test_truncated(self, tmp_path, figure1):
        path = tmp_path / "graph.bin"
        write_binary(figure1, path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(GraphFormatError):
            read_binary(path)

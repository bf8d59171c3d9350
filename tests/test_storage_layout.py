"""Tests for graph packing, the vertex index, and chunk alignment."""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import triangulate_disk
from repro.errors import FaultExhaustedError, PageFormatError
from repro.graph import generators
from repro.graph.builder import from_edges
from repro.obs import RunContext
from repro.storage import FaultPlan, PageBlock, RetryPolicy, SlottedPage
from repro.storage.layout import GraphStore


def reassemble(store: GraphStore) -> dict[int, list[int]]:
    """Rebuild every adjacency list from the page images."""
    lists: dict[int, list[int]] = {}
    for pid in range(store.num_pages):
        for record in store.decode_page(pid):
            lists.setdefault(record.vertex, []).extend(record.neighbors.tolist())
    return lists


class TestPacking:
    @pytest.mark.parametrize("page_size", [64, 256, 4096])
    def test_round_trip(self, small_rmat, page_size):
        store = GraphStore.from_graph(small_rmat, page_size)
        lists = reassemble(store)
        for v in range(small_rmat.num_vertices):
            assert lists.get(v, []) == small_rmat.neighbors(v).tolist()

    def test_vertex_index_correct(self, small_rmat):
        store = GraphStore.from_graph(small_rmat, 128)
        found: dict[int, list[int]] = {}
        for pid in range(store.num_pages):
            for record in store.decode_page(pid):
                found.setdefault(record.vertex, []).append(pid)
        for v in range(small_rmat.num_vertices):
            assert found[v] == list(store.pages_of_vertex(v))

    def test_spanning_vertex_contiguous(self):
        """A hub larger than a page spans contiguous pages with one last chunk."""
        graph = generators.star_graph(300)
        store = GraphStore.from_graph(graph, 128)
        hub_pages = list(store.pages_of_vertex(0))
        assert len(hub_pages) > 1
        assert hub_pages == list(range(hub_pages[0], hub_pages[-1] + 1))
        last_flags = [
            record.is_last
            for pid in hub_pages
            for record in store.decode_page(pid)
            if record.vertex == 0
        ]
        assert last_flags.count(True) == 1
        assert last_flags[-1]

    def test_empty_graph(self):
        from repro.graph.builder import GraphBuilder

        store = GraphStore.from_graph(GraphBuilder(0).build(), 128)
        assert store.num_pages == 0

    def test_isolated_vertices_have_records(self):
        graph = from_edges([(0, 1)], num_vertices=4)
        store = GraphStore.from_graph(graph, 128)
        lists = reassemble(store)
        assert lists[2] == [] and lists[3] == []

    @given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)), max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_property(self, edges):
        graph = from_edges(edges)
        if graph.num_vertices == 0:
            return
        store = GraphStore.from_graph(graph, 128)
        lists = reassemble(store)
        for v in range(graph.num_vertices):
            assert lists.get(v, []) == graph.neighbors(v).tolist()


class TestChunkAlignment:
    @pytest.mark.parametrize("m_in", [1, 2, 3, 7])
    def test_chunks_partition_pages(self, small_rmat, m_in):
        store = GraphStore.from_graph(small_rmat, 128)
        pid = 0
        covered = []
        while pid < store.num_pages:
            end = store.align_chunk_end(pid, m_in)
            covered.extend(range(pid, end + 1))
            assert store.page_ends_complete[end]
            pid = end + 1
        assert covered == list(range(store.num_pages))

    def test_chunk_never_splits_vertex(self, small_rmat):
        store = GraphStore.from_graph(small_rmat, 128)
        pid = 0
        while pid < store.num_pages:
            end = store.align_chunk_end(pid, 3)
            v_lo, v_hi = store.chunk_vertex_range(pid, end)
            for v in range(v_lo, v_hi + 1):
                assert pid <= store.first_page[v] <= store.last_page[v] <= end
            pid = end + 1

    def test_giant_vertex_extends_chunk(self):
        graph = generators.star_graph(400)
        store = GraphStore.from_graph(graph, 128)
        end = store.align_chunk_end(0, 1)
        assert end >= store.last_page[0]


class TestCandidatePages:
    def test_candidate_pages_cover_successors(self, small_rmat):
        store = GraphStore.from_graph(small_rmat, 128)
        for v in range(small_rmat.num_vertices):
            succ = set(small_rmat.n_succ(v).tolist())
            got = set()
            for pid in store.pages_of_candidate(v):
                for record in store.decode_page(pid):
                    if record.vertex == v:
                        got.update(
                            int(x) for x in record.neighbors if x > v
                        )
            assert got == succ

    def test_no_successors_no_pages(self):
        graph = from_edges([(0, 2), (1, 2)], num_vertices=3)
        store = GraphStore.from_graph(graph, 128)
        assert len(store.pages_of_candidate(2)) == 0

    def test_suffix_is_subset_of_chain(self, small_rmat):
        store = GraphStore.from_graph(small_rmat, 64)
        for v in range(small_rmat.num_vertices):
            chain = set(store.pages_of_vertex(v))
            suffix = set(store.pages_of_candidate(v))
            assert suffix <= chain


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path, small_rmat):
        store = GraphStore.from_graph(small_rmat, 256)
        store.save(tmp_path)
        loaded = GraphStore.load(tmp_path)
        assert loaded.num_pages == store.num_pages
        assert loaded.pages == store.pages
        assert np.array_equal(loaded.first_page, store.first_page)
        assert np.array_equal(loaded.succ_first_page, store.succ_first_page)

    def test_open_page_file(self, tmp_path, figure1):
        store = GraphStore.from_graph(figure1, 128)
        with store.open_page_file(tmp_path) as page_file:
            assert page_file.num_pages == store.num_pages
            assert page_file.read_page(0) == store.pages[0]


class TestVertexColumnIsChecked:
    """A page image that decodes but names the wrong vertices is a torn
    page: ``GraphStore`` compares every decoded vertex column with the
    index, which is what the OPT driver's analytic record index and the
    chunk's CSR rely on."""

    @pytest.fixture()
    def store(self, small_rmat):
        return GraphStore.from_graph(small_rmat, 256)

    @staticmethod
    def _flip(store, pid, record, vertex):
        image = bytearray(store.pages[pid])
        (slot,) = struct.unpack_from("<H", image, len(image) - 2 * (record + 1))
        struct.pack_into("<I", image, slot, vertex)
        store.pages[pid] = bytes(image)

    @pytest.mark.parametrize("shift", [1000, -1, 1])
    def test_flipped_id_names_the_page(self, store, shift):
        pid = store.num_pages // 2
        vertex = int(store.page_first_vertex[pid]) + 1
        self._flip(store, pid, 1, vertex + shift)
        with pytest.raises(PageFormatError, match=f"page {pid} "):
            store.decode_page(pid)
        with pytest.raises(PageFormatError, match=f"page {pid} "):
            store.decode_pages([pid - 1, pid, pid + 1])
        assert len(store.decode_pages([pid - 1, pid + 1])) == 2
        # The layout itself is intact: the bare decoders take any vertices.
        block = PageBlock.from_bytes(store.pages[pid])
        assert block.vertices[1] == vertex + shift
        assert SlottedPage.from_bytes(store.pages[pid]).num_records == len(block)

    def test_a_page_short_of_a_record(self, store):
        """The right vertices, but not all of them."""
        pid = 3
        records = list(store.decode_page(pid))
        page = SlottedPage(store.page_size)
        for record in records[:-1]:
            page.add_record(record.vertex, record.neighbors,
                            is_last=record.is_last)
        store.pages[pid] = page.to_bytes()
        with pytest.raises(PageFormatError, match=f"page {pid} "):
            store.decode_pages(range(store.num_pages))

    @pytest.mark.parametrize("plugin", ["edge-iterator", "vertex-iterator",
                                        "mgt"])
    def test_engine_fails_typed_and_retries(self, store, plugin):
        """Used to surface as a bare ``ValueError`` from ``np.bincount`` —
        or, for an id inside the chunk, as a wrong answer."""
        pid = store.num_pages // 2
        self._flip(store, pid, 0, int(store.page_first_vertex[pid]) + 1000)
        with pytest.raises(PageFormatError, match=f"page {pid} "):
            triangulate_disk(store, plugin=plugin, buffer_pages=4)
        plan = FaultPlan([], seed=1)
        with pytest.raises(FaultExhaustedError) as failure:
            triangulate_disk(store, plugin=plugin, buffer_pages=4,
                             ctx=RunContext(
                                 fault_plan=plan,
                                 retry_policy=RetryPolicy(max_retries=2)))
        assert failure.value.pid == pid
        assert plan.log.counts() == {"retry": 2, "giveup": 1}

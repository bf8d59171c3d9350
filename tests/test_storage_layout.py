"""Tests for graph packing, the vertex index, and chunk alignment.

``PagePacker`` plans pages in arrays and writes them with one
``PageBlock.to_images`` call.  What it must reproduce is the greedy
record-at-a-time packer it replaced, which lives *here* as the reference
model (:func:`reference_pack`) together with that packer's own
``struct`` serializer (:func:`reference_image`), so the model shares no
code path with the writer it checks.  :data:`GOLDEN` pins the bytes of
two stores, so a layout drift fails even if the model drifted with it.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import make_store, triangulate_disk
from repro.errors import FaultExhaustedError, PageFormatError, StorageError
from repro.graph import generators
from repro.graph.builder import from_edges
from repro.graph.graph import Graph
from repro.obs import RunContext
from repro.storage import FaultPlan, PageBlock, RetryPolicy, SlottedPage
from repro.storage.layout import GraphStore, PagePacker
from repro.storage.page import PageRecord, row_stride, stack_images

# ---------------------------------------------------------------------------
# The record-at-a-time reference packer
# ---------------------------------------------------------------------------

INDEX_FIELDS = ("first_page", "last_page", "succ_first_page",
                "page_first_vertex", "page_last_vertex", "page_ends_complete")

#: sha256 of pages + index arrays of
#: ``make_store(holme_kim(2000, 16, 0.45, seed=3), page_size)``, taken
#: from the record-at-a-time packer.
GOLDEN = {
    64: "593c8e4641cb178c3f0f4c83994aa0312139bd6101f63fd0502fc185dd8e1268",
    4096: "adc585095005bbf7d4f277703761efbd88f09d57591b24b8c4858e5035c033d5",
}


def reference_image(records: list[PageRecord], page_size: int) -> bytes:
    """One page image, written a ``struct.pack_into`` per field."""
    buffer = bytearray(page_size)
    struct.pack_into("<H", buffer, 0, len(records))
    offset = 2
    for index, record in enumerate(records):
        struct.pack_into("<H", buffer, page_size - 2 * (index + 1), offset)
        struct.pack_into("<IHH", buffer, offset, record.vertex,
                         1 if record.is_last else 0, len(record.neighbors))
        offset += 8
        raw = np.asarray(record.neighbors).astype("<u4").tobytes()
        buffer[offset:offset + len(raw)] = raw
        offset += len(raw)
    return bytes(buffer)


def reference_pack(graph: Graph, page_size: int
                   ) -> tuple[GraphStore, list[list[PageRecord]]]:
    """The greedy packer, one record at a time: the store and each
    page's records.

    A list goes whole onto the open page while it fits; one that does
    not is cut there when the page has room for 8 or more of its
    neighbors, else moved to the next page.
    """
    page = SlottedPage(page_size)
    pages: list[list[PageRecord]] = []
    first_page: list[int] = []
    last_page: list[int] = []
    succ_first_page: list[int] = []

    def flush():
        nonlocal page
        if page.num_records:
            pages.append(page.records())
            page = SlottedPage(page_size)

    for v in range(graph.num_vertices):
        remaining = np.asarray(graph.neighbors(v), dtype=np.int64)
        first_page.append(len(pages))
        succ_first_page.append(-1)
        placed_any = False
        while True:
            capacity = page.max_neighbors_fitting()
            need_flush = (page.num_records > 0 and capacity < len(remaining)
                          and capacity < 8)
            if capacity < 0 or (len(remaining) and capacity == 0) or need_flush:
                if page.num_records == 0:
                    raise StorageError(
                        f"page size {page_size} cannot hold any chunk")
                flush()
                if not placed_any:
                    first_page[v] = len(pages)
                continue
            if len(remaining) <= capacity:
                page.add_record(v, remaining, is_last=True)
                placed_any = True
                if (len(remaining) and remaining[-1] > v
                        and succ_first_page[v] < 0):
                    succ_first_page[v] = len(pages)
                break
            chunk = remaining[:capacity]
            page.add_record(v, chunk, is_last=False)
            placed_any = True
            if len(chunk) and chunk[-1] > v and succ_first_page[v] < 0:
                succ_first_page[v] = len(pages)
            remaining = remaining[capacity:]
        last_page.append(len(pages))  # the page being filled
    flush()
    images = [reference_image(records, page_size) for records in pages]
    store = GraphStore(
        stack_images(images)[0] if images
        else np.zeros((0, row_stride(page_size)), dtype=np.uint8),
        page_size,
        graph.num_vertices,
        np.asarray(first_page, dtype=np.int64),
        np.asarray(last_page, dtype=np.int64),
        np.asarray([records[0].vertex for records in pages], dtype=np.int64),
        np.asarray([records[-1].vertex for records in pages], dtype=np.int64),
        np.asarray([records[-1].is_last for records in pages], dtype=bool),
        np.asarray(succ_first_page, dtype=np.int64),
    )
    return store, pages


def assert_same_store(got: GraphStore, want: GraphStore) -> None:
    """Pages byte for byte, and every index array by value and dtype."""
    assert got.page_size == want.page_size
    assert got.num_vertices == want.num_vertices
    assert got.rows.shape == want.rows.shape
    assert got.rows.tobytes() == want.rows.tobytes()
    for name in INDEX_FIELDS:
        ours, theirs = getattr(got, name), getattr(want, name)
        assert ours.dtype == theirs.dtype, name
        assert np.array_equal(ours, theirs), name


def digest(store: GraphStore) -> str:
    h = hashlib.sha256()
    for pid in range(store.num_pages):
        h.update(store.read_page(pid))
    for name in INDEX_FIELDS:
        array = getattr(store, name)
        h.update(array.dtype.str.encode())
        h.update(array.tobytes())
    return h.hexdigest()


def streamed(graph: Graph, page_size: int) -> GraphStore:
    """What ``preprocess/build.py`` does: one ``add_vertex`` per list."""
    packer = PagePacker(page_size)
    for v in range(graph.num_vertices):
        packer.add_vertex(v, graph.neighbors(v))
    return packer.finish()


def hub_graph(n: int, hub: int, spokes: int, isolated: int,
              edges: list[tuple[int, int]]) -> Graph:
    """*edges* among ``0..n-1``, vertex *hub* joined to *spokes* extra
    vertices after them, and *isolated* vertices at the end."""
    edges = [(u, v) for u, v in edges if u != v]
    edges += [(hub, n + leaf) for leaf in range(spokes)]
    return from_edges(edges, num_vertices=n + spokes + isolated)


PAGE_SIZES = [16, 17, 18, 31, 64, 100, 256, 4096]


@st.composite
def packable_graphs(draw) -> Graph:
    n = draw(st.integers(0, 40))
    if n == 0:
        return hub_graph(0, 0, 0, draw(st.integers(0, 3)), [])
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=150))
    spokes = draw(st.sampled_from([0, 0, 5, 40, 300]))
    return hub_graph(n, draw(vertex), spokes, draw(st.integers(0, 4)), edges)


class TestReferenceModel:
    """The array planner and batch writer against :func:`reference_pack`."""

    @pytest.mark.parametrize("page_size", PAGE_SIZES)
    @given(graph=packable_graphs())
    @example(graph=from_edges([], num_vertices=0))
    @example(graph=from_edges([], num_vertices=6))
    @settings(max_examples=15, deadline=None)
    def test_packer_is_the_reference(self, page_size, graph):
        want, _ = reference_pack(graph, page_size)
        store = GraphStore.from_graph(graph, page_size)
        assert_same_store(store, want)
        assert_same_store(streamed(graph, page_size), want)
        if store.num_pages:  # the writer inverts the parser on every page
            assert np.array_equal(PageBlock.to_images(
                *PageBlock.from_rows(store.rows, page_size), page_size),
                store.rows)

    @pytest.mark.parametrize("page_size", [31, 64, 4096])
    def test_a_hub_chained_over_many_pages(self, page_size):
        """3 000 neighbors chained over 3 to 750 pages, cut wherever the
        vertices before it leave the open page."""
        graph = hub_graph(60, 37, 3000, 3, [(u, (7 * u + 3) % 60)
                                            for u in range(60)])
        want, _ = reference_pack(graph, page_size)
        assert len(want.pages_of_vertex(37)) > 2
        assert_same_store(GraphStore.from_graph(graph, page_size), want)
        assert_same_store(streamed(graph, page_size), want)

    @pytest.mark.parametrize("page_size, problem", [
        (15, "page size 15 too small for any record"),
        (8, "page size 8 too small for any record"),
        (0x10000, "page size must fit u16 slot offsets"),
    ])
    def test_unusable_page_sizes_fail_as_before(self, page_size, problem):
        graph = generators.star_graph(5)
        for pack in (lambda: reference_pack(graph, page_size),
                     lambda: GraphStore.from_graph(graph, page_size),
                     lambda: PagePacker(page_size)):
            with pytest.raises(PageFormatError, match=problem):
                pack()

    @pytest.mark.parametrize("page_size", sorted(GOLDEN))
    def test_golden_digest(self, page_size):
        graph = generators.holme_kim(2000, 16, 0.45, seed=3)
        assert digest(make_store(graph, page_size)) == GOLDEN[page_size]


class TestStreamingPacker:
    """``add_vertex`` queues lists and writes every complete page once
    they exceed one; what it writes is ``from_graph``'s store."""

    @pytest.mark.parametrize("page_size", [16, 31, 64, 256])
    def test_hold_back_inside_a_chain(self, page_size):
        hub, degree = 5, 400
        graph = hub_graph(12, hub, degree - 1, 2, [(hub, 3)])
        packer = PagePacker(page_size)
        for v in range(hub + 1):
            packer.add_vertex(v, graph.neighbors(v))
        # The hub's chain is written but for its final chunk, which opens
        # the page still held back.
        assert packer._written
        assert 0 < len(packer._queue[0]) < degree
        for v in range(hub + 1, graph.num_vertices):
            packer.add_vertex(v, graph.neighbors(v))
        assert_same_store(packer.finish(), GraphStore.from_graph(graph, page_size))

    @pytest.mark.parametrize("neighbor", [-1, 2**32])
    def test_neighbor_ids_outside_u32_fail_typed(self, neighbor):
        packer = PagePacker(64)
        packer.add_vertex(0, np.array([1, neighbor]))
        with pytest.raises(PageFormatError, match="neighbor ids must fit u32"):
            packer.finish()

    def test_vertices_must_come_densely_in_order(self):
        packer = PagePacker(64)
        packer.add_vertex(0, np.array([1]))
        with pytest.raises(StorageError, match="expected 1, got 2"):
            packer.add_vertex(2, np.array([0]))


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
        assert loaded.rows.tobytes() == store.rows.tobytes()
        assert np.array_equal(loaded.first_page, store.first_page)
        assert np.array_equal(loaded.succ_first_page, store.succ_first_page)

    @pytest.mark.parametrize("page_size", [64, 67])
    def test_an_empty_store_round_trips(self, tmp_path, page_size):
        store = GraphStore.from_graph(from_edges([], num_vertices=0),
                                      page_size)
        store.save(tmp_path)
        loaded = GraphStore.load(tmp_path)
        assert loaded.num_pages == 0
        assert loaded.rows.shape == store.rows.shape

    def test_open_page_file(self, tmp_path, figure1):
        store = GraphStore.from_graph(figure1, 128)
        with store.open_page_file(tmp_path) as page_file:
            assert page_file.num_pages == store.num_pages
            assert page_file.read_page(0) == store.read_page(0)


def _resave_index(directory, change) -> None:
    """Rewrite the sidecar in *directory* with ``change(arrays)`` applied."""
    path = directory / "graph.idx.npz"
    with np.load(path) as index:
        arrays = {name: index[name] for name in index.files}
    change(arrays)
    np.savez(path, **arrays)


class TestSidecarIsChecked:
    """``GraphStore.load`` checks the index sidecar against the page file:
    one that belongs to another file used to load, and the engines then
    died on a bare ``IndexError`` deep inside a run."""

    @pytest.fixture()
    def saved(self, tmp_path, small_rmat):
        store = GraphStore.from_graph(small_rmat, 256)
        store.save(tmp_path)
        return tmp_path, store

    def test_dropped_page_entries_fail_at_load(self, saved):
        directory, _ = saved

        def drop(arrays):
            for name in ("page_first_vertex", "page_last_vertex",
                         "page_ends_complete"):
                arrays[name] = arrays[name][:-1]

        _resave_index(directory, drop)
        with pytest.raises(StorageError, match="page_first_vertex has shape"):
            triangulate_disk(GraphStore.load(directory), buffer_pages=8)

    @pytest.mark.parametrize("name, change, problem", [
        pytest.param("page_last_vertex", lambda a: a[:-1],
                     "page_last_vertex has shape", id="short-per-page"),
        pytest.param("page_ends_complete", lambda a: np.append(a, True),
                     "page_ends_complete has shape", id="long-per-page"),
        pytest.param("first_page", lambda a: a[1:], "first_page has shape",
                     id="short-per-vertex"),
        pytest.param("succ_first_page", lambda a: np.append(a, -1),
                     "succ_first_page has shape", id="long-per-vertex"),
        pytest.param("page_ends_complete", lambda a: np.append(a[:-1], False),
                     r"page_ends_complete\[-1\] is not set",
                     id="last-page-mid-list"),
        pytest.param("last_page", lambda a: a + 1,
                     r"last_page holds ids outside \[0, ", id="page-id-past-end"),
        pytest.param("first_page", lambda a: a - 1,
                     r"first_page holds ids outside \[0, ", id="page-id-negative"),
        pytest.param("succ_first_page", lambda a: a - 2,
                     r"succ_first_page holds ids outside \[-1, ",
                     id="successor-page-below-none"),
        pytest.param("page_first_vertex", lambda a: a + 10**6,
                     "page_first_vertex holds ids outside", id="vertex-id"),
        pytest.param("page_size", lambda a: a * 2,
                     "page_size 512 != the page file's 256", id="page-size"),
        pytest.param("num_vertices", lambda a: a + 1, "first_page has shape",
                     id="vertex-count"),
        pytest.param("last_page", None, "no last_page array", id="missing"),
    ])
    def test_a_sidecar_of_another_page_file_fails_typed(self, saved, name,
                                                        change, problem):
        directory, _ = saved

        def apply(arrays):
            if change is None:
                del arrays[name]
            else:
                arrays[name] = change(arrays[name])

        _resave_index(directory, apply)
        with pytest.raises(StorageError, match=problem):
            GraphStore.load(directory)

    def test_a_sidecar_without_successor_pages_still_loads(self, saved):
        directory, store = saved
        _resave_index(directory, lambda arrays: arrays.pop("succ_first_page"))
        loaded = GraphStore.load(directory)
        assert np.array_equal(loaded.succ_first_page, store.first_page)


class TestVertexColumnIsChecked:
    """A page image that decodes but names the wrong vertices is a torn
    page: ``GraphStore`` compares every decoded vertex column with the
    index, which is what the OPT driver's analytic record index and the
    chunk's CSR rely on."""

    @pytest.fixture()
    def store(self, small_rmat):
        return GraphStore.from_graph(small_rmat, 256)

    @staticmethod
    def _put(store, pid, image):
        """Page *pid* of *store* replaced with *image*."""
        rows = store.rows.copy()
        rows[pid, :len(image)] = np.frombuffer(image, dtype=np.uint8)
        rows.setflags(write=False)
        store.rows = rows

    @classmethod
    def _flip(cls, store, pid, record, vertex):
        image = bytearray(store.read_page(pid))
        (slot,) = struct.unpack_from("<H", image, len(image) - 2 * (record + 1))
        struct.pack_into("<I", image, slot, vertex)
        cls._put(store, pid, bytes(image))

    @pytest.mark.parametrize("shift", [1000, -1, 1])
    def test_flipped_id_names_the_page(self, store, shift):
        pid = store.num_pages // 2
        vertex = int(store.page_first_vertex[pid]) + 1
        self._flip(store, pid, 1, vertex + shift)
        with pytest.raises(PageFormatError, match=f"page {pid} "):
            store.decode_page(pid)
        with pytest.raises(PageFormatError, match=f"page {pid} "):
            window = [pid - 1, pid, pid + 1]
            store.decode_rows(window, store.rows[window])
        window = [pid - 1, pid + 1]
        assert len(store.decode_rows(window, store.rows[window])[1]) == 3
        # The layout itself is intact: the bare decoders take any vertices.
        block = PageBlock.from_bytes(store.read_page(pid))
        assert block.vertices[1] == vertex + shift
        assert SlottedPage.from_bytes(store.read_page(pid)).num_records == len(block)

    def test_a_page_short_of_a_record(self, store):
        """The right vertices, but not all of them."""
        pid = 3
        records = list(store.decode_page(pid))
        page = SlottedPage(store.page_size)
        for record in records[:-1]:
            page.add_record(record.vertex, record.neighbors,
                            is_last=record.is_last)
        self._put(store, pid, page.to_bytes())
        with pytest.raises(PageFormatError, match=f"page {pid} "):
            store.decode_rows(range(store.num_pages), store.rows)

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

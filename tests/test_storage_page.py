"""Tests for slotted pages and page files."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    FaultExhaustedError,
    PageFormatError,
    PageFullError,
    StorageError,
)
from repro.obs import MetricsRegistry
from repro.storage import GraphStore, RetryPolicy, corrupt_page_bytes
from repro.storage.faults import read_with_retry
from repro.storage.page import (
    DEFAULT_PAGE_SIZE,
    PageBlock,
    SlottedPage,
    record_capacity,
    stack_images,
)
from repro.storage.pagefile import PageFile
from tests import zoo
from tests.test_storage_layout import reference_image


class TestSlottedPage:
    def test_empty_round_trip(self):
        page = SlottedPage(256)
        decoded = SlottedPage.from_bytes(page.to_bytes())
        assert decoded.num_records == 0

    def test_single_record_round_trip(self):
        page = SlottedPage(256)
        page.add_record(7, np.array([1, 2, 9]), is_last=True)
        decoded = SlottedPage.from_bytes(page.to_bytes())
        records = decoded.records()
        assert len(records) == 1
        assert records[0].vertex == 7
        assert records[0].neighbors.tolist() == [1, 2, 9]
        assert records[0].is_last

    def test_continuation_flag_round_trip(self):
        page = SlottedPage(256)
        page.add_record(3, np.array([4, 5]), is_last=False)
        decoded = SlottedPage.from_bytes(page.to_bytes())
        assert not decoded.records()[0].is_last

    def test_page_full(self):
        page = SlottedPage(64)
        page.add_record(0, np.arange(1, record_capacity(64) + 1))
        with pytest.raises(PageFullError):
            page.add_record(1, np.array([2]))

    def test_serialized_size_exact(self):
        page = SlottedPage(512)
        page.add_record(0, np.array([1]))
        assert len(page.to_bytes()) == 512

    def test_rejects_too_small_page(self):
        with pytest.raises(PageFormatError):
            SlottedPage(8)

    def test_rejects_huge_neighbor_ids(self):
        page = SlottedPage(256)
        with pytest.raises(PageFormatError):
            page.add_record(0, np.array([2**33]))

    @pytest.mark.parametrize("vertex", [-1, 2**32])
    def test_rejects_vertex_ids_outside_u32(self, vertex):
        """Used to be accepted, and ``to_bytes`` then raised a bare
        ``struct.error``."""
        page = SlottedPage(64)
        with pytest.raises(PageFormatError, match="vertex ids must fit u32"):
            page.add_record(vertex, np.array([1, 2]))
        assert page.num_records == 0
        page.add_record(2**32 - 1, np.array([1, 2]))
        assert PageBlock.from_bytes(page.to_bytes()).vertices.tolist() == [
            2**32 - 1]

    def test_empty_neighbor_record(self):
        page = SlottedPage(256)
        page.add_record(5, np.array([], dtype=np.int64))
        decoded = SlottedPage.from_bytes(page.to_bytes())
        assert decoded.records()[0].vertex == 5
        assert len(decoded.records()[0].neighbors) == 0

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 1000),
                st.lists(st.integers(0, 100000), max_size=8),
                st.booleans(),
            ),
            max_size=10,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, specs):
        page = SlottedPage(DEFAULT_PAGE_SIZE)
        for vertex, neighbors, is_last in specs:
            page.add_record(vertex, np.array(sorted(set(neighbors)), dtype=np.int64),
                            is_last=is_last)
        decoded = SlottedPage.from_bytes(page.to_bytes())
        assert decoded.num_records == len(specs)
        for record, (vertex, neighbors, is_last) in zip(decoded.records(), specs):
            assert record.vertex == vertex
            assert record.neighbors.tolist() == sorted(set(neighbors))
            assert record.is_last == is_last

    def test_capacity_matches_fits(self):
        page = SlottedPage(128)
        cap = page.max_neighbors_fitting()
        assert page.fits(cap)
        assert not page.fits(cap + 1)


class TestPageFile:
    def test_round_trip(self, tmp_path):
        pages = [bytes([i]) * 128 for i in range(5)]
        path = tmp_path / "data.pages"
        with PageFile.create(path, stack_images(pages)[0], 128) as page_file:
            assert page_file.num_pages == 5
            for pid in range(5):
                assert page_file.read_page(pid) == pages[pid]

    @pytest.mark.parametrize("page_size", [64, 67])
    def test_rows_round_trip_in_one_read(self, tmp_path, page_size):
        pages = [bytes([i + 1]) * page_size for i in range(4)]
        rows = stack_images(pages)[0]
        with PageFile.create(tmp_path / "rows.pages", rows, page_size
                             ) as page_file:
            assert page_file.read_rows().tobytes() == rows.tobytes()
        assert (tmp_path / "rows.pages").stat().st_size == 16 + 4 * page_size

    def test_out_of_range(self, tmp_path):
        path = tmp_path / "d.pages"
        with PageFile.create(path, stack_images([b"x" * 64])[0], 64
                             ) as page_file:
            with pytest.raises(StorageError):
                page_file.read_page(1)
            with pytest.raises(StorageError):
                page_file.read_page(-1)

    def test_wrong_page_size_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            PageFile.create(tmp_path / "bad.pages",
                            np.zeros((1, 2), dtype=np.uint8), 64)

    def test_corrupt_header_rejected(self, tmp_path):
        path = tmp_path / "c.pages"
        path.write_bytes(b"NOPE" + b"\x00" * 100)
        with pytest.raises(StorageError):
            PageFile.open(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "t.pages"
        PageFile.create(path, stack_images([b"y" * 64] * 3)[0], 64).close()
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.raises(StorageError):
            PageFile.open(path)

    def test_read_after_close(self, tmp_path):
        path = tmp_path / "r.pages"
        page_file = PageFile.create(path, stack_images([b"z" * 64])[0], 64)
        page_file.close()
        with pytest.raises(StorageError):
            page_file.read_page(0)


# ---------------------------------------------------------------------------
# The batch decoder: PageBlock.from_images, of which from_bytes is one image
# ---------------------------------------------------------------------------

_FIELDS = ("vertices", "offsets", "neighbors", "last")


def _same_block(got: PageBlock, want: PageBlock) -> None:
    for name in _FIELDS:
        ours, theirs = getattr(got, name), getattr(want, name)
        assert ours.dtype == theirs.dtype, name
        assert np.array_equal(ours, theirs), name


@pytest.fixture(scope="module", params=[64, 67, 256, 4096])
def packed(request, seeded_graph):
    """A store's page images: tiny, odd-sized, small and benchmark pages."""
    graph = seeded_graph("holme_kim", 300, 6, 0.5, seed=4)
    store = GraphStore.from_graph(graph, request.param)
    return [store.read_page(pid) for pid in range(store.num_pages)]


class TestBatchDecode:
    def test_batch_is_the_single_decodes(self, packed):
        singles = [PageBlock.from_bytes(image) for image in packed]
        for width in (1, 2, 5, len(packed)):
            for start in range(0, len(packed), width):
                block, cuts = PageBlock.from_images(
                    packed[start:start + width])
                pages = block.split(cuts)
                for page, single in zip(pages, singles[start:start + width],
                                        strict=True):
                    _same_block(page, single)
                _same_block(PageBlock.concat(pages), block)

    def test_empty_pages_in_a_batch(self):
        empty = SlottedPage(64).to_bytes()
        full = SlottedPage(64)
        full.add_record(7, np.array([1, 2, 9]))
        block, cuts = PageBlock.from_images(
            [empty, full.to_bytes(), empty, empty])
        assert cuts.tolist() == [0, 0, 1, 1, 1]
        assert [len(page) for page in block.split(cuts)] == [0, 1, 0, 0]
        assert block.vertices.tolist() == [7]
        assert block.neighbors.tolist() == [1, 2, 9]

    @pytest.mark.parametrize("defect", [
        "past page end", "misaligned", "predecessor", "truncated",
        "do not fit", "scrambled directory",
    ])
    def test_a_bad_image_fails_the_batch_as_it_fails_alone(self, defect):
        pages = []
        for base in range(0, 12, 2):
            page = SlottedPage(64)
            page.add_record(base, np.array([base + 1, base + 5]))
            page.add_record(base + 1, np.array([base]), is_last=False)
            pages.append(page.to_bytes())
        image = bytearray(pages[3])
        if defect == "past page end":
            image[62:64] = (60).to_bytes(2, "little")  # slot 0
        elif defect == "misaligned":
            image[60:62] = (19).to_bytes(2, "little")  # slot 1
        elif defect == "predecessor":
            image[60:62] = (22).to_bytes(2, "little")
        elif defect == "truncated":
            image[18 + 6:18 + 8] = (200).to_bytes(2, "little")
        elif defect == "do not fit":
            image[0:2] = (40).to_bytes(2, "little")
        else:
            image = bytearray(corrupt_page_bytes(bytes(image), seed=1))
        with pytest.raises(PageFormatError) as alone:
            PageBlock.from_bytes(bytes(image))
        if defect not in ("scrambled directory",):
            assert defect in str(alone.value)
        for at in (0, 3, 5):
            batch = [page for page in pages if page is not pages[3]]
            batch.insert(at, bytes(image))
            with pytest.raises(PageFormatError) as batched:
                PageBlock.from_images(batch)
            assert str(batched.value) == str(alone.value)

    @pytest.mark.parametrize("image", [b"", b"\x01"])
    def test_an_image_too_short_for_a_header(self, image):
        """Used to escape as ``struct.error``, which no retry loop catches."""
        with pytest.raises(PageFormatError, match="no page header"):
            PageBlock.from_bytes(image)
        with pytest.raises(PageFormatError):
            SlottedPage.from_bytes(image)

    def test_images_of_differing_sizes(self):
        page = SlottedPage(64).to_bytes()
        with pytest.raises(PageFormatError, match="one size"):
            PageBlock.from_images([page, page + bytes(64), page])
        with pytest.raises(PageFormatError, match="one size"):
            PageBlock.from_images([page, b""])

    def test_a_short_read_is_retried_like_a_torn_page(self, tmp_path):
        """The one retry loop retries ``PageFormatError`` only: a read
        that comes back empty must be one."""
        store = GraphStore.from_graph(zoo.build("dup-edges"), 64)

        class ShortReads:
            """The page file, its first *short* reads returning nothing."""

            def __init__(self, inner, short):
                self._inner, self.short = inner, short

            def read_page(self, pid):
                self.short -= 1
                return b"" if self.short >= 0 else self._inner.read_page(pid)

        def read(pages):
            registry = MetricsRegistry()
            block = read_with_retry(pages, 0, store.decode_images, policy,
                                    registry.counter("recovery.retries"),
                                    registry.counter("recovery.giveups"))
            return block, registry.value("recovery.retries")

        policy = RetryPolicy(max_retries=2, backoff_base=1e-6)
        with store.open_page_file(tmp_path) as handle:
            block, retries = read(ShortReads(handle, 2))
            assert block.vertices.tolist() == [0, 1, 2]
            assert retries == 2
            with pytest.raises(FaultExhaustedError):
                read(ShortReads(handle, 3))


# ---------------------------------------------------------------------------
# Rows: the checked decoder over a store's rows or a buffer pool's frames
# ---------------------------------------------------------------------------

#: Every page size the suite packs stores with, multiples of 4 or not.
ROW_PAGE_SIZES = [16, 17, 18, 31, 64, 67, 100, 256, 4096]


@pytest.fixture(scope="module")
def row_stores(seeded_graph):
    graph = seeded_graph("holme_kim", 300, 6, 0.5, seed=4)
    return {size: GraphStore.from_graph(graph, size) for size in ROW_PAGE_SIZES}


def _bad_row(store: GraphStore, pid: int, defect: str) -> np.ndarray:
    """Page *pid*'s row with one defect: its slot directory scrambled, its
    last record running into the directory, or another page's bytes."""
    row = store.rows[pid].copy()
    size = store.page_size
    if defect == "torn":
        row[:size] = np.frombuffer(corrupt_page_bytes(
            store.read_page(pid), seed=pid), dtype=np.uint8)
    elif defect == "truncated":
        count = int(row[:2].view("<u2")[0])
        slot = int(row[size - 2 * count:size - 2 * count + 2].view("<u2")[0])
        row[slot + 6:slot + 8] = np.frombuffer(
            (size // 4).to_bytes(2, "little"), dtype=np.uint8)
    else:  # misdirected: the bytes of a page further on
        row = store.rows[pid + 9].copy()
    return row


class TestRowDecode:
    """``GraphStore.decode_rows`` / ``PageBlock.from_rows``, which every
    OPT window and every ``ThreadedSSD`` read goes through."""

    @given(data=st.data(), page_size=st.sampled_from(ROW_PAGE_SIZES))
    @settings(max_examples=60, deadline=None)
    def test_any_rows_decode_as_their_pages(self, row_stores, data, page_size):
        """Any pages, in any order, repeated or alone: one decode of their
        rows is the per-page decodes one after another."""
        store = row_stores[page_size]
        pids = data.draw(st.lists(st.integers(0, store.num_pages - 1),
                                  min_size=1, max_size=16))
        singles = [store.decode_page(pid) for pid in pids]
        # The rows as a pool holds them: copies, scattered over its rows.
        pool = np.zeros((2 * len(pids), store.rows.shape[1]), dtype=np.uint8)
        slots = data.draw(st.permutations(range(len(pool))))[:len(pids)]
        pool[slots] = store.rows[pids]
        for block, cuts in (store.decode_rows(pids, pool[slots]),
                            store.decode_rows(pids, store.rows[pids])):
            assert cuts.tolist() == [0, *np.cumsum(
                [len(single) for single in singles]).tolist()]
            _same_block(block, PageBlock.concat(singles))
            for page, single in zip(block.split(cuts), singles, strict=True):
                _same_block(page, single)

    @pytest.mark.parametrize("at", [0, 3, 6])
    @pytest.mark.parametrize("defect", ["torn", "truncated", "misdirected"])
    def test_a_bad_row_fails_the_window_as_it_fails_alone(self, row_stores,
                                                         defect, at):
        store = row_stores[64]
        pids = list(range(40, 47))
        bad = _bad_row(store, pids[at], defect)
        with pytest.raises(PageFormatError) as alone:
            store.decode_rows([pids[at]], bad[None])
        if defect == "truncated":
            assert "truncated" in str(alone.value)
        if defect == "misdirected":
            assert f"page {pids[at]} " in str(alone.value)
        rows = store.rows[pids]
        rows[at] = bad
        with pytest.raises(PageFormatError) as window:
            store.decode_rows(pids, rows)
        assert str(window.value) == str(alone.value)
        images = [row[:64].tobytes() for row in rows]
        with pytest.raises(PageFormatError) as stacked:
            store.decode_images(pids, images)
        assert str(stacked.value) == str(alone.value)

    def test_an_image_of_another_size_is_torn(self, row_stores):
        store = row_stores[64]
        with pytest.raises(PageFormatError, match="no page of 64 bytes"):
            store.decode_images([0], [store.read_page(0)[:60]])

    def test_threads_decode_rows_at_once(self, row_stores):
        """ThreadedSSD's readers decode concurrently: the parser keeps no
        state between calls.  More threads than cores, switching often."""
        store = row_stores[67]
        windows = [list(range(start, start + 5))
                   for start in range(0, store.num_pages - 5, 3)]
        want = [store.decode_rows(pids, store.rows[pids]) for pids in windows]
        start = threading.Barrier(4)
        failures, done = [], []

        def decode_all(offset):
            start.wait(timeout=30)
            try:
                for index in range(len(windows)):
                    at = (index + offset) % len(windows)
                    block, cuts = store.decode_rows(
                        windows[at], store.rows[windows[at]])
                    _same_block(block, want[at][0])
                    assert np.array_equal(cuts, want[at][1])
            except AssertionError as failure:  # pragma: no cover - a bug
                failures.append(failure)
            done.append(offset)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=decode_all, args=(7 * offset,))
                       for offset in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        assert sorted(done) == [0, 7, 14, 21]


# ---------------------------------------------------------------------------
# The batch writer: PageBlock.to_images, of which to_bytes is one image
# ---------------------------------------------------------------------------


def _paged(pages: list[list]) -> tuple[PageBlock, list[int]]:
    """Records given page by page as one block and its cuts."""
    records = [record for page in pages for record in page]
    lengths = [len(record) for record in records]
    block = PageBlock(
        np.array([record.vertex for record in records], dtype=np.int64),
        np.array([0, *np.cumsum(lengths, dtype=np.int64)], dtype=np.int64),
        np.array([w for record in records for w in record.neighbors.tolist()],
                 dtype=np.int64),
        np.array([record.is_last for record in records], dtype=bool))
    return block, [0, *np.cumsum([len(page) for page in pages]).tolist()]


def _one_page(records, page_size: int) -> SlottedPage:
    page = SlottedPage(page_size)
    for record in records:
        page.add_record(record.vertex, record.neighbors, is_last=record.is_last)
    return page


@st.composite
def paged_records(draw):
    """A page size and pages of records that fit it, ids anywhere in u32."""
    page_size = draw(st.sampled_from([16, 17, 18, 31, 64, 100, 256]))
    u32 = st.integers(0, 2**32 - 1)
    pages = []
    for specs in draw(st.lists(st.lists(
            st.tuples(u32, st.lists(u32, max_size=20), st.booleans()),
            max_size=6), max_size=5)):
        page = SlottedPage(page_size)
        for vertex, neighbors, is_last in specs:
            if page.fits(len(neighbors)):
                page.add_record(vertex, np.array(neighbors, dtype=np.int64),
                                is_last=is_last)
        pages.append(page.records())
    return page_size, pages


class TestBatchWrite:
    @given(paged_records())
    @settings(max_examples=80, deadline=None)
    def test_the_parser_inverts_the_writer(self, case):
        page_size, pages = case
        block, cuts = _paged(pages)
        rows = PageBlock.to_images(block, cuts, page_size)
        assert rows.shape == (len(pages), page_size + -page_size % 4)
        assert not rows[:, page_size:].any()  # zero padding
        images = [row[:page_size].tobytes() for row in rows]
        # Byte for byte what a struct.pack_into per field writes.
        assert images == [reference_image(page, page_size) for page in pages]
        assert images == [_one_page(page, page_size).to_bytes()
                          for page in pages]
        if images:
            parsed, parsed_cuts = PageBlock.from_rows(rows, page_size)
            _same_block(parsed, block)
            assert parsed_cuts.tolist() == cuts

    @pytest.mark.parametrize("page_size", [16, 17, 64, 67, 256, 4096])
    @pytest.mark.parametrize("name", zoo.zoo_names())
    def test_the_writer_inverts_the_parser(self, graph_zoo, name, page_size):
        """Every page of the zoo's stores, re-encoded from its parse."""
        store = GraphStore.from_graph(graph_zoo(name), page_size)
        if store.num_pages:
            assert np.array_equal(PageBlock.to_images(
                *PageBlock.from_rows(store.rows, page_size), page_size),
                store.rows)

    def test_the_packed_stores_round_trip(self, packed):
        rows, page_size = stack_images(packed)
        assert np.array_equal(PageBlock.to_images(
            *PageBlock.from_images(packed), page_size), rows)

    @pytest.mark.parametrize("column, value, problem", [
        ("vertices", -1, "vertex ids must fit u32"),
        ("vertices", 2**32, "vertex ids must fit u32"),
        ("neighbors", -1, "neighbor ids must fit u32"),
        ("neighbors", 2**32, "neighbor ids must fit u32"),
    ])
    def test_ids_outside_u32_fail_typed(self, column, value, problem):
        page = SlottedPage(64)
        page.add_record(3, np.array([4, 9]))
        block, cuts = _paged([page.records()])
        getattr(block, column)[0] = value
        with pytest.raises(PageFormatError, match=problem):
            PageBlock.to_images(block, cuts, 64)

    def test_records_that_overflow_a_page_fail_typed(self):
        page = SlottedPage(64)
        page.add_record(0, np.arange(1, 9))
        block, _ = _paged([page.records(), page.records()])
        with pytest.raises(PageFormatError, match="page 0 do not fit"):
            PageBlock.to_images(block, [0, 2], 64)
        assert len(PageBlock.to_images(block, [0, 1, 2], 64)) == 2

    def test_a_chunk_longer_than_a_u16_count(self):
        block = PageBlock(np.array([0]), np.array([0, 0x10000]),
                          np.zeros(0x10000, dtype=np.int64),
                          np.array([True]))
        with pytest.raises(PageFormatError, match="u16 neighbor count"):
            PageBlock.to_images(block, [0, 1], 0xFFFF)

    def test_no_pages(self):
        block, cuts = _paged([])
        assert PageBlock.to_images(block, cuts, 64).shape == (0, 64)

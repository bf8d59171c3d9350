"""Tests for slotted pages and page files."""

from __future__ import annotations

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
from repro.storage import GraphStore, RetryPolicy, SyncDevice, corrupt_page_bytes
from repro.storage.page import (
    DEFAULT_PAGE_SIZE,
    PageBlock,
    SlottedPage,
    record_capacity,
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
        with PageFile.create(path, pages, 128) as page_file:
            assert page_file.num_pages == 5
            for pid in range(5):
                assert page_file.read_page(pid) == pages[pid]

    def test_out_of_range(self, tmp_path):
        path = tmp_path / "d.pages"
        with PageFile.create(path, [b"x" * 64], 64) as page_file:
            with pytest.raises(StorageError):
                page_file.read_page(1)
            with pytest.raises(StorageError):
                page_file.read_page(-1)

    def test_wrong_page_size_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            PageFile.create(tmp_path / "bad.pages", [b"xx"], 64)

    def test_corrupt_header_rejected(self, tmp_path):
        path = tmp_path / "c.pages"
        path.write_bytes(b"NOPE" + b"\x00" * 100)
        with pytest.raises(StorageError):
            PageFile.open(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "t.pages"
        PageFile.create(path, [b"y" * 64] * 3, 64).close()
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.raises(StorageError):
            PageFile.open(path)

    def test_read_after_close(self, tmp_path):
        path = tmp_path / "r.pages"
        page_file = PageFile.create(path, [b"z" * 64], 64)
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
    return GraphStore.from_graph(graph, request.param).pages


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
        assert cuts == [0, 0, 1, 1, 1]
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
        """``SyncDevice`` / ``ThreadedSSD`` retry ``PageFormatError`` only:
        a read that comes back empty must be one."""
        page = SlottedPage(64)
        page.add_record(0, np.array([1]))
        path = tmp_path / "short.pages"

        class ShortReads:
            """The page file, its first *short* reads returning nothing."""

            def __init__(self, inner, short):
                self._inner, self.short = inner, short
                self.page_size, self.num_pages = inner.page_size, 1

            def read_page(self, pid):
                self.short -= 1
                return b"" if self.short >= 0 else self._inner.read_page(pid)

        policy = RetryPolicy(max_retries=2, backoff_base=1e-6)
        with PageFile.create(path, [page.to_bytes()], 64) as handle:
            device = SyncDevice(ShortReads(handle, 2), retry_policy=policy)
            assert device.read_page(0).vertices.tolist() == [0]
            assert device.registry.value("recovery.retries") == 2
            device = SyncDevice(ShortReads(handle, 3), retry_policy=policy)
            with pytest.raises(FaultExhaustedError):
                device.read_page(0)


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
        images = PageBlock.to_images(block, cuts, page_size)
        # Byte for byte what a struct.pack_into per field writes.
        assert images == [reference_image(page, page_size) for page in pages]
        assert images == [_one_page(page, page_size).to_bytes()
                          for page in pages]
        if images:
            parsed, parsed_cuts = PageBlock.from_images(images)
            _same_block(parsed, block)
            assert parsed_cuts == cuts

    @pytest.mark.parametrize("page_size", [16, 17, 64, 67, 256, 4096])
    @pytest.mark.parametrize("name", zoo.zoo_names())
    def test_the_writer_inverts_the_parser(self, graph_zoo, name, page_size):
        """Every page of the zoo's stores, re-encoded from its parse."""
        store = GraphStore.from_graph(graph_zoo(name), page_size)
        if store.pages:
            assert PageBlock.to_images(*PageBlock.from_images(store.pages),
                                       page_size) == store.pages

    def test_the_packed_stores_round_trip(self, packed):
        assert PageBlock.to_images(*PageBlock.from_images(packed),
                                   len(packed[0])) == packed

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
        assert PageBlock.to_images(block, cuts, 64) == []

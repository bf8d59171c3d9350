"""Slotted pages holding adjacency-list records.

The paper stores ``(v, n(v))`` pairs in the slotted page structure familiar
from database systems; adjacency lists larger than a page span a chain of
continuation records across consecutive pages (Section 3.2, "Graph
Representation in Disk").

Binary layout of one page (little endian, ``page_size`` bytes):

========  =====================================================
offset    content
========  =====================================================
0..1      ``u16`` record count
2..       records, packed consecutively
tail      slot directory: ``u16`` offset per record, growing
          backwards from the end of the page
========  =====================================================

Record layout: ``u32 vertex | u16 flags | u16 neighbor count | u32 * count
neighbors``.  Flag bit 0 marks the *last* chunk of a vertex's adjacency
list; a vertex whose list spans pages has every chunk except the final one
with the bit clear.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.errors import PageFormatError, PageFullError
from repro.util import ragged

__all__ = ["DEFAULT_PAGE_SIZE", "PAGE_HEADER", "RECORD_OVERHEAD", "PageBlock",
           "PageRecord", "SlottedPage", "check_page_size",
           "record_capacity", "row_stride", "stack_images"]

DEFAULT_PAGE_SIZE = 4096

_HEADER = struct.Struct("<H")
_SLOT = struct.Struct("<H")
_RECORD_HEADER = struct.Struct("<IHH")
_FLAG_LAST = 0x1

#: Bytes of a page before its records (the record count), and bytes a
#: record takes besides its neighbors (its header and its slot).
PAGE_HEADER = _HEADER.size
RECORD_OVERHEAD = _RECORD_HEADER.size + _SLOT.size


@dataclass(frozen=True)
class PageRecord:
    """One adjacency-list chunk: ``vertex``'s neighbors, sorted ascending."""

    vertex: int
    neighbors: np.ndarray
    is_last: bool

    def __len__(self) -> int:
        return len(self.neighbors)


class PageBlock:
    """The records of one decoded page — or of several, one page after
    another — in columnar form; iterates as :class:`PageRecord`.

    Record ``i`` is ``vertices[i]`` with neighbors
    ``neighbors[offsets[i]:offsets[i + 1]]`` (``int64``, ascending) and
    ``last[i]`` set on the final chunk of its adjacency list.
    """

    __slots__ = ("vertices", "offsets", "neighbors", "last")

    def __init__(self, vertices: np.ndarray, offsets: np.ndarray,
                 neighbors: np.ndarray, last: np.ndarray):
        self.vertices = vertices
        self.offsets = offsets
        self.neighbors = neighbors
        self.last = last

    def __len__(self) -> int:
        return len(self.vertices)

    @property
    def lengths(self) -> np.ndarray:
        """Neighbor count of every record."""
        return self.offsets[1:] - self.offsets[:-1]

    def __iter__(self) -> Iterator[PageRecord]:
        bounds = self.offsets.tolist()
        return (
            PageRecord(vertex, self.neighbors[begin:end], is_last)
            for vertex, begin, end, is_last in zip(
                self.vertices.tolist(), bounds, bounds[1:], self.last.tolist()))

    @classmethod
    def from_bytes(cls, data: bytes) -> "PageBlock":
        """Decode one page image: :meth:`from_images` of a single image."""
        return cls.from_images((data,))[0]

    @classmethod
    def from_images(cls, images: Sequence[bytes]
                    ) -> tuple["PageBlock", np.ndarray]:
        """Decode page images of one size: :meth:`from_rows` of the images
        stacked (:func:`stack_images`), the image size as the page size."""
        return cls.from_rows(*stack_images(images))

    @classmethod
    def from_rows(cls, rows: np.ndarray, page_size: int
                  ) -> tuple["PageBlock", np.ndarray]:
        """Decode the pages in the rows of *rows*: the only parser of the
        page layout.

        *rows* is a ``(k, stride)`` ``uint8`` array, page
        *j* the first *page_size* bytes of row *j* and *stride* the page
        size rounded up to a whole ``u32`` (:func:`row_stride`) — a
        store's pages, a buffer pool's frames.  Returns the records of
        all pages, in row order, as one block, and its ``int64`` cuts —
        page *j* holds records ``cuts[j]:cuts[j + 1]``.  One ``<u4`` view
        at offset 2 covers every record header and neighbor word of every
        row and one ``<u2`` view every slot directory, so the work is a
        constant number of array operations whatever *k* is.  A page
        :meth:`to_images` cannot have written — or a page size too small
        for a header — raises :class:`PageFormatError`, the one the
        first such page raises when decoded alone.
        """
        if page_size < _HEADER.size:
            raise PageFormatError(f"a {page_size}-byte image has no page header")
        pages, stride = rows.shape
        row = stride // 4  # words from one page to the next
        flat = rows.reshape(-1)
        counts = flat.view("<u2")[::stride // 2]
        cuts = ragged.from_lengths(counts)
        fullest = int(counts.max(initial=0))
        if fullest and (page_size - _SLOT.size * fullest
                        < _HEADER.size + _RECORD_HEADER.size):
            raise cls._defect(rows, page_size, f"{fullest} records do not "
                                               f"fit a {page_size}-byte page")
        # Record r of a page has its slot 2 * (r + 1) bytes before the
        # page's end: all slots sit at the parity of the page size, so
        # one <u2 view reaches them.
        odd = page_size & 1
        halves = flat[odd:len(flat) - odd].view("<u2")
        top = (page_size - odd) // 2 - 1  # record 0's slot on page 0
        # Word w of page j is words[j * row + w]: every record header
        # and neighbor word, widened once.
        words = flat[_HEADER.size:_HEADER.size + 4 * (len(flat) // 4 - 1)
                     ].view("<u4").astype(np.int64)
        if pages > 1:
            page = np.arange(pages).repeat(counts)
            slots = halves.take((stride // 2 * page + cuts[page] + top)
                                - np.arange(cuts[-1]))
        else:  # a lone page is the batch: no page to add
            slots = halves[top + 1 - fullest:top + 1][::-1]
        slots = slots.astype(np.int64)
        # Word index of each record's vertex id.
        heads = slots >> 2
        if pages > 1:
            heads += row * page
        seconds = heads + 1
        # The header's second word, flags | count << 16; clipped, so a
        # wild slot is still there to be reported below.
        packed = words.take(seconds, mode="clip")
        lengths = packed >> 16
        # ends[i]: the words that records 0..i-1 of the batch occupy.
        ends = ragged.from_lengths(lengths + 2)
        marks = ends[cuts]
        used = marks[1:] - marks[:-1]  # words in use on each page
        starts = 4 * ends[:-1] + _HEADER.size
        if pages > 1:
            starts -= 4 * marks[page]
        # Every record starts where its predecessor ends, the first at
        # byte 2, and the last ends before the directory (4 * used + 2 *
        # count bytes within page_size - 2, halved): then all of them are
        # word-aligned and in bounds, and no read was clipped.
        if np.count_nonzero(slots != starts) or np.count_nonzero(
                2 * used + counts > (page_size - _HEADER.size) // 2):
            raise cls._defect(rows, page_size,
                              _slot_defect(slots, starts, page_size))
        # The neighbors are the words in use that are no record header
        # (a row has fewer than 2**16 words: compared as u16, it is one
        # vector pass).
        payload = (np.arange(row, dtype=np.uint16)
                   < used.astype(np.uint16)[:, None]).reshape(-1)[:-1]
        payload[heads] = payload[seconds] = False
        return cls(words[heads], ragged.from_lengths(lengths),
                   words[payload], (packed & _FLAG_LAST).astype(bool)), cuts

    @staticmethod
    def to_images(block: "PageBlock", cuts: Sequence[int],
                  page_size: int) -> np.ndarray:
        """Encode *block* as page images: the only writer of the page layout.

        The inverse of :meth:`from_rows`: returns one zeroed ``(pages,
        stride)`` ``uint8`` array (:func:`row_stride`) whose row *j* holds
        records ``cuts[j]:cuts[j + 1]`` of *block*, in order, in its
        first *page_size* bytes.  Rows are a whole number of ``u32``
        words apart, so one ``<u4`` view at offset 2 takes every record
        header and neighbor word of every page, and ``<u2`` views every
        record count and slot directory, each in one fancy assignment.  A
        vertex or neighbor id that is no ``u32``, a record longer than a
        ``u16`` count, or a page whose records do not fit raises
        :class:`PageFormatError`.
        """
        check_page_size(page_size)
        vertices, neighbors = block.vertices, block.neighbors
        lengths = block.lengths
        if len(vertices) and (vertices.min() < 0 or vertices.max() > 0xFFFFFFFF):
            raise PageFormatError("vertex ids must fit u32")
        if len(neighbors) and (neighbors.min() < 0 or neighbors.max() > 0xFFFFFFFF):
            raise PageFormatError("neighbor ids must fit u32")
        if len(lengths) and lengths.max() > 0xFFFF:
            raise PageFormatError("record chunk exceeds u16 neighbor count")
        cuts = np.asarray(cuts, dtype=np.int64)
        pages = max(len(cuts) - 1, 0)
        stride = row_stride(page_size)
        buffer = np.zeros(pages * stride, dtype=np.uint8)
        if not pages:
            return buffer.reshape(0, stride)
        row = stride // 4  # words from one page to the next
        counts = cuts[1:] - cuts[:-1]
        # ends[i]: the words that records 0..i-1 occupy, headers included.
        ends = ragged.from_lengths(lengths + 2)
        marks = ends[cuts]
        over = (4 * (marks[1:] - marks[:-1]) + _SLOT.size * counts
                > page_size - _HEADER.size)
        if over.any():
            page = int(over.argmax())
            raise PageFormatError(f"the {counts[page]} records of page {page} "
                                  f"do not fit a {page_size}-byte page")
        local = ends[:-1] - marks[:-1].repeat(counts)  # word offset on its page
        rows = np.arange(0, pages * row, row)  # word index of each page
        words = buffer[_HEADER.size:-_HEADER.size].view("<u4")
        heads = local + rows.repeat(counts)
        words[heads] = vertices
        words[heads + 1] = lengths << 16 | block.last * _FLAG_LAST
        words[ragged.expand(heads + 2, lengths)] = neighbors
        # Record r's slot sits 2 * (r + 1) bytes before its page's end, so
        # at the page size's parity: the decoder's <u2 view reaches them.
        buffer.view("<u2")[2 * rows] = counts
        odd = page_size & 1
        halves = buffer[odd:len(buffer) - odd].view("<u2")
        tops = 2 * rows + (page_size - odd) // 2 - 1 + cuts[:-1]
        halves[tops.repeat(counts) - np.arange(len(vertices))] = (
            _HEADER.size + 4 * local)
        return buffer.reshape(pages, stride)

    @classmethod
    def _defect(cls, rows: np.ndarray, page_size: int,
                problem: str) -> PageFormatError:
        """The error of a rejected batch: *problem* when it is one page,
        else what its first bad page raises when decoded alone."""
        if len(rows) > 1:
            for at in range(len(rows)):
                cls.from_rows(rows[at:at + 1], page_size)
        return PageFormatError(problem)

    @classmethod
    def concat(cls, blocks: Sequence["PageBlock"]) -> "PageBlock":
        """The records of *blocks*, in order, as one block."""
        if len(blocks) == 1:
            return blocks[0]
        offsets, neighbors = ragged.concat(
            [(block.offsets, block.neighbors) for block in blocks])
        return cls(np.concatenate([block.vertices for block in blocks]),
                   offsets, neighbors,
                   np.concatenate([block.last for block in blocks]))

    def split(self, cuts: Sequence[int]) -> list["PageBlock"]:
        """Cut into consecutive blocks, records ``cuts[j]:cuts[j + 1]`` each."""
        if len(cuts) == 2:
            return [self]
        return [
            PageBlock(self.vertices[begin:end], offsets, neighbors,
                      self.last[begin:end])
            for begin, end, (offsets, neighbors) in zip(
                cuts, cuts[1:],
                ragged.split(self.offsets, self.neighbors, cuts))]


def _slot_defect(slots: np.ndarray, starts: np.ndarray, size: int) -> str:
    """Name the first defect in the slots of the one image rejected."""
    directory = size - _SLOT.size * len(slots)
    for bad, problem in (
            (slots + _RECORD_HEADER.size > directory,
             "slot {} points past page end"),
            (slots % 4 != _HEADER.size, "record {} is misaligned"),
            (slots != starts,
             "record {} does not start where its predecessor ends")):
        if bad.any():
            return problem.format(int(bad.argmax()))
    # Every slot is in place, so the rejection was the last record's end.
    return f"record {len(slots) - 1} truncated"


def row_stride(page_size: int) -> int:
    """Bytes from one page's row to the next: *page_size* rounded up to a
    whole ``u32``, so every row's words line up in one ``<u4`` view."""
    return page_size + -page_size % 4


def stack_images(images: Sequence[bytes]) -> tuple[np.ndarray, int]:
    """Page images of one size as the rows of one zero-padded ``(k,
    stride)`` ``uint8`` array (:func:`row_stride`), and that size; images
    of differing sizes raise :class:`PageFormatError`."""
    sizes = set(map(len, images))
    if len(sizes) != 1:
        raise PageFormatError(
            f"one batch needs page images of one size, got {sorted(sizes)}")
    (size,) = sizes
    rows = np.zeros((len(images), row_stride(size)), dtype=np.uint8)
    rows[:, :size] = np.frombuffer(b"".join(images), dtype=np.uint8
                                   ).reshape(len(images), size)
    return rows, size


def record_capacity(page_size: int = DEFAULT_PAGE_SIZE) -> int:
    """Maximum neighbor count of a single record on an empty page."""
    usable = page_size - _HEADER.size - _SLOT.size - _RECORD_HEADER.size
    return usable // 4


def check_page_size(page_size: int) -> None:
    """Raise :class:`PageFormatError` unless pages of *page_size* bytes
    can hold a one-neighbor record and address it with ``u16`` slots."""
    if page_size < _HEADER.size + _SLOT.size + _RECORD_HEADER.size + 4:
        raise PageFormatError(f"page size {page_size} too small for any record")
    if page_size > 0xFFFF:
        raise PageFormatError("page size must fit u16 slot offsets")


class SlottedPage:
    """A mutable in-memory slotted page; freeze with :meth:`to_bytes`."""

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE):
        check_page_size(page_size)
        self.page_size = page_size
        self._records: list[PageRecord] = []
        self._used = _HEADER.size

    @property
    def free_space(self) -> int:
        """Bytes available for one more record (header + slot included)."""
        slots = (len(self._records) + 1) * _SLOT.size
        return self.page_size - self._used - slots

    @property
    def num_records(self) -> int:
        return len(self._records)

    def fits(self, neighbor_count: int) -> bool:
        """Whether a record with *neighbor_count* neighbors fits."""
        return self.free_space >= _RECORD_HEADER.size + 4 * neighbor_count

    def max_neighbors_fitting(self) -> int:
        """Largest neighbor count that still fits on this page (may be <= 0)."""
        return (self.free_space - _RECORD_HEADER.size) // 4

    def add_record(self, vertex: int, neighbors: np.ndarray, *, is_last: bool = True) -> None:
        """Append an adjacency-list chunk; raises :class:`PageFullError`."""
        if not 0 <= vertex <= 0xFFFFFFFF:
            raise PageFormatError("vertex ids must fit u32")
        neighbors = np.asarray(neighbors, dtype=np.int64)
        if len(neighbors) and (neighbors.min() < 0 or neighbors.max() > 0xFFFFFFFF):
            raise PageFormatError("neighbor ids must fit u32")
        if not self.fits(len(neighbors)):
            raise PageFullError(
                f"record of {len(neighbors)} neighbors does not fit "
                f"({self.free_space} bytes free)"
            )
        if len(neighbors) > 0xFFFF:
            raise PageFormatError("record chunk exceeds u16 neighbor count")
        self._records.append(PageRecord(int(vertex), neighbors, bool(is_last)))
        self._used += _RECORD_HEADER.size + 4 * len(neighbors)

    def records(self) -> list[PageRecord]:
        """All records in insertion (= vertex id) order."""
        return list(self._records)

    def to_bytes(self) -> bytes:
        """Serialize to exactly ``page_size`` bytes: :meth:`PageBlock.to_images`
        of a single page."""
        records = self._records
        block = PageBlock(
            np.array([record.vertex for record in records], dtype=np.int64),
            *ragged.from_lists([record.neighbors for record in records]),
            np.array([record.is_last for record in records], dtype=bool))
        return PageBlock.to_images(block, (0, len(records)),
                                   self.page_size)[0, :self.page_size].tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "SlottedPage":
        """Decode a page previously produced by :meth:`to_bytes`."""
        page = cls(len(data))
        for record in PageBlock.from_bytes(data):
            page.add_record(record.vertex, record.neighbors,
                            is_last=record.is_last)
        return page

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
from typing import Iterator

import numpy as np

from repro.errors import PageFormatError, PageFullError

__all__ = ["DEFAULT_PAGE_SIZE", "PageBlock", "PageRecord", "SlottedPage",
           "record_capacity"]

DEFAULT_PAGE_SIZE = 4096

_HEADER = struct.Struct("<H")
_SLOT = struct.Struct("<H")
_RECORD_HEADER = struct.Struct("<IHH")
_FLAG_LAST = 0x1


@dataclass(frozen=True)
class PageRecord:
    """One adjacency-list chunk: ``vertex``'s neighbors, sorted ascending."""

    vertex: int
    neighbors: np.ndarray
    is_last: bool

    def __len__(self) -> int:
        return len(self.neighbors)


class PageBlock:
    """One decoded page in columnar form; iterates as :class:`PageRecord`.

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

    def neighbors_of(self, vertex: int) -> np.ndarray:
        """*vertex*'s neighbor chunk on this page, empty when it has none.

        One binary search: a store's pages hold their records in
        ascending vertex order, one record per vertex.
        """
        at = int(np.searchsorted(self.vertices, vertex))
        if at == len(self.vertices) or self.vertices[at] != vertex:
            return self.neighbors[:0]
        return self.neighbors[self.offsets[at]:self.offsets[at + 1]]

    @classmethod
    def from_bytes(cls, data: bytes) -> "PageBlock":
        """Decode one page image: the only parser of the page layout.

        Records are packed back to back from byte 2 and each is a whole
        number of ``u32`` words, so one ``<u4`` view at offset 2 covers
        every header and neighbor word; the slot directory is one
        ``<u2`` view.  An image :meth:`SlottedPage.to_bytes` cannot have
        written raises :class:`PageFormatError`.
        """
        size = len(data)
        (count,) = _HEADER.unpack_from(data, 0)
        directory = size - _SLOT.size * count
        if count and directory < _HEADER.size + _RECORD_HEADER.size:
            raise PageFormatError(
                f"{count} records do not fit a {size}-byte page")
        slots = np.frombuffer(data, dtype="<u2", count=count,
                              offset=directory)[::-1].astype(np.int64)
        words = np.frombuffer(data, dtype="<u4", offset=_HEADER.size,
                              count=(size - _HEADER.size) // 4)
        heads = slots >> 2  # word index of each record's vertex id
        # The header's second word, flags | count << 16; clipped, so a
        # wild slot is still there to be reported below.
        packed = words.take(heads + 1, mode="clip").astype(np.int64)
        # bounds[i]: the words that records 0..i-1 occupy.
        bounds = np.zeros(count + 1, dtype=np.int64)
        ((packed >> 16) + 2).cumsum(out=bounds[1:])
        starts = _HEADER.size + 4 * bounds
        # Every record starts where its predecessor ends, the first at
        # byte 2, and the last ends before the directory: then all of
        # them are word-aligned and in bounds, and no read was clipped.
        if np.count_nonzero(slots != starts[:-1]) or starts[-1] > directory:
            raise _defect(slots, starts, directory)
        used = int(bounds[-1])
        payload = np.ones(used, dtype=bool)
        payload[heads] = payload[heads + 1] = False
        return cls(words[heads].astype(np.int64),
                   bounds - 2 * np.arange(count + 1),
                   words[:used][payload].astype(np.int64),
                   (packed & _FLAG_LAST).astype(bool))


def _defect(slots: np.ndarray, starts: np.ndarray,
            directory: int) -> PageFormatError:
    """Name the first defect of a page image the decoder rejected."""
    for bad, problem in (
            (slots + _RECORD_HEADER.size > directory,
             "slot {} points past page end"),
            (slots % 4 != _HEADER.size, "record {} is misaligned"),
            (slots != starts[:-1],
             "record {} does not start where its predecessor ends")):
        if bad.any():
            return PageFormatError(problem.format(int(bad.argmax())))
    # Every slot is in place, so the rejection was the last record's end.
    return PageFormatError(f"record {len(slots) - 1} truncated")


def record_capacity(page_size: int = DEFAULT_PAGE_SIZE) -> int:
    """Maximum neighbor count of a single record on an empty page."""
    usable = page_size - _HEADER.size - _SLOT.size - _RECORD_HEADER.size
    return usable // 4


class SlottedPage:
    """A mutable in-memory slotted page; freeze with :meth:`to_bytes`."""

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE):
        if page_size < _HEADER.size + _SLOT.size + _RECORD_HEADER.size + 4:
            raise PageFormatError(f"page size {page_size} too small for any record")
        if page_size > 0xFFFF:
            raise PageFormatError("page size must fit u16 slot offsets")
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
        """Serialize to exactly ``page_size`` bytes."""
        buffer = bytearray(self.page_size)
        _HEADER.pack_into(buffer, 0, len(self._records))
        offset = _HEADER.size
        for index, record in enumerate(self._records):
            _SLOT.pack_into(buffer, self.page_size - _SLOT.size * (index + 1), offset)
            flags = _FLAG_LAST if record.is_last else 0
            _RECORD_HEADER.pack_into(buffer, offset, record.vertex, flags,
                                     len(record.neighbors))
            offset += _RECORD_HEADER.size
            raw = record.neighbors.astype("<u4").tobytes()
            buffer[offset:offset + len(raw)] = raw
            offset += len(raw)
        return bytes(buffer)

    @classmethod
    def from_bytes(cls, data: bytes) -> "SlottedPage":
        """Decode a page previously produced by :meth:`to_bytes`."""
        page = cls(len(data))
        for record in PageBlock.from_bytes(data):
            page.add_record(record.vertex, record.neighbors,
                            is_last=record.is_last)
        return page

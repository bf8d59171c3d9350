"""Triangle output in the paper's nested representation.

Triangles sharing a prefix ``(u, v)`` are written as one group
``<u, v, {w1..wk}>`` (Section 3.2), which compresses the result
substantially when many triangles share an edge.  The writer buffers
groups in memory and flushes page-sized batches, mirroring the paper's
asynchronous bulk writes; byte and page counts feed the Table 3
(output-writing cost) benchmark.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from repro.exec.block import GroupBlock
from repro.storage.page import DEFAULT_PAGE_SIZE

__all__ = ["NestedOutputWriter", "nested_group_bytes", "triple_bytes"]

_GROUP_HEADER = struct.Struct("<IIH")  # u, v, completion count
_VERTEX = struct.Struct("<I")
#: Most completions one encoded group holds (its count field is "H"); a
#: longer list goes out as consecutive groups with the same prefix, as a
#: list chunked across pages already does.
_MAX_GROUP = 0xFFFF
#: Groups of at least this many completions are packed in one call;
#: below it the star-call costs more than the per-vertex packs it saves
#: (measured: break-even at 3-4, 3x faster at 40).
_ONE_PACK_FROM = 4


@lru_cache(maxsize=None)  # at most 2**16 formats: the count field is "H"
def _group_struct(count: int) -> struct.Struct:
    """A whole group — header then *count* completions — as one format."""
    return struct.Struct(f"{_GROUP_HEADER.format}{count}I")


def _u32(ids: np.ndarray) -> np.ndarray:
    """*ids* as the format's little-endian u32, refusing what does not fit
    (``struct`` refuses the same ids in ``emit``)."""
    if len(ids) and (ids.min() < 0 or ids.max() > 0xFFFFFFFF):
        raise ValueError("vertex id does not fit the 4-byte output format")
    return ids.astype("<u4")


def nested_group_bytes(count: int) -> int:
    """Encoded size of one ``<u, v, {w...}>`` group with *count* completions."""
    return _GROUP_HEADER.size + _VERTEX.size * count


def triple_bytes(count: int) -> int:
    """Encoded size of *count* triangles as flat ``(u, v, w)`` triples.

    The representation methods without prefix sharing (e.g. CC-Seq's
    per-partition output) effectively pay; used for Table 3 comparisons.
    """
    return 3 * _VERTEX.size * count


class NestedOutputWriter:
    """A triangle sink that encodes nested groups and tracks I/O volume.

    Parameters
    ----------
    target:
        ``None`` (count bytes only), a binary file object, or a path.
    page_size:
        Flush granularity; ``pages_written`` counts flushed pages, the
        quantity the simulated output device charges.
    """

    def __init__(
        self,
        target: IO[bytes] | str | Path | None = None,
        *,
        page_size: int = DEFAULT_PAGE_SIZE,
    ):
        self._own_handle = False
        if target is None:
            self._handle: IO[bytes] | None = None
        elif isinstance(target, (str, Path)):
            self._handle = open(target, "wb")
            self._own_handle = True
        else:
            self._handle = target
        self._page_size = page_size
        self._buffer = bytearray()
        self.count = 0
        self.groups = 0
        self.bytes_written = 0
        self.pages_written = 0

    def emit(self, u: int, v: int, ws: Sequence[int]) -> None:
        """Write one nested group."""
        count = len(ws)
        if count < _ONE_PACK_FROM:
            if not count:
                return
            packed = _GROUP_HEADER.pack(u, v, count)
            for w in ws:
                packed += _VERTEX.pack(w)
        elif count <= _MAX_GROUP:
            packed = _group_struct(count).pack(u, v, count, *ws)
        else:
            for begin in range(0, count, _MAX_GROUP):
                self.emit(u, v, ws[begin:begin + _MAX_GROUP])
            return
        # Counted once the bytes are in: a refused id leaves no trace.
        self._buffer += packed
        self.count += count
        self.groups += 1
        if len(self._buffer) >= self._page_size:
            self._flush_pages()

    def emit_block(self, block: GroupBlock) -> None:
        """Write every group of *block*: the bytes ``emit`` writes for
        them one by one, built as arrays."""
        if not len(block):
            return
        us, vs, counts = block.us, block.vs, block.counts
        if counts.max() > _MAX_GROUP:
            pieces = -(-counts // _MAX_GROUP)
            us = us.repeat(pieces)
            vs = vs.repeat(pieces)
            # Every piece is full but a group's last, which takes the rest.
            split = np.full(len(us), _MAX_GROUP, dtype=np.int64)
            split[pieces.cumsum() - 1] = counts - (pieces - 1) * _MAX_GROUP
            counts = split
        # The stream in little-endian 16-bit words: a group's five header
        # words at heads[g], then two per completion.
        header = np.empty((len(us), 5), dtype="<u2")
        header[:, 0:2] = _u32(us).view("<u2").reshape(-1, 2)
        header[:, 2:4] = _u32(vs).view("<u2").reshape(-1, 2)
        header[:, 4] = counts
        words = np.empty(header.size + 2 * len(block.ws), dtype="<u2")
        heads = 5 * np.arange(len(us)) + 2 * (counts.cumsum() - counts)
        is_header = np.zeros(len(words), dtype=bool)
        is_header[(heads[:, None] + np.arange(5)).ravel()] = True
        words[is_header] = header.ravel()
        words[~is_header] = _u32(block.ws).view("<u2")
        self._buffer += words.tobytes()
        self.count += block.triangles
        self.groups += len(us)
        if len(self._buffer) >= self._page_size:
            self._flush_pages()

    def _flush_pages(self) -> None:
        """Write out every whole page the buffer holds."""
        whole = len(self._buffer) // self._page_size * self._page_size
        if self._handle is not None:
            self._handle.write(self._buffer[:whole])
        del self._buffer[:whole]
        self.bytes_written += whole
        self.pages_written += whole // self._page_size

    def close(self) -> None:
        """Flush the partial final page and close an owned file handle."""
        if self._buffer:
            remainder = bytes(self._buffer)
            if self._handle is not None:
                self._handle.write(remainder)
            self.bytes_written += len(remainder)
            self.pages_written += 1
            self._buffer = bytearray()
        if self._own_handle and self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "NestedOutputWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

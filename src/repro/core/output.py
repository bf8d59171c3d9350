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

from repro.storage.page import DEFAULT_PAGE_SIZE

__all__ = ["NestedOutputWriter", "nested_group_bytes", "triple_bytes"]

_GROUP_HEADER = struct.Struct("<IIH")  # u, v, completion count
_VERTEX = struct.Struct("<I")
#: Groups of at least this many completions are packed in one call;
#: below it the star-call costs more than the per-vertex packs it saves
#: (measured: break-even at 3-4, 3x faster at 40).
_ONE_PACK_FROM = 4


@lru_cache(maxsize=None)  # at most 2**16 formats: the count field is "H"
def _group_struct(count: int) -> struct.Struct:
    """A whole group — header then *count* completions — as one format."""
    return struct.Struct(f"{_GROUP_HEADER.format}{count}I")


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
        if not count:
            return
        self.count += count
        self.groups += 1
        if count < _ONE_PACK_FROM:
            self._buffer += _GROUP_HEADER.pack(u, v, count)
            for w in ws:
                self._buffer += _VERTEX.pack(w)
        else:
            self._buffer += _group_struct(count).pack(u, v, count, *ws)
        while len(self._buffer) >= self._page_size:
            self._flush_page()

    def _flush_page(self) -> None:
        page, self._buffer = (
            bytes(self._buffer[: self._page_size]),
            self._buffer[self._page_size:],
        )
        if self._handle is not None:
            self._handle.write(page)
        self.bytes_written += len(page)
        self.pages_written += 1

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

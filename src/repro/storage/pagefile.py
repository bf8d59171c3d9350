"""Raw page files: fixed-size pages addressed by page id.

A :class:`PageFile` is the on-disk body of a stored graph.  Page ids are
zero-based and dense; the file length is always ``num_pages * page_size``.
Reads use ``os.pread`` so concurrent readers (the ThreadedSSD pool) never
contend on a shared file offset.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from repro.errors import StorageError
from repro.storage.page import row_stride

__all__ = ["PageFile"]

_MAGIC = b"OPTP"
_HEADER = struct.Struct("<4sIQ")  # magic, page_size, num_pages


class PageFile:
    """A file of fixed-size pages with a small self-describing header."""

    def __init__(self, path: str | Path, page_size: int, num_pages: int, fd: int):
        self.path = Path(path)
        self.page_size = page_size
        self.num_pages = num_pages
        self._fd = fd
        self._closed = False

    # -- lifecycle ----------------------------------------------------------

    @classmethod
    def create(cls, path: str | Path, rows: np.ndarray, page_size: int) -> "PageFile":
        """Write the pages in the rows of *rows* — a ``(pages, stride)``
        ``uint8`` array, page *j* the first *page_size* bytes of row *j*
        — to a new file, in one write."""
        path = Path(path)
        if rows.ndim != 2 or rows.dtype != np.uint8 or rows.shape[1] < page_size:
            raise StorageError(
                f"a {rows.dtype} array of shape {rows.shape} holds no "
                f"{page_size}-byte pages")
        with path.open("wb") as handle:
            handle.write(_HEADER.pack(_MAGIC, page_size, len(rows)))
            # No copy when the rows are the pages (a multiple-of-4 size).
            handle.write(np.ascontiguousarray(rows[:, :page_size]).data)
        return cls.open(path)

    @classmethod
    def open(cls, path: str | Path) -> "PageFile":
        """Open an existing page file for reading."""
        path = Path(path)
        fd = os.open(path, os.O_RDONLY)
        try:
            header = os.pread(fd, _HEADER.size, 0)
            try:
                magic, page_size, num_pages = _HEADER.unpack(header)
            except struct.error as exc:
                raise StorageError(
                    f"{path}: truncated header ({len(header)} of "
                    f"{_HEADER.size} bytes)"
                ) from exc
            if magic != _MAGIC:
                raise StorageError(f"{path}: not a page file (magic {magic!r})")
            expected = _HEADER.size + page_size * num_pages
            actual = os.fstat(fd).st_size
            if actual != expected:
                raise StorageError(
                    f"{path}: size {actual} != expected {expected} "
                    f"({num_pages} pages of {page_size} bytes)"
                )
        except (StorageError, OSError):
            os.close(fd)
            raise
        return cls(path, page_size, num_pages, fd)

    def close(self) -> None:
        """Release the file descriptor (idempotent)."""
        if not self._closed:
            os.close(self._fd)
            self._closed = True

    def __enter__(self) -> "PageFile":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except OSError:
            pass

    # -- access ---------------------------------------------------------------

    def read_rows(self) -> np.ndarray:
        """Every page, in one read, as the rows of one zero-padded
        ``(num_pages, stride)`` ``uint8`` array
        (:func:`~repro.storage.page.row_stride`)."""
        if self._closed:
            raise StorageError("page file is closed")
        rows = np.zeros((self.num_pages, row_stride(self.page_size)),
                        dtype=np.uint8)
        body = (rows if rows.shape[1] == self.page_size
                else np.empty((self.num_pages, self.page_size), dtype=np.uint8))
        view = memoryview(body.reshape(-1))
        done = 0
        while done < len(view):  # pread may stop short of a huge body
            got = os.preadv(self._fd, [view[done:]], _HEADER.size + done)
            if not got:
                raise StorageError(f"{self.path}: short read at byte {done}")
            done += got
        if body is not rows:
            rows[:, :self.page_size] = body
        return rows

    def read_page(self, pid: int) -> bytes:
        """Read page *pid*; thread-safe (uses ``pread``)."""
        if self._closed:
            raise StorageError("page file is closed")
        if not 0 <= pid < self.num_pages:
            raise StorageError(f"page id {pid} out of range [0, {self.num_pages})")
        offset = _HEADER.size + pid * self.page_size
        data = os.pread(self._fd, self.page_size, offset)
        if len(data) != self.page_size:
            raise StorageError(f"short read on page {pid}")
        return data

"""Packing a graph into slotted pages, plus the vertex -> page index.

``GraphStore`` is the unit every disk-based method operates on: the
ordered sequence of slotted pages holding ``(v, n(v))`` records in vertex-
id order, together with index arrays locating each vertex's record chain.

A vertex whose adjacency list exceeds one page spans a *contiguous* run of
pages via continuation records (``is_last`` clear on all but the final
chunk).  ``align_chunk_end`` implements the design rule that an OPT
internal chunk never splits a vertex's record chain (see DESIGN.md §2).
"""

from __future__ import annotations

from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.errors import PageFormatError, StorageError
from repro.graph.graph import Graph
from repro.storage.page import DEFAULT_PAGE_SIZE, PageBlock, SlottedPage, chain
from repro.storage.pagefile import PageFile

__all__ = ["GraphStore", "PagePacker"]

#: Do not start a new chunk on a page with room for fewer neighbors.
_MIN_CHUNK_NEIGHBORS = 8


class PagePacker:
    """Streaming packer: feed vertices in id order, get a GraphStore.

    Shared by :meth:`GraphStore.from_graph` (in-memory graphs) and the
    out-of-core build pipeline (:mod:`repro.preprocess`), which streams
    adjacency lists from externally sorted runs.  Only the current page
    and one adjacency list are ever held in memory.
    """

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE):
        self.page_size = page_size
        self._pages: list[bytes] = []
        self._first_page: list[int] = []
        self._last_page: list[int] = []
        self._succ_first_page: list[int] = []
        self._page_first: list[int] = []
        self._page_last: list[int] = []
        self._page_complete: list[bool] = []
        self._current = SlottedPage(page_size)
        self._next_vertex = 0

    def _flush(self) -> None:
        records = self._current.records()
        if not records:
            return
        self._pages.append(self._current.to_bytes())
        self._page_first.append(records[0].vertex)
        self._page_last.append(records[-1].vertex)
        self._page_complete.append(records[-1].is_last)
        self._current = SlottedPage(self.page_size)

    def add_vertex(self, v: int, neighbors: np.ndarray) -> None:
        """Append vertex *v*'s sorted adjacency list (ids must be dense
        and fed in increasing order)."""
        if v != self._next_vertex:
            raise StorageError(
                f"vertices must be added densely in order; expected "
                f"{self._next_vertex}, got {v}"
            )
        self._next_vertex += 1
        remaining = np.asarray(neighbors, dtype=np.int64)
        self._first_page.append(len(self._pages))
        self._succ_first_page.append(-1)
        placed_any = False
        while True:
            capacity = self._current.max_neighbors_fitting()
            need_flush = (
                self._current.num_records > 0
                and capacity < len(remaining)
                and capacity < _MIN_CHUNK_NEIGHBORS
            )
            if capacity < 0 or (len(remaining) > 0 and capacity == 0) or need_flush:
                if self._current.num_records == 0:
                    raise StorageError(
                        f"page size {self.page_size} cannot hold any chunk"
                    )
                self._flush()
                if not placed_any:
                    self._first_page[v] = len(self._pages)
                continue
            if len(remaining) <= capacity:
                self._current.add_record(v, remaining, is_last=True)
                placed_any = True
                if (len(remaining) and remaining[-1] > v
                        and self._succ_first_page[v] < 0):
                    self._succ_first_page[v] = len(self._pages)
                break
            chunk = remaining[:capacity]
            self._current.add_record(v, chunk, is_last=False)
            placed_any = True
            if len(chunk) and chunk[-1] > v and self._succ_first_page[v] < 0:
                self._succ_first_page[v] = len(self._pages)
            remaining = remaining[capacity:]
        self._last_page.append(len(self._pages))  # page being filled

    def finish(self) -> "GraphStore":
        """Flush the final page and assemble the store."""
        self._flush()
        n = self._next_vertex
        first_page = np.asarray(self._first_page, dtype=np.int64)
        last_page = np.asarray(self._last_page, dtype=np.int64)
        succ_first_page = np.asarray(self._succ_first_page, dtype=np.int64)
        if self._pages:
            limit = len(self._pages) - 1
            first_page = np.minimum(first_page, limit)
            last_page = np.minimum(last_page, limit)
            succ_first_page = np.minimum(succ_first_page, limit)
        return GraphStore(
            self._pages,
            self.page_size,
            n,
            first_page,
            last_page,
            np.asarray(self._page_first, dtype=np.int64),
            np.asarray(self._page_last, dtype=np.int64),
            np.asarray(self._page_complete, dtype=bool),
            succ_first_page,
        )


class GraphStore:
    """A graph packed into slotted pages with a vertex location index.

    Attributes
    ----------
    pages:
        Serialized page images, ``pages[pid]`` is exactly ``page_size``
        bytes.
    first_page / last_page:
        For each vertex, the inclusive page-id range holding its record
        chain (``first_page[v] == last_page[v]`` for single-page lists).
    page_first_vertex / page_last_vertex:
        Lowest / highest vertex with a record on each page.
    page_ends_complete:
        True when the final record on the page is an ``is_last`` chunk,
        i.e. the page boundary coincides with a vertex boundary.
    """

    def __init__(
        self,
        pages: list[bytes],
        page_size: int,
        num_vertices: int,
        first_page: np.ndarray,
        last_page: np.ndarray,
        page_first_vertex: np.ndarray,
        page_last_vertex: np.ndarray,
        page_ends_complete: np.ndarray,
        succ_first_page: np.ndarray | None = None,
    ):
        self.pages = pages
        self.page_size = page_size
        self.num_vertices = num_vertices
        self.first_page = first_page
        self.last_page = last_page
        self.page_first_vertex = page_first_vertex
        self.page_last_vertex = page_last_vertex
        self.page_ends_complete = page_ends_complete
        if succ_first_page is None:
            succ_first_page = first_page.copy() if len(first_page) else first_page
        self.succ_first_page = succ_first_page

    # -- construction --------------------------------------------------------

    @classmethod
    def from_graph(cls, graph: Graph, page_size: int = DEFAULT_PAGE_SIZE) -> "GraphStore":
        """Pack *graph* into pages in vertex-id order."""
        packer = PagePacker(page_size)
        for v in range(graph.num_vertices):
            packer.add_vertex(v, graph.neighbors(v))
        return packer.finish()

    # -- basic accessors -------------------------------------------------------

    @property
    def num_pages(self) -> int:
        """``P(G)``: the number of pages of the stored graph."""
        return len(self.pages)

    def decode_page(self, pid: int) -> PageBlock:
        """Decode page *pid* into its records."""
        return self.decode_pages((pid,))[0]

    def decode_pages(self, pids: Sequence[int]) -> list[PageBlock]:
        """Decode pages *pids* in one batch, one block per page.

        Besides the layout (:meth:`PageBlock.from_images`) this checks
        what the packer guarantees and the OPT driver's record index
        relies on: a page holds exactly one record for every vertex id
        from its first to its last, in order.  An image that decodes but
        names other vertices is as torn as one that does not decode, and
        raises :class:`PageFormatError` too.
        """
        block, cuts = PageBlock.from_images([self.pages[pid] for pid in pids])
        columns = [self._vertex_ids[self.page_first_vertex[pid]:
                                    self.page_last_vertex[pid] + 1]
                   for pid in pids]
        expected = chain(columns)
        blocks = block.split(cuts)
        if len(expected) != len(block) or np.count_nonzero(
                block.vertices != expected):
            pid, column = next(
                (pid, column) for pid, column, page in zip(pids, columns, blocks)
                if not np.array_equal(page.vertices, column))
            raise PageFormatError(
                f"page {pid} does not hold one record for each of the "
                f"vertices {column[0]}..{column[-1]}")
        return blocks

    @cached_property
    def _vertex_ids(self) -> np.ndarray:
        """``arange(num_vertices)``: a page's vertex column is a slice of it."""
        return np.arange(self.num_vertices)

    def pages_of_vertex(self, v: int) -> range:
        """Inclusive page-id range holding vertex *v*'s record chain."""
        return range(int(self.first_page[v]), int(self.last_page[v]) + 1)

    def pages_of_candidate(self, v: int) -> range:
        """Pages an external candidate *v* actually needs.

        External processing only consumes ``n_succ(v)``; adjacency lists
        are sorted, so the successors occupy a *suffix* of the record
        chain.  For a high-id hub (huge list, tiny ``n_succ``) this is one
        page instead of the whole chain — the reason OPT's external read
        volume stays close to the candidates' useful data.  Empty when
        *v* has no successors.
        """
        start = int(self.succ_first_page[v])
        if start < 0:
            return range(0)
        return range(start, int(self.last_page[v]) + 1)

    def align_chunk_end(self, start_pid: int, m_in: int) -> int:
        """Last page of an internal chunk starting at *start_pid*.

        Returns the largest ``end <= start_pid + m_in - 1`` whose page
        boundary coincides with a vertex boundary; when even the first page
        splits a vertex (an adjacency list longer than ``m_in`` pages), the
        chunk *extends* until that vertex's chain completes, mirroring the
        paper's requirement that the internal area hold at least one full
        adjacency list.
        """
        if not 0 <= start_pid < self.num_pages:
            raise StorageError(f"start page {start_pid} out of range")
        end = min(start_pid + m_in - 1, self.num_pages - 1)
        while end > start_pid and not self.page_ends_complete[end]:
            end -= 1
        while not self.page_ends_complete[end]:
            end += 1  # single giant vertex: extend to its final chunk
        return int(end)

    def chunk_vertex_range(self, start_pid: int, end_pid: int) -> tuple[int, int]:
        """Inclusive vertex-id range fully contained in pages [start, end]."""
        return int(self.page_first_vertex[start_pid]), int(self.page_last_vertex[end_pid])

    # -- persistence ------------------------------------------------------------

    def save(self, directory: str | Path, name: str = "graph") -> tuple[Path, Path]:
        """Write the page file and index sidecar; returns their paths."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        pages_path = directory / f"{name}.pages"
        index_path = directory / f"{name}.idx.npz"
        PageFile.create(pages_path, self.pages, self.page_size).close()
        np.savez(
            index_path,
            page_size=self.page_size,
            num_vertices=self.num_vertices,
            first_page=self.first_page,
            last_page=self.last_page,
            page_first_vertex=self.page_first_vertex,
            page_last_vertex=self.page_last_vertex,
            page_ends_complete=self.page_ends_complete,
            succ_first_page=self.succ_first_page,
        )
        return pages_path, index_path

    @classmethod
    def load(cls, directory: str | Path, name: str = "graph") -> "GraphStore":
        """Load a store previously written by :meth:`save`."""
        directory = Path(directory)
        index = np.load(directory / f"{name}.idx.npz")
        with PageFile.open(directory / f"{name}.pages") as page_file:
            pages = [page_file.read_page(pid) for pid in range(page_file.num_pages)]
            page_size = page_file.page_size
        return cls(
            pages,
            int(page_size),
            int(index["num_vertices"]),
            index["first_page"],
            index["last_page"],
            index["page_first_vertex"],
            index["page_last_vertex"],
            index["page_ends_complete"],
            index["succ_first_page"] if "succ_first_page" in index else None,
        )

    def open_page_file(self, directory: str | Path, name: str = "graph") -> PageFile:
        """Materialize the pages as an on-disk :class:`PageFile` and open it."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{name}.pages"
        PageFile.create(path, self.pages, self.page_size).close()
        return PageFile.open(path)

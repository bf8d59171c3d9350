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

from bisect import bisect_right
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.errors import PageFormatError, StorageError
from repro.graph.graph import Graph
from repro.storage.page import (
    DEFAULT_PAGE_SIZE,
    PAGE_HEADER,
    RECORD_OVERHEAD,
    PageBlock,
    check_page_size,
    record_capacity,
    row_stride,
    stack_images,
)
from repro.storage.pagefile import PageFile
from repro.util import ragged

__all__ = ["GraphStore", "PagePacker"]

#: Do not start a new chunk on a page with room for fewer neighbors.
_MIN_CHUNK_NEIGHBORS = 8


def _plan(starts: np.ndarray, page_size: int) -> tuple[list[int], np.ndarray]:
    """Lay adjacency lists out on pages greedily, in order; list *v* is
    neighbors ``starts[v]:starts[v + 1]`` of the lists laid end to end.

    A list goes whole onto the open page while it fits.  One that does
    not is cut there if the page has room for at least
    ``_MIN_CHUNK_NEIGHBORS`` of its neighbors, else moved to the next
    page; the rest of a cut list fills whole pages of
    :func:`record_capacity` neighbors until what is left fits.  Returns
    ``(cuts, splits)``: page *j* holds records ``cuts[j]:cuts[j + 1]``,
    and *splits* are the positions where a list is cut into one more
    record.  One binary search over the records' cumulative page bytes
    per page; everything else is arithmetic on the page's first and
    last list.
    """
    capacity = record_capacity(page_size)
    room = page_size - PAGE_HEADER
    n = len(starts) - 1
    # footprint[v]: the page bytes lists 0..v-1 take as whole records.
    footprint = (4 * starts + RECORD_OVERHEAD * np.arange(n + 1)).tolist()
    starts = starts.tolist()
    cuts: list[int] = []
    splits: list[int] = []
    v = done = records = 0  # done: neighbors of v on earlier pages
    while v < n:
        rest = starts[v + 1] - starts[v] - done
        if rest > capacity:  # full pages of one chunk each, then the rest
            full = (rest - 1) // capacity
            cuts.extend(range(records, records + full))
            at = starts[v] + done
            splits.extend(range(at + capacity, at + (full + 1) * capacity,
                                capacity))
            records += full
            done += full * capacity
            rest -= full * capacity
        cuts.append(records)
        used = 0
        if done:  # the final chunk of a list cut on earlier pages
            used = RECORD_OVERHEAD + 4 * rest
            records += 1
            v += 1
            done = 0
        end = bisect_right(footprint, footprint[v] + room - used, v) - 1
        used += footprint[end] - footprint[v]
        records += end - v
        v = end
        if v < n:  # list v does not fit whole: cut it here or move it on
            fitting = (room - used - RECORD_OVERHEAD) // 4
            if fitting >= _MIN_CHUNK_NEIGHBORS:
                splits.append(starts[v] + fitting)
                records += 1
                done = fitting
    cuts.append(records)
    return cuts, np.array(splits, dtype=np.int64)


class PagePacker:
    """Streaming packer: feed vertices in id order, get a GraphStore.

    Shared by :meth:`GraphStore.from_graph` (in-memory graphs, handed
    over whole) and the out-of-core build pipeline
    (:mod:`repro.preprocess`), which streams adjacency lists from
    externally sorted runs.  Fed a vertex at a time, the packer queues
    lists until their records exceed a page, then writes every complete
    page and keeps the open page's records queued: only that page and
    one adjacency list are ever held in memory.  Pages are planned by
    :func:`_plan` and written by :meth:`PageBlock.to_images`.
    """

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE):
        check_page_size(page_size)
        self.page_size = page_size
        #: The written pages, a (pages, stride) row array per write.
        self._rows: list[np.ndarray] = []
        self._written = 0  # pages in _rows
        # Per written record: vertex, page, is-last, holds a successor.
        self._columns: list[tuple[np.ndarray, ...]] = []
        # Lists of vertices _base, _base + 1, ... not yet on a written
        # page; the first may be the rest of a list cut across pages.
        self._queue: list[np.ndarray] = []
        self._queued = 0  # page bytes of the queued records
        self._base = 0

    def add_vertex(self, v: int, neighbors: np.ndarray) -> None:
        """Append vertex *v*'s sorted adjacency list (ids must be dense
        and fed in increasing order)."""
        expected = self._base + len(self._queue)
        if v != expected:
            raise StorageError(
                f"vertices must be added densely in order; expected "
                f"{expected}, got {v}"
            )
        neighbors = np.asarray(neighbors, dtype=np.int64)
        self._queue.append(neighbors)
        self._queued += RECORD_OVERHEAD + 4 * len(neighbors)
        if self._queued > self.page_size:
            vertex, done = self._write_queue(final=False)
            self._queue = self._queue[vertex:]
            self._queue[0] = self._queue[0][done:]
            self._queued = sum(RECORD_OVERHEAD + 4 * len(queued)
                               for queued in self._queue)

    def _write_queue(self, *, final: bool) -> tuple[int, int]:
        """:meth:`_write` of the queued lists."""
        return self._write(*ragged.from_lists(self._queue), final=final)

    def _write(self, starts: np.ndarray, neighbors: np.ndarray, *,
               final: bool) -> tuple[int, int]:
        """Plan and write the pages of the lists from vertex ``_base`` on:
        list *v* is ``neighbors[starts[v]:starts[v + 1]]``.

        Unless *final*, the last page stays open: its records are not
        written, and the return value says where they start — in the
        list of vertex ``_base + vertex``, *done* neighbors into it.
        """
        cuts, splits = _plan(starts, self.page_size)
        n = len(starts) - 1
        # A split starts one more record of the list it falls in.
        owner = np.searchsorted(starts, splits, side="right")
        offsets = np.concatenate((starts, splits))
        offsets.sort(kind="stable")
        vertices = np.arange(n).repeat(1 + np.bincount(owner - 1, minlength=n))
        last = np.ones(len(vertices), dtype=bool)
        last[owner + np.arange(len(splits)) - 1] = False
        if not final:
            cuts.pop()
        held = cuts[-1]
        block = PageBlock(vertices[:held] + self._base, offsets[:held + 1],
                          neighbors[:offsets[held]], last[:held])
        marks = np.array(cuts)
        pages = np.arange(self._written, self._written + len(cuts) - 1
                          ).repeat(marks[1:] - marks[:-1])
        # A chunk holds a successor of its vertex when its last (largest)
        # neighbor is above the vertex; an empty chunk holds none.
        ends = block.offsets[1:]
        successor = ends > block.offsets[:-1]
        successor[successor] = (block.neighbors[ends[successor] - 1]
                                > block.vertices[successor])
        rows = PageBlock.to_images(block, cuts, self.page_size)
        self._columns.append((block.vertices, pages, block.last, successor))
        self._rows.append(rows)
        self._written += len(rows)
        vertex = int(vertices[held]) if held < len(vertices) else n
        self._base += vertex
        return vertex, int(offsets[held] - starts[vertex])

    def finish(self) -> "GraphStore":
        """Write the queued lists and assemble the store."""
        self._write_queue(final=True)
        self._queue = []
        vertices, pages, last, successor = map(np.concatenate,
                                               zip(*self._columns))
        n, num_pages = self._base, self._written
        # Records run in vertex order, and in page order: the first and
        # last record of a vertex or a page are binary searches away.
        first = np.searchsorted(vertices, np.arange(n))
        final = np.append(first, len(vertices))[1:] - 1
        page_first = np.searchsorted(pages, np.arange(num_pages))
        page_final = np.append(page_first, len(pages))[1:] - 1
        # Sorted lists: the chunks holding a successor are a suffix of
        # the vertex's chain, so its first such chunk is the first hit.
        hits = np.flatnonzero(successor)
        hit_vertices = vertices[hits]
        lead = np.ones(len(hits), dtype=bool)
        lead[1:] = hit_vertices[1:] != hit_vertices[:-1]
        succ_first_page = np.full(n, -1, dtype=np.int64)
        succ_first_page[hit_vertices[lead]] = pages[hits[lead]]
        rows = (self._rows[0] if len(self._rows) == 1
                else np.concatenate(self._rows))
        return GraphStore(
            rows,
            self.page_size,
            n,
            pages[first],
            pages[final],
            vertices[page_first],
            vertices[page_final],
            last[page_final],
            succ_first_page,
        )


#: The index arrays of a store, in constructor order: the ``page_*``
#: ones hold an entry per page, the others one per vertex.
_INDEX_FIELDS = ("first_page", "last_page", "page_first_vertex",
                 "page_last_vertex", "page_ends_complete", "succ_first_page")


def _check_index(path: Path, arrays: dict[str, np.ndarray], page_size: int,
                 num_pages: int) -> None:
    """Raise :class:`StorageError` naming the first array of the sidecar
    at *path* that does not fit a page file of *num_pages* pages of
    *page_size* bytes: every lookup the engines make into it is then in
    bounds."""
    if int(arrays["page_size"]) != page_size:
        raise StorageError(f"{path}: page_size {int(arrays['page_size'])} "
                           f"!= the page file's {page_size}")
    n = int(arrays["num_vertices"])
    for field in _INDEX_FIELDS:
        if field not in arrays:
            continue
        array = arrays[field]
        per_page = field.startswith("page_")
        length = num_pages if per_page else n
        if array.shape != (length,):
            raise StorageError(
                f"{path}: {field} has shape {array.shape}, expected "
                f"({length},): one entry per {'page' if per_page else 'vertex'}")
        if field == "page_ends_complete":
            if num_pages and not array[-1]:
                raise StorageError(f"{path}: page_ends_complete[-1] is not "
                                   f"set: the last page ends mid-list")
            continue
        # Page ids in [0, P) (-1: no successor); vertex ids in [0, n).
        low, high = ((0, n) if per_page
                     else (-1 if field == "succ_first_page" else 0, num_pages))
        if len(array) and (array.min() < low or array.max() >= high):
            raise StorageError(f"{path}: {field} holds ids outside "
                               f"[{low}, {high})")


class GraphStore:
    """A graph packed into slotted pages with a vertex location index.

    Attributes
    ----------
    rows:
        The pages, read-only: one ``(P, stride)`` ``uint8`` array whose
        row *pid* holds page *pid* in its first ``page_size`` bytes, with
        ``stride`` the page size rounded up to a whole ``u32``
        (:func:`~repro.storage.page.row_stride`) and the rest zero.
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
        rows: np.ndarray,
        page_size: int,
        num_vertices: int,
        first_page: np.ndarray,
        last_page: np.ndarray,
        page_first_vertex: np.ndarray,
        page_last_vertex: np.ndarray,
        page_ends_complete: np.ndarray,
        succ_first_page: np.ndarray | None = None,
    ):
        if rows.shape[1:] != (row_stride(page_size),):
            raise StorageError(f"{rows.shape} is no array of "
                               f"{page_size}-byte page rows")
        rows.setflags(write=False)
        self.rows = rows
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
        packer._write(graph.indptr, graph.indices, final=True)
        return packer.finish()

    # -- basic accessors -------------------------------------------------------

    @property
    def num_pages(self) -> int:
        """``P(G)``: the number of pages of the stored graph."""
        return len(self.rows)

    def read_page(self, pid: int) -> bytes:
        """Page *pid*'s image: the store is a page source like
        :class:`PageFile`, so a fault injector can wrap either."""
        return self.rows[pid, :self.page_size].tobytes()

    def decode_page(self, pid: int) -> PageBlock:
        """Decode page *pid* into its records."""
        return self.decode_rows((pid,), self.rows[pid:pid + 1])[0]

    def decode_images(self, pids: Sequence[int],
                      images: Sequence[bytes]) -> list[PageBlock]:
        """Decode *images*, read as pages *pids*, one block per page:
        :meth:`decode_rows` of the images stacked.  An image of another
        size than the store's pages is torn too."""
        rows, size = stack_images(images)
        if size != self.page_size:
            raise PageFormatError(f"a {size}-byte image is no page of "
                                  f"{self.page_size} bytes")
        block, cuts = self.decode_rows(pids, rows)
        return block.split(cuts)

    def decode_rows(self, pids: Sequence[int], rows: np.ndarray
                    ) -> tuple[PageBlock, np.ndarray]:
        """Decode *rows*, read as pages *pids*: the block of their
        records, in row order, and its cuts (:meth:`PageBlock.from_rows`).

        The one checked decoder, whichever engine read the pages and
        wherever it keeps them.  Besides the layout this checks what the
        packer guarantees and the OPT driver's record index relies on: a
        page holds exactly one record for every vertex id from its first
        to its last, in order.  A page that decodes but names other
        vertices is as torn as one that does not decode, and raises
        :class:`PageFormatError` too, naming the first such page.
        """
        block, cuts = PageBlock.from_rows(rows, self.page_size)
        firsts = self.page_first_vertex.take(pids)
        counts = self.page_last_vertex.take(pids) - firsts + 1
        expected = ragged.expand(firsts, counts)
        if len(expected) != len(block) or np.count_nonzero(
                block.vertices != expected):
            pid, first, count = next(
                (pid, first, count) for pid, first, count, begin, end in zip(
                    pids, firsts.tolist(), counts.tolist(), cuts, cuts[1:])
                if not np.array_equal(block.vertices[begin:end],
                                      np.arange(first, first + count)))
            raise PageFormatError(
                f"page {pid} does not hold one record for each of the "
                f"vertices {first}..{first + count - 1}")
        return block, cuts

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
        PageFile.create(pages_path, self.rows, self.page_size).close()
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
        """Load a store previously written by :meth:`save`: the page file
        in one read, and the index sidecar checked against it — a
        sidecar of another page file raises :class:`StorageError`
        naming the array that does not fit."""
        directory = Path(directory)
        index_path = directory / f"{name}.idx.npz"
        with PageFile.open(directory / f"{name}.pages") as page_file:
            rows = page_file.read_rows()
            page_size = page_file.page_size
        with np.load(index_path) as index:
            arrays = {}
            for field in ("page_size", "num_vertices", *_INDEX_FIELDS):
                if field in index:
                    arrays[field] = index[field]
                elif field != "succ_first_page":  # older sidecars lack it
                    raise StorageError(f"{index_path}: no {field} array")
        _check_index(index_path, arrays, page_size, len(rows))
        return cls(
            rows,
            page_size,
            int(arrays["num_vertices"]),
            *(arrays.get(field) for field in _INDEX_FIELDS),
        )

    def open_page_file(self, directory: str | Path, name: str = "graph") -> PageFile:
        """Materialize the pages as an on-disk :class:`PageFile` and open it."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{name}.pages"
        PageFile.create(path, self.rows, self.page_size).close()
        return PageFile.open(path)

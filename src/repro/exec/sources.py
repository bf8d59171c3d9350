"""Data sources: the Source axis of the composition layer.

Three residencies for the same logical graph:

* :class:`MemorySource` — the plain heap CSR (:class:`repro.graph.graph.Graph`).
  Fastest reads, but a forked worker would have to pickle the whole
  graph, so it is **not shareable** — the registry marks process-pool
  cells over it invalid rather than silently paying the copy.
* :class:`SharedMemorySource` — the CSR published into POSIX shared
  memory (:class:`repro.parallel.shm.SharedCSR`).  Reads are the same
  zero-copy numpy views, and the handle pickles into a tiny
  :class:`~repro.parallel.shm.CSRHandle` any forked worker can attach.
* :class:`DiskSource` — the slotted-page store
  (:class:`repro.storage.layout.GraphStore`) read through an LRU
  :class:`~repro.storage.buffer.BufferManager`.  Successor lists come
  from the candidate-page suffix of each record chain, exactly the read
  pattern OPT's external area performs; page hits/misses surface in the
  engine result's I/O fields.  The page cache is per-process and the
  buffer is not thread-safe, so ``fork_local()`` hands each worker
  thread its own buffer over the same immutable page images, and the
  source is not shareable across processes.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.graph.graph import Graph
from repro.storage.buffer import BufferManager
from repro.storage.layout import GraphStore
from repro.storage.page import DEFAULT_PAGE_SIZE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.parallel.shm import CSRHandle

__all__ = ["DiskSource", "MemorySource", "SharedMemorySource"]

_EMPTY = np.empty(0, dtype=np.int64)


class _GraphHandle:
    """Successor reads straight off an in-memory CSR."""

    def __init__(self, graph: Graph):
        self._graph = graph

    @property
    def num_vertices(self) -> int:
        return self._graph.num_vertices

    def succ(self, u: int) -> np.ndarray:
        return self._graph.n_succ(u)

    def fork_local(self) -> "_GraphHandle":
        return self  # immutable numpy views: thread-safe as-is

    def csr_graph(self) -> Graph:
        return self._graph

    def csr_handle(self) -> "CSRHandle | None":
        return None

    def io_stats(self) -> dict[str, int]:
        return {}


class MemorySource:
    """The heap CSR as a source."""

    name = "memory"
    shareable = False

    def __init__(self, graph: Graph):
        self._graph = graph

    @contextmanager
    def open(self) -> Iterator[_GraphHandle]:
        yield _GraphHandle(self._graph)


class _SharedHandle(_GraphHandle):
    """Reads off the parent-side attachment of a published CSR."""

    def __init__(self, graph: Graph, handle: "CSRHandle"):
        super().__init__(graph)
        self._handle = handle

    def csr_handle(self) -> "CSRHandle":
        return self._handle


class SharedMemorySource:
    """The CSR published into POSIX shared memory for the run's duration.

    ``open()`` owns the segment lifecycle: publish on enter, close +
    unlink on exit, however the run ends.
    """

    name = "shm"
    shareable = True

    def __init__(self, graph: Graph):
        self._graph = graph

    @contextmanager
    def open(self) -> Iterator[_SharedHandle]:
        from repro.parallel.shm import SharedCSR

        shared = SharedCSR.publish(self._graph)
        handle = _SharedHandle(shared.graph(), shared.handle)
        try:
            yield handle
        finally:
            # The handle's Graph wraps the shared buffers; its views must
            # die before close() or the mmap refuses to unmap.
            handle._graph = None  # type: ignore[assignment]
            shared.close()
            shared.unlink()


class _DiskHandle:
    """Successor reads through a private LRU page buffer."""

    def __init__(self, store: GraphStore, buffer_pages: int):
        self._store = store
        self._buffer_pages = buffer_pages
        self._buffer = BufferManager(buffer_pages, store.decode_page)

    @property
    def num_vertices(self) -> int:
        return self._store.num_vertices

    def succ(self, u: int) -> np.ndarray:
        store = self._store
        parts: list[np.ndarray] = []
        for pid in store.pages_of_candidate(u):
            part = self._buffer.get(pid).records.neighbors_of(u)
            if len(part):
                parts.append(part)
        if not parts:
            return _EMPTY
        row = parts[0] if len(parts) == 1 else np.concatenate(parts)
        # Successors are the suffix strictly above u in the sorted list.
        return row[np.searchsorted(row, u, side="right"):]

    def fork_local(self) -> "_DiskHandle":
        # The page images are immutable bytes; only the buffer is
        # stateful, so each worker thread gets its own.
        return _DiskHandle(self._store, self._buffer_pages)

    def csr_graph(self) -> None:
        return None

    def csr_handle(self) -> None:
        return None

    def io_stats(self) -> dict[str, int]:
        return {
            "pages_read": self._buffer.misses,
            "pages_buffered": self._buffer.hits,
        }


class DiskSource:
    """The paged store as a source; packs the graph on first open."""

    name = "disk"
    shareable = False

    def __init__(self, graph: Graph | None = None, *,
                 store: GraphStore | None = None,
                 page_size: int = DEFAULT_PAGE_SIZE,
                 buffer_pages: int = 8):
        if store is None:
            if graph is None:
                raise ValueError("DiskSource needs a graph or a prepared store")
            store = GraphStore.from_graph(graph, page_size)
        self._store = store
        self._buffer_pages = buffer_pages

    @contextmanager
    def open(self) -> Iterator[_DiskHandle]:
        yield _DiskHandle(self._store, self._buffer_pages)

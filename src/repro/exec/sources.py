"""Data sources: the Source axis of the composition layer.

Two residencies for the same CSR (:class:`repro.graph.graph.Graph`):

* :class:`MemorySource` — the plain heap CSR.  Fastest to open, but a
  forked worker would have to pickle the whole graph, so it is **not
  shareable** — the registry marks process-pool cells over it invalid
  rather than silently paying the copy.
* :class:`SharedMemorySource` — the CSR published into POSIX shared
  memory (:class:`repro.parallel.shm.SharedCSR`).  Reads are the same
  zero-copy numpy views, and the handle pickles into a tiny
  :class:`~repro.parallel.shm.CSRHandle` any forked worker can attach.

A paged store (:class:`repro.storage.layout.GraphStore`) is not a
source: its one reader is Algorithm 3,
:func:`repro.core.engine.triangulate_disk`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

from repro.graph.graph import Graph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.parallel.shm import CSRHandle

__all__ = ["MemorySource", "SharedMemorySource"]


class _GraphHandle:
    """An open CSR, with its cross-process descriptor when published."""

    def __init__(self, graph: Graph, handle: "CSRHandle | None" = None):
        self._graph = graph
        self._handle = handle

    @property
    def num_vertices(self) -> int:
        return self._graph.num_vertices

    def csr_graph(self) -> Graph:
        return self._graph

    def csr_handle(self) -> "CSRHandle | None":
        return self._handle


class MemorySource:
    """The heap CSR as a source."""

    name = "memory"
    shareable = False

    def __init__(self, graph: Graph):
        self._graph = graph

    @contextmanager
    def open(self) -> Iterator[_GraphHandle]:
        yield _GraphHandle(self._graph)


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
    def open(self) -> Iterator[_GraphHandle]:
        from repro.parallel.shm import SharedCSR

        shared = SharedCSR.publish(self._graph)
        handle = _GraphHandle(shared.graph(), shared.handle)
        try:
            yield handle
        finally:
            # The handle's Graph wraps the shared buffers; its views must
            # die before close() or the mmap refuses to unmap.
            handle._graph = None  # type: ignore[assignment]
            shared.close()
            shared.unlink()

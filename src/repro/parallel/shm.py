"""Publish an immutable CSR graph in POSIX shared memory.

The parallel engine's whole point is that workers never receive the
graph by value: the parent copies ``indptr``/``indices`` into two
:class:`multiprocessing.shared_memory.SharedMemory` segments exactly
once, and every worker attaches zero-copy numpy views over the same
physical pages.  A billion-edge CSR therefore costs one copy total, not
one per worker, and fork start-up stays O(1) in the graph size.

Lifecycle discipline is the sharp edge of ``/dev/shm``: a segment
outlives every process that forgets to ``unlink`` it.  :class:`SharedCSR`
makes the ownership explicit — the *publisher* owns the names and must
``unlink``; *attachers* only ``close`` their mappings — and the engine
wraps the publish in ``try/finally`` so no code path leaks a segment
(the ``/dev/shm`` hygiene tests of ``tests/test_parallel_determinism.py``
enforce this).
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.graph import Graph

__all__ = ["CSRHandle", "SharedCSR"]


@dataclass(frozen=True)
class CSRHandle:
    """Picklable description of a published CSR: names, dtypes, lengths.

    This is the only thing that crosses the process boundary; workers
    rebuild zero-copy array views from it via :meth:`SharedCSR.attach`.
    """

    indptr_name: str
    indices_name: str
    indptr_len: int
    indices_len: int
    dtype: str = "int64"


def _copy_into_segment(array: np.ndarray) -> shared_memory.SharedMemory:
    """One shared segment holding *array*'s bytes (size >= 1 always).

    ``SharedMemory`` rejects zero-byte segments, so the empty-graph case
    allocates one byte and relies on the handle's length field.
    """
    # Ownership of the fresh segment transfers to the caller
    # (SharedCSR.publish), whose callers release it via SharedCSR.close()
    # + SharedCSR.unlink() — publish itself unwinds partial failures.
    segment = shared_memory.SharedMemory(create=True,
                                         size=max(1, array.nbytes))
    if array.nbytes:
        view = np.frombuffer(segment.buf, dtype=array.dtype,
                             count=len(array))
        view[:] = array
        del view  # an exported buffer view would block segment.close()
    return segment


class SharedCSR:
    """A CSR graph whose arrays live in shared memory.

    Two roles, one class:

    * :meth:`publish` (parent) — copy a :class:`Graph`'s arrays into
      fresh segments; the instance *owns* them and must :meth:`unlink`.
    * :meth:`attach` (worker) — map existing segments by name; the
      instance only ever :meth:`close`\\ s its local mapping.

    Views handed out by :attr:`indptr` / :attr:`indices` are read-only:
    the graph is immutable by contract and a worker scribbling on shared
    pages would corrupt every sibling.
    """

    def __init__(self, handle: CSRHandle,
                 segments: tuple[shared_memory.SharedMemory, ...],
                 *, owner: bool):
        self.handle = handle
        self._segments = segments
        self.owner = owner
        self._closed = False
        dtype = np.dtype(handle.dtype)
        self._indptr = np.frombuffer(segments[0].buf, dtype=dtype,
                                     count=handle.indptr_len)
        self._indices = np.frombuffer(segments[1].buf, dtype=dtype,
                                      count=handle.indices_len)
        self._indptr.flags.writeable = False
        self._indices.flags.writeable = False

    # -- construction --------------------------------------------------------

    @classmethod
    def publish(cls, graph: Graph) -> "SharedCSR":
        """Copy *graph*'s CSR arrays into new shared segments (owner)."""
        indptr = np.ascontiguousarray(graph.indptr, dtype=np.int64)
        indices = np.ascontiguousarray(graph.indices, dtype=np.int64)
        segments: list[shared_memory.SharedMemory] = []
        try:
            for array in (indptr, indices):
                segments.append(_copy_into_segment(array))
        # Cleanup-and-reraise: even KeyboardInterrupt must not leak a
        # /dev/shm segment.  # lint: ignore[error-types]
        except BaseException:
            # Partial publish: release what was allocated, then re-raise —
            # a half-published graph must not survive in /dev/shm.
            for segment in segments:
                segment.close()
                segment.unlink()
            raise
        handle = CSRHandle(
            indptr_name=segments[0].name,
            indices_name=segments[1].name,
            indptr_len=len(indptr),
            indices_len=len(indices),
        )
        # Publisher maps its own writable copies through the same buffers;
        # re-wrap read-only like any attacher.
        return cls(handle, tuple(segments), owner=True)

    @classmethod
    def attach(cls, handle: CSRHandle) -> "SharedCSR":
        """Map an already-published CSR by name (non-owner, zero-copy)."""
        first = shared_memory.SharedMemory(name=handle.indptr_name)
        try:
            second = shared_memory.SharedMemory(name=handle.indices_name)
        # Cleanup-and-reraise: drop the first mapping whatever went
        # wrong with the second.  # lint: ignore[error-types]
        except BaseException:
            first.close()
            raise
        return cls(handle, (first, second), owner=False)

    # -- views ---------------------------------------------------------------

    @property
    def indptr(self) -> np.ndarray:
        self._check_open()
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        self._check_open()
        return self._indices

    def graph(self) -> Graph:
        """A :class:`Graph` over the shared arrays (no copy, no re-check)."""
        return Graph(self.indptr, self.indices, validate=False)

    @property
    def segment_names(self) -> tuple[str, str]:
        """The ``/dev/shm`` names backing this CSR (for leak audits)."""
        return (self.handle.indptr_name, self.handle.indices_name)

    def _check_open(self) -> None:
        if self._closed:
            raise ConfigurationError("SharedCSR is closed")

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Drop the local mapping (safe to call twice).

        The numpy views must be released before the mmap can close —
        ``BufferError: cannot close exported pointers exist`` otherwise.
        """
        if self._closed:
            return
        self._closed = True
        self._indptr = None  # type: ignore[assignment]
        self._indices = None  # type: ignore[assignment]
        for segment in self._segments:
            segment.close()

    def unlink(self) -> None:
        """Remove the segments from the system (owner only)."""
        if not self.owner:
            raise ConfigurationError(
                "only the publishing SharedCSR may unlink its segments"
            )
        for segment in self._segments:
            segment.unlink()

    def __enter__(self) -> "SharedCSR":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
        if self.owner:
            self.unlink()

"""Buffer manager: fixed frame budget, pin counts, LRU replacement.

OPT splits its memory budget of ``m`` pages into an internal area (``m_in``
frames, pinned for the duration of an iteration) and an external area
(``m_ex`` frames cycling through candidate pages).  Both areas share one
:class:`BufferManager`: the OPT driver pins internal pages, and the page
loading order (Algorithm 4, descending page ids) makes the external pages
needed by the *next* internal chunk the most recently used — so LRU keeps
them resident and the next iteration's loads become buffer hits (the
paper's saved I/O ``Δin``).

A frame is a row of the caller's pool, one ``(capacity, stride)`` array
of page bytes: the manager decides which page lives in which row and
when a row is reused, the loader puts a page's bytes into its row, and
the caller decodes the rows it is handed.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Callable, Sequence

from repro.errors import BufferError_
from repro.obs import EventTracer, MetricsRegistry

__all__ = ["BufferManager", "Frame"]


@dataclass(slots=True)
class Frame:
    """One buffer frame: page *pid*, held in row *row* of the pool."""

    pid: int
    row: int
    pin_count: int = 0
    #: The buffer's access clock when the page was last asked for.
    used_at: int = 0


class BufferManager:
    """A page buffer with *capacity* frames and LRU replacement.

    The frames are the rows ``0 .. capacity - 1`` of a pool the caller
    owns.  ``loader(pids, rows)`` must put page ``pids[i]`` into pool row
    ``rows[i]``; every miss is handed to it exactly once, a run's misses
    (:meth:`get_run`) in one call.  A page keeps its row while it is
    resident, and an evicted page's row goes to the page that evicted
    it.  Hits, misses, and evictions count through the ``buffer.*``
    counters of *registry* (a private registry when none is given) so the
    engines can report the paper's ``Δin`` (reads absorbed by
    buffering); the historical ``hits`` / ``misses`` / ``evictions``
    attributes remain available as properties.

    The victim is the unpinned page asked for longest ago.  Finding it
    does not walk past the pinned ones (OPT keeps a whole chunk pinned
    while thousands of pages cycle through the rest): every access stamps
    its frame with a clock, a frame whose pin count falls to zero is
    pushed on a heap under its stamp, and entries that a later access, a
    pin or an eviction has overtaken are dropped when they surface.
    """

    def __init__(self, capacity: int,
                 loader: Callable[[Sequence[int], Sequence[int]], None],
                 *, registry: MetricsRegistry | None = None,
                 tracer: EventTracer | None = None):
        if capacity < 1:
            raise BufferError_("buffer capacity must be at least one frame")
        self.capacity = capacity
        self._loader = loader
        self._frames: dict[int, Frame] = {}
        #: Rows no frame holds; the next one handed out is the last.
        self._free_rows = list(range(capacity - 1, -1, -1))
        self._clock = 0
        #: ``(used_at, pid)`` of frames as they became evictable.
        self._evictable: list[tuple[int, int]] = []
        # Hits and evictions are stamped with the wall clock; a sim-clock
        # tracer would drop them (its timeline comes from the replay).
        self._tracer = (tracer if tracer is not None and tracer.enabled
                        and tracer.clock == "wall" else None)
        self.registry = registry if registry is not None else MetricsRegistry()
        self._hits = self.registry.counter("buffer.hits")
        self._misses = self.registry.counter("buffer.misses")
        self._evictions = self.registry.counter("buffer.evictions")

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    @property
    def evictions(self) -> int:
        return self._evictions.value

    # -- queries -----------------------------------------------------------

    def __contains__(self, pid: int) -> bool:
        return pid in self._frames

    @property
    def num_resident(self) -> int:
        return len(self._frames)

    @property
    def num_pinned(self) -> int:
        return sum(1 for frame in self._frames.values() if frame.pin_count > 0)

    def resident_pages(self) -> list[int]:
        """Page ids currently buffered, least recently used first."""
        return sorted(self._frames, key=lambda pid: self._frames[pid].used_at)

    # -- core operations ------------------------------------------------------

    def get(self, pid: int, *, pin: bool = False) -> Frame:
        """Return the frame for *pid*, loading it on a miss.

        Marks the frame most-recently-used.  With ``pin=True`` the frame's
        pin count is incremented and the page becomes ineligible for
        eviction until unpinned the same number of times.
        """
        (frame,), _ = self.get_run((pid,))
        if not pin:
            self._release(frame)
        return frame

    def get_run(self, pids: Sequence[int]) -> tuple[list[Frame], list[bool]]:
        """Pin the pages *pids*, in order; the misses load in one batch.

        Returns the frames and, per page, whether it was a hit.  Each
        page is looked up, made most-recently-used and given a row
        (evicting the least recently used unpinned page) exactly as by
        ``get(pid, pin=True)`` page after page; only the loader runs
        once, for all the misses, afterwards, and the ``buffer.*``
        counters move once, by the run's totals.  As long as the run is
        no longer than the frames the caller leaves unpinned, pinning it
        whole changes no victim: a run's earlier pages are the most
        recently used, the last LRU would pick.  The caller unpins every
        page of the run when it is done with it.
        """
        frames: list[Frame] = []
        hits: list[bool] = []
        missing: list[Frame] = []
        resident = self._frames
        tracer = self._tracer
        clock = self._clock
        free_rows = self._free_rows
        found = misses = evicted = 0
        try:
            for pid in pids:
                frame = resident.get(pid)
                if frame is None:
                    hits.append(False)
                    misses += 1
                    if free_rows:
                        row = free_rows.pop()
                    else:
                        row = self._evict()
                        evicted += 1
                    frame = resident[pid] = Frame(pid, row)
                    missing.append(frame)
                else:
                    hits.append(True)
                    found += 1
                    if tracer is not None:
                        tracer.instant("buffer.hit", pid=pid)
                clock += 1
                frame.used_at = clock
                frame.pin_count += 1
                frames.append(frame)
            if missing:
                self._loader([frame.pid for frame in missing],
                             [frame.row for frame in missing])
        # Whatever went wrong, nothing is delivered: a frame that never
        # got its page is not resident and its row is free again, the run
        # holds no page, and the error goes on to the caller.
        # lint: ignore[error-types]
        except BaseException:
            for frame in missing:
                del resident[frame.pid]
                free_rows.append(frame.row)
            for frame in frames:
                if frame.pid in resident:
                    self._release(frame)
            raise
        finally:
            self._clock = clock
            if misses:
                self._misses.inc(misses)
            if found:
                self._hits.inc(found)
            if evicted:
                self._evictions.inc(evicted)
        return frames, hits

    def pin(self, pid: int) -> None:
        """Increment the pin count of a resident page."""
        try:
            self._frames[pid].pin_count += 1
        except KeyError:
            raise BufferError_(f"cannot pin non-resident page {pid}") from None

    def unpin(self, pid: int) -> None:
        """Decrement the pin count; raises on over-unpin."""
        try:
            frame = self._frames[pid]
        except KeyError:
            raise BufferError_(f"cannot unpin non-resident page {pid}") from None
        if frame.pin_count <= 0:
            raise BufferError_(f"page {pid} is not pinned")
        self._release(frame)

    def flush(self) -> None:
        """Drop every unpinned frame (used between independent runs)."""
        self._free_rows.extend(frame.row for frame in self._frames.values()
                               if not frame.pin_count)
        self._frames = {pid: frame for pid, frame in self._frames.items()
                        if frame.pin_count}
        self._evictable.clear()

    # -- internals ------------------------------------------------------------

    def _release(self, frame: Frame) -> None:
        """Drop one pin; at zero the frame becomes a candidate victim."""
        frame.pin_count -= 1
        if frame.pin_count == 0:
            if len(self._evictable) > 2 * self.capacity + 16:
                # Hits leave their overtaken entries behind unpopped.
                self._evictable = [(other.used_at, other.pid)
                                   for other in self._frames.values()
                                   if other.pin_count == 0]
                heapify(self._evictable)
            else:
                heappush(self._evictable, (frame.used_at, frame.pid))

    def _evict(self) -> int:
        """Evict the least recently used unpinned page; returns its row."""
        while self._evictable:
            used_at, pid = heappop(self._evictable)
            frame = self._frames.get(pid)
            if (frame is not None and frame.pin_count == 0
                    and frame.used_at == used_at):
                del self._frames[pid]
                if self._tracer is not None:
                    self._tracer.instant("buffer.evict", pid=pid)
                return frame.row
        raise BufferError_(
            f"all {self.capacity} frames pinned; cannot load another page"
        )

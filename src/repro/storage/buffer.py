"""Buffer manager: fixed frame budget, pin counts, LRU replacement.

OPT splits its memory budget of ``m`` pages into an internal area (``m_in``
frames, pinned for the duration of an iteration) and an external area
(``m_ex`` frames cycling through candidate pages).  Both areas share one
:class:`BufferManager`: the OPT driver pins internal pages, and the page
loading order (Algorithm 4, descending page ids) makes the external pages
needed by the *next* internal chunk the most recently used — so LRU keeps
them resident and the next iteration's loads become buffer hits (the
paper's saved I/O ``Δin``).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import BufferError_
from repro.obs import EventTracer, MetricsRegistry
from repro.storage.page import PageBlock

__all__ = ["BufferManager", "Frame"]


@dataclass
class Frame:
    """One buffer frame holding a decoded page."""

    pid: int
    records: PageBlock
    pin_count: int = 0
    dirty: bool = False
    stats: dict = field(default_factory=dict)


class BufferManager:
    """A page buffer with *capacity* frames and LRU replacement.

    ``loader(pid)`` must return the decoded records of page *pid*; it is
    invoked exactly once per miss.  Hits, misses, and evictions count
    through the ``buffer.*`` counters of *registry* (a private registry
    when none is given) so the engines can report the paper's ``Δin``
    (reads absorbed by buffering); the historical ``hits`` / ``misses`` /
    ``evictions`` attributes remain available as properties.
    """

    def __init__(self, capacity: int, loader: Callable[[int], PageBlock],
                 *, registry: MetricsRegistry | None = None,
                 tracer: EventTracer | None = None):
        if capacity < 1:
            raise BufferError_("buffer capacity must be at least one frame")
        self.capacity = capacity
        self._loader = loader
        self._frames: OrderedDict[int, Frame] = OrderedDict()
        self._tracer = tracer if tracer is not None and tracer.enabled else None
        self.registry = registry if registry is not None else MetricsRegistry()
        self._hits = self.registry.counter("buffer.hits")
        self._misses = self.registry.counter("buffer.misses")
        self._evictions = self.registry.counter("buffer.evictions")
        # Live occupancy for the telemetry pipeline; kept in step with
        # every resident-set mutation.
        self._resident = self.registry.gauge("buffer.resident")

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
        return list(self._frames)

    # -- core operations ------------------------------------------------------

    def get(self, pid: int, *, pin: bool = False) -> Frame:
        """Return the frame for *pid*, loading it on a miss.

        Marks the frame most-recently-used.  With ``pin=True`` the frame's
        pin count is incremented and the page becomes ineligible for
        eviction until unpinned the same number of times.
        """
        frame = self._frames.get(pid)
        if frame is not None:
            self._hits.inc()
            if self._tracer is not None:
                self._tracer.instant("buffer.hit", pid=pid)
            self._frames.move_to_end(pid)
        else:
            self._misses.inc()
            self._ensure_free_frame()
            frame = Frame(pid, self._loader(pid))
            self._frames[pid] = frame
            self._resident.set(len(self._frames))
        if pin:
            frame.pin_count += 1
        return frame

    def install(self, pid: int, records: PageBlock, *, pin: bool = False) -> Frame:
        """Install an externally loaded page (async-read completion path)."""
        frame = self._frames.get(pid)
        if frame is None:
            self._ensure_free_frame()
            frame = Frame(pid, records)
            self._frames[pid] = frame
            self._resident.set(len(self._frames))
        else:
            self._frames.move_to_end(pid)
        if pin:
            frame.pin_count += 1
        return frame

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
        frame.pin_count -= 1

    def flush(self) -> None:
        """Drop every unpinned frame (used between independent runs)."""
        for pid in [p for p, f in self._frames.items() if f.pin_count == 0]:
            del self._frames[pid]
        self._resident.set(len(self._frames))

    # -- internals ------------------------------------------------------------

    def _ensure_free_frame(self) -> None:
        if len(self._frames) < self.capacity:
            return
        for pid, frame in self._frames.items():  # LRU order
            if frame.pin_count == 0:
                del self._frames[pid]
                self._evictions.inc()
                self._resident.set(len(self._frames))
                if self._tracer is not None:
                    self._tracer.instant("buffer.evict", pid=pid)
                return
        raise BufferError_(
            f"all {self.capacity} frames pinned; cannot load another page"
        )

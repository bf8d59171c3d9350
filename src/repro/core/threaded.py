"""Real-thread OPT execution against an on-disk page file.

Where :func:`repro.core.engine.triangulate_disk` charges costs to the
discrete-event simulator, this engine runs the paper's thread structure
for real.  It is the same code — :func:`repro.core.framework._drive` —
over a different page feed: :class:`_AsyncFeed` hands every read to a
:class:`~repro.storage.ssd.ThreadedSSD`, so the *main thread* issues the
reads, assembles the chunk and finds internal triangles (Algorithms 3
and 5), while the SSD's *callback thread* runs the driver's two
callbacks — candidate identification per arrived window of fill pages,
external triangulation per arrived window of candidate pages
(Algorithms 7 and 9) — and re-issues the request list (Algorithm 9's
atomic issue).  ``os.pread`` releases the GIL, so the I/O genuinely
overlaps the main thread's Python CPU work; the two CPU streams
interleave under the GIL (real multi-core speed-up is what the
discrete-event engine models).

Triangle counts are exact and wall-clock ``elapsed`` is real time — used
by the correctness tests and the quickstart, not by the paper-figure
benchmarks.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from pathlib import Path
from typing import Sequence

from repro.core.engine import _result, resolve_plugin
from repro.core.framework import OnWindow, OPTConfig, _drive
from repro.core.plugins import IteratorPlugin
from repro.errors import ConfigurationError
from repro.graph.graph import Graph
from repro.memory.base import TriangleSink, TriangulationResult, emit_block
from repro.obs import NO_CONTEXT, RunContext
from repro.storage.faults import FaultyPageFile
from repro.storage.layout import GraphStore
from repro.storage.page import DEFAULT_PAGE_SIZE, PageBlock
from repro.storage.ssd import ThreadedSSD
from repro.util import ragged

__all__ = ["triangulate_threaded"]


class _LockedSink:
    """Serializes emissions from the main and callback threads."""

    def __init__(self, inner: TriangleSink):
        self._inner = inner
        self._lock = threading.Lock()

    def emit(self, u, v, ws):
        with self._lock:
            self._inner.emit(u, v, ws)

    def emit_block(self, block):
        with self._lock:
            emit_block(self._inner, block)


def triangulate_threaded(
    source: Graph | GraphStore,
    directory: str | Path,
    *,
    plugin: IteratorPlugin | str = "edge-iterator",
    buffer_pages: int = 8,
    page_size: int = DEFAULT_PAGE_SIZE,
    io_workers: int = 4,
    window: int = 4,
    sink: TriangleSink | None = None,
    ctx: RunContext = NO_CONTEXT,
) -> TriangulationResult:
    """Run OPT with real threads and real file I/O.

    *directory* receives the materialized page file; ``buffer_pages`` is
    split evenly into internal and external areas as in the paper, and
    ``window`` bounds the outstanding external read requests (the
    external area's frame count in flight).

    *ctx* is the run's :class:`~repro.obs.RunContext` (the fields are
    documented there); this engine consumes all but ``attribution``, and
    — its timeline being real time — refuses a sim-clock tracer.
    Specific to this engine: the fault plan is injected *for real*
    through a :class:`~repro.storage.faults.FaultyPageFile` (sleeps,
    raised errors, corrupted bytes), reads whose completion is
    lost (``dropped_callback`` / ``stall`` faults, which *require* a
    ``retry_policy.timeout``) are reclaimed at the iteration barrier and
    degraded to a synchronous re-read, and an exhausted policy surfaces
    from ``wait_idle``; the tracer gets the main thread's ``fill`` /
    ``internal`` / ``iteration`` slices plus the SSD's ``read.submit`` /
    ``read.service`` / ``read.callback`` events, one Perfetto track per
    thread; and the report's ``cost_conformance`` compares measured wall
    time with ``Cost_OPTserial``.
    """
    ctx.accept("triangulate_threaded", "report", "trace", "fault_plan",
               "retry_policy", "checkpoint", wall_clock=True)
    if buffer_pages < 2:
        raise ConfigurationError("buffer must hold at least two pages")
    plugin = resolve_plugin(plugin)
    if plugin.rescan_all:
        raise ConfigurationError(
            "the threaded engine implements OPT's overlapped request list; "
            "full-rescan plugins (MGT) use synchronous streaming — run them "
            "through triangulate_disk instead"
        )
    report = ctx.report
    if isinstance(source, GraphStore):
        store = source
    else:
        with ctx.span("pack", page_size=page_size):
            store = GraphStore.from_graph(source, page_size)
    config = OPTConfig(m_in=buffer_pages // 2, m_ex=window, plugin=plugin)
    locked_sink = _LockedSink(sink) if sink is not None else None
    if report is not None:
        report.meta.update(
            engine="triangulate_threaded", plugin=plugin.name,
            num_pages=store.num_pages, buffer_pages=buffer_pages,
            io_workers=io_workers, window=window,
        )

    start = time.perf_counter()
    page_file = store.open_page_file(directory)
    try:
        device = (FaultyPageFile(page_file, ctx.fault_plan, tracer=ctx.trace)
                  if ctx.fault_plan is not None else page_file)
        with ThreadedSSD(device, store.decode_images, io_workers=io_workers,
                         registry=ctx.registry,
                         retry_policy=ctx.retry_policy,
                         tracer=ctx.trace) as ssd:
            run_trace = _drive(store, config, locked_sink, ctx,
                               lambda _frames: _AsyncFeed(ssd, window))
            pages_read = ssd.pages_read
    finally:
        page_file.close()
    elapsed = time.perf_counter() - start
    if report is not None:
        report.gauge("run.elapsed_wall").set(elapsed)
    return _result(
        run_trace, elapsed,
        {"engine": "threaded", "store": store, "trace": run_trace},
        ctx=ctx, basis="wall", pages_read=pages_read)


class _AsyncFeed:
    """Asynchronous page arrival through :class:`ThreadedSSD` callbacks.

    Every ``on_pages`` runs on the SSD's single callback thread, which
    serializes them, and is handed every completion that was queued when
    the thread got to it — one window, at most ``window`` pages for a
    request list, since no more are ever in flight.  :meth:`fill`
    returns once all its pages have been delivered; :meth:`request`
    returns as soon as the first ``window`` reads are issued — the rest
    of the list is re-issued from the callback thread, overlapping
    whatever the caller does next — and :meth:`finish` is the iteration
    barrier.  Holds no frames: a delivered page lives as long as the
    caller keeps its records.
    """

    def __init__(self, ssd: ThreadedSSD, window: int):
        self._ssd = ssd
        self._window_size = window

    def _window(self, held: list, block, pid: int) -> list:
        """Add one completion to *held* and take the window: all of them,
        or none yet while more completions wait behind this one (each
        comes through here in turn).  Callback thread only."""
        held.append((block, pid))
        if self._ssd.completions_waiting:
            return []
        window = held[:]
        held.clear()
        return window

    @staticmethod
    def _hand_over(window: list, on_pages: OnWindow) -> None:
        """One ``on_pages`` for the window's completions, merged."""
        blocks, pids = zip(*window)
        on_pages(PageBlock.concat(blocks),
                 ragged.from_lengths([len(block) for block in blocks]), pids,
                 [False] * len(window), [0.0] * len(window))

    def fill(self, pids: Sequence[int], on_pages: OnWindow) -> None:
        held: list = []

        def arrive(block, page_id):
            window = self._window(held, block, page_id)
            if window:
                self._hand_over(window, on_pages)

        for pid in pids:
            self._ssd.async_read(pid, arrive, (pid,))
        self._ssd.wait_idle()

    def request(self, pids: Sequence[int], on_pages: OnWindow) -> None:
        ssd = self._ssd
        pending = deque(pids)
        issue_lock = threading.Lock()
        held: list = []

        def deliver(block, page_id):
            window = self._window(held, block, page_id)
            if not window:
                return
            self._hand_over(window, on_pages)
            with issue_lock:  # Algorithm 9's atomic issue of the next requests
                for _ in range(min(len(window), len(pending))):
                    next_pid = pending.popleft()
                    ssd.async_read(next_pid, deliver, (next_pid,))

        with issue_lock:
            for _ in range(min(self._window_size, len(pending))):
                next_pid = pending.popleft()
                ssd.async_read(next_pid, deliver, (next_pid,))

    def finish(self, chunk_pids: Sequence[int]) -> None:
        self._ssd.wait_idle()  # Algorithm 3 line 11

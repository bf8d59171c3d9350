"""The OPT driver: Algorithm 3 with its callbacks (Algorithms 4, 5, 7, 9).

``run_opt`` executes the *real* algorithm against a page store: it fills
the internal area chunk by chunk, identifies external candidate vertices
while loading (Algorithm 7), builds the descending-ordered request list
(Algorithm 4 — so the pages the *next* chunk needs are the last through
the external area and stay buffered, the paper's ``Δin`` saving), finds
internal triangles per page (Algorithm 5) and external triangles per
arrived candidate chunk (Algorithm 9).

There is one iteration body, :func:`_iterate`, and it never reads a page
itself: pages *arrive* through a page feed (``fill(pids, on_pages)``,
``request(ordered_pids, on_pages)``, ``finish(chunk_pids)``), a *window*
at a time — ``on_pages(block, cuts, pids, buffered, delays)`` with up
to ``m_ex`` pages, what the external area holds at once.  The
:class:`_BufferedFeed` here delivers them synchronously through the
buffer manager; :mod:`repro.core.threaded` supplies the asynchronous one,
and with it the same body *is* the paper's macro/micro overlap.

The body works a window at a time on arrays: its pages arrive decoded
into one columnar :class:`~repro.storage.page.PageBlock` with per-page
record cuts, the fill assembles the chunk's pages into one
:class:`~repro.core.context.ChunkContext` (a chunk-local CSR plus
``V_req`` as two sorted arrays), and the plugin resolves each arrived
window — and the whole chunk's internal triangles — in one call, its
per-record and per-pair ops split back onto the pages they belong to.
Triangle groups are materialised only when something consumes them — a
caller's sink or a checkpoint; otherwise the driver adds up the plugin's
hit counts.

The driver produces exact triangles plus a :class:`~repro.sim.trace.RunTrace`
describing every iteration's I/O and per-page CPU cost; the discrete-event
scheduler replays the trace under any core/morphing configuration.  This
separation is what makes a single execution serve a whole speed-up curve.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.core.context import ChunkContext
from repro.core.plugins import EdgeIteratorPlugin, IteratorPlugin
from repro.core.result_store import GroupCaptureSink
from repro.errors import ConfigurationError
from repro.exec.block import charge_by_length, mask_cells
from repro.memory.base import CountSink, TriangleSink, emit_block
from repro.obs import (
    NO_CONTEXT,
    MetricsRegistry,
    RunContext,
    RunReport,
    get_logger,
)
from repro.sim.trace import ExternalRead, IterationTrace, RunTrace
from repro.storage.buffer import BufferManager
from repro.storage.faults import (
    GIVEUPS_METRIC,
    RETRIES_METRIC,
    FaultPlan,
    FaultyPageFile,
    RetryPolicy,
    read_with_retry,
)
from repro.storage.layout import GraphStore
from repro.storage.page import PageBlock
from repro.util import ragged

__all__ = ["OPTConfig", "run_opt"]

logger = get_logger(__name__)

#: ``on_pages(block, cuts, pids, buffered, delays)``: what a feed hands
#: the iteration body per arrived window — the window's pages decoded
#: into one block, page ``pids[j]`` its records ``cuts[j]:cuts[j + 1]``,
#: and per page what only the feed knows (was the read absorbed by a
#: buffer; injected device seconds).
OnWindow = Callable[[PageBlock, np.ndarray, Sequence[int], Sequence[bool],
                     Sequence[float]], None]


@dataclass
class OPTConfig:
    """Static configuration of one OPT run.

    ``m_in`` / ``m_ex`` are the internal- and external-area sizes in
    pages.  The paper splits the memory budget evenly (``m_in = m_ex =
    m / 2``) to maximize the buffering effect of Algorithm 4's load order;
    :meth:`even_split` builds that configuration from a total budget.
    """

    m_in: int
    m_ex: int
    plugin: IteratorPlugin = field(default_factory=EdgeIteratorPlugin)

    def __post_init__(self) -> None:
        if self.m_in < 1 or self.m_ex < 1:
            raise ConfigurationError("m_in and m_ex must be at least one page")

    @classmethod
    def even_split(cls, total_pages: int, plugin: IteratorPlugin | None = None) -> "OPTConfig":
        """Split a total budget of *total_pages* evenly, as the paper does."""
        if total_pages < 2:
            raise ConfigurationError("memory budget must be at least two pages")
        half = total_pages // 2
        return cls(m_in=half, m_ex=total_pages - half,
                   plugin=plugin or EdgeIteratorPlugin())


class _BufferedFeed:
    """Synchronous page arrival through the buffer manager.

    Holds ``max(m_in, largest chunk) + m_ex`` frames, the rows of one
    pool array of page bytes: fill pages stay pinned until
    :meth:`finish`, requested pages cycle through the rest under LRU —
    which is how the saved I/O ``Δin`` arises rather than being assumed.
    Pages are served in runs (:meth:`BufferManager.get_run`: pinned
    together, their misses copied into their rows in one batch, hits /
    misses / evictions those of page after page) — the chunk as one, the
    request list in runs of at most ``m_ex`` pages — and each run's rows,
    hits included, are decoded in one call and handed to one
    ``on_pages`` on the calling thread, so :meth:`request` has delivered
    the whole list, in order, when it comes back.
    """

    def __init__(self, store: GraphStore, config: OPTConfig,
                 internal_frames: int, ctx: RunContext):
        # MGT streams the whole input file once per iteration (its I/O
        # cost bound, Eq. 7): no buffering credit for re-read pages.
        self._credit_hits = not config.plugin.rescan_all
        self._window = config.m_ex
        self._store = store
        capacity = max(config.m_in, internal_frames) + config.m_ex
        self._pool = np.zeros((capacity, store.rows.shape[1]), dtype=np.uint8)
        #: Injected device seconds of the run being loaded, by page.
        self._delays: dict[int, float] = {}
        loader = self._load
        if ctx.fault_plan is not None:
            # The threaded engine's injector and recovery loop over the
            # store itself, on a virtual clock: what it would sleep,
            # the trace is charged.
            self._pages = FaultyPageFile(store, ctx.fault_plan,
                                         sleep=self._charge, tracer=ctx.trace)
            self._policy = (ctx.retry_policy if ctx.retry_policy is not None
                            else RetryPolicy())
            registry = (ctx.registry if ctx.registry is not None
                        else MetricsRegistry())
            self._retries = registry.counter(RETRIES_METRIC)
            self._giveups = registry.counter(GIVEUPS_METRIC)
            self._pending = 0.0
            loader = self._load_faulted
        self._buffer = BufferManager(capacity, loader=loader,
                                     registry=ctx.registry, tracer=ctx.trace)

    def _charge(self, seconds: float) -> None:
        self._pending += seconds

    def _load(self, pids: Sequence[int], rows: Sequence[int]) -> None:
        self._pool[rows] = self._store.rows[pids]

    def _load_faulted(self, pids: Sequence[int], rows: Sequence[int]) -> None:
        """A run's misses under a fault plan: one page, one image per
        attempt, each with the virtual seconds its faults cost; the image
        the checked decoder accepts goes into the page's row."""
        for pid, row in zip(pids, rows):
            def verified(ids, images, row=row):
                blocks = self._store.decode_images(ids, images)
                self._pool[row, :self._store.page_size] = np.frombuffer(
                    images[0], dtype=np.uint8)
                return blocks

            read_with_retry(self._pages, pid, verified, self._policy,
                            self._retries, self._giveups)
            self._delays[pid], self._pending = self._pending, 0.0

    def _deliver(self, run: Sequence[int], on_pages: OnWindow) -> None:
        frames, hits = self._buffer.get_run(run)
        block, cuts = self._store.decode_rows(
            run, self._pool[[frame.row for frame in frames]])
        on_pages(block, cuts, run,
                 hits if self._credit_hits else [False] * len(run),
                 [self._delays.pop(pid, 0.0) for pid in run] if self._delays
                 else [0.0] * len(run))

    def fill(self, pids: Sequence[int], on_pages: OnWindow) -> None:
        # The internal area holds the whole chunk at once: one run.
        self._deliver(pids, on_pages)

    def request(self, pids: Sequence[int], on_pages: OnWindow) -> None:
        for start in range(0, len(pids), self._window):
            run = pids[start:start + self._window]
            self._deliver(run, on_pages)
            for pid in run:
                self._buffer.unpin(pid)

    def finish(self, chunk_pids: Sequence[int]) -> None:
        for pid in chunk_pids:  # Algorithm 3 lines 12-13
            self._buffer.unpin(pid)


def run_opt(
    store: GraphStore,
    config: OPTConfig,
    sink: TriangleSink | None = None,
    *,
    ctx: RunContext = NO_CONTEXT,
) -> RunTrace:
    """Run OPT over *store* and return the trace (with real triangles).

    ``RunTrace.triangles`` is the driver's own count of this run's
    triangles, whatever *sink* is; without a sink (and without a
    checkpoint) no group is built at all.

    Pages arrive through a :class:`_BufferedFeed` of ``m_in + m_ex``
    frames, on the calling thread: candidate identification runs as each
    fill page is delivered, and the request list is served to completion
    before internal triangulation starts.

    *ctx* is the run's :class:`~repro.obs.RunContext` (the fields are
    documented there); the driver consumes every one.  Specific to this
    hop: the report's spans are ``fill`` (reads, with Algorithm 7 run per
    delivered page) → ``identify-candidates`` (Algorithm 4's request
    list) → ``external-triangulation`` (issue the list; the buffered
    feed also serves it here) → ``internal-triangulation`` per
    ``iteration``, and triangles are counted under the phase that found
    them; the main thread's wall-clock ``fill`` / ``internal`` /
    ``iteration`` slices, like the buffer and fault events, are dropped
    by a sim-clock tracer, which gets its timeline from replaying the
    returned trace through :func:`repro.sim.schedule.simulate`; injected
    fault latency is charged to the trace (``fill_delay`` /
    ``ExternalRead.delay``), so that replay shows it; and attribution
    buckets by the record's neighbor-fragment length, conserving the
    trace's ``candidate_ops`` / ``external_ops`` / ``internal_ops``
    exactly.
    """
    ctx.accept("run_opt", "report", "trace", "attribution",
               "fault_plan", "retry_policy", "checkpoint")
    return _drive(store, config, sink, ctx,
                  lambda frames: _BufferedFeed(store, config, frames, ctx))


def _drive(store: GraphStore, config: OPTConfig, sink: TriangleSink | None,
           ctx: RunContext, open_feed: Callable) -> RunTrace:
    """Algorithm 3's outer loop over a page feed: the only OPT driver.

    ``open_feed(internal_frames)`` is called once, after chunk planning,
    with the page count of the largest chunk.  The caller has already
    declared what its engine consumes (``ctx.accept``).
    """
    report = ctx.report
    checkpoint = ctx.checkpoint
    if sink is None and checkpoint is not None:
        sink = CountSink()  # something for the captured groups to pass through
    plugin = config.plugin
    scopes = (None, None, None)
    if ctx.attribution is not None:
        scopes = tuple(
            ctx.attribution.scope(phase=phase, kernel=plugin.name,
                                  source="disk")
            for phase in ("candidate", "external", "internal"))
    if checkpoint is not None:
        checkpoint.bind(num_pages=store.num_pages, plugin=plugin.name,
                        m_in=config.m_in)
    run_trace = RunTrace(num_pages=store.num_pages, m_in=config.m_in,
                         m_ex=1 if plugin.sync_external else config.m_ex,
                         sync_external=plugin.sync_external)
    if store.num_pages == 0:
        return run_trace

    # Pre-compute the chunk boundaries: a chunk may exceed m_in when a
    # single adjacency list spans more pages (DESIGN.md §2), in which case
    # the frame budget grows to hold it — the paper's "internal area must
    # be large enough to load at least one adjacency list".
    chunks: list[tuple[int, int]] = []
    pid = 0
    while pid < store.num_pages:
        end = store.align_chunk_end(pid, config.m_in)
        chunks.append((pid, end))
        pid = end + 1
    feed = open_feed(max(end - start + 1 for start, end in chunks))
    # The chunks' membership mask, all-False between chunks; a run that
    # fails drops it, marks and all.
    mask = np.zeros(mask_cells(store.num_vertices), dtype=bool)

    output_pages_before = getattr(sink, "pages_written", 0)
    with ctx.span("run-opt", plugin=plugin.name, m_in=config.m_in,
                  m_ex=config.m_ex):
        for index, (pid, end) in enumerate(chunks):
            if checkpoint is not None and checkpoint.has(index):
                # Committed by an earlier (failed) run: replay the stored
                # output instead of re-listing the chunk's triangles.
                replayed = checkpoint.replay_into(index, sink)
                run_trace.triangles += replayed
                stored = checkpoint.trace_of(index)
                run_trace.iterations.append(
                    IterationTrace.from_dict(stored) if stored
                    else IterationTrace()
                )
                logger.debug("iteration %d: replayed %d triangles from "
                             "checkpoint", index, replayed)
                if report is not None:
                    # The checkpoint does not keep the phase split; filed
                    # as internal so the phases still sum to the total.
                    report.counter("triangles", phase="internal").inc(replayed)
                    report.counter("recovery.checkpoint.replayed").inc()
                    report.counter("opt.iterations").inc()
                continue
            iteration_sink = (GroupCaptureSink(sink) if checkpoint is not None
                              else sink)
            logger.debug("iteration %d: internal pages %d..%d", index, pid, end)
            with ctx.span("iteration", index=index), \
                    ctx.slice("iteration", index=index):
                iteration, triangles = _iterate(store, plugin, feed, pid, end,
                                                iteration_sink, scopes, ctx,
                                                index, mask)
            run_trace.triangles += triangles

            output_pages_now = getattr(sink, "pages_written", 0)
            iteration.output_pages = output_pages_now - output_pages_before
            output_pages_before = output_pages_now

            if report is not None:
                report.counter("opt.fill.reads").inc(iteration.fill_reads)
                report.counter("opt.fill.buffered").inc(iteration.fill_buffered)
                report.counter("opt.candidate.ops").inc(iteration.candidate_ops)
                report.counter("opt.internal.ops").inc(iteration.internal_ops)
                report.counter("opt.external.ops").inc(iteration.external_ops)
                report.counter("opt.external.reads").inc(
                    iteration.external_device_reads)
                report.counter("opt.external.buffered").inc(
                    iteration.external_buffered)
                report.counter("opt.iterations").inc()

            run_trace.iterations.append(iteration)

            if checkpoint is not None:
                checkpoint.record(index, pid, end, iteration_sink.groups,
                                  iteration_trace=iteration.to_dict())
                if report is not None:
                    report.counter("recovery.checkpoint.saved").inc()

    if report is not None:
        report.counter("opt.pages_read").inc(run_trace.total_device_reads)
        if ctx.fault_plan is not None:
            _fold_fault_log(ctx.fault_plan, report)
    return run_trace


def _iterate(store: GraphStore, plugin: IteratorPlugin, feed, pid: int,
             end: int, sink: TriangleSink | None, scopes: tuple,
             ctx: RunContext, index: int, mask: np.ndarray
             ) -> tuple[IterationTrace, int]:
    """One OPT iteration over internal pages ``pid..end``.

    Returns the iteration's trace and its triangle count; the groups go
    to *sink*, and are materialised only when there is one.  *mask* is
    the run's all-False membership scratch; the chunk marks it and the
    iteration barrier clears it again.

    The two callbacks run wherever the feed delivers pages — the calling
    thread (buffered feed) or the SSD's callback thread (async feed),
    where ``external_triangles`` overlaps the internal triangulation
    below; a feed serializes its deliveries, and ``fill`` / ``finish``
    return only once every page handed to them has been delivered.
    """
    attr_candidate, attr_external, attr_internal = scopes
    report = ctx.report
    collect = sink is not None
    iteration = IterationTrace()
    chunk_pages = range(pid, end + 1)
    _, v_hi = store.chunk_vertex_range(pid, end)
    arrived: list[tuple] = []  # one entry per delivered fill window
    # One writer each: the delivering thread / the calling thread.
    found = {"internal": 0, "external": 0}

    def identify_candidates(window, cuts, page_ids, buffered, delays):
        # Algorithm 7, per delivered window of fill pages: on the async
        # feed this runs while later fill reads are still in flight.
        started = time.perf_counter()
        candidates, requesters, ops = plugin.candidates_for_page(window, v_hi)
        # Deliveries are serialized, and the main path reads only after
        # fill().  # lint: ignore[lockset]
        arrived.append((candidates, requesters, window, cuts, page_ids,
                        buffered, delays))
        # Delivery-side only until fill() returns.  # lint: ignore[lockset]
        iteration.candidate_ops += int(ops.sum())
        if attr_candidate is not None:
            charge_by_length(attr_candidate, window.lengths, ops)
            attr_candidate.charge_time(time.perf_counter() - started)

    # -- fill the internal area (Algorithm 3 lines 6-8) ----------------------
    with ctx.span("fill"), \
            ctx.slice("fill", reads=len(chunk_pages), index=index):
        feed.fill(chunk_pages, identify_candidates)
    candidates, requesters, windows, cuts, page_ids, hits, delays = zip(
        *arrived)
    chunk_block, chunk_cuts, delays = _in_page_order(
        chunk_pages, windows, cuts, page_ids, delays)
    iteration.fill_buffered = sum(map(sum, hits))
    iteration.fill_reads = len(chunk_pages) - iteration.fill_buffered
    iteration.fill_delay = sum(delays)
    # Read-only from here on, the mask's marks included: both phases
    # below share it, on two threads under the async feed.
    chunk = ChunkContext(store, pid, end, chunk_block,
                         np.concatenate(candidates),
                         np.concatenate(requesters), mask)

    # -- build the request list (Algorithm 4) --------------------------------
    with ctx.span("identify-candidates"):
        if plugin.rescan_all:
            ordered = list(range(store.num_pages))
        else:
            # A difference array over page ids: +1 where a candidate's
            # successor pages begin, -1 past where they end.
            first = store.succ_first_page[chunk.candidates]
            has_succ = first >= 0
            past = store.last_page[chunk.candidates[has_succ]] + 1
            marks = (np.bincount(first[has_succ], minlength=store.num_pages + 1)
                     - np.bincount(past, minlength=store.num_pages + 1))
            wanted = marks.cumsum()[:-1] > 0
            wanted[pid:end + 1] = False
            # Descending page ids: the next chunk's pages are loaded last
            # and survive in the external area (the paper's Δin trick).
            ordered = np.flatnonzero(wanted)[::-1].tolist()

    def external_triangles(window, cuts, page_ids, buffered, delays):
        # Algorithm 9, per arrived window of candidate pages.
        records, us, pages = chunk.requests_on(page_ids, cuts)
        page_ops = [0] * len(page_ids)
        if len(us):
            ops, triangles, groups = plugin.external_for_page(
                chunk, window, records, us, collect)
            # Float bincount weights are exact below 2**53.
            page_ops = np.bincount(pages, weights=ops, minlength=len(page_ids)
                                   ).astype(np.int64).tolist()
            # Delivery-side only.  # lint: ignore[lockset]
            found["external"] += triangles
            if collect:
                emit_block(sink, groups)
            if attr_external is not None:
                requested, starts = np.unique(records, return_index=True)
                charge_by_length(attr_external, window.lengths[requested],
                                 np.add.reduceat(ops, starts))
        # Deliveries are serialized; the main path reads external_reads
        # only after finish().  # lint: ignore[lockset]
        iteration.external_reads.extend(map(
            ExternalRead, page_ids, page_ops, buffered, delays))

    # -- delegate the external triangulation ---------------------------------
    with ctx.span("external-triangulation"):
        phase_started = time.perf_counter()
        feed.request(ordered, external_triangles)
        if attr_external is not None:
            attr_external.charge_time(time.perf_counter() - phase_started)

    # -- internal triangulation (Algorithm 5, the whole chunk) ---------------
    with ctx.span("internal-triangulation"), ctx.slice("internal", index=index):
        phase_started = time.perf_counter()
        ops, triangles, groups = plugin.internal_for_page(chunk, chunk_block,
                                                          collect)
        iteration.internal_page_ops = ragged.row_sums(chunk_cuts,
                                                      ops).tolist()
        found["internal"] += triangles
        if collect:
            emit_block(sink, groups)
        if attr_internal is not None:
            charge_by_length(attr_internal, chunk_block.lengths, ops)
            attr_internal.charge_time(time.perf_counter() - phase_started)

    # -- iteration barrier (Algorithm 3 lines 11-13) -------------------------
    feed.finish(chunk_pages)
    chunk.release()  # no callback can probe past the barrier
    if report is not None:
        for phase, count in found.items():
            if count:
                report.counter("triangles", phase=phase).inc(count)
    return iteration, sum(found.values())


def _in_page_order(chunk_pages: range, windows: Sequence[PageBlock],
                   cuts: Sequence[np.ndarray], page_ids: Sequence[Sequence[int]],
                   delays: Sequence[Sequence[float]]
                   ) -> tuple[PageBlock, np.ndarray, list[float]]:
    """The fill's windows as one block of the chunk's pages in page order,
    its cuts, and the pages' delays in that order.

    The buffered feed delivers the chunk as one window, in order, which
    comes back as it is; only windows that arrived out of page order
    (the async feed) are cut into pages and sorted.
    """
    ids = [pid for window_ids in page_ids for pid in window_ids]
    per_page = [delay for window_delays in delays for delay in window_delays]
    if ids == list(chunk_pages):
        if len(windows) == 1:
            return windows[0], cuts[0], per_page
        records = np.concatenate([cut[1:] - cut[:-1] for cut in cuts])
    else:
        pages = [page for window, cut in zip(windows, cuts)
                 for page in window.split(cut)]
        order = sorted(range(len(ids)), key=ids.__getitem__)
        windows = [pages[at] for at in order]
        records = [len(page) for page in windows]
        per_page = [per_page[at] for at in order]
    return PageBlock.concat(windows), ragged.from_lengths(records), per_page


def _fold_fault_log(fault_plan: FaultPlan, report: RunReport) -> None:
    """Mirror the plan's injection log into the report's registry.

    Each ``inject:<kind>`` tally from the event log becomes the
    ``faults.injected{kind=...}`` counter, so the RunReport alone tells
    what the plan actually did.  FaultPlans are single-run objects: reuse
    one across runs and these counts would double.
    """
    for key, value in fault_plan.log.counts().items():
        if key.startswith("inject:"):
            kind = key.split(":", 1)[1]
            counter = report.counter("faults.injected", kind=kind)
            delta = value - counter.value
            if delta > 0:
                counter.inc(delta)

"""The process-parallel triangulation engine.

Execution model (the process-pool analogue of thread morphing,
Section 3.4 of the paper):

1. the parent publishes the CSR graph into shared memory once
   (:class:`repro.parallel.shm.SharedCSR`) and plans degree-balanced
   vertex chunks (:func:`repro.parallel.chunks.plan_chunks`), finer than
   the worker count;
2. every pool member claims the next chunk index from one shared
   cursor.  The caller is worker ``w0``: it forks ``workers − 1``
   workers ``w1 …``, which attach the shared CSR zero-copy, and then
   claims chunks itself — no core idles while the others work.
   Everyone claims until the plan is spent.  The round-robin "fair
   share" of chunk ``i`` is worker ``i % workers`` — a worker executing
   someone else's chunk is the *steal* that morphing performs with
   threads;
3. each worker binds the kernel once (the binding keeps the ``hash``
   mask across the worker's chunks) and runs
   :func:`repro.exec.engine.run_range` per chunk, shipping one row per
   chunk: its index, range, triangles, ops, groups and its start and
   end on the caller's ``perf_counter`` clock;
4. the caller folds, once the segment is released: triangle groups
   emitted to the sink chunk by chunk, in chunk order (so output is
   identical for every worker count), kernel branch tallies summed,
   attribution snapshots merged into the run's table, and every
   ``parallel.*`` counter, chunk-time observation and trace event
   derived from the rows, worker by worker in claim order, onto a
   ``parallel/w<id>`` track per worker.  The caller's own rows never
   cross a pipe.

Steps 1–4 are :func:`_pool`, of which steps 2–3 are :func:`run_chunks`,
the only place in ``src/`` that forks.  :func:`triangulate_parallel` and
:class:`repro.exec.executors.ProcessExecutor` are both thin callers of
:func:`_pool`, so they share the plan, the pool and the fold.  Each
child writes its heartbeats and then its report to one pipe that only
it writes.  Between its chunks the caller takes one non-blocking look
at the children (heartbeats and the silence check); once the
plan is spent it waits on their pipes and exits for the reports.  A
worker that dies without reporting (SIGKILL, OOM-kill) ends its pipe,
which the caller sees at once, and raises :class:`ParallelError`
naming it.

Determinism contract: the chunk plan, per-chunk triangle groups, and all
op counts depend only on the graph — never on scheduling.  Only
``parallel.steals`` and the wall-clock figures are scheduling-dependent,
and the determinism tests compare snapshots with exactly those excluded.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from dataclasses import dataclass, field
from functools import partial
from multiprocessing.connection import wait
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.errors import ConfigurationError, ParallelError
from repro.exec.block import NO_GROUPS, GroupBlock, block_range
from repro.exec.engine import EngineOutcome, run_range
from repro.exec.kernels import HashKernel
from repro.exec.protocols import Kernel
from repro.exec.sources import MemorySource, SharedMemorySource
from repro.graph.graph import Graph
from repro.memory.base import TriangleSink, TriangulationResult, emit_block
from repro.obs.context import NO_CONTEXT, RunContext
from repro.parallel.chunks import default_chunk_count, plan_chunks
from repro.parallel.heartbeat import Heartbeat, HeartbeatMonitor, StragglerPolicy
from repro.parallel.shm import SharedCSR

__all__ = [
    "ParallelResult",
    "WorkerReport",
    "count_chunk",
    "run_chunks",
    "triangulate_parallel",
]

#: ``(chunk_index, lo, hi, triangles, ops, groups, start, end)`` for one
#: executed chunk; the groups cross a worker's pipe as the kernel built
#: them, four arrays per chunk, and ``start`` / ``end`` are seconds since
#: the run anchor.
ChunkRow = tuple[int, int, int, int, int, GroupBlock, float, float]


def count_chunk(
    indptr: np.ndarray,
    indices: np.ndarray,
    lo: int,
    hi: int,
    collect: bool = False,
    scope=None,
) -> tuple[int, int, GroupBlock]:
    """EdgeIterator≻ over the vertex range ``[lo, hi)``.

    Returns ``(triangles, ops, groups)``; *groups* is empty unless
    *collect*.  Charges exactly the probes the serial
    :func:`repro.memory.edge_iterator.edge_iterator` charges for the
    same vertices (Eq. 3), so summing chunk ops over any partition of
    ``[0, n)`` reproduces the serial total — the conservation property
    tested in ``tests/test_sim_properties.py``.

    *scope* is an optional
    :class:`~repro.obs.attribution.AttributionScope`: each pair's charge
    additionally lands in the degree bucket of ``min(|a|, |b|)``, so the
    attribution cells conserve the returned ``ops`` per chunk — and, by
    integer summation, over any chunk partition.
    """
    graph = Graph(indptr, indices, validate=False)
    return block_range(graph.indptr, graph.indices, graph.succ_start,
                       lo, hi, collect, scope)


@dataclass
class WorkerReport:
    """Everything one worker ships back over its pipe, by pickle: plain
    data and arrays only."""

    worker_id: int
    #: The worker's chunk rows, in claim order.
    results: list[ChunkRow] = field(default_factory=list)
    #: Serialized :class:`~repro.obs.attribution.Attribution` snapshot
    #: (deterministic form), or ``None`` when attribution was off.
    attribution: dict | None = None
    #: The worker's kernel binding ``stats()``: ``{branch: [pairs, ops]}``.
    branches: dict[str, list[int]] = field(default_factory=dict)
    error: str | None = None


@dataclass(frozen=True)
class ParallelResult:
    """Merged view of a parallel run, for introspection and tests."""

    workers: int
    chunk_bounds: tuple[tuple[int, int], ...]
    #: ``chunk_index -> worker_id`` that actually executed it.
    executed_by: tuple[int, ...]
    steals: int
    #: The workers' reports, their chunk rows stripped of groups (the
    #: fold has emitted those).
    worker_reports: tuple[WorkerReport, ...]


def _execute_chunks(
    graph: Graph,
    kernel: Kernel,
    tasks: Iterable[tuple[int, int, int]],
    worker_id: int,
    collect: bool,
    anchor: float,
    coordinate: tuple[str, str, str] | None = None,
    publish: Callable[[Heartbeat], None] | None = None,
    chunk_delay: float = 0.0,
) -> WorkerReport:
    """Run *tasks* (``(index, lo, hi)``) and ship one row per chunk.

    Binds *kernel* once, then calls :func:`repro.exec.engine.run_range`
    per chunk: the binding's scratch (the ``hash`` mask) is allocated by
    the process that runs the chunks, once, and reused by every later
    chunk.

    Every pool worker runs this: the caller as ``w0`` over the task list
    or its claims from the shared cursor, a forked worker over its
    claims.  A row's ``start`` / ``end`` are seconds since *anchor* (a
    caller-side ``perf_counter`` reading), so the events the fold
    derives from them land on the caller's timeline without clock
    negotiation — ``perf_counter`` is one system-wide monotonic clock on
    Linux.

    With *publish* set, a :class:`Heartbeat` is handed to it at start,
    after every chunk, and once more when the plan is spent
    (``done=True``): a forked worker writes it to its pipe, the caller
    folds it into the monitor and takes one non-blocking look at the
    other workers (:meth:`_Pool.beat`).  *chunk_delay* is the slow-worker
    fault-injection hook: seconds slept once before the first claim and
    again inside every chunk (the up-front sleep makes the stall
    deterministic even when the other workers spend the plan first;
    see :class:`StragglerPolicy`).  With a *coordinate* ``(phase,
    kernel, source)``, the worker charges a private attribution table
    under it and ships its deterministic snapshot on the report — cells
    merge by summation, so the folded table is independent of worker
    count and scheduling.
    """
    from repro.obs.attribution import Attribution

    report = WorkerReport(worker_id=worker_id)
    attr_table = attr_scope = None
    if coordinate is not None:
        phase, kernel_name, source = coordinate
        attr_table = Attribution()
        attr_scope = attr_table.scope(phase=phase, kernel=kernel_name,
                                      source=source)
    binding = kernel.bind(graph.num_vertices)

    def beat(done: bool = False) -> None:
        if publish is not None:
            publish(Heartbeat(
                worker_id=worker_id, chunks_done=len(report.results),
                ts=time.perf_counter() - anchor, done=done,
            ))

    beat()
    if chunk_delay > 0.0:
        time.sleep(chunk_delay)
    for index, lo, hi in tasks:
        start = time.perf_counter() - anchor
        if chunk_delay > 0.0:
            time.sleep(chunk_delay)
        triangles, ops, groups = run_range(graph, binding, lo, hi,
                                           collect, scope=attr_scope)
        end = time.perf_counter() - anchor
        report.results.append((index, lo, hi, triangles, ops, groups,
                               start, end))
        beat()
    beat(done=True)
    report.branches = binding.stats()
    if attr_table is not None:
        report.attribution = attr_table.snapshot()
    return report


def _claim(cursor, lock, tasks: Sequence[tuple[int, int, int]],
           look: Callable[[], None] | None = None,
           patience: float = 0.0) -> Iterator[tuple[int, int, int]]:
    """The chunks one pool member claims from the shared *cursor*, one
    index per claim, until the plan is spent.

    With *look* set (the caller), the lock is tried for *patience*
    seconds at a time and *look* runs between tries: a child killed
    while holding the lock then fails the run instead of hanging it.
    """
    while True:
        while not lock.acquire(timeout=None if look is None else patience):
            look()
        index = cursor.value
        cursor.value = index + 1
        lock.release()
        if index >= len(tasks):
            return
        yield tasks[index]


def _worker_main(csr_handle, kernel: Kernel, worker_id: int,
                 collect: bool, anchor: float,
                 coordinate: tuple[str, str, str] | None,
                 tasks: list[tuple[int, int, int]], cursor, lock,
                 conn, beats: bool, chunk_delay: float) -> None:
    """Forked worker entry: attach, claim chunks until the plan is spent,
    write the beats (with *beats*) and then one report to *conn*, the
    pipe only this worker writes."""
    shared = SharedCSR.attach(csr_handle)
    graph = None
    try:
        graph = shared.graph()
        report = _execute_chunks(
            graph, kernel, _claim(cursor, lock, tasks), worker_id,
            collect, anchor, coordinate,
            conn.send if beats else None, chunk_delay,
        )
    # Worker boundary: ANY failure (including KeyboardInterrupt /
    # SystemExit) must reach the parent as an error report; a death this
    # cannot catch (SIGKILL) ends the pipe, which the caller sees.
    # lint: ignore[error-types] worker-to-parent error funnel
    except BaseException as exc:
        report = WorkerReport(worker_id=worker_id,
                              error=f"{type(exc).__name__}: {exc}")
    finally:
        # The Graph wraps the shared buffers; its views must die before
        # close() or the mmap refuses to unmap ("exported pointers exist").
        graph = None
        shared.close()
    conn.send(report)
    conn.close()


class _Pool:
    """The forked workers ``w1 … w{W-1}`` of one :func:`run_chunks` call,
    as the caller — worker ``w0`` — sees them.

    Every member claims chunks from one shared cursor (a ``RawValue``
    and a ``Lock``, allocated before the fork); each child writes its
    beats and then its report to one pipe whose write end only it holds,
    so a beat can never overtake a report.  With one worker nothing is
    forked and nothing is opened: the caller runs the task list alone.
    """

    def __init__(self, workers: int, tasks: list[tuple[int, int, int]],
                 policy: StragglerPolicy, anchor: float,
                 monitor: HeartbeatMonitor | None):
        self.workers = workers
        self.tasks = tasks
        self.policy = policy
        self.anchor = anchor
        self.monitor = monitor
        #: ``worker_id -> Process`` of the started children.
        self.processes: dict = {}
        #: ``worker_id -> Connection``, the read end of the child's pipe.
        self.conns: dict = {}
        self.reports: dict[int, WorkerReport] = {}
        self.cursor = self.lock = None

    def start(self, handle, kernel: Kernel, collect: bool,
              coordinate: tuple[str, str, str] | None) -> None:
        """Allocate the cursor, then fork the children, one pipe each;
        they attach ``handle.csr_handle()``."""
        if self.workers <= 1:
            return
        mp_fork = mp.get_context("fork")
        self.cursor = mp_fork.RawValue("q", 0)
        self.lock = mp_fork.Lock()
        policy = self.policy
        for worker_id in range(1, self.workers):
            reader, writer = mp_fork.Pipe(duplex=False)
            self.conns[worker_id] = reader
            try:
                process = mp_fork.Process(
                    target=_worker_main,
                    args=(handle.csr_handle(), kernel, worker_id, collect,
                          self.anchor, coordinate, self.tasks, self.cursor,
                          self.lock, writer, self.monitor is not None,
                          policy.inject_chunk_delay
                          if policy.inject_worker == worker_id else 0.0),
                    name=f"parallel-w{worker_id}",
                )
                process.start()
            finally:
                # Only the child may hold the write end: then the pipe
                # ends exactly when the child does.
                writer.close()
            self.processes[worker_id] = process

    def claims(self) -> Iterable[tuple[int, int, int]]:
        """What the caller runs: the task list alone, or its claims from
        the cursor the children share."""
        if self.cursor is None:
            return self.tasks
        return _claim(self.cursor, self.lock, self.tasks,
                      partial(self.poll, 0.0), self.policy.poll_interval)

    def beat(self, beat: Heartbeat) -> None:
        """The caller's *publish*: its own beat goes straight into the
        monitor, then one non-blocking :meth:`poll` of the children."""
        if self.monitor is not None:
            self.monitor.observe(beat)
        if self.processes:
            self.poll(0.0)

    def poll(self, timeout: float) -> None:
        """One look: wait at most *timeout* for a child's pipe or exit,
        read what arrived, run the detections.

        A pipe that ends before its report means the child died without
        one (SIGKILL, OOM-kill — nothing its own error funnel can catch):
        :class:`ParallelError` names it as soon as the wait returns.
        With a monitor, a silent child raises :class:`ParallelError` out
        of :meth:`HeartbeatMonitor.check`.
        """
        owners = {}
        for worker_id, process in self.processes.items():
            if worker_id not in self.reports:
                owners[self.conns[worker_id]] = owners[process.sentinel] = \
                    worker_id
        dead = sorted({owners[ready] for ready in wait(list(owners), timeout)
                       if not self._read(owners[ready])})
        if dead:
            for worker_id in dead:
                self.processes[worker_id].join()
            raise ParallelError(
                f"{len(dead)} worker(s) died without reporting: "
                + "; ".join(f"w{worker_id}: exit code "
                            f"{self.processes[worker_id].exitcode}"
                            for worker_id in dead)
            )
        if self.monitor is not None:
            self.monitor.check(time.perf_counter() - self.anchor)

    def _read(self, worker_id: int) -> bool:
        """Read what *worker_id*'s pipe holds, up to its report; ``False``
        when the pipe ends without one."""
        conn = self.conns[worker_id]
        try:
            while worker_id not in self.reports and conn.poll():
                message = conn.recv()
                if isinstance(message, Heartbeat):
                    self.monitor.observe(message)
                    continue
                self.reports[worker_id] = message
                if self.monitor is not None:
                    self.monitor.mark_done(worker_id)
        except EOFError:
            return False
        return True

    def drain(self) -> list[WorkerReport]:
        """Every child's report, in worker order.

        Reports are read before :meth:`close` joins: a child blocks in
        ``send()`` until the caller reads, so the reverse order deadlocks
        on big payloads.
        """
        while len(self.reports) < len(self.processes):
            self.poll(self.policy.poll_interval)
        return [self.reports[worker_id] for worker_id in sorted(self.processes)]

    def close(self) -> None:
        """Stop every child that has not reported, reap them all, release
        the pipes.  A child that reported exits on its own; one that did
        not is failed, hung or blocked writing to a caller that stopped
        reading.  A joined ``Process`` is closed at once, so its sentinel
        is released now rather than whenever the object is collected."""
        for worker_id, process in self.processes.items():
            if worker_id not in self.reports and process.is_alive():
                process.terminate()
        for process in self.processes.values():
            process.join()
            process.close()
        for conn in self.conns.values():
            conn.close()


def run_chunks(
    handle,
    kernel: Kernel,
    chunk_bounds: Sequence[tuple[int, int]],
    workers: int,
    collect: bool,
    anchor: float,
    coordinate: tuple[str, str, str] | None = None,
    monitor: HeartbeatMonitor | None = None,
) -> tuple[list[WorkerReport], list[ChunkRow]]:
    """Run *kernel* over every chunk with a pool of cursor-claiming workers.

    The one process pool, and the caller is its worker ``w0``: *handle*
    is an open CSR-backed :class:`~repro.exec.protocols.SourceHandle`;
    ``workers − 1`` forked workers ``w1 …`` (:func:`_pool` asks for at
    most one worker per chunk) attach ``handle.csr_handle()`` and claim
    ``(index, lo, hi)`` tasks from one shared cursor until the plan is
    spent, while the caller claims from the same cursor over
    ``handle.csr_graph()``, taking one non-blocking look at the children
    between its chunks and waiting on their pipes for the reports once
    the plan is spent.  With one worker nothing is forked and the caller
    runs the task list alone.
    *anchor* is the caller's ``perf_counter`` epoch for worker
    timestamps; *coordinate* is as in :func:`_execute_chunks`; with a
    *monitor* the children write heartbeats to their pipes, and every
    look at them runs its detections (:meth:`_Pool.poll`).

    Returns the worker reports in worker order and every chunk's row in
    chunk order — vertex order, so the groups in row order are a pure
    function of the graph, whatever the workers did.  Raises
    :class:`ParallelError` when a worker (the caller included) failed,
    died, or the rows do not account for every planned chunk, and
    :class:`ConfigurationError` when the monitor's policy would stall the
    caller; pipes and workers are released on every path.
    """
    tasks = [(index, lo, hi) for index, (lo, hi) in enumerate(chunk_bounds)]
    policy = monitor.policy if monitor is not None else StragglerPolicy()
    if workers > 1 and policy.inject_worker == 0:
        raise ConfigurationError(
            "StragglerPolicy.inject_worker=0 would stall the caller, which "
            "runs worker 0 and watches the others; name a forked worker "
            f"(1 to {workers - 1})"
        )
    pool = _Pool(workers, tasks, policy, anchor, monitor)
    try:
        pool.start(handle, kernel, collect, coordinate)
        # The caller's frames hold views of the shared segment, which
        # cannot unmap while a traceback keeps them alive: whatever is
        # raised in them leaves this block as a fresh exception.
        try:
            own = _execute_chunks(handle.csr_graph(), kernel, pool.claims(),
                                  0, collect, anchor, coordinate,
                                  pool.beat)
            failure = None
        except ParallelError as exc:  # a look at the children: one failed
            failure = ParallelError(str(exc))
        # The caller's own chunk failed: reported like a child's error.
        # lint: ignore[error-types] worker error funnel, as _worker_main's
        except Exception as exc:
            failure = ParallelError(
                f"1 worker(s) failed: w0: {type(exc).__name__}: {exc}")
        # An interrupt stays an interrupt, without the traceback.
        # lint: ignore[error-types] re-raised below
        except BaseException as exc:
            failure = type(exc)(*exc.args)
        if failure is not None:
            raise failure
        reports = [own, *pool.drain()]
    finally:
        pool.close()

    failures = [(report.worker_id, report.error)
                for report in reports if report.error]
    if failures:
        detail = "; ".join(f"w{wid}: {err}" for wid, err in failures)
        raise ParallelError(f"{len(failures)} worker(s) failed: {detail}")
    rows = sorted((row for report in reports for row in report.results),
                  key=lambda row: row[0])
    if len(rows) != len(tasks):
        raise ParallelError(
            f"chunk accounting mismatch: planned {len(tasks)}, "
            f"executed {len(rows)}"
        )
    return reports, rows


def _pool(
    source,
    kernel: Kernel,
    coordinate: tuple[str, str, str],
    straggler: StragglerPolicy | None,
    *,
    workers: int,
    collect: bool,
    ctx: RunContext,
    sink: TriangleSink | None = None,
    chunks: int | None = None,
) -> tuple[EngineOutcome, ParallelResult]:
    """Plan, run and fold one pool call: what both callers of the pool
    share.

    Opens *source*, plans its CSR into *chunks* ranges (by default
    :func:`default_chunk_count` for *workers*) and runs
    :func:`run_chunks` with ``min(workers, chunks)`` members — watched
    by a :class:`HeartbeatMonitor` when *straggler* is set and a worker
    is forked; workers charge attribution under *coordinate* when
    ``ctx.attribution`` is set.  The source is released before the
    fold, which runs once, in chunk then worker order, so every step is
    deterministic: each chunk's groups, kept in order on the outcome's
    ``blocks``, go to *sink* when one is given — vertex order, whatever
    the workers did; each worker's branch tally is summed into
    the outcome and its attribution snapshot merged into
    ``ctx.attribution``.  Every other signal is derived from the rows,
    worker by worker in claim order: a ``parallel.chunk.elapsed``
    observation per chunk into ``ctx.report`` and its ``parallel.chunk``
    slice (after a ``parallel.steal`` instant when the chunk was stolen)
    onto ``ctx.trace``'s timeline, then the ``parallel.chunks`` /
    ``.ops`` / ``.steals`` and ``triangles{phase=parallel}`` totals,
    each key present even at 0.
    """
    trace = ctx.trace
    attribution = ctx.attribution
    with source.open() as handle:
        # No local holds the graph: a shared-memory segment cannot unmap
        # while views of it exist.
        ranges = plan_chunks(handle.csr_graph(), default_chunk_count(
            handle.csr_graph(), workers) if chunks is None else chunks)
        workers = min(workers, len(ranges))
        monitor = None
        if straggler is not None and workers > 1:
            monitor = HeartbeatMonitor(straggler, workers=workers,
                                       registry=ctx.registry, tracer=trace)
        anchor = time.perf_counter()
        anchor_rel = trace.now() if trace is not None else 0.0
        reports, rows = run_chunks(
            handle, kernel, ranges, workers, collect, anchor,
            coordinate if attribution is not None else None, monitor)

    merge_started = trace.now() if trace is not None else 0.0
    blocks = tuple(row[5] for row in rows)
    if sink is not None:
        for block in blocks:
            emit_block(sink, block)
    registry = ctx.registry
    elapsed = (registry.histogram("parallel.chunk.elapsed")
               if registry is not None else None)
    branches: dict[str, list[int]] = {}
    executed_by: dict[int, int] = {}
    steals = 0
    for report in reports:
        worker_id = report.worker_id
        track = f"parallel/w{worker_id}"
        for index, lo, hi, triangles, ops, _, start, end in report.results:
            executed_by[index] = worker_id
            owner = index % workers
            steals += owner != worker_id
            if elapsed is not None:
                elapsed.observe(end - start)
            if trace is not None:
                if owner != worker_id:
                    trace.instant("parallel.steal", ts=anchor_rel + end,
                                  track=track, chunk=index, owner=owner)
                trace.complete("parallel.chunk", anchor_rel + start,
                               end - start, track=track, chunk=index,
                               lo=lo, hi=hi, triangles=triangles, ops=ops)
        # The groups live on in the outcome's blocks only: the retained
        # report keeps each chunk's index and figures.
        report.results = [(*row[:5], NO_GROUPS, *row[6:])
                          for row in report.results]
        for branch, (pairs, ops) in report.branches.items():
            cell = branches.setdefault(branch, [0, 0])
            cell[0] += int(pairs)
            cell[1] += int(ops)
        if attribution is not None and report.attribution is not None:
            attribution.merge_snapshot(report.attribution)
    outcome = EngineOutcome(
        triangles=sum(row[3] for row in rows),
        cpu_ops=sum(row[4] for row in rows),
        blocks=blocks, chunks=len(rows), branches=branches)
    if registry is not None:
        registry.counter("parallel.chunks").inc(len(rows))
        registry.counter("parallel.ops").inc(int(outcome.cpu_ops))
        registry.counter("parallel.steals").inc(steals)
        registry.counter("triangles", phase="parallel").inc(
            int(outcome.triangles))
    if trace is not None:
        trace.complete("parallel.merge", merge_started,
                       trace.now() - merge_started,
                       workers=workers, chunks=len(rows))
    return outcome, ParallelResult(
        workers=workers, chunk_bounds=tuple(ranges),
        executed_by=tuple(executed_by[row[0]] for row in rows),
        steals=steals, worker_reports=tuple(reports))


def triangulate_parallel(
    graph: Graph,
    *,
    workers: int = 2,
    chunks: int | None = None,
    ordering: str | None = None,
    sink: TriangleSink | None = None,
    straggler: StragglerPolicy | None = None,
    ctx: RunContext = NO_CONTEXT,
) -> TriangulationResult:
    """List all triangles of *graph* with *workers* processes.

    Parameters
    ----------
    graph:
        The input graph; published once into shared memory, never
        pickled per worker.
    workers:
        Process count, the caller included: ``workers − 1`` are forked.
        ``1`` runs the identical chunked pipeline in-process (no fork, no
        shared memory) — the reference point the differential tests
        compare higher worker counts against.
    chunks:
        Chunk count of the plan the workers claim from; defaults to
        :func:`repro.parallel.chunks.default_chunk_count` (4x
        oversubscription so idle workers have something to steal).
    ordering:
        Optional vertex relabeling applied before the run (an
        :class:`~repro.graph.ordering.Ordering` name; ``"auto"``
        resolves through
        :func:`~repro.graph.ordering.choose_ordering`).  Emitted
        triangle groups then carry the *relabeled* ids; the resolved
        name lands in ``extra["ordering"]`` and the report meta.
        ``None`` (default) runs the graph as given — callers that
        already ordered their input keep byte-identical behavior.
    sink:
        Optional receiver of nested ``<u, v, {w...}>`` groups, emitted
        in deterministic chunk order; without one no group is built.
    straggler:
        Optional :class:`StragglerPolicy`, the one switch for heartbeat
        monitoring: forked workers publish progress beats (counted in
        ``parallel.heartbeats``), and with a ``deadline`` set a silent
        worker raises :class:`ParallelError` promptly instead of hanging
        the join.  Monitoring is fully off by default — the determinism
        contract of plain runs is untouched.
    ctx:
        The run's :class:`~repro.obs.RunContext` (the fields are
        documented there); this engine consumes ``report``, ``trace``
        (wall clock only) and ``attribution``.  The workers' chunk rows
        are folded into the report's registry (``parallel.*`` counters,
        per-phase ``triangles``) next to the parent-side
        ``parallel.workers`` / ``run.elapsed_wall`` gauges; worker
        slices land on one ``parallel/w<id>`` tracer track each; and
        workers charge private attribution tables under
        ``(parallel, hash, shm)`` that the parent folds in worker order,
        the parent's own wall time being attributed separately (excluded
        from the deterministic snapshot).

    Returns the usual :class:`TriangulationResult`; ``extra["parallel"]``
    carries the merged :class:`ParallelResult`.
    """
    ctx.accept("triangulate_parallel", "report", "trace", "attribution",
               wall_clock=True)
    if workers < 1:
        raise ConfigurationError("workers must be >= 1")
    if chunks is not None and chunks < 1:
        raise ConfigurationError("chunks must be >= 1")
    resolved_ordering: str | None = None
    if ordering is not None:
        from repro.graph.ordering import Ordering, apply_ordering, choose_ordering

        resolved = Ordering(ordering)
        if resolved is Ordering.AUTO:
            resolved = choose_ordering(graph)
        graph, _ = apply_ordering(graph, resolved)
        resolved_ordering = resolved.value
    report = ctx.report
    start_wall = time.perf_counter()
    # One worker runs in-process and needs no segment.
    outcome, parallel_result = _pool(
        SharedMemorySource(graph) if workers > 1 else MemorySource(graph),
        HashKernel(), ("parallel", "hash", "shm"), straggler,
        workers=workers, collect=sink is not None, ctx=ctx, sink=sink,
        chunks=chunks)
    elapsed = time.perf_counter() - start_wall
    if ctx.attribution is not None:
        ctx.attribution.scope(phase="parallel", kernel="hash",
                              source="shm").charge_time(elapsed)
    extra = {
        "workers": parallel_result.workers,
        "chunks": list(parallel_result.chunk_bounds),
        "steals": parallel_result.steals,
        "parallel": parallel_result,
    }
    if resolved_ordering is not None:
        extra["ordering"] = resolved_ordering
    if report is not None:
        if resolved_ordering is not None:
            report.meta.setdefault("parallel.ordering", resolved_ordering)
        report.gauge("parallel.workers").set(parallel_result.workers)
        report.gauge("run.elapsed_wall").set(elapsed)
        extra["report"] = report
    return TriangulationResult(
        triangles=outcome.triangles,
        cpu_ops=outcome.cpu_ops,
        elapsed=elapsed,
        extra=extra,
    )

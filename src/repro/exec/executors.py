"""Execution strategies: the Executor axis of the composition layer.

All three executors run the same :func:`repro.exec.engine.run_range`
loop and merge chunk results in range order, so triangles, op counts,
and emitted groups are identical across the axis — only wall time and
I/O locality differ.  That invariance is what the scenario matrix's
conservation checks pin down.

* :class:`SerialExecutor` — one range, one loop; the reference cell.
* :class:`ThreadedExecutor` — a thread pool over oversubscribed vertex
  ranges.  Under CPython this overlaps I/O (the disk source's page
  reads) rather than CPU, mirroring the paper's threaded OPT; each task
  reads through ``fork_local()`` so stateful read paths stay
  single-threaded internally.
* :class:`ProcessExecutor` — a forked pool attaching the source's
  shared-memory CSR per task.  Requires a shareable source; the
  registry marks other combinations invalid rather than pickling whole
  graphs across the boundary.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from repro.errors import ConfigurationError
from repro.exec.engine import EngineOutcome, run_range, split_ranges
from repro.exec.protocols import Kernel, Source
from repro.exec.sources import _GraphHandle

__all__ = ["OVERSUBSCRIPTION", "ProcessExecutor", "SerialExecutor",
           "ThreadedExecutor"]

#: Chunks per worker — same 4x morphing sweet spot as
#: :mod:`repro.parallel.chunks`.
OVERSUBSCRIPTION = 4


def _merge_io(totals: dict[str, int], stats: dict[str, int]) -> None:
    for key, value in stats.items():
        totals[key] = totals.get(key, 0) + int(value)


def _merge_branches(totals: dict[str, list[int]],
                    stats: dict[str, list[int]]) -> None:
    """Fold one binding's ``{branch: [pairs, ops]}`` tally into *totals*.

    Integer sums, so the merged tally is independent of chunking and
    scheduling — the same invariance the op-conservation checks pin.
    """
    for branch, (pairs, ops) in stats.items():
        cell = totals.get(branch)
        if cell is None:
            totals[branch] = [int(pairs), int(ops)]
        else:
            cell[0] += int(pairs)
            cell[1] += int(ops)


def _scope_for(attribution, source: Source, kernel: Kernel):
    """The ``(exec, kernel, source)`` charging scope, or ``None``.

    Every executor charges the same coordinate, so the merged table is
    identical across the executor axis — the attribution analogue of the
    triangles/ops invariance the scenario matrix pins.
    """
    if attribution is None:
        return None
    return attribution.scope(phase="exec", kernel=kernel.name,
                             source=source.name)


class SerialExecutor:
    """The whole vertex range in one in-process loop."""

    name = "serial"
    requires_shareable = False

    def execute(self, source: Source, kernel: Kernel, *,
                collect: bool, attribution=None) -> EngineOutcome:
        with source.open() as handle:
            binding = kernel.bind(handle.num_vertices)
            triangles, ops, groups = run_range(
                handle, binding, 0, handle.num_vertices, collect,
                scope=_scope_for(attribution, source, kernel))
            return EngineOutcome(triangles=triangles, cpu_ops=ops,
                                 groups=groups, chunks=1,
                                 io=dict(handle.io_stats()),
                                 branches=binding.stats())


class ThreadedExecutor:
    """A thread pool over oversubscribed contiguous vertex ranges."""

    name = "threaded"
    requires_shareable = False

    def __init__(self, workers: int = 2):
        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        self.workers = workers

    def execute(self, source: Source, kernel: Kernel, *,
                collect: bool, attribution=None) -> EngineOutcome:
        from repro.obs.attribution import Attribution

        with source.open() as handle:
            ranges = split_ranges(handle.num_vertices,
                                  self.workers * OVERSUBSCRIPTION)
            if not ranges:
                return EngineOutcome(io=dict(handle.io_stats()))
            num_vertices = handle.num_vertices

            def job(bounds: tuple[int, int]):
                lo, hi = bounds
                local = handle.fork_local()
                binding = kernel.bind(num_vertices)
                # Each task charges its own table; the parent folds them
                # in range order — integer cells sum, so the merged
                # table is independent of scheduling and worker count.
                table = Attribution() if attribution is not None else None
                triangles, ops, groups = run_range(
                    local, binding, lo, hi, collect,
                    scope=_scope_for(table, source, kernel))
                return (triangles, ops, groups, local.io_stats(), table,
                        binding.stats())

            outcome = EngineOutcome(chunks=len(ranges))
            with ThreadPoolExecutor(max_workers=self.workers) as pool:
                for (triangles, ops, groups, stats, table,
                     branches) in pool.map(job, ranges):
                    outcome.triangles += triangles
                    outcome.cpu_ops += ops
                    outcome.groups.extend(groups)
                    _merge_io(outcome.io, stats)
                    _merge_branches(outcome.branches, branches)
                    if table is not None:
                        attribution.merge(table)
            return outcome


def _process_job(args) -> tuple[int, int, list, dict | None, dict]:
    """Forked worker body: attach, run one range, detach.

    *attr_source* is the source name to attribute under, or ``None``
    when the parent did not ask for attribution; the worker's table
    crosses the process boundary as a plain-dict snapshot, and the
    binding's per-branch tally as a plain dict.
    """
    csr_handle, kernel_name, lo, hi, collect, attr_source = args
    from repro.exec import registry
    from repro.obs.attribution import Attribution
    from repro.parallel.shm import SharedCSR

    shared = SharedCSR.attach(csr_handle)
    graph = None
    try:
        graph = shared.graph()
        kernel = registry.make_kernel(kernel_name)
        binding = kernel.bind(graph.num_vertices)
        table = Attribution() if attr_source is not None else None
        scope = (table.scope(phase="exec", kernel=kernel_name,
                             source=attr_source)
                 if table is not None else None)
        triangles, ops, groups = run_range(_GraphHandle(graph), binding,
                                           lo, hi, collect, scope=scope)
        snapshot = table.snapshot() if table is not None else None
        return triangles, ops, groups, snapshot, binding.stats()
    finally:
        # Views into the shared buffers must die before close().
        graph = None
        shared.close()


class ProcessExecutor:
    """A forked process pool over a shareable (shared-memory) source."""

    name = "process"
    requires_shareable = True

    def __init__(self, workers: int = 2):
        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        self.workers = workers

    def execute(self, source: Source, kernel: Kernel, *,
                collect: bool, attribution=None) -> EngineOutcome:
        import multiprocessing as mp

        with source.open() as handle:
            csr_handle = handle.csr_handle()
            if csr_handle is None:
                raise ConfigurationError(
                    f"source {source.name!r} is not attachable across "
                    "processes; use the shared-memory source"
                )
            ranges = split_ranges(handle.num_vertices,
                                  self.workers * OVERSUBSCRIPTION)
            if not ranges:
                return EngineOutcome(io=dict(handle.io_stats()))
            attr_source = source.name if attribution is not None else None
            jobs = [(csr_handle, kernel.name, lo, hi, collect, attr_source)
                    for lo, hi in ranges]
            ctx = mp.get_context("fork")
            outcome = EngineOutcome(chunks=len(ranges))
            with ctx.Pool(processes=min(self.workers, len(jobs))) as pool:
                for (triangles, ops, groups, snapshot,
                     branches) in pool.map(_process_job, jobs):
                    outcome.triangles += triangles
                    outcome.cpu_ops += ops
                    outcome.groups.extend(groups)
                    _merge_branches(outcome.branches, branches)
                    if snapshot is not None:
                        attribution.merge_snapshot(snapshot)
            outcome.io = dict(handle.io_stats())
            return outcome

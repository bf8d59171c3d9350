"""Execution strategies: the Executor axis of the composition layer.

Both executors run the same :func:`repro.exec.engine.run_range` loop
and merge chunk results in range order, so triangles, op counts, and
emitted groups are identical across the axis — only wall time differs.
That invariance is what the scenario matrix's conservation checks pin
down.

* :class:`SerialExecutor` — one range, one loop; the reference cell.
* :class:`ProcessExecutor` — the worker pool of
  :func:`repro.parallel.engine.run_chunks` over the degree-balanced,
  oversubscribed chunk plan of :func:`repro.parallel.chunks.plan_chunks`:
  the caller is worker 0 and forks the rest, each of which attaches the
  source's published CSR; every worker binds the kernel once, then
  claims ranges from one shared cursor.  Requires a shareable
  source; the registry marks other combinations invalid rather than
  pickling whole graphs across the boundary.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.errors import ConfigurationError
from repro.exec.block import GroupBlock
from repro.exec.engine import EngineOutcome, run_range
from repro.exec.protocols import Kernel, Source, SourceHandle
from repro.obs.context import NO_CONTEXT, RunContext
from repro.parallel.chunks import default_chunk_count, plan_chunks

__all__ = ["ProcessExecutor", "SerialExecutor"]


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


def _fold(results: Sequence[tuple[int, int, GroupBlock]]) -> EngineOutcome:
    """One outcome from every range's ``(triangles, ops, groups)``, given
    in range order: the sums, and the blocks concatenated once."""
    triangles, ops, blocks = zip(*results)
    return EngineOutcome(triangles=sum(triangles), cpu_ops=sum(ops),
                         groups=GroupBlock.concat(blocks),
                         chunks=len(results))


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


def _plan(handle: SourceHandle, workers: int) -> list[tuple[int, int]]:
    """The process executor's chunk plan, as ``triangulate_parallel`` plans.

    A function of its own so that no caller's frame keeps the handle's
    graph alive past ``source.open()``: a shared-memory segment cannot
    unmap while views of it exist.
    """
    graph = handle.csr_graph()
    return plan_chunks(graph, default_chunk_count(graph, workers))


class SerialExecutor:
    """The whole vertex range in one in-process loop."""

    name = "serial"
    requires_shareable = False

    def execute(self, source: Source, kernel: Kernel, *,
                collect: bool, ctx: RunContext = NO_CONTEXT) -> EngineOutcome:
        with source.open() as handle:
            binding = kernel.bind(handle.num_vertices)
            triangles, ops, groups = run_range(
                handle.csr_graph(), binding, 0, handle.num_vertices, collect,
                scope=_scope_for(ctx.attribution, source, kernel))
            return EngineOutcome(triangles=triangles, cpu_ops=ops,
                                 groups=groups, chunks=1,
                                 branches=binding.stats())


class ProcessExecutor:
    """The forked worker pool over a shareable (shared-memory) source."""

    name = "process"
    requires_shareable = True

    def __init__(self, workers: int = 2):
        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        self.workers = workers

    def execute(self, source: Source, kernel: Kernel, *,
                collect: bool, ctx: RunContext = NO_CONTEXT) -> EngineOutcome:
        # Deferred: repro.parallel.engine imports this package.
        from repro.parallel.engine import run_chunks

        attribution = ctx.attribution
        with source.open() as handle:
            if handle.csr_handle() is None:
                raise ConfigurationError(
                    f"source {source.name!r} is not attachable across "
                    "processes; use the shared-memory source"
                )
            ranges = _plan(handle, self.workers)
            # Workers ship plain-dict table snapshots and branch tallies;
            # integer cells, so the fold is scheduling-independent.
            reports, rows = run_chunks(
                handle, kernel, ranges, self.workers, collect,
                time.perf_counter(),
                ("exec", kernel.name, source.name)
                if attribution is not None else None,
            )
            outcome = _fold([row[3:] for row in rows])
            for report in reports:
                _merge_branches(outcome.branches, report.branches)
                if report.attribution is not None:
                    attribution.merge_snapshot(report.attribution)
            return outcome

"""Execution strategies: the Executor axis of the composition layer.

Both executors run the same :func:`repro.exec.engine.run_range` loop
and merge chunk results in range order, so triangles, op counts, and
emitted groups are identical across the axis — only wall time differs.
That invariance is what the scenario matrix's conservation checks pin
down.

* :class:`SerialExecutor` — one range, one loop; the reference cell.
* :class:`ProcessExecutor` — the pool call
  :func:`repro.parallel.engine.triangulate_parallel` makes, through the
  same private ``_pool``: the same degree-balanced, oversubscribed chunk
  plan, the same worker pool (the caller is worker 0 and forks the rest,
  each of which attaches the source's published CSR, binds the kernel
  once and claims ranges from one shared cursor) and the same fold of
  the workers' branch tallies and attribution and registry snapshots.
  Its outcome carries one group block per range.  Requires a shareable
  source; the registry marks other combinations invalid rather than
  pickling whole graphs across the boundary.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.exec.engine import EngineOutcome, run_range
from repro.exec.protocols import Kernel, Source
from repro.obs.context import NO_CONTEXT, RunContext

__all__ = ["ProcessExecutor", "SerialExecutor"]


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
                collect: bool, ctx: RunContext = NO_CONTEXT) -> EngineOutcome:
        with source.open() as handle:
            binding = kernel.bind(handle.num_vertices)
            triangles, ops, groups = run_range(
                handle.csr_graph(), binding, 0, handle.num_vertices, collect,
                scope=_scope_for(ctx.attribution, source, kernel))
            return EngineOutcome(triangles=triangles, cpu_ops=ops,
                                 blocks=(groups,), chunks=1,
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
        from repro.parallel.engine import _pool

        if not source.shareable:
            raise ConfigurationError(
                f"source {source.name!r} is not attachable across "
                "processes; use the shared-memory source"
            )
        outcome, _ = _pool(source, kernel,
                           ("exec", kernel.name, source.name), None,
                           workers=self.workers, collect=collect, ctx=ctx)
        return outcome

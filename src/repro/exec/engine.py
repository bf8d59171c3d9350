"""The composed engine: one edge-iterator loop, three pluggable axes.

:func:`run_range` is the single triangle-listing loop every composition
executes — EdgeIterator≻ (Algorithm 2) over a half-open vertex range
of a CSR :class:`~repro.graph.graph.Graph`, intersecting successor
lists through a kernel binding.  Because every triangle is
listed at its minimum vertex, any partition of ``[0, n)`` enumerates
disjoint triangle sets, chunk results merge by concatenation in range
order, and the per-pair op charges are identical no matter who executes
which range — the conservation property the scenario matrix asserts.

:func:`compose` assembles ``(source, kernel, executor)`` — instances or
registry names — into an :class:`Engine` after validating the cell
against :func:`repro.exec.registry.cell_validity`, so an impossible
combination fails loudly with the same reason string the test grid
reports as a skip.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.exec.block import GroupBlock, block_range
from repro.memory.base import TriangleSink, TriangulationResult, emit_block
from repro.obs.context import NO_CONTEXT, RunContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.protocols import Executor, Kernel, Source
    from repro.graph.graph import Graph

__all__ = ["Engine", "EngineOutcome", "compose", "run_range"]


@dataclass
class EngineOutcome:
    """What an executor hands back to :meth:`Engine.run`."""

    triangles: int = 0
    cpu_ops: int = 0
    #: Every group listed, one block per range, in range order; empty
    #: blocks unless asked to collect.
    blocks: tuple[GroupBlock, ...] = ()
    chunks: int = 0
    #: Per-branch ``{branch: [pairs, ops]}`` from the kernel bindings'
    #: ``stats()`` — empty for fixed-path kernels, populated by the
    #: adaptive kernel's selector.  Integer cells, so chunk results
    #: merge by summation regardless of executor.
    branches: dict[str, list[int]] = field(default_factory=dict)


def run_range(
    graph: "Graph",
    binding,
    lo: int,
    hi: int,
    collect: bool,
    scope=None,
) -> tuple[int, int, GroupBlock]:
    """EdgeIterator≻ over ``[lo, hi)`` through one kernel binding.

    Charges the kernel's own count for every edge ``(u, v)`` with ``u``
    in range, including pairs with empty intersections.

    *scope* is an optional
    :class:`~repro.obs.attribution.AttributionScope`; when given, every
    pair's op charge additionally lands in the degree bucket of
    ``min(|n_succ(u)|, |n_succ(v)|)`` — the probed side, the quantity
    Eq. 3 charges — so the attribution table's per-bucket sums conserve
    the returned ``ops`` exactly.

    The ``hash`` binding has no per-pair form:
    :func:`repro.exec.block.block_range` resolves its range a block of
    edges at a time, with the analytic ``min(|n_succ(u)|, |n_succ(v)|)``
    charge, in the mask the binding keeps across ranges (bind once per
    process).  The per-pair loop below serves the other kernels and
    foreign :class:`~repro.exec.protocols.Kernel`
    instances; it packs its groups into the same
    :class:`~repro.exec.block.GroupBlock` once, at the end.
    """
    if binding.name == "hash":
        return block_range(graph.indptr, graph.indices, graph.succ_start,
                           lo, hi, collect, scope, mask=binding.mask())
    triangles = 0
    ops = 0
    groups: list[tuple] = []  # (u, v, the kernel's own common sequence)
    # Per-bucket accumulator (bit_length -> [pairs, ops, triangles]):
    # plain dict updates in the pair loop, one bulk charge at the end —
    # a method call per pair would dominate the attributed run.
    counts: dict[int, list[int]] = {}
    for u in range(lo, hi):
        succ_u = graph.n_succ(u)
        deg_u = len(succ_u)
        if deg_u == 0:
            continue
        prepped = binding.prep(succ_u)
        if scope is None:
            for v in succ_u:
                v = int(v)
                common, pair_ops = binding.intersect(prepped, graph.n_succ(v))
                ops += pair_ops
                if len(common):
                    triangles += len(common)
                    if collect:
                        groups.append((u, v, common))
        else:
            for v in succ_u:
                v = int(v)
                succ_v = graph.n_succ(v)
                common, pair_ops = binding.intersect(prepped, succ_v)
                ops += pair_ops
                found = len(common)
                length = min(deg_u, len(succ_v)).bit_length()
                cell = counts.get(length)
                if cell is None:
                    cell = counts[length] = [0, 0, 0]
                cell[0] += 1
                cell[1] += pair_ops
                cell[2] += found
                if found:
                    triangles += found
                    if collect:
                        groups.append((u, v, common))
    if scope is not None and counts:
        scope.charge_lengths(counts)
    return triangles, ops, GroupBlock.from_groups(groups)


@dataclass(frozen=True)
class Engine:
    """One cell of the Source × Kernel × Executor cube, ready to run."""

    source: "Source"
    kernel: "Kernel"
    executor: "Executor"

    @property
    def cell(self) -> tuple[str, str, str]:
        """The registry coordinates ``(source, kernel, executor)``."""
        return (self.source.name, self.kernel.name, self.executor.name)

    def describe(self) -> str:
        return "+".join(self.cell)

    def run(self, sink: TriangleSink | None = None, *,
            ctx: RunContext = NO_CONTEXT) -> TriangulationResult:
        """Execute the composition; list to *sink* when given.

        *ctx* is the run's :class:`~repro.obs.RunContext`; a composed
        engine consumes its report and attribution.  Per-axis labelled
        counters (``exec.triangles`` / ``exec.ops`` / ``exec.chunks``)
        land in the report's registry so cross-cell comparisons can
        slice by any axis (the process executor also folds its workers'
        ``parallel.*`` counters in); every pair's op charge lands in its ``(exec,
        kernel, source, degree-bucket)`` attribution cell and the
        engine's wall time is attributed to the same coordinate —
        per-bucket ops sum exactly to ``exec.ops``.
        """
        ctx.accept("exec.compose", "report", "attribution")
        report = ctx.report
        attribution = ctx.attribution
        collect = sink is not None
        started = time.perf_counter()
        outcome = self.executor.execute(self.source, self.kernel,
                                        collect=collect, ctx=ctx)
        elapsed = time.perf_counter() - started
        if attribution is not None:
            attribution.scope(phase="exec", kernel=self.kernel.name,
                              source=self.source.name).charge_time(elapsed)
        if sink is not None:
            for block in outcome.blocks:
                emit_block(sink, block)
        source_name, kernel_name, executor_name = self.cell
        extra = {
            "cell": self.describe(),
            "source": source_name,
            "kernel": kernel_name,
            "executor": executor_name,
            "chunks": outcome.chunks,
        }
        if outcome.branches:
            extra["branches"] = {branch: list(cell) for branch, cell
                                 in outcome.branches.items()}
        if report is not None:
            labels = dict(source=source_name, kernel=kernel_name,
                          executor=executor_name)
            # Namespaced meta keys: the CLI already uses "source" for
            # the input path.
            report.meta.update({"engine": "exec.compose",
                                "exec.cell": self.describe()})
            report.counter("exec.triangles", **labels).inc(outcome.triangles)
            report.counter("exec.ops", **labels).inc(outcome.cpu_ops)
            report.counter("exec.chunks", **labels).inc(outcome.chunks)
            # Adaptive-selector decisions, sliceable like any other axis
            # label; per-branch ops sum exactly to the cell's exec.ops.
            for branch, (pairs, branch_ops) in sorted(outcome.branches.items()):
                report.counter("exec.branch.pairs", branch=branch,
                               **labels).inc(pairs)
                report.counter("exec.branch.ops", branch=branch,
                               **labels).inc(branch_ops)
            report.gauge("run.elapsed_wall").set(elapsed)
            extra["report"] = report
        return TriangulationResult(
            triangles=outcome.triangles,
            cpu_ops=outcome.cpu_ops,
            elapsed=elapsed,
            extra=extra,
        )


def compose(
    source,
    kernel,
    executor,
    *,
    graph=None,
    workers: int = 2,
) -> Engine:
    """Assemble an :class:`Engine` from axis instances or registry names.

    String axes resolve through :mod:`repro.exec.registry` (``graph`` is
    required to instantiate a named source).  Invalid cells raise
    :class:`~repro.errors.ConfigurationError` carrying the same reason
    string the scenario matrix records for the skipped cell.
    """
    from repro.exec import registry

    if isinstance(source, str):
        source = registry.make_source(source, graph)
    if isinstance(kernel, str):
        kernel = registry.make_kernel(kernel)
    if isinstance(executor, str):
        executor = registry.make_executor(executor, workers=workers)
    reason = registry.composition_conflict(source, executor)
    if reason is not None:
        raise ConfigurationError(
            f"invalid composition {source.name}+{kernel.name}+{executor.name}: "
            f"{reason}"
        )
    return Engine(source=source, kernel=kernel, executor=executor)

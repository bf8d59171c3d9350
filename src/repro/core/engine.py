"""High-level entry points: run OPT end to end and report results.

``triangulate_disk`` is the main public API of the reproduction: it packs
a graph into slotted pages (or takes a prepared store), runs the real OPT
algorithm, replays the trace on the simulated multi-core/FlashSSD
machine, and returns a :class:`~repro.memory.base.TriangulationResult`
whose ``elapsed`` is simulated seconds.

``ideal_elapsed`` computes the paper's ideal cost — reading the graph
once plus the in-memory CPU cost (Eq. 6) — against which Figure 3a's
relative overhead is measured.
"""

from __future__ import annotations

import math

from repro.core.framework import OPTConfig, run_opt
from repro.core.plugins import (
    EdgeIteratorPlugin,
    IteratorPlugin,
    MGTPlugin,
    VertexIteratorPlugin,
)
from repro.analysis.costs import cost_conformance, io_lower_bound
from repro.errors import ConfigurationError
from repro.graph.graph import Graph
from repro.memory.base import TriangleSink, TriangulationResult
from repro.obs import NO_CONTEXT, RunContext, fold_trace_analytics
from repro.sim.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.sim.schedule import simulate
from repro.sim.trace import RunTrace
from repro.storage.layout import GraphStore
from repro.storage.page import DEFAULT_PAGE_SIZE

__all__ = [
    "PLUGINS",
    "buffer_pages_for_ratio",
    "ideal_elapsed",
    "make_store",
    "resolve_plugin",
    "triangulate_disk",
]

PLUGINS: dict[str, type[IteratorPlugin]] = {
    "edge-iterator": EdgeIteratorPlugin,
    "vertex-iterator": VertexIteratorPlugin,
    "mgt": MGTPlugin,
}


def resolve_plugin(plugin: IteratorPlugin | str) -> IteratorPlugin:
    """Instantiate a plugin from its name (or pass an instance through)."""
    if isinstance(plugin, IteratorPlugin):
        return plugin
    try:
        return PLUGINS[plugin]()
    except KeyError:
        raise ConfigurationError(
            f"unknown plugin {plugin!r}; available: {', '.join(PLUGINS)}"
        ) from None


def make_store(graph: Graph, page_size: int = DEFAULT_PAGE_SIZE) -> GraphStore:
    """Pack *graph* into a page store (vertex-id order)."""
    return GraphStore.from_graph(graph, page_size)


def buffer_pages_for_ratio(store: GraphStore, ratio: float) -> int:
    """Memory budget in pages for a buffer of ``ratio * graph size``.

    Clamped to at least 2 pages (one internal + one external frame).
    """
    if not (math.isfinite(ratio) and ratio > 0):
        raise ConfigurationError(
            f"buffer ratio must be finite and positive, got {ratio}")
    return max(2, int(round(store.num_pages * ratio)))


def triangulate_disk(
    source: Graph | GraphStore,
    *,
    plugin: IteratorPlugin | str = "edge-iterator",
    buffer_ratio: float = 0.15,
    buffer_pages: int | None = None,
    page_size: int = DEFAULT_PAGE_SIZE,
    cost: CostModel = DEFAULT_COST_MODEL,
    cores: int = 1,
    morphing: bool = True,
    serial: bool | None = None,
    sink: TriangleSink | None = None,
    ideal_cpu_ops: int | None = None,
    ctx: RunContext = NO_CONTEXT,
) -> TriangulationResult:
    """Run disk-based OPT triangulation end to end.

    Parameters
    ----------
    source:
        A :class:`Graph` (packed on the fly) or a prepared
        :class:`GraphStore`.
    plugin:
        Iterator instance: ``"edge-iterator"`` (default, the paper's
        fastest), ``"vertex-iterator"``, or ``"mgt"``.
    buffer_ratio / buffer_pages:
        Memory budget as a fraction of the graph's page count, or an
        explicit page count (overrides the ratio).  Split evenly into
        internal and external areas, as in the paper's experiments.
    cores / morphing / serial:
        Simulated execution configuration.  ``serial=None`` auto-selects
        OPT_serial when ``cores == 1``.
    ideal_cpu_ops:
        The in-memory EdgeIterator≻ op count of the same graph, the
        basis of the report's ``overhead_vs_ideal`` (Fig. 3a); defaults
        to the trace's own intersection ops (identical for the
        edge-iterator plugin).
    ctx:
        The run's :class:`~repro.obs.RunContext`; this engine consumes
        every field (``run_opt`` takes them all, the replay takes the
        report and the tracer).

    Returns a :class:`TriangulationResult` whose ``elapsed`` is the
    simulated wall time and whose ``extra`` carries the trace and the
    scheduler result for deeper analysis.
    """
    ctx.accept("triangulate_disk", "report", "trace", "attribution",
               "fault_plan", "retry_policy", "checkpoint")
    report = ctx.report
    plugin = resolve_plugin(plugin)
    if isinstance(source, GraphStore):
        store = source
    else:
        with ctx.span("pack", page_size=page_size):
            store = make_store(source, page_size)
    total = buffer_pages if buffer_pages is not None else buffer_pages_for_ratio(
        store, buffer_ratio
    )
    if plugin.rescan_all:
        # MGT has no internal/external split: the whole buffer (minus one
        # streaming frame) holds the memory graph.
        config = OPTConfig(m_in=max(1, total - 1), m_ex=1, plugin=plugin)
    else:
        config = OPTConfig.even_split(total, plugin=plugin)
    if serial is None:
        serial = cores == 1
    if report is not None:
        report.meta.update(
            engine="triangulate_disk", plugin=plugin.name,
            num_pages=store.num_pages, buffer_pages=total,
            m_in=config.m_in, m_ex=config.m_ex, page_size=store.page_size,
            cores=cores, morphing=morphing, serial=serial,
        )
    run_trace = run_opt(store, config, sink=sink, ctx=ctx)
    with ctx.span("replay", cores=cores):
        sim = simulate(run_trace, cost, cores=cores, morphing=morphing,
                       serial=serial, ctx=ctx.only("report", "trace"))
    if report is not None:
        ideal_ops = (ideal_cpu_ops if ideal_cpu_ops is not None
                     else run_trace.total_ops)
        ideal = ideal_elapsed(store, ideal_ops, cost)
        report.derive("ideal_elapsed", ideal)
        report.derive("elapsed_simulated", sim.elapsed)
        if ideal > 0:
            report.derive("overhead_vs_ideal", sim.elapsed / ideal)
        io_bound = io_lower_bound(store.num_pages, total)
        if io_bound > 0:
            report.derive("io_vs_lower_bound",
                          run_trace.total_device_reads / io_bound)
        report.gauge("run.elapsed_simulated").set(sim.elapsed)
    return _result(
        run_trace, sim.elapsed,
        {"trace": run_trace, "sim": sim, "config": config, "store": store},
        ctx=ctx, cost=cost)


def _result(
    run_trace: RunTrace,
    elapsed: float,
    extra: dict,
    *,
    ctx: RunContext = NO_CONTEXT,
    cost: CostModel = DEFAULT_COST_MODEL,
    basis: str = "simulated",
    pages_read: int | None = None,
) -> TriangulationResult:
    """The result of a run that produced *run_trace* in *elapsed* seconds.

    The tail every OPT engine shares: the Eq. 3 bill and the I/O counts
    come from the trace (*pages_read* overrides the trace's count with a
    device's own), and a report gets the total, the ``cost_conformance``
    of *elapsed* on the given *basis* and the tracer's overlap analytics.
    """
    report = ctx.report
    if ctx.trace is not None:
        extra["tracer"] = ctx.trace
    if report is not None:
        report.counter("triangles", phase="total").inc(run_trace.triangles)
        report.derive("cost_conformance",
                      cost_conformance(run_trace, elapsed, cost, basis=basis))
        if ctx.trace is not None:
            fold_trace_analytics(report, ctx.trace)
        extra["report"] = report
    return TriangulationResult(
        triangles=run_trace.triangles,
        cpu_ops=run_trace.total_ops + run_trace.total_candidate_ops,
        pages_read=(run_trace.total_device_reads if pages_read is None
                    else pages_read),
        pages_buffered=run_trace.total_fill_buffered,
        elapsed=elapsed,
        iterations=len(run_trace.iterations),
        extra=extra,
    )


def ideal_elapsed(
    store: GraphStore,
    cpu_ops: int,
    cost: CostModel = DEFAULT_COST_MODEL,
) -> float:
    """The paper's ideal cost (Eq. 6): read the graph once + CPU.

    *cpu_ops* should be the in-memory EdgeIterator≻ op count of the same
    (relabeled) graph; the read uses the same channel parallelism the
    simulated engines enjoy.
    """
    return cost.read_io(store.num_pages) / cost.channels + cost.cpu(cpu_ops)


def replay(run_trace: RunTrace, cost: CostModel, **kwargs) -> TriangulationResult:
    """Re-schedule an existing trace under a new configuration.

    Accepts the same keyword arguments as :func:`~repro.sim.schedule.simulate`,
    including ``ctx=`` to map the replayed timeline into a run report.
    """
    sim = simulate(run_trace, cost, **kwargs)
    return _result(run_trace, sim.elapsed, {"trace": run_trace, "sim": sim})

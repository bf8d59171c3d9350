"""EdgeIterator≻ — Algorithm 2 of the paper.

For every edge ``(u, v)`` with ``id(u) < id(v)``, every common successor
``w in n_succ(u) ∩ n_succ(v)`` completes the triangle ``(u, v, w)``.  The
ordering constraint lists each triangle exactly once.  With the hash cost
model, one edge costs ``min(|n_succ(u)|, |n_succ(v)|)`` operations and the
total is ``O(alpha * |E|)`` (Eq. 2-5).

This function is a façade over the composition layer: it runs
``compose("memory", "hash", "serial")`` from :mod:`repro.exec`, the
block-batched loop of :func:`repro.exec.block.block_range`.  A caller
that wants another intersection kernel composes its cell directly,
e.g. ``compose("memory", "merge", "serial", graph=g).run()``.
"""

from __future__ import annotations

from repro.graph.graph import Graph
from repro.memory.base import TriangleSink, TriangulationResult

__all__ = ["edge_iterator"]


def edge_iterator(
    graph: Graph,
    sink: TriangleSink | None = None,
) -> TriangulationResult:
    """List all triangles of *graph* with EdgeIterator≻.

    Parameters
    ----------
    graph:
        The (already relabeled, if desired) input graph.
    sink:
        Optional receiver of nested ``<u, v, {w...}>`` groups; without
        one the run counts only and builds no group.

    Returns the triangle count and the CPU op count, the paper's
    analytic probe count.
    """
    from repro.exec.engine import compose

    result = compose("memory", "hash", "serial", graph=graph).run(sink)
    # A pure in-memory run reports triangles and CPU ops only.
    return TriangulationResult(triangles=result.triangles,
                               cpu_ops=result.cpu_ops)

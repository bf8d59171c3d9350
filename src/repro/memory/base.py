"""Triangle sinks and result records shared by all triangulation methods.

The paper outputs triangles in a *nested representation*: all triangles
sharing the same ``(u, v)`` prefix are emitted as one ``<u, v, {w1..wk}>``
group (Section 3.2).  Sinks therefore receive ``(u, v, ws)`` groups rather
than individual triples; a group with ``k`` completions denotes ``k``
triangles.  The engines hand their groups over a block at a time
(:class:`repro.exec.block.GroupBlock`, the columnar form of a group
sequence) through :func:`emit_block`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only; repro.exec imports this module
    from repro.exec.block import GroupBlock

__all__ = [
    "CollectSink",
    "CountSink",
    "TriangleSink",
    "TriangulationResult",
    "canonical_triangles",
    "emit_block",
]


class TriangleSink(Protocol):
    """Receiver for nested triangle groups ``<u, v, {w...}>``.

    A sink may also define ``emit_block(block)``, equivalent to ``emit``
    of every group of the :class:`~repro.exec.block.GroupBlock` in
    order; :func:`emit_block` calls it when it is there.
    """

    def emit(self, u: int, v: int, ws: Sequence[int]) -> None:
        """Record the triangles ``(u, v, w)`` for every ``w`` in *ws*."""


def emit_block(sink: TriangleSink, block: "GroupBlock") -> None:
    """Hand every group of *block* to *sink*, in order.

    The one way an engine emits: the sink's own ``emit_block`` when it
    has one, else one ``emit`` per group.
    """
    own = getattr(sink, "emit_block", None)
    if own is not None:
        own(block)
        return
    for u, v, ws in block:
        sink.emit(u, v, ws)


class CountSink:
    """Counts triangles without materializing them."""

    def __init__(self) -> None:
        self.count = 0

    def emit(self, u: int, v: int, ws: Sequence[int]) -> None:
        self.count += len(ws)

    def emit_block(self, block: "GroupBlock") -> None:
        self.count += block.triangles


class CollectSink:
    """Collects every triangle as a sorted ``(u, v, w)`` tuple."""

    def __init__(self) -> None:
        self.triangles: list[tuple[int, int, int]] = []

    def emit(self, u: int, v: int, ws: Sequence[int]) -> None:
        for w in ws:
            self.triangles.append(tuple(sorted((int(u), int(v), int(w)))))

    def emit_block(self, block: "GroupBlock") -> None:
        a, b, c = (block.us.repeat(block.counts),
                   block.vs.repeat(block.counts), block.ws)
        # Three compare-exchanges sort every (a, b, c) column-wise; a
        # row-wise sort(axis=1) of the same triples is 4x slower.
        a, b = np.minimum(a, b), np.maximum(a, b)
        b, c = np.minimum(b, c), np.maximum(b, c)
        a, b = np.minimum(a, b), np.maximum(a, b)
        self.triangles.extend(zip(a.tolist(), b.tolist(), c.tolist()))

    @property
    def count(self) -> int:
        return len(self.triangles)


def canonical_triangles(sink: CollectSink) -> list[tuple[int, int, int]]:
    """Sorted list of canonical triangles collected by *sink*."""
    return sorted(sink.triangles)


@dataclass
class TriangulationResult:
    """Outcome of a triangulation run.

    ``cpu_ops`` follows the paper's cost measure (intersection probes /
    membership tests).  Disk methods additionally fill the I/O fields and
    the per-iteration ``timeline``; in-memory methods leave them zero.
    """

    triangles: int
    cpu_ops: int = 0
    pages_read: int = 0
    pages_written: int = 0
    pages_buffered: int = 0
    elapsed: float = 0.0
    iterations: int = 0
    extra: dict = field(default_factory=dict)

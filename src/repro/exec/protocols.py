"""The three protocols composed by :func:`repro.exec.compose`.

Each protocol is deliberately tiny — the composition layer only needs
the operations the edge-iterator loop actually performs — so existing
subsystems (:class:`repro.graph.graph.Graph`,
:class:`repro.parallel.shm.SharedCSR`) adapt to them with a few lines
rather than a rewrite.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.obs.context import NO_CONTEXT, RunContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.graph import Graph
    from repro.parallel.shm import CSRHandle

__all__ = ["Executor", "Kernel", "Source", "SourceHandle"]


@runtime_checkable
class SourceHandle(Protocol):
    """An open source: the CSR plus its cross-process descriptor."""

    @property
    def num_vertices(self) -> int: ...

    def csr_graph(self) -> "Graph":
        """The in-process CSR (heap or attached shared memory) that
        :func:`repro.exec.engine.run_range` reads."""
        ...

    def csr_handle(self) -> "CSRHandle | None":
        """Picklable cross-process descriptor, or ``None``.

        Only shareable sources (the shared-memory CSR) return one; the
        process executor refuses a source that is not shareable.
        """
        ...


@runtime_checkable
class Source(Protocol):
    """A graph residence: opens into a :class:`SourceHandle`."""

    name: str
    #: Whether a forked worker process can attach the data zero-copy.
    shareable: bool

    def open(self) -> "SourceContext": ...


class SourceContext(Protocol):
    """Context manager yielded by :meth:`Source.open`."""

    def __enter__(self) -> SourceHandle: ...

    def __exit__(self, *exc_info: object) -> object: ...


@runtime_checkable
class Kernel(Protocol):
    """A per-pair intersection strategy with op accounting."""

    name: str

    def bind(self, num_vertices: int) -> "KernelBinding":
        """Scratch state (e.g. a bitmap) sized for one graph."""
        ...


class KernelBinding(Protocol):
    """Kernel state bound to one graph; drives the inner loop.

    The ``hash`` binding has ``mask()`` in place of ``prep`` /
    ``intersect``: :func:`repro.exec.engine.run_range` hands its ranges
    to :func:`repro.exec.block.block_range`.
    """

    name: str

    def prep(self, row: np.ndarray) -> object:
        """Per-``u`` preparation of the outer successor list."""
        ...

    def intersect(self, prepped: object, row: np.ndarray) -> tuple[Sequence[int], int]:
        """``(common, ops)`` for one ``n_succ(u) ∩ n_succ(v)`` pair."""
        ...

    def stats(self) -> dict[str, list[int]]:
        """Per-branch ``{branch: [pairs, ops]}`` tally (``{}`` for
        fixed-path kernels; the adaptive kernel reports its selector)."""
        ...


@runtime_checkable
class Executor(Protocol):
    """An execution strategy over vertex ranges of a source."""

    name: str
    #: ``True`` when the executor forks and therefore needs a source
    #: whose handle exposes a picklable :meth:`SourceHandle.csr_handle`.
    requires_shareable: bool

    def execute(self, source: Source, kernel: Kernel, *, collect: bool,
                ctx: RunContext = NO_CONTEXT) -> "EngineOutcome":  # noqa: F821
        ...

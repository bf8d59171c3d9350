"""The single registry of engine axes, valid cells, and entry points.

Everything that enumerates engines reads this module:

* ``tests/test_scenario_matrix.py`` generates its differential grid
  from :func:`iter_cells` — every ``(source, kernel, executor)``
  combination appears exactly once, valid cells as executable tests and
  invalid cells as explicit skips carrying :func:`cell_validity`'s
  reason;
* :func:`repro.verify.verify_methods` runs :func:`verification_methods`
  — the thirteen historical engines plus composed exec cells — instead
  of a hand-maintained list;
* the ``engine-composition`` lint rule checks every
  ``TriangulationResult``-returning entry point in the engine packages
  against :data:`REGISTERED_ENTRY_POINTS`, so a new engine cannot land
  without either composing through :func:`repro.exec.compose` or
  registering here (and thereby joining the verification sweep);
* the CLI's ``triangulate --source/--kernel/--executor`` flags take
  their choices from the three axis tables.

Both sources are CSR residencies.  A paged store is not an axis member:
its reader is Algorithm 3 (:func:`repro.core.engine.triangulate_disk`,
swept below as ``opt:*``), not a row of the cube.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.errors import ConfigurationError
from repro.exec.executors import ProcessExecutor, SerialExecutor, ThreadedExecutor
from repro.exec.kernels import (
    AdaptiveKernel,
    BitmapKernel,
    GallopKernel,
    HashKernel,
    MergeKernel,
)
from repro.exec.sources import MemorySource, SharedMemorySource

__all__ = [
    "EXECUTORS",
    "KERNELS",
    "REGISTERED_ENTRY_POINTS",
    "SOURCES",
    "CellSpec",
    "VerifyEnv",
    "cell_validity",
    "composition_conflict",
    "iter_cells",
    "make_executor",
    "make_kernel",
    "make_source",
    "valid_cells",
    "verification_methods",
]

# ---------------------------------------------------------------------------
# The three axes
# ---------------------------------------------------------------------------

#: Source name -> class.  Instantiation goes through :func:`make_source`.
SOURCES = {
    "memory": MemorySource,
    "shm": SharedMemorySource,
}

#: Kernel name -> class (stateless; instantiated per call).
KERNELS = {
    "hash": HashKernel,
    "merge": MergeKernel,
    "gallop": GallopKernel,
    "bitmap": BitmapKernel,
    "adaptive": AdaptiveKernel,
}

#: Executor name -> class.  Instantiation goes through :func:`make_executor`.
EXECUTORS = {
    "serial": SerialExecutor,
    "threaded": ThreadedExecutor,
    "process": ProcessExecutor,
}


def make_source(name: str, graph):
    """Instantiate the named source over *graph*."""
    try:
        cls = SOURCES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown source {name!r}; available: {', '.join(SOURCES)}"
        ) from None
    if graph is None:
        raise ConfigurationError(f"source {name!r} needs a graph")
    return cls(graph)


def make_kernel(name: str):
    """Instantiate the named kernel."""
    try:
        return KERNELS[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown kernel {name!r}; available: {', '.join(KERNELS)}"
        ) from None


def make_executor(name: str, *, workers: int = 2):
    """Instantiate the named executor."""
    try:
        cls = EXECUTORS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown executor {name!r}; available: {', '.join(EXECUTORS)}"
        ) from None
    if cls is SerialExecutor:
        return cls()
    return cls(workers=workers)


# ---------------------------------------------------------------------------
# Cell validity
# ---------------------------------------------------------------------------


def composition_conflict(source, executor) -> str | None:
    """Why *source* cannot run under *executor*, or ``None`` if it can.

    The one structural constraint of the cube: a forking executor needs
    a source whose data a worker process can attach zero-copy.
    """
    if getattr(executor, "requires_shareable", False) \
            and not getattr(source, "shareable", False):
        return (f"executor {executor.name!r} forks worker processes, but "
                f"source {source.name!r} is not attachable across process "
                "boundaries (publish to 'shm' instead)")
    return None


def cell_validity(source: str, kernel: str, executor: str) -> tuple[bool, str | None]:
    """``(valid, reason)`` for one named cell of the cube."""
    for name, table, axis in ((source, SOURCES, "source"),
                              (kernel, KERNELS, "kernel"),
                              (executor, EXECUTORS, "executor")):
        if name not in table:
            return False, f"unknown {axis} {name!r}"
    reason = composition_conflict(SOURCES[source], EXECUTORS[executor])
    return (reason is None), reason


@dataclass(frozen=True)
class CellSpec:
    """One cell of the cube with its validity verdict."""

    source: str
    kernel: str
    executor: str
    valid: bool
    reason: str | None = None

    @property
    def id(self) -> str:
        return f"{self.source}+{self.kernel}+{self.executor}"


def iter_cells() -> Iterator[CellSpec]:
    """Every cell of the cube, valid or not, in deterministic order."""
    for source in SOURCES:
        for kernel in KERNELS:
            for executor in EXECUTORS:
                valid, reason = cell_validity(source, kernel, executor)
                yield CellSpec(source, kernel, executor, valid, reason)


def valid_cells() -> list[CellSpec]:
    """The runnable cells only."""
    return [cell for cell in iter_cells() if cell.valid]


# ---------------------------------------------------------------------------
# Entry-point registration (read by the engine-composition lint rule)
# ---------------------------------------------------------------------------

#: Every sanctioned triangulation entry point outside :mod:`repro.exec`,
#: keyed ``<package path>::<function>``.  The ``engine-composition``
#: lint rule flags any public ``TriangulationResult``-returning function
#: in the engine packages that is missing from this set; each entry here
#: is expected to appear in :func:`verification_methods` (directly or
#: through a composed equivalent) so it stays differentially tested.
REGISTERED_ENTRY_POINTS = frozenset({
    "memory/edge_iterator.py::edge_iterator",
    "memory/vertex_iterator.py::vertex_iterator",
    "memory/forward.py::forward",
    "memory/compact_forward.py::compact_forward",
    "memory/matrix.py::matrix_count",
    "core/engine.py::triangulate_disk",
    "core/engine.py::replay",
    "core/threaded.py::triangulate_threaded",
    "parallel/engine.py::triangulate_parallel",
    "baselines/chu_cheng.py::cc_seq",
    "baselines/chu_cheng.py::cc_ds",
    "baselines/graphchi.py::graphchi_tri",
    "distributed/methods.py::sv_mapreduce",
    "distributed/methods.py::akm",
    "distributed/methods.py::powergraph",
})


# ---------------------------------------------------------------------------
# The verification sweep (consumed by repro.verify.verify_methods)
# ---------------------------------------------------------------------------


@dataclass
class VerifyEnv:
    """Shared run parameters + memoized store for one verification sweep."""

    page_size: int
    buffer_pages: int
    cost: object
    _store: object = field(default=None, repr=False)

    def store(self, graph):
        if self._store is None:
            from repro.core import make_store

            self._store = make_store(graph, self.page_size)
        return self._store


def _memory_methods() -> list[tuple[str, Callable]]:
    def run(fn):
        return lambda graph, env: fn(graph).triangles

    from repro.memory import (
        compact_forward,
        edge_iterator,
        forward,
        matrix_count,
        vertex_iterator,
    )

    return [
        ("edge-iterator", run(edge_iterator)),
        ("vertex-iterator", run(vertex_iterator)),
        ("forward", run(forward)),
        ("compact-forward", run(compact_forward)),
        ("matrix", run(matrix_count)),
    ]


def _parallel_methods() -> list[tuple[str, Callable]]:
    from repro.parallel import triangulate_parallel

    return [
        ("opt-parallel:w2",
         lambda graph, env: triangulate_parallel(graph, workers=2).triangles),
    ]


def _disk_methods() -> list[tuple[str, Callable]]:
    from repro.core import triangulate_disk

    def run(plugin):
        return lambda graph, env: triangulate_disk(
            env.store(graph), plugin=plugin, buffer_pages=env.buffer_pages,
            cost=env.cost,
        ).triangles

    return [(f"opt:{plugin}", run(plugin))
            for plugin in ("edge-iterator", "vertex-iterator", "mgt")]


def _baseline_methods() -> list[tuple[str, Callable]]:
    from repro.baselines import cc_ds, cc_seq, graphchi_tri

    def run(fn):
        return lambda graph, env: fn(
            graph, buffer_pages=env.buffer_pages, page_size=env.page_size,
            cost=env.cost,
        ).triangles

    return [
        ("cc-seq", run(cc_seq)),
        ("cc-ds", run(cc_ds)),
        ("graphchi", run(graphchi_tri)),
    ]


def _threaded_methods() -> list[tuple[str, Callable]]:
    from repro.core import triangulate_threaded

    def run(graph, env):
        with tempfile.TemporaryDirectory() as directory:
            return triangulate_threaded(
                env.store(graph), directory, buffer_pages=env.buffer_pages,
            ).triangles

    return [("opt:threaded", run)]


def _composed_methods() -> list[tuple[str, Callable]]:
    """A slice of composed exec cells, one per axis member.

    The full cube runs in the scenario matrix; the verification sweep
    carries one witness per source, kernel, and executor so ``repro
    verify`` exercises the composition layer end to end without
    re-running all of it.
    """
    from repro.exec.engine import compose

    witnesses = [
        ("memory", "merge", "serial"),
        ("memory", "gallop", "threaded"),
        ("memory", "adaptive", "serial"),
        ("memory", "bitmap", "serial"),
        ("shm", "hash", "process"),
    ]

    def run(cell):
        source, kernel, executor = cell
        return lambda graph, env: compose(
            source, kernel, executor, graph=graph, workers=2,
        ).run().triangles

    return [(f"exec:{'+'.join(cell)}", run(cell)) for cell in witnesses]


def verification_methods(
    *, include_threaded: bool = True,
) -> list[tuple[str, Callable]]:
    """``(name, runner)`` for every method the verifier cross-checks.

    Each runner has signature ``runner(graph, env) -> int`` (triangle
    count) with *env* a :class:`VerifyEnv`.  Order is stable; names are
    the historical ``verify_methods`` keys, extended with the composed
    ``exec:*`` witnesses.
    """
    methods: list[tuple[str, Callable]] = []
    methods.extend(_memory_methods())
    methods.extend(_parallel_methods())
    methods.extend(_disk_methods())
    methods.extend(_baseline_methods())
    if include_threaded:
        methods.extend(_threaded_methods())
    methods.extend(_composed_methods())
    return methods

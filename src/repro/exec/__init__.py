"""The Executor × Kernel × Source composition layer.

Every triangulation path in this repository is, structurally, the same
computation: enumerate edges ``(u, v)`` with ``u`` preceding ``v``,
intersect the successor lists, emit the completions.  What actually
varies is three independent axes (the factorization the paper itself
uses — iterator model × internal/external split × buffer policy, and
the per-pair kernel choice AOT argues for):

* **Source** — where the CSR lives: on the heap, or in shared memory
  attachable across processes (:mod:`repro.exec.sources`);
* **Kernel** — how two sorted lists are intersected and how the Eq. 3
  operation count is charged: analytic hash probes, two-pointer merge,
  galloping search, a dense bitmap, or the range-pruned adaptive
  selector over all three data paths (:mod:`repro.exec.kernels`);
* **Executor** — who drives the vertex ranges: a serial loop, or a
  forked process pool over shared memory (:mod:`repro.exec.executors`).

:func:`compose` assembles one cell of that cube into an
:class:`Engine`; :mod:`repro.exec.registry` names every axis member,
declares which cells are valid (and why the rest are not), and feeds
both the generated scenario-matrix test grid
(``tests/test_scenario_matrix.py``) and ``repro verify``.  The
``engine-composition`` lint rule closes the loop: a triangulation entry
point that is not registered here fails static analysis, so no engine
can silently escape the differential harness.
"""

from repro.exec.block import GroupBlock
from repro.exec.engine import Engine, EngineOutcome, compose, run_range
from repro.exec.executors import ProcessExecutor, SerialExecutor
from repro.exec.kernels import (
    AdaptiveKernel,
    BitmapKernel,
    GallopKernel,
    HashKernel,
    MergeKernel,
)
from repro.exec.protocols import Executor, Kernel, Source, SourceHandle
from repro.exec.registry import (
    EXECUTORS,
    KERNELS,
    REGISTERED_ENTRY_POINTS,
    SOURCES,
    CellSpec,
    cell_validity,
    iter_cells,
    make_executor,
    make_kernel,
    make_source,
    valid_cells,
)
from repro.exec.sources import MemorySource, SharedMemorySource

__all__ = [
    "AdaptiveKernel",
    "BitmapKernel",
    "CellSpec",
    "EXECUTORS",
    "Engine",
    "EngineOutcome",
    "Executor",
    "GallopKernel",
    "GroupBlock",
    "HashKernel",
    "KERNELS",
    "Kernel",
    "MemorySource",
    "MergeKernel",
    "ProcessExecutor",
    "REGISTERED_ENTRY_POINTS",
    "SOURCES",
    "SerialExecutor",
    "SharedMemorySource",
    "Source",
    "SourceHandle",
    "cell_validity",
    "compose",
    "iter_cells",
    "make_executor",
    "make_kernel",
    "make_source",
    "run_range",
    "valid_cells",
]

"""Process-parallel triangulation over shared-memory CSR.

CPython's GIL caps the threaded engine at overlapped I/O; real CPU
parallelism needs processes.  This package is the process-pool analogue
of the paper's thread-morphing design (Section 3.4): the immutable CSR
graph is published once into POSIX shared memory (:mod:`repro.parallel.shm`,
zero-copy attach in every worker), the vertex range is split into
degree-balanced chunks (:mod:`repro.parallel.chunks`) claimed from one
shared cursor — an idle worker claiming a chunk past its fair share is
the morphing "steal" — and per-worker triangle counts, op counts,
metrics snapshots, and trace tracks merge back into the observability
pipeline (:mod:`repro.parallel.engine`).
"""

from repro.parallel.chunks import default_chunk_count, plan_chunks
from repro.parallel.engine import (
    ParallelResult,
    WorkerReport,
    count_chunk,
    triangulate_parallel,
)
from repro.parallel.heartbeat import Heartbeat, HeartbeatMonitor, StragglerPolicy
from repro.parallel.shm import CSRHandle, SharedCSR

__all__ = [
    "CSRHandle",
    "Heartbeat",
    "HeartbeatMonitor",
    "ParallelResult",
    "SharedCSR",
    "StragglerPolicy",
    "WorkerReport",
    "count_chunk",
    "default_chunk_count",
    "plan_chunks",
    "triangulate_parallel",
]

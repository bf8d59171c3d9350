"""Determinism gate: simulated event traces are byte-identical per seed.

The sim-clock tracer records only scheduler-computed timestamps, so the
exported Chrome JSON must be a pure function of (workload, seed) — this
is what makes traces diffable artifacts.  Marked ``trace`` so the gate
can be selected on its own (``pytest -m trace``).
"""

from __future__ import annotations

import pytest

from repro.core.engine import triangulate_disk
from repro.graph.generators import rmat
from repro.obs import EventTracer, RunContext, write_chrome_trace
from repro.storage.faults import FaultPlan, FaultSpec, RetryPolicy

pytestmark = pytest.mark.trace


def _trace_bytes(tmp_path, tag: str, *, fault_seed: int | None = None) -> bytes:
    graph = rmat(256, 1024, seed=7)
    tracer = EventTracer.sim()
    kwargs: dict = {}
    if fault_seed is not None:
        kwargs["fault_plan"] = FaultPlan(
            [FaultSpec(kind="latency", rate=0.4, delay=0.002),
             FaultSpec(kind="transient", rate=0.2, times=2)],
            seed=fault_seed,
        )
        kwargs["retry_policy"] = RetryPolicy(max_retries=6,
                                             backoff_base=1e-6)
    triangulate_disk(graph, buffer_ratio=0.2, page_size=512,
                     ctx=RunContext(trace=tracer, **kwargs))
    path = write_chrome_trace(tmp_path / f"{tag}.json", tracer)
    return path.read_bytes()


def test_clean_sim_trace_is_byte_identical(tmp_path):
    first = _trace_bytes(tmp_path, "a")
    second = _trace_bytes(tmp_path, "b")
    assert first == second
    assert len(first) > 2  # not an empty export


def test_faulty_sim_trace_is_byte_identical_per_seed(tmp_path):
    first = _trace_bytes(tmp_path, "a", fault_seed=11)
    second = _trace_bytes(tmp_path, "b", fault_seed=11)
    assert first == second


def test_fault_seed_reaches_the_timeline(tmp_path):
    """Injected latency must actually land in the trace — otherwise the
    per-seed gate above would pass vacuously."""
    clean = _trace_bytes(tmp_path, "clean")
    faulty = _trace_bytes(tmp_path, "faulty", fault_seed=11)
    assert clean != faulty


def test_sim_trace_ignores_wall_clock_noise(tmp_path):
    """A sim tracer passed through the measuring pass drops every
    wall-clocked emission (buffer hits, fault sleeps) rather than
    recording nondeterministic timestamps."""
    graph = rmat(256, 1024, seed=7)
    tracer = EventTracer.sim()
    triangulate_disk(graph, buffer_ratio=0.2, page_size=512,
                     ctx=RunContext(trace=tracer))
    for event in tracer.events():
        assert event.track.startswith("sim/"), (
            f"wall-clocked event leaked into a sim trace: {event}"
        )

"""The canonical observability vocabulary: one set of names, everywhere.

Every metric the registry interns and every event the tracer records is
identified by a string name.  The whole observability design — merged
run reports, cross-engine comparisons (``benchmarks/compare_reports.py``),
the I/O-accounting audits, the trace determinism gate — rests on those
names meaning the same thing in every emitter: the synchronous device,
the threaded SSD, the discrete-event scheduler, and the CLI must all call
a device read ``ssd.pages_read``.

This module is the single source of truth.  Producers either use these
constants directly or keep a local alias whose *value* is listed here;
the ``obs-vocab`` rule of :mod:`repro.lint` statically checks every
``registry.counter(...)`` / ``tracer.instant(...)`` call site against
these sets, so a typo'd or ad-hoc name fails CI instead of silently
forking the vocabulary.

Consumers — the only two vocabulary checks:

* :mod:`repro.lint.rules.obs_vocab` — the static conformance rule over
  every literal metric and event name;
* :func:`repro.obs.validate_chrome_trace` — ``known_names_only=True``
  reports unknown event names in a recorded trace as schema errors.

Like the rest of :mod:`repro.obs`, nothing here imports anything outside
the standard library.
"""

from __future__ import annotations

__all__ = [
    "EXTERNAL_CPU_EVENTS",
    "METRIC_NAMES",
    "TRACE_EVENT_NAMES",
    "WORK_EVENTS",
    "is_trace_event_name",
]

#: Every metric name the reproduction emits, regardless of instrument
#: kind (counter / gauge / histogram) — labels are orthogonal to names.
METRIC_NAMES = frozenset({
    # triangle output
    "triangles",                      # per-phase labelled total (engines)
    # CPU / I/O accounting (CLI export path)
    "cpu.ops",
    "io.pages_read",
    "io.pages_written",
    "io.pages_buffered",
    # OPT iteration structure (Algorithm 3)
    "opt.iterations",
    "opt.fill.reads",
    "opt.fill.buffered",
    "opt.candidate.ops",
    "opt.internal.ops",
    "opt.external.ops",
    "opt.external.reads",
    "opt.external.buffered",
    "opt.pages_read",
    # buffer manager
    "buffer.hits",
    "buffer.misses",
    "buffer.evictions",
    # storage devices
    "ssd.pages_read",
    "ssd.async_reads",
    "ssd.queue.depth",
    "ssd.callback.latency",
    # fault injection + recovery
    "faults.injected",
    "recovery.retries",
    "recovery.timeouts",
    "recovery.fallbacks",
    "recovery.giveups",
    "recovery.checkpoint.saved",
    "recovery.checkpoint.replayed",
    # discrete-event simulation
    "sim.device_reads",
    "sim.morph.events",
    "sim.elapsed",
    "sim.cpu_time",
    "sim.read_io_time",
    "sim.fault_delay",
    # composed engines (repro.exec) — labelled source/kernel/executor
    "exec.triangles",
    "exec.ops",
    "exec.chunks",
    # adaptive-kernel selector decisions — additionally labelled by
    # branch (merge/gallop/bitmap/disjoint/empty); per-branch ops sum
    # exactly to the cell's exec.ops
    "exec.branch.pairs",
    "exec.branch.ops",
    # process-parallel engine (repro.parallel)
    "parallel.ops",
    "parallel.chunks",
    "parallel.steals",
    "parallel.workers",
    "parallel.heartbeats",
    "parallel.chunk.elapsed",
    # run headline figures
    "run.elapsed_wall",
    "run.elapsed_simulated",
    # the static-analysis pass reports through the same schema
    "lint.files",
    "lint.findings",
    "lint.rules",
})

#: Every causal trace event name (see the table in :mod:`repro.obs.trace`).
TRACE_EVENT_NAMES = frozenset({
    "iteration",
    "fill",
    "internal",
    "external",
    "read.submit",
    "read.service",
    "read.callback",
    "buffer.hit",
    "buffer.evict",
    "morph",
    "fault.inject",
    "fault.delay",
    "recovery.timeout",
    "recovery.fallback",
    "parallel.chunk",
    "parallel.steal",
    "parallel.merge",
    "parallel.heartbeat",
})

#: Event names that represent actual work for utilization purposes
#: (``iteration`` is structural — it brackets its children and would
#: double-count every lane it appears on).
WORK_EVENTS = frozenset(
    {"fill", "internal", "external", "read.service", "read.callback",
     "parallel.chunk"}
)

#: Event names whose intervals count as *external* CPU (micro overlap).
EXTERNAL_CPU_EVENTS = frozenset({"external", "read.callback"})


def is_trace_event_name(name: str) -> bool:
    """True when *name* is in the canonical trace-event vocabulary."""
    return name in TRACE_EVENT_NAMES

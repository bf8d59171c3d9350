"""Unified observability: metrics registry, phase spans, run reports.

Every measurement the reproduction makes — I/O page counts, intersection
operations, buffer hit rates, simulated and wall-clock phase times — flows
through this package so that one run produces one comparable artifact:

* :class:`MetricsRegistry` — dependency-free counters, gauges, and
  histograms with labels, safe to update from the SSD callback thread;
* :class:`SpanTracker` / ``span()`` — hierarchical phase timing carrying
  both wall-clock seconds and simulated seconds in the same tree;
* :class:`RunReport` — the export path: JSON serialization, an ASCII
  summary table, and a stable schema that ``BENCH_*.json`` files and
  the CLI's ``--report`` flag share;
* :class:`EventTracer` — causal event tracing on both timelines, with
  Chrome ``trace_event`` (Perfetto) export, an ASCII Gantt renderer,
  and overlap analytics (:mod:`repro.obs.trace`);
* :mod:`repro.obs.vocab` — the canonical metric / trace-event name
  vocabulary every emitter must draw from (statically enforced by the
  ``obs-vocab`` rule of :mod:`repro.lint`).

The engines take one ``ctx=`` (:class:`RunContext`, the bundle of a
run's instruments) and record into what it carries; nothing here imports
anything outside the standard library, so storage/sim/core modules can
depend on it freely.
"""

from repro.obs.attribution import (
    Attribution,
    AttributionScope,
    degree_bucket,
    render_attribution,
    validate_attribution_dict,
)
from repro.obs.context import NO_CONTEXT, RunContext
from repro.obs.logsetup import configure_logging, get_logger
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.report import (
    SCHEMA_NAME,
    SCHEMA_VERSION,
    RunReport,
    validate_report_dict,
)
from repro.obs.spans import Span, SpanTracker
from repro.obs.trace import (
    TRACE_SCHEMA_NAME,
    TRACE_SCHEMA_VERSION,
    EventTracer,
    TraceEvent,
    ascii_gantt,
    fold_trace_analytics,
    from_chrome_trace,
    overlap_analytics,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.vocab import (
    EXTERNAL_CPU_EVENTS,
    METRIC_NAMES,
    TRACE_EVENT_NAMES,
    WORK_EVENTS,
    is_trace_event_name,
)

__all__ = [
    "EXTERNAL_CPU_EVENTS",
    "METRIC_NAMES",
    "NO_CONTEXT",
    "TRACE_EVENT_NAMES",
    "WORK_EVENTS",
    "is_trace_event_name",
    "Attribution",
    "AttributionScope",
    "Counter",
    "EventTracer",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RunContext",
    "RunReport",
    "SCHEMA_NAME",
    "SCHEMA_VERSION",
    "Span",
    "SpanTracker",
    "TRACE_SCHEMA_NAME",
    "TRACE_SCHEMA_VERSION",
    "TraceEvent",
    "ascii_gantt",
    "configure_logging",
    "degree_bucket",
    "fold_trace_analytics",
    "from_chrome_trace",
    "get_logger",
    "overlap_analytics",
    "render_attribution",
    "to_chrome_trace",
    "validate_attribution_dict",
    "validate_chrome_trace",
    "write_chrome_trace",
]

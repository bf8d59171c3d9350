"""``RunContext``: the one carrier of a run's instrumentation.

Two layers:

* **the context itself** — frozen, six fields, a disabled tracer
  normalised away at construction, one shared default, and
  ``accept`` errors that name the engine and the field;
* **every instrumented entry point × every field** — a field the
  engine's ``accept`` declaration lists must leave a mark on the
  instrument, and every other field must raise ``ConfigurationError``
  before any work starts.  This replaces the ``kwargs-threading`` /
  ``instrumentation-plumbing`` lint rules, which only saw direct calls.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import make_store, triangulate_disk, triangulate_threaded
from repro.core.framework import OPTConfig, run_opt
from repro.core.result_store import RunCheckpoint
from repro.errors import ConfigurationError, FaultExhaustedError
from repro.exec import EXECUTORS, Engine, compose
from repro.obs import (
    NO_CONTEXT,
    Attribution,
    EventTracer,
    RunContext,
    RunReport,
)
from repro.parallel import triangulate_parallel
from repro.sim import CostModel, simulate
from repro.storage.faults import FaultPlan, FaultSpec, RetryPolicy

pytestmark = pytest.mark.fast

FIELDS = ("report", "trace", "attribution", "fault_plan", "retry_policy",
          "checkpoint")
PAGE_SIZE = 256


# ---------------------------------------------------------------------------
# the context itself
# ---------------------------------------------------------------------------

class TestRunContext:
    def test_exactly_the_six_fields_all_off(self):
        assert tuple(f.name for f in dataclasses.fields(RunContext)) == FIELDS
        assert all(getattr(RunContext(), name) is None for name in FIELDS)

    def test_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            RunContext().report = RunReport("x")

    def test_disabled_instruments_become_none(self):
        assert RunContext(trace=EventTracer(enabled=False)).trace is None
        live = EventTracer.sim()
        assert RunContext(trace=live).trace is live

    def test_default_instance_is_shared(self):
        for entry in (triangulate_disk, triangulate_threaded,
                      triangulate_parallel, run_opt, simulate):
            assert entry.__kwdefaults__["ctx"] is NO_CONTEXT
        assert Engine.run.__kwdefaults__["ctx"] is NO_CONTEXT
        for executor in EXECUTORS.values():
            assert executor.execute.__kwdefaults__["ctx"] is NO_CONTEXT

    def test_registry_and_span_follow_the_report(self):
        assert NO_CONTEXT.registry is None
        with NO_CONTEXT.span("pack"):
            pass
        report = RunReport("x")
        ctx = RunContext(report=report)
        assert ctx.registry is report.registry
        with ctx.span("pack", page_size=1):
            pass
        assert [span.name for span in report.spans.roots] == ["pack"]

    def test_accept_names_engine_and_field(self):
        ctx = RunContext(report=RunReport("x"), checkpoint=RunCheckpoint())
        ctx.accept("some_engine", "report", "checkpoint")
        with pytest.raises(ConfigurationError,
                           match=r"some_engine .*ctx\.checkpoint") as info:
            ctx.accept("some_engine", "report")
        assert info.value.refused == ("checkpoint",)

    def test_accept_checks_the_clock(self):
        ctx = RunContext(trace=EventTracer.sim())
        ctx.accept("e", "trace")
        with pytest.raises(ConfigurationError, match="e runs on real time; "
                                                     "pass a clock='wall' tracer"):
            ctx.accept("e", "trace", wall_clock=True)
        RunContext(trace=EventTracer(clock="wall")).accept(
            "e", "trace", wall_clock=True)

    def test_only_narrows_without_copying_when_it_can(self):
        assert NO_CONTEXT.only("report") is NO_CONTEXT
        report, plan = RunReport("x"), FaultPlan([], seed=0)
        ctx = RunContext(report=report, fault_plan=plan)
        assert ctx.only("report", "fault_plan") is ctx
        narrowed = ctx.only("report", "trace")
        assert narrowed.report is report and narrowed.fault_plan is None


# ---------------------------------------------------------------------------
# every instrumented entry point × every field
# ---------------------------------------------------------------------------

ALL = frozenset(FIELDS)
PARALLEL = frozenset({"report", "trace", "attribution"})
COMPOSED = frozenset({"report", "attribution"})


def _disk(plugin):
    def run(graph, tmp_path, ctx):
        return triangulate_disk(make_store(graph, PAGE_SIZE), plugin=plugin,
                                buffer_pages=6, ctx=ctx)
    return run


def _threaded(graph, tmp_path, ctx):
    return triangulate_threaded(make_store(graph, PAGE_SIZE), tmp_path,
                                buffer_pages=6, page_size=PAGE_SIZE, ctx=ctx)


def _parallel(workers):
    def run(graph, tmp_path, ctx):
        return triangulate_parallel(graph, workers=workers, chunks=6, ctx=ctx)
    return run


def _composed(source, executor):
    def run(graph, tmp_path, ctx):
        return compose(source, "hash", executor, graph=graph,
                       workers=2).run(ctx=ctx)
    return run


def _simulate(graph, tmp_path, ctx):
    run_trace = run_opt(make_store(graph, PAGE_SIZE), OPTConfig.even_split(6))
    return simulate(run_trace, CostModel(), cores=2, ctx=ctx)


#: name -> (runner, the fields its ``accept`` declaration lists, its clock)
ENTRY_POINTS = {
    "triangulate_disk[edge-iterator]": (_disk("edge-iterator"), ALL, "sim"),
    "triangulate_disk[vertex-iterator]": (_disk("vertex-iterator"), ALL, "sim"),
    "triangulate_disk[mgt]": (_disk("mgt"), ALL, "sim"),
    "triangulate_threaded": (_threaded, ALL - {"attribution"}, "wall"),
    "triangulate_parallel[w1]": (_parallel(1), PARALLEL, "wall"),
    "triangulate_parallel[w2]": (_parallel(2), PARALLEL, "wall"),
    "compose[serial]": (_composed("memory", "serial"), COMPOSED, "wall"),
    "compose[process]": (_composed("shm", "process"), COMPOSED, "wall"),
    "simulate": (_simulate, frozenset({"report", "trace"}), "sim"),
}


def _instrumented(field: str, clock: str):
    """``(instrument, ctx)`` with exactly *field* switched on.

    ``retry_policy`` only shows through a fault it fails to absorb, so
    it rides with a one-shot transient plan and a zero retry budget.
    """
    if field == "report":
        instrument = RunReport("run-context")
    elif field == "trace":
        instrument = EventTracer(clock=clock)
    elif field == "attribution":
        instrument = Attribution()
    elif field == "fault_plan":
        instrument = FaultPlan([FaultSpec("latency", rate=1.0, delay=1e-6)],
                               seed=1)
    elif field == "retry_policy":
        instrument = RetryPolicy(max_retries=0)
    else:
        instrument = RunCheckpoint()
    return instrument, RunContext(**{field: instrument})


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_field_leaves_a_mark_or_is_refused(entry, field, small_rmat_ordered,
                                           tmp_path):
    run, consumed, clock = ENTRY_POINTS[entry]
    instrument, ctx = _instrumented(field, clock)
    graph = small_rmat_ordered

    if field not in consumed:
        with pytest.raises(ConfigurationError, match=rf"ctx\.{field}"):
            run(graph, tmp_path, ctx)
        assert not list(tmp_path.iterdir())  # refused before any file
        return

    if field == "retry_policy":
        plan = FaultPlan([FaultSpec("transient", rate=1.0)], seed=1)
        with pytest.raises(FaultExhaustedError):
            run(graph, tmp_path, RunContext(fault_plan=plan,
                                            retry_policy=instrument))
        return

    result = run(graph, tmp_path, ctx)
    if field == "report":
        assert instrument.registry.snapshot()["counters"]
        if hasattr(result, "extra"):  # simulate returns a bare SimResult
            assert result.extra["report"] is instrument
    elif field == "trace":
        assert len(instrument) > 0
    elif field == "attribution":
        assert instrument.total_ops == result.cpu_ops > 0
    elif field == "fault_plan":
        assert instrument.log.counts()
    else:
        assert instrument.committed()


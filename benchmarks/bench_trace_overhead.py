"""Observability — wall-clock cost of event tracing on the Fig. 3a run.

Runs the OPT disk engine on the LJ stand-in (the Fig. 3a workload) three
ways: with no tracer at all, with a constructed-but-disabled tracer, and
with a live sim-clock tracer.  The tentpole's contract is that tracing
is cheap enough to leave on for any diagnostic run (<10% wall overhead)
and that a disabled tracer costs nothing beyond the ``is not None``
guard at call sites — the ``off`` and ``disabled`` modes must be
indistinguishable up to timer noise.

Each mode is timed ``REPEATS`` times and the minimum is kept (the usual
best-of-N idiom: the minimum is the least noisy estimator of the true
cost on a shared machine).

Emits ``results/BENCH_trace_overhead.json`` (RunReport schema).  The
headline ``elapsed_simulated`` is the deterministic simulated elapsed
time — identical across modes — so ``compare_reports.py`` diffs stay
stable; the wall-clock ratios land in ``trace_overhead`` and
``disabled_overhead``.
"""

from __future__ import annotations

import time

from _helpers import COST, emit_bench_report, once, prepared, report
from repro.core import triangulate_disk
from repro.obs import EventTracer, RunContext, RunReport
from repro.util.tables import format_table

REPEATS = 3
BUFFER_RATIO = 0.15

#: Loose ceilings — the sim workload is sub-second, so single-digit
#: percent assertions on wall time would flake on a loaded machine.
MAX_ENABLED_OVERHEAD = 1.10
MAX_DISABLED_OVERHEAD = 1.05


def _tracer_for(mode: str) -> EventTracer | None:
    if mode == "off":
        return None
    if mode == "disabled":
        return EventTracer(clock="sim", enabled=False)
    return EventTracer.sim()


def sweep():
    _graph, store, reference = prepared("LJ")
    rows = {}
    run_report = None
    for mode in ("off", "disabled", "enabled"):
        best = float("inf")
        events = 0
        for _ in range(REPEATS):
            tracer = _tracer_for(mode)
            mode_report = RunReport(f"trace-{mode}", meta={
                "dataset": "LJ", "trace_mode": mode,
            })
            start = time.perf_counter()
            result = triangulate_disk(
                store, buffer_ratio=BUFFER_RATIO, cost=COST,
                ideal_cpu_ops=reference.cpu_ops,
                ctx=RunContext(report=mode_report, trace=tracer),
            )
            wall = time.perf_counter() - start
            if wall < best:
                best = wall
                events = len(tracer) if tracer is not None else 0
                if mode == "enabled":
                    run_report = mode_report
        rows[mode] = (best, events, result.triangles, result.elapsed)
    return rows, run_report


def test_trace_overhead(benchmark):
    rows, run_report = once(benchmark, sweep)
    baseline = rows["off"][0]
    ratios = {mode: wall / baseline
              for mode, (wall, _e, _t, _s) in rows.items()}
    table = [
        (mode, f"{wall * 1e3:.1f}", f"{ratios[mode]:.3f}", events,
         f"{sim * 1e3:.2f}")
        for mode, (wall, events, _t, sim) in rows.items()
    ]
    report(
        "trace_overhead",
        format_table(
            ["mode", "wall (ms, best of %d)" % REPEATS, "vs off",
             "events", "elapsed (sim ms)"],
            table,
            title="Event-tracing overhead on the Fig. 3a LJ workload",
        ),
    )
    triangles = {t for _w, _e, t, _s in rows.values()}
    assert len(triangles) == 1, "tracing changed the triangle count"
    sim_elapsed = {round(s, 12) for _w, _e, _t, s in rows.values()}
    assert len(sim_elapsed) == 1, "tracing changed the simulated timeline"
    assert rows["enabled"][1] > 0, "enabled tracer recorded nothing"
    assert rows["disabled"][1] == 0
    assert ratios["enabled"] < MAX_ENABLED_OVERHEAD
    assert ratios["disabled"] < MAX_DISABLED_OVERHEAD
    run_report.derive("trace_overhead", ratios["enabled"])
    run_report.derive("disabled_overhead", ratios["disabled"])
    run_report.derive("trace_events", rows["enabled"][1])
    run_report.derive("baseline_wall", baseline)
    emit_bench_report("trace_overhead", run_report)

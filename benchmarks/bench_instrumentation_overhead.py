"""Observability — wall-clock cost of each instrument a run can carry.

One sweep, parametrised by instrument: a workload is timed with no
instrument at all (``off``), then once per instrument constructed but
disabled and once live.  Two contracts are pinned for every instrument
(one ceiling table, :data:`INSTRUMENTS`): a live one is cheap enough to
leave on for any diagnostic run, and a disabled one costs nothing beyond
the ``is not None`` guard at call sites — :class:`~repro.obs.RunContext`
turns it into ``None`` when it is built — so ``off`` and ``disabled``
must be indistinguishable up to timer noise.

The event tracer is measured on the OPT disk engine over the LJ
stand-in (the Fig. 3a workload); the Eq. 3 attribution table on the
composed in-memory engine ``memory+bitmap+serial`` over the same graph
(Fig. 3b).  ``bitmap``
charges the same Eq. 3 ops as ``hash`` but through the per-pair loop,
whose per-pair charge hook is what the attribution ceiling bounds.

Each mode is timed ``REPEATS`` times — interleaved round-robin after an
untimed warm-up, so a load spike on a shared machine hits every mode
equally instead of biasing whichever mode ran during it — and the
minimum is kept (best-of-N: the minimum is the least noisy estimator of
the true cost).

Emits one artifact set per entry of :data:`ARTIFACTS`:
``results/BENCH_<name>.json`` (RunReport schema; the live run's report
with the wall ratios in ``derived.<instrument>_overhead`` /
``disabled_overhead``, which ``tests/test_report_schema.py`` pins) and
the ``results/<name>.txt`` table.  The disk artifact's headline is the
deterministic ``elapsed_simulated`` — identical across modes — so
``compare_reports.py`` diffs stay stable; the profile one carries the
attribution snapshot.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import pytest

from _helpers import (
    COST,
    emit_bench_report,
    once,
    prepared,
    report,
)
from repro.core import triangulate_disk
from repro.exec import compose
from repro.obs import (
    Attribution,
    EventTracer,
    RunContext,
    RunReport,
    validate_attribution_dict,
)
from repro.util.tables import format_table

REPEATS = 5
BUFFER_RATIO = 0.15


@dataclass(frozen=True)
class Instrument:
    make: Callable[[bool], object]     # enabled -> a fresh instrument
    field: str                         # the RunContext field it rides in
    recorded: Callable[[object], int]  # what a live one captured
    #: Loose wall-ratio ceilings vs ``off`` — the workloads are
    #: sub-second, so tighter assertions would flake on a loaded machine.
    enabled_ceiling: float
    disabled_ceiling: float | None     # None: no disabled form exists


INSTRUMENTS = {
    "trace": Instrument(
        lambda enabled: EventTracer(clock="sim", enabled=enabled),
        "trace", len, 1.10, 1.05),
    # The attribution table adds dict updates to every intersection pair
    # (see the bulk ``charge_lengths`` path in ``exec/engine.py``), so
    # its ceiling sits above the tracer's.
    "attribution": Instrument(
        lambda _enabled: Attribution(),
        "attribution", len, 1.30, None),
}


def _fig3a() -> Callable[[RunContext], object]:
    _graph, store, reference = prepared("LJ")
    return lambda ctx: triangulate_disk(
        store, buffer_ratio=BUFFER_RATIO, cost=COST,
        ideal_cpu_ops=reference.cpu_ops, ctx=ctx)


def _fig3b() -> Callable[[RunContext], object]:
    graph, _store, _reference = prepared("LJ")
    engine = compose("memory", "bitmap", "serial", graph=graph)
    return lambda ctx: engine.run(ctx=ctx)


#: artifact name -> (workload, table title, instruments measured on it)
ARTIFACTS = {
    "trace_overhead": (
        _fig3a, "Event-tracing overhead on the Fig. 3a LJ workload",
        ("trace",)),
    "profile_overhead": (
        _fig3b, "Attribution-profiler overhead on the Fig. 3b LJ workload",
        ("attribution",)),
}


@dataclass
class Best:
    wall: float = float("inf")
    recorded: int = 0
    result: object = None
    report: RunReport | None = None
    instrument: object = None


def sweep(artifact: str) -> dict[str, Best]:
    """Best-of-``REPEATS`` wall per mode: ``off``, then per instrument
    ``<name>-disabled`` (where one exists) and ``<name>-enabled``."""
    workload, _title, names = ARTIFACTS[artifact]
    run = workload()
    modes: list[tuple[str, str | None, bool]] = [("off", None, False)]
    for name in names:
        if INSTRUMENTS[name].disabled_ceiling is not None:
            modes.append((f"{name}-disabled", name, False))
        modes.append((f"{name}-enabled", name, True))
    run(RunContext())  # untimed warm-up (page decode, source open)
    best = {mode: Best() for mode, _name, _enabled in modes}
    for _ in range(REPEATS):
        for mode, name, enabled in modes:
            instrument, fields = None, {}
            if name is not None:
                spec = INSTRUMENTS[name]
                instrument = spec.make(enabled)
                fields[spec.field] = instrument
            mode_report = RunReport(mode, meta={
                "dataset": "LJ", "instrument_mode": mode,
            })
            start = time.perf_counter()
            result = run(RunContext(report=mode_report, **fields))
            wall = time.perf_counter() - start
            if wall < best[mode].wall:
                recorded = spec.recorded(instrument) if name else 0
                best[mode] = Best(wall, recorded, result, mode_report,
                                  instrument)
    return best


@pytest.mark.parametrize("artifact", sorted(ARTIFACTS))
def test_instrumentation_overhead(benchmark, artifact):
    _workload, title, names = ARTIFACTS[artifact]
    best = once(benchmark, sweep, artifact)
    baseline = best["off"].wall
    ratios = {mode: row.wall / baseline for mode, row in best.items()}
    report(
        artifact,
        format_table(
            ["mode", "wall (ms, best of %d)" % REPEATS, "vs off",
             "recorded"],
            [(mode, f"{row.wall * 1e3:.1f}", f"{ratios[mode]:.3f}",
              row.recorded) for mode, row in best.items()],
            title=title,
        ),
    )
    # An instrument observes; it must not change what the engine computes.
    outcomes = {(row.result.triangles, row.result.cpu_ops,
                 row.report.derived.get("elapsed_simulated"))
                for row in best.values()}
    assert len(outcomes) == 1, f"an instrument changed the run: {outcomes}"

    live = {name: best[f"{name}-enabled"] for name in names}
    run_report = live[names[-1]].report
    for name in names:
        spec = INSTRUMENTS[name]
        enabled, disabled = f"{name}-enabled", f"{name}-disabled"
        assert live[name].recorded > 0, f"live {name} recorded nothing"
        assert ratios[enabled] < spec.enabled_ceiling
        run_report.derive(f"{name}_overhead", ratios[enabled])
        if spec.disabled_ceiling is not None:
            assert best[disabled].recorded == 0
            assert ratios[disabled] < spec.disabled_ceiling
            run_report.derive("disabled_overhead", ratios[disabled])
    run_report.derive("baseline_wall", baseline)

    if artifact == "trace_overhead":
        run_report.derive("trace_events", live["trace"].recorded)
    else:
        # Conservation: the attribution table accounts for every engine op.
        attribution = live["attribution"].instrument
        result = live["attribution"].result
        assert attribution.total_ops == result.cpu_ops
        assert attribution.total_triangles == result.triangles
        snapshot = attribution.snapshot()
        assert validate_attribution_dict(snapshot) == []
        run_report.derive("attribution", snapshot)
    emit_bench_report(artifact, run_report)

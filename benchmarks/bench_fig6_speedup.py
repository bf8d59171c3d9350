"""Figure 6 and Table 5 — speed-up vs number of CPU cores.

Thin timing wrapper around :mod:`repro.experiments`: OPT scales
near-linearly under its Amdahl bound; GraphChi-Tri saturates below 2.5.

The simulated curves own the quantitative claims; alongside them this
benchmark runs the *real* process-parallel engine (shared-memory CSR,
forked workers) at 1/2/4 workers on the LJ stand-in and emits the merged
observability report as ``BENCH_fig6_speedup.json``, so the wall-clock
trajectory of the genuine parallel path is tracked run-to-run by
``compare_reports.py``.
"""

from __future__ import annotations

import time

from _helpers import emit_bench_report, once, prepared, report
from repro.experiments import run_experiment
from repro.obs import RunContext, RunReport
from repro.parallel import triangulate_parallel

WORKER_COUNTS = (1, 2, 4)


def test_fig6_table5_speedup(benchmark):
    result = once(benchmark, run_experiment, "fig6")
    report("fig6_speedup", result.text)
    report("table5_amdahl", result.data["table5_text"])
    assert result.checks

    graph, _store, reference = prepared("LJ")
    obs = RunReport("fig6-parallel-LJ", meta={
        "dataset": "LJ",
        "engine": "opt-parallel",
        "worker_counts": list(WORKER_COUNTS),
    })
    for workers in WORKER_COUNTS:
        started = time.perf_counter()
        # The widest configuration feeds the merged metrics/gauges (and
        # hence the run.elapsed_wall headline compare_reports.py diffs).
        run = triangulate_parallel(
            graph, workers=workers,
            ctx=RunContext(
                report=obs if workers == max(WORKER_COUNTS) else None),
        )
        obs.derive(f"wall_w{workers}", time.perf_counter() - started)
        assert run.triangles == reference.triangles
        assert run.cpu_ops == reference.cpu_ops
    emit_bench_report("fig6_speedup", obs)

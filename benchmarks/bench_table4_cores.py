"""Table 4 — elapsed times of OPT and GraphChi-Tri with 1 and 6 cores.

Thin timing wrapper: the experiment logic (and its qualitative-claim
assertions) lives in :mod:`repro.experiments`; running it here regenerates
``benchmarks/results/table4_cores.txt``.

The table's core-scaling story is additionally exercised on the real
process-parallel engine (single worker vs the widest pinned count) and
the merged report lands in ``BENCH_table4_cores.json`` for the
run-to-run trajectory diff.
"""

from __future__ import annotations

import time

from _helpers import emit_bench_report, once, prepared, report
from repro.experiments import run_experiment
from repro.obs import RunContext, RunReport
from repro.parallel import triangulate_parallel


def test_table4_cpu_cores(benchmark):
    result = once(benchmark, run_experiment, "table4")
    report("table4_cores", result.text)
    assert result.checks  # every claim verified inside the experiment

    graph, _store, reference = prepared("LJ")
    obs = RunReport("table4-parallel-LJ", meta={
        "dataset": "LJ",
        "engine": "opt-parallel",
        "worker_counts": [1, 4],
    })
    for workers in (1, 4):
        started = time.perf_counter()
        run = triangulate_parallel(
            graph, workers=workers,
            ctx=RunContext(report=obs if workers == 1 else None))
        obs.derive(f"wall_w{workers}", time.perf_counter() - started)
        assert run.triangles == reference.triangles
    emit_bench_report("table4_cores", obs)

"""Ablation — intersection kernels (real wall-clock micro-benchmark).

Unlike the simulated experiments, this one measures actual Python wall
time: EdgeIterator≻ over the LJ stand-in with each kernel of the
composition layer's registry (``repro.exec.registry.KERNELS``: hash,
merge, gallop, bitmap, adaptive), each run as its ``memory`` /
``serial`` cell.  All kernels must produce identical triangle counts;
the reported op counts follow each kernel's own measure — bitmap
charges hash's analytic ``min(|a|, |b|)``, and the adaptive kernel's
range-pruned Eq. 3 bill must come in below it.

The sweep also emits ``BENCH_ablation_kernels.json`` for the CI
regression gate: its headline (``derived.elapsed_simulated``) is the
adaptive kernel's charged ops priced at the cost model's per-op time, a
machine-independent figure ``compare_reports.py`` can diff at a strict
threshold.
"""

from __future__ import annotations

import time

from _helpers import COST, emit_bench_report, once, prepared, report
from repro.exec import compose
from repro.exec.registry import KERNELS
from repro.obs import RunReport
from repro.util.tables import format_table


def sweep():
    graph, _store, reference = prepared("LJ")
    rows = {}
    for kernel in KERNELS:
        start = time.perf_counter()
        result = compose("memory", kernel, "serial", graph=graph).run()
        wall = time.perf_counter() - start
        assert result.triangles == reference.triangles
        rows[kernel] = (result.triangles, result.cpu_ops, wall)
    return rows


def test_ablation_kernels(benchmark):
    results = once(benchmark, sweep)
    # The walls go to the JSON (derived.wall_*) only, so the table is a
    # byte-identical artifact.
    rows = [
        (kernel, triangles, ops)
        for kernel, (triangles, ops, _) in results.items()
    ]
    report(
        "ablation_kernels",
        format_table(
            ["kernel", "triangles", "charged ops"],
            rows,
            title="Ablation: intersection kernels on LJ (identical "
                  "results, different constants)",
        ),
    )
    counts = {triangles for triangles, _, _ in results.values()}
    assert len(counts) == 1
    # Bitmap charges the paper's min() measure, as hash does.
    assert results["bitmap"][1] == results["hash"][1]
    # Range pruning never charges above the hash min, and on the skewed
    # LJ stand-in it strictly undercuts it.
    assert results["adaptive"][1] < results["hash"][1]

    obs = RunReport("ablation-kernels-LJ", meta={
        "dataset": "LJ",
        "engine": "exec.compose",
        "kernels": list(KERNELS),
    })
    for kernel, (triangles, ops, wall) in results.items():
        obs.counter("exec.triangles", kernel=kernel).inc(triangles)
        obs.counter("exec.ops", kernel=kernel).inc(ops)
        obs.derive(f"wall_{kernel}", wall)
    total_wall = sum(wall for _, _, wall in results.values())
    obs.gauge("run.elapsed_wall").set(total_wall)
    # Deterministic headline: the adaptive bill priced per-op, so the CI
    # gate diffs op-count regressions, not runner-to-runner wall noise.
    obs.derive("elapsed_simulated", results["adaptive"][1] * COST.op_time)
    emit_bench_report("ablation_kernels", obs)

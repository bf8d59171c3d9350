"""Robustness — simulated cost of fault injection and recovery.

Runs OPT on the LJ stand-in three times: clean, under a moderate seeded
fault plan (transient errors + latency spikes, all recoverable), and
under a heavy plan.  Triangle counts must be identical — the recovery
layer's contract is *exact answers or a typed error, never silently
wrong* — while simulated elapsed time grows by exactly the injected
delay plus retry backoff the scheduler charges.

Emits ``results/BENCH_fault_overhead.json`` (RunReport schema, validated
by ``check_report_schema.py``) whose derived ``fault_overhead`` is the
faulty/clean elapsed ratio of the heavy plan.
"""

from __future__ import annotations

from _helpers import COST, emit_bench_report, once, prepared, report
from repro.core import triangulate_disk
from repro.obs import RunContext, RunReport
from repro.storage.faults import FaultPlan, FaultSpec, RetryPolicy
from repro.util.tables import format_table

PLANS = {
    "clean": [],
    "moderate": [
        FaultSpec("transient", rate=0.1, times=1),
        FaultSpec("latency", rate=0.2, delay=0.0002),
    ],
    "heavy": [
        FaultSpec("transient", rate=0.4, times=2),
        FaultSpec("latency", rate=0.5, delay=0.001),
        FaultSpec("torn", rate=0.1, times=1),
    ],
}

POLICY = RetryPolicy(max_retries=3, backoff_base=0.0002)


def sweep():
    _graph, store, reference = prepared("LJ")
    rows = {}
    reports = {}
    for name, specs in PLANS.items():
        run_report = RunReport(f"fault-{name}", meta={
            "dataset": "LJ", "fault_plan": name,
        })
        plan = FaultPlan(specs, seed=20140623) if specs else None
        result = triangulate_disk(
            store, buffer_ratio=0.15, cost=COST,
            ideal_cpu_ops=reference.cpu_ops,
            ctx=RunContext(report=run_report, fault_plan=plan,
                           retry_policy=POLICY if plan else None),
        )
        injected = sum(
            count for key, count in (plan.log.counts() if plan else {}).items()
            if key.startswith("inject:")
        )
        retries = run_report.registry.value("recovery.retries") if plan else 0
        rows[name] = (result.triangles, injected, retries,
                      result.extra["trace"].total_fault_delay, result.elapsed)
        reports[name] = run_report
    return rows, reports


def test_fault_overhead(benchmark):
    rows, reports = once(benchmark, sweep)
    table = [
        (name, triangles, injected, retries, f"{delay * 1e3:.2f}",
         f"{elapsed * 1e3:.2f}")
        for name, (triangles, injected, retries, delay, elapsed) in rows.items()
    ]
    report(
        "fault_overhead",
        format_table(
            ["plan", "triangles", "injected", "retries", "fault delay (ms)",
             "elapsed (sim ms)"],
            table,
            title="Fault-injection overhead on LJ (exact answers under "
                  "every recoverable plan)",
        ),
    )
    counts = {triangles for triangles, *_ in rows.values()}
    assert len(counts) == 1, "fault recovery changed the triangle count"
    clean_elapsed = rows["clean"][4]
    heavy = reports["heavy"]
    heavy.derive("fault_overhead", rows["heavy"][4] / clean_elapsed)
    heavy.derive("clean_elapsed", clean_elapsed)
    # Injected delay can only slow the simulated run down.
    assert rows["moderate"][4] >= clean_elapsed
    assert rows["heavy"][4] >= rows["moderate"][4]
    emit_bench_report("fault_overhead", heavy)

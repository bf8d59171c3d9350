"""Static-analysis throughput: one full ``repro.lint`` pass over the tree.

The lint gate runs in tier-1 CI on every change, so its latency is part
of the edit-test loop.  This benchmark times a complete run of all
registered rules over ``src/repro`` and holds the whole pass to a <10s
budget.  An accidentally quadratic rule (the lockset closure analysis
walks every function pair it matches) shows up here before it shows up
as a slow test suite.

Emits ``results/BENCH_lint.json`` (RunReport schema) with the
``lint.files`` / ``lint.findings`` / ``lint.rules`` counters so
run-to-run comparisons catch perf and rule-count drift.
"""

from __future__ import annotations

import time
from pathlib import Path

from _helpers import emit_bench_report, once, report
from repro.lint import ALL_RULES, LintRunner, default_rules
from repro.obs import RunReport
from repro.util.tables import format_table

BUDGET_SECONDS = 10.0

ROOT = Path(__file__).resolve().parents[1]
TARGET = ROOT / "src" / "repro"


def lint_tree():
    runner = LintRunner(default_rules(), root=ROOT)
    start = time.perf_counter()
    result = runner.run([TARGET])
    return result, time.perf_counter() - start


def test_bench_lint(benchmark):
    result, elapsed = once(benchmark, lint_tree)

    assert elapsed < BUDGET_SECONDS, (
        f"lint pass took {elapsed:.2f}s, budget is {BUDGET_SECONDS}s"
    )
    assert result.files > 50  # the tree, not an empty directory
    assert not result.findings, [f.format() for f in result.findings]

    run_report = RunReport("lint", meta={
        "target": "src/repro",
        "budget_seconds": BUDGET_SECONDS,
    })
    run_report.counter("lint.files").inc(result.files)
    run_report.counter("lint.findings").inc(len(result.findings))
    run_report.counter("lint.rules").inc(len(ALL_RULES))
    run_report.gauge("run.elapsed_wall").set(elapsed)
    emit_bench_report("lint", run_report)

    rows = [
        ("files", result.files),
        ("findings", len(result.findings)),
        ("suppressed", result.suppressed),
        ("rules", len(ALL_RULES)),
        ("elapsed (s)", f"{elapsed:.3f}"),
        ("files/s", f"{result.files / elapsed:.0f}"),
    ]
    report(
        "lint",
        format_table(
            ["measure", "value"], rows,
            title="repro.lint: full-tree static analysis pass",
        ),
    )

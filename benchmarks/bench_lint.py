"""Static-analysis throughput: one full ``repro.lint`` pass over the tree.

The lint gate runs in tier-1 CI on every change, so its latency is part
of the edit-test loop.  This benchmark times a complete run of all
registered rules over ``src/repro`` — including the interprocedural
tier, which builds the project call graph and runs the fixed-point
rules over it — and holds the whole pass to a <10s budget.  An
accidentally quadratic rule (the lockset closure analysis walks every
function pair it matches; the exception-flow propagation iterates until
stable) shows up here before it shows up as a slow test suite.  The
call-graph build is also timed on its own so a resolution regression is
attributable to the right phase.

Emits ``results/BENCH_lint.json`` (RunReport schema) with the
``lint.files`` / ``lint.findings`` / ``lint.rules`` counters plus the
``lint.graph.functions`` / ``lint.graph.edges`` graph-size counters so
run-to-run comparisons catch perf, rule-count, and resolution drift.
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
    result = runner.run([TARGET])  # project rules build the call graph
    elapsed = time.perf_counter() - start

    # Isolate the call-graph phase: a second build over freshly parsed
    # modules measures per-file extraction + linking work on its own.
    from repro.lint.callgraph import build_call_graph
    from repro.lint.engine import _collect_files, parse_module

    modules = [parse_module(path, root=ROOT)
               for path in _collect_files([TARGET])]
    modules = [m for m in modules if m.tree is not None]
    graph_start = time.perf_counter()
    build_call_graph(modules)
    graph_elapsed = time.perf_counter() - graph_start
    return result, elapsed, graph_elapsed


def test_bench_lint(benchmark):
    result, elapsed, graph_elapsed = once(benchmark, lint_tree)

    assert elapsed < BUDGET_SECONDS, (
        f"lint pass took {elapsed:.2f}s, budget is {BUDGET_SECONDS}s"
    )
    assert result.files > 50  # the tree, not an empty directory
    assert not result.findings, [f.format() for f in result.findings]
    graph = result.graph
    assert graph is not None and len(graph.functions) > 300

    run_report = RunReport("lint", meta={
        "target": "src/repro",
        "budget_seconds": BUDGET_SECONDS,
    })
    run_report.counter("lint.files").inc(result.files)
    run_report.counter("lint.findings").inc(len(result.findings))
    run_report.counter("lint.rules").inc(len(ALL_RULES))
    run_report.counter("lint.graph.functions").inc(len(graph.functions))
    run_report.counter("lint.graph.edges").inc(len(graph.calls))
    run_report.gauge("run.elapsed_wall").set(elapsed)
    run_report.derive("callgraph_build_seconds", graph_elapsed)
    emit_bench_report("lint", run_report)

    rows = [
        ("files", result.files),
        ("findings", len(result.findings)),
        ("suppressed", result.suppressed),
        ("rules", len(ALL_RULES)),
        ("graph functions", len(graph.functions)),
        ("graph edges", len(graph.calls)),
        ("callgraph build (s)", f"{graph_elapsed:.3f}"),
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

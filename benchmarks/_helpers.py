"""Shared machinery for the paper-reproduction benchmarks.

Every benchmark regenerates one table or figure of the paper: it runs the
real computation under ``pytest-benchmark`` (one timed round — the
workloads are deterministic) and emits the paper-style table both to
stdout and to ``benchmarks/results/<name>.txt``.

Benchmarks additionally emit machine-readable trajectory files through
the observability layer: :func:`run_report` executes one instrumented
OPT run and :func:`emit_bench_report` persists it as
``benchmarks/results/BENCH_<name>.json`` in the
:class:`~repro.obs.RunReport` schema, so perf numbers are comparable
run-to-run (``benchmarks/check_report_schema.py`` guards the schema).
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path

from repro.core import make_store, triangulate_disk
from repro.graph import datasets
from repro.graph.graph import Graph
from repro.graph.ordering import apply_ordering
from repro.memory import edge_iterator
from repro.memory.base import TriangulationResult
from repro.obs import RunContext, RunReport
from repro.sim import CostModel
from repro.storage.layout import GraphStore

#: All benchmarks run on 1 KiB pages: the stand-in graphs are ~1/1000 the
#: paper's, so smaller pages keep the page count (and hence the buffer
#: granularity) comparable to the original experiments.
PAGE_SIZE = 1024

#: One cost model for the whole suite (see repro.sim.costmodel for the
#: calibration rationale).
COST = CostModel()

RESULTS_DIR = Path(__file__).parent / "results"


def report(name: str, text: str) -> None:
    """Print a reproduction table and persist it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    banner = f"\n{'=' * 72}\n{text}\n{'=' * 72}"
    print(banner)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")


@lru_cache(maxsize=None)
def prepared(name: str) -> tuple[Graph, GraphStore, TriangulationResult]:
    """Degree-ordered dataset stand-in, its page store, and the in-memory
    EdgeIterator≻ reference result (the ideal method's CPU cost)."""
    graph, _ = apply_ordering(datasets.load(name), "degree")
    store = make_store(graph, PAGE_SIZE)
    reference = edge_iterator(graph)
    return graph, store, reference


def once(benchmark, func, *args, **kwargs):
    """Run *func* exactly once under the benchmark timer."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)


def run_report(
    dataset: str = "LJ",
    *,
    buffer_ratio: float = 0.15,
    cores: int = 1,
    label: str | None = None,
) -> RunReport:
    """One instrumented OPT run on a dataset stand-in.

    The ideal cost uses the in-memory EdgeIterator≻ reference (Fig. 3a's
    baseline), so the report's ``overhead_vs_ideal`` is directly the
    paper's relative-elapsed-time figure.
    """
    _graph, store, reference = prepared(dataset)
    report = RunReport(label or f"opt-{dataset}", meta={
        "dataset": dataset,
        "buffer_ratio": buffer_ratio,
        "page_size": PAGE_SIZE,
    })
    triangulate_disk(store, buffer_ratio=buffer_ratio, cost=COST,
                     cores=cores, ctx=RunContext(report=report),
                     ideal_cpu_ops=reference.cpu_ops)
    return report


def emit_bench_report(name: str, report: RunReport) -> Path:
    """Persist *report* as ``results/BENCH_<name>.json`` (RunReport schema)."""
    RESULTS_DIR.mkdir(exist_ok=True)
    return report.write_json(RESULTS_DIR / f"BENCH_{name}.json")

"""Command-line interface: ``opt-repro`` / ``python -m repro``.

Subcommands
-----------
``generate``
    Produce a synthetic graph (R-MAT, Erdős–Rényi, Holme–Kim, BA) as an
    edge-list or binary file.
``triangulate``
    Run any method — disk-based OPT variants, baselines, or in-memory
    iterators — over an input file or a named dataset stand-in and print
    the result summary.
``datasets``
    List the built-in dataset stand-ins with their (generated) statistics.
``metrics``
    Compute triangle-derived network metrics for a graph.

Observability: ``triangulate --report out.json`` captures the run as a
:class:`~repro.obs.RunReport` (phase spans, SSD/buffer counters, and the
derived ``overhead_vs_ideal``); ``report --run out.json`` pretty-prints
one.  ``triangulate --trace out.trace.json`` additionally records the
run's causal event timeline (Chrome trace_event JSON — load it in
Perfetto or ``chrome://tracing``): simulated time for the disk-based
methods, wall time for ``--method opt-threaded``.  ``trace
out.trace.json`` summarizes a saved trace as overlap analytics plus an
ASCII Gantt chart.  The global ``--verbose`` /
``--quiet`` flags configure the ``repro.*`` logger hierarchy.

Robustness: ``triangulate --fault-kind transient --fault-rate 0.2``
injects a seeded :class:`~repro.storage.faults.FaultPlan` into the
disk-based methods (recovery per ``--max-retries``), and
``--checkpoint ckpt.json`` commits each completed iteration so an
interrupted run resumes without re-listing triangles — see
``docs/robustness.md``.  These flags fill one
:class:`~repro.obs.RunContext`; a method whose engine does not consume
a field refuses it (``error: --flag applies only to ...``, exit 1).

Static analysis: ``lint`` runs the project-specific AST rules (lockset
checker, sim-purity, obs-vocabulary conformance, ...) over the tree —
the same gate as ``python -m repro.lint``; see
``docs/static-analysis.md``.

Performance attribution: ``profile`` runs a method with the
cost-attribution table enabled and prints where the Eq. 3 operations go,
as an ASCII table of ops share per ``(phase, kernel, source,
degree-bucket)`` cell.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from repro.errors import ConfigurationError, ReproError
from repro.obs import configure_logging
from repro.graph import datasets, generators
from repro.graph.io import (
    read_adjacency,
    read_binary,
    read_edge_list,
    write_binary,
    write_edge_list,
)
from repro.graph.ordering import apply_ordering
from repro.util.tables import format_table

__all__ = ["main"]


def _load_graph(args) -> "object":
    if args.dataset:
        graph = datasets.load(args.dataset)
    else:
        path = Path(args.input)
        suffixes = "".join(path.suffixes)
        if path.suffix == ".bin":
            graph = read_binary(path)
        elif ".adj" in suffixes:
            graph = read_adjacency(path)
        else:
            graph = read_edge_list(path)
    if getattr(args, "ordering", "degree") != "natural":
        graph, _ = apply_ordering(graph, args.ordering)
    return graph


def _cmd_generate(args) -> int:
    if args.model == "rmat":
        graph = generators.rmat(args.vertices, args.edges, seed=args.seed)
    elif args.model == "erdos-renyi":
        graph = generators.erdos_renyi(args.vertices, args.edges, seed=args.seed)
    elif args.model == "holme-kim":
        graph = generators.holme_kim(args.vertices, args.attach, args.triad,
                                     seed=args.seed)
    else:
        graph = generators.barabasi_albert(args.vertices, args.attach,
                                           seed=args.seed)
    path = Path(args.output)
    if path.suffix == ".bin":
        write_binary(graph, path)
    else:
        write_edge_list(graph, path)
    print(f"wrote {graph.num_vertices} vertices / {graph.num_edges} edges to {path}")
    return 0


def _build_fault_plan(args):
    """A (plan, policy) pair from the triangulate fault flags, or Nones."""
    from repro.storage.faults import FaultPlan, FaultSpec, RetryPolicy

    if not args.fault_kind:
        return None, None
    specs = [
        FaultSpec(kind, rate=args.fault_rate, delay=args.fault_delay)
        for kind in args.fault_kind
    ]
    plan = FaultPlan(specs, seed=args.fault_seed)
    policy = RetryPolicy(max_retries=args.max_retries)
    return plan, policy


#: ``--method`` → OPT plugin for the simulated-disk engine.
_DISK_PLUGINS = {"opt": "edge-iterator", "opt-vi": "vertex-iterator",
                 "mgt": "mgt"}

#: Methods whose timeline (elapsed, tracer) is real time; the
#: rest report simulated seconds.
_WALL_METHODS = ("opt-threaded", "opt-parallel", "compose")

#: ``RunContext`` field → the ``triangulate`` flag that fills it.
_CONTEXT_FLAGS = {"trace": "--trace", "fault_plan": "--fault-kind",
                  "checkpoint": "--checkpoint"}


def _run_method(args, graph, ctx):
    """Run ``args.method`` over *graph* under *ctx*: ``(result, label)``.

    The one method → engine dispatch, shared by ``triangulate`` and
    ``profile``.  Every engine checks *ctx* against its own
    ``RunContext.accept`` declaration, so a flag the method cannot
    honour surfaces as that engine's ``ConfigurationError`` (reported
    as ``error: ...`` with exit code 1).
    """
    from repro.core import buffer_pages_for_ratio, make_store
    from repro.sim import CostModel

    method = args.method
    cost = CostModel()
    if method in _DISK_PLUGINS:
        from repro.core import triangulate_disk
        from repro.memory import edge_iterator

        store = make_store(graph, args.page_size)
        # The paper's ideal cost uses the in-memory EdgeIterator≻ op
        # count (Fig. 3a's reference), so the report's overhead_vs_ideal
        # is computed against the same baseline.
        ideal_cpu_ops = (edge_iterator(graph).cpu_ops
                         if ctx.report is not None else None)
        return triangulate_disk(store, plugin=_DISK_PLUGINS[method],
                                buffer_ratio=args.buffer_ratio, cost=cost,
                                cores=getattr(args, "cores", 1),
                                ideal_cpu_ops=ideal_cpu_ops, ctx=ctx), method
    if method == "opt-threaded":
        import tempfile

        from repro.core import triangulate_threaded

        store = make_store(graph, args.page_size)
        pages = buffer_pages_for_ratio(store, args.buffer_ratio)
        with tempfile.TemporaryDirectory(prefix="opt-threaded-") as tmp:
            return triangulate_threaded(store, tmp, buffer_pages=pages,
                                        page_size=args.page_size,
                                        ctx=ctx), method
    if method == "opt-parallel":
        from repro.parallel import triangulate_parallel

        return triangulate_parallel(graph, workers=args.workers,
                                    ctx=ctx), method
    if method == "compose":
        from repro.exec import compose

        engine = compose(args.source, args.kernel, args.executor,
                         graph=graph, workers=args.workers)
        return engine.run(ctx=ctx), f"compose:{engine.describe()}"
    # Baselines and in-memory iterators record nothing themselves; the
    # caller exports their result counters into a --report afterwards.
    ctx.accept(method, "report")
    if method in ("cc-seq", "cc-ds", "graphchi"):
        from repro.baselines import cc_ds, cc_seq, graphchi_tri

        pages = buffer_pages_for_ratio(make_store(graph, args.page_size),
                                       args.buffer_ratio)
        if method == "graphchi":
            return graphchi_tri(graph, buffer_pages=pages,
                                page_size=args.page_size, cost=cost,
                                cores=args.cores), method
        baseline = cc_seq if method == "cc-seq" else cc_ds
        return baseline(graph, buffer_pages=pages, page_size=args.page_size,
                        cost=cost), method
    from repro.memory import edge_iterator, forward, matrix_count, vertex_iterator

    runner = {"edge-iterator": edge_iterator,
              "vertex-iterator": vertex_iterator,
              "forward": forward,
              "matrix": matrix_count}[method]
    return runner(graph), method


def _cmd_triangulate(args) -> int:
    from repro.core import RunCheckpoint
    from repro.obs import (
        EventTracer,
        RunContext,
        RunReport,
        write_chrome_trace,
    )

    graph = _load_graph(args)
    # Disk methods replay on the deterministic simulated clock (a
    # byte-stable trace per seed); the threaded and
    # process-parallel engines record real timelines in wall time.
    clock = "wall" if args.method in _WALL_METHODS else "sim"
    report = None
    if args.report:
        report = RunReport(args.method, meta={
            "source": args.dataset or args.input,
            "method": args.method,
            "ordering": getattr(args, "ordering", "degree"),
        })
    tracer = EventTracer(clock=clock) if args.trace else None
    fault_plan, retry_policy = _build_fault_plan(args)
    checkpoint = None
    if args.checkpoint:
        ckpt_path = Path(args.checkpoint)
        if ckpt_path.exists():
            checkpoint = RunCheckpoint.load(ckpt_path)
            print(f"resuming from checkpoint {ckpt_path} "
                  f"({len(checkpoint.committed())} committed iterations)")
        else:
            checkpoint = RunCheckpoint()
    try:
        result, method = _run_method(args, graph, RunContext(
            report=report, trace=tracer, fault_plan=fault_plan,
            retry_policy=retry_policy, checkpoint=checkpoint))
    except ConfigurationError as exc:
        flags = [flag for name, flag in _CONTEXT_FLAGS.items()
                 if name in exc.refused]
        if not flags:
            raise
        print(f"error: {', '.join(flags)} "
              f"{'applies' if len(flags) == 1 else 'apply'} only to methods "
              f"whose engine consumes it: {exc}", file=sys.stderr)
        return 1
    if checkpoint is not None:
        path = checkpoint.save(args.checkpoint)
        print(f"wrote checkpoint to {path}")

    elapsed_label = f"elapsed ({'wall' if clock == 'wall' else 'simulated'} s)"
    rows = [
        ("triangles", result.triangles),
        ("cpu ops", result.cpu_ops),
        ("pages read", result.pages_read),
        ("pages written", result.pages_written),
        ("iterations", result.iterations),
        (elapsed_label, result.elapsed),
    ]
    print(format_table(["measure", "value"], rows,
                       title=f"{method} on {args.dataset or args.input}"))
    if tracer is not None:
        path = write_chrome_trace(args.trace, tracer)
        print(f"wrote {len(tracer)} trace events to {path} "
              f"(open in Perfetto / chrome://tracing)")
    if fault_plan is not None:
        counts = fault_plan.log.counts()
        fault_rows = sorted(counts.items()) or [("(no faults fired)", 0)]
        print(format_table(["event", "count"], fault_rows,
                           title="Fault injection summary"))
    if report is not None:
        if "report" not in result.extra:
            # Baselines and in-memory methods don't record internally yet;
            # export their result counters through the same schema.
            report.counter("triangles", phase="total").inc(result.triangles)
            report.counter("cpu.ops").inc(result.cpu_ops)
            report.counter("io.pages_read").inc(result.pages_read)
            report.counter("io.pages_written").inc(result.pages_written)
            report.counter("io.pages_buffered").inc(result.pages_buffered)
            report.gauge("run.elapsed_simulated").set(result.elapsed)
        path = report.write_json(args.report)
        print(f"wrote run report to {path}")
    return 0


def _cmd_layout(args) -> int:
    from repro.preprocess import build_store_external

    work_dir = args.work_dir or str(Path(args.output) / "work")
    store, _mapping, stats = build_store_external(
        args.input,
        work_dir,
        page_size=args.page_size,
        chunk_edges=args.chunk_edges,
        degree_order=not args.natural_order,
    )
    pages_path, index_path = store.save(args.output)
    rows = [
        ("vertices", stats.num_vertices),
        ("edges", stats.num_edges),
        ("phase-1 runs", stats.runs_phase1),
        ("phase-2 runs", stats.runs_phase2),
        ("pages", stats.num_pages),
    ]
    print(format_table(["measure", "value"], rows,
                       title=f"packed {args.input} -> {pages_path}"))
    return 0


def _cmd_verify(args) -> int:
    from repro.verify import verify_methods

    graph = _load_graph(args)
    report = verify_methods(graph, page_size=args.page_size,
                            buffer_pages=args.buffer_pages,
                            include_threaded=not args.skip_threaded)
    rows = sorted(report.counts.items())
    print(format_table(["method", "triangles"], rows,
                       title="Cross-method verification"))
    if report.consistent:
        print(f"\nall {len(report.counts)} methods agree: "
              f"{report.expected:,} triangles")
        return 0
    print(f"\nDISAGREEMENT: {report.disagreements()}")
    return 1


def _cmd_bench(args) -> int:
    import time

    from repro.experiments import experiment_names, run_experiment

    if args.list:
        for name in experiment_names():
            print(name)
        return 0
    names = args.experiments or experiment_names()
    unknown = [n for n in names if n not in experiment_names()]
    if unknown:
        print(f"error: unknown experiment(s) {', '.join(unknown)}; "
              f"available: {', '.join(experiment_names())}", file=sys.stderr)
        return 1
    results_dir = Path(args.results_dir) if args.results_dir else None
    if results_dir:
        results_dir.mkdir(parents=True, exist_ok=True)
    for name in names:
        start = time.perf_counter()
        result = run_experiment(name)
        wall = time.perf_counter() - start
        print(f"\n{'=' * 72}\n{result.text}\n{'-' * 72}")
        print(f"{name}: {len(result.checks)} claims verified in {wall:.1f}s")
        if results_dir:
            (results_dir / f"{name}.txt").write_text(result.text + "\n",
                                                     encoding="utf-8")
    return 0


def _cmd_report(args) -> int:
    if args.run:
        import json

        from repro.obs import RunReport

        try:
            text = Path(args.run).read_text(encoding="utf-8")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        try:
            report = RunReport.from_dict(json.loads(text))
        except ValueError as exc:  # JSONDecodeError included
            print(f"error: {args.run}: {exc}", file=sys.stderr)
            return 1
        print(report.summary())
        return 0
    from repro.analysis.report import build_report

    text = build_report(args.results_dir, args.output)
    if args.output:
        print(f"wrote report to {args.output}")
    else:
        print(text)
    return 0


def _cmd_trace(args) -> int:
    import json

    from repro.obs import (
        ascii_gantt,
        from_chrome_trace,
        overlap_analytics,
        validate_chrome_trace,
    )

    try:
        payload = json.loads(Path(args.trace_file).read_text(encoding="utf-8"))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: {args.trace_file}: not JSON: {exc}", file=sys.stderr)
        return 1
    errors = validate_chrome_trace(payload)
    if errors:
        print(f"error: {args.trace_file}: not a valid Chrome trace:",
              file=sys.stderr)
        for err in errors[:10]:
            print(f"  - {err}", file=sys.stderr)
        return 1
    events = from_chrome_trace(payload)
    stats = overlap_analytics(events)
    rows = [
        ("events", stats["event_counts"] and sum(stats["event_counts"].values())),
        ("span (s)", stats["span"]),
        ("macro overlap ratio", stats["macro_overlap_ratio"]),
        ("micro overlap ratio", stats["micro_overlap_ratio"]),
        ("I/O outstanding (s)", stats["io_outstanding_time"]),
        ("internal CPU (s)", stats["internal_cpu_time"]),
        ("external CPU (s)", stats["external_cpu_time"]),
    ]
    print(format_table(["measure", "value"], rows,
                       title=f"trace {args.trace_file}"))
    util_rows = sorted(stats["track_utilization"].items())
    if util_rows:
        print(format_table(["track", "busy fraction"], util_rows,
                           title="Per-track utilization"))
    print()
    print(ascii_gantt(events, width=args.width))
    return 0


def _cmd_lint(args) -> int:
    from repro.lint.cli import run_lint

    return run_lint(args.lint_argv)


def _cmd_datasets(args) -> int:
    rows = []
    for name in datasets.dataset_names():
        spec = datasets.DATASETS[name]
        graph = datasets.load(name)
        rows.append((name, graph.num_vertices, graph.num_edges,
                     spec.paper_vertices, spec.paper_edges))
    print(format_table(
        ["dataset", "|V| (stand-in)", "|E| (stand-in)", "|V| (paper)", "|E| (paper)"],
        rows, title="Dataset stand-ins"))
    return 0


def _cmd_metrics(args) -> int:
    from repro.graph.metrics import (
        global_clustering_coefficient,
        per_vertex_triangles,
        transitivity,
    )

    graph = _load_graph(args)
    triangles = int(per_vertex_triangles(graph).sum()) // 3
    rows = [
        ("vertices", graph.num_vertices),
        ("edges", graph.num_edges),
        ("triangles", triangles),
        ("clustering coefficient", global_clustering_coefficient(graph)),
        ("transitivity", transitivity(graph)),
    ]
    print(format_table(["metric", "value"], rows))
    return 0


def _cmd_profile(args) -> int:
    from repro.obs import Attribution, RunContext, render_attribution

    graph = _load_graph(args)
    attribution = Attribution()
    result, method = _run_method(args, graph,
                                 RunContext(attribution=attribution))
    print(render_attribution(attribution))
    print(f"{method} on {args.dataset or args.input}: "
          f"{result.triangles} triangles, "
          f"{attribution.total_ops} attributed ops over "
          f"{len(attribution)} cells")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opt-repro",
        description="OPT overlapped & parallel triangulation (SIGMOD'14 reproduction)",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="more repro.* logging (-v info, -vv debug)")
    parser.add_argument("-q", "--quiet", action="count", default=0,
                        help="less repro.* logging (errors only)")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic graph")
    gen.add_argument("--model", choices=["rmat", "erdos-renyi", "holme-kim",
                                         "barabasi-albert"], default="rmat")
    gen.add_argument("--vertices", type=int, required=True)
    gen.add_argument("--edges", type=int, default=0)
    gen.add_argument("--attach", type=int, default=4)
    gen.add_argument("--triad", type=float, default=0.3)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--output", required=True)
    gen.set_defaults(func=_cmd_generate)

    def add_input_args(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--input", help="edge-list (.txt) or binary (.bin) graph")
        group.add_argument("--dataset", help="named stand-in (LJ, ORKUT, ...)")
        p.add_argument("--ordering",
                       choices=["natural", "degree", "reverse-degree",
                                "random", "degeneracy", "locality", "auto"],
                       default="degree",
                       help="vertex-id relabeling applied after load; "
                            "'auto' measures the Eq. 3 bill of each "
                            "candidate and picks the cheapest")

    tri = sub.add_parser("triangulate", help="run a triangulation method")
    add_input_args(tri)
    tri.add_argument("--method", default="opt",
                     choices=["opt", "opt-vi", "mgt", "opt-threaded",
                              "opt-parallel", "cc-seq", "cc-ds",
                              "graphchi", "edge-iterator", "vertex-iterator",
                              "forward", "matrix", "compose"])
    # Axis choices mirror repro.exec.registry (SOURCES / KERNELS /
    # EXECUTORS); the scenario matrix asserts they stay in sync so the
    # parser never imports the engine stack just to print --help.
    tri.add_argument("--source", default="memory",
                     choices=["memory", "shm"],
                     help="graph source for --method compose: heap CSR "
                          "or POSIX shared-memory CSR")
    tri.add_argument("--kernel", default="hash",
                     choices=["hash", "merge", "gallop", "bitmap",
                              "adaptive"],
                     help="intersection kernel for --method compose "
                          "(hash charges the paper's Eq. 3 probe count; "
                          "adaptive range-prunes and picks a data path "
                          "per pair)")
    tri.add_argument("--executor", default="serial",
                     choices=["serial", "process"],
                     help="execution strategy for --method compose; "
                          "'process' requires --source shm")
    tri.add_argument("--buffer-ratio", type=float, default=0.15)
    tri.add_argument("--page-size", type=int, default=4096)
    tri.add_argument("--cores", type=int, default=1)
    tri.add_argument("--workers", type=int, default=2,
                     help="process count for --method opt-parallel (the "
                          "shared-memory work-stealing engine)")
    tri.add_argument("--report", default=None, metavar="OUT.json",
                     help="write the run's observability report (RunReport "
                          "JSON: phase spans, counters, overhead_vs_ideal)")
    tri.add_argument("--trace", default=None, metavar="TRACE.json",
                     help="write the run's causal event timeline as Chrome "
                          "trace_event JSON (Perfetto-loadable); simulated "
                          "clock for opt/opt-vi/mgt, wall clock for "
                          "opt-threaded and opt-parallel")
    tri.add_argument("--fault-kind", action="append", default=[],
                     choices=["latency", "transient", "torn"],
                     help="inject seeded storage faults of this kind into the "
                          "disk-based methods (repeatable)")
    tri.add_argument("--fault-rate", type=float, default=0.1,
                     help="per-page probability of each injected fault kind")
    tri.add_argument("--fault-seed", type=int, default=0,
                     help="seed of the fault plan (same seed, same faults)")
    tri.add_argument("--fault-delay", type=float, default=0.002,
                     help="injected latency in seconds (latency faults)")
    tri.add_argument("--max-retries", type=int, default=3,
                     help="retry budget before a fault becomes terminal")
    tri.add_argument("--checkpoint", default=None, metavar="CKPT.json",
                     help="commit each completed iteration here; an existing "
                          "file resumes the run (replaying committed output)")
    tri.set_defaults(func=_cmd_triangulate)

    lay = sub.add_parser("layout",
                         help="pack an edge-list file into a page store "
                              "(out-of-core, external sort)")
    lay.add_argument("--input", required=True)
    lay.add_argument("--output", required=True,
                     help="directory receiving graph.pages + graph.idx.npz")
    lay.add_argument("--work-dir", default=None)
    lay.add_argument("--page-size", type=int, default=4096)
    lay.add_argument("--chunk-edges", type=int, default=65536)
    lay.add_argument("--natural-order", action="store_true",
                     help="skip the degree-based relabeling")
    lay.set_defaults(func=_cmd_layout)

    ver = sub.add_parser("verify", help="cross-check all methods on one graph")
    add_input_args(ver)
    ver.add_argument("--page-size", type=int, default=1024)
    ver.add_argument("--buffer-pages", type=int, default=8)
    ver.add_argument("--skip-threaded", action="store_true")
    ver.set_defaults(func=_cmd_verify)

    ben = sub.add_parser("bench", help="run paper-reproduction experiments")
    ben.add_argument("experiments", nargs="*",
                     help="experiment ids (e.g. fig6 table4); default: all")
    ben.add_argument("--list", action="store_true",
                     help="list available experiments")
    ben.add_argument("--results-dir", default=None,
                     help="also write each table to <dir>/<id>.txt")
    ben.set_defaults(func=_cmd_bench)

    rep = sub.add_parser("report",
                         help="assemble benchmark results into markdown, or "
                              "pretty-print a RunReport JSON (--run)")
    rep.add_argument("--results-dir", default="benchmarks/results")
    rep.add_argument("--output", default=None)
    rep.add_argument("--run", default=None, metavar="REPORT.json",
                     help="pretty-print a RunReport JSON file instead")
    rep.set_defaults(func=_cmd_report)

    trc = sub.add_parser("trace",
                         help="summarize a saved event trace: overlap "
                              "analytics and an ASCII Gantt chart")
    trc.add_argument("trace_file", metavar="TRACE.json",
                     help="Chrome trace_event JSON written by "
                          "triangulate --trace")
    trc.add_argument("--width", type=int, default=72,
                     help="Gantt chart width in columns")
    trc.set_defaults(func=_cmd_trace)

    # No arguments declared here: main() hands everything after `lint`
    # to repro.lint.cli's parser (so `lint --help` prints that one's).
    lnt = sub.add_parser("lint", add_help=False,
                         help="project-specific static analysis (lockset, "
                              "sim-purity, obs-vocabulary, ...)")
    lnt.set_defaults(func=_cmd_lint)

    ds = sub.add_parser("datasets", help="list dataset stand-ins")
    ds.set_defaults(func=_cmd_datasets)

    met = sub.add_parser("metrics", help="triangle-derived network metrics")
    add_input_args(met)
    met.set_defaults(func=_cmd_metrics)

    pro = sub.add_parser("profile",
                         help="run a method with cost attribution: where do "
                              "the Eq. 3 ops go, by (phase, kernel, source, "
                              "degree bucket)")
    add_input_args(pro)
    pro.add_argument("--method", default="compose",
                     choices=["opt", "opt-vi", "mgt", "opt-parallel",
                              "compose"],
                     help="attribution-instrumented engine to profile")
    pro.add_argument("--source", default="memory",
                     choices=["memory", "shm"],
                     help="graph source for --method compose")
    pro.add_argument("--kernel", default="hash",
                     choices=["hash", "merge", "gallop", "bitmap",
                              "adaptive"],
                     help="intersection kernel for --method compose")
    pro.add_argument("--executor", default="serial",
                     choices=["serial", "process"],
                     help="execution strategy for --method compose")
    pro.add_argument("--buffer-ratio", type=float, default=0.15)
    pro.add_argument("--page-size", type=int, default=4096)
    pro.add_argument("--workers", type=int, default=2,
                     help="worker count for opt-parallel and the "
                          "process executor")
    pro.set_defaults(func=_cmd_profile)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args, rest = parser.parse_known_args(argv)
    if args.func is _cmd_lint:
        args.lint_argv = rest
    elif rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    configure_logging(args.verbose - args.quiet)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader went away (``| head``).  What is still buffered would
        # raise again in the interpreter's final flush, so it goes nowhere.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

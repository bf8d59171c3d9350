"""Per-layer probes of the traced run, measured from outside.

Each probe wraps calls into one module's public functions in spans named
after the metric they feed; a time metric is the median speed-normalised
span of its name (``Run.seconds``).
Every probe runs on every workload's graph, so each traced run reports
the full ``PER_LAYER`` list (layer = module name under ``src/repro``).
"""

from __future__ import annotations

import resource
import statistics

import numpy as np

from repro import core
from repro.core.framework import OPTConfig, run_opt
from repro.exec import compose
from repro.graph.ordering import choose_ordering, ordering_op_cost
from repro.memory.base import CollectSink
from repro.parallel.engine import count_chunk, triangulate_parallel
from repro.parallel.shm import SharedCSR
from repro.sim.costmodel import DEFAULT_COST_MODEL
from repro.sim.schedule import simulate

import workloads
from harness import Run
from workloads import BUFFER_RATIO, PAGE_SIZE, WORKERS

KERNELS = ("hash", "merge", "gallop", "bitmap", "adaptive")
#: ``triangulate_threaded`` is bimodal on a shared box (see README.md);
#: best and worst of this many passes put the defect on record.
THREADED_PASSES = 3

#: name -> (unit, repeats exactly for a given seed)
PER_LAYER: dict[str, tuple[str, bool]] = {
    "graph.load_s": ("s", False),
    "graph.choose_ordering_s": ("s", False),
    "graph.relabel_s": ("s", False),
    "graph.op_cost": ("count", True),
    "graph.edges": ("count", True),
    **{f"exec.run_s.{k}": ("s", False) for k in KERNELS},
    **{f"exec.ops.{k}": ("count", True) for k in KERNELS},
    **{f"exec.ns_per_op.{k}": ("ns", False) for k in KERNELS},
    "exec.loop_floor_s": ("s", False),
    "exec.kernel_share": ("ratio", False),
    "exec.collect_s": ("s", False),
    "exec.process_s": ("s", False),
    "parallel.publish_s": ("s", False),
    "parallel.attach_s": ("s", False),
    "parallel.kernel_s": ("s", False),
    "parallel.w1_s": ("s", False),
    "parallel.w2_s": ("s", False),
    "parallel.count_w2_s": ("s", False),
    "parallel.ship_s": ("s", False),
    "parallel.overhead_s": ("s", False),
    "parallel.speedup_w2": ("ratio", False),
    "parallel.cpu_s": ("s", False),
    "parallel.steals": ("count", False),
    "storage.pack_s": ("s", False),
    "storage.file_bytes": ("bytes", True),
    "storage.save_s": ("s", False),
    "storage.decode_page_us": ("us", False),
    "storage.pages": ("count", True),
    "storage.pages_read": ("count", True),
    "storage.read_amp": ("ratio", True),
    "storage.buffer_hit_rate": ("ratio", True),
    "core.run_opt_s": ("s", False),
    "core.replay_s": ("s", False),
    "core.iterations": ("count", True),
    "core.ops": ("count", True),
    "core.sim_elapsed_s": ("sim_s", True),
    "core.overhead_vs_ideal": ("ratio", True),
    "core.threaded_best_s": ("s", False),
    "core.threaded_worst_s": ("s", False),
    "core.output_s": ("s", False),
    "core.output_bytes": ("bytes", True),
    "memory.sink_s": ("s", False),
    "sim.simulate_s": ("s", False),
    "e2e.wall_best_s": ("s", False),
    "e2e.wall_med_s": ("s", False),
    "e2e.wall_worst_s": ("s", False),
    "e2e.setup_med_s": ("s", False),
    "e2e.slowdown": ("ratio", False),
    "harness.gen_s": ("s", False),
    "harness.oracle_s": ("s", False),
    "trace.overhead_frac": ("ratio", False),
}


class NullKernel:
    """A ``repro.exec.protocols`` kernel (and its own binding) that
    intersects nothing: what is left is the loop's own cost."""

    name = "null"
    _EMPTY = np.empty(0, dtype=np.int64)

    def bind(self, num_vertices: int) -> "NullKernel":
        return self

    def prep(self, row):
        return row

    def intersect(self, prepped, row):
        return self._EMPTY, 0

    def stats(self):
        return {}


def trace_metrics(run: Run) -> dict[str, float]:
    """The traced run: the workload's own call, then every layer probe."""
    plain, traced = run.measure_traced()
    m: dict[str, float] = {
        **run.raw_stats(),
        "harness.gen_s": run.info["harness.gen_s"],
        "harness.oracle_s": run.info["harness.oracle_s"],
        "trace.overhead_frac": (statistics.median(traced)
                                / statistics.median(plain) - 1.0),
    }
    _graph(run, m)
    _exec(run, m)
    groups = _parallel(run, m)
    _paged(run, m)
    _sinks(run, m, groups)
    run.check_hygiene()
    return m


def _graph(run: Run, m: dict[str, float]) -> None:
    p = run.prepared
    if not run.rec.durations("graph.choose_ordering_s"):
        run.probe("graph.choose_ordering_s", lambda: choose_ordering(p.loaded))
    for name in ("graph.load_s", "graph.choose_ordering_s", "graph.relabel_s"):
        m[name] = run.seconds(name)
    m["graph.op_cost"] = ordering_op_cost(p.loaded, p.mapping)
    m["graph.edges"] = p.graph.num_edges


def _exec(run: Run, m: dict[str, float]) -> None:
    graph = run.prepared.graph
    for kernel in KERNELS:
        results = []

        def count_only():
            results.append(compose("memory", kernel, "serial", graph=graph).run())
            return results[-1].triangles, None

        name = f"exec.run_s.{kernel}"
        run.probe(name, count_only, verified=True)
        m[name] = run.seconds(name)
        m[f"exec.ops.{kernel}"] = results[0].cpu_ops
        m[f"exec.ns_per_op.{kernel}"] = m[name] / max(results[0].cpu_ops, 1) * 1e9

    run.probe("exec.loop_floor_s", lambda: compose(
        "memory", NullKernel(), "serial", graph=graph).run())
    m["exec.loop_floor_s"] = run.seconds("exec.loop_floor_s")
    m["exec.kernel_share"] = 1.0 - m["exec.loop_floor_s"] / m["exec.run_s.hash"]

    def collect(source: str, executor: str):
        sink = CollectSink()
        result = compose(source, "hash", executor, graph=graph,
                         workers=WORKERS).run(sink)
        return result.triangles, lambda: workloads.sink_triples(sink)

    run.probe("exec.run_collect", lambda: collect("memory", "serial"),
              verified=True)
    m["exec.collect_s"] = run.seconds("exec.run_collect") - m["exec.run_s.hash"]
    run.probe("exec.process_s", lambda: collect("shm", "process"),
              verified=True)
    m["exec.process_s"] = run.seconds("exec.process_s")


def _parallel(run: Run, m: dict[str, float]) -> list:
    """Probe ``repro.parallel``; returns the graph's groups for ``_sinks``."""
    graph = run.prepared.graph

    def publish():
        shared = SharedCSR.publish(graph)
        shared.close()
        shared.unlink()

    run.probe("parallel.publish_s", publish)

    def attach(handle):
        attached = SharedCSR.attach(handle)
        attached.graph()
        attached.close()

    with SharedCSR.publish(graph) as shared:
        run.probe("parallel.attach_s", lambda: attach(shared.handle))

    kept: list = []

    def kernel():
        triangles, _, groups = count_chunk(
            graph.indptr, graph.indices, 0, graph.num_vertices, collect=True)
        kept[:] = groups
        return triangles, lambda: workloads.group_triples(groups)

    run.probe("parallel.kernel_s", kernel, verified=True)

    cpu: list[float] = []
    steals: list[int] = []

    def listing(workers: int):
        sink = CollectSink()
        before = _cpu_seconds()
        result = triangulate_parallel(graph, workers=workers, sink=sink)
        if workers == WORKERS:
            cpu.append(_cpu_seconds() - before)
            steals.append(result.extra["parallel"].steals)
        return result.triangles, lambda: workloads.sink_triples(sink)

    run.probe("parallel.w1_s", lambda: listing(1), verified=True)
    run.probe("parallel.w2_s", lambda: listing(WORKERS), verified=True)
    run.probe("parallel.count_w2_s", lambda: (
        triangulate_parallel(graph, workers=WORKERS).triangles, None),
        verified=True)
    for name in ("publish_s", "attach_s", "kernel_s", "w1_s", "w2_s",
                 "count_w2_s"):
        m[f"parallel.{name}"] = run.seconds(f"parallel.{name}")
    m["parallel.ship_s"] = m["parallel.w2_s"] - m["parallel.count_w2_s"]
    m["parallel.overhead_s"] = (m["parallel.w2_s"]
                                - m["parallel.kernel_s"] / WORKERS)
    m["parallel.speedup_w2"] = m["parallel.w1_s"] / m["parallel.w2_s"]
    m["parallel.cpu_s"] = min(cpu)
    m["parallel.steals"] = steals[-1]
    return kept


def _cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    return sum(usage.ru_utime + usage.ru_stime for usage in map(
        resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)))


def _paged(run: Run, m: dict[str, float]) -> None:
    """Probe ``repro.storage``, ``repro.core`` (OPT) and ``repro.sim``."""
    p = run.prepared
    store = p.store
    if store is None:
        store = run.probe("storage.pack_s",
                           lambda: core.make_store(p.graph, PAGE_SIZE))
    pages_path, _ = run.probe("storage.save_s", lambda: store.save(p.tmp))

    def decode_all():
        for pid in range(store.num_pages):
            store.decode_page(pid)

    run.probe("storage.decode_pages", decode_all)
    m["storage.pack_s"] = run.seconds("storage.pack_s")
    m["storage.save_s"] = run.seconds("storage.save_s")
    m["storage.file_bytes"] = pages_path.stat().st_size
    m["storage.pages"] = store.num_pages
    m["storage.decode_page_us"] = (run.seconds("storage.decode_pages")
                                   / store.num_pages * 1e6)

    budget = core.buffer_pages_for_ratio(store, BUFFER_RATIO)
    traces = []

    def opt():
        traces.append(run_opt(store, OPTConfig.even_split(budget)))
        return traces[-1].triangles, None

    run.probe("core.run_opt_s", opt, verified=True)
    trace = traces[0]
    cost = DEFAULT_COST_MODEL
    # serial=True is the OPT_serial replay triangulate_disk performs at one
    # core; sim.simulate_s times the overlapped single-core schedule.
    replayed = run.probe("core.replay_s",
                          lambda: core.replay(trace, cost, serial=True))
    run.probe("sim.simulate_s", lambda: simulate(trace, cost, cores=1))
    for name in ("core.run_opt_s", "core.replay_s", "sim.simulate_s"):
        m[name] = run.seconds(name)
    m["core.iterations"] = len(trace.iterations)
    m["core.ops"] = replayed.cpu_ops
    m["core.sim_elapsed_s"] = replayed.elapsed
    m["core.overhead_vs_ideal"] = replayed.elapsed / core.ideal_elapsed(
        store, trace.total_ops, cost)
    buffered = trace.total_fill_buffered
    m["storage.pages_read"] = trace.total_device_reads
    m["storage.read_amp"] = trace.total_device_reads / store.num_pages
    m["storage.buffer_hit_rate"] = buffered / max(
        trace.total_device_reads + buffered, 1)

    for _ in range(THREADED_PASSES):
        run.timed_pass("core.threaded", lambda: (core.triangulate_threaded(
            store, p.tmp, buffer_pages=budget, page_size=PAGE_SIZE).triangles,
            None))
    threaded = run.rec.durations("core.threaded")
    m["core.threaded_best_s"] = min(threaded)
    m["core.threaded_worst_s"] = max(threaded)


def _sinks(run: Run, m: dict[str, float], groups: list) -> None:
    """Feed pre-collected groups to the file writer and the collect sink."""
    path = run.prepared.tmp / "probe.bin"

    def write():
        with core.NestedOutputWriter(path, page_size=PAGE_SIZE) as writer:
            for u, v, ws in groups:
                writer.emit(u, v, ws)
        return writer.bytes_written

    def collect():
        sink = CollectSink()
        for u, v, ws in groups:
            sink.emit(u, v, ws)

    m["core.output_bytes"] = run.probe("core.output_s", write)
    run.probe("memory.sink_s", collect)
    m["core.output_s"] = run.seconds("core.output_s")
    m["memory.sink_s"] = run.seconds("memory.sink_s")

"""Differential harness for the process-parallel engine.

The acceptance bar is *exact* agreement: ``opt-parallel`` with workers
in {1, 2, 4} and across chunk granularities must list the same triangle
set and charge the same total op count as the serial in-memory engines
(EdgeIterator≻, forward, compact-forward), the disk stack, and an
independent set-based brute force — on the seeded zoo from
``conftest.py`` and on the adversarial edge cases (empty graph, single
vertex, star, clique, disconnected triangles).

Workers beyond 1 run through real forked processes and shared-memory
CSR attach; on this single-core container that exercises correctness of
the decomposition and merge, not speed (the simulated engine owns the
speed-up curves).
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from repro.core import triangulate_disk
from repro.errors import ConfigurationError, ParallelError
from repro.exec import KERNELS, compose
from repro.graph.builder import from_edges
from repro.graph.generators import complete_graph, star_graph
from repro.graph.graph import Graph
from repro.memory import compact_forward, edge_iterator, forward
from repro.memory.base import CollectSink, canonical_triangles
from repro.obs import RunContext
from repro.parallel import (
    StragglerPolicy,
    default_chunk_count,
    plan_chunks,
    triangulate_parallel,
)

pytestmark = pytest.mark.parallel

WORKER_COUNTS = (1, 2, 4)


def parallel_triangles(graph, workers, **kwargs):
    sink = CollectSink()
    result = triangulate_parallel(graph, workers=workers, sink=sink, **kwargs)
    return result, canonical_triangles(sink)


def serial_reference(graph):
    sink = CollectSink()
    result = edge_iterator(graph, sink)
    return result, canonical_triangles(sink)


def brute_force_set(graph) -> list[tuple[int, int, int]]:
    """Independent oracle: adjacency-set triangle listing."""
    adjacency = [set(graph.neighbors(v).tolist())
                 for v in range(graph.num_vertices)]
    triangles = set()
    for u in range(graph.num_vertices):
        for v in adjacency[u]:
            if v <= u:
                continue
            for w in adjacency[u] & adjacency[v]:
                if w > v:
                    triangles.add((u, v, w))
    return sorted(triangles)


# ---------------------------------------------------------------------------
# the seeded zoo
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def zoo(request):
    """Named deterministic graphs spanning shapes the chunker must split."""
    seeded_graph = request.getfixturevalue("seeded_graph")
    figure1 = request.getfixturevalue("figure1")
    return {
        "figure1": figure1,
        "rmat": seeded_graph("rmat", 400, 3000, seed=5, ordering="natural"),
        "rmat_ordered": seeded_graph("rmat", 400, 3000, seed=5),
        "clustered": seeded_graph("holme_kim", 300, 6, 0.5, seed=6,
                                  ordering="natural"),
        "star": star_graph(32),
        "clique": complete_graph(12),
        "two_triangles": from_edges(
            [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)],
            num_vertices=6,
        ),
    }


class TestDifferentialZoo:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_matches_serial_engines(self, zoo, workers):
        """Triangle set + op total equal EdgeIterator≻ on every zoo graph."""
        for name, graph in zoo.items():
            serial, serial_set = serial_reference(graph)
            result, listed = parallel_triangles(graph, workers)
            assert listed == serial_set, (name, workers)
            assert result.triangles == serial.triangles, (name, workers)
            assert result.cpu_ops == serial.cpu_ops, (name, workers)

    def test_matches_forward_family(self, zoo):
        """Same sets as forward/compact-forward (different algorithms)."""
        for name, graph in zoo.items():
            _, listed = parallel_triangles(graph, 2)
            forward_sink = CollectSink()
            forward(graph, forward_sink)
            assert listed == canonical_triangles(forward_sink), name
            compact_sink = CollectSink()
            compact_forward(graph, compact_sink)
            assert listed == canonical_triangles(compact_sink), name

    def test_matches_brute_force(self, zoo):
        for name, graph in zoo.items():
            _, listed = parallel_triangles(graph, 4)
            assert listed == brute_force_set(graph), name

    @pytest.mark.parametrize("plugin",
                             ["edge-iterator", "vertex-iterator", "mgt"])
    def test_matches_disk_engines(self, zoo, plugin):
        """Same triangle set as the full disk pipeline, per plugin."""
        for name in ("figure1", "clustered", "two_triangles"):
            graph = zoo[name]
            disk_sink = CollectSink()
            disk = triangulate_disk(graph, plugin=plugin, page_size=256,
                                    buffer_pages=4, sink=disk_sink)
            result, listed = parallel_triangles(graph, 2)
            assert listed == canonical_triangles(disk_sink), (name, plugin)
            assert result.triangles == disk.triangles, (name, plugin)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("chunks", [1, 2, 3, 16, 64])
    def test_chunk_granularity_is_invisible(self, zoo, workers, chunks):
        """Any chunk count lists the same set with the same op total."""
        graph = zoo["clustered"]
        serial, serial_set = serial_reference(graph)
        result, listed = parallel_triangles(graph, workers, chunks=chunks)
        assert listed == serial_set
        assert result.cpu_ops == serial.cpu_ops


class TestEdgeCases:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_empty_graph(self, workers):
        empty = Graph(np.zeros(1, dtype=np.int64),
                      np.array([], dtype=np.int64))
        result, listed = parallel_triangles(empty, workers)
        assert result.triangles == 0 and result.cpu_ops == 0
        assert listed == []

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_single_vertex(self, workers):
        single = Graph(np.zeros(2, dtype=np.int64),
                       np.array([], dtype=np.int64))
        result, _ = parallel_triangles(single, workers)
        assert result.triangles == 0

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_star_is_triangle_free(self, workers):
        result, listed = parallel_triangles(star_graph(16), workers)
        assert result.triangles == 0 and listed == []

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_clique(self, workers):
        n = 10
        result, listed = parallel_triangles(complete_graph(n), workers)
        expected = n * (n - 1) * (n - 2) // 6
        assert result.triangles == expected
        assert listed == sorted(combinations(range(n), 3))

    def test_more_workers_than_vertices(self, figure1):
        result, listed = parallel_triangles(figure1, 64)
        assert result.triangles == 5
        assert result.extra["workers"] <= figure1.num_vertices

    def test_worker_validation(self, figure1):
        with pytest.raises(ConfigurationError):
            triangulate_parallel(figure1, workers=0)

    def test_sim_clock_tracer_rejected(self, figure1):
        from repro.obs.trace import EventTracer

        with pytest.raises(ConfigurationError):
            triangulate_parallel(figure1,
                                 ctx=RunContext(trace=EventTracer.sim()))

    def test_sim_clock_tracer_rejected_by_threaded_engine(self, figure1,
                                                          tmp_path):
        """A sim tracer would get wall stamps (explicit ``ts`` bypasses
        its drop rule), so the real-time engines refuse it up front."""
        from repro.core import triangulate_threaded
        from repro.obs.trace import EventTracer

        with pytest.raises(ConfigurationError, match="clock='wall' tracer"):
            triangulate_threaded(figure1, tmp_path, page_size=128,
                                 ctx=RunContext(trace=EventTracer.sim()))
        assert not list(tmp_path.iterdir())  # before the page file exists


class TestWorkQueue:
    def test_default_chunks_oversubscribe(self, figure1):
        assert default_chunk_count(figure1, 2) == min(
            figure1.num_vertices, 8)

    def test_plan_covers_vertex_range(self, zoo):
        for name, graph in zoo.items():
            for chunks in (1, 2, 5, 16):
                bounds = plan_chunks(graph, chunks)
                covered = [v for lo, hi in bounds for v in range(lo, hi)]
                assert covered == list(range(graph.num_vertices)), (
                    name, chunks)

    def test_every_chunk_is_executed_exactly_once(self, zoo):
        result = triangulate_parallel(zoo["clustered"], workers=4)
        parallel = result.extra["parallel"]
        assert len(parallel.executed_by) == len(parallel.chunk_bounds)
        assert all(0 <= wid < parallel.workers
                   for wid in parallel.executed_by)

    def test_cursor_hands_out_each_chunk_once_under_contention(
            self, deadline):
        """Six workers on fewer cores race for thousands of one-vertex
        claims: a lost update on the shared cursor would run a chunk
        twice."""
        n = 3000
        graph = from_edges([(v, v + 1) for v in range(n - 1)],
                           num_vertices=n)
        planned = len(plan_chunks(graph, n))
        assert planned == n - 1
        for _ in range(2):
            result = triangulate_parallel(graph, workers=6, chunks=n)
            claimed = sorted(row[0] for report
                             in result.extra["parallel"].worker_reports
                             for row in report.results)
            assert claimed == list(range(planned))

    def test_reports_keep_no_groups_after_the_fold(self, zoo):
        """The sink holds the groups; the retained reports keep each
        chunk's index and figures only."""
        sink = CollectSink()
        result = triangulate_parallel(zoo["clustered"], workers=2, sink=sink)
        assert sink.count == result.triangles > 0
        parallel = result.extra["parallel"]
        rows = [row for report in parallel.worker_reports
                for row in report.results]
        assert sorted(row[0] for row in rows) == list(
            range(len(parallel.chunk_bounds)))
        assert sum(array.nbytes for row in rows for array in (
            row[5].us, row[5].vs, row[5].counts, row[5].ws)) == 0

    def test_steals_counted_against_round_robin_share(self, zoo):
        result = triangulate_parallel(zoo["clustered"], workers=2, chunks=8)
        parallel = result.extra["parallel"]
        expected_steals = sum(
            1 for index, wid in enumerate(parallel.executed_by)
            if wid != index % parallel.workers
        )
        assert parallel.steals == expected_steals
        assert result.extra["steals"] == expected_steals


class TestObsMerge:
    def test_metrics_fold_into_report(self, zoo):
        from repro.obs import RunReport

        graph = zoo["clustered"]
        serial = edge_iterator(graph)
        report = RunReport("parallel")
        triangulate_parallel(graph, workers=2, ctx=RunContext(report=report))
        snapshot = report.registry.snapshot()
        assert snapshot["counters"]["parallel.ops"] == serial.cpu_ops
        assert (snapshot["counters"]["triangles{phase=parallel}"]
                == serial.triangles)
        assert snapshot["counters"]["parallel.chunks"] == len(
            plan_chunks(graph, default_chunk_count(graph, 2)))
        assert snapshot["gauges"]["parallel.workers"] == 2
        assert snapshot["gauges"]["run.elapsed_wall"] > 0

    def test_one_trace_track_per_worker(self, zoo):
        from repro.obs.trace import EventTracer

        tracer = EventTracer.wall()
        result = triangulate_parallel(zoo["clustered"], workers=4,
                                      ctx=RunContext(trace=tracer))
        events = tracer.events()
        chunk_events = [e for e in events if e.name == "parallel.chunk"]
        tracks = {e.track for e in chunk_events}
        assert tracks == {f"parallel/w{wid}"
                          for wid in set(result.extra["parallel"].executed_by)}
        assert len(chunk_events) == len(result.extra["chunks"])
        assert any(e.name == "parallel.merge" for e in events)
        # Worker timestamps were translated onto the caller's timeline.
        assert all(0 <= e.ts <= tracer.now() for e in events)

    def test_trace_exports_as_chrome_json(self, zoo, tmp_path):
        from repro.obs.trace import EventTracer, to_chrome_trace, \
            validate_chrome_trace

        tracer = EventTracer.wall()
        triangulate_parallel(zoo["figure1"], workers=2,
                             ctx=RunContext(trace=tracer))
        payload = to_chrome_trace(tracer)
        assert validate_chrome_trace(payload, known_names_only=True) == []


class TestSignalsFromRows:
    """Workers ship chunk rows only; the fold derives every pool signal
    from them, one observation, one slice and at most one steal per
    row."""

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_one_signal_set_per_row(self, zoo, workers):
        from repro.obs import RunReport
        from repro.obs.trace import EventTracer

        report, tracer = RunReport("rows"), EventTracer.wall()
        result = triangulate_parallel(
            zoo["clustered"], workers=workers, chunks=8,
            ctx=RunContext(report=report, trace=tracer))
        parallel = result.extra["parallel"]
        rows = sorted((row for worker in parallel.worker_reports
                       for row in worker.results), key=lambda row: row[0])
        snapshot = report.registry.snapshot()
        assert snapshot["histograms"]["parallel.chunk.elapsed"]["count"] == 8
        slices = sorted((e for e in tracer.events()
                         if e.name == "parallel.chunk"),
                        key=lambda e: e.args["chunk"])
        assert len(slices) == len(rows) == 8
        for event, (index, lo, hi, triangles, ops, *_) in zip(slices, rows):
            assert event.track == f"parallel/w{parallel.executed_by[index]}"
            assert event.args == {"chunk": index, "lo": lo, "hi": hi,
                                  "triangles": triangles, "ops": ops}
        stolen = sorted(index for index, wid in enumerate(parallel.executed_by)
                        if wid != index % parallel.workers)
        steals = [e for e in tracer.events() if e.name == "parallel.steal"]
        assert sorted(e.args["chunk"] for e in steals) == stolen
        # Every counter key is written, 0 included (one worker steals
        # nothing).
        assert parallel.steals == len(stolen) == snapshot["counters"][
            "parallel.steals"]


class TestFailurePropagation:
    def test_worker_failure_raises_and_leaks_nothing(self, zoo, monkeypatch):
        """A crashing worker surfaces as ParallelError, segments unlinked."""
        import os

        import repro.parallel.engine as engine_mod

        def boom(*args, **kwargs):
            raise ValueError("injected chunk failure")

        # Fork inherits the patched module, so the failure happens on the
        # worker side of the queue protocol.
        monkeypatch.setattr(engine_mod, "run_range", boom)
        before = set(os.listdir("/dev/shm"))
        with pytest.raises(ParallelError, match="injected chunk failure"):
            triangulate_parallel(zoo["figure1"], workers=2)
        assert set(os.listdir("/dev/shm")) <= before

    def test_worker_failure_identifies_the_worker(self, zoo, monkeypatch):
        import repro.parallel.engine as engine_mod

        def boom(*args, **kwargs):
            raise ValueError("injected")

        monkeypatch.setattr(engine_mod, "run_range", boom)
        with pytest.raises(ParallelError, match=r"w\d+: ValueError"):
            triangulate_parallel(zoo["figure1"], workers=2)


# ---------------------------------------------------------------------------
# one pool, two callers
# ---------------------------------------------------------------------------


def run_parallel(graph, sink=None):
    return triangulate_parallel(graph, workers=2, sink=sink)


def run_composed(graph, sink=None):
    return compose("shm", "hash", "process", graph=graph, workers=2).run(sink)


ENTRY_POINTS = pytest.mark.parametrize(
    "entry", [run_parallel, run_composed], ids=["parallel", "compose"])


class TestOnePool:
    """``compose(shm, k, process)`` and ``triangulate_parallel`` make the
    same pool call: the same chunk plan, the same forked pool and the
    same fold of rows, branches, attribution and registry snapshots;
    only what each returns around it differs."""

    def test_both_callers_fold_the_workers_obs(self, zoo):
        from repro.obs import Attribution, RunReport

        graph = zoo["clustered"]
        planned = len(plan_chunks(graph, default_chunk_count(graph, 2)))
        serial = edge_iterator(graph)
        entries = {
            "parallel": lambda ctx: triangulate_parallel(graph, workers=2,
                                                         ctx=ctx),
            "compose": lambda ctx: compose("shm", "hash", "process",
                                           graph=graph, workers=2).run(ctx=ctx),
        }
        for name, entry in entries.items():
            report, attribution = RunReport(name), Attribution()
            result = entry(RunContext(report=report, attribution=attribution))
            counters = report.registry.snapshot()["counters"]
            assert counters["parallel.chunks"] == planned, name
            assert counters["parallel.ops"] == serial.cpu_ops, name
            assert "parallel.steals" in counters, name
            assert result.cpu_ops == serial.cpu_ops, name
            assert attribution.total_ops == result.cpu_ops, name

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_process_cell_equals_serial_cell(self, zoo, kernel):
        clustered = zoo["clustered"]
        empty = from_edges([], num_vertices=0)
        sparse = from_edges([(0, 1), (0, 2), (1, 2), (4, 5)], num_vertices=6)
        for graph in (clustered, empty, sparse):
            planned = len(plan_chunks(graph, default_chunk_count(graph, 2)))
            if graph is clustered:
                assert planned > 2
            serial_sink = CollectSink()
            serial = compose("memory", kernel, "serial",
                             graph=graph).run(serial_sink)
            assert serial.extra["chunks"] == 1
            sink = CollectSink()
            pooled = compose("shm", kernel, "process", graph=graph,
                             workers=2).run(sink)
            assert pooled.extra["chunks"] == planned
            # Emission order, not just the set: chunk order is vertex
            # order.
            assert sink.triangles == serial_sink.triangles
            assert pooled.cpu_ops == serial.cpu_ops
            assert (pooled.extra.get("branches")
                    == serial.extra.get("branches"))
            if kernel == "hash":
                parallel_sink = CollectSink()
                parallel = run_parallel(graph, parallel_sink)
                assert len(parallel.extra["chunks"]) == planned
                assert sink.triangles == parallel_sink.triangles


@pytest.fixture
def deadline():
    """Fail, rather than hang the suite, if the body outlives 10 s."""
    import signal

    def on_alarm(signum, frame):
        raise TimeoutError("parent still waiting on a dead worker")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(10)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


class TestWorkerDeath:
    @ENTRY_POINTS
    def test_worker_exception_is_a_typed_error(self, zoo, monkeypatch, entry):
        import os

        import repro.parallel.engine as engine_mod

        def boom(*args, **kwargs):
            raise ValueError("injected")

        monkeypatch.setattr(engine_mod, "run_range", boom)
        before = set(os.listdir("/dev/shm"))
        with pytest.raises(ParallelError, match=r"w\d+: ValueError"):
            entry(zoo["clustered"])
        assert set(os.listdir("/dev/shm")) <= before

    @ENTRY_POINTS
    def test_killed_worker_raises_and_leaks_nothing(self, zoo, monkeypatch,
                                                    deadline, entry):
        """SIGKILL mid-chunk: no error report can be sent, so the parent
        must notice the exit itself — promptly, with every queue fd and
        segment released."""
        import gc
        import multiprocessing as mp
        import os
        import signal
        import time

        import repro.parallel.engine as engine_mod

        real_run_range = engine_mod.run_range

        def die_in_w1(*args, **kwargs):
            # Never in the pytest process: only the forked worker w1.
            if mp.current_process().name == "parallel-w1":
                os.kill(os.getpid(), signal.SIGKILL)
            # Slow the survivor so w1 is up in time to pull a chunk.
            time.sleep(0.05)
            return real_run_range(*args, **kwargs)

        monkeypatch.setattr(engine_mod, "run_range", die_in_w1)

        def attempt():
            with pytest.raises(ParallelError, match=r"w1: exit code -9"):
                entry(zoo["clustered"])

        attempt()  # warm-up
        gc.collect()
        shm_before = set(os.listdir("/dev/shm"))
        fds_before = len(os.listdir("/proc/self/fd"))
        for _ in range(3):
            attempt()
        gc.collect()
        assert set(os.listdir("/dev/shm")) <= shm_before
        assert len(os.listdir("/proc/self/fd")) <= fds_before

    def test_death_during_the_drain_is_seen_at_once(self, zoo, monkeypatch,
                                                    deadline):
        """w1 dies after the caller ran out of chunks and waits on the
        children: the exit is seen when it happens, not after the next
        ``poll_interval`` (30 s here, past the 10 s deadline)."""
        import multiprocessing as mp
        import os
        import signal
        import time

        import repro.parallel.engine as engine_mod

        real_run_range = engine_mod.run_range

        def die_late_in_w1(*args, **kwargs):
            if mp.current_process().name == "parallel-w1":
                time.sleep(0.2)
                os.kill(os.getpid(), signal.SIGKILL)
            # The caller's chunk: slow enough that w1 claims the other.
            time.sleep(0.1)
            return real_run_range(*args, **kwargs)

        monkeypatch.setattr(engine_mod, "run_range", die_late_in_w1)
        with pytest.raises(ParallelError, match=r"w1: exit code -9"):
            triangulate_parallel(zoo["clustered"], workers=2, chunks=2,
                                 straggler=StragglerPolicy(poll_interval=30.0))

    def test_death_holding_the_cursor_lock_is_seen(self, zoo, monkeypatch,
                                                   deadline):
        """w1 dies inside its first claim, the cursor's lock held: the
        caller's next claim times out on the lock, looks at its children
        and raises instead of waiting on the lock forever.  The caller's
        look between its chunks is switched off, so only the claim can
        see the death."""
        import multiprocessing as mp
        import os
        import signal
        import time

        import repro.parallel.engine as engine_mod

        real_claim = engine_mod._claim
        real_run_range = engine_mod.run_range

        def claim_and_die_in_w1(cursor, lock, *args, **kwargs):
            if mp.current_process().name == "parallel-w1":
                lock.acquire()
                os.kill(os.getpid(), signal.SIGKILL)
            return real_claim(cursor, lock, *args, **kwargs)

        def slow_run_range(*args, **kwargs):
            time.sleep(0.1)  # w1 is in its claim before the caller's next
            return real_run_range(*args, **kwargs)

        monkeypatch.setattr(engine_mod, "_claim", claim_and_die_in_w1)
        monkeypatch.setattr(engine_mod, "run_range", slow_run_range)
        monkeypatch.setattr(engine_mod._Pool, "beat", lambda self, beat: None)
        with pytest.raises(ParallelError, match=r"w1: exit code -9"):
            triangulate_parallel(zoo["clustered"], workers=2, chunks=8)


# ---------------------------------------------------------------------------
# the caller is worker 0
# ---------------------------------------------------------------------------


class TestCallerIsWorkerZero:
    """``run_chunks`` forks ``workers − 1`` processes and runs worker 0
    itself, on the same task queue."""

    @pytest.mark.parametrize("workers", (2, 4))
    def test_forks_one_process_fewer_than_workers(self, zoo, monkeypatch,
                                                  workers):
        import multiprocessing as mp

        import repro.parallel.engine as engine_mod

        fork = mp.get_context("fork")
        started: list[str] = []

        class CountingProcess(fork.Process):
            def start(self):
                started.append(self.name)
                super().start()

        class CountingContext:
            def __getattr__(self, name):
                return getattr(fork, name)

            Process = CountingProcess

        monkeypatch.setattr(engine_mod.mp, "get_context",
                            lambda method: CountingContext())
        result = triangulate_parallel(zoo["clustered"], workers=workers)
        assert result.extra["workers"] == workers
        assert sorted(started) == [f"parallel-w{worker_id}"
                                   for worker_id in range(1, workers)]
        started.clear()
        triangulate_parallel(zoo["clustered"], workers=1)
        triangulate_parallel(zoo["clustered"], workers=workers, chunks=1)
        assert started == []

    @pytest.mark.parametrize("workers", (1, 2, 4))
    def test_caller_rows_are_worker_zero(self, zoo, deadline, workers):
        """Every chunk the caller pulled is audited to worker 0, and the
        caller's report is the first."""
        for _ in range(3):
            result = triangulate_parallel(zoo["clustered"], workers=workers)
            parallel = result.extra["parallel"]
            caller = parallel.worker_reports[0]
            assert caller.worker_id == 0
            pulled = sorted(row[0] for row in caller.results)
            assert pulled == [index for index, wid
                              in enumerate(parallel.executed_by) if wid == 0]
            assert (0 in parallel.executed_by) == bool(pulled)
        if workers == 1:
            assert set(parallel.executed_by) == {0}

    @ENTRY_POINTS
    def test_caller_chunk_failure_is_w0(self, zoo, monkeypatch, deadline,
                                        entry):
        """A chunk that raises only in the caller: ParallelError naming
        w0, every child terminated, no fd and no segment left behind."""
        import gc
        import multiprocessing as mp
        import os
        import time

        import repro.parallel.engine as engine_mod

        caller = os.getpid()
        real_run_range = engine_mod.run_range

        def fail_in_caller(*args, **kwargs):
            if os.getpid() == caller:
                raise ValueError("injected in the caller")
            time.sleep(0.05)  # keep the children busy when the caller fails
            return real_run_range(*args, **kwargs)

        monkeypatch.setattr(engine_mod, "run_range", fail_in_caller)

        def attempt():
            with pytest.raises(ParallelError,
                               match=r"w0: ValueError: injected in the caller"):
                entry(zoo["clustered"])
            assert mp.active_children() == []

        attempt()  # warm-up
        gc.collect()
        shm_before = set(os.listdir("/dev/shm"))
        fds_before = len(os.listdir("/proc/self/fd"))
        for _ in range(3):
            attempt()
        gc.collect()
        assert set(os.listdir("/dev/shm")) <= shm_before
        assert len(os.listdir("/proc/self/fd")) <= fds_before

    def test_interrupt_in_the_caller_releases_everything(self, zoo,
                                                         monkeypatch,
                                                         deadline):
        """Ctrl-C lands in the caller's chunk: it stays a
        KeyboardInterrupt, and no traceback pins the shared segment."""
        import multiprocessing as mp
        import os

        import repro.parallel.engine as engine_mod

        caller = os.getpid()
        real_run_range = engine_mod.run_range

        def interrupt_caller(*args, **kwargs):
            if os.getpid() == caller:
                raise KeyboardInterrupt
            return real_run_range(*args, **kwargs)

        monkeypatch.setattr(engine_mod, "run_range", interrupt_caller)
        before = set(os.listdir("/dev/shm"))
        with pytest.raises(KeyboardInterrupt):
            triangulate_parallel(zoo["clustered"], workers=2)
        assert mp.active_children() == []
        assert set(os.listdir("/dev/shm")) <= before


class EmitOnlySink:
    """A sink without ``emit_block``: fed one ``emit`` per group."""

    def __init__(self):
        self.groups: list[tuple[int, int, list[int]]] = []

    def emit(self, u, v, ws):
        self.groups.append((int(u), int(v), [int(w) for w in ws]))


#: sha256 of what each sink receives from ``triangulate_parallel`` on
#: ``holme_kim(300, 6, 0.5, seed=6)``, recorded when the merge still
#: concatenated every row into one block before emitting.
EMITTED_DIGESTS = {
    "collect": "572bfaea9cf83965dd482e97351501f3"
               "1ddde7dc13996948f130f6b15c4908f0",
    "writer": "8a911e2428256e4286808d05fa651ca4"
              "c43cc72f9e0eb145a3edecd95ddb59fd",
    "emit": "4a34d55d5115370516f22f9294a60bb2"
            "2e2e321502363a034a3d8595302dbf3d",
}


def emitted_digests(graph, workers: int) -> dict[str, str]:
    """sha256 of what each sink receives from ``triangulate_parallel``:
    CollectSink's tuples, the writer's file bytes and the ``(u, v, ws)``
    sequence an ``emit``-only sink sees."""
    import hashlib
    import io
    import json

    from repro.core.output import NestedOutputWriter

    collect = CollectSink()
    triangulate_parallel(graph, workers=workers, sink=collect)
    stream = io.BytesIO()
    writer = NestedOutputWriter(stream, page_size=256)
    triangulate_parallel(graph, workers=workers, sink=writer)
    writer.close()
    plain = EmitOnlySink()
    triangulate_parallel(graph, workers=workers, sink=plain)
    received = {
        "collect": json.dumps(collect.triangles).encode(),
        "writer": stream.getvalue(),
        "emit": json.dumps(plain.groups).encode(),
    }
    return {name: hashlib.sha256(data).hexdigest()
            for name, data in received.items()}


class TestRowByRowFold:
    @pytest.mark.parametrize("workers", (1, 2, 3, 4))
    def test_every_sink_receives_the_pinned_stream(self, seeded_graph,
                                                   workers):
        """The merge emits chunk by chunk: every sink receives what the
        one-block merge produced, for every worker count."""
        graph = seeded_graph("holme_kim", 300, 6, 0.5, seed=6,
                             ordering="natural")
        assert emitted_digests(graph, workers) == EMITTED_DIGESTS

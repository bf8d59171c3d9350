"""The differential fault matrix: every engine × fault kind × seed.

The recovery layer's contract is binary — under any fault plan an engine
either lists the *exact* triangle set of the in-memory ``forward``
reference or raises the typed terminal error.  A silently wrong listing
is the one outcome these tests exist to rule out, so every cell of the
matrix compares canonical triangle sets, not just counts, and the
injection/recovery counters are asserted *exactly* against what the plan
says it did.
"""

from __future__ import annotations

import pytest

from repro.core import make_store, triangulate_disk
from repro.core.threaded import triangulate_threaded
from repro.errors import ConfigurationError, FaultExhaustedError
from repro.memory.base import CollectSink, canonical_triangles
from repro.memory.forward import forward
from repro.obs import RunContext
from repro.storage.faults import FaultPlan, FaultSpec, RetryPolicy

pytestmark = pytest.mark.fault_matrix

PAGE_SIZE = 512
PLUGINS = ["edge-iterator", "vertex-iterator", "mgt"]
GRAPH_SEEDS = [11, 22, 33]

#: One recoverable spec per kind.  ``times`` never exceeds the retry
#: budget below, so every fault heals and the answer must stay exact.
RECOVERABLE_SPECS = {
    "latency": FaultSpec("latency", rate=0.6, times=1, delay=0.001),
    "transient": FaultSpec("transient", rate=0.6, times=2),
    "torn": FaultSpec("torn", rate=0.6, times=2),
}

POLICY = RetryPolicy(max_retries=3, backoff_base=0.0001)


def _reference_set(graph):
    sink = CollectSink()
    forward(graph, sink)
    return set(canonical_triangles(sink))


@pytest.fixture(scope="module", params=GRAPH_SEEDS)
def matrix_graph(request, seeded_graph):
    return seeded_graph("rmat", 220, 1400, seed=request.param)


class TestSimulatedEngineMatrix:
    """triangulate_disk (all three plugins) under every sync fault kind."""

    @pytest.mark.parametrize("plugin", PLUGINS)
    @pytest.mark.parametrize("kind", sorted(RECOVERABLE_SPECS))
    def test_exact_triangles_under_recoverable_faults(
        self, matrix_graph, plugin, kind
    ):
        expected = _reference_set(matrix_graph)
        store = make_store(matrix_graph, PAGE_SIZE)
        spec = RECOVERABLE_SPECS[kind]
        plan = FaultPlan([spec], seed=7)
        affected = plan.affected_pages(kind, store.num_pages)
        assert affected, "fault rate too low to exercise anything"
        sink = CollectSink()
        triangulate_disk(store, plugin=plugin, buffer_pages=6, sink=sink,
                         ctx=RunContext(fault_plan=plan, retry_policy=POLICY))
        assert set(canonical_triangles(sink)) == expected

        # The log must account for exactly what the plan injected: each
        # affected page misbehaves on its first `times` attempts, and the
        # fill guarantees every page is read at least once.
        counts = plan.log.counts()
        assert counts[f"inject:{kind}"] == spec.times * len(affected)
        if kind == "latency":
            assert "retry" not in counts
        else:
            assert counts["retry"] == spec.times * len(affected)
        assert "giveup" not in counts

    @pytest.mark.parametrize("plugin", PLUGINS)
    def test_terminal_fault_raises_typed_error(self, matrix_graph, plugin):
        store = make_store(matrix_graph, PAGE_SIZE)
        plan = FaultPlan(
            [FaultSpec("transient", pages=frozenset({0}), times=100)], seed=7
        )
        with pytest.raises(FaultExhaustedError) as excinfo:
            triangulate_disk(store, plugin=plugin, buffer_pages=6,
                             ctx=RunContext(
                                 fault_plan=plan,
                                 retry_policy=RetryPolicy(max_retries=2)))
        assert excinfo.value.pid == 0
        assert plan.log.counts()["giveup"] == 1

    def test_combined_plan_still_exact(self, matrix_graph):
        expected = _reference_set(matrix_graph)
        store = make_store(matrix_graph, PAGE_SIZE)
        plan = FaultPlan(list(RECOVERABLE_SPECS.values()), seed=9)
        sink = CollectSink()
        triangulate_disk(store, buffer_pages=6, sink=sink,
                         ctx=RunContext(fault_plan=plan, retry_policy=POLICY))
        assert set(canonical_triangles(sink)) == expected

    @pytest.mark.parametrize("plugin", PLUGINS)
    def test_injected_delay_lands_on_the_delayed_pages(self, matrix_graph,
                                                       plugin):
        """Pages arrive a window at a time; the virtual seconds a page's
        faults cost must still be charged to that page's read."""
        store = make_store(matrix_graph, PAGE_SIZE)
        spec = FaultSpec("latency", rate=0.5, times=1, delay=0.25)
        plan = FaultPlan([spec], seed=5)
        affected = plan.affected_pages("latency", store.num_pages)
        result = triangulate_disk(store, plugin=plugin, buffer_pages=8,
                                  ctx=RunContext(fault_plan=plan,
                                                 retry_policy=POLICY))
        trace = result.extra["trace"]
        # Each affected page is slow on its first load only, wherever
        # that was: as an external read (charged to it) or in a fill.
        delayed = [read.pid for iteration in trace.iterations
                   for read in iteration.external_reads if read.delay]
        assert len(delayed) == len(set(delayed))
        assert set(delayed) <= affected
        for iteration in trace.iterations:
            for read in iteration.external_reads:
                assert read.delay in (0.0, spec.delay)
                assert not (read.delay and read.buffered)
        in_fills = sum(iteration.fill_delay for iteration in trace.iterations)
        assert in_fills == pytest.approx(
            spec.delay * (len(affected) - len(delayed)))
        assert trace.total_fault_delay == pytest.approx(
            spec.delay * len(affected))


class TestThreadedEngineMatrix:
    """triangulate_threaded under real injected faults, async kinds included."""

    TIMEOUT_POLICY = RetryPolicy(max_retries=3, backoff_base=0.0001,
                                 timeout=0.2)

    @pytest.mark.parametrize("kind", sorted(RECOVERABLE_SPECS))
    def test_exact_triangles_under_sync_faults(self, matrix_graph, tmp_path,
                                               kind):
        expected = _reference_set(matrix_graph)
        spec = RECOVERABLE_SPECS[kind]
        if kind == "latency":
            # Real sleeps: keep the injected wall time small.
            spec = FaultSpec("latency", rate=0.6, times=1, delay=0.0005)
        plan = FaultPlan([spec], seed=7)
        sink = CollectSink()
        triangulate_threaded(matrix_graph, tmp_path, buffer_pages=6,
                             page_size=PAGE_SIZE, sink=sink,
                             ctx=RunContext(fault_plan=plan,
                                            retry_policy=POLICY))
        assert set(canonical_triangles(sink)) == expected
        assert "giveup" not in plan.log.counts()

    @pytest.mark.parametrize("kind", ["dropped_callback", "stall"])
    def test_exact_triangles_under_async_faults(self, matrix_graph, tmp_path,
                                                kind):
        expected = _reference_set(matrix_graph)
        delay = 0.5 if kind == "stall" else 0.0  # stall > timeout trips it
        spec = (FaultSpec(kind, pages=frozenset({0, 1}), times=1, delay=delay)
                if kind == "stall"
                else FaultSpec(kind, pages=frozenset({0, 1}), times=1))
        plan = FaultPlan([spec], seed=7)
        sink = CollectSink()
        triangulate_threaded(matrix_graph, tmp_path, buffer_pages=6,
                             page_size=PAGE_SIZE, sink=sink,
                             ctx=RunContext(fault_plan=plan,
                                            retry_policy=self.TIMEOUT_POLICY))
        assert set(canonical_triangles(sink)) == expected
        counts = plan.log.counts()
        # Every lost completion must have been reclaimed via the timeout
        # fallback — the sync re-read on the waiting thread.
        assert counts.get("timeout", 0) >= 1
        assert counts.get("fallback", 0) == counts.get("timeout", 0)

    def test_async_faults_require_timeout(self, matrix_graph, tmp_path):
        plan = FaultPlan([FaultSpec("dropped_callback", rate=0.5)], seed=1)
        with pytest.raises(ConfigurationError):
            triangulate_threaded(matrix_graph, tmp_path, buffer_pages=6,
                                 page_size=PAGE_SIZE,
                                 ctx=RunContext(
                                     fault_plan=plan,
                                     retry_policy=RetryPolicy(max_retries=2)))

    def test_terminal_fault_raises_typed_error(self, matrix_graph, tmp_path):
        plan = FaultPlan(
            [FaultSpec("transient", pages=frozenset({0}), times=100)], seed=7
        )
        with pytest.raises(FaultExhaustedError):
            triangulate_threaded(matrix_graph, tmp_path, buffer_pages=6,
                                 page_size=PAGE_SIZE,
                                 ctx=RunContext(
                                     fault_plan=plan,
                                     retry_policy=RetryPolicy(max_retries=2)))

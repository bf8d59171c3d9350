"""One way to read a page under faults, for both OPT engines.

The threaded engine's :class:`ThreadedSSD` and the simulated engine's
buffered feed read through one injector (:class:`FaultyPageFile`), one
retry loop (:func:`read_with_retry`) and one checked decoder
(:meth:`GraphStore.decode_images`).  Their only difference is the
injector's clock: seconds slept on one path, charged on the other.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import triangulate_disk
from repro.core.threaded import triangulate_threaded
from repro.errors import FaultExhaustedError, PageFormatError, StorageError
from repro.graph.generators import holme_kim
from repro.obs import EventTracer, MetricsRegistry
from repro.storage import (
    FaultPlan,
    FaultSpec,
    FaultyPageFile,
    GraphStore,
    RetryPolicy,
    ThreadedSSD,
)
from repro.storage.faults import read_with_retry
from tests import zoo

#: The kinds a read applies itself (``dropped_callback`` is the async
#: device's to apply).
SYNC_KINDS = ("latency", "transient", "torn", "stall")


def _causes(exc):
    while exc is not None:
        yield exc
        exc = exc.__cause__


class TestMisdirectedPage:
    """A page image that decodes but belongs to another page is torn on
    both engines: the threaded one used to skip the vertex check and
    count 4 775 triangles where there are 4 714."""

    @pytest.fixture(scope="class")
    def store(self):
        store = GraphStore.from_graph(holme_kim(600, 8, 0.6, seed=3), 512)
        rows = store.rows.copy()
        rows[3] = rows[4]
        rows.setflags(write=False)
        store.rows = rows
        return store

    @pytest.mark.parametrize("engine", ["disk", "threaded"])
    def test_both_engines_reject_the_misdirected_page(self, store, tmp_path,
                                                      engine):
        with pytest.raises(StorageError) as excinfo:
            if engine == "disk":
                triangulate_disk(store, buffer_pages=8)
            else:
                triangulate_threaded(store, tmp_path, buffer_pages=8)
        torn = [exc for exc in _causes(excinfo.value)
                if isinstance(exc, PageFormatError)]
        assert torn and "page 3 " in str(torn[0])


@pytest.fixture(scope="module")
def paged(tmp_path_factory):
    store = GraphStore.from_graph(zoo.build("rmat-small"), 256)
    with store.open_page_file(tmp_path_factory.mktemp("pages")) as handle:
        yield store, handle


@st.composite
def plans(draw, num_pages):
    """Explicit-page specs of the synchronous kinds, a seed, and a budget."""
    specs = []
    for kind in draw(st.lists(st.sampled_from(SYNC_KINDS), min_size=1,
                              max_size=3)):
        pages = draw(st.frozensets(st.integers(0, num_pages - 1),
                                   min_size=1, max_size=3))
        delay = draw(st.sampled_from([0.25, 0.5])) \
            if kind in ("latency", "stall") else 0.0
        specs.append(FaultSpec(kind, pages=pages, delay=delay,
                               times=draw(st.integers(1, 4))))
    return specs, draw(st.integers(0, 3)), draw(st.integers(0, 3))


def _recovery(registry):
    return {key: value
            for key, value in registry.snapshot()["counters"].items()
            if key.startswith("recovery.") and value}


class TestOneReaderTwoClocks:
    #: Few pages, so a sequence repeats pages and outlasts their budgets.
    PAGES = 4

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_real_and_simulated_reads_agree(self, paged, data):
        store, handle = paged
        specs, seed, max_retries = data.draw(plans(self.PAGES))
        pids = data.draw(st.lists(st.integers(0, self.PAGES - 1),
                                  min_size=1, max_size=10))
        # The timeout only satisfies the device's check for stall plans:
        # nothing really stalls on a clock that appends.
        policy = RetryPolicy(max_retries=max_retries, backoff_base=0.001,
                             timeout=60.0, seed=seed)

        # Real path: the threaded device's readers, one read at a time.
        real_plan = FaultPlan(specs, seed=seed)
        slept: list[float] = []
        tracer = EventTracer.wall()
        real = MetricsRegistry()
        faulty = FaultyPageFile(handle, real_plan, sleep=slept.append,
                                tracer=tracer)
        with ThreadedSSD(faulty, store.decode_images, io_workers=1,
                         registry=real, retry_policy=policy) as ssd:
            for pid in pids:
                ssd.async_read(pid, lambda records: None)
                try:
                    ssd.wait_idle()
                except FaultExhaustedError:
                    pass

        # Simulated path: the same loop over the store, summing seconds.
        sim_plan = FaultPlan(specs, seed=seed)
        charged: list[float] = []
        sim = MetricsRegistry()
        faulty = FaultyPageFile(store, sim_plan, sleep=charged.append)
        for pid in pids:
            try:
                read_with_retry(faulty, pid, store.decode_images, policy,
                                sim.counter("recovery.retries"),
                                sim.counter("recovery.giveups"))
            except FaultExhaustedError:
                pass

        assert real_plan.log.trace() == sim_plan.log.trace()
        assert _recovery(real) == _recovery(sim)
        assert sum(slept) == pytest.approx(sum(charged))
        # Every injection the log records is one fault.inject instant.
        injected = sorted(kind for event, kind, _pid, _attempt
                          in real_plan.log.trace() if event == "inject")
        marked = sorted(event.args["kind"] for event in tracer.events()
                        if event.name == "fault.inject")
        assert marked == injected

    def test_a_repeat_after_a_give_up_logs_the_plans_attempts(self, paged):
        store, _handle = paged
        plan = FaultPlan([FaultSpec("transient", pages=frozenset({0}),
                                    times=10)])
        faulty = FaultyPageFile(store, plan, sleep=lambda _s: None)
        registry = MetricsRegistry()
        for _ in range(2):
            with pytest.raises(FaultExhaustedError):
                read_with_retry(faulty, 0, store.decode_images,
                                RetryPolicy(max_retries=2),
                                registry.counter("recovery.retries"),
                                registry.counter("recovery.giveups"))
        log = [(event, attempt) for event, _kind, _pid, attempt
               in plan.log.trace() if event != "inject"]
        assert log == [("giveup", 2), ("giveup", 5), ("retry", 0),
                       ("retry", 1), ("retry", 3), ("retry", 4)]


def test_which_kinds_emit_fault_inject(paged):
    """The injector marks every kind it applies, and leaves
    ``dropped_callback`` to the device, which marks it when it drops."""
    store, handle = paged
    plan = FaultPlan([FaultSpec(kind, pages=frozenset({0}),
                                delay=0.1 if kind in ("latency", "stall")
                                else 0.0)
                      for kind in ("latency", "torn", "stall",
                                   "dropped_callback")])
    tracer = EventTracer.wall()
    faulty = FaultyPageFile(handle, plan, sleep=lambda _s: None,
                            tracer=tracer)
    with ThreadedSSD(faulty, store.decode_images, io_workers=1,
                     retry_policy=RetryPolicy(max_retries=1, timeout=0.05),
                     tracer=tracer) as ssd:
        ssd.async_read(0, lambda records: None)
        ssd.wait_idle()
    marked = sorted(event.args["kind"] for event in tracer.events()
                    if event.name == "fault.inject")
    assert marked == ["dropped_callback", "latency", "stall", "torn"]

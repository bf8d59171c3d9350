"""I/O accounting audit: device reads are counted exactly once.

The buffer manager counts ``buffer.misses``, the device layer counts
``ssd.pages_read``, and the OPT driver folds ``opt.pages_read`` from its
trace — three independent tallies of the same physical reads.  These
tests pin the no-double-count invariant ``buffer.misses ==
ssd.pages_read`` through every wrapping combination, including a
:class:`FaultyPageFile` injecting retried faults between the two
(a retry must not count as an extra page read).
"""

from __future__ import annotations

import pytest

from repro.graph.generators import rmat
from repro.obs import MetricsRegistry, RunContext, RunReport
from repro.storage.buffer import BufferManager
from repro.storage.faults import FaultPlan, FaultSpec, FaultyPageFile, RetryPolicy
from repro.storage.layout import GraphStore
from repro.storage.ssd import ThreadedSSD


@pytest.fixture()
def page_file(tmp_path, small_rmat):
    store = GraphStore.from_graph(small_rmat, 256)
    with store.open_page_file(tmp_path) as handle:
        yield handle, store


def _loader(ssd):
    """A buffer loader that reads a run's misses through *ssd* and waits."""
    def load(pids, rows):
        arrived = {}
        for pid in pids:
            ssd.async_read(pid, lambda records, p: arrived.__setitem__(p, records),
                           (pid,))
        ssd.wait_idle()
        assert sorted(arrived) == sorted(pids)
    return load


def _walk(buffer, num_pages):
    """Touch every page twice plus a re-walk: hits and misses both occur."""
    for pid in range(num_pages):
        buffer.get(pid)
        buffer.get(pid)  # immediate re-get: guaranteed hit
    for pid in range(num_pages):
        buffer.get(pid)  # second walk: hit or miss depending on capacity


def test_clean_buffered_device_counts_once(page_file):
    handle, store = page_file
    registry = MetricsRegistry()
    with ThreadedSSD(handle, store.decode_images, io_workers=2,
                     registry=registry) as device:
        buffer = BufferManager(max(2, store.num_pages // 2),
                               loader=_loader(device), registry=registry)
        _walk(buffer, store.num_pages)
    assert buffer.misses == device.pages_read
    assert registry.counter("buffer.misses").value == \
        registry.counter("ssd.pages_read").value
    assert buffer.hits >= store.num_pages  # the immediate re-gets


def test_faulty_buffered_device_counts_once(page_file):
    """Retried transient faults must not inflate ``ssd.pages_read``."""
    handle, store = page_file
    registry = MetricsRegistry()
    plan = FaultPlan([FaultSpec(kind="transient", rate=0.5, times=2)],
                     seed=3)
    faulty = FaultyPageFile(handle, plan, sleep=lambda _s: None)
    with ThreadedSSD(faulty, store.decode_images, io_workers=2,
                     registry=registry,
                     retry_policy=RetryPolicy(max_retries=8,
                                              backoff_base=1e-6)) as device:
        buffer = BufferManager(max(2, store.num_pages // 2),
                               loader=_loader(device), registry=registry)
        _walk(buffer, store.num_pages)
    assert registry.counter("recovery.retries").value > 0, \
        "fault plan never fired; the audit exercised nothing"
    assert buffer.misses == device.pages_read
    assert registry.counter("buffer.misses").value == \
        registry.counter("ssd.pages_read").value


def test_run_opt_pages_read_matches_buffer_misses():
    """End to end: the driver's trace tally equals the buffer's misses."""
    from repro.core.engine import triangulate_disk

    graph = rmat(256, 1024, seed=5)
    report = RunReport("audit")
    plan = FaultPlan([FaultSpec(kind="transient", rate=0.3, times=2)], seed=9)
    triangulate_disk(graph, buffer_ratio=0.2, page_size=256,
                     ctx=RunContext(report=report, fault_plan=plan,
                                    retry_policy=RetryPolicy(
                                        max_retries=8, backoff_base=1e-6)))
    registry = report.registry
    assert registry.counter("buffer.misses").value == \
        registry.counter("opt.pages_read").value
    assert registry.counter("recovery.retries").value > 0

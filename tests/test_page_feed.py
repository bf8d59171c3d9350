"""The page-feed seam of the OPT driver (``core/framework.py::_drive``).

One iteration body serves every engine; a feed decides only *how pages
arrive*.  So whatever the feed — the buffer manager on the calling
thread, ``ThreadedSSD`` callbacks, or a scripted shuffle — every
iteration must bill the same candidate ops, the same per-page internal
ops, the same external ``(pid, cpu_ops)`` reads, and list the same
triangles.
"""

from __future__ import annotations

import random

import pytest

from repro.core import make_store, triangulate_disk, triangulate_threaded
from repro.core.framework import _drive
from repro.graph import generators
from repro.memory import CollectSink, canonical_triangles
from repro.obs import NO_CONTEXT
from tests import zoo

PAGE_SIZE = 64
GRAPHS = [*zoo.zoo_names(), "spanning-hub"]


@pytest.fixture(scope="module")
def serial(graph_zoo):
    """``(store, disk result, canonical triangles)`` of the serial engine.

    Cached per ``(graph, plugin, buffer_pages)``: every arrival order
    below is compared against the same run.
    """
    cache: dict[tuple, tuple] = {}

    def run(name: str, plugin: str, buffer_pages: int):
        if name not in cache:
            graph = (generators.complete_graph(40) if name == "spanning-hub"
                     else graph_zoo(name))
            cache[name] = make_store(graph, PAGE_SIZE)
        key = (name, plugin, buffer_pages)
        if key not in cache:
            sink = CollectSink()
            result = triangulate_disk(cache[name], plugin=plugin,
                                      buffer_pages=buffer_pages, sink=sink)
            cache[key] = (cache[name], result, canonical_triangles(sink))
        return cache[key]

    return run


def _bill(run_trace):
    """Per iteration: what the body computed, free of arrival order."""
    return [
        (it.candidate_ops, it.internal_page_ops,
         sorted((read.pid, read.cpu_ops) for read in it.external_reads))
        for it in run_trace.iterations
    ]


@pytest.mark.parametrize("window", [1, 4])
@pytest.mark.parametrize("buffer_pages", [2, 4, 6])
@pytest.mark.parametrize("plugin", ["edge-iterator", "vertex-iterator"])
@pytest.mark.parametrize("name", GRAPHS)
def test_threaded_and_serial_agree_per_iteration(serial, tmp_path, name,
                                                 plugin, buffer_pages, window):
    store, disk, triangles = serial(name, plugin, buffer_pages)
    sink = CollectSink()
    result = triangulate_threaded(store, tmp_path, plugin=plugin,
                                  buffer_pages=buffer_pages,
                                  page_size=PAGE_SIZE, window=window,
                                  sink=sink)
    assert _bill(result.extra["trace"]) == _bill(disk.extra["trace"])
    assert canonical_triangles(sink) == triangles
    # Eq. 3 conservation reaches the thread cell.
    assert result.cpu_ops == disk.cpu_ops
    assert result.triangles == disk.triangles == len(triangles)
    assert result.iterations == disk.iterations


class _ShuffledFeed:
    """Pages straight from the store, fill and request lists shuffled and
    cut into windows of random sizes.

    No buffer, no threads: arrival order and window boundaries are what
    a feed may vary, so they are the only things this one does.
    """

    def __init__(self, store, seed: int):
        self._store = store
        self._rng = random.Random(seed)

    def _deliver(self, pids, on_pages):
        pids = list(pids)
        self._rng.shuffle(pids)
        while pids:
            window = [pids.pop() for _ in range(
                min(len(pids), self._rng.randint(1, 5)))]
            on_pages(*self._store.decode_rows(window, self._store.rows[window]),
                     window, [False] * len(window), [0.0] * len(window))

    fill = request = _deliver

    def finish(self, chunk_pids):
        pass


@pytest.mark.parametrize("plugin", ["edge-iterator", "vertex-iterator", "mgt"])
@pytest.mark.parametrize("name", GRAPHS)
def test_counts_and_ops_do_not_depend_on_arrival_order(serial, name, plugin):
    store, disk, triangles = serial(name, plugin, 4)
    sink = CollectSink()
    shuffled = _drive(store, disk.extra["config"], sink, NO_CONTEXT,
                      lambda _frames: _ShuffledFeed(store, seed=7))
    assert _bill(shuffled) == _bill(disk.extra["trace"])
    assert canonical_triangles(sink) == triangles


class _ScriptedFeed(_ShuffledFeed):
    """A shuffled feed that also says, per page, what only a feed knows:
    page *pid* was buffered when ``pid % 3 == 0`` and cost ``pid``
    milliseconds of injected delay."""

    def _deliver(self, pids, on_pages):
        def scripted(block, cuts, window, _buffered, _delays):
            on_pages(block, cuts, window, [pid % 3 == 0 for pid in window],
                     [pid / 1000 for pid in window])

        super()._deliver(pids, scripted)

    fill = request = _deliver


@pytest.mark.parametrize("plugin", ["edge-iterator", "mgt"])
def test_what_the_feed_says_of_a_page_lands_on_that_page(serial, plugin):
    """Windows carry ``buffered`` / ``delay`` per page; each must reach
    the ``ExternalRead`` of its own page, and the fill's own totals."""
    store, disk, _ = serial("holme-kim-small", plugin, 4)
    config = disk.extra["config"]
    scripted = _drive(store, config, None, NO_CONTEXT,
                      lambda _frames: _ScriptedFeed(store, seed=3))
    assert _bill(scripted) == _bill(disk.extra["trace"])
    pid = 0
    for iteration in scripted.iterations:
        end = store.align_chunk_end(pid, config.m_in)
        chunk = range(pid, end + 1)
        assert iteration.fill_buffered == sum(p % 3 == 0 for p in chunk)
        assert iteration.fill_reads == len(chunk) - iteration.fill_buffered
        assert iteration.fill_delay == pytest.approx(sum(chunk) / 1000)
        for read in iteration.external_reads:
            assert read.buffered == (read.pid % 3 == 0)
            assert read.delay == read.pid / 1000
        pid = end + 1
    assert scripted.total_external_reads > store.num_pages


class _SplitFillFeed:
    """Fill pages in windows of two, the windows in a scripted order;
    request lists in page order, ``m_ex`` pages a window.  Page *pid*
    carries ``pid`` milliseconds of delay."""

    def __init__(self, store, window: int, arrange: str):
        self._store = store
        self._window = window
        self._arrange = arrange

    def _hand(self, pids, on_pages):
        on_pages(*self._store.decode_rows(pids, self._store.rows[pids]), pids,
                 [False] * len(pids), [pid / 1000 for pid in pids])

    def fill(self, pids, on_pages):
        pids = list(pids)
        windows = [pids[at:at + 2] for at in range(0, len(pids), 2)]
        if self._arrange == "reversed":
            windows.reverse()
        elif self._arrange == "interleaved":  # each window out of order too
            windows = [window[::-1] for window in windows[1::2]] + windows[::2]
        for window in windows:
            self._hand(window, on_pages)

    def request(self, pids, on_pages):
        for at in range(0, len(pids), self._window):
            self._hand(pids[at:at + self._window], on_pages)

    def finish(self, chunk_pids):
        pass


@pytest.mark.parametrize("arrange", ["in-order", "reversed", "interleaved"])
@pytest.mark.parametrize("plugin", ["edge-iterator", "vertex-iterator", "mgt"])
def test_a_fill_split_across_windows_is_put_in_page_order(serial, plugin,
                                                          arrange):
    """Several fill windows, in page order or not: the iteration sees the
    chunk's pages in page order, so its per-page bill, its triangles and
    its fill delay (summed page after page) are the one-window feed's."""
    store, disk, triangles = serial("holme-kim-small", plugin, 6)
    config = disk.extra["config"]
    sink = CollectSink()
    split = _drive(store, config, sink, NO_CONTEXT,
                   lambda _frames: _SplitFillFeed(store, config.m_ex, arrange))
    assert _bill(split) == _bill(disk.extra["trace"])
    assert canonical_triangles(sink) == triangles
    pid, widest = 0, 0
    for iteration in split.iterations:
        end = store.align_chunk_end(pid, config.m_in)
        assert iteration.fill_delay == sum(p / 1000 for p in range(pid, end + 1))
        widest = max(widest, end - pid + 1)
        pid = end + 1
    assert widest >= 3, "no chunk spans more than one window"

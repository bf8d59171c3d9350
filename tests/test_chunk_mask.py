"""The OPT chunk's two membership indexes answer alike.

``ChunkContext`` marks its rows (cell ``row * n + w``) in the run's dense
mask when the chunk's ``rows × n`` fits it, and probes its sorted
``row * n + w`` keys when it does not.  Which one a chunk takes must not
show: the ``RunTrace``, the emitted group sequence and the attribution
cells are the same on either path, for every plugin and on both feeds.
The mask must also be all-False again at every iteration barrier, and a
run that fails part-way through a chunk must not leak its marks into the
next run.
"""

from __future__ import annotations

import tempfile
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import context, framework, make_store, triangulate_threaded
from repro.core.context import ChunkContext
from repro.core.framework import OPTConfig, run_opt
from repro.core.plugins import EdgeIteratorPlugin, MGTPlugin, VertexIteratorPlugin
from repro.errors import FaultExhaustedError
from repro.exec import block
from repro.graph import from_edges, generators
from repro.obs import RunContext
from repro.obs.attribution import Attribution
from repro.storage.faults import FaultPlan, FaultSpec, RetryPolicy
from tests import zoo
from tests.test_opt_block import GroupSink
from tests.test_page_feed import _bill

PLUGINS = {"edge-iterator": EdgeIteratorPlugin,
           "vertex-iterator": VertexIteratorPlugin, "mgt": MGTPlugin}
#: ``(page_size, m_in, m_ex)``: several chunks, windows of one and more.
SETTINGS = [(64, 2, 2), (256, 1, 3)]


@contextmanager
def membership_spy():
    """The dtype of every membership index a chunk probe hands over."""
    seen = []
    real = context.probe_pairs

    def spy(members, *args):
        seen.append(members.dtype)
        return real(members, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(context, "probe_pairs", spy)
        yield seen


@contextmanager
def membership(path):
    """Every chunk on one path: ``"mask"`` (the mask holds all of a
    graph's rows) or ``"keys"`` (a mask of no cells, which no chunk fits
    — ``mask_cells`` itself never sizes one below a row)."""
    with pytest.MonkeyPatch.context() as patch:
        if path == "mask":
            patch.setattr(block, "MASK_BYTES", 1 << 40)
        else:
            patch.setattr(framework, "mask_cells", lambda num_vertices: 0)
        with membership_spy() as seen:
            yield
    assert set(seen) <= {np.dtype(bool) if path == "mask"
                         else np.dtype(np.int64)}


def _buffered(store, config):
    sink, cells = GroupSink(), Attribution()
    trace = run_opt(store, config, sink, ctx=RunContext(attribution=cells))
    return trace, sink.groups, cells.snapshot()


def _threaded(store, plugin, directory):
    sink = GroupSink()
    result = triangulate_threaded(store, directory, plugin=plugin,
                                  buffer_pages=4, page_size=store.page_size,
                                  window=2, sink=sink)
    return _bill(result.extra["trace"]), Counter(sink.groups), result.triangles


def _same_on_both_paths(run):
    with membership("keys"):
        keys = run()
    with membership("mask"):
        mask = run()
    assert mask == keys


# ---------------------------------------------------------------------------
# Mask path ≡ sorted-key path
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("setting", SETTINGS, ids=str)
@pytest.mark.parametrize("plugin", list(PLUGINS))
@pytest.mark.parametrize("name", zoo.zoo_names())
def test_buffered_mask_is_the_key_path(graph_zoo, name, plugin, setting):
    page_size, m_in, m_ex = setting
    store = make_store(graph_zoo(name), page_size)
    config = OPTConfig(m_in=m_in, m_ex=m_ex, plugin=PLUGINS[plugin]())
    _same_on_both_paths(lambda: _buffered(store, config))


@pytest.mark.parametrize("plugin", ["edge-iterator", "vertex-iterator"])
@pytest.mark.parametrize("name", zoo.zoo_names())
def test_threaded_mask_is_the_key_path(graph_zoo, tmp_path, name, plugin):
    store = make_store(graph_zoo(name), 64)
    _same_on_both_paths(lambda: _threaded(store, plugin, tmp_path))


_random_graphs = st.integers(2, 40).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
             max_size=200)))


def _graph(spec):
    num_vertices, edges = spec
    return from_edges([(u, v) for u, v in edges if u != v],
                      num_vertices=num_vertices)


@given(_random_graphs, st.sampled_from(SETTINGS),
       st.sampled_from(list(PLUGINS)))
@settings(max_examples=25, deadline=None)
def test_buffered_mask_is_the_key_path_on_random_graphs(spec, setting, plugin):
    page_size, m_in, m_ex = setting
    store = make_store(_graph(spec), page_size)
    config = OPTConfig(m_in=m_in, m_ex=m_ex, plugin=PLUGINS[plugin]())
    _same_on_both_paths(lambda: _buffered(store, config))


@given(_random_graphs, st.sampled_from(["edge-iterator", "vertex-iterator"]))
@settings(max_examples=10, deadline=None)
def test_threaded_mask_is_the_key_path_on_random_graphs(spec, plugin):
    store = make_store(_graph(spec), 64)
    with tempfile.TemporaryDirectory() as directory:
        _same_on_both_paths(lambda: _threaded(store, plugin, directory))


# ---------------------------------------------------------------------------
# Which chunk takes which path
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def chunky():
    """A store whose first chunk (``m_in`` = 3) is pages ``0..end``, its
    records merged, and its row count."""
    store = make_store(generators.holme_kim(40, 4, 0.6, seed=3), 128)
    end = store.align_chunk_end(0, 3)
    v_lo, v_hi = store.chunk_vertex_range(0, end)
    merged, _ = store.decode_rows(range(end + 1), store.rows[:end + 1])
    return store, end, merged, v_hi - v_lo + 1


def test_a_chunk_takes_the_mask_exactly_when_it_fits(chunky):
    """``rows × n == len(mask)`` takes the mask; a mask one cell or one
    row short of that leaves the chunk on its keys."""
    store, end, merged, rows = chunky
    n = store.num_vertices
    none = np.empty(0, dtype=np.int64)
    results = []
    for cells in (rows * n, rows * n - 1, (rows - 1) * n):
        mask = np.zeros(cells, dtype=bool)
        chunk = ChunkContext(store, 0, end, merged, none, none, mask)
        with membership_spy() as seen:
            ops, triangles, groups = EdgeIteratorPlugin().internal_for_page(
                chunk, merged, True)
        assert seen == [np.dtype(bool) if cells == rows * n
                        else np.dtype(np.int64)]
        chunk.release()
        assert not mask.any()
        results.append((ops.tolist(), triangles, list(groups)))
    assert results[0][1] > 0
    assert results[1] == results[0] and results[2] == results[0]


def test_mask_budget_boundary_in_a_run(chunky):
    """``MASK_BYTES`` at the largest chunk's ``rows × n`` puts every chunk
    on the mask; one row less sends the largest to its keys while smaller
    chunks keep the mask, and the run answers the same either way."""
    store, _, _, _ = chunky
    n = store.num_vertices
    config = OPTConfig(m_in=3, m_ex=2)
    chunk_rows = []
    pid = 0
    while pid < store.num_pages:
        end = store.align_chunk_end(pid, config.m_in)
        v_lo, v_hi = store.chunk_vertex_range(pid, end)
        chunk_rows.append(v_hi - v_lo + 1)
        pid = end + 1
    largest = max(chunk_rows)
    assert min(chunk_rows) < largest  # both paths occur below
    expected = _buffered(store, config)
    for budget, dtypes in ((largest * n, {np.dtype(bool)}),
                           ((largest - 1) * n,
                            {np.dtype(bool), np.dtype(np.int64)})):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(block, "MASK_BYTES", budget)
            assert block.mask_cells(n) == budget
            with membership_spy() as seen:
                assert _buffered(store, config) == expected
        assert set(seen) == dtypes


# ---------------------------------------------------------------------------
# Mask hygiene
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("plugin", list(PLUGINS))
def test_marks_are_whole_rows_and_cleared_at_every_barrier(graph_zoo,
                                                           monkeypatch, plugin):
    """While a chunk is live its mask cells are ``row * n + w`` for every
    neighbor ``w`` of every row — the same index as its keys — and the
    barrier leaves the run's one mask all-False."""
    graph = graph_zoo("holme-kim-small")
    store = make_store(graph, 64)
    n = store.num_vertices
    masks, checked = [], []
    real_iterate, real_release = framework._iterate, ChunkContext.release

    def iterate(*args):
        masks.append(args[-1])
        assert not args[-1].any()
        outcome = real_iterate(*args)
        assert not args[-1].any()
        return outcome

    def release(chunk):
        rows = range(chunk.v_lo, chunk.v_hi + 1)
        expected = np.concatenate([(v - chunk.v_lo) * n + graph.neighbors(v)
                                   for v in rows])
        assert np.array_equal(np.flatnonzero(masks[-1]), np.sort(expected))
        checked.append(chunk.v_lo)
        real_release(chunk)

    monkeypatch.setattr(framework, "_iterate", iterate)
    monkeypatch.setattr(ChunkContext, "release", release)
    trace = run_opt(store, OPTConfig(m_in=2, m_ex=2, plugin=PLUGINS[plugin]()))
    assert len(checked) == len(trace.iterations) > 1
    assert all(mask is masks[0] for mask in masks)


def test_a_failed_run_leaks_no_marks_into_the_next(monkeypatch):
    """The last page the first chunk requests never reads: the run ends
    in ``FaultExhaustedError`` with that chunk's rows still marked, and
    the next run over the store answers as a clean one."""
    store = make_store(generators.holme_kim(60, 5, 0.6, seed=4), 64)
    config = OPTConfig(m_in=2, m_ex=2)
    expected = _buffered(store, config)
    requested = [read.pid for read in expected[0].iterations[0].external_reads]
    assert len(requested) > config.m_ex  # windows were probed before it
    last = requested[-1]
    left = []
    real_iterate = framework._iterate

    def iterate(*args):
        try:
            return real_iterate(*args)
        except FaultExhaustedError:
            left.append(int(np.count_nonzero(args[-1])))
            raise

    monkeypatch.setattr(framework, "_iterate", iterate)
    plan = FaultPlan([FaultSpec("transient", pages=frozenset({last}),
                                times=100)])
    with pytest.raises(FaultExhaustedError):
        run_opt(store, config, ctx=RunContext(
            fault_plan=plan,
            retry_policy=RetryPolicy(max_retries=1, backoff_base=0.0)))
    assert left and left[0] > 0
    assert _buffered(store, config) == expected

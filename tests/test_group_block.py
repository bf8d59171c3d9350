"""``GroupBlock`` and the sinks' ``emit_block``.

A block is the columnar form of a group sequence, so everything here is
differential: whatever a sink holds after ``emit_block(block)`` must be
what it holds after ``emit`` of the same groups one by one — bytes,
counters and Python types included — and a block must survive
``from_groups`` / pickle unchanged.
"""

from __future__ import annotations

import io
import json
import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import NestedOutputWriter
from repro.core.result_store import GroupCaptureSink, RunCheckpoint
from repro.core.threaded import _LockedSink
from repro.exec.block import NO_GROUPS, GroupBlock
from repro.memory import CollectSink, CountSink, emit_block

ids = st.integers(0, 2**32 - 1)
group = st.tuples(ids, ids, st.lists(ids, min_size=1, max_size=12).map(tuple))
group_lists = st.lists(group, max_size=30)


class EmitOnlySink:
    """A foreign sink: the protocol's ``emit`` and nothing else."""

    def __init__(self):
        self.groups = []

    def emit(self, u, v, ws):
        self.groups.append((u, v, tuple(ws)))


# ---------------------------------------------------------------------------
# GroupBlock
# ---------------------------------------------------------------------------


def test_empty_block():
    assert len(NO_GROUPS) == 0
    assert NO_GROUPS.triangles == 0
    assert list(NO_GROUPS) == []
    assert GroupBlock.from_groups([]) == NO_GROUPS
    assert GroupBlock.from_groups([(1, 2, ())]) == NO_GROUPS


@given(group_lists)
def test_from_groups_round_trip(groups):
    block = GroupBlock.from_groups(groups)
    assert len(block) == len(groups)
    assert block.triangles == sum(len(ws) for _, _, ws in groups)
    assert list(block) == groups
    assert all(type(x) is int for u, v, ws in block for x in (u, v, *ws))
    assert {a.dtype for a in (block.us, block.vs, block.counts, block.ws)
            } == {np.dtype(np.int64)}


@given(group_lists, group_lists)
def test_equality_is_same_groups_in_order(left, right):
    assert (GroupBlock.from_groups(left) == GroupBlock.from_groups(right)) \
        == (left == right)


def test_equal_triangles_cut_differently_are_different_blocks():
    assert GroupBlock.from_groups([(0, 1, (2, 3))]) \
        != GroupBlock.from_groups([(0, 1, (2,)), (0, 1, (3,))])


@given(group_lists)
def test_pickle_round_trip(groups):
    block = GroupBlock.from_groups(groups)
    assert pickle.loads(pickle.dumps(block)) == block


def test_from_groups_takes_arrays_and_numpy_ints():
    block = GroupBlock.from_groups([
        (np.int64(3), np.int32(4), np.array([5, 6])), (7, 8, [9])])
    assert list(block) == [(3, 4, (5, 6)), (7, 8, (9,))]


# ---------------------------------------------------------------------------
# emit_block(block) == emit of every group
# ---------------------------------------------------------------------------


def _both_ways(make_sink, groups):
    """Two sinks from *make_sink*: one fed per group, one fed the block."""
    per_group, per_block = make_sink(), make_sink()
    for u, v, ws in groups:
        per_group.emit(u, v, ws)
    emit_block(per_block, GroupBlock.from_groups(groups))
    return per_group, per_block


@given(group_lists)
def test_count_sink(groups):
    per_group, per_block = _both_ways(CountSink, groups)
    assert per_block.count == per_group.count
    assert type(per_block.count) is int


@given(group_lists)
def test_collect_sink(groups):
    per_group, per_block = _both_ways(CollectSink, groups)
    assert per_block.triangles == per_group.triangles
    assert all(type(t) is tuple and all(type(x) is int for x in t)
               for t in per_block.triangles)
    assert json.dumps(per_block.triangles) == json.dumps(per_group.triangles)


@given(group_lists)
def test_foreign_sink_gets_every_group_through_emit(groups):
    per_group, per_block = _both_ways(EmitOnlySink, groups)
    assert per_block.groups == per_group.groups == groups


#: Groups of 1-12 completions and one of 300, as
#: ``test_group_bytes_are_the_same_at_every_size`` writes them.
writer_groups = st.lists(
    st.one_of(group, st.tuples(ids, ids, st.just(tuple(range(7, 307))))),
    max_size=30)


@given(writer_groups, st.sampled_from([32, 128, 4096]), st.integers(1, 4))
@settings(deadline=None)
def test_nested_output_writer(groups, page_size, blocks):
    """Bytes and all four counters, however the groups are cut into blocks."""
    expected_stream, stream = io.BytesIO(), io.BytesIO()
    expected = NestedOutputWriter(expected_stream, page_size=page_size)
    writer = NestedOutputWriter(stream, page_size=page_size)
    for u, v, ws in groups:
        expected.emit(u, v, ws)
    for part in np.array_split(np.arange(len(groups)), blocks):
        emit_block(writer, GroupBlock.from_groups(
            groups[i] for i in part.tolist()))

    def counters(w):
        return w.count, w.groups, w.bytes_written, w.pages_written

    # Before the close too: a driver reads pages_written per iteration.
    assert counters(writer) == counters(expected)
    for w in (expected, writer):
        w.close()
    assert stream.getvalue() == expected_stream.getvalue()
    assert counters(writer) == counters(expected)
    assert all(type(c) is int for c in counters(writer))
    assert writer.pages_written == -(-writer.bytes_written // page_size)


@given(group_lists)
def test_group_capture_sink(groups):
    per_group, per_block = _both_ways(
        lambda: GroupCaptureSink(CollectSink()), groups)
    assert per_block.triangles == per_group.triangles  # forwarded
    ours, theirs = RunCheckpoint(), RunCheckpoint()
    ours.record(0, 0, 0, per_block.groups)
    theirs.record(0, 0, 0, per_group.groups)
    assert json.dumps(ours.to_dict()) == json.dumps(theirs.to_dict())
    replayed = EmitOnlySink()
    assert ours.replay_into(0, replayed) == sum(len(ws) for _, _, ws in groups)
    assert replayed.groups == groups


def test_group_capture_sink_forwards_blocks_to_a_foreign_sink():
    inner = EmitOnlySink()
    emit_block(GroupCaptureSink(inner), GroupBlock.from_groups([(1, 2, (3,))]))
    assert inner.groups == [(1, 2, (3,))]


@given(group_lists)
def test_locked_sink(groups):
    inners = []

    def make():
        inners.append(CollectSink())
        return _LockedSink(inners[-1])

    _both_ways(make, groups)
    assert inners[1].triangles == inners[0].triangles


def test_locked_sink_takes_the_lock_once_per_block():
    class CountingLock:
        taken = 0

        def __enter__(self):
            self.taken += 1

        def __exit__(self, *exc_info):
            pass

    sink = _LockedSink(EmitOnlySink())
    sink._lock = CountingLock()
    emit_block(sink, GroupBlock.from_groups([(0, 1, (2,)), (0, 2, (3, 4))]))
    assert sink._lock.taken == 1
    assert len(sink._inner.groups) == 2

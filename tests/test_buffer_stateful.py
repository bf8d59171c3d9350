"""Stateful property test: the buffer manager under random operation mixes.

A hypothesis rule-based machine drives get/pin/unpin/flush sequences and
checks the invariants a buffer pool must never violate: capacity is
respected, pinned pages are never evicted, pin counts never go negative,
page contents always come from the loader exactly once per residency,
and no two resident pages share a row of the pool.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.errors import BufferError_
from repro.storage.buffer import BufferManager

CAPACITY = 4
PAGE_IDS = st.integers(0, 9)


class BufferMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.loads: list[int] = []
        self.pool = np.full(CAPACITY, -1)
        self.buffer = BufferManager(CAPACITY, loader=self._load)
        self.pins: dict[int, int] = {}

    def _load(self, pids, rows) -> None:
        self.loads.extend(pids)
        self.pool[rows] = pids

    @rule(pid=PAGE_IDS)
    def get(self, pid):
        if (
            len(self.buffer.resident_pages()) >= CAPACITY
            and pid not in self.buffer
            and sum(1 for c in self.pins.values() if c > 0) >= CAPACITY
        ):
            return  # would need an eviction with everything pinned
        frame = self.buffer.get(pid)
        assert self.pool[frame.row] == pid

    @rule(pid=PAGE_IDS)
    def get_pinned(self, pid):
        resident_pinned = sum(1 for c in self.pins.values() if c > 0)
        if pid not in self.buffer and resident_pinned >= CAPACITY:
            return
        self.buffer.get(pid, pin=True)
        self.pins[pid] = self.pins.get(pid, 0) + 1

    @rule(pid=PAGE_IDS)
    def unpin(self, pid):
        if self.pins.get(pid, 0) > 0:
            self.buffer.unpin(pid)
            self.pins[pid] -= 1
        else:
            try:
                self.buffer.unpin(pid)
            except BufferError_:
                pass
            else:  # pragma: no cover - would be a bug
                raise AssertionError("over-unpin must raise")

    @rule()
    def flush(self):
        self.buffer.flush()
        # Flushing drops only unpinned pages.
        for pid, count in self.pins.items():
            if count > 0:
                assert pid in self.buffer

    @invariant()
    def capacity_respected(self):
        assert self.buffer.num_resident <= CAPACITY

    @invariant()
    def pinned_pages_resident(self):
        for pid, count in self.pins.items():
            if count > 0:
                assert pid in self.buffer, f"pinned page {pid} was evicted"

    @invariant()
    def every_resident_page_in_its_own_row(self):
        rows = [self.buffer._frames[pid].row
                for pid in self.buffer.resident_pages()]
        assert len(set(rows)) == len(rows)
        assert self.pool[rows].tolist() == self.buffer.resident_pages()

    @invariant()
    def stats_consistent(self):
        assert self.buffer.hits + self.buffer.misses >= len(self.loads)
        assert self.buffer.misses == len(self.loads)


TestBufferStateful = BufferMachine.TestCase
TestBufferStateful.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)


# ---------------------------------------------------------------------------
# A pinned run is page-at-a-time, and both are plain LRU
# ---------------------------------------------------------------------------

M_EX = 3  # frames left over for runs; CAPACITY - M_EX stay pinned


class _Events:
    """A tracer that keeps the buffer's hit / evict instants in order."""

    enabled = True
    clock = "wall"

    def __init__(self):
        self.seen = []

    def instant(self, name, **args):
        self.seen.append((name, args["pid"]))


def _drive(chunk, runs, by_run):
    """The OPT feed's use of the buffer: *chunk* pinned throughout, each
    of *runs* pinned, used and unpinned — as one run, or page by page."""
    events, loads, hits = _Events(), [], []
    pool = np.full(CAPACITY, -1)

    def load(pids, rows):
        loads.extend(pids)
        pool[rows] = pids

    buffer = BufferManager(CAPACITY, loader=load, tracer=events)
    for pid in chunk:
        buffer.get(pid, pin=True)
    for run in runs:
        if by_run:
            frames, run_hits = buffer.get_run(run)
            assert pool[[frame.row for frame in frames]].tolist() == run
            assert all(pid in buffer for pid in run), "evicted its own page"
            hits.extend(run_hits)
            for pid in run:
                buffer.unpin(pid)
        else:
            for pid in run:
                hits.append(pid in buffer)
                buffer.get(pid, pin=True)
                buffer.unpin(pid)
    return (events.seen, loads, hits, buffer.resident_pages(),
            (buffer.hits, buffer.misses, buffer.evictions))


def _lru_model(chunk, runs):
    """What plain LRU does with the same accesses: an ordered dict walked
    from its old end past the pinned pages."""
    order, events, loads, hits = OrderedDict(), [], [], []

    def access(pid):
        hit = pid in order
        if hit:
            order.move_to_end(pid)
            events.append(("buffer.hit", pid))
        else:
            if len(order) == CAPACITY:
                victim = next(old for old in order if old not in chunk)
                del order[victim]
                events.append(("buffer.evict", victim))
            order[pid] = None
            loads.append(pid)
        return hit

    for pid in chunk:
        access(pid)
    for run in runs:
        hits.extend([access(pid) for pid in run])
    return events, loads, hits, list(order)


@given(
    st.sets(PAGE_IDS, max_size=CAPACITY - M_EX),
    st.lists(st.lists(PAGE_IDS, min_size=1, max_size=M_EX, unique=True),
             max_size=25),
)
@settings(max_examples=150, deadline=None)
def test_pinned_run_is_page_at_a_time_is_lru(chunk, runs):
    chunk = sorted(chunk)
    by_run = _drive(chunk, runs, by_run=True)
    assert by_run == _drive(chunk, runs, by_run=False)
    events, loads, hits, resident, (n_hits, n_misses, n_evictions) = by_run
    model_events, model_loads, model_hits, model_resident = _lru_model(
        chunk, runs)
    assert events == model_events
    assert loads == model_loads
    assert hits == model_hits
    assert resident == model_resident
    assert n_misses == len(loads)
    assert n_evictions == sum(name == "buffer.evict" for name, _ in events)


def test_failed_run_leaves_no_trace():
    """A loader that gives up mid-run: nothing of the run stays pinned or
    half-loaded, and the buffer goes on working."""
    pool = np.full(CAPACITY, -1)

    def load(pids, rows):
        if 7 in pids:
            raise BufferError_("page 7 is gone")
        pool[rows] = pids

    buffer = BufferManager(CAPACITY, loader=load)
    buffer.get(1)
    with pytest.raises(BufferError_):
        buffer.get_run([1, 6, 7])
    assert buffer.resident_pages() == [1]
    assert buffer.num_pinned == 0
    frames, hits = buffer.get_run([6, 1, 2, 3])
    assert hits == [False, True, False, False]
    assert pool[[frame.row for frame in frames]].tolist() == [6, 1, 2, 3]

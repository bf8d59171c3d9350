"""Tests for the buffer manager."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import BufferError_
from repro.storage.buffer import BufferManager


def make_buffer(capacity: int):
    """A buffer over a pool whose row holds the id of the page loaded
    into it; the loads are kept in order."""
    loads: list[int] = []
    pool = np.full(capacity, -1)

    def loader(pids, rows):
        loads.extend(pids)
        pool[rows] = pids

    buffer = BufferManager(capacity, loader)
    buffer.pool = pool
    return buffer, loads


def claimed_rows(buffer) -> list[int]:
    """The rows of the resident frames, checked to be distinct."""
    rows = [buffer.get(pid, pin=True).row for pid in buffer.resident_pages()]
    for pid in buffer.resident_pages():
        buffer.unpin(pid)
    assert len(set(rows)) == len(rows), "two pages share a row"
    return sorted(rows)


class TestBasics:
    def test_miss_then_hit(self):
        buffer, loads = make_buffer(2)
        frame = buffer.get(3)
        assert buffer.pool[frame.row] == 3
        buffer.get(3)
        assert loads == [3]
        assert buffer.hits == 1 and buffer.misses == 1

    def test_capacity_validation(self):
        with pytest.raises(BufferError_):
            BufferManager(0, lambda pids, rows: None)

    def test_contains(self):
        buffer, _ = make_buffer(2)
        buffer.get(1)
        assert 1 in buffer
        assert 2 not in buffer


class TestEviction:
    def test_lru_evicts_oldest(self):
        buffer, loads = make_buffer(2)
        buffer.get(1)
        buffer.get(2)
        buffer.get(3)  # evicts 1
        assert 1 not in buffer and 2 in buffer and 3 in buffer
        assert buffer.evictions == 1

    def test_get_refreshes_recency(self):
        buffer, _ = make_buffer(2)
        buffer.get(1)
        buffer.get(2)
        buffer.get(1)  # 2 is now LRU
        buffer.get(3)
        assert 2 not in buffer and 1 in buffer

    def test_pinned_not_evicted(self):
        buffer, _ = make_buffer(2)
        buffer.get(1, pin=True)
        buffer.get(2)
        buffer.get(3)  # must evict 2, not pinned 1
        assert 1 in buffer and 3 in buffer

    def test_all_pinned_raises(self):
        buffer, _ = make_buffer(2)
        buffer.get(1, pin=True)
        buffer.get(2, pin=True)
        with pytest.raises(BufferError_):
            buffer.get(3)


class TestPinning:
    def test_pin_unpin_cycle(self):
        buffer, _ = make_buffer(2)
        buffer.get(1, pin=True)
        assert buffer.num_pinned == 1
        buffer.unpin(1)
        assert buffer.num_pinned == 0

    def test_nested_pins(self):
        buffer, _ = make_buffer(2)
        buffer.get(1, pin=True)
        buffer.pin(1)
        buffer.unpin(1)
        assert buffer.num_pinned == 1

    def test_over_unpin_raises(self):
        buffer, _ = make_buffer(2)
        buffer.get(1)
        with pytest.raises(BufferError_):
            buffer.unpin(1)

    def test_unpin_absent_raises(self):
        buffer, _ = make_buffer(2)
        with pytest.raises(BufferError_):
            buffer.unpin(9)

    def test_pin_absent_raises(self):
        buffer, _ = make_buffer(2)
        with pytest.raises(BufferError_):
            buffer.pin(9)


class TestRows:
    """A frame is a row of the caller's pool."""

    def test_a_hit_returns_the_frames_own_row(self):
        buffer, loads = make_buffer(3)
        rows = {pid: buffer.get(pid).row for pid in (4, 5, 6)}
        assert sorted(rows.values()) == [0, 1, 2]
        for pid in (6, 4, 5, 4):
            frame = buffer.get(pid)
            assert frame.row == rows[pid]
            assert buffer.pool[frame.row] == pid
        frames, hits = buffer.get_run([5, 6])
        assert hits == [True, True]
        assert [frame.row for frame in frames] == [rows[5], rows[6]]
        assert loads == [4, 5, 6]

    def test_an_eviction_reuses_the_victims_row(self):
        buffer, _ = make_buffer(2)
        first = buffer.get(1).row
        second = buffer.get(2).row
        assert buffer.get(3).row == first  # evicts 1, the LRU page
        assert buffer.pool[first] == 3
        assert buffer.get(4).row == second  # evicts 2
        assert buffer.evictions == 2
        assert claimed_rows(buffer) == [0, 1]

    def test_a_run_of_misses_loads_its_rows_in_one_call(self):
        calls = []

        def loader(pids, rows):
            calls.append((list(pids), list(rows)))

        buffer = BufferManager(4, loader)
        buffer.get(9)
        frames, hits = buffer.get_run([1, 9, 2])
        assert hits == [False, True, False]
        assert calls[1] == ([1, 2], [frames[0].row, frames[2].row])
        assert buffer.hits == 1 and buffer.misses == 3

    def test_a_loader_that_raises_leaves_no_row_claimed(self):
        def loader(pids, rows):
            if 7 in pids:
                raise OSError("page 7 is gone")

        buffer = BufferManager(3, loader)
        buffer.get(1)
        buffer.get(2)
        with pytest.raises(OSError):
            buffer.get_run([2, 6, 7])  # 6 and 7 claim row 2 and 1's row
        assert buffer.resident_pages() == [2]
        assert buffer.num_pinned == 0
        assert claimed_rows(buffer) == [1]
        # Every other row is free again: three new pages fit.
        frames, hits = buffer.get_run([5, 6, 8])
        assert hits == [False, False, False]
        assert sorted(frame.row for frame in frames) == [0, 1, 2]


class TestInstallAndFlush:
    def test_flush_drops_unpinned_only(self):
        buffer, _ = make_buffer(3)
        buffer.get(1, pin=True)
        row = buffer.get(2).row
        buffer.flush()
        assert 1 in buffer and 2 not in buffer
        # The flushed page's row goes to the next page loaded.
        assert buffer.get(3).row == row

    def test_delta_in_pattern(self):
        """Descending external loads leave the next chunk's pages resident."""
        buffer, loads = make_buffer(4)
        buffer.get(0, pin=True)
        buffer.get(1, pin=True)  # internal chunk pinned
        for pid in (9, 8, 3, 2):  # external loads, descending
            buffer.get(pid)
        buffer.unpin(0)
        buffer.unpin(1)
        # Next chunk is pages 2-3: both must be hits.
        before = buffer.hits
        buffer.get(2, pin=True)
        buffer.get(3, pin=True)
        assert buffer.hits == before + 2

"""Tests for the buffer manager."""

from __future__ import annotations

import pytest

from repro.errors import BufferError_
from repro.storage.buffer import BufferManager


def make_buffer(capacity: int):
    loads: list[int] = []

    def loader(pids):
        loads.extend(pids)
        return [[f"records-{pid}"] for pid in pids]

    return BufferManager(capacity, loader), loads


class TestBasics:
    def test_miss_then_hit(self):
        buffer, loads = make_buffer(2)
        frame = buffer.get(3)
        assert frame.records == ["records-3"]
        buffer.get(3)
        assert loads == [3]
        assert buffer.hits == 1 and buffer.misses == 1

    def test_capacity_validation(self):
        with pytest.raises(BufferError_):
            BufferManager(0, lambda pids: [[] for _ in pids])

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


class TestInstallAndFlush:
    def test_install_external_load(self):
        buffer, loads = make_buffer(2)
        buffer.install(5, ["external"])
        assert buffer.get(5).records == ["external"]
        assert loads == []  # loader never invoked

    def test_flush_drops_unpinned_only(self):
        buffer, _ = make_buffer(3)
        buffer.get(1, pin=True)
        buffer.get(2)
        buffer.flush()
        assert 1 in buffer and 2 not in buffer

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

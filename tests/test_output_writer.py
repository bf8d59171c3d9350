"""Tests for the nested-representation output writer."""

from __future__ import annotations

import io
import struct

import pytest

from repro.core import NestedOutputWriter, triangulate_disk
from repro.core.output import nested_group_bytes, triple_bytes
from repro.core.result_store import read_nested_groups
from repro.exec.block import GroupBlock
from repro.memory import edge_iterator


class TestEncoding:
    def test_group_bytes(self):
        assert nested_group_bytes(3) == 10 + 12
        assert triple_bytes(3) == 36

    def test_nested_beats_triples_with_shared_prefixes(self):
        # 10 triangles sharing one (u, v) prefix: nested is far smaller.
        assert nested_group_bytes(10) < triple_bytes(10) / 2


class TestWriter:
    def test_counts(self):
        writer = NestedOutputWriter()
        writer.emit(0, 1, [2, 3, 4])
        writer.emit(0, 2, [5])
        writer.close()
        assert writer.count == 4
        assert writer.groups == 2
        assert writer.bytes_written == nested_group_bytes(3) + nested_group_bytes(1)

    def test_empty_group_ignored(self):
        writer = NestedOutputWriter()
        writer.emit(0, 1, [])
        writer.close()
        assert writer.count == 0
        assert writer.bytes_written == 0

    def test_page_flush_granularity(self):
        writer = NestedOutputWriter(page_size=64)
        for i in range(20):
            writer.emit(i, i + 1, [i + 2])
        writer.close()
        assert writer.pages_written >= writer.bytes_written // 64

    def test_writes_to_stream(self):
        stream = io.BytesIO()
        writer = NestedOutputWriter(stream, page_size=32)
        writer.emit(1, 2, [3, 4])
        writer.close()
        data = stream.getvalue()
        assert len(data) == writer.bytes_written
        u, v, k = struct.unpack_from("<IIH", data, 0)
        assert (u, v, k) == (1, 2, 2)

    def test_group_bytes_are_the_same_at_every_size(self):
        """Small groups pack vertex by vertex, larger ones in one call;
        the stream must not show where the switch is."""
        stream = io.BytesIO()
        expected = b""
        with NestedOutputWriter(stream, page_size=128) as writer:
            for k in list(range(1, 12)) + [300]:
                ws = tuple(range(7, 7 + k))
                writer.emit(k, k + 1, ws)
                expected += struct.pack("<IIH", k, k + 1, k)
                expected += b"".join(struct.pack("<I", w) for w in ws)
        assert stream.getvalue() == expected

    def test_long_group_splits_at_the_count_field(self):
        """70 000 completions do not fit the u16 count: consecutive groups
        with the same prefix, which readers accumulate; counted only once
        the bytes are in."""
        ws = range(2, 70002)

        def written(feed):
            stream = io.BytesIO()
            with NestedOutputWriter(stream) as writer:
                feed(writer)
            assert writer.bytes_written == len(stream.getvalue())
            return (writer.count, writer.groups), stream.getvalue()

        counters, data = written(lambda w: w.emit(0, 1, ws))
        assert counters == (70000, 2)
        groups = list(read_nested_groups(io.BytesIO(data)))
        assert [(u, v, len(c)) for u, v, c in groups] == [
            (0, 1, 0xFFFF), (0, 1, 70000 - 0xFFFF)]
        assert [w for _, _, c in groups for w in c] == list(ws)

        block = GroupBlock.from_groups(
            [(5, 6, (7,)), (0, 1, ws), (8, 9, (10,))])
        by_group = written(lambda w: [w.emit(*g) for g in block])
        assert written(lambda w: w.emit_block(block)) == by_group
        assert by_group[0] == (70002, 4)

    def test_exactly_full_group_is_not_split(self):
        for feed in (lambda w, ws: w.emit(0, 1, ws),
                     lambda w, ws: w.emit_block(
                         GroupBlock.from_groups([(0, 1, ws)]))):
            for size, groups in ((0xFFFF, 1), (0x10000, 2), (2 * 0xFFFF, 2)):
                writer = NestedOutputWriter()
                feed(writer, range(size))
                assert (writer.count, writer.groups) == (size, groups)

    def test_rejected_group_leaves_the_counters_alone(self):
        writer = NestedOutputWriter()
        for feed in (lambda: writer.emit(0, 1, [2, 3, 4, 5, 2**32]),
                     lambda: writer.emit(0, 1, [2**32]),
                     lambda: writer.emit_block(
                         GroupBlock.from_groups([(0, 1, [2, 2**32])])),
                     lambda: writer.emit_block(
                         GroupBlock.from_groups([(-1, 1, [2])]))):
            with pytest.raises((struct.error, ValueError)):
                feed()
        writer.close()
        assert (writer.count, writer.groups, writer.bytes_written) == (0, 0, 0)

    def test_whole_pages_leave_in_one_write(self):
        class Handle:
            writes = []

            def write(self, data):
                self.writes.append(len(data))

        writer = NestedOutputWriter(Handle(), page_size=32)
        writer.emit(0, 1, range(300))  # 1210 bytes: 37 pages and 26 bytes
        assert Handle.writes == [37 * 32]
        assert (writer.pages_written, writer.bytes_written) == (37, 37 * 32)
        writer.close()
        assert Handle.writes == [37 * 32, 26]
        assert (writer.pages_written, writer.bytes_written) == (38, 1210)

    def test_writes_to_path(self, tmp_path):
        path = tmp_path / "triangles.bin"
        with NestedOutputWriter(path) as writer:
            writer.emit(0, 1, [2])
        assert path.stat().st_size == writer.bytes_written

    def test_as_opt_sink(self, small_rmat_ordered):
        writer = NestedOutputWriter(page_size=512)
        result = triangulate_disk(small_rmat_ordered, page_size=256,
                                  buffer_pages=6, sink=writer)
        writer.close()
        assert writer.count == result.triangles
        assert writer.count == edge_iterator(small_rmat_ordered).triangles
        trace = result.extra["trace"]
        assert sum(it.output_pages for it in trace.iterations) > 0

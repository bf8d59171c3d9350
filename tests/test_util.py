"""Tests for the shared utilities: table formatting."""

from __future__ import annotations

from repro.util import format_table


class TestFormatTable:
    def test_alignment(self):
        table = format_table(["name", "value"], [("a", 1), ("bbbb", 22)])
        lines = table.splitlines()
        assert lines[0].startswith("name")
        # Numeric column right-aligned: both rows end at the same column.
        assert len(lines[2]) == len(lines[3])

    def test_title_included(self):
        table = format_table(["x"], [(1,)], title="My Table")
        assert table.splitlines()[0] == "My Table"

    def test_humanized_numbers(self):
        table = format_table(["n"], [(1234567,)])
        assert "1,234,567" in table

    def test_float_formatting(self):
        table = format_table(["f"], [(0.1234567,), (12345.6,), (12.345,)])
        assert "0.123" in table
        assert "12,346" in table
        assert "12.35" in table or "12.34" in table

    def test_zero(self):
        assert "0" in format_table(["z"], [(0.0,)])

    def test_empty_rows(self):
        table = format_table(["a", "b"], [])
        assert len(table.splitlines()) == 2  # header + rule


"""``repro.util.ragged`` against a list-of-lists reference.

A ragged array ``(offsets, values)`` is a list of rows; every function
here is checked on random rows — no rows at all and zero-length rows
included — against what plain Python lists give, and for ``int64``
offsets and indices.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.util import ragged

INT64 = np.dtype(np.int64)

row_lists = st.lists(st.lists(st.integers(-2**40, 2**40), max_size=6),
                     max_size=12)


def as_ragged(rows: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """The reference encoding of *rows*, built without the module."""
    offsets = np.array([0, *accumulate(map(len, rows))], dtype=np.int64)
    values = np.array([x for row in rows for x in row], dtype=np.int64)
    return offsets, values


def as_lists(offsets: np.ndarray, values: np.ndarray) -> list[list[int]]:
    bounds = offsets.tolist()
    return [values[begin:end].tolist()
            for begin, end in zip(bounds, bounds[1:])]


@given(row_lists)
def test_from_lists_holds_the_rows(rows):
    offsets, values = ragged.from_lists(rows)
    assert as_lists(offsets, values) == rows
    assert offsets[0] == 0 and offsets[-1] == len(values)
    assert offsets.dtype == values.dtype == INT64


@given(row_lists)
def test_from_lists_takes_arrays(rows):
    arrays = [np.array(row, dtype=np.int64) for row in rows]
    offsets, values = ragged.from_lists(arrays)
    assert as_lists(offsets, values) == rows


@given(st.lists(st.integers(0, 9), max_size=20))
def test_from_lengths_is_the_running_total(lengths):
    offsets = ragged.from_lengths(np.array(lengths, dtype=np.int64))
    assert offsets.tolist() == [0, *accumulate(lengths)]
    assert offsets.dtype == INT64


@given(st.lists(st.tuples(st.integers(-50, 50), st.integers(0, 6)),
                max_size=20))
def test_expand_is_the_concatenated_ranges(pairs):
    starts = np.array([start for start, _ in pairs], dtype=np.int64)
    lengths = np.array([length for _, length in pairs], dtype=np.int64)
    expanded = ragged.expand(starts, lengths)
    assert expanded.tolist() == [start + k for start, length in pairs
                                 for k in range(length)]
    assert expanded.dtype == INT64


def test_expand_accepts_no_pairs():
    no_ints = np.empty(0, dtype=np.int64)
    expanded = ragged.expand(no_ints, no_ints)
    assert len(expanded) == 0 and expanded.dtype == INT64
    assert ragged.take_rows(np.arange(3), no_ints, no_ints).tolist() == []


@given(st.data())
def test_take_rows_is_the_concatenated_slices(data):
    values = data.draw(st.lists(st.integers(-100, 100), max_size=15))
    slices = []
    for _ in range(data.draw(st.integers(0, 8))):
        start = data.draw(st.integers(0, len(values)))
        slices.append((start, data.draw(st.integers(0, len(values) - start))))
    taken = ragged.take_rows(np.array(values, dtype=np.int64),
                             np.array([s for s, _ in slices], dtype=np.int64),
                             np.array([n for _, n in slices], dtype=np.int64))
    assert taken.tolist() == [x for start, length in slices
                              for x in values[start:start + length]]


@given(row_lists)
def test_row_sums_sum_every_row(rows):
    sums = ragged.row_sums(*as_ragged(rows))
    assert sums.tolist() == [sum(row) for row in rows]
    assert sums.dtype == INT64


@given(st.lists(st.lists(st.booleans(), max_size=6), max_size=12))
def test_row_sums_count_flags(rows):
    offsets, _ = as_ragged(rows)
    flags = np.array([x for row in rows for x in row], dtype=bool)
    sums = ragged.row_sums(offsets, flags)
    assert sums.tolist() == [sum(row) for row in rows]
    assert sums.dtype == INT64


@given(st.lists(row_lists, min_size=1, max_size=5))
def test_concat_is_the_rows_in_order(parts):
    offsets, values = ragged.concat([as_ragged(rows) for rows in parts])
    assert as_lists(offsets, values) == [row for rows in parts for row in rows]
    assert offsets.dtype == INT64 and offsets[-1] == len(values)


@given(row_lists)
def test_concat_returns_a_lone_part_uncopied(rows):
    part = as_ragged(rows)
    offsets, values = ragged.concat([part])
    assert offsets is part[0] and values is part[1]


@given(st.data())
def test_split_cuts_the_rows_and_concat_undoes_it(data):
    rows = data.draw(row_lists)
    inner = data.draw(st.lists(st.integers(0, len(rows)), max_size=4))
    cuts = [0, *sorted(inner), len(rows)]
    offsets, values = as_ragged(rows)
    parts = ragged.split(offsets, values, cuts)
    assert [as_lists(*part) for part in parts] == [
        rows[begin:end] for begin, end in zip(cuts, cuts[1:])]
    assert all(part[0][0] == 0 and part[0].dtype == INT64 for part in parts)
    joined = ragged.concat(parts)
    assert np.array_equal(joined[0], offsets)
    assert np.array_equal(joined[1], values)

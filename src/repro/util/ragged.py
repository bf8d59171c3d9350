"""Ragged arrays: rows of different lengths as ``(offsets, values)``.

Row *i* is ``values[offsets[i]:offsets[i + 1]]``, with ``offsets[0] ==
0`` and ``offsets[-1] == len(values)``.  The paper's data is ragged at
every layer — a CSR's adjacency lists, a slotted page's ``(v, n(v))``
records, the ``<u, v, {w…}>`` output groups, ``V_req``'s requesters per
candidate — and these free functions are the one place its offsets
arithmetic lives.  Offsets and gathered indices are ``int64``; empty
input and zero-length rows are allowed everywhere.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Sequence

import numpy as np

__all__ = ["concat", "expand", "from_lengths", "from_lists", "row_sums",
           "split", "take_rows"]

Ragged = tuple[np.ndarray, np.ndarray]

_NO_VALUES = np.empty(0, dtype=np.int64)
_NO_VALUES.setflags(write=False)


def from_lengths(lengths: np.ndarray) -> np.ndarray:
    """The offsets of rows of *lengths*: ``[0, l0, l0 + l1, ...]``."""
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    # The ufunc itself: np.cumsum's Python wrapper costs more than the
    # sum on the short arrays most callers pass.
    np.add.accumulate(lengths, out=offsets[1:])
    return offsets


def from_lists(lists: Sequence[Sequence[int]]) -> Ragged:
    """*lists* as the rows of one ragged array, values ``int64``."""
    lengths = np.fromiter(map(len, lists), dtype=np.int64, count=len(lists))
    # An empty Python list is float64 to numpy: leave the empty rows out.
    return (from_lengths(lengths),
            np.concatenate([_NO_VALUES, *(row for row in lists if len(row))],
                           dtype=np.int64))


def expand(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(start, start + length)`` of every pair."""
    ends = lengths.cumsum()
    total = ends[-1] if len(ends) else 0
    return (starts - (ends - lengths)).repeat(lengths) + np.arange(total)


def take_rows(values: np.ndarray, starts: np.ndarray,
              lengths: np.ndarray) -> np.ndarray:
    """``values[starts[i]:starts[i] + lengths[i]]`` of every pair,
    concatenated in pair order."""
    return values[expand(starts, lengths)]


def row_sums(offsets: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The sum of every row, empty ones too, as ``int64``."""
    running = from_lengths(values)
    return running[offsets[1:]] - running[offsets[:-1]]


def concat(parts: Sequence[Ragged]) -> Ragged:
    """The rows of one or more ragged arrays, in order, as one; a lone
    part comes back as it is, uncopied."""
    if len(parts) == 1:
        return parts[0]
    offsets = np.zeros(sum(len(part[0]) - 1 for part in parts) + 1,
                       dtype=np.int64)
    np.concatenate([part[0][1:] for part in parts], out=offsets[1:])
    # Each part's offsets move up by the values of the parts before it.
    offsets[1:] += np.repeat(
        [0, *accumulate(len(part[1]) for part in parts[:-1])],
        [len(part[0]) - 1 for part in parts])
    return offsets, np.concatenate([part[1] for part in parts])


def split(offsets: np.ndarray, values: np.ndarray,
          cuts: Sequence[int]) -> list[Ragged]:
    """Cut into consecutive ragged arrays, rows ``cuts[j]:cuts[j + 1]``
    each; *cuts* run from 0 to the row count."""
    bounds = offsets[cuts].tolist()
    return [(offsets[begin:end + 1] - lo, values[lo:hi])
            for begin, end, lo, hi in zip(cuts, cuts[1:], bounds, bounds[1:])]

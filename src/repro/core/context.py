"""Per-iteration state shared between the OPT driver and its plugins.

A :class:`ChunkContext` represents one internal-area fill: the inclusive
vertex range ``[v_lo, v_hi]`` whose record chains are pinned in the
internal area, their adjacency lists as a chunk-local CSR, and the
requester map ``V_req`` built during candidate identification
(Algorithm 7) and consumed by the external triangulation (Algorithm 9).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exec.block import GroupBlock, probe_pairs
from repro.storage.page import PageBlock

__all__ = ["ChunkContext", "slice_sums"]


def slice_sums(flags: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Sum of ``flags[offsets[i]:offsets[i + 1]]`` per slice, empty ones too."""
    running = np.zeros(len(flags) + 1, dtype=np.int64)
    flags.cumsum(out=running[1:])
    return running[offsets[1:]] - running[offsets[:-1]]


class ChunkContext:
    """State of one OPT iteration (one internal chunk); read-only once built.

    Row ``v - v_lo`` of the CSR is internal vertex *v*: its full list is
    ``indices[indptr[row]:indptr[row + 1]]`` and ``n_succ(v)`` the suffix
    from ``succ_start[row]``.  ``V_req`` is two aligned arrays sorted by
    candidate: the requesters of *c* are the ``requesters`` entries where
    ``candidates == c``, in the order the fill pages listed them.
    """

    def __init__(self, v_lo: int, v_hi: int, num_vertices: int,
                 blocks: Sequence[PageBlock], candidates: np.ndarray,
                 requesters: np.ndarray):
        """*blocks* are the chunk's pages in page order; *candidates* and
        *requesters* the aligned ``(candidate, requester)`` pairs."""
        self.v_lo = v_lo
        self.v_hi = v_hi
        rows = v_hi - v_lo + 1
        vertices = np.concatenate([block.vertices for block in blocks])
        lengths = np.concatenate([block.lengths for block in blocks])
        self.indices = np.concatenate([block.neighbors for block in blocks])
        # Float bincount weights are exact below 2**53.
        row_len = np.bincount(vertices - v_lo, weights=lengths,
                              minlength=rows).astype(np.int64)
        self.indptr = np.zeros(rows + 1, dtype=np.int64)
        np.cumsum(row_len, out=self.indptr[1:])
        owner = np.repeat(np.arange(rows), row_len)
        succ = self.indices > owner + v_lo
        self.succ_len = slice_sums(succ, self.indptr)
        self.succ_start = self.indptr[1:] - self.succ_len
        # Membership index of every n_succ(u): row * n + w, ascending
        # because rows and each row's neighbors are.
        self._stride = num_vertices
        self._keys = (owner * num_vertices + self.indices)[succ]
        order = np.argsort(candidates, kind="stable")
        self.candidates = candidates[order]
        self.requesters = requesters[order]

    def n_full(self, v: int) -> np.ndarray:
        """Full adjacency list of internal vertex *v* (sorted)."""
        row = v - self.v_lo
        return self.indices[self.indptr[row]:self.indptr[row + 1]]

    def n_succ(self, v: int) -> np.ndarray:
        """``n_succ(v)`` of internal vertex *v*."""
        row = v - self.v_lo
        return self.indices[self.succ_start[row]:self.indptr[row + 1]]

    def requests_on(self, block: PageBlock) -> tuple[np.ndarray, np.ndarray]:
        """The ``V_req`` pairs an arrived page answers: ``(records, us)``.

        Pair *i* is requester ``us[i]`` of the vertex of record
        ``records[i]`` of *block*, in record order.  A store's page holds
        one record for every vertex id between its first and last, so the
        page's pairs are one slice of ``V_req`` and their candidates all
        have a record.
        """
        lo, hi = self.candidates.searchsorted(
            (block.vertices[0], block.vertices[-1] + 1)).tolist()
        return (block.vertices.searchsorted(self.candidates[lo:hi]),
                self.requesters[lo:hi])

    def probe(self, rows: np.ndarray, values: np.ndarray, starts: np.ndarray,
              lengths: np.ndarray, labels: tuple[np.ndarray, np.ndarray] | None
              ) -> tuple[np.ndarray, GroupBlock]:
        """Intersect ``n_succ`` of CSR row ``rows[i]`` with one slice of
        *values* per pair.

        Pair *i*'s slice ``values[starts[i]:starts[i] + lengths[i]]`` is
        ascending and above the row's vertex.  Returns the triangles
        found per pair and, given ``labels = (us, vs)``, the ``(u, v,
        completions)`` groups in pair order.
        """
        return probe_pairs(self._keys, rows * self._stride, values, starts,
                           lengths, labels)

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
from repro.storage.layout import GraphStore
from repro.storage.page import PageBlock
from repro.util import ragged

__all__ = ["ChunkContext"]

_NO_PAIRS = (np.empty(0, dtype=np.int64),) * 3


class ChunkContext:
    """State of one OPT iteration (one internal chunk); read-only once built.

    Row ``v - v_lo`` of the CSR is internal vertex *v*: its full list is
    ``indices[indptr[row]:indptr[row + 1]]`` and ``n_succ(v)`` the suffix
    from ``succ_start[row]``.  ``V_req`` is two aligned arrays sorted by
    ``(candidate, requester)``: the requesters of *c* are the
    ``requesters`` entries where ``candidates == c``, ascending — the
    order the chunk's pages list them, however its pages arrived.
    ``num_vertices`` is the store's vertex count *n*.

    Membership in a row (:meth:`probe`) is answered from the run's dense
    mask, cell ``row * n + w``, when the chunk's ``rows × n`` fits it,
    and by a binary search of the same keys, sorted, when it does not.
    The marks stay until :meth:`release`.
    """

    def __init__(self, store: GraphStore, pid: int, end: int,
                 block: PageBlock, candidates: np.ndarray,
                 requesters: np.ndarray, mask: np.ndarray | None = None):
        """*block* is pages ``pid..end`` of *store*, merged in page order;
        *candidates* and *requesters* the aligned ``(candidate,
        requester)`` pairs, each pair once, in any order; *mask* the
        run's all-False bool scratch of
        :func:`~repro.exec.block.mask_cells` cells, if it has one."""
        self.v_lo, self.v_hi = store.chunk_vertex_range(pid, end)
        v_lo = self.v_lo
        rows = self.v_hi - v_lo + 1
        self.indices = block.neighbors
        # Float bincount weights are exact below 2**53.
        row_len = np.bincount(block.vertices - v_lo, weights=block.lengths,
                              minlength=rows).astype(np.int64)
        self.indptr = ragged.from_lengths(row_len)
        owner = np.repeat(np.arange(rows), row_len)
        succ = self.indices > owner + v_lo
        self.succ_len = ragged.row_sums(self.indptr, succ)
        self.succ_start = self.indptr[1:] - self.succ_len
        # Membership index of every row: row * n + w, ascending because
        # rows and each row's neighbors are, and aligned with indices.  A
        # probe asks only for w above the row's vertex, where n(v) and
        # n_succ(v) agree; the whole row is indexed all the same.
        n = self.num_vertices = store.num_vertices
        self._keys = owner * n + self.indices
        self._members = self._keys
        if mask is not None and rows * n <= len(mask):
            mask[self._keys] = True
            self._members = mask
        pairs = np.sort(candidates * n + requesters)
        self.candidates, self.requesters = np.divmod(pairs, n)
        # A store's page holds one record for every vertex id between its
        # first and last (GraphStore.decode_rows checks it), so the
        # pairs a page answers are one slice of V_req: per page of the
        # store, where it starts and what to add to a candidate there to
        # get its record on the page.
        starts = self.candidates.searchsorted(store.page_first_vertex)
        self._pairs_from = starts.tolist()
        self._pairs_on = (self.candidates.searchsorted(
            store.page_last_vertex, side="right") - starts).tolist()
        self._first_vertex = store.page_first_vertex.tolist()

    def requests_on(self, pids: Sequence[int], cuts: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ``V_req`` pairs a window of arrived pages answers:
        ``(records, us, pages)``.

        Page ``pids[j]`` holds records ``cuts[j]:cuts[j + 1]`` of the
        window's merged block.  Pair
        *i* is requester ``us[i]`` of the vertex of record ``records[i]``
        of that block, on page ``pids[pages[i]]``: page after page, and
        in record order within a page.
        """
        counts = [self._pairs_on[pid] for pid in pids]
        if not any(counts):
            return _NO_PAIRS
        # The window's spans of V_req, page after page.
        taken = ragged.expand(np.array([self._pairs_from[pid] for pid in pids]),
                              np.array(counts))
        # A candidate is record (candidate - the page's first vertex) of
        # its page, whose records start where the pages before it end.
        shift = [at - self._first_vertex[pid] for pid, at in zip(
            pids, cuts.tolist())]
        records = self.candidates[taken] + np.array(shift).repeat(counts)
        return (records, self.requesters[taken],
                np.arange(len(pids)).repeat(counts))

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
        return probe_pairs(self._members, rows * self.num_vertices, values,
                           starts, lengths, labels)

    def row_after(self, rows: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Where CSR row ``rows[i]`` continues after vertex ``vs[i]``: the
        position in :attr:`indices` of its first neighbor above it (the
        row's end when there is none)."""
        return self._keys.searchsorted(rows * self.num_vertices + vs,
                                       side="right")

    def release(self) -> None:
        """Clear this chunk's marks from the run's mask, all-False again
        for the next chunk.  Call it once no probe can follow."""
        if self._members is not self._keys:
            self._members[self._keys] = False

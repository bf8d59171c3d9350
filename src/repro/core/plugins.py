"""Pluggable iterator models for the OPT framework.

OPT is generic: an instance supplies three operations (Section 3.2/3.5),
each over a :class:`~repro.storage.page.PageBlock` — one decoded page
or, as the driver calls them, the merged records of a window of pages
(a delivered fill window, the whole chunk, an arrived external window) —

* ``candidates_for_page`` — ExternalCandidateVertexImpl (Algorithms 8 / 12),
* ``internal_for_page``   — InternalTriangleImpl (Algorithms 6 / 11),
* ``external_for_page``   — ExternalTriangleImpl (Algorithms 10 / 13).

Each reports the CPU operations it consumed (the paper's probe measure)
*per record* of the block — the driver splits them by page for the trace
and buckets them for attribution — and the two triangulating ones return
``(ops, triangles, groups)``, the groups — one
:class:`~repro.exec.block.GroupBlock` per call — only when asked to
collect.
Adjacency lists may arrive chunked across pages; intersections and
membership probes distribute over chunks, so per-record processing
remains exact.

Every plugin resolves a block with a constant number of array
operations, one batched probe (:func:`~repro.exec.block.probe_pairs`)
per call.  :class:`EdgeIteratorPlugin` probes ``n_succ(u)`` in the
chunk's index (:meth:`ChunkContext.probe`) with ``v``'s successors;
:class:`VertexIteratorPlugin` and :class:`MGTPlugin` probe ``v``'s list
with ``u``'s successors above ``v`` — in the chunk's index when ``v`` is
internal, in a sorted index over the arrived window when it is external.

:class:`MGTPlugin` realizes the paper's Section 3.5 reduction of MGT
[Hu et al., SIGMOD'13] to an OPT instance: no internal triangulation,
every successor is an external candidate, vertex-iterator external
processing, synchronous I/O (the driver handles the I/O mode).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.core.context import ChunkContext
from repro.exec.block import NO_GROUPS, GroupBlock, probe_pairs
from repro.storage.page import PageBlock
from repro.util import ragged
from repro.util.intersect import HASH_PROBE_COST

__all__ = ["EdgeIteratorPlugin", "IteratorPlugin", "MGTPlugin", "VertexIteratorPlugin"]

#: ``(ops, triangles, groups)`` of one triangulated block.
PageOutcome = tuple[np.ndarray, int, GroupBlock]


class IteratorPlugin(ABC):
    """One iterator-model instantiation of the OPT framework."""

    #: Short identifier used in reports and the CLI.
    name: str = "abstract"
    #: MGT mode: candidates include in-memory vertices and I/O is synchronous.
    rescan_all: bool = False
    sync_external: bool = False

    @abstractmethod
    def candidates_for_page(
        self, block: PageBlock, v_hi: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """External candidate vertices the fill pages in *block* contribute.

        *v_hi* is the chunk's last internal vertex.  Returns
        ``(candidates, requesters, ops)``: aligned ``(candidate,
        requesting record's vertex)`` pairs in record order, and the ops
        per record of *block*.
        """

    @abstractmethod
    def internal_for_page(
        self, chunk: ChunkContext, block: PageBlock, collect: bool
    ) -> PageOutcome:
        """Find the internal triangles of the internal-area pages in *block*.

        The ops returned are per record of *block*.
        """

    @abstractmethod
    def external_for_page(
        self, chunk: ChunkContext, block: PageBlock, records: np.ndarray,
        us: np.ndarray, collect: bool,
    ) -> PageOutcome:
        """Find external triangles for the arrived candidate pages in *block*.

        Pair *i* is requester ``us[i]`` against record ``records[i]`` of
        *block* (:meth:`ChunkContext.requests_on`); the ops returned are
        per pair.
        """


def _candidates_above(block: PageBlock, bound):
    """Every neighbor above *bound* (a scalar, or one value per neighbor)
    is a candidate of its record's vertex; a record costs its length."""
    lengths = block.lengths
    wanted = block.neighbors > bound
    return (block.neighbors[wanted], block.vertices.repeat(lengths)[wanted],
            lengths)


class EdgeIteratorPlugin(IteratorPlugin):
    """EdgeIterator≻ instance (Algorithms 6, 8 and 10)."""

    name = "edge-iterator"

    def candidates_for_page(self, block, v_hi):
        return _candidates_above(block, v_hi)

    def internal_for_page(self, chunk, block, collect):
        # One pair per (u, v) with v an internal successor on this page;
        # both sides are whole lists of the chunk's CSR.
        lengths = block.lengths
        owner = block.vertices.repeat(lengths)
        paired = (block.neighbors > owner) & (block.neighbors <= chunk.v_hi)
        us = owner[paired]
        vs = block.neighbors[paired]
        u_rows = us - chunk.v_lo
        v_rows = vs - chunk.v_lo
        gather_len = chunk.succ_len[v_rows]
        found, groups = chunk.probe(u_rows, chunk.indices,
                                    chunk.succ_start[v_rows], gather_len,
                                    (us, vs) if collect else None)
        charge = np.minimum(chunk.succ_len[u_rows], gather_len)
        # Float bincount weights are exact below 2**53.
        ops = np.bincount(np.arange(len(block)).repeat(lengths)[paired],
                          weights=charge, minlength=len(block))
        return ops.astype(np.int64), int(found.sum()), groups

    def external_for_page(self, chunk, block, records, us, collect):
        # v's side is the page's slice of n_succ(v): the suffix of its
        # record above v.
        succ_len = ragged.row_sums(
            block.offsets,
            block.neighbors > block.vertices.repeat(block.lengths))
        gather_len = succ_len[records]
        u_rows = us - chunk.v_lo
        found, groups = chunk.probe(
            u_rows, block.neighbors,
            (block.offsets[1:] - succ_len)[records], gather_len,
            (us, block.vertices[records]) if collect else None)
        return (np.minimum(chunk.succ_len[u_rows], gather_len),
                int(found.sum()), groups)


class VertexIteratorPlugin(IteratorPlugin):
    """VertexIterator≻ instance (Algorithms 11, 12 and 13)."""

    name = "vertex-iterator"

    def candidates_for_page(self, block, v_hi):
        return _candidates_above(block, v_hi)

    def internal_for_page(self, chunk, block, collect):
        # One pair per (u, v) with v an internal successor.  _iterate
        # passes the whole chunk, so v's position on the block is its
        # position in the chunk's CSR, and u's successors after it probe
        # v's row: for w > v, w is in n(v) exactly when in n_succ(v).
        lengths = block.lengths
        owner = block.vertices.repeat(lengths)
        paired = np.flatnonzero((block.neighbors > owner)
                                & (block.neighbors <= chunk.v_hi))
        us = owner[paired]
        vs = block.neighbors[paired]
        starts = paired + 1
        probed = chunk.indptr[us - chunk.v_lo + 1] - starts
        found, groups = chunk.probe(vs - chunk.v_lo, chunk.indices, starts,
                                    probed, (us, vs) if collect else None)
        # Float bincount weights are exact below 2**53.
        ops = np.bincount(np.arange(len(block)).repeat(lengths)[paired],
                          weights=HASH_PROBE_COST * probed,
                          minlength=len(block))
        return ops.astype(np.int64), int(found.sum()), groups

    def external_for_page(self, chunk, block, records, us, collect):
        # The arrived window is the resident side, one key per neighbor
        # (record * n + w).  Pair (u, v) probes v's record with u's
        # successors above v: the rest of u's chunk row after v.
        n = chunk.num_vertices
        keys = (np.arange(len(block)).repeat(block.lengths) * n
                + block.neighbors)
        vs = block.vertices[records]
        u_rows = us - chunk.v_lo
        starts = chunk.row_after(u_rows, vs)
        probed = chunk.indptr[u_rows + 1] - starts
        found, groups = probe_pairs(keys, records * n, chunk.indices,
                                    starts, probed,
                                    (us, vs) if collect else None)
        return HASH_PROBE_COST * probed, int(found.sum()), groups


class MGTPlugin(VertexIteratorPlugin):
    """MGT as an OPT instance (Section 3.5).

    No internal triangulation; *every* successor becomes an external
    candidate (so in-memory vertices are re-read through the streaming
    scan); external processing is the vertex-iterator check; the driver
    runs the external reads synchronously with no buffer reuse — giving
    the paper's ``(1 + ceil(P/m)) * c * P(G)`` I/O bound (Eq. 7).
    """

    name = "mgt"
    rescan_all = True
    sync_external = True

    def candidates_for_page(self, block, v_hi):
        return _candidates_above(block, block.vertices.repeat(block.lengths))

    def internal_for_page(self, chunk, block, collect):
        return np.zeros(len(block), dtype=np.int64), 0, NO_GROUPS

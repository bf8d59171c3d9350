"""Block-batched EdgeIterator≻ for the ``hash`` kernel over a CSR.

The per-pair loop pays one Python iteration and several numpy calls for
every edge; on the graphs this repository runs, that fixed cost — not
the Eq. 3 probe count — is the wall time.  :func:`block_range` resolves
a whole block of edges with a constant number of numpy calls instead:
mark ``n_succ(u)`` of the block's rows in a dense ``rows × n`` mask,
gather ``n_succ(v)`` of every edge ``(u, v)`` of the block as one
concatenated batch, and probe the mask once — or, when the mask holds
every row the range can reach, mark those rows once and gather the
shorter of ``n_succ(v)`` and the rest of ``u``'s row.  What it returns —
triangles, the analytic ``min(|n_succ(u)|, |n_succ(v)|)`` charge, the
group sequence and the attribution cells — is what the per-pair loop
returns for the same range (``docs/kernels.md``, "Block-batched hash
path").

:func:`probe_pairs` is the same batching for a caller that holds only
part of the graph resident — the OPT driver's chunk
(:class:`repro.core.context.ChunkContext`): the resident rows are marked
once in the same dense mask when they fit it, and folded into one sorted
key array when they do not, and each pair brings its own slice to probe.

Both hand their groups back as one :class:`GroupBlock` — four arrays,
never a Python object per group — which is also what crosses a forked
worker's pipe and what a sink's ``emit_block`` receives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.util import ragged

__all__ = ["Group", "GroupBlock", "NO_GROUPS", "bit_lengths", "block_range",
           "charge_by_length", "mask_cells", "probe_pairs"]

#: One emitted triangle group ``(u, v, (w, ...))``.
Group = tuple[int, int, tuple[int, ...]]


@dataclass(frozen=True, eq=False)
class GroupBlock:
    """A sequence of triangle groups ``<u, v, {w…}>`` in columnar form.

    Group *i* is ``(us[i], vs[i], ws[k:k + counts[i]])`` with ``k =
    counts[:i].sum()``; every count is positive, all four arrays are
    int64.  ``len()`` is the number of groups, iteration yields them as
    ``(u, v, (w, ...))`` tuples of Python ints, and two blocks are equal
    when they hold the same groups in the same order.  Treated as
    immutable: blocks share arrays freely.
    """

    us: np.ndarray
    vs: np.ndarray
    counts: np.ndarray
    ws: np.ndarray

    @classmethod
    def from_groups(cls, groups: Iterable[tuple[int, int, Sequence[int]]]
                    ) -> "GroupBlock":
        """The block of *groups*, an iterable of ``(u, v, ws)``; a group
        without completions denotes no triangle and is dropped."""
        groups = [group for group in groups if len(group[2])]
        if not groups:
            return NO_GROUPS
        us, vs, completions = zip(*groups)
        offsets, ws = ragged.from_lists(completions)
        return cls(np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64),
                   offsets[1:] - offsets[:-1], ws)

    @classmethod
    def concat(cls, blocks: Sequence["GroupBlock"]) -> "GroupBlock":
        """The groups of *blocks*, in order, as one block."""
        blocks = [block for block in blocks if len(block)]
        if len(blocks) <= 1:
            return blocks[0] if blocks else NO_GROUPS
        return cls(*(np.concatenate(column) for column in zip(
            *((b.us, b.vs, b.counts, b.ws) for b in blocks))))

    @property
    def triangles(self) -> int:
        """Triangles denoted: one per completion."""
        return len(self.ws)

    def __len__(self) -> int:
        return len(self.us)

    def __iter__(self) -> Iterator[Group]:
        ws = self.ws.tolist()
        begin = 0
        for u, v, end in zip(self.us.tolist(), self.vs.tolist(),
                             self.counts.cumsum().tolist()):
            yield u, v, tuple(ws[begin:end])
            begin = end

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupBlock):
            return NotImplemented
        return all(np.array_equal(mine, theirs) for mine, theirs in (
            (self.us, other.us), (self.vs, other.vs),
            (self.counts, other.counts), (self.ws, other.ws)))


_NO_IDS = np.empty(0, dtype=np.int64)
_NO_IDS.setflags(write=False)
#: The empty block: what a kernel returns when it was not asked to
#: collect, or found nothing.
NO_GROUPS = GroupBlock(_NO_IDS, _NO_IDS, _NO_IDS, _NO_IDS)

#: Cap on the successor entries gathered per block: every per-entry
#: temporary (ids, mask offsets, hit flags) is at most this long.
BLOCK_ENTRIES = 1 << 17
#: Cap on the dense mask, one byte per cell; a row-window block spans at
#: most ``MASK_BYTES // n`` (and at least one) distinct ``u`` rows, and an
#: OPT chunk with more rows than that probes its sorted keys instead.
MASK_BYTES = 1 << 22


def mask_cells(num_vertices: int) -> int:
    """Cells of a :func:`block_range` mask kept across ranges (and of the
    OPT driver's, kept across chunks): as many whole rows as
    :data:`MASK_BYTES` holds (at least one), and no more rows than the
    graph has — no range can use more.  For ``n ≤ 2 048`` that is all
    ``n`` rows: the mask holds every row any range can reach, so
    :func:`block_range` gathers the shorter side of every edge."""
    rows = max(1, MASK_BYTES // max(num_vertices, 1))
    return min(rows, num_vertices) * num_vertices


def bit_lengths(values: np.ndarray) -> np.ndarray:
    """``int.bit_length`` of every element of a non-negative int array.

    The binary exponent ``frexp`` reports: exact for values below
    ``2**53``, which float64 holds exactly — the values here are
    successor-list lengths, below the vertex count.
    """
    return np.frexp(values)[1]


def block_range(
    indptr: np.ndarray,
    indices: np.ndarray,
    succ_start: np.ndarray,
    lo: int,
    hi: int,
    collect: bool,
    scope=None,
    mask: np.ndarray | None = None,
) -> tuple[int, int, GroupBlock]:
    """EdgeIterator≻ over ``[lo, hi)`` of a CSR, a block of edges at a time.

    *succ_start* is :attr:`repro.graph.graph.Graph.succ_start`.  Returns
    ``(triangles, ops, groups)`` and charges *scope* exactly as the
    per-pair loop of :func:`repro.exec.engine.run_range` does with the
    ``hash`` binding: one pair per edge ``(u, v)`` with ``u`` in range,
    ``min(|n_succ(u)|, |n_succ(v)|)`` ops each, bucketed by that
    minimum's bit length; groups in ``(u, v)`` order with ascending
    completions.

    *mask* is an all-False scratch of :func:`mask_cells` cells that the
    caller keeps across calls (the ``hash`` binding's); it is all-False
    again on every exit, exceptions included.  Without one, each call
    allocates its own: ``(n − lo) · n`` cells when that fits
    :data:`MASK_BYTES`, else as many whole rows as fit.

    When the mask holds every row a probe of the range can touch — rows
    ``lo … n−1``, ``(n − lo) · n ≤ len(mask)``, always so for a
    binding's mask when ``n ≤ 2 048`` — those rows are marked once and
    each edge ``(u, v)`` gathers the shorter of two slices: ``n_succ(v)``,
    probing ``u``'s row, or the rest of ``u``'s row after ``v``, probing
    ``v``'s row.  Both are ascending and hold the same completions (the
    members of ``n_succ(u) ∩ n_succ(v)``, all above ``v``), so the hits,
    their order and the charge are those of the row-window loop every
    other range takes: mark the rows a block touches, gather
    ``n_succ(v)``, probe ``u``'s row, unmark.
    """
    num_vertices = len(indptr) - 1
    succ_len = indptr[1:] - succ_start
    row_edges = succ_len[lo:hi]
    num_edges = int(row_edges.sum())
    if num_edges == 0:
        return 0, 0, NO_GROUPS
    # Edge e of the range is (us[e], vs[e]), in the per-pair loop's order;
    # v sits at indices[pos[e]], inside u's row.
    us = np.repeat(np.arange(lo, hi, dtype=np.int64), row_edges)
    pos = ragged.expand(succ_start[lo:hi], row_edges)
    vs = indices[pos]
    gather_len = succ_len[vs]
    charge = np.minimum(succ_len[us], gather_len)
    found = np.zeros(num_edges, dtype=np.int64)

    reach = (num_vertices - lo) * num_vertices
    if mask is None:
        rows = (num_vertices - lo if reach <= MASK_BYTES
                else max(1, min(hi - lo, MASK_BYTES // num_vertices)))
        mask = np.zeros(rows * num_vertices, dtype=bool)
    resident = reach <= len(mask)
    if resident:
        # Mark rows lo … n−1 once; each edge gathers its shorter slice
        # (ties keep n_succ(v)) and probes the other side's row.
        rest = indptr[us + 1] - pos - 1
        flip = rest < gather_len
        starts = np.where(flip, pos + 1, succ_start[vs])
        gather_len = np.where(flip, rest, gather_len)
        bases = (np.where(flip, vs, us) - lo) * num_vertices
        reached = _row_cells(indices, succ_start, succ_len, lo, num_vertices)
    else:
        rows = max(1, min(hi - lo, len(mask) // num_vertices))
        reached = _NO_IDS
    del pos  # free before the blocks' temporaries
    gathered = np.cumsum(gather_len)
    completions: list[np.ndarray] = []
    triangles = 0
    start = 0
    try:
        mask[reached] = True
        while start < num_edges:
            taken = int(gathered[start] - gather_len[start])
            stop = max(start + 1, int(np.searchsorted(
                gathered, taken + BLOCK_ENTRIES, side="right")))
            if resident:
                block = slice(start, stop)
                ws = ragged.take_rows(indices, starts[block],
                                      gather_len[block])
                hits = mask[np.repeat(bases[block], gather_len[block]) + ws]
            else:
                first_row = int(us[start])
                stop = max(start + 1, min(stop, int(np.searchsorted(
                    us, first_row + rows, side="left"))))
                block = slice(start, stop)
                # Mark all of n_succ(u) for every row the block touches —
                # also for a row the block enters or leaves part-way: the
                # completions of a later (u, v) may sit anywhere in
                # n_succ(u) above v.
                marked = _row_cells(indices, succ_start, succ_len, first_row,
                                    int(us[stop - 1]) + 1)
                try:
                    mask[marked] = True
                    ws = ragged.take_rows(indices, succ_start[vs[block]],
                                          gather_len[block])
                    hits = mask[np.repeat((us[block] - first_row)
                                          * num_vertices, gather_len[block])
                                + ws]
                finally:
                    mask[marked] = False
            block_triangles = int(np.count_nonzero(hits))
            if block_triangles and (collect or scope is not None):
                # Per-pair hit counts.  reduceat sums hits[cut[i]:cut[i+1]]
                # but yields hits[cut[i]] for an empty slice, so only the
                # edges that gathered anything take part.
                gathering = np.flatnonzero(gather_len[block]) + start
                ends = gathered[gathering] - taken
                found[gathering] = np.add.reduceat(
                    hits, ends - gather_len[gathering], dtype=np.int64)
                if collect:
                    completions.append(ws[hits])
            triangles += block_triangles
            start = stop
    finally:
        mask[reached] = False

    if scope is not None:
        charge_by_length(scope, charge, charge, found)
    return (triangles, int(charge.sum()),
            _closed_groups((us, vs), found, completions))


def _row_cells(indices: np.ndarray, succ_start: np.ndarray,
               succ_len: np.ndarray, first: int, last: int) -> np.ndarray:
    """The mask cells ``(u − first) · n + w`` of every ``w`` in
    ``n_succ(u)``, ``first ≤ u < last``."""
    num_vertices = len(succ_start)
    lengths = succ_len[first:last]
    return (np.repeat(np.arange(last - first) * num_vertices, lengths)
            + ragged.take_rows(indices, succ_start[first:last], lengths))


def charge_by_length(scope, sizes: np.ndarray, ops: np.ndarray,
                     found: np.ndarray | None = None) -> None:
    """Charge *scope* one pair per element, bucketed by its size.

    Element ``i`` lands in the bucket of ``sizes[i]`` with ``ops[i]``
    operations and ``found[i]`` triangles (none when *found* is omitted).
    """
    # Float bincount weights are exact below 2**53, far above any op or
    # triangle total an int64 CSR can produce per range.
    lengths = bit_lengths(sizes)
    pairs = np.bincount(lengths)
    ops_by = np.bincount(lengths, weights=ops)
    found_by = (np.zeros(len(pairs)) if found is None
                else np.bincount(lengths, weights=found))
    scope.charge_lengths({
        int(length): [int(pairs[length]), int(ops_by[length]),
                      int(found_by[length])]
        for length in np.flatnonzero(pairs)})


def probe_pairs(
    members: np.ndarray,
    bases: np.ndarray,
    values: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    labels: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, GroupBlock]:
    """Batched membership of one slice of *values* per pair in one index.

    Pair ``i`` probes ``bases[i] + w`` for every ``w`` of
    ``values[starts[i]:starts[i] + lengths[i]]``: the caller folds the
    side it holds resident into the keys ``row * n + w`` over a CSR's
    rows and names the pair's row by its base.  *members* holds those
    keys either sorted, as int64 — each probe is a binary search — or
    as the set cells of a bool mask longer than every probe, which one
    gather answers.  Returns the hits per pair and, given ``labels =
    (us, vs)``, the groups ``(us[i], vs[i], hits of pair i in slice
    order)`` of the pairs that hit, in pair order.  At most
    :data:`BLOCK_ENTRIES` values (or one pair's slice) are gathered at a
    time.
    """
    dense = members.dtype == bool
    found = np.zeros(len(bases), dtype=np.int64)
    completions: list[np.ndarray] = []
    gathered = lengths.cumsum()
    start = 0
    while start < len(bases) and len(members):
        taken = int(gathered[start] - lengths[start])
        stop = max(start + 1, int(gathered.searchsorted(
            taken + BLOCK_ENTRIES, side="right")))
        block = slice(start, stop)
        # The pair (counted from *start*) owning each gathered value.
        owner = np.arange(stop - start).repeat(lengths[block])
        ws = ragged.take_rows(values, starts[block], lengths[block])
        probes = bases[block][owner] + ws
        if dense:
            hits = members[probes]
        else:
            hits = members.take(members.searchsorted(probes),
                                mode="clip") == probes
        if np.count_nonzero(hits):
            found[block] = np.bincount(owner[hits], minlength=stop - start)
            if labels is not None:
                completions.append(ws[hits])
        start = stop
    return found, _closed_groups(labels, found, completions)


def _closed_groups(labels: tuple[np.ndarray, np.ndarray] | None,
                   found: np.ndarray,
                   completions: list[np.ndarray]) -> GroupBlock:
    """The pairs that closed a triangle, with their hits, as one block.

    *completions* holds the hits of consecutive runs of the ``labels =
    (us, vs)`` pairs, in pair order, so their concatenation is already
    cut by ``found``; nothing was collected (or hit) when it is empty.
    """
    if not completions:
        return NO_GROUPS
    us, vs = labels
    closed = np.flatnonzero(found)
    return GroupBlock(us[closed].astype(np.int64, copy=False),
                      vs[closed].astype(np.int64, copy=False), found[closed],
                      np.concatenate(completions).astype(np.int64, copy=False))
